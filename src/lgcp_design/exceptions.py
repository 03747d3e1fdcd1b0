"""Exception hierarchy, and the allowed-values check, shared across the package."""


class LgcpDesignError(Exception):
    """Base class for all errors raised by lgcp_design."""


class EmptyGridError(LgcpDesignError):
    """Discretization produced no admissible cells."""


class NumericalError(LgcpDesignError):
    """Factorization failure, non-convergence, or excessive variance clamping."""


class InfeasibleDesignError(LgcpDesignError):
    """A design generator could not satisfy its constraints within its budget."""


class DegenerateFieldError(LgcpDesignError):
    """An inclusion-probability field is constant where min-max scaling is required."""


class Choices(tuple):
    """The allowed values of a setting; ``check`` raises for any other."""

    def __new__(cls, noun, *values):
        choices = super().__new__(cls, values)
        choices.noun = noun
        return choices

    def check(self, value):
        if value not in self:
            raise LgcpDesignError(f"unknown {self.noun} {value!r}")
