"""Covariance and mean functions for spatiotemporal Gaussian process priors.

Spatial distance is Euclidean in (s1, s2); temporal distance is |t - t'|.
Two compositions are supported: a separable product of a spatial and a
temporal kernel, and an additive sum of independent spatial and temporal
components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .exceptions import LgcpDesignError

__all__ = [
    "KernelSpec",
    "CovStructure",
    "MeanFunction",
    "matern32",
    "sqexp",
    "cov_matrix",
    "mean_eval",
    "JITTER_SCALE",
]

# Relative diagonal jitter applied before any Cholesky factorization.
JITTER_SCALE = 1e-8

_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class KernelSpec:
    """One stationary kernel: family, lengthscale and variance."""

    family: str  # "matern32" or "sqexp"
    lengthscale: float
    variance: float = 1.0

    def __post_init__(self):
        if self.family not in ("matern32", "sqexp"):
            raise LgcpDesignError(f"unknown kernel family {self.family!r}")
        if self.lengthscale <= 0 or self.variance <= 0:
            raise LgcpDesignError("lengthscale and variance must be positive")

    def __call__(self, distance):
        if self.family == "matern32":
            return matern32(distance, self)
        return sqexp(distance, self)


@dataclass(frozen=True)
class CovStructure:
    """Spatiotemporal covariance: separable product or additive sum.

    In separable mode the spatial variance is fixed at 1 for identifiability;
    the constructor enforces it.
    """

    mode: str  # "separable" or "additive"
    spatial: KernelSpec
    temporal: KernelSpec

    def __post_init__(self):
        if self.mode not in ("separable", "additive"):
            raise LgcpDesignError(f"unknown covariance mode {self.mode!r}")
        if self.mode == "separable" and self.spatial.variance != 1.0:
            raise LgcpDesignError(
                "separable mode requires spatial variance 1 (identifiability)"
            )

    @property
    def total_variance(self) -> float:
        """Prior marginal variance k(x, x)."""
        if self.mode == "separable":
            return self.spatial.variance * self.temporal.variance
        return self.spatial.variance + self.temporal.variance


def matern32(distance, spec: KernelSpec):
    """Matern nu=3/2 kernel: sigma^2 (1 + sqrt(3) d / l) exp(-sqrt(3) d / l)."""
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise LgcpDesignError("distance must be nonnegative")
    z = _SQRT3 * d / spec.lengthscale
    return spec.variance * (1.0 + z) * np.exp(-z)


def sqexp(distance, spec: KernelSpec):
    """Squared-exponential kernel: sigma^2 exp(-d^2 / l^2)."""
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise LgcpDesignError("distance must be nonnegative")
    return spec.variance * np.exp(-((d / spec.lengthscale) ** 2))


def _pairwise(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spatial and temporal distance matrices between point sets a and b."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    ds = cdist(a[:, :2], b[:, :2])
    dt = cdist(a[:, 2:3], b[:, 2:3], "cityblock")
    return ds, dt


def cov_matrix(points_a: np.ndarray, points_b: np.ndarray, cov: CovStructure) -> np.ndarray:
    """Covariance matrix between two point sets under the given structure."""
    ds, dt = _pairwise(points_a, points_b)
    ks = cov.spatial(ds)
    kt = cov.temporal(dt)
    if cov.mode == "separable":
        return ks * kt
    return ks + kt


@dataclass(frozen=True)
class MeanFunction:
    """Prior mean of the latent (log intensity) function.

    Kinds:
      - "constant": m everywhere
      - "concave_quadratic_time": a - c (t - b)^2, purely temporal
      - "tabulated": values given on the cells of a grid, exact-lookup only
    """

    kind: str
    params: tuple = ()
    grid: object = None
    values: np.ndarray | None = None

    @classmethod
    def constant(cls, m: float) -> "MeanFunction":
        return cls("constant", (float(m),))

    @classmethod
    def concave_quadratic_time(cls, a: float, b: float, c: float) -> "MeanFunction":
        return cls("concave_quadratic_time", (float(a), float(b), float(c)))

    @classmethod
    def tabulated(cls, grid, values) -> "MeanFunction":
        values = np.asarray(values, dtype=float)
        if values.shape[0] != grid.N or not np.all(np.isfinite(values)):
            raise LgcpDesignError("tabulated values must be finite, one per grid cell")
        return cls("tabulated", (), grid, values)

    def __call__(self, p):
        return mean_eval(p, self)


def _grid_rows(grid, query: np.ndarray) -> np.ndarray:
    """Row of grid.cells at each query point; raises for a point off the grid.

    A point maps to its lattice cell by index arithmetic, and the cell to its
    row through the lattice indices of the grid's own (possibly masked) cells.
    """
    res = np.asarray(grid.resolution)
    dom = grid.domain
    strides = np.array([1, res[0], res[0] * res[1]])

    def lattice(pts):
        return np.rint((pts - dom.lo) * res / dom.widths - 0.5)

    row_of = np.full(int(np.prod(res)), -1)
    row_of[lattice(grid.cells).astype(int) @ strides] = np.arange(grid.N)
    cell = lattice(query)
    rows = np.full(query.shape[0], -1)
    inside = np.all((cell >= 0) & (cell < res), axis=1)
    rows[inside] = row_of[cell[inside].astype(int) @ strides]
    hit = rows >= 0
    hit[hit] = np.all(np.isclose(grid.cells[rows[hit]], query[hit], atol=1e-12), axis=1)
    if not hit.all():
        raise LgcpDesignError("tabulated mean queried off its grid")
    return rows


def mean_eval(p, m: MeanFunction):
    """Evaluate the mean function at one point or an (n, 3) array of points."""
    arr = np.atleast_2d(np.asarray(p, dtype=float))
    if m.kind == "constant":
        out = np.full(arr.shape[0], m.params[0])
    elif m.kind == "concave_quadratic_time":
        a, b, c = m.params
        out = a - c * (arr[:, 2] - b) ** 2
    elif m.kind == "tabulated":
        out = m.values[_grid_rows(m.grid, arr)]
    else:
        raise LgcpDesignError(f"unknown mean kind {m.kind!r}")
    if np.asarray(p).ndim == 1:
        return float(out[0])
    return out
