"""Covariance and mean functions for spatiotemporal Gaussian process priors.

Spatial distance is Euclidean in (s1, s2); temporal distance is |t - t'|.
Two compositions are supported: a separable product of a spatial and a
temporal kernel, and an additive sum of independent spatial and temporal
components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import Choices, LgcpDesignError

__all__ = [
    "KernelSpec",
    "CovStructure",
    "MeanFunction",
    "cov_matrix",
    "mean_eval",
    "JITTER_SCALE",
]

# Relative diagonal jitter applied before any Cholesky factorization.
JITTER_SCALE = 1e-8

COV_MODES = Choices("covariance mode", "separable", "additive")
MEAN_KINDS = Choices("mean kind", "constant", "concave_quadratic_time", "tabulated")

_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class KernelSpec:
    """One stationary kernel: family, lengthscale and variance."""

    family: str  # one of KERNEL_FAMILIES
    lengthscale: float
    variance: float = 1.0

    def __post_init__(self):
        KERNEL_FAMILIES.check(self.family)
        if not (0 < self.lengthscale < np.inf and 0 < self.variance < np.inf):
            raise LgcpDesignError("lengthscale and variance must be positive and finite")

    def __call__(self, distance):
        """The kernel at distances, computed in a float copy (the caller's
        array is never written); a 0-d result becomes a scalar."""
        return _KERNEL_INTO[self.family](np.array(distance, dtype=float), self)[()]


@dataclass(frozen=True)
class CovStructure:
    """Spatiotemporal covariance: separable product or additive sum.

    In separable mode the spatial variance is fixed at 1 for identifiability;
    the constructor enforces it.
    """

    mode: str  # one of COV_MODES
    spatial: KernelSpec
    temporal: KernelSpec

    def __post_init__(self):
        COV_MODES.check(self.mode)
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


def _check_distance(d: np.ndarray) -> None:
    if np.any(d < 0):
        raise LgcpDesignError("distance must be nonnegative")


def _matern32_into(d: np.ndarray, spec: KernelSpec, buf: np.ndarray | None = None):
    """Overwrite the float distances d with the Matern-3/2 kernel
    sigma^2 (1 + z) exp(-z), z = sqrt(3) d / l, and return d. ``buf``, d's
    shape, holds exp(-z); it is allocated when None."""
    _check_distance(d)
    buf = np.empty_like(d) if buf is None else buf
    np.multiply(_SQRT3, d, out=d)
    d /= spec.lengthscale
    np.negative(d, out=buf)
    np.exp(buf, out=buf)
    d += 1.0
    d *= spec.variance
    d *= buf
    return d


def _sqexp_into(d: np.ndarray, spec: KernelSpec, buf: np.ndarray | None = None):
    """Overwrite the float distances d with the squared-exponential kernel
    sigma^2 exp(-d^2 / l^2) and return d. It needs no scratch, so ``buf`` is
    ignored."""
    _check_distance(d)
    d /= spec.lengthscale
    d *= d
    np.negative(d, out=d)
    np.exp(d, out=d)
    d *= spec.variance
    return d


_KERNEL_INTO = {"matern32": _matern32_into, "sqexp": _sqexp_into}
KERNEL_FAMILIES = Choices("kernel family", *_KERNEL_INTO)


def _as_points(p) -> np.ndarray:
    """p as a float (k, 3) array; a single point becomes one row."""
    arr = np.atleast_2d(np.asarray(p, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise LgcpDesignError(
            f"points must be (k, 3) arrays of (s1, s2, t), got shape {arr.shape}"
        )
    return arr


def _space_distance(a: np.ndarray, b: np.ndarray, out: np.ndarray, work: np.ndarray):
    """Spatial distances between (k, 3) point sets a and b, written to out;
    ``work``, out's shape, is scratch. The sum is sqrt(d0*d0 + d1*d1) in that
    order, which is how scipy's cdist rounds it, so the two agree bit for bit.
    """
    np.subtract.outer(a[:, 0], b[:, 0], out=out)
    out *= out
    np.subtract.outer(a[:, 1], b[:, 1], out=work)
    work *= work
    out += work
    return np.sqrt(out, out=out)


def _time_distance(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """Temporal distances |t - t'| between (k, 3) point sets, written to out."""
    np.subtract.outer(a[:, 2], b[:, 2], out=out)
    return np.abs(out, out=out)


def cov_matrix(points_a: np.ndarray, points_b: np.ndarray, cov: CovStructure) -> np.ndarray:
    """Covariance matrix between two point sets under the given structure.

    It is computed in the array it returns plus one work array of the same
    shape; a Matern temporal kernel adds a third, for its exp(-z).
    """
    a = _as_points(points_a)
    b = _as_points(points_b)
    k = np.empty((a.shape[0], b.shape[0]))
    work = np.empty_like(k)
    _KERNEL_INTO[cov.spatial.family](_space_distance(a, b, k, work), cov.spatial, work)
    kt = _KERNEL_INTO[cov.temporal.family](_time_distance(a, b, work), cov.temporal)
    if cov.mode == "separable":
        k *= kt
    else:
        k += kt
    return k


@dataclass(frozen=True)
class MeanFunction:
    """Prior mean of the latent (log intensity) function.

    Kinds:
      - "constant": m everywhere
      - "concave_quadratic_time": a - c (t - b)^2, purely temporal
      - "tabulated": values given on the cells of a grid, exact-lookup only
    """

    kind: str  # one of MEAN_KINDS
    params: tuple = ()
    grid: object = None
    values: np.ndarray | None = None

    def __post_init__(self):
        MEAN_KINDS.check(self.kind)

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
    else:  # "tabulated"
        out = m.values[_grid_rows(m.grid, arr)]
    if np.asarray(p).ndim == 1:
        return float(out[0])
    return out
