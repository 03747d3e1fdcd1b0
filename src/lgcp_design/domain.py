"""Spatiotemporal study domain, raster masks, and discretization grids.

Points live in three coordinates ``(s1, s2, t)`` and are represented as
numpy arrays: shape ``(3,)`` for a single point, ``(n, 3)`` for a set.
All enumeration orders put ``s1`` fastest and ``t`` slowest, matching the
mask file layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import EmptyGridError, LgcpDesignError

__all__ = [
    "Domain",
    "Grid",
    "point",
    "unit_cube",
    "discretize",
    "to_unit_cube",
    "from_unit_cube",
    "is_admissible",
    "load_mask_file",
    "save_mask_file",
]


def point(s1: float, s2: float, t: float) -> np.ndarray:
    """Build a single spatiotemporal point as a float array of shape (3,)."""
    p = np.array([s1, s2, t], dtype=float)
    if not np.all(np.isfinite(p)):
        raise LgcpDesignError("point coordinates must be finite")
    return p


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box [lo1,hi1]x[lo2,hi2]x[lo_t,hi_t] with an optional raster mask.

    The mask is a boolean array of shape ``(N1, N2, Nt)``; True marks an
    admissible cell. Mask cells are half-open: a point exactly on a cell
    boundary belongs to the lower-index cell.
    """

    bounds: np.ndarray  # shape (3, 2), columns (lo, hi)
    mask: np.ndarray | None = None

    def __post_init__(self):
        bounds = np.asarray(self.bounds, dtype=float)
        if bounds.shape != (3, 2):
            raise LgcpDesignError("bounds must have shape (3, 2)")
        if not np.all(bounds[:, 1] > bounds[:, 0]):
            raise LgcpDesignError("bounds must satisfy hi > lo on every axis")
        object.__setattr__(self, "bounds", bounds)
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.ndim != 3:
                raise LgcpDesignError("mask must be a 3-D raster")
            if not mask.any():
                raise LgcpDesignError("mask excludes every cell")
            object.__setattr__(self, "mask", mask)

    @property
    def lo(self) -> np.ndarray:
        return self.bounds[:, 0]

    @property
    def hi(self) -> np.ndarray:
        return self.bounds[:, 1]

    @property
    def widths(self) -> np.ndarray:
        return self.bounds[:, 1] - self.bounds[:, 0]


def unit_cube(mask: np.ndarray | None = None) -> Domain:
    """The unit cube [0,1]^3, optionally masked."""
    return Domain(np.array([[0.0, 1.0]] * 3), mask)


@dataclass(frozen=True)
class Grid:
    """Cell centers of the admissible cells of a discretized domain."""

    domain: Domain
    resolution: tuple[int, int, int]
    cells: np.ndarray = field(repr=False)  # shape (N, 3)

    @property
    def N(self) -> int:
        return self.cells.shape[0]


def discretize(domain: Domain, resolution: tuple[int, int, int]) -> Grid:
    """Discretize the domain into a lattice and return admissible cell centers.

    Centers are enumerated with s1 fastest and t slowest; masked cells are
    omitted. A resolution other than three positive entries raises
    LgcpDesignError, and EmptyGridError is raised if nothing is admissible.
    """
    res = tuple(int(r) for r in resolution)
    if len(res) != 3:
        raise LgcpDesignError(f"resolution must have three entries (s1, s2, t), got {len(res)}")
    if any(r < 1 for r in res):
        raise LgcpDesignError("resolution must be >= 1 per axis")
    axes = [
        domain.lo[a] + (np.arange(res[a]) + 0.5) * domain.widths[a] / res[a]
        for a in range(3)
    ]
    tt, s2, s1 = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    cells = np.column_stack([s1.ravel(), s2.ravel(), tt.ravel()])
    if domain.mask is not None:
        keep = is_admissible(cells, domain)
        cells = cells[keep]
    if cells.shape[0] == 0:
        raise EmptyGridError("no admissible cell in the requested discretization")
    return Grid(domain, res, cells)


def to_unit_cube(p: np.ndarray, domain: Domain) -> np.ndarray:
    """Affine map from domain coordinates to the unit cube."""
    return (np.asarray(p, dtype=float) - domain.lo) / domain.widths


def from_unit_cube(u: np.ndarray, domain: Domain) -> np.ndarray:
    """Inverse of to_unit_cube."""
    return domain.lo + np.asarray(u, dtype=float) * domain.widths


def _mask_indices(p: np.ndarray, domain: Domain) -> np.ndarray:
    """Raster cell index per axis; boundary points go to the lower-index cell."""
    res = np.asarray(domain.mask.shape)
    frac = (np.atleast_2d(p) - domain.lo) / domain.widths
    idx = np.ceil(frac * res).astype(int) - 1
    return np.clip(idx, 0, res - 1)


def is_admissible(p: np.ndarray, domain: Domain) -> np.ndarray | bool:
    """True where p is inside bounds and its raster cell is unmasked.

    Accepts a single point or an (n, 3) array; returns a scalar or boolean
    vector accordingly.
    """
    arr = np.atleast_2d(np.asarray(p, dtype=float))
    ok = np.all((arr >= domain.lo) & (arr <= domain.hi), axis=1)
    if domain.mask is not None and ok.any():
        idx = _mask_indices(arr[ok], domain)
        ok[ok.nonzero()[0]] = domain.mask[idx[:, 0], idx[:, 1], idx[:, 2]]
    if np.asarray(p).ndim == 1:
        return bool(ok[0])
    return ok


def load_mask_file(path) -> Domain:
    """Read a plain-text raster mask file and return the masked Domain.

    Format: header line ``N1 N2 Nt lo1 hi1 lo2 hi2 lo_t hi_t``, then
    N1*N2*Nt whitespace-separated 0/1 values in row-major order
    (s1 fastest, t slowest). A header that does not parse or has a cell
    count below 1, or a value other than 0 or 1, raises LgcpDesignError.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 9:
        raise LgcpDesignError(f"mask file {path}: truncated header")
    try:
        n1, n2, nt = (int(v) for v in tokens[:3])
        bounds = np.array([float(v) for v in tokens[3:9]]).reshape(3, 2)
        if min(n1, n2, nt) < 1:
            raise ValueError("cell counts must be positive")
    except ValueError:
        header = " ".join(tokens[:9])
        raise LgcpDesignError(f"mask file {path}: malformed header {header!r}") from None
    values = tokens[9:]
    if len(values) != n1 * n2 * nt:
        raise LgcpDesignError(
            f"mask file {path}: expected {n1 * n2 * nt} values, got {len(values)}"
        )
    bad = next((i for i, v in enumerate(values) if v not in ("0", "1")), None)
    if bad is not None:
        raise LgcpDesignError(f"mask file {path}: value {bad + 1} is {values[bad]!r}, not 0 or 1")
    flat = np.array([int(v) for v in values], dtype=bool)
    mask = flat.reshape(nt, n2, n1).transpose(2, 1, 0)
    return Domain(bounds, mask)


def save_mask_file(path, domain: Domain) -> None:
    """Write a Domain's raster mask in the plain-text format read by load_mask_file."""
    if domain.mask is None:
        raise LgcpDesignError("domain has no mask to save")
    n1, n2, nt = domain.mask.shape
    header = [str(n1), str(n2), str(nt)] + [f"{v:.17g}" for v in domain.bounds.ravel()]
    flat = domain.mask.transpose(2, 1, 0).ravel().astype(int)
    with open(path, "w") as fh:
        fh.write(" ".join(header) + "\n")
        fh.write(" ".join(str(v) for v in flat) + "\n")
