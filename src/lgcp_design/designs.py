"""Survey design generators: random, quasi-random, inhibitory, space-filling,
and rejection-thinned variants driven by an inclusion probability.

All generators work internally in the unit cube and scale to the target
domain; distance thresholds are therefore always in unit-cube scale. Every
generator is a pure function of its parameters and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.stats import qmc

from .domain import Domain, from_unit_cube, is_admissible, to_unit_cube, unit_cube
from .exceptions import DegenerateFieldError, InfeasibleDesignError, LgcpDesignError
from .evaluation import _moments_at

__all__ = [
    "Design",
    "InclusionProbability",
    "random_design",
    "halton",
    "sobol",
    "fibonacci_lattice_3d",
    "simple_inhibitory",
    "inhibitory_close_pairs",
    "min_dist_discrete",
    "coffee_house",
    "rejection_wrap",
    "space_fill_rejection",
    "default_delta",
    "save_design",
    "load_design",
    "BASE_GENERATORS",
]

_PHI = (1.0 + np.sqrt(5.0)) / 2.0
MAX_CONSECUTIVE_REJECTIONS = 10**6
INHIBITORY_FAIL_LIMIT = 10**5
INHIBITORY_MAX_RESTARTS = 20


@dataclass(frozen=True)
class Design:
    """An ordered set of sampling locations with generator provenance."""

    points: np.ndarray = field(repr=False)  # (n, 3), domain coordinates
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def default_delta(n: int) -> float:
    """Inhibitory distance threshold for a design size, interpolated in 1/sqrt(n).

    Anchored at (50, 0.21), (100, 0.15), (150, 0.1).
    """
    xs = 1.0 / np.sqrt(np.array([150.0, 100.0, 50.0]))
    ys = np.array([0.10, 0.15, 0.21])
    return float(np.interp(1.0 / np.sqrt(n), xs, ys))


# ----------------------------------------------------------------------
# proposal source (base sequences, drawn as arrays)

BASE_GENERATORS = ("random", "halton", "sobol", "fibonacci")


def _van_der_corput(i: np.ndarray, base: int) -> np.ndarray:
    v, denom = np.zeros(i.shape), 1.0
    while i.any():
        denom *= base
        i, rem = np.divmod(i, base)
        v += rem / denom
    return v


class _Proposals:
    """Admissible domain points of one base sequence, in sequence order.

    Raw unit-cube proposals are drawn, mapped and mask-checked as arrays,
    only as many per round as admissible points are still missing, so a
    completed take never draws past the last point it returns.
    """

    def __init__(self, name, domain, seed, offset, n_hint):
        if name not in BASE_GENERATORS:
            raise LgcpDesignError(f"unknown base generator {name!r}")
        self._name, self._domain, self._index = name, domain, offset
        self._misses = 0  # masked proposals since the last admissible one
        if name == "random":
            self._rng = np.random.default_rng(seed)
        elif name == "sobol":
            self._sobol = qmc.Sobol(d=3, scramble=False)
            if offset:
                self._sobol.fast_forward(offset)
        elif name == "fibonacci":
            # rank-1 golden-ratio lattice; first axis strides 1/n_hint
            self._g = np.array([1.0 / max(n_hint, 1), 1.0 / _PHI, 1.0 / _PHI**2])

    def _unit(self, k):
        """The next k raw proposals, as a (k, 3) unit-cube array."""
        if self._name == "random":
            return self._rng.random((k, 3))
        if self._name == "sobol":
            if self._sobol.num_generated == 0 and k > 1:
                # scipy warns unless a fresh generator's first draw is a power of 2
                return np.vstack([self._sobol.random(1), self._sobol.random(k - 1)])
            return self._sobol.random(k)
        i = np.arange(self._index, self._index + k)
        self._index += k
        if self._name == "halton":
            # index starts at 1: base-2 sequence begins 1/2, 1/4, 3/4, ...
            return np.column_stack([_van_der_corput(i + 1, b) for b in (2, 3, 5)])
        return np.mod((i[:, None] + 0.5) * self._g, 1.0)

    def take(self, count):
        """The next ``count`` admissible points as a (count, 3) array, and None.

        If the mask rejects MAX_CONSECUTIVE_REJECTIONS proposals in a row,
        the points before that streak come back with the
        InfeasibleDesignError in place of None.
        """
        found = [np.empty((0, 3))]
        missing = count
        while missing > 0:
            p = from_unit_cube(self._unit(missing), self._domain)
            ok = is_admissible(p, self._domain)
            # masked proposals in a row up to each proposal, across rounds
            j = np.arange(missing)
            run = j - np.maximum.accumulate(np.where(ok, j, -1 - self._misses))
            streak = np.flatnonzero(run >= MAX_CONSECUTIVE_REJECTIONS)
            if streak.size:
                found.append(p[: streak[0]][ok[: streak[0]]])
                return np.concatenate(found), InfeasibleDesignError(
                    "mask rejected 10^6 consecutive proposals"
                )
            found.append(p[ok])
            missing -= len(found[-1])
            self._misses = int(run[-1])
        return np.concatenate(found), None


def _first(name, n, domain, seed=None, offset=0):
    """The first n admissible points of a base sequence."""
    points, error = _Proposals(name, domain, seed, offset, n).take(n)
    if error is not None:
        raise error
    return points


# ----------------------------------------------------------------------
# plain generators


def random_design(n: int, domain: Domain | None = None, seed=0) -> Design:
    """n points uniform over the admissible region of the domain."""
    domain = domain or unit_cube()
    pts = _first("random", n, domain, seed)
    return Design(pts, {"generator": "random", "n": n, "seed": seed})


def halton(n: int, offset: int = 0, domain: Domain | None = None) -> Design:
    """First n admissible points of the 3-D Halton sequence (bases 2, 3, 5)."""
    domain = domain or unit_cube()
    pts = _first("halton", n, domain, offset=offset)
    return Design(pts, {"generator": "halton", "n": n, "offset": offset})


def sobol(n: int, offset: int = 0, domain: Domain | None = None) -> Design:
    """First n admissible points of the 3-D Sobol sequence."""
    domain = domain or unit_cube()
    pts = _first("sobol", n, domain, offset=offset)
    return Design(pts, {"generator": "sobol", "n": n, "offset": offset})


def fibonacci_lattice_3d(n: int, domain: Domain | None = None) -> Design:
    """Deterministic golden-ratio rank-1 lattice of n points."""
    domain = domain or unit_cube()
    pts = _first("fibonacci", n, domain)
    return Design(pts, {"generator": "fibonacci", "n": n})


def simple_inhibitory(n: int, delta: float, domain: Domain | None = None, seed=0) -> Design:
    """Sequential random design with pairwise unit-cube distance >= delta."""
    domain = domain or unit_cube()
    if delta <= 0:
        raise LgcpDesignError("delta must be positive")
    rng = np.random.default_rng(seed)
    for _restart in range(INHIBITORY_MAX_RESTARTS):
        accepted: list[np.ndarray] = []
        failures = 0
        while len(accepted) < n:
            u = rng.random(3)
            p = from_unit_cube(u, domain)
            ok = is_admissible(p, domain)
            if ok and accepted:
                d = np.sqrt(np.sum((np.array(accepted) - u) ** 2, axis=1))
                ok = bool(np.min(d) >= delta)
            if ok:
                accepted.append(u)
                failures = 0
            else:
                failures += 1
                if failures >= INHIBITORY_FAIL_LIMIT:
                    break
        if len(accepted) == n:
            pts = from_unit_cube(np.array(accepted), domain)
            return Design(
                pts,
                {"generator": "min_dran", "n": n, "delta": delta, "seed": seed},
            )
    raise InfeasibleDesignError(
        f"could not pack {n} points at threshold {delta} after "
        f"{INHIBITORY_MAX_RESTARTS} restarts"
    )


def inhibitory_close_pairs(
    n: int, k: int, delta: float, domain: Domain | None = None, seed=0
) -> Design:
    """Inhibitory design of n-k parents plus k clustered close-pair points.

    Parents use the inflated threshold delta_k = delta * sqrt(n / (n - k));
    each close-pair point lies within delta_k / 2 of a random parent.
    """
    domain = domain or unit_cube()
    if not 0 < k < n:
        raise LgcpDesignError("need 0 < k < n")
    delta_k = delta * np.sqrt(n / (n - k))
    parents = simple_inhibitory(n - k, delta_k, domain, seed)
    parent_u = to_unit_cube(parents.points, domain)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    close: list[np.ndarray] = []
    failures = 0
    while len(close) < k:
        parent = parent_u[rng.integers(len(parent_u))]
        # uniform in the delta_k/2 ball around the parent
        v = rng.standard_normal(3)
        v *= (delta_k / 2.0) * rng.random() ** (1.0 / 3.0) / np.linalg.norm(v)
        u = parent + v
        p = from_unit_cube(u, domain)
        if np.all((u >= 0) & (u <= 1)) and is_admissible(p, domain):
            close.append(u)
            failures = 0
        else:
            failures += 1
            if failures >= MAX_CONSECUTIVE_REJECTIONS:
                raise InfeasibleDesignError("close-pair placement kept failing")
    pts = from_unit_cube(np.vstack([parent_u, np.array(close)]), domain)
    return Design(
        pts,
        {
            "generator": "close_pair",
            "n": n,
            "k": k,
            "delta": delta,
            "delta_k": delta_k,
            "seed": seed,
        },
    )


def min_dist_discrete(n: int, delta: float, grid, seed=0) -> Design:
    """Inhibitory design with proposals drawn from grid cell centers.

    Proposals are taken uniformly without replacement; a cell is accepted if
    its unit-cube distance to every accepted point is at least delta.
    """
    if grid.N < n:
        raise LgcpDesignError("grid has fewer cells than the design size")
    domain = grid.domain
    cells_u = to_unit_cube(grid.cells, domain)
    rng = np.random.default_rng(seed)
    for _restart in range(INHIBITORY_MAX_RESTARTS):
        order = rng.permutation(grid.N)
        accepted: list[int] = []
        for idx in order:
            u = cells_u[idx]
            if accepted:
                d = np.sqrt(np.sum((cells_u[accepted] - u) ** 2, axis=1))
                if np.min(d) < delta:
                    continue
            accepted.append(int(idx))
            if len(accepted) == n:
                pts = grid.cells[accepted]
                return Design(
                    pts,
                    {"generator": "min_dist", "n": n, "delta": delta, "seed": seed},
                )
    raise InfeasibleDesignError(
        f"no admissible cell packing of size {n} at threshold {delta}"
    )


def _maximin_order_start(candidates_u: np.ndarray, start_u: np.ndarray) -> np.ndarray:
    """Candidate indices ordered by distance to the start corner (ties: lowest index)."""
    d = np.sqrt(np.sum((candidates_u - start_u) ** 2, axis=1))
    return np.argsort(d, kind="stable")


def coffee_house(
    n: int,
    candidates: np.ndarray,
    start: np.ndarray | None = None,
    domain: Domain | None = None,
) -> Design:
    """Greedy deterministic maximin (coffee-house) selection from candidates.

    Starts at the candidate nearest ``start`` (default: domain lower corner),
    then repeatedly adds the candidate maximizing the minimum distance to the
    selected set. Ties break to the lowest candidate index.
    """
    domain = domain or unit_cube()
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cand.shape[0] < n:
        raise LgcpDesignError("fewer candidates than requested design size")
    cand_u = to_unit_cube(cand, domain)
    start_u = to_unit_cube(start, domain) if start is not None else np.zeros(3)
    first = int(_maximin_order_start(cand_u, start_u)[0])
    selected = [first]
    mindist = np.sqrt(np.sum((cand_u - cand_u[first]) ** 2, axis=1))
    mindist[first] = -np.inf
    while len(selected) < n:
        nxt = int(np.argmax(mindist))
        selected.append(nxt)
        d = np.sqrt(np.sum((cand_u - cand_u[nxt]) ** 2, axis=1))
        mindist = np.minimum(mindist, d)
        mindist[nxt] = -np.inf
    return Design(cand[selected], {"generator": "space_fill", "n": n})


# ----------------------------------------------------------------------
# inclusion probabilities


@dataclass(frozen=True)
class InclusionProbability:
    """Per-location acceptance probability for rejection thinning.

    Variants:
      - "scaled_latent_mean": min-max normalized latent prior/posterior mean
      - "expected_intensity": exp(mu + 2 sigma^2), scaled so the grid max is 1
      - "truncated_expected_intensity": min(p_max, exp(mu + 2 sigma^2)) / grid max
      - "constant": fixed probability (testing and degenerate thinning)
    """

    variant: str
    moments_fn: object = None  # points -> (latent mean, marginal variance)
    p_max: float | None = None
    lo: float = 0.0
    normalizer: float = 1.0

    @classmethod
    def build(cls, variant, model, grid, p_max=None) -> "InclusionProbability":
        """Construct from a model's mean/variance fields, normalized over a grid.

        ``model`` is anything exposing mean_at/cov_at (a prior model or a
        posterior-conditioned one). Mean and variance come from one
        prediction per call.
        """
        moments_fn = partial(_moments_at, model)
        mu, s2 = moments_fn(grid.cells)
        if variant == "scaled_latent_mean":
            lo, hi = float(np.min(mu)), float(np.max(mu))
            if hi == lo:
                raise DegenerateFieldError(
                    "latent mean is constant over the grid; min-max scaling undefined"
                )
            return cls(variant, moments_fn, None, lo, hi - lo)
        if variant in ("expected_intensity", "truncated_expected_intensity"):
            normalizer = float(np.max(np.exp(mu + 2.0 * s2)))
            if variant == "expected_intensity":
                return cls(variant, moments_fn, None, 0.0, normalizer)
            if p_max is None or not 0.0 < p_max <= 1.0:
                raise LgcpDesignError("truncated variant needs p_max in (0, 1]")
            return cls(variant, moments_fn, float(p_max), 0.0, normalizer)
        raise LgcpDesignError(f"unknown inclusion-probability variant {variant!r}")

    @classmethod
    def constant(cls, p: float) -> "InclusionProbability":
        if not 0.0 <= p <= 1.0:
            raise LgcpDesignError("constant probability must lie in [0, 1]")
        return cls("constant", p_max=p)

    def at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.variant == "constant":
            out = np.full(pts.shape[0], self.p_max)
        else:
            mu, s2 = self.moments_fn(pts)
            if self.variant == "scaled_latent_mean":
                out = np.clip((mu - self.lo) / self.normalizer, 0.0, 1.0)
            else:
                v = np.exp(mu + 2.0 * s2)
                if self.variant == "truncated_expected_intensity":
                    v = np.minimum(self.p_max, v)
                out = np.clip(v / self.normalizer, 0.0, 1.0)
        if np.asarray(points).ndim == 1:
            return out[0]
        return out


# ----------------------------------------------------------------------
# rejection thinning

# Most proposals per inclusion-probability evaluation in rejection_wrap: one
# posterior prediction then serves a whole block instead of one proposal.
_BLOCK = 256


def _block_size(n, accepted, pulled):
    """Proposals expected to complete the design at the acceptance rate seen
    so far: n for the first block, _BLOCK while nothing has been accepted."""
    if pulled == 0:
        return n
    if accepted == 0:
        return _BLOCK
    return -(-(n - accepted) * pulled // accepted)


def rejection_wrap(
    base: str,
    incl: InclusionProbability,
    n: int,
    domain: Domain | None = None,
    seed=0,
    max_attempts: int | None = None,
    offset: int = 0,
) -> Design:
    """Thin a base proposal sequence with an inclusion probability.

    Proposals come from one of the sequence-based generators ("random",
    "halton", "sobol", "fibonacci"); each admissible proposal is accepted
    independently with its inclusion probability until n points are kept.
    With p = 1 everywhere, the output equals the plain base design.
    Proposals are drawn and thinned in blocks, each sized from the
    acceptance rate seen so far and capped at _BLOCK: one probability
    evaluation and one array of acceptance draws per block, in sequence
    order, so the result is that of thinning one proposal at a time.
    """
    domain = domain or unit_cube()
    if max_attempts is None:
        max_attempts = 1000 * n
    if max_attempts < n:
        raise LgcpDesignError("max_attempts must be at least n")
    source = _Proposals(base, domain, seed, offset, n)
    accept_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    accepted = [np.empty((0, 3))]
    accepted_idx: list[int] = []
    start = 0
    while start < max_attempts:
        size = _block_size(n, len(accepted_idx), start)
        block, error = source.take(min(size, _BLOCK, max_attempts - start))
        if len(block):
            probs = incl.at(block)
            keep = (accept_rng.random(len(block)) < probs) | (probs >= 1.0)
            kept = np.flatnonzero(keep)[: n - len(accepted_idx)]
            accepted.append(block[kept])
            accepted_idx.extend((start + kept).tolist())
        if len(accepted_idx) == n:
            return Design(
                np.concatenate(accepted),
                {
                    "generator": f"{base}+rejection",
                    "base": base,
                    "n": n,
                    "seed": seed,
                    "offset": offset,
                    "incl_variant": incl.variant,
                    "accepted_proposals": accepted_idx,
                },
            )
        # the proposals taken before a mask failure may complete the design
        if error is not None:
            raise error
        start += len(block)
    raise InfeasibleDesignError(
        f"rejection budget of {max_attempts} proposals exhausted "
        f"({len(accepted_idx)} of {n} accepted)"
    )


def space_fill_rejection(
    n: int,
    candidates: np.ndarray,
    incl: InclusionProbability,
    seed=0,
    start: np.ndarray | None = None,
    domain: Domain | None = None,
) -> Design:
    """Coffee-house selection with rejection thinning on discrete candidates.

    At each step the k-th-largest maximin candidate is proposed; rejection
    increments k, acceptance resets k to 1. The first point is proposed in
    order of distance from the start corner with the same rejection rule.
    With p = 1 everywhere this reproduces coffee_house exactly.
    """
    domain = domain or unit_cube()
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    m = cand.shape[0]
    if m < n:
        raise LgcpDesignError("fewer candidates than requested design size")
    cand_u = to_unit_cube(cand, domain)
    start_u = to_unit_cube(start, domain) if start is not None else np.zeros(3)
    rng = np.random.default_rng(seed)
    probs = incl.at(cand).tolist()

    selected: list[int] = []
    remaining = np.ones(m, dtype=bool)

    def try_order(order) -> int | None:
        for idx in order:
            if rng.random() < probs[idx]:
                return int(idx)
        return None

    first = try_order(_maximin_order_start(cand_u, start_u))
    if first is None:
        raise InfeasibleDesignError("every candidate rejected for the first point")
    selected.append(first)
    remaining[first] = False
    mindist = np.sqrt(np.sum((cand_u - cand_u[first]) ** 2, axis=1))

    while len(selected) < n:
        pool = np.nonzero(remaining)[0]
        # k-th largest maximin value, ties to lowest candidate index
        order = pool[np.argsort(-mindist[pool], kind="stable")]
        nxt = try_order(order)
        if nxt is None:
            raise InfeasibleDesignError(
                "candidate pool exhausted by rejection before reaching n points"
            )
        selected.append(nxt)
        remaining[nxt] = False
        d = np.sqrt(np.sum((cand_u - cand_u[nxt]) ** 2, axis=1))
        mindist = np.minimum(mindist, d)
    return Design(
        cand[selected],
        {
            "generator": "space_fill+rejection",
            "n": n,
            "seed": seed,
            "incl_variant": incl.variant,
        },
    )


# ----------------------------------------------------------------------
# file formats


def save_design(design: Design, csv_path, provenance_path=None) -> None:
    """Write a design as CSV (header s1,s2,t) plus an optional provenance sidecar."""
    with open(csv_path, "w") as fh:
        fh.write("s1,s2,t\n")
        for p in design.points:
            fh.write(f"{p[0]:.17g},{p[1]:.17g},{p[2]:.17g}\n")
    if provenance_path is not None:
        with open(provenance_path, "w") as fh:
            for key, value in design.provenance.items():
                fh.write(f"{key} {json.dumps(value)}\n")


def load_design(csv_path, provenance_path=None) -> Design:
    """Read a design CSV written by save_design."""
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != "s1,s2,t":
            raise LgcpDesignError(f"unexpected design CSV header: {header!r}")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    provenance = {}
    if provenance_path is not None:
        with open(provenance_path) as fh:
            for line in fh:
                key, _, raw = line.partition(" ")
                provenance[key] = json.loads(raw)
    return Design(np.array(rows).reshape(-1, 3), provenance)
