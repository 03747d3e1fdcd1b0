"""Survey design generators: random, quasi-random, inhibitory, space-filling,
and rejection-thinned variants driven by an inclusion probability.

All generators work internally in the unit cube and scale to the target
domain; distance thresholds are therefore always in unit-cube scale. Every
generator is a pure function of its parameters and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain, from_unit_cube, is_admissible, to_unit_cube, unit_cube
from .exceptions import Choices, DegenerateFieldError, InfeasibleDesignError, LgcpDesignError

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

BASE_GENERATORS = Choices("base generator", "random", "halton", "sobol", "fibonacci")


def _van_der_corput(i: np.ndarray, base: int) -> np.ndarray:
    """Radical inverse of the nonnegative integers i: the sum over k >= 1 of
    digit_k / base^k, digit_1 the lowest. All digits are formed at once, one
    row per digit, and the rows are added from the lowest digit up, so every
    bit is that of a digit-by-digit loop."""
    top, powers = int(i.max(initial=0)), [1]
    while powers[-1] <= top:
        powers.append(powers[-1] * base)
    if len(powers) == 1:
        return np.zeros(i.shape)
    q = i // np.array(powers)[:, None]  # i // base^k, k = 0..K
    terms = (q[:-1] - base * q[1:]) / np.cumprod(np.full(len(powers) - 1, float(base)))[:, None]
    # row by row, not np.cumsum(axis=0), which accumulates along the strided
    # axis and took twice the digit loop's time at 5000 points
    v = terms[0].copy()
    for row in terms[1:]:
        v += row
    return v


_SOBOL_BITS = 30


def _sobol_directions(bits):
    """Direction numbers of the first three Sobol dimensions, one row per bit.

    Joe & Kuo's: every m_k = 1 in dimension 1; s = 1, a = 0, m = (1) in
    dimension 2; s = 2, a = 1, m = (1, 3) in dimension 3. Later m_k follow
    m_k = m_{k-s} ^ (m_{k-s} << s) ^ XOR_{t<s} a_t (m_{k-t} << t), with a_t
    bit s-1-t of a; v_k = m_k << (bits - k).
    """
    m = np.ones((bits, 3), dtype=np.int64)
    for d, (s, a, m0) in ((1, (1, 0, (1,))), (2, (2, 1, (1, 3)))):
        m[:s, d] = m0
        for k in range(s, bits):
            mk = m[k - s, d] ^ (m[k - s, d] << s)
            for t in range(1, s):
                if (a >> (s - 1 - t)) & 1:
                    mk ^= m[k - t, d] << t
            m[k, d] = mk
    return m << (bits - 1 - np.arange(bits))[:, None]


_SOBOL_V = _sobol_directions(_SOBOL_BITS)


def _sobol(i: np.ndarray) -> np.ndarray:
    """Points i of the unscrambled 3-D Sobol sequence in Gray-code order,
    bit for bit those of scipy's ``qmc.Sobol(d=3, scramble=False)``."""
    if i.size and i[-1] >= 1 << _SOBOL_BITS:
        raise LgcpDesignError(f"at most 2**{_SOBOL_BITS} Sobol points can be generated")
    gray = i ^ (i >> 1)
    x = np.zeros((i.size, 3), dtype=np.int64)
    for k in range(int(gray.max(initial=0)).bit_length()):
        x ^= ((gray >> k) & 1)[:, None] * _SOBOL_V[k]
    return x * 2.0**-_SOBOL_BITS


# Most raw proposals in one round of _Proposals.take, once rounds fall short
_MAX_ROUND = 4096


class _Proposals:
    """Admissible domain points of one base sequence, in sequence order.

    Raw unit-cube proposals are drawn, mapped and mask-checked as arrays in
    rounds. A take's first round draws as many proposals as points are
    missing, so where the mask rejects nothing it completes the take without
    drawing past it; each round that falls short doubles the next, up to
    _MAX_ROUND, and admissible points drawn past a take are kept for the next.
    """

    def __init__(self, name, domain, seed, offset, n_hint):
        BASE_GENERATORS.check(name)
        self._name, self._domain, self._index = name, domain, offset
        self._misses = 0  # masked proposals since the last admissible one
        self._ready = np.empty((0, 3))  # admissible points drawn, not yet taken
        self._error = None  # the streak cut that follows the ready points
        # index past the last proposal the sequence can produce
        self._end = 1 << _SOBOL_BITS if name == "sobol" else np.inf
        if name == "random":
            self._rng = np.random.default_rng(seed)
        elif name == "fibonacci":
            # rank-1 golden-ratio lattice; first axis strides 1/n_hint
            self._g = np.array([1.0 / max(n_hint, 1), 1.0 / _PHI, 1.0 / _PHI**2])

    def _unit(self, k):
        """The next k raw proposals, as a (k, 3) unit-cube array."""
        if self._name == "random":
            return self._rng.random((k, 3))
        i = np.arange(self._index, self._index + k)
        self._index += k
        if self._name == "sobol":
            return _sobol(i)
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
        found = [self._ready[:count]]
        self._ready = self._ready[count:]
        missing = size = count - len(found[0])
        while missing > 0 and self._error is None:
            # past the sequence's end only when the missing points need it
            k = max(missing, min(size, self._end - self._index))
            p = from_unit_cube(self._unit(k), self._domain)
            ok = is_admissible(p, self._domain)
            # masked proposals in a row up to each proposal, across rounds
            j = np.arange(k)
            run = j - np.maximum.accumulate(np.where(ok, j, -1 - self._misses))
            streak = np.flatnonzero(run >= MAX_CONSECUTIVE_REJECTIONS)
            if streak.size:
                p, ok = p[: streak[0]], ok[: streak[0]]
                self._error = InfeasibleDesignError("mask rejected 10^6 consecutive proposals")
            admissible = p[ok]
            found.append(admissible[:missing])
            self._ready = admissible[missing:]
            missing -= len(found[-1])
            self._misses = int(run[-1])
            size = min(2 * size, _MAX_ROUND)
        return np.concatenate(found), self._error if missing else None


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
    # the accepted unit-cube points are the first k rows
    accepted = np.empty((n, 3))
    for _restart in range(INHIBITORY_MAX_RESTARTS):
        k = failures = 0
        while k < n:
            u = rng.random(3)
            p = from_unit_cube(u, domain)
            ok = is_admissible(p, domain)
            if ok and k:
                d = np.sqrt(np.sum((accepted[:k] - u) ** 2, axis=1))
                ok = bool(np.min(d) >= delta)
            if ok:
                accepted[k] = u
                k += 1
                failures = 0
            else:
                failures += 1
                if failures >= INHIBITORY_FAIL_LIMIT:
                    break
        if k == n:
            pts = from_unit_cube(accepted, domain)
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
    if delta <= 0:
        raise LgcpDesignError("delta must be positive")
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


def _maximin(n, candidates, start, domain, accept=None):
    """Rows of ``candidates`` by greedy maximin (coffee-house) selection: the
    first proposed in order of distance from ``start`` (default: domain lower
    corner), each later one in order of decreasing minimum distance to the
    selected set, ties to the lowest index. A proposal is kept when
    ``accept(index)`` is true, and always when ``accept`` is None."""
    domain = domain or unit_cube()
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    m = cand.shape[0]
    if m < n:
        raise LgcpDesignError("fewer candidates than requested design size")
    cand_u = to_unit_cube(cand, domain)
    start_u = to_unit_cube(start, domain) if start is not None else np.zeros(3)
    # proposal score, highest first: nearness to start, then the minimum
    # distance to the selected set, -inf once selected
    score = -np.sqrt(np.sum((cand_u - start_u) ** 2, axis=1))
    mindist = np.inf
    selected: list[int] = []
    while len(selected) < n:
        nxt = int(np.argmax(score))
        if accept is not None and not accept(nxt):
            # the unselected candidates after the top one, in proposal order
            order = np.argsort(-score, kind="stable")[1 : m - len(selected)]
            nxt = next((int(i) for i in order if accept(i)), None)
            if nxt is None:
                raise InfeasibleDesignError(
                    "candidate pool exhausted by rejection before reaching n points"
                    if selected
                    else "every candidate rejected for the first point"
                )
        selected.append(nxt)
        mindist = np.minimum(mindist, np.sqrt(np.sum((cand_u - cand_u[nxt]) ** 2, axis=1)))
        mindist[nxt] = -np.inf
        score = mindist
    return cand[selected]


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
    return Design(_maximin(n, candidates, start, domain), {"generator": "space_fill", "n": n})


# ----------------------------------------------------------------------
# inclusion probabilities


INCL_VARIANTS = Choices("inclusion-probability variant", "scaled_latent_mean",
                        "expected_intensity", "truncated_expected_intensity")


def _intensity(mu, s2):
    return np.exp(mu + 2.0 * s2)


def _unit_mean(points):
    return np.ones(len(points)), None


# each variant's density g(mu, sigma^2); "constant" reads _unit_mean's mu
_DENSITY = {"scaled_latent_mean": lambda mu, s2: mu, "expected_intensity": _intensity,
            "truncated_expected_intensity": _intensity, "constant": lambda mu, s2: mu}


@dataclass(frozen=True)
class InclusionProbability:
    """Per-location acceptance probability for rejection thinning:
    p = min(p_max, clip((g - lo) / normalizer, 0, 1)), a density g of the latent
    mean mu and variance sigma^2 normalized over a grid, then capped.
      - "scaled_latent_mean": g = mu, lo its grid minimum (min-max scaling)
      - "expected_intensity": g = exp(mu + 2 sigma^2), lo = 0
      - "truncated_expected_intensity": the same g, capped at p_max
      - "constant": g = 1, so p = p_max (testing and degenerate thinning)
    """

    variant: str
    moments_fn: object = None  # points -> (latent mean, marginal variance)
    p_max: float = 1.0
    lo: float = 0.0
    normalizer: float = 1.0

    @staticmethod
    def check(variant, p_max=None):
        """Raise LgcpDesignError unless ``build`` takes this variant and p_max."""
        INCL_VARIANTS.check(variant)
        if variant == "truncated_expected_intensity" and (p_max is None or not 0.0 < p_max <= 1.0):
            raise LgcpDesignError("truncated variant needs p_max in (0, 1]")

    @classmethod
    def build(cls, variant, model, grid, p_max=None) -> "InclusionProbability":
        """Construct from a model's mean/variance fields, normalized over a grid.

        ``model`` is a prior model or a posterior-conditioned one; mean and
        variance come from one ``model.moments_at`` call per evaluation.
        Only "truncated_expected_intensity" reads ``p_max``.
        """
        cls.check(variant, p_max)
        g = _DENSITY[variant](*model.moments_at(grid.cells))
        lo = 0.0
        if variant == "scaled_latent_mean":
            lo = float(np.min(g))
            if np.max(g) == lo:
                raise DegenerateFieldError(
                    "latent mean is constant over the grid; min-max scaling undefined"
                )
        p_max = float(p_max) if variant == "truncated_expected_intensity" else 1.0
        return cls(variant, model.moments_at, p_max, lo, float(np.max(g)) - lo)

    @classmethod
    def constant(cls, p: float) -> "InclusionProbability":
        if not 0.0 <= p <= 1.0:
            raise LgcpDesignError("constant probability must lie in [0, 1]")
        return cls("constant", _unit_mean, p)

    def at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = _DENSITY[self.variant](*self.moments_fn(pts))
        out = np.minimum(self.p_max, np.clip((g - self.lo) / self.normalizer, 0.0, 1.0))
        return out[0] if np.asarray(points).ndim == 1 else out


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
            kept = np.flatnonzero(accept_rng.random(len(block)) < probs)[: n - len(accepted_idx)]
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

    Each proposal of coffee_house's order is accepted with its inclusion
    probability, one draw per proposed candidate: at each step the
    k-th-largest maximin candidate is proposed, rejection increments k and
    acceptance resets k to 1. With p = 1 everywhere this is coffee_house.
    """
    probs = incl.at(np.atleast_2d(candidates)).tolist()
    draw = np.random.default_rng(seed).random
    points = _maximin(n, candidates, start, domain, lambda i: draw() < probs[i])
    return Design(
        points,
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
    """Read a design CSV written by save_design. A data row that is not
    exactly three finite numbers raises LgcpDesignError naming the file and
    the line."""
    rows = []
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != "s1,s2,t":
            raise LgcpDesignError(f"unexpected design CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                row = []
            if len(row) != 3 or not np.isfinite(row).all():
                raise LgcpDesignError(
                    f"design CSV {csv_path}, line {lineno}: "
                    f"expected three finite numbers, got {line.strip()!r}"
                )
            rows.append(row)
    provenance = {}
    if provenance_path is not None:
        with open(provenance_path) as fh:
            for line in fh:
                key, _, raw = line.partition(" ")
                provenance[key] = json.loads(raw)
    return Design(np.array(rows).reshape(-1, 3), provenance)
