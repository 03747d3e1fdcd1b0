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


# Most raw proposals in one round of _admissible
_MAX_ROUND = 4096


def _admissible(name, domain, seed, offset, n):
    """The admissible domain points of one base sequence, a name its caller
    has checked, in sequence order, as one array per round of raw proposals.

    Each round is drawn, mapped and mask-checked at once. The first round
    has n proposals, so where the mask rejects nothing it holds the first n
    points; each later round doubles, up to _MAX_ROUND. A Sobol round stops
    at the sequence's end, and the request after it raises LgcpDesignError.
    If the mask rejects MAX_CONSECUTIVE_REJECTIONS proposals in a row, across
    rounds, the points before that streak are the last round, and the
    request after it raises InfeasibleDesignError.
    """
    if name == "random":
        rng = np.random.default_rng(seed)
    elif name == "fibonacci":
        # rank-1 golden-ratio lattice; first axis strides 1/n
        g = np.array([1.0 / max(n, 1), 1.0 / _PHI, 1.0 / _PHI**2])
    end = 1 << _SOBOL_BITS if name == "sobol" else np.inf
    index, size, misses = offset, max(n, 1), 0  # misses: masked proposals in a row
    while True:
        # a Sobol round stops at the end; the next is one proposal past it,
        # which _sobol rejects
        k = max(min(size, end - index), 1)
        i = np.arange(index, index + k)
        index += k
        if name == "random":
            u = rng.random((k, 3))
        elif name == "halton":
            # index starts at 1: base-2 sequence begins 1/2, 1/4, 3/4, ...
            u = np.column_stack([_van_der_corput(i + 1, b) for b in (2, 3, 5)])
        elif name == "sobol":
            u = _sobol(i)
        else:
            u = np.mod((i[:, None] + 0.5) * g, 1.0)
        p = from_unit_cube(u, domain)
        ok = is_admissible(p, domain)
        # masked proposals in a row up to each proposal, across rounds
        j = np.arange(k)
        run = j - np.maximum.accumulate(np.where(ok, j, -1 - misses))
        streak = np.flatnonzero(run >= MAX_CONSECUTIVE_REJECTIONS)
        if streak.size:
            yield p[: streak[0]][ok[: streak[0]]]
            raise InfeasibleDesignError("mask rejected 10^6 consecutive proposals")
        yield p[ok]
        misses, size = int(run[-1]), min(2 * size, _MAX_ROUND)


def _require_size(n):
    """The one size rule of every design engine."""
    if n < 0:
        raise LgcpDesignError("n must be >= 0")


def _first(name, n, domain, seed=None, offset=0):
    """The first n admissible points of a base sequence."""
    _require_size(n)
    rounds, found = _admissible(name, domain, seed, offset, n), [np.empty((0, 3))]
    while sum(map(len, found)) < n:
        found.append(next(rounds))
    return np.concatenate(found)[:n]


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


def _inhibit(n, delta, proposals, fail_limit):
    """The design rows of the first n proposals kept, or None once fail_limit
    proposals in a row are refused or the proposals run out.

    ``proposals`` yields (unit-cube point, admissible, design row) triples.
    One is kept when it is admissible and, unless delta is None, at unit-cube
    distance at least delta from every point kept before it. Nothing is
    drawn once n are kept.
    """
    _require_size(n)
    kept, rows = np.empty((n, 3)), np.empty((n, 3))
    k = refused = 0
    for u, ok, row in proposals if n else ():
        if ok and k and delta is not None:
            # the rounded root is monotone: this is the least distance
            ok = np.sqrt(((kept[:k] - u) ** 2).sum(axis=1).min()) >= delta
        if ok:
            kept[k], rows[k] = u, row
            k, refused = k + 1, 0
        else:
            refused += 1
        if k == n or refused >= fail_limit:
            break
    return rows if k == n else None


def _uniform(rng, domain):
    """_inhibit's proposals, uniform over the domain: one rng.random(3) each."""
    while True:
        u = rng.random(3)
        p = from_unit_cube(u, domain)
        yield u, is_admissible(p, domain), p


def simple_inhibitory(n: int, delta: float, domain: Domain | None = None, seed=0) -> Design:
    """Sequential random design with pairwise unit-cube distance >= delta.

    After INHIBITORY_FAIL_LIMIT refused proposals in a row the design
    restarts empty, drawing on from the same random stream, at most
    INHIBITORY_MAX_RESTARTS times in all.
    """
    domain = domain or unit_cube()
    if delta <= 0:
        raise LgcpDesignError("delta must be positive")
    proposals = _uniform(np.random.default_rng(seed), domain)
    for _restart in range(INHIBITORY_MAX_RESTARTS):
        pts = _inhibit(n, delta, proposals, INHIBITORY_FAIL_LIMIT)
        if pts is not None:
            return Design(pts, {"generator": "min_dran", "n": n, "delta": delta, "seed": seed})
    raise InfeasibleDesignError(f"could not pack {n} points at threshold {delta} after "
                                f"{INHIBITORY_MAX_RESTARTS} restarts")


def _near(parent_u, radius, rng, domain):
    """_inhibit's proposals, uniform in the radius ball around a random
    parent; one outside the unit cube is not admissible."""
    while True:
        parent = parent_u[rng.integers(len(parent_u))]
        v = rng.standard_normal(3)
        v *= radius * rng.random() ** (1.0 / 3.0) / np.linalg.norm(v)
        u = parent + v
        p = from_unit_cube(u, domain)
        yield u, ((u >= 0) & (u <= 1)).all() and is_admissible(p, domain), p


def inhibitory_close_pairs(
    n: int, k: int, delta: float, domain: Domain | None = None, seed=0
) -> Design:
    """Inhibitory design of n-k parents plus k clustered close-pair points.

    Parents use the inflated threshold delta_k = delta * sqrt(n / (n - k));
    each close-pair point lies within delta_k / 2 of a random parent, and
    MAX_CONSECUTIVE_REJECTIONS refused placements in a row raise.
    """
    domain = domain or unit_cube()
    if not 0 < k < n:
        raise LgcpDesignError("need 0 < k < n")
    delta_k = delta * np.sqrt(n / (n - k))
    parents = simple_inhibitory(n - k, delta_k, domain, seed)
    parent_u = to_unit_cube(parents.points, domain)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    near = _near(parent_u, delta_k / 2.0, rng, domain)
    close = _inhibit(k, None, near, MAX_CONSECUTIVE_REJECTIONS)
    if close is None:
        raise InfeasibleDesignError("close-pair placement kept failing")
    return Design(np.vstack([from_unit_cube(parent_u, domain), close]),
                  {"generator": "close_pair", "n": n, "k": k, "delta": delta,
                   "delta_k": delta_k, "seed": seed})


def min_dist_discrete(n: int, delta: float, grid, seed=0) -> Design:
    """Inhibitory design with proposals drawn from grid cell centers.

    Proposals are taken uniformly without replacement; a cell is accepted if
    its unit-cube distance to every accepted point is at least delta. When
    a permutation of the cells runs out first, the design restarts empty on
    a new one, at most INHIBITORY_MAX_RESTARTS permutations in all.
    """
    if delta <= 0:
        raise LgcpDesignError("delta must be positive")
    if grid.N < n:
        raise LgcpDesignError("grid has fewer cells than the design size")
    cells_u = to_unit_cube(grid.cells, grid.domain)
    rng = np.random.default_rng(seed)
    for _restart in range(INHIBITORY_MAX_RESTARTS):
        order = rng.permutation(grid.N)
        pts = _inhibit(n, delta, ((cells_u[i], True, grid.cells[i]) for i in order), np.inf)
        if pts is not None:
            return Design(pts, {"generator": "min_dist", "n": n, "delta": delta, "seed": seed})
    raise InfeasibleDesignError(f"no admissible cell packing of size {n} at threshold {delta}")


def _maximin(n, candidates, start, domain, accept=None):
    """Rows of ``candidates`` by greedy maximin (coffee-house) selection: the
    first proposed in order of distance from ``start`` (default: domain lower
    corner), each later one in order of decreasing minimum distance to the
    selected set, ties to the lowest index. A proposal is kept when
    ``accept(index)`` is true, and always when ``accept`` is None."""
    _require_size(n)
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
    Proposals are thinned in the base sequence's rounds (n raw proposals,
    then twice as many each round, up to _MAX_ROUND), cut to the remaining
    ``max_attempts``: one probability evaluation and one array of
    acceptance draws per round, in sequence order, so the result is that of
    thinning one proposal at a time.
    """
    domain = domain or unit_cube()
    BASE_GENERATORS.check(base)
    _require_size(n)
    if max_attempts is None:
        max_attempts = 1000 * n
    if max_attempts < n:
        raise LgcpDesignError("max_attempts must be at least n")
    rounds = _admissible(base, domain, seed, offset, n)
    accept_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    accepted = [np.empty((0, 3))]
    accepted_idx: list[int] = []
    start = 0
    while len(accepted_idx) < n and start < max_attempts:
        block = next(rounds)[: max_attempts - start]
        if len(block):
            probs = incl.at(block)
            kept = np.flatnonzero(accept_rng.random(len(block)) < probs)[: n - len(accepted_idx)]
            accepted.append(block[kept])
            accepted_idx.extend((start + kept).tolist())
        start += len(block)
    if len(accepted_idx) < n:
        raise InfeasibleDesignError(f"rejection budget of {max_attempts} proposals exhausted "
                                    f"({len(accepted_idx)} of {n} accepted)")
    return Design(np.concatenate(accepted),
                  {"generator": f"{base}+rejection", "base": base, "n": n, "seed": seed,
                   "offset": offset, "incl_variant": incl.variant,
                   "accepted_proposals": accepted_idx})


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
