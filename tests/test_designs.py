import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import qmc

import lgcp_design.designs as dsg
import lgcp_design.lgcp as lgcp_mod
from lgcp_design import (
    Domain,
    InclusionProbability,
    InfeasibleDesignError,
    LgcpDesignError,
    MeanFunction,
    Model,
    Poisson,
    coffee_house,
    condition_on_data,
    default_delta,
    discretize,
    fibonacci_lattice_3d,
    from_unit_cube,
    halton,
    inhibitory_close_pairs,
    is_admissible,
    load_design,
    min_dist_discrete,
    random_design,
    rejection_wrap,
    sample_counts,
    sample_prior,
    save_design,
    simple_inhibitory,
    sobol,
    space_fill_rejection,
    to_unit_cube,
    unit_cube,
)


def pairwise_min_dist(points_u):
    d = np.sqrt(np.sum((points_u[:, None] - points_u[None, :]) ** 2, axis=-1))
    np.fill_diagonal(d, np.inf)
    return d.min()


def masked_domain():
    mask = np.ones((4, 4, 4), dtype=bool)
    mask[:2, :2, :] = False  # carve out a spatial quadrant
    return unit_cube(mask)


def sparse_domain(cells=40):
    """A 20 x 20 x 10 raster with ``cells`` admissible cells (1 % by default)."""
    mask = np.zeros(4000, dtype=bool)
    mask[np.random.default_rng(0).choice(4000, cells, replace=False)] = True
    return unit_cube(mask.reshape(20, 20, 10))


class TestDefaultDelta:
    @pytest.mark.parametrize("n,delta", [(50, 0.21), (100, 0.15), (150, 0.10)])
    def test_anchor_values(self, n, delta):
        assert default_delta(n) == pytest.approx(delta, abs=1e-12)

    def test_monotone_decreasing(self):
        ns = [50, 75, 100, 125, 150]
        ds = [default_delta(n) for n in ns]
        assert all(a > b for a, b in zip(ds, ds[1:]))


class TestRandomDesign:
    def test_shape_and_determinism(self):
        a = random_design(40, seed=7)
        b = random_design(40, seed=7)
        assert a.points.shape == (40, 3)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, random_design(40, seed=8).points)

    def test_respects_mask(self):
        d = masked_domain()
        des = random_design(200, d, seed=1)
        assert np.all(is_admissible(des.points, d))

    def test_scales_to_domain(self):
        dom = Domain(np.array([[10.0, 20.0], [0.0, 5.0], [-1.0, 1.0]]))
        des = random_design(100, dom, seed=0)
        assert np.all(des.points >= dom.lo) and np.all(des.points <= dom.hi)


class TestHalton:
    def test_first_points(self):
        pts = halton(3).points
        expected = np.array([
            [1 / 2, 1 / 3, 1 / 5],
            [1 / 4, 2 / 3, 2 / 5],
            [3 / 4, 1 / 9, 3 / 5],
        ])
        assert np.allclose(pts, expected, atol=1e-12)

    def test_offset_continues_sequence(self):
        full = halton(10).points
        tail = halton(6, offset=4).points
        assert np.allclose(full[4:], tail)

    @staticmethod
    def _digit_loop(i, base):
        """The digit-by-digit radical inverse that _van_der_corput replaces."""
        v, denom = np.zeros(i.shape), 1.0
        while i.any():
            denom *= base
            i, rem = np.divmod(i, base)
            v += rem / denom
        return v

    @pytest.mark.parametrize("base", [2, 3, 5])
    @pytest.mark.parametrize("start, count", [(1, 5000), (10**6, 5001), (2**40, 101), (0, 1),
                                              (0, 0)])
    def test_radical_inverse_matches_digit_loop(self, base, start, count):
        i = np.arange(start, start + count)
        assert np.array_equal(dsg._van_der_corput(i, base), self._digit_loop(i, base))


class TestSobol:
    def test_matches_scipy(self):
        pts = sobol(8).points
        ref = qmc.Sobol(d=3, scramble=False).random(8)
        assert np.allclose(pts, ref)

    @pytest.mark.parametrize("offset", [0, 1, 7, 150, 1000])
    def test_bitwise_scipy(self, offset):
        gen = qmc.Sobol(d=3, scramble=False)
        if offset:
            gen.fast_forward(offset)
        ref = gen.random(4096)
        assert np.array_equal(dsg._sobol(np.arange(offset, offset + 4096)), ref)
        assert np.array_equal(sobol(300, offset=offset).points, ref[:300])

    def test_sequence_length_limit(self):
        # the 30-bit sequence has 2**30 points, as in scipy
        assert sobol(5, offset=2**30 - 5).n == 5
        with pytest.raises(LgcpDesignError, match="at most 2\\*\\*30 Sobol points"):
            sobol(6, offset=2**30 - 5)

    def test_offset(self):
        full = sobol(16).points
        tail = sobol(8, offset=8).points
        assert np.allclose(full[8:], tail)


class TestFibonacci:
    def test_formula(self):
        n = 13
        phi = (1 + np.sqrt(5)) / 2
        g = np.array([1 / n, 1 / phi, 1 / phi**2])
        expected = np.mod((np.arange(n)[:, None] + 0.5) * g[None, :], 1.0)
        assert np.allclose(fibonacci_lattice_3d(n).points, expected)

    def test_deterministic(self):
        assert np.array_equal(
            fibonacci_lattice_3d(21).points, fibonacci_lattice_3d(21).points
        )


class TestInhibitory:
    @pytest.mark.parametrize("n,delta", [(50, 0.21), (100, 0.15)])
    def test_min_distance_constraint(self, n, delta):
        des = simple_inhibitory(n, delta, seed=3)
        assert des.n == n
        assert pairwise_min_dist(des.points) >= delta

    def test_deterministic(self):
        a = simple_inhibitory(30, 0.2, seed=5)
        b = simple_inhibitory(30, 0.2, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_infeasible_raises(self, monkeypatch):
        import lgcp_design.designs as dsg

        # shrink the retry budget so the impossible packing fails fast
        monkeypatch.setattr(dsg, "INHIBITORY_FAIL_LIMIT", 500)
        monkeypatch.setattr(dsg, "INHIBITORY_MAX_RESTARTS", 3)
        with pytest.raises(InfeasibleDesignError):
            simple_inhibitory(3, 2.0)

    def test_respects_mask(self):
        d = masked_domain()
        des = simple_inhibitory(30, 0.15, d, seed=2)
        assert np.all(is_admissible(des.points, d))


class TestClosePairs:
    def test_structure(self):
        n, k, delta = 40, 10, 0.15
        des = inhibitory_close_pairs(n, k, delta, seed=4)
        assert des.n == n
        delta_k = delta * np.sqrt(n / (n - k))
        parents = des.points[: n - k]
        close = des.points[n - k:]
        assert pairwise_min_dist(parents) >= delta_k
        # each close-pair point lies within delta_k/2 of some parent
        d = np.sqrt(np.sum((close[:, None] - parents[None, :]) ** 2, axis=-1))
        assert np.all(d.min(axis=1) <= delta_k / 2 + 1e-12)
        assert des.provenance["delta_k"] == pytest.approx(delta_k)

    def test_k_bounds(self):
        with pytest.raises(LgcpDesignError):
            inhibitory_close_pairs(10, 0, 0.1)
        with pytest.raises(LgcpDesignError):
            inhibitory_close_pairs(10, 10, 0.1)


class TestMinDistDiscrete:
    def test_points_are_cells_and_separated(self):
        grid = discretize(unit_cube(), (8, 8, 6))
        des = min_dist_discrete(20, 0.15, grid, seed=6)
        assert des.n == 20
        assert pairwise_min_dist(des.points) >= 0.15
        # every selected point is a grid cell center
        for p in des.points:
            assert np.any(np.all(np.isclose(grid.cells, p), axis=1))

    def test_too_small_grid(self):
        grid = discretize(unit_cube(), (2, 2, 2))
        with pytest.raises(LgcpDesignError):
            min_dist_discrete(9, 0.1, grid)


class TestCoffeeHouse:
    def test_deterministic_and_greedy(self):
        grid = discretize(unit_cube(), (4, 4, 4))
        des = coffee_house(10, grid.cells)
        assert np.array_equal(des.points, coffee_house(10, grid.cells).points)
        # verify each step maximized the minimum distance to the chosen set
        cand_u = grid.cells  # unit cube: identity scaling
        chosen = [int(np.where(np.all(np.isclose(cand_u, p), axis=1))[0][0])
                  for p in des.points]
        for step in range(1, len(chosen)):
            prev = cand_u[chosen[:step]]
            dmin = np.sqrt(((cand_u[:, None] - prev[None, :]) ** 2).sum(-1)).min(1)
            dmin[chosen[:step]] = -np.inf
            assert dmin[chosen[step]] == pytest.approx(dmin.max())

    def test_first_point_nearest_lower_corner(self):
        grid = discretize(unit_cube(), (5, 5, 5))
        des = coffee_house(3, grid.cells)
        d = np.sqrt((grid.cells**2).sum(1))
        assert np.allclose(des.points[0], grid.cells[np.argmin(d)])

    def test_too_few_candidates(self):
        grid = discretize(unit_cube(), (2, 2, 2))
        with pytest.raises(LgcpDesignError):
            coffee_house(9, grid.cells)

    def test_matches_per_candidate_loop(self):
        # with p = 1 the reference accepts every top candidate
        dom = _scaled_masked_domain()
        cand = discretize(dom, (8, 8, 6)).cells
        start, one = np.array([15.0, 5.0, 0.0]), InclusionProbability.constant(1.0)
        ref, _ = _per_candidate_space_fill(40, cand, one, 0, start, dom)
        assert np.array_equal(coffee_house(40, cand, start, dom).points, ref)


@pytest.fixture
def poisson_model_fixture(additive_cov, concave_mean):
    return Model(concave_mean, additive_cov, Poisson())


class TestInclusionProbability:
    def test_scaled_latent_mean_range(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (6, 6, 6))
        incl = InclusionProbability.build("scaled_latent_mean", poisson_model_fixture, grid)
        p = incl.at(grid.cells)
        assert np.all((p >= 0) & (p <= 1))
        assert p.max() == pytest.approx(1.0)
        assert p.min() == pytest.approx(0.0)

    def test_expected_intensity_normalized(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (6, 6, 6))
        incl = InclusionProbability.build("expected_intensity", poisson_model_fixture, grid)
        p = incl.at(grid.cells)
        assert p.max() == pytest.approx(1.0)
        assert np.all(p > 0)
        # monotone in the mean: highest probability where the mean peaks (t=0.5)
        assert grid.cells[np.argmax(p), 2] == pytest.approx(0.5, abs=0.1)

    def test_truncated_variant(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (6, 6, 6))
        incl = InclusionProbability.build(
            "truncated_expected_intensity", poisson_model_fixture, grid, p_max=0.5
        )
        p = incl.at(grid.cells)
        assert np.all(p <= 1.0)
        # truncation flattens the peak: many cells sit at the common maximum
        assert (np.isclose(p, p.max())).sum() > 1

    def test_truncated_cap_binds_on_part_of_grid(self, poisson_model_fixture):
        # the paper's prior on the CLI's default grid: the cap applies after
        # normalizing, so it binds at the mean's peak and nowhere else
        grid = discretize(unit_cube(), (10, 10, 8))
        incl = InclusionProbability.build(
            "truncated_expected_intensity", poisson_model_fixture, grid, p_max=0.5
        )
        p = incl.at(grid.cells)
        mu, s2 = poisson_model_fixture.moments_at(grid.cells)
        g = np.exp(mu + 2.0 * s2)
        assert p.max() == 0.5
        assert 0 < np.sum(p == 0.5) < grid.N
        assert p.min() < 0.01
        assert np.array_equal(p, np.minimum(0.5, g / g.max()))

    @pytest.mark.parametrize("variant", ["scaled_latent_mean", "expected_intensity",
                                         "truncated_expected_intensity", "constant"])
    def test_at_is_reference_formula(self, variant, poisson_model_fixture):
        """On the grid and off it (where the clip binds), ``at`` has the bits
        of each variant's own formula; all but the truncated one are the
        formulas of the per-variant branches it replaced."""
        grid = discretize(unit_cube(), (6, 6, 6))
        off = np.random.default_rng(5).uniform(-0.2, 1.2, (200, 3))
        mu, s2 = poisson_model_fixture.moments_at(grid.cells)
        g = np.exp(mu + 2.0 * s2)
        reference = {
            "scaled_latent_mean":
                lambda m, v: np.clip((m - mu.min()) / (mu.max() - mu.min()), 0.0, 1.0),
            "expected_intensity":
                lambda m, v: np.clip(np.exp(m + 2.0 * v) / g.max(), 0.0, 1.0),
            "truncated_expected_intensity":
                lambda m, v: np.minimum(0.3, np.clip(np.exp(m + 2.0 * v) / g.max(), 0.0, 1.0)),
            "constant": lambda m, v: np.full(len(m), 0.3),
        }[variant]
        if variant == "constant":
            incl = InclusionProbability.constant(0.3)
        else:
            incl = InclusionProbability.build(variant, poisson_model_fixture, grid, p_max=0.3)
        for pts in (grid.cells, off):
            assert np.array_equal(incl.at(pts), reference(*poisson_model_fixture.moments_at(pts)))
        assert incl.at(off[0]) == reference(*poisson_model_fixture.moments_at(off[:1]))[0]

    def test_truncated_needs_pmax(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (4, 4, 4))
        with pytest.raises(LgcpDesignError):
            InclusionProbability.build(
                "truncated_expected_intensity", poisson_model_fixture, grid
            )

    def test_constant_mean_degenerate(self, additive_cov):
        model = Model(MeanFunction.constant(0.0), additive_cov, Poisson())
        grid = discretize(unit_cube(), (4, 4, 4))
        with pytest.raises(Exception):
            InclusionProbability.build("scaled_latent_mean", model, grid)

    def test_single_point_query(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (4, 4, 4))
        incl = InclusionProbability.build("scaled_latent_mean", poisson_model_fixture, grid)
        v = incl.at(grid.cells[3])
        assert np.isscalar(v) or np.ndim(v) == 0


class TestRejectionWrap:
    @pytest.mark.parametrize("base", ["random", "halton", "sobol", "fibonacci"])
    def test_degenerate_thinning(self, base):
        incl = InclusionProbability.constant(1.0)
        thinned = rejection_wrap(base, incl, 25, seed=9)
        if base == "random":
            plain = random_design(25, seed=9)
        elif base == "halton":
            plain = halton(25)
        elif base == "sobol":
            plain = sobol(25)
        else:
            plain = fibonacci_lattice_3d(25)
        assert np.array_equal(thinned.points, plain.points)

    def test_thinning_is_subsequence(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (6, 6, 6))
        incl = InclusionProbability.build("scaled_latent_mean", poisson_model_fixture, grid)
        thinned = rejection_wrap("halton", incl, 20, seed=1)
        stream = halton(2000).points
        # accepted points appear in stream order
        idx = [int(np.where(np.all(np.isclose(stream, p), axis=1))[0][0])
               for p in thinned.points]
        assert idx == sorted(idx)
        assert idx == thinned.provenance["accepted_proposals"]

    def test_shifts_points_toward_high_probability(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (8, 8, 8))
        incl = InclusionProbability.build("scaled_latent_mean", poisson_model_fixture, grid)
        thinned = rejection_wrap("random", incl, 200, seed=2)
        plain = random_design(200, seed=2)
        # inclusion peaks at t = 0.5; thinned designs concentrate there
        assert np.mean(np.abs(thinned.points[:, 2] - 0.5)) < np.mean(
            np.abs(plain.points[:, 2] - 0.5)
        )

    def test_budget_exhaustion(self):
        incl = InclusionProbability.constant(0.0)
        with pytest.raises(InfeasibleDesignError):
            rejection_wrap("random", incl, 5, seed=0, max_attempts=50)

    def test_deterministic(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (6, 6, 6))
        incl = InclusionProbability.build("scaled_latent_mean", poisson_model_fixture, grid)
        a = rejection_wrap("random", incl, 30, seed=11)
        b = rejection_wrap("random", incl, 30, seed=11)
        assert np.array_equal(a.points, b.points)


def _mostly_rejecting(domain):
    """Acceptance 0.1, and 1 on the last fifth of the time axis."""

    def moments(points):
        return np.where(to_unit_cube(points, domain)[:, 2] > 0.8, 1.0, 0.1), None

    return InclusionProbability("scaled_latent_mean", moments)


def _scaled_masked_domain():
    return Domain(np.array([[10.0, 20.0], [0.0, 5.0], [-1.0, 1.0]]), masked_domain().mask)


class TestSpaceFillRejection:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_candidate_loop_when_most_steps_reject(self, seed):
        dom = _scaled_masked_domain()
        cand = discretize(dom, (8, 8, 6)).cells
        incl, start = _mostly_rejecting(dom), np.array([15.0, 5.0, 0.0])
        des = space_fill_rejection(40, cand, incl, seed=seed, start=start, domain=dom)
        ref, top_rejected = _per_candidate_space_fill(40, cand, incl, seed, start, dom)
        assert top_rejected > 20
        assert np.array_equal(des.points, ref)

    def test_error_messages(self):
        grid = discretize(unit_cube(), (4, 4, 4))
        with pytest.raises(InfeasibleDesignError) as exc:
            space_fill_rejection(5, grid.cells, InclusionProbability.constant(0.0))
        assert str(exc.value) == "every candidate rejected for the first point"
        # 16 candidates in the first time layer, the only acceptable ones
        incl = InclusionProbability(
            "scaled_latent_mean", lambda p: ((p[:, 2] < 0.25).astype(float), None)
        )
        assert len(space_fill_rejection(16, grid.cells, incl).points) == 16
        with pytest.raises(InfeasibleDesignError) as exc:
            space_fill_rejection(17, grid.cells, incl)
        assert str(exc.value) == "candidate pool exhausted by rejection before reaching n points"

    def test_degenerate_equals_coffee_house(self):
        grid = discretize(unit_cube(), (5, 5, 4))
        incl = InclusionProbability.constant(1.0)
        a = space_fill_rejection(15, grid.cells, incl, seed=0)
        b = coffee_house(15, grid.cells)
        assert np.array_equal(a.points, b.points)

    def test_deterministic(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (5, 5, 4))
        incl = InclusionProbability.build("scaled_latent_mean", poisson_model_fixture, grid)
        a = space_fill_rejection(15, grid.cells, incl, seed=3)
        b = space_fill_rejection(15, grid.cells, incl, seed=3)
        assert np.array_equal(a.points, b.points)

    def test_no_duplicates(self, poisson_model_fixture):
        grid = discretize(unit_cube(), (5, 5, 4))
        incl = InclusionProbability.build("scaled_latent_mean", poisson_model_fixture, grid)
        des = space_fill_rejection(30, grid.cells, incl, seed=4)
        assert len(np.unique(des.points, axis=0)) == 30


@pytest.fixture
def conditioned_model(poisson_model_fixture):
    wave1 = halton(12).points
    f = sample_prior(poisson_model_fixture, wave1, 1, seed=7)[0]
    y = sample_counts(poisson_model_fixture, f, seed=8).astype(float)
    return condition_on_data(poisson_model_fixture, wave1, y)


def _per_point_stream(name, domain, seed, offset, n_hint):
    """Admissible proposals generated, mapped and mask-checked one point at a
    time, as a reference for the array source."""
    if name == "random":
        rng = np.random.default_rng(seed)
        raw = (rng.random(3) for _ in itertools.count())
    elif name == "halton":

        def vdc(i, base):
            v, denom = 0.0, 1.0
            while i > 0:
                denom *= base
                i, rem = divmod(i, base)
                v += rem / denom
            return v

        raw = (np.array([vdc(i + 1, b) for b in (2, 3, 5)]) for i in itertools.count(offset))
    elif name == "sobol":
        gen = qmc.Sobol(d=3, scramble=False)
        if offset:
            gen.fast_forward(offset)
        raw = (u for _ in itertools.count() for u in gen.random(256))
    else:
        g = np.array([1.0 / max(n_hint, 1), 1.0 / dsg._PHI, 1.0 / dsg._PHI**2])
        raw = (np.mod((i + 0.5) * g, 1.0) for i in itertools.count(offset))
    misses = 0
    for u in raw:
        p = from_unit_cube(u, domain)
        if is_admissible(p, domain):
            misses = 0
            yield p
        else:
            misses += 1
            if misses >= dsg.MAX_CONSECUTIVE_REJECTIONS:
                raise InfeasibleDesignError("mask rejected 10^6 consecutive proposals")


def _per_proposal_rejection(base, incl, n, domain, seed, max_attempts, offset=0):
    """rejection_wrap evaluated one proposal at a time, as a reference."""
    stream = _per_point_stream(base, domain, seed, offset, n)
    accept_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    points, idx = [], []
    for j in range(max_attempts):
        p = next(stream)
        prob = float(incl.at(p))
        if accept_rng.random() < prob or prob >= 1.0:
            points.append(p)
            idx.append(j)
            if len(points) == n:
                return np.array(points), idx
    raise InfeasibleDesignError(
        f"rejection budget of {max_attempts} proposals exhausted "
        f"({len(points)} of {n} accepted)"
    )


def _per_candidate_space_fill(n, cand, incl, seed, start=None, domain=None):
    """space_fill_rejection evaluated one candidate at a time, as a reference:
    the points, and the number of steps whose top candidate was rejected."""
    domain = domain or unit_cube()
    cand_u = to_unit_cube(cand, domain)
    start_u = np.zeros(3) if start is None else to_unit_cube(start, domain)
    rng = np.random.default_rng(seed)
    top_rejected = 0

    def try_order(order):
        nonlocal top_rejected
        for k, idx in enumerate(order):
            if rng.random() < float(incl.at(cand[idx])):
                top_rejected += k > 0
                return int(idx)
        raise InfeasibleDesignError("rejected")

    order = np.argsort(np.sqrt(np.sum((cand_u - start_u) ** 2, axis=1)), kind="stable")
    selected = [try_order(order)]
    remaining = np.ones(len(cand), dtype=bool)
    remaining[selected[0]] = False
    mindist = np.sqrt(np.sum((cand_u - cand_u[selected[0]]) ** 2, axis=1))
    while len(selected) < n:
        pool = np.nonzero(remaining)[0]
        nxt = try_order(pool[np.argsort(-mindist[pool], kind="stable")])
        selected.append(nxt)
        remaining[nxt] = False
        mindist = np.minimum(mindist, np.sqrt(np.sum((cand_u - cand_u[nxt]) ** 2, axis=1)))
    return cand[selected], top_rejected


def _incl(kind, poisson_model_fixture, conditioned_model):
    grid = discretize(unit_cube(), (6, 6, 6))
    model = poisson_model_fixture if kind == "prior" else conditioned_model
    return InclusionProbability.build("expected_intensity", model, grid)


class TestBlockedThinning:
    """Blocked probability evaluation reproduces the one-proposal-at-a-time loop."""

    @pytest.mark.parametrize("kind", ["prior", "conditioned"])
    @pytest.mark.parametrize("base", ["random", "halton", "sobol", "fibonacci"])
    def test_matches_per_proposal_loop(self, base, kind, poisson_model_fixture,
                                       conditioned_model):
        incl = _incl(kind, poisson_model_fixture, conditioned_model)
        dom = masked_domain()
        # 300 to 600 proposals at this acceptance rate: more than one block
        des = rejection_wrap(base, incl, 150, domain=dom, seed=5, offset=3)
        ref_pts, ref_idx = _per_proposal_rejection(base, incl, 150, dom, 5, 150_000, offset=3)
        assert ref_idx[-1] >= dsg._BLOCK
        assert np.array_equal(des.points, ref_pts)
        assert des.provenance["accepted_proposals"] == ref_idx

    @pytest.mark.parametrize("kind", ["prior", "conditioned"])
    def test_budget_not_a_multiple_of_block(self, kind, poisson_model_fixture,
                                            conditioned_model):
        incl = _incl(kind, poisson_model_fixture, conditioned_model)
        _, ref_idx = _per_proposal_rejection("halton", incl, 90, unit_cube(), 0, 90_000)
        last = ref_idx[-1] + 1
        assert last % dsg._BLOCK != 0
        # the design completes on the last proposal the budget allows
        des = rejection_wrap("halton", incl, 90, max_attempts=last)
        assert des.provenance["accepted_proposals"] == ref_idx
        # one proposal fewer exhausts the budget, with the reference's message
        with pytest.raises(InfeasibleDesignError) as ref_exc:
            _per_proposal_rejection("halton", incl, 90, unit_cube(), 0, last - 1)
        with pytest.raises(InfeasibleDesignError) as exc:
            rejection_wrap("halton", incl, 90, max_attempts=last - 1)
        assert str(exc.value) == str(ref_exc.value)
        assert str(exc.value) == f"rejection budget of {last - 1} proposals exhausted (89 of 90 accepted)"

    def test_stream_failure_inside_a_block(self, monkeypatch):
        # the mask stream gives up after 3 consecutive misses
        monkeypatch.setattr(dsg, "MAX_CONSECUTIVE_REJECTIONS", 3)
        dom = masked_domain()
        stream = _per_point_stream("random", dom, 4, 0, 1)
        available = 0
        with pytest.raises(InfeasibleDesignError):
            while True:
                next(stream)
                available += 1
        assert 0 < available < dsg._BLOCK
        incl = InclusionProbability.constant(1.0)
        # the proposals before the failure complete a design of their size
        des = rejection_wrap("random", incl, available, domain=dom, seed=4)
        assert des.provenance["accepted_proposals"] == list(range(available))
        with pytest.raises(InfeasibleDesignError, match="consecutive"):
            rejection_wrap("random", incl, available + 1, domain=dom, seed=4)

    @pytest.mark.parametrize("kind", ["prior", "conditioned"])
    def test_space_fill_matches_per_candidate_loop(self, kind, poisson_model_fixture,
                                                   conditioned_model):
        incl = _incl(kind, poisson_model_fixture, conditioned_model)
        cand = discretize(unit_cube(), (7, 7, 6)).cells
        des = space_fill_rejection(40, cand, incl, seed=6)
        assert np.array_equal(des.points, _per_candidate_space_fill(40, cand, incl, 6)[0])


class TestProposalSource:
    """The array proposal source reproduces the per-point streams."""

    @pytest.mark.parametrize("offset", [0, 5])
    @pytest.mark.parametrize("base", dsg.BASE_GENERATORS)
    def test_takes_concatenate_to_one_take(self, base, offset):
        sizes = [1, 7, dsg._BLOCK, 3, 1, 100]
        for dom in (masked_domain(), sparse_domain(200)):
            source = dsg._Proposals(base, dom, 2, offset, 40)
            parts = []
            for k in sizes:
                pts, error = source.take(k)
                assert error is None and pts.shape == (k, 3)
                parts.append(pts)
            whole, error = dsg._Proposals(base, dom, 2, offset, 40).take(sum(sizes))
            assert error is None
            assert np.array_equal(np.concatenate(parts), whole)
            stream = _per_point_stream(base, dom, 2, offset, 40)
            assert np.array_equal(whole, [next(stream) for _ in range(sum(sizes))])

    def test_consecutive_misses_cut_a_take(self, monkeypatch):
        monkeypatch.setattr(dsg, "MAX_CONSECUTIVE_REJECTIONS", 3)
        dom = masked_domain()
        ref = []
        with pytest.raises(InfeasibleDesignError):
            for p in _per_point_stream("random", dom, 4, 0, 1):
                ref.append(p)
        assert len(ref) > 1
        pts, error = dsg._Proposals("random", dom, 4, 0, 1).take(len(ref) + 50)
        assert isinstance(error, InfeasibleDesignError) and "consecutive" in str(error)
        assert np.array_equal(pts, ref)
        # the streak only cuts a take that asks past the points before it
        source = dsg._Proposals("random", dom, 4, 0, 1)
        pts, error = source.take(len(ref) - 1)
        assert error is None and np.array_equal(pts, ref[:-1])
        pts, error = source.take(1)
        assert error is None and np.array_equal(pts, ref[-1:])
        pts, error = source.take(1)
        assert isinstance(error, InfeasibleDesignError) and pts.shape == (0, 3)


    @staticmethod
    def _count_rounds(monkeypatch):
        rounds = []
        unit = dsg._Proposals._unit

        def counted(self, k):
            rounds.append(k)
            return unit(self, k)

        monkeypatch.setattr(dsg._Proposals, "_unit", counted)
        return rounds

    def test_rounds_grow_on_a_sparse_mask(self, monkeypatch):
        rounds = self._count_rounds(monkeypatch)
        dom = sparse_domain()
        des = halton(150, domain=dom)
        # one round per doubling up to _MAX_ROUND, then rounds of _MAX_ROUND
        assert rounds[:6] == [150, 300, 600, 1200, 2400, dsg._MAX_ROUND]
        assert set(rounds[5:]) == {dsg._MAX_ROUND} and len(rounds) <= 10
        stream = _per_point_stream("halton", dom, None, 0, 150)
        assert np.array_equal(des.points, [next(stream) for _ in range(150)])

    def test_long_streak_in_few_rounds(self, monkeypatch):
        monkeypatch.setattr(dsg, "MAX_CONSECUTIVE_REJECTIONS", 10**4)
        rounds = self._count_rounds(monkeypatch)
        # two admissible cells, both off the s1 = 0.5 line of a 1-point lattice
        mask = np.zeros((5, 5, 5), dtype=bool)
        mask[0, 0, 0] = mask[4, 4, 4] = True
        with pytest.raises(InfeasibleDesignError) as exc:
            fibonacci_lattice_3d(1, unit_cube(mask))
        assert str(exc.value) == "mask rejected 10^6 consecutive proposals"
        assert len(rounds) <= 20
        assert sum(rounds[:-1]) < 10**4 <= sum(rounds)

    def test_rounds_stop_at_the_sobol_end(self):
        dom, end = sparse_domain(), 1 << dsg._SOBOL_BITS
        last = from_unit_cube(dsg._sobol(np.arange(end - 2000, end)), dom)
        available = int(is_admissible(last, dom).sum())
        assert 0 < available < 2000
        source = dsg._Proposals("sobol", dom, None, end - 2000, 1)
        pts, error = source.take(available)
        assert error is None and np.array_equal(pts, last[is_admissible(last, dom)])
        with pytest.raises(LgcpDesignError, match="at most 2\\*\\*30 Sobol points"):
            source.take(1)


class TestPredictionCount:
    """One posterior prediction per bulk inclusion-probability evaluation."""

    @pytest.fixture
    def count_predictions(self, monkeypatch):
        calls = []
        original = lgcp_mod.laplace_predict

        def counting(post, query):
            calls.append(np.atleast_2d(query).shape[0])
            return original(post, query)

        monkeypatch.setattr(lgcp_mod, "laplace_predict", counting)
        return calls

    @pytest.mark.parametrize(
        "variant", ["scaled_latent_mean", "expected_intensity", "truncated_expected_intensity"]
    )
    def test_one_prediction_per_call(self, variant, conditioned_model, count_predictions):
        grid = discretize(unit_cube(), (6, 6, 6))
        incl = InclusionProbability.build(variant, conditioned_model, grid, p_max=0.5)
        assert count_predictions == [grid.N]
        block = halton(dsg._BLOCK).points
        incl.at(block)
        assert count_predictions == [grid.N, dsg._BLOCK]

    def test_one_prediction_per_block(self, conditioned_model, count_predictions):
        grid = discretize(unit_cube(), (6, 6, 6))
        incl = InclusionProbability.build("expected_intensity", conditioned_model, grid)
        des = rejection_wrap("halton", incl, 90)
        idx = des.provenance["accepted_proposals"]
        # blocks: n proposals first, then the proposals the acceptance rate
        # so far says are still needed, never more than _BLOCK
        sizes, pulled = [], 0
        while pulled <= idx[-1]:
            accepted = sum(i < pulled for i in idx)
            if pulled == 0:
                size = 90
            elif accepted == 0:
                size = dsg._BLOCK
            else:
                size = math.ceil(Fraction(90 - accepted) / Fraction(accepted, pulled))
            sizes.append(min(size, dsg._BLOCK))
            pulled += sizes[-1]
        assert sizes[0] == 90 and dsg._BLOCK in sizes and len(set(sizes)) > 2
        assert count_predictions == [grid.N] + sizes


class TestDesignIO:
    def test_round_trip(self, tmp_path):
        des = halton(12)
        csv = tmp_path / "d.csv"
        prov = tmp_path / "d.prov"
        save_design(des, csv, prov)
        back = load_design(csv, prov)
        assert np.allclose(back.points, des.points, atol=1e-15)
        assert back.provenance == des.provenance

    def test_header_enforced(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,z\n0,0,0\n")
        with pytest.raises(LgcpDesignError):
            load_design(bad)
