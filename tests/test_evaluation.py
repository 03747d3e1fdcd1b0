import sys

import numpy as np
import pytest

import lgcp_design.evaluation as ev
from lgcp_design import (
    GaussianObs,
    InclusionProbability,
    LgcpDesignError,
    MeanFunction,
    Model,
    NegativeBinomial,
    NumericalError,
    Poisson,
    PriorTerms,
    compare_designs,
    condition_on_data,
    discretize,
    expected_apv,
    expected_kl,
    fit_lgcp,
    halton,
    intensity_moments,
    kl_lemma1,
    laplace_predict,
    mean_latent_variance,
    random_design,
    rejection_wrap,
    sample_counts,
    sample_prior,
    unit_cube,
    write_comparison_csv,
)
from conftest import dense_gaussian_posterior, gaussian_posterior_kl


@pytest.fixture
def grid():
    return discretize(unit_cube(), (5, 5, 4))


@pytest.fixture
def pois_model(additive_cov, concave_mean):
    return Model(concave_mean, additive_cov, Poisson())


@pytest.fixture
def gauss_model(additive_cov, concave_mean):
    return Model(concave_mean, additive_cov, GaussianObs(0.5))


def _after_wave1(model):
    """Demo 04's two-stage flow at a small size: the model after wave 1."""
    wave1 = halton(10)
    f1 = sample_prior(model, wave1.points, 1, seed=7)[0]
    y1 = sample_counts(model, f1, seed=8).astype(float)
    return condition_on_data(model, wave1.points, y1)


@pytest.fixture
def conditioned(pois_model):
    return _after_wave1(pois_model)


class TestDeterminism:
    def test_apv_bitwise(self, pois_model, grid):
        design = halton(15)
        a = expected_apv(pois_model, design, grid, 10, seed=42, target="intensity")
        b = expected_apv(pois_model, design, grid, 10, seed=42, target="intensity")
        assert a.value == b.value
        assert np.array_equal(a.replicates, b.replicates)

    def test_kl_bitwise(self, pois_model):
        design = halton(12)
        a = expected_kl(pois_model, design, 10, seed=7)
        b = expected_kl(pois_model, design, 10, seed=7)
        assert a.value == b.value

    def test_seed_changes_result(self, pois_model, grid):
        design = halton(15)
        a = expected_apv(pois_model, design, grid, 10, seed=1, target="intensity")
        b = expected_apv(pois_model, design, grid, 10, seed=2, target="intensity")
        assert a.value != b.value


class TestEmptyDesign:
    def test_apv_equals_prior(self, pois_model, grid):
        from lgcp_design.designs import Design

        empty = Design(np.empty((0, 3)), {})
        est = expected_apv(pois_model, empty, grid, 5, target="latent")
        assert est.value == pytest.approx(pois_model.cov.total_variance)
        assert est.std_error == 0.0

    def test_kl_zero(self, pois_model):
        from lgcp_design.designs import Design

        empty = Design(np.empty((0, 3)), {})
        est = expected_kl(pois_model, empty, 5)
        assert est.value == 0.0


class TestUnknownApvTarget:
    @pytest.mark.parametrize("case", ["poisson", "gaussian", "empty"])
    def test_rejected_before_any_draw_or_fit(self, case, pois_model, gauss_model, grid,
                                             monkeypatch):
        from lgcp_design.designs import Design

        calls = []

        def counted(mod, name):
            real = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        counted(ev.lgcp, "fit_lgcp")
        counted(ev.gp_gaussian, "sample_prior")
        model = gauss_model if case == "gaussian" else pois_model
        design = Design(np.empty((0, 3)), {}) if case == "empty" else halton(10)
        with pytest.raises(LgcpDesignError, match="^unknown APV target 'latnet'$"):
            expected_apv(model, design, grid, 4, seed=0, target="latnet")
        assert calls == []


class TestEstimate:
    """``estimate`` over several criteria against one call per criterion."""

    @pytest.mark.parametrize("case", ["poisson", "negbin", "gaussian"])
    def test_rows_equal_single_criterion_results(self, case, pois_model, gauss_model,
                                                 additive_cov, concave_mean, grid):
        model = {
            "poisson": pois_model,
            "negbin": Model(concave_mean, additive_cov, NegativeBinomial(2.0)),
            "gaussian": gauss_model,
        }[case]
        criteria = ["kl", "apv_latent"] if case == "gaussian" else list(ev.CRITERIA)
        design = halton(12)
        single = {
            "apv_latent": lambda: expected_apv(model, design, grid, 6, seed=3, target="latent"),
            "apv_intensity": lambda: expected_apv(model, design, grid, 6, seed=3,
                                                  target="intensity"),
            "kl": lambda: expected_kl(model, design, 6, seed=3),
        }
        rows = ev.estimate(model, design, criteria, grid, 6, seed=3)
        assert [r.criterion for r in rows] == criteria
        for row in rows:
            one = single[row.criterion]()
            assert (row.value, row.std_error, row.M) == (one.value, one.std_error, one.M)
            assert np.array_equal(row.replicates, one.replicates)

    def test_failure_in_one_criterion_drops_the_replicate_from_all(self, pois_model, grid,
                                                                   monkeypatch):
        # replicate 1's KL fails; its latent APV, computed first, goes with it
        apv = expected_apv(pois_model, halton(10), grid, 40, seed=0, target="latent")
        real = ev.lgcp.kl_lemma1
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] == 2:
                raise NumericalError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(ev.lgcp, "kl_lemma1", flaky)
        rows = ev.estimate(pois_model, halton(10), ["apv_latent", "kl"], grid, 40, seed=0)
        assert [(r.M, r.n_failed, r.failure_reasons) for r in rows] == [(39, 1, {"forced": 1})] * 2
        assert np.array_equal(rows[0].replicates, np.delete(apv.replicates, 1))

    @pytest.mark.parametrize("criteria, M, message", [
        (["apv_latent", "KL"], 4, "^unknown criterion 'KL'$"),
        (["apv_latent", "kl"], 1, "^M must be >= 2$"),
    ])
    def test_rejected_before_any_draw_or_fit(self, criteria, M, message, pois_model, grid,
                                             monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("drew or fitted")

        monkeypatch.setattr(ev.lgcp, "fit_lgcp", boom)
        monkeypatch.setattr(ev.gp_gaussian, "sample_prior", boom)
        with pytest.raises(LgcpDesignError, match=message):
            ev.estimate(pois_model, halton(10), criteria, grid, M)

    def test_empty_design_takes_the_prior_values(self, pois_model, grid):
        from lgcp_design.designs import Design

        empty = Design(np.empty((0, 3)), {})
        rows = ev.estimate(pois_model, empty, ["kl", "apv_latent", "apv_intensity"], grid, 5)
        assert [r.value for r in rows] == [
            0.0,
            expected_apv(pois_model, empty, grid, 5, target="latent").value,
            expected_apv(pois_model, empty, grid, 5, target="intensity").value,
        ]
        assert [r.std_error for r in rows] == [0.0] * 3


class TestGaussianShortcut:
    def test_apv_latent_deterministic(self, gauss_model, grid):
        design = random_design(20, seed=3)
        est = expected_apv(gauss_model, design, grid, 10, seed=0, target="latent")
        assert len(set(est.replicates.tolist())) == 1
        assert est.std_error < 1e-15
        # matches a direct fit at arbitrary y (variance is y-independent)
        post = fit_lgcp(gauss_model, design.points, np.zeros(20))
        _, var = laplace_predict(post, grid.cells)
        assert est.value == pytest.approx(float(np.mean(var)), rel=1e-9)

    def test_kl_uses_closed_form(self, gauss_model):
        design = random_design(10, seed=4)
        est = expected_kl(gauss_model, design, 8, seed=5)
        assert est.M == 8
        assert est.value > 0
        assert np.all(est.replicates >= 0)


class TestGaussianKlAgainstOracle:
    @pytest.mark.parametrize("n", [50, 150])
    def test_replicates_match_moment_oracle(self, gauss_model, n):
        # the paper's model at its design sizes; each replicate's y is
        # redrawn from the seed scheme of evaluation._replicates
        design = halton(n)
        kl = expected_kl(gauss_model, design, 4, seed=7)
        K = gauss_model.cov_at(design.points) + gauss_model.jitter * np.eye(n)
        mu = gauss_model.mean_at(design.points)
        for j in range(4):
            draw_seed = np.random.SeedSequence(7, spawn_key=(j, 0))
            f = sample_prior(gauss_model, design.points, 1, draw_seed)[0]
            y = sample_counts(gauss_model, f, np.random.SeedSequence(7, spawn_key=(j, 1)))
            oracle = gaussian_posterior_kl(mu, K, gauss_model.obs.noise_variance, y)
            assert abs(kl.replicates[j] - oracle) <= 1e-6 * oracle


class TestMoreDataMoreInformation:
    def test_apv_decreases_with_n(self, pois_model, grid):
        small = expected_apv(pois_model, halton(5), grid, 12, seed=0, target="latent")
        large = expected_apv(pois_model, halton(40), grid, 12, seed=0, target="latent")
        assert large.value < small.value

    def test_kl_increases_with_n(self, pois_model):
        small = expected_kl(pois_model, halton(5), 12, seed=0)
        large = expected_kl(pois_model, halton(40), 12, seed=0)
        assert large.value > small.value


class TestZeroInformationLimit:
    def test_flat_low_intensity_learns_nothing(self, additive_cov, grid):
        # mean -20: expected counts ~ 2e-9, so observations are all zeros
        model = Model(MeanFunction.constant(-20.0), additive_cov, Poisson())
        design = random_design(15, seed=1)
        est = expected_apv(model, design, grid, 10, seed=2, target="latent")
        prior = additive_cov.total_variance
        assert est.value == pytest.approx(prior, rel=0.01)
        kl = expected_kl(model, design, 10, seed=3)
        assert kl.value <= max(1e-3, 2 * kl.std_error)


class TestMonteCarloScaling:
    def test_std_error_shrinks_with_m(self, pois_model, grid):
        design = halton(15)
        small = expected_apv(pois_model, design, grid, 25, seed=0, target="intensity")
        large = expected_apv(pois_model, design, grid, 100, seed=0, target="intensity")
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.5)


class TestFailurePolicy:
    def test_total_failure_raises(self, pois_model, grid, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("forced")

        monkeypatch.setattr(ev.lgcp, "fit_lgcp", boom)
        with pytest.raises(NumericalError):
            expected_apv(pois_model, halton(10), grid, 10, target="latent")

    def test_rare_failure_tolerated(self, pois_model, grid, monkeypatch):
        real = ev.lgcp.fit_lgcp
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] == 1:
                raise NumericalError("forced once")
            return real(*args, **kwargs)

        monkeypatch.setattr(ev.lgcp, "fit_lgcp", flaky)
        est = expected_apv(pois_model, halton(10), grid, 40, target="latent")
        assert est.M == 39

    @pytest.mark.parametrize("criterion", ["apv_latent", "kl"])
    def test_failed_replicates_are_counted(self, pois_model, grid, monkeypatch, criterion):
        real = ev.lgcp.fit_lgcp
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] == 4:
                raise NumericalError("forced once")
            return real(*args, **kwargs)

        estimate = {
            "apv_latent": lambda: expected_apv(pois_model, halton(10), grid, 40, target="latent"),
            "kl": lambda: expected_kl(pois_model, halton(10), 40),
        }[criterion]
        assert estimate().n_failed == 0
        monkeypatch.setattr(ev.lgcp, "fit_lgcp", flaky)
        est = estimate()
        assert est.n_failed == 1
        assert est.M + est.n_failed == 40

    def test_failure_reasons_count_each_message(self, pois_model, monkeypatch):
        # fits 3 and 7 stall and fit 11 overflows: 3 of 80 replicates fail
        real = ev.lgcp.fit_lgcp
        calls = {"i": 0}
        messages = {3: "stalled", 7: "stalled", 11: "overflow"}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] in messages:
                raise NumericalError(messages[calls["i"]])
            return real(*args, **kwargs)

        assert expected_kl(pois_model, halton(10), 80).failure_reasons == {}
        monkeypatch.setattr(ev.lgcp, "fit_lgcp", flaky)
        est = expected_kl(pois_model, halton(10), 80)
        assert est.failure_reasons == {"stalled": 2, "overflow": 1}
        assert est.n_failed == 3 and est.M == 77

    def test_over_budget_error_carries_reasons(self, pois_model, grid, monkeypatch):
        real = ev.lgcp.fit_lgcp
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            # fits 1, 3, 5 and 7 of 8 fail, with two messages
            calls["i"] += 1
            if calls["i"] % 2:
                raise NumericalError("stalled" if calls["i"] % 4 == 1 else "overflow")
            return real(*args, **kwargs)

        monkeypatch.setattr(ev.lgcp, "fit_lgcp", flaky)
        with pytest.raises(NumericalError) as info:
            expected_apv(pois_model, halton(10), grid, 8, seed=1, target="latent")
        assert str(info.value) == "4 of 8 replicates failed to converge"
        assert info.value.failure_reasons == {"stalled": 2, "overflow": 2}

    def test_compare_over_budget_error_carries_reasons_per_design(self, pois_model, grid,
                                                                 monkeypatch):
        real = ev.lgcp.fit_lgcp
        b = random_design(6, seed=1)

        def failing_b(model, points, *args, **kwargs):
            if np.array_equal(points, b.points):
                raise NumericalError("stalled")
            return real(model, points, *args, **kwargs)

        monkeypatch.setattr(ev.lgcp, "fit_lgcp", failing_b)
        with pytest.raises(NumericalError) as info:
            compare_designs(pois_model, {"a": halton(8), "b": b}, ["apv_latent", "kl"], grid, 4,
                            seed=1)
        assert str(info.value) == "4 replicate fits failed across designs"
        assert info.value.failure_reasons == {"a": {}, "b": {"stalled": 4}}

    def test_union_factor_failure_is_every_replicate_reason(self, pois_model, monkeypatch):
        def singular(mat, jitter):
            raise NumericalError("singular prior")

        monkeypatch.setattr(ev.gp_gaussian, "_chol", singular)
        point_sets = [halton(8).points, random_design(6, seed=1).points]
        reps, reasons = ev._replicates(
            pois_model, point_sets, ["kl"], None, 4, 1, lambda j, d: (j, 1, d)
        )
        assert np.isnan(reps).all()
        assert reasons == [{"singular prior": 4}, {"singular prior": 4}]

    def test_union_factor_failure_fails_every_cell(self, pois_model, grid, monkeypatch):
        def singular(mat, jitter):
            raise NumericalError("forced")

        # only sample_prior factors through gp_gaussian's _chol on this path
        monkeypatch.setattr(ev.gp_gaussian, "_chol", singular)
        with pytest.raises(NumericalError, match="^4 of 4 replicates failed to converge$"):
            expected_apv(pois_model, halton(8), grid, 4, seed=1, target="latent")
        designs = {"a": halton(8), "b": random_design(6, seed=1), "c": halton(5, offset=8)}
        with pytest.raises(NumericalError, match="^12 replicate fits failed across designs$"):
            compare_designs(pois_model, designs, ["apv_latent", "kl"], grid, 4, seed=1)

    def test_prior_terms_failure_fails_each_replicate_of_its_set(self, pois_model):
        b = random_design(6, seed=1)

        class FailingVariance:
            """pois_model, except that the prior variance at b's points fails."""

            obs = pois_model.obs
            jitter = pois_model.jitter
            mean_at = staticmethod(pois_model.mean_at)
            cov_at = staticmethod(pois_model.cov_at)

            @staticmethod
            def moments_at(points):
                if np.array_equal(points, b.points):
                    raise NumericalError("forced")
                return pois_model.moments_at(points)

        model = FailingVariance()
        # kl predicts at the design points, so only design b's cells fail
        with pytest.raises(NumericalError, match="^4 replicate fits failed across designs$"):
            compare_designs(model, {"a": halton(8), "b": b}, ["kl"], None, 4, seed=2)


class TestPriorTerms:
    @pytest.mark.parametrize("call", ["fit_lgcp", "sample_prior"])
    def test_prior_for_other_points_or_model_rejected(self, call, gauss_model, additive_cov,
                                                      concave_mean):
        X = halton(6).points
        other_model = Model(concave_mean, additive_cov, GaussianObs(2.0))
        run = {
            "fit_lgcp": lambda prior: fit_lgcp(gauss_model, X, np.zeros(6), prior=prior),
            "sample_prior": lambda prior: sample_prior(gauss_model, X, 1, 0, prior=prior),
        }[call]
        run(PriorTerms.at(gauss_model, X))
        for prior in (PriorTerms.at(gauss_model, halton(6, offset=6).points),
                      PriorTerms.at(gauss_model, X[:5]),
                      PriorTerms.at(other_model, X)):
            with pytest.raises(LgcpDesignError, match="^prior terms were built for another"):
                run(prior)


def _interface_only(model):
    """``model`` behind the model interface alone: obs, jitter, mean_at,
    moments_at and cov_at, with no var_at, cov or noise_variance."""

    class Stub:
        obs = model.obs
        jitter = model.jitter
        mean_at = staticmethod(model.mean_at)
        moments_at = staticmethod(model.moments_at)
        cov_at = staticmethod(model.cov_at)

    return Stub()


def _same(a, b):
    """Equal bit for bit, arrays (NaN included), dicts, lists and the
    fields of estimates too."""
    if isinstance(a, ev.UtilityEstimate):
        return type(b) is ev.UtilityEstimate and _same(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


class TestModelInterface:
    def test_prior_moments(self, pois_model, conditioned, grid):
        q = grid.cells
        mean, var = pois_model.moments_at(q)
        assert np.array_equal(mean, pois_model.mean_at(q))
        assert np.array_equal(var, np.full(len(q), pois_model.cov.total_variance))
        mean, var = conditioned.moments_at(q)
        assert np.array_equal(mean, conditioned.mean_at(q))
        assert np.array_equal(var, conditioned.var_at(q))

    @pytest.mark.parametrize("kind", ["poisson", "gaussian"])
    def test_stub_gives_the_wrapped_models_results(self, kind, pois_model, gauss_model, grid):
        model = pois_model if kind == "poisson" else gauss_model
        stub = _interface_only(model)
        for attr in ("var_at", "cov", "noise_variance"):
            assert not hasattr(stub, attr)
        X = halton(12).points

        def run(m):
            f = sample_prior(m, X, 2, seed=5)
            y = np.asarray(sample_counts(m, f[0], seed=6), dtype=float)
            post = fit_lgcp(m, X, y)
            incl = InclusionProbability.build("expected_intensity", m, grid)
            designs = {"a": halton(8), "b": random_design(6, seed=1)}
            return [
                f, y, post.f_hat, post.log_marginal,
                laplace_predict(post, grid.cells),
                kl_lemma1(post),
                incl.at(grid.cells),
                rejection_wrap("halton", incl, 10, seed=3).points,
                compare_designs(m, designs, ["apv_latent", "apv_intensity", "kl"], grid, 3,
                                seed=2),
                expected_apv(m, np.empty((0, 3)), grid, 2, target="latent"),
                expected_apv(m, np.empty((0, 3)), grid, 2, target="intensity"),
                expected_apv(m, halton(8), grid, 3, seed=4, target="latent"),
                expected_apv(m, halton(8), grid, 3, seed=4, target="intensity"),
                expected_kl(m, halton(8), 3, seed=4),
            ]

        assert _same(run(stub), run(model))


class TestConditioning:
    def test_empty_history_is_identity(self, pois_model):
        assert condition_on_data(pois_model, np.empty((0, 3)), np.empty(0)) is pois_model

    def test_variance_shrinks_near_observed(self, pois_model):
        X = np.array([[0.5, 0.5, 0.5]])
        cond = condition_on_data(pois_model, X, np.array([4.0]))
        prior_var = pois_model.cov.total_variance
        assert cond.var_at(X)[0] < prior_var
        # a distant point retains more uncertainty than the observed one
        far = np.array([[0.01, 0.99, 0.02]])
        assert cond.var_at(X)[0] < cond.var_at(far)[0] <= prior_var + 1e-10

    def test_conditioned_model_evaluable(self, pois_model, grid):
        rng = np.random.default_rng(0)
        X = rng.random((8, 3))
        y = rng.poisson(2.0, 8).astype(float)
        cond = condition_on_data(pois_model, X, y)
        design = halton(10)
        est = expected_apv(cond, design, grid, 6, seed=1, target="latent")
        assert np.isfinite(est.value)
        # conditioning leaves less residual uncertainty than the fresh prior
        fresh = expected_apv(pois_model, design, grid, 6, seed=1, target="latent")
        assert est.value < fresh.value

    def test_cross_cov_consistent_with_full(self, pois_model):
        rng = np.random.default_rng(1)
        X = rng.random((6, 3))
        y = rng.poisson(2.0, 6).astype(float)
        cond = condition_on_data(pois_model, X, y)
        q = rng.random((5, 3))
        full = cond.cov_at(q)
        cross = cond.cov_at(q, q)
        assert np.allclose(full, cross, atol=1e-8)

    def test_covariance_whitens_once(self, conditioned):
        # K0(X, X) - V^T V from one V = M K0(D, X), bit for bit: the draws on
        # a conditioned prior rest on these bits, and two whitenings of the
        # same K0(D, X) round differently
        post = conditioned.posterior
        X = halton(30, offset=10).points
        (V,) = ev.lgcp._whiten(post, post.model.cov_at(X, post.design_points).T)
        assert np.array_equal(conditioned.cov_at(X), post.model.cov_at(X) - V.T @ V)

    def test_gaussian_matches_dense_posterior(self, gauss_model):
        rng = np.random.default_rng(3)
        X = halton(20).points
        y = gauss_model.mean_at(X) + rng.normal(size=20)
        cond = condition_on_data(gauss_model, X, y)
        a, b = rng.random((6, 3)), rng.random((4, 3))
        mean, cov, _ = dense_gaussian_posterior(gauss_model, X, y, np.vstack([a, b]))
        tol = 1e-13 * gauss_model.cov.total_variance
        assert np.allclose(cond.mean_at(a), mean[:6], rtol=1e-12, atol=0.0)
        assert np.all(np.abs(cond.var_at(a) - np.diag(cov)[:6]) <= tol)
        assert np.all(np.abs(cond.cov_at(a) - cov[:6, :6]) <= tol)
        assert np.all(np.abs(cond.cov_at(a, b) - cov[:6, 6:]) <= tol)

    def test_cross_cov_rejects_nonfinite_query(self, pois_model):
        rng = np.random.default_rng(2)
        X = rng.random((6, 3))
        cond = condition_on_data(pois_model, X, rng.poisson(2.0, 6).astype(float))
        q = rng.random((4, 3))
        q[1, 2] = np.nan
        for a, b in ((q, X), (X, q)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                cond.cov_at(a, b)


class TestCompareDesigns:
    def test_rows_and_reduction(self, pois_model, grid):
        designs = {"a": halton(15), "b": random_design(15, seed=2)}
        rows = compare_designs(
            pois_model, designs, ["apv_latent", "kl"], grid, 8, seed=0,
            base_of={"b": "a"},
        )
        assert len(rows) == 4
        names = {(r["design_name"], r["criterion"]) for r in rows}
        assert names == {("a", "apv_latent"), ("a", "kl"), ("b", "apv_latent"), ("b", "kl")}
        for r in rows:
            if r["design_name"] == "b":
                assert r["reduction_vs_base_pct"] != ""
            assert len(r["replicates"]) == 8

    def test_identical_designs_zero_reduction(self, pois_model, grid):
        d = halton(12)
        rows = compare_designs(
            pois_model, {"x": d, "y": d}, ["apv_latent"], grid, 8, seed=0,
            base_of={"y": "x"},
        )
        red = [r for r in rows if r["design_name"] == "y"][0]["reduction_vs_base_pct"]
        # same points, same latent draws; only count draws differ
        assert abs(red) < 15.0

    def test_failed_criterion_fails_whole_cell(self, pois_model, grid, monkeypatch):
        # the 3rd KL call is design a's in replicate 1; its apv value for that
        # replicate, computed first, must be dropped with it
        real = ev.lgcp.kl_lemma1
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] == 3:
                raise NumericalError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(ev.lgcp, "kl_lemma1", flaky)
        designs = {"a": halton(10), "b": random_design(10, seed=2)}
        rows = compare_designs(pois_model, designs, ["apv_latent", "kl"], grid, 20, seed=0)
        for r in rows:
            assert len(r["replicates"]) == 20
            assert r["M"] == (19 if r["design_name"] == "a" else 20)
            assert r["n_failed"] == 20 - r["M"]
        a_reps = [r["replicates"] for r in rows if r["design_name"] == "a"]
        assert all(np.isnan(reps[1]) for reps in a_reps)

    def test_rows_carry_failure_reasons(self, pois_model, monkeypatch):
        # with kl alone, fit i is design a's (i odd) or b's (i even) in
        # replicate (i - 1) // 2
        real = ev.lgcp.fit_lgcp
        calls = {"i": 0}
        messages = {1: "stalled", 3: "stalled", 4: "overflow"}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] in messages:
                raise NumericalError(messages[calls["i"]])
            return real(*args, **kwargs)

        monkeypatch.setattr(ev.lgcp, "fit_lgcp", flaky)
        designs = {"a": halton(10), "b": random_design(10, seed=2)}
        rows = compare_designs(pois_model, designs, ["kl"], None, 40, seed=0)
        byname = {r["design_name"]: r for r in rows}
        assert byname["a"]["failure_reasons"] == {"stalled": 2}
        assert byname["b"]["failure_reasons"] == {"overflow": 1}
        assert [byname[d]["n_failed"] for d in "ab"] == [2, 1]

    def test_reduction_from_paired_replicates(self, pois_model, grid, monkeypatch):
        # the 3rd KL call is base design a's in replicate 1; b keeps that
        # replicate, so the reduction must leave it out of both means
        real = ev.lgcp.kl_lemma1
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            if calls["i"] == 3:
                raise NumericalError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(ev.lgcp, "kl_lemma1", flaky)
        designs = {"a": halton(10), "b": random_design(10, seed=2)}
        rows = compare_designs(
            pois_model, designs, ["apv_latent", "kl"], grid, 20, seed=0, base_of={"b": "a"}
        )
        byname = {(r["design_name"], r["criterion"]): r for r in rows}
        for c in ("apv_latent", "kl"):
            ra, rb = byname["a", c]["replicates"], byname["b", c]["replicates"]
            assert np.isnan(ra[1]) and np.isfinite(rb[1])
            keep = np.isfinite(ra) & np.isfinite(rb)
            base_mean = ra[keep].mean()
            expected = 100.0 * (base_mean - rb[keep].mean()) / base_mean
            assert byname["b", c]["reduction_vs_base_pct"] == pytest.approx(expected, rel=1e-12)
            assert byname["b", c]["M"] == 20

    def test_unknown_base_rejected_before_replicates(self, pois_model, grid, monkeypatch):
        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(ev.gp_gaussian, "sample_prior", no_replicates)
        with pytest.raises(LgcpDesignError, match="base_of"):
            compare_designs(
                pois_model, {"a": halton(5)}, ["kl"], grid, 4, base_of={"a": "typo"}
            )

    def test_deterministic(self, pois_model, grid):
        designs = {"a": halton(10), "b": random_design(10, seed=1)}
        r1 = compare_designs(pois_model, designs, ["kl"], grid, 6, seed=3)
        r2 = compare_designs(pois_model, designs, ["kl"], grid, 6, seed=3)
        assert r1[0]["estimate"] == r2[0]["estimate"]
        assert r1[1]["estimate"] == r2[1]["estimate"]


class TestSeedScheme:
    """Replicates match a hand-written loop over the public primitives."""

    def test_expected_replicates(self, pois_model, grid):
        design = halton(12)
        apv = expected_apv(pois_model, design, grid, 4, seed=9, target="intensity")
        kl = expected_kl(pois_model, design, 4, seed=9)
        for j in range(4):
            draw_seed = np.random.SeedSequence(9, spawn_key=(j, 0))
            f = sample_prior(pois_model, design.points, 1, draw_seed)[0]
            counts_seed = np.random.SeedSequence(9, spawn_key=(j, 1))
            y = sample_counts(pois_model, f, counts_seed).astype(float)
            post = fit_lgcp(pois_model, design.points, y)
            _, ivar = intensity_moments(*laplace_predict(post, grid.cells))
            assert apv.replicates[j] == float(np.mean(ivar))
            assert kl.replicates[j] == kl_lemma1(post)

    def test_compare_replicates(self, pois_model, grid):
        designs = {"a": halton(8), "b": random_design(6, seed=1)}
        rows = compare_designs(pois_model, designs, ["apv_latent", "kl"], grid, 10, seed=5)
        got = {(r["design_name"], r["criterion"]): r["replicates"] for r in rows}
        union = np.vstack([d.points for d in designs.values()])
        for j in range(10):
            draw_seed = np.random.SeedSequence(5, spawn_key=(j, 0))
            f_union = sample_prior(pois_model, union, 1, draw_seed)[0]
            lo = 0
            for d, (name, design) in enumerate(designs.items()):
                f = f_union[lo:lo + design.n]
                lo += design.n
                counts_seed = np.random.SeedSequence(5, spawn_key=(j, 1, d))
                y = sample_counts(pois_model, f, counts_seed).astype(float)
                try:
                    post = fit_lgcp(pois_model, design.points, y)
                except NumericalError:
                    # b's fit in replicate 0 does not converge (counts near 1e4)
                    assert np.isnan(got[(name, "apv_latent")][j])
                    assert np.isnan(got[(name, "kl")][j])
                    continue
                assert got[(name, "apv_latent")][j] == mean_latent_variance(post, grid.cells)
                assert got[(name, "kl")][j] == kl_lemma1(post)

    def test_conditioned_replicates(self, conditioned, grid):
        incl = InclusionProbability.build(
            "truncated_expected_intensity", conditioned, grid, p_max=0.5
        )
        design = rejection_wrap("halton", incl, 8, seed=9, offset=10)
        apv = expected_apv(conditioned, design, grid, 4, seed=10, target="intensity")
        kl = expected_kl(conditioned, design, 4, seed=10)
        for j in range(4):
            draw_seed = np.random.SeedSequence(10, spawn_key=(j, 0))
            f = sample_prior(conditioned, design.points, 1, draw_seed)[0]
            counts_seed = np.random.SeedSequence(10, spawn_key=(j, 1))
            y = sample_counts(conditioned, f, counts_seed).astype(float)
            post = fit_lgcp(conditioned, design.points, y)
            _, ivar = intensity_moments(*laplace_predict(post, grid.cells))
            assert apv.replicates[j] == float(np.mean(ivar))
            assert kl.replicates[j] == kl_lemma1(post)

    def test_gaussian_replicates(self, gauss_model, grid):
        design = halton(12)
        apv = expected_apv(gauss_model, design, grid, 4, seed=9, target="intensity")
        kl = expected_kl(gauss_model, design, 4, seed=9)
        for j in range(4):
            draw_seed = np.random.SeedSequence(9, spawn_key=(j, 0))
            f = sample_prior(gauss_model, design.points, 1, draw_seed)[0]
            counts_seed = np.random.SeedSequence(9, spawn_key=(j, 1))
            y = sample_counts(gauss_model, f, counts_seed)
            post = fit_lgcp(gauss_model, design.points, y)
            _, ivar = intensity_moments(*laplace_predict(post, grid.cells))
            assert apv.replicates[j] == float(np.mean(ivar))
            assert kl.replicates[j] == kl_lemma1(post)


class TestDataIndependentWork:
    """Prior terms are built once per call, so their cost does not grow with M:
    one K per point set (and per union of several), and one grid
    cross-covariance per point set."""

    @pytest.fixture
    def cov_calls(self, monkeypatch):
        """The (rows, columns) of every cov_matrix call."""
        calls = []
        real = ev.lgcp.cov_matrix

        def counting(a, b, *args, **kwargs):
            calls.append((len(a), len(b)))
            return real(a, b, *args, **kwargs)

        # modules import cov_matrix by name: replace every reference
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "lgcp_design" and getattr(mod, "cov_matrix", None) is real:
                monkeypatch.setattr(mod, "cov_matrix", counting)
        return calls

    @pytest.mark.parametrize("entry", ["expected_apv", "expected_kl", "compare_designs"])
    def test_cov_matrix_calls_independent_of_m(self, entry, pois_model, grid, cov_calls):
        a, b = halton(10), random_design(8, seed=2)
        run = {
            "expected_apv": lambda M: expected_apv(pois_model, a, grid, M, seed=3,
                                                   target="intensity"),
            "expected_kl": lambda M: expected_kl(pois_model, a, M, seed=3),
            "compare_designs": lambda M: compare_designs(
                pois_model, {"a": a, "b": b}, ["apv_latent", "kl"], grid, M, seed=3),
        }[entry]
        counts = []
        for M in (2, 6):
            cov_calls.clear()
            run(M)
            counts.append(len(cov_calls))
        # K of a; K of a and a's grid cross-covariance; K of the union, of a
        # and of b, and a's and b's grid cross-covariances
        calls = {"expected_kl": 1, "expected_apv": 2, "compare_designs": 5}[entry]
        assert counts == [calls, calls]

    @pytest.mark.parametrize("entry", ["expected_apv", "gaussian", "conditioned",
                                       "compare_designs", "intensity"])
    def test_qr_calls_independent_of_m(self, entry, pois_model, gauss_model, grid,
                                       monkeypatch):
        real, calls = ev.gp_gaussian.dgeqrf, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ev.gp_gaussian, "dgeqrf", counting)
        a, b = halton(10, offset=10), random_design(8, seed=2)
        run = {
            "expected_apv": lambda M: expected_apv(pois_model, a, grid, M, seed=3),
            "gaussian": lambda M: expected_apv(gauss_model, a, grid, M, seed=3),
            "conditioned": lambda M: expected_apv(_after_wave1(pois_model), a, grid, M, seed=3),
            "compare_designs": lambda M: compare_designs(
                pois_model, {"a": a, "b": b}, ["apv_latent", "apv_intensity", "kl"], grid, M,
                seed=3),
            "intensity": lambda M: expected_apv(pois_model, a, grid, M, seed=3,
                                                target="intensity"),
        }[entry]
        counts = []
        for M in (2, 6):
            calls.clear()
            run(M)
            counts.append(len(calls))
        # one QR per design whose latent APV is asked for
        qrs = {"compare_designs": 2, "intensity": 0}.get(entry, 1)
        assert counts == [qrs, qrs]

    def test_query_terms_of_the_last_query_set_are_kept(self, pois_model, grid, cov_calls):
        X = halton(6).points
        prior = PriorTerms.at(pois_model, X)
        cov_calls.clear()
        first = prior.query(grid.cells)
        assert prior.query(grid.cells.copy()) is first
        assert all(a is b for a, b in zip(prior.query(X), (prior.K, prior.mu, prior.var)))
        assert prior.query(grid.cells) is first
        assert len(cov_calls) == 1
        other = prior.query(grid.cells[:7])
        assert prior.query(grid.cells) is not first
        assert all(np.array_equal(a, b) for a, b in zip(prior.query(grid.cells), first))
        assert all(np.array_equal(a, b[:7]) for a, b in zip(other[1:], first[1:]))
        assert len(cov_calls) == 3

    def test_conditioned_cov_matrix_calls(self, pois_model, grid, cov_calls):
        a = halton(8, offset=10)
        calls = []
        for M in (2, 6):
            # afresh, so that the base posterior's query cache starts empty
            conditioned = _after_wave1(pois_model)
            cov_calls.clear()
            expected_apv(conditioned, a, grid, M, seed=4, target="latent")
            calls.append(list(cov_calls))
        # a's prior: K0(a, D), with D the 10 wave-1 points, and K0(a, a); the
        # grid's prior mean: K0(grid, D); the grid cross-covariance: K0(a, D)
        # again (the base cache held the grid's) and K0(grid, a)
        assert calls == [[(8, 10), (8, 8), (100, 10), (8, 10), (100, 8)]] * 2

    def test_conditioned_covariance_then_mean_build_one_cross_covariance(
            self, conditioned, cov_calls):
        X = halton(12, offset=10).points
        conditioned.cov_at(X)
        conditioned.mean_at(X)
        # K0(X, D) once, shared through the base posterior's query cache
        assert cov_calls == [(12, 10), (12, 12)]

    def test_conditioning_predictions_independent_of_m(self, conditioned, grid, monkeypatch):
        real = ev.lgcp.laplace_predict
        calls = []

        def counting(post, *args, **kwargs):
            calls.append(post is conditioned.posterior)
            return real(post, *args, **kwargs)

        monkeypatch.setattr(ev.lgcp, "laplace_predict", counting)
        a, b = halton(8, offset=10), halton(6, offset=18)
        counts = []
        for M in (2, 6):
            calls.clear()
            expected_apv(conditioned, a, grid, M, seed=4, target="latent")
            expected_kl(conditioned, a, M, seed=4)
            compare_designs(conditioned, {"a": a, "b": b}, ["apv_intensity", "kl"], grid, M,
                            seed=4)
            counts.append(sum(calls))
        assert counts[0] == counts[1] > 0


def _variance_override(model, var):
    """``model``, except that its prior marginal variance is ``var`` everywhere."""

    class Override:
        obs = model.obs
        jitter = model.jitter
        mean_at = staticmethod(model.mean_at)
        cov_at = staticmethod(model.cov_at)

        @staticmethod
        def moments_at(points):
            return model.mean_at(points), np.full(points.shape[0], var)

    return Override()


class TestMeanLatentVariance:
    """The latent APV from one QR per query set equals the mean of the
    per-cell Laplace variances."""

    @pytest.mark.parametrize("case", ["poisson", "conditioned", "gaussian", "negbin_volumes",
                                      "fewer_cells"])
    def test_matches_mean_of_predicted_variances(self, case, pois_model, gauss_model,
                                                 additive_cov, concave_mean, grid):
        X = halton(12, offset=10).points
        cells = grid.cells[:7] if case == "fewer_cells" else grid.cells
        model = {
            "conditioned": lambda: _after_wave1(pois_model),
            "gaussian": lambda: gauss_model,
            "negbin_volumes": lambda: Model(
                concave_mean, additive_cov, NegativeBinomial(2.0, np.linspace(0.5, 2.0, 12))),
        }.get(case, lambda: pois_model)()
        f = sample_prior(model, X, 1, seed=5)[0]
        y = np.asarray(sample_counts(model, f, seed=6), dtype=float)
        post = fit_lgcp(model, X, y)
        value = mean_latent_variance(post, cells)
        assert post.prior.query_qr(cells)[0].shape == (min(len(cells), 12), 12)
        expected = float(np.mean(laplace_predict(post, cells)[1]))
        assert value == pytest.approx(expected, rel=1e-12)
        assert 0.0 < value < float(np.mean(model.moments_at(cells)[1]))

    def test_latent_apv_predicts_no_grid_cell(self, pois_model, gauss_model, grid,
                                              monkeypatch):
        real, rows = ev.lgcp.laplace_predict, []

        def counting(post, query):
            rows.append(len(query))
            return real(post, query)

        monkeypatch.setattr(ev.lgcp, "laplace_predict", counting)
        a = halton(10)
        expected_apv(pois_model, a, grid, 3, seed=1, target="latent")
        expected_apv(gauss_model, a, grid, 3, seed=1, target="latent")
        assert rows == []
        compare_designs(pois_model, {"a": a}, ["apv_latent", "apv_intensity", "kl"], grid, 3,
                        seed=1)
        # the intensity APV's grid prediction and the KL's at the design points
        assert sorted(rows) == [10] * 3 + [len(grid.cells)] * 3

    @pytest.mark.parametrize("shortfall", [1e-12, 1e-6])
    def test_negative_mean_clamped_only_at_roundoff(self, shortfall, pois_model, grid):
        # a prior variance below the variance the data explain, by shortfall
        X = halton(12).points
        f = sample_prior(pois_model, X, 1, seed=5)[0]
        y = sample_counts(pois_model, f, seed=6).astype(float)
        post = fit_lgcp(pois_model, X, y)
        explained = pois_model.cov.total_variance - mean_latent_variance(post, grid.cells)
        model = _variance_override(pois_model, explained * (1.0 - shortfall))
        short = fit_lgcp(model, X, y)
        if shortfall < ev.lgcp.VARIANCE_ROUNDOFF:
            assert mean_latent_variance(short, grid.cells) == 0.0
        else:
            with pytest.raises(NumericalError, match="^mean posterior variance came out negative"):
                mean_latent_variance(short, grid.cells)

    def test_negative_mean_fails_the_replicate(self, pois_model, grid):
        model = _variance_override(pois_model, 0.0)
        with pytest.raises(NumericalError, match="^4 of 4 replicates failed to converge$") as info:
            expected_apv(model, halton(12), grid, 4, seed=1, target="latent")
        reasons = info.value.failure_reasons
        assert sum(reasons.values()) == 4
        assert all(r.startswith("mean posterior variance came out negative") for r in reasons)

    def test_nonfinite_cross_covariance_rejected(self, pois_model, grid):
        X = halton(6).points
        post = fit_lgcp(pois_model, X, np.ones(6))
        cells = grid.cells.copy()
        cells[3, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            mean_latent_variance(post, cells)


class TestComparisonCsv:
    def test_format(self, tmp_path):
        rows = [
            {
                "design_name": "halton",
                "criterion": "kl",
                "estimate": 1.25,
                "std_error": 0.03,
                "M": 50,
                "reduction_vs_base_pct": "",
            },
            {
                "design_name": "halton+rejection",
                "criterion": "kl",
                "estimate": 1.5,
                "std_error": 0.04,
                "M": 50,
                "reduction_vs_base_pct": -20.0,
            },
        ]
        path = tmp_path / "cmp.csv"
        write_comparison_csv(rows, path, header_comment="config_hash=abc")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=abc"
        assert lines[1] == "design_name,criterion,estimate,std_error,M,reduction_vs_base_pct"
        assert lines[2].startswith("halton,kl,1.25,")
        assert lines[3].endswith("-20")


class TestNoVarianceClamp:
    def test_compare_n50_seed_0(self, pois_model, monkeypatch):
        # the benchmark's compare_n50 run at seed 0: demo 03's designs at n = 50
        # and the paper's model; every posterior variance comes out positive
        from lgcp_design.cli import generate_design

        model = pois_model
        dom = unit_cube()
        grid = discretize(dom, (10, 10, 8))
        incl = InclusionProbability.build("scaled_latent_mean", model, grid)
        designs = {
            "random": generate_design("random", 50, dom, 11),
            "random+rejection": generate_design("random+rejection", 50, dom, 11, incl=incl),
            "halton": generate_design("halton", 50, dom, 11),
            "halton+rejection": generate_design("halton+rejection", 50, dom, 11, incl=incl),
            "coffee-house": generate_design("space_fill", 50, dom, 11, grid=grid),
        }
        real = ev.lgcp._clamp_variances
        negative = []

        def record(var):
            negative.append(int(np.sum(var < 0)))
            return real(var)

        monkeypatch.setattr(ev.lgcp, "_clamp_variances", record)
        rows = compare_designs(model, designs, ["apv_intensity", "kl"], grid, 60, seed=123)
        # each successful fit predicts on the grid and at its design points
        assert len(negative) == 2 * sum(r["M"] for r in rows if r["criterion"] == "kl")
        assert sum(negative) == 0
