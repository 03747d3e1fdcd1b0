import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import brentq
from scipy.stats import nbinom

from lgcp_design import (
    CovStructure,
    GaussianObs,
    KernelSpec,
    LatentPosterior,
    LgcpDesignError,
    MeanFunction,
    Model,
    NegativeBinomial,
    NumericalError,
    Poisson,
    fit_gaussian,
    fit_lgcp,
    halton,
    intensity_moments,
    kl_gaussian_closed_form,
    kl_lemma1,
    laplace_predict,
    point,
    predict,
    sample_counts,
    sample_prior,
    unit_cube,
    woodbury_direct,
    woodbury_stable,
)
from lgcp_design import lgcp
from lgcp_design.gp_gaussian import _chol, _clamp_variances, _fit_prior, _query_prior
from conftest import random_cov


def poisson_model(cov, mean):
    return Model(mean, cov, Poisson())


class TestObservationModels:
    def test_poisson_loglik_value(self):
        # log p(3 | f=0) = -1 + 3*0 - log(3!) for rate e^0 = 1
        obs = Poisson()
        assert obs.loglik(3.0, 0.0) == pytest.approx(-1.0 - np.log(6.0))

    def test_poisson_grad_zero_at_match(self):
        obs = Poisson()
        assert obs.grad(np.exp(1.3), 1.3) == pytest.approx(0.0)

    @pytest.mark.parametrize("obs_factory", [
        lambda: Poisson(),
        lambda: NegativeBinomial(5.0, 1.0),
        lambda: NegativeBinomial(0.7, 2.5),
    ])
    def test_grad_hessian_finite_differences(self, obs_factory):
        obs = obs_factory()
        h = 1e-5
        for y in (0.0, 1.0, 4.0, 11.0):
            for f in (-1.0, 0.0, 0.8, 2.0):
                ll = lambda v: obs.loglik(y, v)  # noqa: E731
                g_fd = (ll(f + h) - ll(f - h)) / (2 * h)
                # the Hessian check differences the analytic gradient; a second
                # difference of the log likelihood itself is roundoff-limited
                # at about 1e-4 relative
                w_fd = -(obs.grad(y, f + h) - obs.grad(y, f - h)) / (2 * h)
                assert obs.grad(y, f) == pytest.approx(g_fd, rel=1e-5, abs=1e-7)
                assert obs.hessian_diag(y, f) == pytest.approx(w_fd, rel=1e-5, abs=1e-7)

    def test_negbin_matches_scipy_pmf(self):
        obs = NegativeBinomial(3.0, 2.0)
        f = 0.4
        m = 2.0 * np.exp(f)
        for y in range(6):
            expected = nbinom(3.0, 3.0 / (3.0 + m)).logpmf(y)
            assert obs.loglik(float(y), f) == pytest.approx(expected, rel=1e-12)

    def test_negbin_validation(self):
        with pytest.raises(LgcpDesignError):
            NegativeBinomial(-1.0)
        with pytest.raises(LgcpDesignError):
            NegativeBinomial(1.0, 0.0)

    def test_count_check(self):
        with pytest.raises(LgcpDesignError):
            Poisson().check_counts(np.array([1.0, -2.0]))
        with pytest.raises(LgcpDesignError):
            Poisson().check_counts(np.array([1.5]))
        GaussianObs(1.0).check_counts(np.array([-1.5]))  # reals allowed


class TestMapEstimate:
    def test_scalar_poisson_root(self, additive_cov):
        # MAP of f with y = 0, prior N(0, s2f) solves f + s2f e^f = 0
        model = poisson_model(additive_cov, MeanFunction.constant(0.0))
        x = point(0.5, 0.5, 0.5)[None, :]
        post = fit_lgcp(model, x, np.array([0.0]))
        f_hat, W = post.f_hat, post.W
        s2f = additive_cov.total_variance
        root = brentq(lambda f: f + s2f * np.exp(f), -10.0, 10.0, xtol=1e-12)
        assert f_hat[0] == pytest.approx(root, abs=1e-7)
        assert W[0] == pytest.approx(np.exp(root), rel=1e-6)

    def test_stationarity_of_fit(self, additive_cov, concave_mean):
        model = poisson_model(additive_cov, concave_mean)
        rng = np.random.default_rng(0)
        X = rng.random((15, 3))
        y = rng.poisson(1.5, size=15).astype(float)
        post = fit_lgcp(model, X, y)
        grad = model.obs.grad(y, post.f_hat) - post.alpha
        assert np.max(np.abs(grad)) < 1e-8

    def test_dual_iterate_consistency(self, additive_cov, concave_mean):
        model = poisson_model(additive_cov, concave_mean)
        rng = np.random.default_rng(1)
        X = rng.random((10, 3))
        y = rng.poisson(2.0, size=10).astype(float)
        post = fit_lgcp(model, X, y)
        mu = model.mean_at(X)
        assert np.allclose(post.f_hat, mu + post.K @ post.alpha, atol=1e-10)

    def test_gaussian_obs_one_step(self, additive_cov, concave_mean):
        # with a Gaussian likelihood Newton converges in one iteration
        model = Model(concave_mean, additive_cov, GaussianObs(0.5))
        rng = np.random.default_rng(2)
        X = rng.random((8, 3))
        y = rng.normal(size=8)
        post = fit_lgcp(model, X, y)
        assert post.iterations <= 2


class TestLaplaceExactForGaussian:
    """With a Gaussian likelihood the Laplace approximation is exact."""

    def test_matches_exact_gp(self, additive_cov, concave_mean):
        s2n = 0.5
        model = Model(concave_mean, additive_cov, GaussianObs(s2n))
        rng = np.random.default_rng(3)
        X = rng.random((12, 3))
        y = rng.normal(size=12) + concave_mean(X)
        q = rng.random((25, 3))

        lap = fit_lgcp(model, X, y)
        ex = fit_gaussian(model, X, y)
        m1, v1 = laplace_predict(lap, q)
        m2, v2 = predict(ex, q)
        assert np.allclose(m1, m2, atol=1e-9)
        assert np.allclose(v1, v2, atol=1e-9)
        assert lap.log_marginal == pytest.approx(ex.log_marginal, rel=1e-9)

    def test_lemma1_matches_closed_form(self, additive_cov, concave_mean):
        s2n = 0.5
        model = Model(concave_mean, additive_cov, GaussianObs(s2n))
        rng = np.random.default_rng(4)
        X = rng.random((9, 3))
        y = rng.normal(size=9)
        kl_q = kl_lemma1(fit_lgcp(model, X, y))
        kl_cf = kl_gaussian_closed_form(model, X, y)
        assert kl_q == pytest.approx(kl_cf, rel=1e-5)


def poisson_kl_bruteforce(model, X, y, nodes=2001, half_width=8.0):
    """Dense-quadrature KL oracle for Poisson likelihood, n in {1, 2}."""
    n = X.shape[0]
    K = model.cov_at(X) + model.jitter * np.eye(n)
    mu = model.mean_at(X)
    sd = np.sqrt(np.diag(K))
    axes = [np.linspace(mu[i] - half_width * sd[i], mu[i] + half_width * sd[i], nodes)
            for i in range(n)]
    if n == 1:
        f = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        f = np.column_stack([g0.ravel(), g1.ravel()])
    diff = f - mu
    Kinv = np.linalg.inv(K)
    log_prior = -0.5 * np.sum((diff @ Kinv) * diff, axis=1)
    log_lik = np.sum(y[None, :] * f - np.exp(f), axis=1)
    log_joint = log_prior + log_lik
    w = np.exp(log_joint - log_joint.max())
    w /= w.sum()
    # KL(post || prior) = E_post[log lik] - log E_prior[lik];  evidence via
    # the same grid against the normalized prior weights
    log_prior_norm = log_prior - log_prior.max()
    pw = np.exp(log_prior_norm)
    pw /= pw.sum()
    evidence = np.sum(pw * np.exp(log_lik - log_lik.max()))
    log_ml = np.log(evidence) + log_lik.max()
    return float(np.sum(w * log_lik) - log_ml)


def informative_poisson_instance(rng, model, n, min_count=5):
    """A design + counts draw for which the Laplace error budget holds.

    Counts are prior-predictive draws conditioned on every site seeing at
    least ``min_count`` events; near-zero counts leave the latent posterior
    strongly skewed and outside the quoted Laplace accuracy.
    """
    X = rng.random((n, 3))
    L = np.linalg.cholesky(model.cov_at(X) + 1e-10 * np.eye(n))
    while True:
        f = model.mean_at(X) + L @ rng.standard_normal(n)
        y = rng.poisson(np.exp(f)).astype(float)
        if y.min() >= min_count:
            return X, y


@pytest.fixture
def unit_variance_cov():
    return CovStructure(
        "additive", KernelSpec("matern32", 0.8, 0.5), KernelSpec("sqexp", 1.5, 0.5)
    )


class TestLemma1BruteForce:
    @pytest.mark.parametrize("trial", range(4))
    def test_one_point(self, trial, unit_variance_cov):
        rng = np.random.default_rng(300 + trial)
        model = poisson_model(
            unit_variance_cov, MeanFunction.constant(float(rng.uniform(1, 2)))
        )
        X, y = informative_poisson_instance(rng, model, 1)
        kl = kl_lemma1(fit_lgcp(model, X, y))
        oracle = poisson_kl_bruteforce(model, X, y)
        assert kl == pytest.approx(oracle, rel=0.05, abs=1e-3)

    @pytest.mark.parametrize("trial", range(3))
    def test_two_points(self, trial, unit_variance_cov):
        rng = np.random.default_rng(400 + trial)
        model = poisson_model(
            unit_variance_cov, MeanFunction.constant(float(rng.uniform(1, 2)))
        )
        X, y = informative_poisson_instance(rng, model, 2)
        kl = kl_lemma1(fit_lgcp(model, X, y))
        oracle = poisson_kl_bruteforce(model, X, y, nodes=801)
        assert kl == pytest.approx(oracle, rel=0.05, abs=1e-3)

    def test_quadrature_converged_at_default_nodes(self, additive_cov, concave_mean):
        model = poisson_model(additive_cov, concave_mean)
        rng = np.random.default_rng(6)
        X = rng.random((10, 3))
        y = rng.poisson(1.0, size=10).astype(float)
        post = fit_lgcp(model, X, y)
        assert kl_lemma1(post, nodes=31) == pytest.approx(
            kl_lemma1(post, nodes=61), rel=1e-6
        )


class TestIntensityMoments:
    def test_standard_lognormal(self):
        mean, var = intensity_moments(0.0, 1.0)
        assert mean == pytest.approx(np.exp(0.5), rel=1e-12)
        assert var == pytest.approx((np.e - 1.0) * np.e, rel=1e-12)

    def test_zero_variance_degenerates(self):
        mean, var = intensity_moments(1.2, 0.0)
        assert mean == pytest.approx(np.exp(1.2))
        assert var == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(LgcpDesignError):
            intensity_moments(0.0, -0.1)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(7)
        draws = np.exp(rng.normal(0.3, np.sqrt(0.5), size=500_000))
        mean, var = intensity_moments(0.3, 0.5)
        assert np.mean(draws) == pytest.approx(mean, rel=0.01)
        assert np.var(draws) == pytest.approx(var, rel=0.05)


class TestSampleCounts:
    def test_deterministic(self, additive_cov, concave_mean):
        model = poisson_model(additive_cov, concave_mean)
        f = np.array([0.0, 1.0, -1.0])
        a = sample_counts(model, f, 99)
        b = sample_counts(model, f, 99)
        assert np.array_equal(a, b)

    def test_poisson_rate(self, additive_cov, concave_mean):
        model = poisson_model(additive_cov, concave_mean)
        f = np.full(20000, 1.0)
        y = sample_counts(model, f, 0)
        assert np.mean(y) == pytest.approx(np.e, rel=0.02)

    def test_negbin_poisson_limit(self, additive_cov, concave_mean):
        # huge dispersion: variance/mean ratio of the counts approaches 1
        model = Model(concave_mean, additive_cov, NegativeBinomial(1e9, 1.0))
        f = np.full(100_000, 1.0)
        y = sample_counts(model, f, 1)
        ratio = np.var(y) / np.mean(y)
        assert 0.97 <= ratio <= 1.03

    def test_gaussian_real_valued(self, additive_cov, concave_mean):
        model = Model(concave_mean, additive_cov, GaussianObs(0.25))
        f = np.zeros(50_000)
        y = sample_counts(model, f, 2)
        assert np.std(y) == pytest.approx(0.5, rel=0.02)


class TestWoodbury:
    @pytest.mark.parametrize("trial", range(10))
    def test_routes_agree(self, trial):
        rng = np.random.default_rng(500 + trial)
        cov = random_cov(rng)
        n = int(rng.integers(2, 15))
        pts = rng.random((n, 3))
        from lgcp_design import cov_matrix
        K = cov_matrix(pts, pts, cov) + 1e-8 * cov.total_variance * np.eye(n)
        W = np.exp(rng.uniform(np.log(1e-12), np.log(1e2), size=n))
        A = woodbury_direct(K, W)
        B = woodbury_stable(K, W)
        scale = max(np.abs(A).max(), 1.0)
        assert np.max(np.abs(A - B)) / scale < 1e-8


class TestFailureModes:
    def test_y_shape_mismatch(self, additive_cov, concave_mean):
        model = poisson_model(additive_cov, concave_mean)
        with pytest.raises(LgcpDesignError):
            fit_lgcp(model, np.random.default_rng(0).random((3, 3)), np.array([1.0, 2.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_counts_raise_not_hang(self, additive_cov, concave_mean):
        model = poisson_model(additive_cov, concave_mean)
        X = np.random.default_rng(1).random((2, 3))
        with pytest.raises((NumericalError, LgcpDesignError)):
            fit_lgcp(model, X, np.array([1e300, 1.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_newton_step_is_a_numerical_error(self, additive_cov, concave_mean):
        # the Newton right-hand side overflows to inf in the first step
        model = poisson_model(additive_cov, concave_mean)
        X = np.random.default_rng(1).random((2, 3))
        with pytest.raises(NumericalError, match="non-finite iterates"):
            fit_lgcp(model, X, np.array([1e308, 1.0]))


# ----------------------------------------------------------------------
# reference: the Newton loop and prediction before the direct LAPACK calls


def _reference_fit(model, design_points, y, _prior=None):
    """fit_lgcp with scipy's checked Cholesky factor and solves, a fresh B
    per iteration and the accepted trial recomputed after the line search.

    A bitwise reference for fit_lgcp. It also counts the step halvings and
    keeps the final gradient max-norm; the objective is looked up on the
    module at call time, so a test can replace it for both fits.
    """
    X = np.atleast_2d(np.asarray(design_points, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    obs = model.obs
    obs.check_counts(y)
    K, mu = _fit_prior(model, X) if _prior is None else _prior
    K = K + model.jitter * np.eye(n)
    f = mu.copy()
    alpha = np.zeros(n)
    obj = lgcp._newton_objective(obs, y, f, mu, alpha)
    halvings = 0
    converged = False
    it = 0
    for it in range(1, lgcp.NEWTON_MAX_ITER + 1):
        W = np.maximum(obs.hessian_diag(y, f), 0.0)
        grad_lik = obs.grad(y, f)
        grad = grad_lik - alpha
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(grad))):
            raise NumericalError("Newton MAP produced non-finite iterates")
        grad_max = float(np.max(np.abs(grad)))
        if grad_max < lgcp.NEWTON_TOL:
            converged = True
            break
        sW = np.sqrt(W)
        B = np.eye(n) + sW[:, None] * K * sW[None, :]
        chol_B = _chol(B, 0.0)
        b = W * (f - mu) + grad_lik
        a_new = b - sW * cho_solve(chol_B, sW * (K @ b))
        slack = 1e-9 * max(1.0, abs(obj))
        step = 1.0
        for _ in range(30):
            alpha_try = alpha + step * (a_new - alpha)
            f_try = mu + K @ alpha_try
            obj_try = lgcp._newton_objective(obs, y, f_try, mu, alpha_try)
            if obj_try >= obj - slack:
                break
            step *= 0.5
            halvings += 1
        alpha = alpha + step * (a_new - alpha)
        f = mu + K @ alpha
        obj = lgcp._newton_objective(obs, y, f, mu, alpha)
    if not converged:
        raise NumericalError(f"Newton MAP did not converge in {lgcp.NEWTON_MAX_ITER} iterations")
    W = np.maximum(obs.hessian_diag(y, f), 0.0)
    sW = np.sqrt(W)
    B = np.eye(n) + sW[:, None] * K * sW[None, :]
    chol_B = _chol(B, 0.0)
    log_det_B = 2.0 * np.sum(np.log(np.diag(chol_B[0])))
    log_marginal = float(
        np.sum(obs.loglik(y, f)) - 0.5 * (f - mu) @ alpha - 0.5 * log_det_B
    )
    return LatentPosterior(
        model, X, y, f, W, alpha, chol_B, K, log_marginal, it, halvings, grad_max
    )


def _reference_predict(post, query, want="marginal"):
    """laplace_predict through scipy's checked triangular solve of tril(L)."""
    Xq = np.atleast_2d(np.asarray(query, dtype=float))
    Kqd, prior_mean, prior_second = _query_prior(post.model, Xq, post.design_points, want)
    mean = prior_mean + Kqd @ post.alpha
    sW = np.sqrt(post.W)
    V = solve_triangular(np.tril(post.chol_B[0]), sW[:, None] * Kqd.T, lower=True)
    if want == "full":
        return mean, prior_second - V.T @ V
    return mean, _clamp_variances(prior_second - np.sum(V * V, axis=0))


class _ObjectiveLog:
    """Wraps lgcp._newton_objective, recording each (f, alpha) it is given.

    With ``reject`` > 0 the first ``reject`` trial steps (calls with a
    nonzero alpha) score -inf, which exhausts the first line search.
    """

    def __init__(self, real, reject=0):
        self.real, self.reject, self.calls = real, reject, []

    def __call__(self, obs, y, f, mu, alpha):
        self.calls.append((f.copy(), alpha.copy()))
        if self.reject and np.any(alpha):
            self.reject -= 1
            return -np.inf
        return self.real(obs, y, f, mu, alpha)

    def iterates(self):
        """The calls with repeats of the previous call dropped: the reference
        scores an accepted trial a second time, fit_lgcp does not."""
        out = []
        for f, alpha in self.calls:
            if not (out and np.array_equal(out[-1][0], f) and np.array_equal(out[-1][1], alpha)):
                out.append((f, alpha))
        return out


def _fit_both(monkeypatch, model, X, y, reject=0, _prior=None):
    """Fit with fit_lgcp and the reference; each result is a posterior or
    the exception raised, with the objective's log."""
    real = lgcp._newton_objective
    results = []
    for fit in (fit_lgcp, _reference_fit):
        log = _ObjectiveLog(real, reject)
        monkeypatch.setattr(lgcp, "_newton_objective", log)
        try:
            results.append((fit(model, X, y, _prior=_prior), log))
        except (LgcpDesignError, ValueError) as exc:
            results.append((exc, log))
    monkeypatch.setattr(lgcp, "_newton_objective", real)
    return results


def _assert_same_iterates(new_log, ref_log):
    new, ref = new_log.iterates(), ref_log.iterates()
    assert len(new) == len(ref)
    for (f1, a1), (f2, a2) in zip(new, ref):
        assert np.array_equal(f1, f2) and np.array_equal(a1, a2)


def _assert_same_posterior(post, ref):
    for name in ("f_hat", "W", "alpha", "K"):
        assert np.array_equal(getattr(post, name), getattr(ref, name)), name
    assert np.array_equal(post.chol_B[0], ref.chol_B[0])
    assert post.chol_B[1] is True and ref.chol_B[1] is True
    assert post.log_marginal == ref.log_marginal
    assert post.iterations == ref.iterations
    assert post.halvings == ref.halvings
    assert post.grad_max == ref.grad_max


def _assert_same_predictions(post, ref, query):
    for want in ("marginal", "full"):
        m1, v1 = laplace_predict(post, query, want=want)
        m2, v2 = _reference_predict(ref, query, want=want)
        assert np.array_equal(m1, m2) and np.array_equal(v1, v2), want


def _paper_model(obs=None):
    cov = CovStructure(
        "additive", KernelSpec("matern32", 0.8, 2.0), KernelSpec("sqexp", 1.5, 2.0)
    )
    return Model(MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0), cov, obs or Poisson())


def _replicate(model, X, j, seed=0):
    """Replicate j's counts on X, drawn as evaluation._replicates draws them."""
    f = sample_prior(model, X, 1, np.random.SeedSequence(seed, spawn_key=(j, 0)))[0]
    counts = sample_counts(model, f, np.random.SeedSequence(seed, spawn_key=(j, 1)))
    return np.asarray(counts, dtype=float)


class TestNewtonMatchesReference:
    """fit_lgcp and laplace_predict reproduce the reference bit for bit."""

    @pytest.mark.parametrize("obs", [
        Poisson(),
        NegativeBinomial(5.0, 1.0),
        NegativeBinomial(0.7, np.linspace(0.5, 2.0, 40)),
        GaussianObs(0.5),
    ], ids=["poisson", "negbin", "negbin_volumes", "gaussian"])
    @pytest.mark.parametrize("trial", range(3))
    def test_converged_fit(self, monkeypatch, obs, trial):
        model = _paper_model(obs)
        rng = np.random.default_rng(700 + trial)
        X = rng.random((40, 3))
        y = _replicate(model, X, trial)
        (post, new_log), (ref, ref_log) = _fit_both(monkeypatch, model, X, y)
        _assert_same_posterior(post, ref)
        _assert_same_iterates(new_log, ref_log)
        _assert_same_predictions(post, ref, np.vstack([rng.random((60, 3)), X]))

    def test_converged_paper_scale(self, monkeypatch):
        model = _paper_model()
        X = halton(150, domain=unit_cube()).points
        (post, new_log), (ref, ref_log) = _fit_both(monkeypatch, model, X, _replicate(model, X, 3))
        _assert_same_posterior(post, ref)
        _assert_same_iterates(new_log, ref_log)
        _assert_same_predictions(post, ref, halton(200, offset=150).points)

    def test_iteration_cap(self, monkeypatch):
        # replicate 16 of halton(150) stalls near a gradient of 5e-8
        model = _paper_model()
        X = halton(150, domain=unit_cube()).points
        (exc, new_log), (ref_exc, ref_log) = _fit_both(monkeypatch, model, X, _replicate(model, X, 16))
        assert isinstance(exc, NumericalError) and type(exc) is type(ref_exc)
        assert str(exc) == str(ref_exc) == "Newton MAP did not converge in 100 iterations"
        _assert_same_iterates(new_log, ref_log)
        assert len(new_log.iterates()) > lgcp.NEWTON_MAX_ITER

    @pytest.mark.parametrize("obs", [Poisson(), NegativeBinomial(5.0, 1.0)])
    def test_exhausted_line_search(self, monkeypatch, obs):
        model = _paper_model(obs)
        rng = np.random.default_rng(11)
        X = rng.random((30, 3))
        y = _replicate(model, X, 5)
        (post, new_log), (ref, ref_log) = _fit_both(
            monkeypatch, model, X, y, reject=lgcp.LINE_SEARCH_HALVINGS
        )
        # every tried step of the first search was rejected; the fit moved
        # by the untried 2^-30 step and went on to converge
        assert post.halvings >= lgcp.LINE_SEARCH_HALVINGS
        first_move = new_log.iterates()[lgcp.LINE_SEARCH_HALVINGS + 1][1]
        full_step = new_log.iterates()[1][1]
        assert np.array_equal(first_move, 0.5**lgcp.LINE_SEARCH_HALVINGS * full_step)
        _assert_same_posterior(post, ref)
        _assert_same_iterates(new_log, ref_log)
        _assert_same_predictions(post, ref, rng.random((20, 3)))

    def test_cholesky_failure_message(self, monkeypatch):
        model = _paper_model()
        rng = np.random.default_rng(12)
        X = rng.random((6, 3))
        # an indefinite prior covariance makes B indefinite at the prior mean
        K = np.eye(6) + 0.9 * (np.eye(6, k=1) + np.eye(6, k=-1))
        K[3:, 3:] -= 1.5 * np.eye(3)
        prior = (K, np.full(6, 0.5))
        y = np.array([0.0, 3.0, 1.0, 2.0, 0.0, 5.0])
        (exc, _), (ref_exc, _) = _fit_both(monkeypatch, model, X, y, _prior=prior)
        assert isinstance(exc, NumericalError) and isinstance(ref_exc, NumericalError)
        assert str(exc) == str(ref_exc)
        assert str(exc).startswith("Cholesky factorization failed: ")

    def test_nonfinite_prior_covariance(self, monkeypatch):
        model = _paper_model()
        X = np.random.default_rng(13).random((5, 3))
        K = model.cov_at(X)
        K[1, 2] = K[2, 1] = np.nan
        (exc, _), (ref_exc, _) = _fit_both(
            monkeypatch, model, X, np.ones(5), _prior=(K, model.mean_at(X))
        )
        assert type(exc) is type(ref_exc) is ValueError
        assert str(exc) == str(ref_exc)

    def test_nonfinite_query_raises(self, additive_cov, concave_mean):
        model = poisson_model(additive_cov, concave_mean)
        X = np.random.default_rng(14).random((5, 3))
        post = fit_lgcp(model, X, np.ones(5))
        query = np.random.default_rng(15).random((4, 3))
        query[2, 0] = np.nan
        with pytest.raises(ValueError):
            _reference_predict(post, query)
        with pytest.raises(ValueError):
            laplace_predict(post, query)


class TestNewtonDiagnostics:
    def test_criterion_10_instances_stop_below_tolerance(self):
        # the fits of acceptance criterion 10, rebuilt from its seeds
        cov = CovStructure(
            "additive", KernelSpec("matern32", 0.8, 2.0), KernelSpec("sqexp", 1.5, 2.0)
        )
        mean = MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0)
        for trial in range(20):
            rng = np.random.default_rng(6000 + trial)
            obs = Poisson() if trial % 2 == 0 else NegativeBinomial(5.0, 1.0)
            model = Model(mean, cov, obs)
            n = int(rng.integers(5, 30))
            X = rng.random((n, 3))
            f = sample_prior(model, X, 1, rng.integers(2**32))[0]
            y = sample_counts(model, f, rng.integers(2**32)).astype(float)
            post = fit_lgcp(model, X, y)
            grad = obs.grad(y, post.f_hat) - post.alpha
            assert post.grad_max < lgcp.NEWTON_TOL
            assert post.grad_max == np.max(np.abs(grad))
            assert post.halvings >= 0

    def test_defaults(self, additive_cov, concave_mean):
        post = fit_lgcp(poisson_model(additive_cov, concave_mean),
                        np.random.default_rng(16).random((4, 3)), np.ones(4))
        fields = LatentPosterior.__dataclass_fields__
        assert fields["halvings"].default == 0
        assert np.isnan(fields["grad_max"].default)
        assert isinstance(post.halvings, int) and isinstance(post.grad_max, float)
