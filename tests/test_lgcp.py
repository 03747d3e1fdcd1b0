import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import nbinom

from lgcp_design import (
    ConditionedModel,
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
    condition_on_data,
    expected_kl,
    fit_lgcp,
    halton,
    intensity_moments,
    kl_lemma1,
    laplace_predict,
    point,
    sample_counts,
    sample_prior,
    unit_cube,
)
from lgcp_design import lgcp
from lgcp_design.lgcp import PriorTerms
from conftest import (
    dense_gaussian_posterior,
    gaussian_posterior_kl,
    random_cov,
    run_python,
    whitened_inverse,
)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, value):
        for make in (
            lambda: NegativeBinomial(value),
            lambda: NegativeBinomial(1.0, value),
            lambda: NegativeBinomial(1.0, np.array([1.0, value])),
            lambda: GaussianObs(value),
        ):
            with pytest.raises(LgcpDesignError, match="finite"):
                make()

    def test_count_check(self):
        with pytest.raises(LgcpDesignError):
            Poisson().check_counts(np.array([1.0, -2.0]))
        with pytest.raises(LgcpDesignError):
            Poisson().check_counts(np.array([1.5]))
        for y in ([2.5], [1.0, np.nan], [3.0, 2.0 + 1e-3]):
            with pytest.raises(LgcpDesignError, match="nonnegative integers"):
                NegativeBinomial(2.0).check_counts(np.array(y))
        # the exact test fails here and allclose still accepts it
        Poisson().check_counts(np.array([3.0 + 1e-12, 0.0]))
        Poisson().check_counts(np.arange(50.0))
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
        # with a Gaussian likelihood the first full Newton step is exact
        model = Model(concave_mean, additive_cov, GaussianObs(0.5))
        rng = np.random.default_rng(2)
        X = rng.random((8, 3))
        y = rng.normal(size=8)
        post = fit_lgcp(model, X, y)
        assert post.iterations == 1
        assert post.grad_max == np.max(np.abs(model.obs.grad(y, post.f_hat) - post.alpha))


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
        m1, v1 = laplace_predict(lap, q)
        m2, cov2, log_marginal = dense_gaussian_posterior(model, X, y, q)
        assert np.allclose(m1, m2, atol=1e-9)
        assert np.allclose(v1, np.diag(cov2), atol=1e-9)
        assert lap.log_marginal == pytest.approx(log_marginal, rel=1e-9)

    @pytest.mark.parametrize("s2n", [1e-2, 1e-4, 1e-6])
    def test_small_noise_one_exact_step(self, s2n):
        # Newton iterates past the exact first step stall on roundoff above
        # NEWTON_TOL once sigma^2 <= 1e-3
        model = _paper_model(GaussianObs(s2n))
        X = halton(150, domain=unit_cube()).points
        y = _replicate(model, X, 0)
        query = halton(200, offset=150).points
        post = fit_lgcp(model, X, y)
        assert post.iterations == 1
        mean, var = laplace_predict(post, query)
        dense_mean, dense_cov, log_marginal = dense_gaussian_posterior(model, X, y, query)
        prior_var = model.cov.total_variance
        assert np.all(np.abs(var - np.diag(dense_cov)) <= 1e-13 * prior_var)
        mean_rtol = 1e-8 if s2n >= 1e-4 else 1e-6
        assert np.max(np.abs(mean - dense_mean)) <= mean_rtol * np.max(np.abs(dense_mean))
        if s2n >= 1e-4:
            assert post.log_marginal == pytest.approx(log_marginal, rel=1e-11)

    def test_lemma1_matches_closed_form(self, additive_cov, concave_mean):
        s2n = 0.5
        model = Model(concave_mean, additive_cov, GaussianObs(s2n))
        rng = np.random.default_rng(4)
        X = rng.random((9, 3))
        y = rng.normal(size=9)
        kl_q = kl_lemma1(fit_lgcp(model, X, y))
        K = model.cov_at(X) + model.jitter * np.eye(9)
        kl_cf = gaussian_posterior_kl(model.mean_at(X), K, s2n, y)
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


class TestPerSiteVolumesKL:
    """The Lemma-1 KL of a Negative-Binomial model with one volume per site."""

    @pytest.fixture
    def model(self):
        return _paper_model(NegativeBinomial(2.0, np.linspace(0.5, 2.0, 6)))

    def test_matches_site_by_site_quadrature(self, model):
        X = np.random.default_rng(3).random((6, 3))
        y = _replicate(model, X, 0)
        post = fit_lgcp(model, X, y)
        kl = kl_lemma1(post)
        mean, var = laplace_predict(post, X)
        x, w = np.polynomial.hermite.hermgauss(lgcp.GH_NODES)
        expected = sum(
            np.dot(w, NegativeBinomial(2.0, v).loglik(yi, mi + np.sqrt(2.0 * vi) * x))
            for v, yi, mi, vi in zip(model.obs.volumes, y, mean, var)
        ) / np.sqrt(np.pi)
        assert np.isfinite(kl) and kl > 0.0
        assert kl == pytest.approx(expected - post.log_marginal, rel=1e-12)

    def test_expected_kl(self, model):
        est = expected_kl(model, np.random.default_rng(4).random((6, 3)), 4, seed=1)
        assert np.isfinite(est.value) and est.value >= 0.0


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
    """The B = I + W^1/2 K W^1/2 route of every fit and prediction gives
    (K + W^-1)^-1 as a direct inverse does, with W entries down to 1e-12."""

    @pytest.mark.parametrize("trial", range(10))
    def test_routes_agree(self, trial):
        rng = np.random.default_rng(500 + trial)
        cov = random_cov(rng)
        n = int(rng.integers(2, 15))
        pts = rng.random((n, 3))
        from lgcp_design import cov_matrix
        K = cov_matrix(pts, pts, cov) + 1e-8 * cov.total_variance * np.eye(n)
        W = np.exp(rng.uniform(np.log(1e-12), np.log(1e2), size=n))
        A = np.linalg.inv(K + np.diag(1.0 / W))
        B = whitened_inverse(K, W)
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


def _reference_objective(obs, y, f, mu, alpha):
    """The log posterior up to -0.5 log|2 pi K|, with the likelihood
    evaluated on its own; exp(f) may overflow on a trial step."""
    with np.errstate(over="ignore"):
        return float(np.sum(obs.loglik(y, f)) - 0.5 * (f - mu) @ alpha)


def _reference_cho_factor(B):
    """cho_factor(B, lower=True), a failed factorization raised as the
    NumericalError that fit_lgcp documents, with scipy's own text."""
    try:
        return cho_factor(B, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed: {exc}") from None


def _reference_fit(model, design_points, y, prior=None):
    """fit_lgcp with scipy's checked Cholesky factor and solves, a fresh
    Fortran-ordered B per iteration and per posterior, the likelihood, its
    gradient and W evaluated separately, and the accepted trial recomputed
    after the line search. A Gaussian likelihood stops after its first
    accepted full step.

    A bitwise reference for fit_lgcp. It also counts the step halvings and
    keeps the final gradient max-norm; the objective is looked up on this
    module at call time, so a test can replace it.
    """
    X = np.atleast_2d(np.asarray(design_points, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    obs = model.obs
    obs.check_counts(y)
    prior = PriorTerms.at(model, X, prior)
    mu = prior.mu
    K = prior.K + model.jitter * np.eye(n)
    f = mu.copy()
    alpha = np.zeros(n)
    obj = _reference_objective(obs, y, f, mu, alpha)
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
        chol_B = _reference_cho_factor(B)
        b = W * (f - mu) + grad_lik
        a_new = b - sW * cho_solve(chol_B, sW * (K @ b))
        slack = 1e-9 * max(1.0, abs(obj))
        step = 1.0
        for _ in range(30):
            alpha_try = alpha + step * (a_new - alpha)
            f_try = mu + K @ alpha_try
            obj_try = _reference_objective(obs, y, f_try, mu, alpha_try)
            if obj_try >= obj - slack:
                break
            step *= 0.5
            halvings += 1
        alpha = alpha + step * (a_new - alpha)
        f = mu + K @ alpha
        obj = _reference_objective(obs, y, f, mu, alpha)
        if isinstance(obs, GaussianObs) and step == 1.0:
            grad_max = float(np.max(np.abs(obs.grad(y, f) - alpha)))
            converged = True
            break
    if not converged:
        raise NumericalError(f"Newton MAP did not converge in {lgcp.NEWTON_MAX_ITER} iterations")
    W = np.maximum(obs.hessian_diag(y, f), 0.0)
    sW = np.sqrt(W)
    B = np.eye(n) + sW[:, None] * K * sW[None, :]
    chol_B = _reference_cho_factor(B)[0]
    log_det_B = 2.0 * np.sum(np.log(np.diag(chol_B)))
    log_marginal = float(
        np.sum(obs.loglik(y, f)) - 0.5 * (f - mu) @ alpha - 0.5 * log_det_B
    )
    return LatentPosterior(
        prior, y, f, W, alpha, chol_B, log_marginal, it, halvings, grad_max
    )


def _prior_query(post, query):
    """The prior terms of a prediction at query points from the posterior's
    model, built without PriorTerms: the cross-covariance, the prior mean,
    the prior marginal variance and the prior covariance."""
    model = post.model
    return (
        model.cov_at(query, post.design_points),
        model.mean_at(query),
        model.moments_at(query)[1],
        model.cov_at(query),
    )


def _reference_predict(post, query):
    """laplace_predict's mean and marginal variance, and the covariance
    ConditionedModel.cov_at gives, through scipy's checked triangular solve
    of tril(L)."""
    Xq = np.atleast_2d(np.asarray(query, dtype=float))
    Kqd, prior_mean, prior_var, prior_cov = _prior_query(post, Xq)
    mean = prior_mean + Kqd @ post.alpha
    sW = np.sqrt(post.W)
    V = solve_triangular(np.tril(post.chol_B), sW[:, None] * Kqd.T, lower=True)
    return mean, lgcp._clamp_variances(prior_var - np.sum(V * V, axis=0)), prior_cov - V.T @ V


def _posterior_cov(post, query):
    """The covariance at query points of the model conditioned on post's data."""
    return ConditionedModel(post.model, post).cov_at(query)


class _ObjectiveLog:
    """Wraps an objective, recording each (f, alpha) it is given: fit_lgcp's
    lgcp._log_posterior(evaluate, f, mu, alpha), which returns the log
    posterior with the gradient and W, or the reference's
    _reference_objective(obs, y, f, mu, alpha).

    With ``reject`` > 0 the first ``reject`` trial steps (calls with a
    nonzero alpha) score -inf, which exhausts the first line search.
    """

    def __init__(self, real, reject=0):
        self.real, self.reject, self.calls = real, reject, []

    def __call__(self, *args):
        f, _mu, alpha = args[-3:]
        self.calls.append((f.copy(), alpha.copy()))
        value = self.real(*args)
        if self.reject and np.any(alpha):
            self.reject -= 1
            return (-np.inf, *value[1:]) if isinstance(value, tuple) else -np.inf
        return value

    def iterates(self):
        """The calls with repeats of the previous call dropped: the reference
        scores an accepted trial a second time, fit_lgcp does not."""
        out = []
        for f, alpha in self.calls:
            if not (out and np.array_equal(out[-1][0], f) and np.array_equal(out[-1][1], alpha)):
                out.append((f, alpha))
        return out


def _fit_both(monkeypatch, model, X, y, reject=0, prior=None):
    """Fit with fit_lgcp and the reference; each result is a posterior or
    the exception raised, with the objective's log."""
    results = []
    for fit, owner, name in (
        (fit_lgcp, lgcp, "_log_posterior"),
        (_reference_fit, sys.modules[__name__], "_reference_objective"),
    ):
        real = getattr(owner, name)
        log = _ObjectiveLog(real, reject)
        monkeypatch.setattr(owner, name, log)
        try:
            results.append((fit(model, X, y, prior=prior), log))
        except (LgcpDesignError, ValueError) as exc:
            results.append((exc, log))
        monkeypatch.setattr(owner, name, real)
    return results


def _assert_same_iterates(new_log, ref_log):
    new, ref = new_log.iterates(), ref_log.iterates()
    assert len(new) == len(ref)
    for (f1, a1), (f2, a2) in zip(new, ref):
        assert np.array_equal(f1, f2) and np.array_equal(a1, a2)


def _assert_same_posterior(post, ref):
    for name in ("f_hat", "W", "alpha", "K"):
        assert np.array_equal(getattr(post, name), getattr(ref, name)), name
    assert np.array_equal(post.chol_B, ref.chol_B)
    assert post.log_marginal == ref.log_marginal
    assert post.iterations == ref.iterations
    assert post.halvings == ref.halvings
    assert post.grad_max == ref.grad_max


# laplace_predict and ConditionedModel.cov_at multiply by L^-1 W^1/2 where
# the reference solves with L, so (co)variances agree to roundoff, not bit for
# bit
PREDICT_RTOL = 1e-13


def _assert_same_predictions(post, ref, query):
    sd = np.sqrt(post.model.moments_at(query)[1])
    mean, var = laplace_predict(post, query)
    ref_mean, ref_var, ref_cov = _reference_predict(ref, query)
    assert np.array_equal(mean, ref_mean)
    assert np.all(np.abs(var - ref_var) <= PREDICT_RTOL * sd * sd)
    assert np.all(np.abs(_posterior_cov(post, query) - ref_cov) <= PREDICT_RTOL * np.outer(sd, sd))


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
    """fit_lgcp and laplace_predict's mean reproduce the reference bit for
    bit; laplace_predict's variances and ConditionedModel.cov_at's
    covariances agree with it to roundoff."""

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
        prior = PriorTerms(model, X, K, np.full(6, 0.5))
        y = np.array([0.0, 3.0, 1.0, 2.0, 0.0, 5.0])
        (exc, _), (ref_exc, _) = _fit_both(monkeypatch, model, X, y, prior=prior)
        assert isinstance(exc, NumericalError) and isinstance(ref_exc, NumericalError)
        assert str(exc) == str(ref_exc)
        assert str(exc).startswith("Cholesky factorization failed: ")

    def test_nonfinite_prior_covariance(self, monkeypatch):
        model = _paper_model()
        X = np.random.default_rng(13).random((5, 3))
        K = model.cov_at(X)
        K[1, 2] = K[2, 1] = np.nan
        (exc, _), (ref_exc, _) = _fit_both(
            monkeypatch, model, X, np.ones(5), prior=PriorTerms(model, X, K, model.mean_at(X))
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


def _separate_terms(obs, y, f):
    """Each observation model's log likelihood terms, gradient and W, each
    formula evaluated on its own with nothing shared or formed ahead: the
    bitwise reference for the evaluators."""
    if isinstance(obs, Poisson):
        return y * f - np.exp(f) - lgcp._log_gamma(y + 1.0), y - np.exp(f), np.exp(f)
    if isinstance(obs, NegativeBinomial):
        r = obs.r
        # per-site volumes are shaped like the counts
        volumes = np.asarray(obs.volumes)
        m = (volumes.reshape(np.shape(y)) if volumes.ndim else volumes) * np.exp(f)
        return (
            lgcp._log_gamma(y + r) - lgcp._log_gamma(r) - lgcp._log_gamma(y + 1.0) + r * np.log(r)
            + y * np.log(m) - (y + r) * np.log(r + m),
            y - m * (y + r) / (r + m),
            (y + r) * m * r / (r + m) ** 2,
        )
    s2 = obs.noise_variance
    return (
        -0.5 * ((y - f) ** 2 / s2 + np.log(2.0 * np.pi * s2)),
        (y - f) / s2,
        np.full_like(np.asarray(f, dtype=float), 1.0 / s2),
    )


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLogGamma:
    """lgcp._log_gamma against scipy.special.gammaln, and gammaln's contract."""

    @staticmethod
    def _assert_close(x):
        got, want = lgcp._log_gamma(x), gammaln(x)
        large = np.abs(want) > 1.0
        assert np.all(np.abs(got - want)[large] <= 8 * np.spacing(np.abs(want[large])))
        assert np.all(np.abs(got - want)[~large] <= 1e-15)

    def test_integers(self):
        # log y! of every count up to 1e5
        self._assert_close(np.arange(1.0, 10**5 + 2))

    @pytest.mark.parametrize("r", [0.7, 2.0, 5.0, 10.0])
    def test_counts_plus_dispersion(self, r):
        self._assert_close(np.arange(0.0, 10**4 + 1) + r)

    def test_half_integers_and_large(self):
        self._assert_close(np.array([0.5, 1.5, 1e10, 1e300]))

    def test_shape_dtype_and_scalar(self):
        x = np.arange(1, 7).reshape(2, 3)
        got = lgcp._log_gamma(x)
        assert got.dtype == np.float64 and got.shape == (2, 3)
        assert type(lgcp._log_gamma(4.0)) is np.float64
        assert type(lgcp._log_gamma(np.array(4.0))) is np.float64
        assert lgcp._log_gamma(np.empty((0, 2))).shape == (0, 2)

    def test_overflow_poles_and_nan(self):
        got = lgcp._log_gamma(np.array([1e308, 0.0, -1.0, np.nan]))
        assert got[:3].tolist() == [np.inf] * 3
        assert np.isnan(got[3])
        assert lgcp._log_gamma(1e308) == np.inf


class TestLogFactorial:
    """lgcp._log_factorial reads integral counts from a table that grows on
    first use, with the bits of _log_gamma(y + 1.0), and takes _log_gamma
    for everything else."""

    def test_table_matches_log_gamma_across_growth(self, monkeypatch):
        monkeypatch.setattr(lgcp, "_log_factorials", np.empty(0))
        small = np.arange(11.0)
        assert _same_bits(lgcp._log_factorial(small), lgcp._log_gamma(small + 1.0))
        assert lgcp._log_factorials.size == 16
        grown_from = lgcp._log_factorials
        y = np.arange(10.0**5 + 1)
        assert _same_bits(lgcp._log_factorial(y), lgcp._log_gamma(y + 1.0))
        assert lgcp._log_factorials.size == 1 << 17
        # the grown table kept the first entries' bits and left the old array
        assert _same_bits(lgcp._log_factorials[:16], grown_from)
        assert _same_bits(lgcp._log_factorial(y[::-1]), lgcp._log_gamma(y[::-1] + 1.0))

    def test_shapes_and_scalars(self, monkeypatch):
        monkeypatch.setattr(lgcp, "_log_factorials", np.empty(0))
        column = np.array([[0.0], [7.0], [3.0]])
        assert _same_bits(lgcp._log_factorial(column), lgcp._log_gamma(column + 1.0))
        assert type(lgcp._log_factorial(4.0)) is np.float64
        assert _same_bits(lgcp._log_factorial(4.0), lgcp._log_gamma(5.0))
        assert lgcp._log_factorial(np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("y", [
        [3.0 + 1e-12, 2.0], [-1.0, 2.0], [np.nan, 1.0], [1e300, 1.0],
        [float(lgcp.LOG_FACTORIAL_TABLE_MAX), 0.0],
    ], ids=["near_integer", "negative", "nan", "huge", "table_max"])
    def test_other_values_take_log_gamma(self, monkeypatch, y):
        monkeypatch.setattr(lgcp, "_log_factorials", np.empty(0))
        y = np.array(y)
        with np.errstate(invalid="ignore"):
            got = lgcp._log_factorial(y)
        assert _same_bits(got, lgcp._log_gamma(y + 1.0))
        assert lgcp._log_factorials.size == 0

    def test_near_integer_count_is_a_count(self, monkeypatch):
        # _require_counts accepts it, so a Poisson fit reaches the fallback
        monkeypatch.setattr(lgcp, "_log_factorials", np.empty(0))
        y = np.array([3.0 + 1e-12, 2.0, 0.0])
        lgcp._require_counts(y)
        f = np.array([0.5, -1.0, 2.0])
        assert _same_bits(Poisson().loglik(y, f), _separate_terms(Poisson(), y, f)[0])
        assert lgcp._log_factorials.size == 0

    def test_import_builds_no_table(self):
        out = run_python(
            "import lgcp_design\n"
            "from lgcp_design import lgcp\n"
            "print(lgcp._log_factorials.size)\n"
        )
        assert out.split() == ["0"]


_OBS_MODELS = pytest.mark.parametrize("obs", [
    Poisson(),
    NegativeBinomial(5.0, 1.0),
    NegativeBinomial(0.7, np.linspace(0.5, 2.0, 12)),
    GaussianObs(0.5),
], ids=["poisson", "negbin", "negbin_volumes", "gaussian"])


class TestLikelihoodEvaluator:
    """One evaluation per trial point, bit for bit the separate formulas."""

    @_OBS_MODELS
    def test_matches_separate_formulas(self, obs):
        rng = np.random.default_rng(40)
        y = rng.poisson(3.0, 12).astype(float)
        y[:2] = 0.0
        # the last three entries overflow exp(f)
        f = np.concatenate([rng.normal(0.0, 2.0, 9), [710.0, 800.0, 1e4]])
        with np.errstate(over="ignore", invalid="ignore"):
            evaluated = obs.evaluator(y)(f)
            separate = _separate_terms(obs, y, f)
            views = obs.loglik(y, f), obs.grad(y, f), obs.hessian_diag(y, f)
        for got, want, view in zip(evaluated, separate, views):
            assert _same_bits(got, want) and _same_bits(view, want)
        if not isinstance(obs, GaussianObs):
            assert not np.isfinite(evaluated[2][-3:]).any()

    @pytest.mark.parametrize("obs", [
        Poisson(),
        NegativeBinomial(5.0, 1.0),
        NegativeBinomial(2.0, np.linspace(0.5, 2.0, 6)),
        GaussianObs(0.5),
    ], ids=["poisson", "negbin", "negbin_per_site", "gaussian"])
    def test_scalar_and_broadcast_arguments(self, obs):
        per_site = np.ndim(getattr(obs, "volumes", 1.0)) > 0
        # scalar counts, where the model has no per-site volumes
        for y, f in ((0.0, -1.0), (4.0, 0.8)) if not per_site else ():
            views = obs.loglik(y, f), obs.grad(y, f), obs.hessian_diag(y, f)
            for view, want in zip(views, _separate_terms(obs, y, f)):
                assert _same_bits(view, want)
        # kl_lemma1's broadcast: counts as a column, f with one column per node
        y = np.arange(6.0)[:, None]
        F = np.linspace(-2.0, 3.0, 6)[:, None] + np.linspace(-1.0, 1.0, 5)[None, :]
        assert _same_bits(obs.loglik(y, F), _separate_terms(obs, y, F)[0])
        if per_site:
            # row i is site i's own scalar-volume model
            rows = [NegativeBinomial(obs.r, v).loglik(y[i], F[i])
                    for i, v in enumerate(obs.volumes)]
            assert _same_bits(obs.loglik(y, F), np.array(rows))

    @_OBS_MODELS
    def test_one_evaluation_per_trial_point(self, monkeypatch, obs):
        cls, points = type(obs), []
        real = cls.evaluator

        def logging_evaluator(self, y):
            evaluate = real(self, y)

            def logged(f):
                points.append(f.copy())
                return evaluate(f)

            return logged

        def separate(*args):
            raise AssertionError("fit_lgcp called a separate likelihood formula")

        monkeypatch.setattr(cls, "evaluator", logging_evaluator)
        for name in ("loglik", "grad", "hessian_diag"):
            monkeypatch.setattr(cls, name, separate)
        model = _paper_model(obs)
        X = np.random.default_rng(41).random((12, 3))
        post = fit_lgcp(model, X, _replicate(model, X, 2))
        # the prior mean, then each step's trial points; a fit that converged
        # on the gradient test took one step fewer than its iteration count,
        # a Gaussian fit stops right after its one step
        steps = post.iterations if isinstance(obs, GaussianObs) else post.iterations - 1
        assert post.iterations >= 1
        assert len(points) == 1 + steps + post.halvings
        assert len({f.tobytes() for f in points}) == len(points)

    def test_gaussian_fit_factors_B_once(self, monkeypatch):
        real, calls = lgcp._factor_B, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lgcp, "_factor_B", counting)
        model = _paper_model(GaussianObs(1e-4))
        X = halton(150, domain=unit_cube()).points
        post = fit_lgcp(model, X, _replicate(model, X, 0))
        assert post.iterations == 1
        assert len(calls) == 1
        assert np.array_equal(post.chol_B, real(post.K, np.sqrt(post.W)))


class TestFactorWorkspace:
    """_factor_B builds B^T in C order in one workspace; with K exactly
    symmetric that is B in Fortran order, bit for bit."""

    @staticmethod
    def _fortran_factor(K, sW):
        # B as built in a fresh Fortran-ordered array before the workspace
        n = K.shape[0]
        B = np.multiply(sW[:, None], K, order="F")
        B *= sW[None, :]
        B.flat[:: n + 1] += 1.0
        c, info = dpotrf(B, lower=1, overwrite_a=1, clean=0)
        assert info == 0
        return c

    @staticmethod
    def _prior_K(model, X):
        return model.cov_at(X) + model.jitter * np.eye(X.shape[0])

    @pytest.mark.parametrize("n", [1, 7, 150])
    def test_matches_fortran_build(self, n):
        model = _paper_model()
        rng = np.random.default_rng(42 + n)
        X = rng.random((n, 3))
        K = self._prior_K(model, X)
        assert np.array_equal(K, K.T)
        work = np.empty((n, n))
        for sW in (np.sqrt(np.logspace(-8, 4, n)), np.zeros(n), np.full(n, 3.0)):
            chol = lgcp._factor_B(K, sW, work)
            assert np.shares_memory(chol, work) and chol.flags.f_contiguous
            assert _same_bits(chol, self._fortran_factor(K, sW))
            assert _same_bits(lgcp._factor_B(K, sW), chol)

    def test_conditioned_covariance_is_exactly_symmetric(self):
        # the two-stage workload fits on a ConditionedModel's covariance
        model = _paper_model()
        wave1 = halton(40, domain=unit_cube()).points
        cond = condition_on_data(model, wave1, _replicate(model, wave1, 1))
        X = halton(60, domain=unit_cube(), offset=40).points
        K = self._prior_K(cond, X)
        assert np.array_equal(K, K.T)
        sW = np.sqrt(np.random.default_rng(43).uniform(0.1, 30.0, 60))
        assert _same_bits(lgcp._factor_B(K, sW, np.empty((60, 60))), self._fortran_factor(K, sW))


def _start_factor_log(monkeypatch):
    """A list that gets one entry per PriorTerms.start_factor call: True
    when the call returned the factor its terms already kept."""
    log, real = [], PriorTerms.start_factor

    def logged(self, sW):
        kept = self._start
        chol = real(self, sW)
        log.append(kept is not None and chol is kept[1])
        return chol

    monkeypatch.setattr(PriorTerms, "start_factor", logged)
    return log


class TestStartFactor:
    """Fits on one shared PriorTerms reuse the factor of B at the Newton
    start when the start W does not depend on the data, and every posterior
    field keeps the bits of a fit on fresh terms."""

    @pytest.mark.parametrize("obs", [Poisson(), NegativeBinomial(2.0, 1.0), GaussianObs(0.5)],
                             ids=["poisson", "negbin", "gaussian"])
    def test_shared_terms_give_fresh_bits(self, monkeypatch, obs):
        model = _paper_model(obs)
        X = np.random.default_rng(50).random((40, 3))
        shared = PriorTerms.at(model, X)
        log = _start_factor_log(monkeypatch)
        for j in range(4):
            y = _replicate(model, X, j)
            post = fit_lgcp(model, X, y, prior=shared)
            fresh = fit_lgcp(model, X, y)
            for name in ("f_hat", "alpha", "W", "chol_B", "log_marginal", "iterations",
                         "halvings", "grad_max"):
                assert _same_bits(getattr(post, name), getattr(fresh, name)), name
        # the fits on fresh terms log the odd entries and never reuse
        assert not any(log[1::2])
        assert log[0::2] == [False] + [not isinstance(obs, NegativeBinomial)] * 3

    def test_second_poisson_fit_factors_once_fewer(self, monkeypatch):
        real, calls = lgcp.cholesky, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lgcp, "cholesky", counting)
        model = _paper_model()
        X = halton(150, domain=unit_cube()).points
        prior = PriorTerms.at(model, X)
        y = _replicate(model, X, 3)
        counts = []
        for _ in range(2):
            calls.clear()
            fit_lgcp(model, X, y, prior=prior)
            counts.append(len(calls))
        assert counts[1] == counts[0] - 1

    def test_negative_binomial_fits_never_reuse(self, monkeypatch):
        model = _paper_model(NegativeBinomial(2.0, 1.0))
        X = np.random.default_rng(51).random((30, 3))
        prior = PriorTerms.at(model, X)
        log = _start_factor_log(monkeypatch)
        ys, factors = [_replicate(model, X, j) for j in range(3)], []
        for y in ys:
            fit_lgcp(model, X, y, prior=prior)
            factors.append(prior._start[1])
        assert not np.array_equal(ys[0], ys[1]) and not np.array_equal(ys[1], ys[2])
        assert log == [False, False, False]
        assert len({id(c) for c in factors}) == 3
        # a Negative-Binomial W at the start f = mu depends on the counts
        assert len({model.obs.hessian_diag(y, prior.mu).tobytes() for y in ys}) == 3

    def test_threads_sharing_terms_and_table(self, monkeypatch):
        # threads race on one PriorTerms' start cache (a Negative-Binomial
        # start misses it at every fit) and on the log-factorial table's growth
        model = _paper_model(NegativeBinomial(2.0, 1.0))
        X = np.random.default_rng(52).random((30, 3))
        ys = [_replicate(model, X, j) * (1 + j % 3) for j in range(12)]
        expected = [fit_lgcp(model, X, y) for y in ys]
        monkeypatch.setattr(lgcp, "_log_factorials", np.empty(0))
        prior = PriorTerms.at(model, X)
        results = {}

        def work(offset):
            for j in range(offset, len(ys), 4):
                results[j] = fit_lgcp(model, X, ys[j], prior=prior)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == list(range(len(ys)))
        for j, want in enumerate(expected):
            for name in ("f_hat", "alpha", "W", "chol_B", "log_marginal", "iterations"):
                assert _same_bits(getattr(results[j], name), getattr(want, name)), (j, name)

    def test_shared_arrays_are_never_written(self):
        # a Gaussian posterior's factor is the start factor its terms keep
        model = _paper_model(GaussianObs(0.5))
        X = halton(80, domain=unit_cube()).points
        prior = PriorTerms.at(model, X)
        posts = [fit_lgcp(model, X, _replicate(model, X, j), prior=prior) for j in range(2)]
        chol, K = prior._start[1], prior.jittered_K
        assert all(p.chol_B is chol and p.K is K for p in posts)
        kept = chol.copy(order="K"), K.copy()
        query = halton(120, offset=80).points
        for post in posts:
            laplace_predict(post, query)
            lgcp.mean_latent_variance(post, query)
            kl_lemma1(post)
            _posterior_cov(post, query)
        fit_lgcp(model, X, _replicate(model, X, 5), prior=prior)
        assert prior._start[1] is chol
        assert _same_bits(chol, kept[0]) and _same_bits(K, kept[1])
        for array in (chol, K):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0


def _draw_prior(case):
    """A model and points whose draw jitter 1e-8 max(diag K, 1) is not the
    model's: a prior of total variance 0.5, or a model conditioned on a first
    wave, whose prior variances lie below the base model's 4."""
    if case == "total_variance_below_1":
        cov = CovStructure(
            "additive", KernelSpec("matern32", 0.8, 0.2), KernelSpec("sqexp", 1.5, 0.3)
        )
        return Model(MeanFunction.constant(0.3), cov), halton(40, domain=unit_cube()).points
    base = _paper_model()
    wave1 = halton(25, domain=unit_cube()).points
    model = condition_on_data(base, wave1, _replicate(base, wave1, 0))
    return model, halton(40, offset=25, domain=unit_cube()).points


class TestOnePriorCovariance:
    """Draws and fits on one PriorTerms read one K + model.jitter I: the draw
    factor is the Cholesky factor of ``jittered_K``, and a posterior's K is
    that same array."""

    @pytest.mark.parametrize("case", ["total_variance_below_1", "conditioned"])
    def test_draw_factor_is_the_factor_of_jittered_K(self, case):
        model, X = _draw_prior(case)
        prior = PriorTerms.at(model, X)
        jittered = prior.K + model.jitter * np.eye(X.shape[0])
        assert _same_bits(prior.jittered_K, jittered)
        c, info = dpotrf(jittered, lower=1, clean=0)
        assert info == 0
        assert _same_bits(prior.factor, np.tril(c).T)
        draws = sample_prior(model, X, 3, 7, prior=prior)
        z = np.random.default_rng(7).standard_normal((3, X.shape[0]))
        assert _same_bits(draws, prior.mu[None, :] + z @ np.tril(c).T)

    @pytest.mark.parametrize("obs", [Poisson(), GaussianObs(0.5)], ids=["poisson", "gaussian"])
    def test_posterior_K_is_the_priors(self, obs):
        model = _paper_model(obs)
        X = halton(30, domain=unit_cube()).points
        post = fit_lgcp(model, X, _replicate(model, X, 2))
        assert post.K is post.prior.jittered_K
        # the posterior keeps no K of its own that could differ from its prior's
        assert "K" not in {f.name for f in fields(LatentPosterior)}


class TestPredictionOracle:
    """laplace_predict and ConditionedModel.cov_at against the dense form
    K_qq - K_qD (K + diag(1/W))^-1 K_Dq, on posteriors built with a chosen W."""

    @staticmethod
    def _posterior(n, W, seed=0):
        model = _paper_model()
        rng = np.random.default_rng(seed)
        X = rng.random((n, 3))
        K = model.cov_at(X) + model.jitter * np.eye(n)
        alpha = rng.normal(size=n)
        f = model.mean_at(X) + K @ alpha
        chol_B = lgcp._factor_B(K, np.sqrt(W))
        post = LatentPosterior(PriorTerms.at(model, X), np.zeros(n), f, W, alpha, chol_B)
        return post, rng.random((40, 3))

    @pytest.mark.parametrize("n", [5, 50, 150])
    @pytest.mark.parametrize("W", ["1e-8", "1", "1e4", "1e-8..1e4"])
    def test_matches_dense_form(self, n, W):
        W = np.logspace(-8, 4, n) if W == "1e-8..1e4" else np.full(n, float(W))
        post, query = self._posterior(n, W)
        Kqd, prior_mean, _, prior_cov = _prior_query(post, query)
        dense = prior_cov - Kqd @ cho_solve(cho_factor(post.K + np.diag(1.0 / W), lower=True), Kqd.T)
        sd = np.sqrt(np.diag(prior_cov))
        mean, var = laplace_predict(post, query)
        cov = _posterior_cov(post, query)
        assert np.array_equal(mean, prior_mean + Kqd @ post.alpha)
        assert np.all(np.abs(var - np.diag(dense)) <= PREDICT_RTOL * sd * sd)
        assert np.all(np.abs(cov - dense) <= PREDICT_RTOL * np.outer(sd, sd))
        assert np.all(var > 0)
        post_sd = np.sqrt(np.diag(cov))
        assert np.all(np.abs(cov - cov.T) <= 1e-15 * np.outer(post_sd, post_sd))

    def test_whitener_formed_once_per_posterior(self, monkeypatch):
        real, calls = lgcp.tril_inverse, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lgcp, "tril_inverse", counting)
        post, query = self._posterior(20, np.logspace(-2, 2, 20))
        mean, var = laplace_predict(post, query)
        _posterior_cov(post, query)
        again = laplace_predict(post, query)
        assert len(calls) == 1
        assert np.array_equal(again[0], mean) and np.array_equal(again[1], var)

    @pytest.mark.parametrize("n", [5, 150])
    def test_zero_W_returns_prior_moments(self, n):
        post, query = self._posterior(n, np.zeros(n))
        Kqd, prior_mean, prior_var, prior_cov = _prior_query(post, query)
        mean, var = laplace_predict(post, query)
        assert np.array_equal(mean, prior_mean + Kqd @ post.alpha)
        assert np.array_equal(var, prior_var)
        assert np.array_equal(_posterior_cov(post, query), prior_cov)


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
