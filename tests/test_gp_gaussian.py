"""The Gaussian observation model: its exact posterior through fit_lgcp and
laplace_predict, its KL through kl_lemma1, and the prior helpers of
gp_gaussian."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from lgcp_design import (
    ConditionedModel,
    GaussianObs,
    MeanFunction,
    Model,
    fit_lgcp,
    kl_lemma1,
    laplace_predict,
    point,
    sample_prior,
)
from conftest import gaussian_posterior_kl, random_cov


@pytest.fixture
def model(additive_cov, concave_mean):
    return Model(concave_mean, additive_cov, GaussianObs(1.0))


class TestScalarPosterior:
    def test_posterior_mean_shrinks_toward_prior(self, model):
        # single site: posterior mean = mu + s2f/(s2f + s2n) (y - mu)
        x = point(0.5, 0.5, 0.5)
        mu = model.mean_at(x)[0]
        s2f = model.cov.total_variance
        y = mu + 3.0
        post = fit_lgcp(model, x[None, :], np.array([y]))
        mean, var = laplace_predict(post, x[None, :])
        w = s2f / (s2f + model.obs.noise_variance)
        assert mean[0] == pytest.approx(mu + w * 3.0, rel=1e-6)
        assert var[0] == pytest.approx(s2f * (1 - w), rel=1e-6)

    def test_scalar_kl_matches_1d_formula(self, model):
        x = point(0.5, 0.5, 0.5)
        mu = model.mean_at(x)[0]
        y = np.array([mu + 2.0])
        kl = kl_lemma1(fit_lgcp(model, x[None, :], y))
        s2f = model.cov.total_variance
        s2n = model.obs.noise_variance
        v1 = s2f - s2f**2 / (s2f + s2n)
        m1 = s2f / (s2f + s2n) * 2.0
        expected = 0.5 * (np.log(s2f / v1) + v1 / s2f + m1**2 / s2f - 1.0)
        assert kl == pytest.approx(expected, rel=1e-6)


class TestKlAgainstGenericOracle:
    @pytest.mark.parametrize("trial", range(10))
    def test_matches_oracle(self, trial):
        rng = np.random.default_rng(200 + trial)
        cov = random_cov(rng)
        s2n = float(rng.uniform(0.1, 2.0))
        model = Model(MeanFunction.constant(float(rng.normal())), cov, GaussianObs(s2n))
        n = int(rng.integers(2, 12))
        X = rng.random((n, 3))
        y = rng.normal(size=n) * 2.0
        kl = kl_lemma1(fit_lgcp(model, X, y))
        expected = gaussian_posterior_kl(model.mean_at(X), model.cov_at(X), s2n, y)
        # kernel matrices on random point sets can be ill-conditioned, so the
        # tolerance here is roundoff-limited; the tight formula-level check
        # uses well-conditioned instances in the acceptance suite
        assert kl == pytest.approx(expected, rel=1e-4, abs=1e-8)


class TestPredict:
    def test_variance_independent_of_y(self, model):
        rng = np.random.default_rng(5)
        X = rng.random((8, 3))
        q = rng.random((20, 3))
        _, v1 = laplace_predict(fit_lgcp(model, X, rng.normal(size=8)), q)
        _, v2 = laplace_predict(fit_lgcp(model, X, rng.normal(size=8) + 10), q)
        assert np.allclose(v1, v2, rtol=1e-10)

    def test_variance_never_exceeds_prior(self, model):
        rng = np.random.default_rng(6)
        X = rng.random((10, 3))
        q = rng.random((30, 3))
        post = fit_lgcp(model, X, rng.normal(size=10))
        _, var = laplace_predict(post, q)
        prior_var = model.cov.total_variance
        assert np.all(var <= prior_var + 1e-8)
        assert np.all(var >= 0)

    def test_full_cov_diagonal_matches_marginal(self, model):
        rng = np.random.default_rng(7)
        X = rng.random((6, 3))
        q = rng.random((5, 3))
        post = fit_lgcp(model, X, rng.normal(size=6))
        mean, var = laplace_predict(post, q)
        cond = ConditionedModel(model, post)
        assert np.array_equal(cond.mean_at(q), mean)
        assert np.allclose(np.diag(cond.cov_at(q)), var, atol=1e-8)

    def test_interpolates_training_data_at_low_noise(self, additive_cov, concave_mean):
        model = Model(concave_mean, additive_cov, GaussianObs(1e-8))
        rng = np.random.default_rng(8)
        X = rng.random((5, 3))
        y = rng.normal(size=5)
        post = fit_lgcp(model, X, y)
        mean, var = laplace_predict(post, X)
        assert np.allclose(mean, y, atol=1e-3)
        assert np.all(var < 1e-3)


class TestLogMarginal:
    def test_matches_multivariate_normal_logpdf(self, model):
        rng = np.random.default_rng(9)
        X = rng.random((7, 3))
        y = rng.normal(size=7)
        post = fit_lgcp(model, X, y)
        K = model.cov_at(X) + (model.obs.noise_variance + model.jitter) * np.eye(7)
        expected = multivariate_normal(model.mean_at(X), K).logpdf(y)
        assert post.log_marginal == pytest.approx(expected, rel=1e-8)


class TestPrior:
    def test_prior_predict_empty_design_limit(self, model):
        q = np.random.default_rng(10).random((4, 3))
        mean, var = model.moments_at(q)
        assert np.allclose(mean, model.mean_at(q))
        assert np.allclose(var, model.cov.total_variance)

    def test_sample_prior_deterministic(self, model):
        pts = np.random.default_rng(11).random((6, 3))
        a = sample_prior(model, pts, 3, 42)
        b = sample_prior(model, pts, 3, 42)
        assert a.shape == (3, 6)
        assert np.array_equal(a, b)

    def test_sample_prior_moments(self, model):
        pts = np.random.default_rng(12).random((4, 3))
        draws = sample_prior(model, pts, 20000, 0)
        mu = model.mean_at(pts)
        K = model.cov_at(pts)
        assert np.allclose(draws.mean(axis=0), mu, atol=0.1)
        emp_cov = np.cov(draws.T)
        assert np.allclose(emp_cov, K, atol=0.15)


class TestKlEdgeCases:
    def test_kl_nonnegative_random_instances(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            cov = random_cov(rng)
            model = Model(MeanFunction.constant(0.0), cov, GaussianObs(float(rng.uniform(0.2, 2))))
            n = int(rng.integers(1, 8))
            X = rng.random((n, 3))
            y = rng.normal(size=n)
            assert kl_lemma1(fit_lgcp(model, X, y)) >= 0.0

    def test_kl_grows_with_surprising_data(self, model):
        X = np.random.default_rng(14).random((5, 3))
        mu = model.mean_at(X)
        small = kl_lemma1(fit_lgcp(model, X, mu + 0.1))
        large = kl_lemma1(fit_lgcp(model, X, mu + 10.0))
        assert large > small
