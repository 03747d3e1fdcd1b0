import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from lgcp_design import CovStructure, KernelSpec, LatentPosterior, MeanFunction
from lgcp_design.lgcp import _factor_B


@pytest.fixture
def additive_cov():
    return CovStructure(
        "additive",
        KernelSpec("matern32", 0.8, 2.0),
        KernelSpec("sqexp", 1.5, 2.0),
    )


@pytest.fixture
def separable_cov():
    return CovStructure(
        "separable",
        KernelSpec("matern32", 0.8, 1.0),
        KernelSpec("sqexp", 1.5, 2.0),
    )


@pytest.fixture
def concave_mean():
    return MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0)


def random_cov(rng):
    """A random valid covariance structure for property tests."""
    mode = rng.choice(["separable", "additive"])
    sv = 1.0 if mode == "separable" else float(rng.uniform(0.3, 3.0))
    spatial = KernelSpec(
        str(rng.choice(["matern32", "sqexp"])), float(rng.uniform(0.2, 2.0)), sv
    )
    temporal = KernelSpec(
        str(rng.choice(["matern32", "sqexp"])),
        float(rng.uniform(0.2, 2.0)),
        float(rng.uniform(0.3, 3.0)),
    )
    return CovStructure(mode, spatial, temporal)


def dense_gaussian_posterior(model, X, y, query):
    """Exact GP posterior of a Gaussian observation model by (K + sigma^2 I)
    solves: the mean and full covariance at the query points, and the log
    marginal likelihood. K carries the model's jitter, as fits do."""
    n = X.shape[0]
    noisy = cho_factor(
        model.cov_at(X) + (model.jitter + model.obs.noise_variance) * np.eye(n), lower=True
    )
    Kqd = model.cov_at(query, X)
    resid = y - model.mean_at(X)
    mean = model.mean_at(query) + Kqd @ cho_solve(noisy, resid)
    cov = model.cov_at(query) - Kqd @ cho_solve(noisy, Kqd.T)
    log_det = 2.0 * np.sum(np.log(np.diag(noisy[0])))
    log_marginal = -0.5 * (resid @ cho_solve(noisy, resid) + log_det + n * np.log(2.0 * np.pi))
    return mean, cov, log_marginal


def gaussian_kl_oracle(mu0, K0, mu1, K1):
    """Generic KL(N(mu1,K1) || N(mu0,K0)) via slogdet and solves."""
    n = len(mu0)
    K0_inv_K1 = np.linalg.solve(K0, K1)
    diff = mu1 - mu0
    _, ld0 = np.linalg.slogdet(K0)
    _, ld1 = np.linalg.slogdet(K1)
    return 0.5 * (
        ld0 - ld1 + np.trace(K0_inv_K1) + diff @ np.linalg.solve(K0, diff) - n
    )


def gaussian_posterior_kl(mu, K, noise_variance, y):
    """The generic KL oracle from the prior N(mu, K) to the exact posterior
    of y ~ N(f, noise_variance I), its moments by (K + sigma^2 I) solves."""
    A = K + noise_variance * np.eye(len(mu))
    mu1 = mu + K @ np.linalg.solve(A, y - mu)
    K1 = K - K @ np.linalg.solve(A, K)
    return gaussian_kl_oracle(mu, K, mu1, K1)


def whitened_inverse(K, W):
    """(K + W^-1)^-1 as M^T M, M = L^-1 W^1/2 the whitener that every fit and
    prediction applies, L the lower Cholesky factor of B = I + W^1/2 K W^1/2
    from ``_factor_B``. dtrtri leaves B's entries above M's diagonal."""
    chol_B = (_factor_B(K, np.sqrt(W)), True)
    M = np.tril(LatentPosterior(None, None, None, W, None, chol_B, K)._whitener)
    return M.T @ M
