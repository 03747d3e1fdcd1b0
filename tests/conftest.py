import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from lgcp_design import CovStructure, KernelSpec, MeanFunction


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
