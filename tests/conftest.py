import os
import subprocess
import sys
from pathlib import Path

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
    chol_B = _factor_B(K, np.sqrt(W))
    M = np.tril(LatentPosterior(None, None, None, W, None, chol_B)._whitener)
    return M.T @ M


# One instance through every LAPACK/BLAS call site of the library: the prior
# draw (dpotrf), the Newton fit (dpotrf, dpotrs), the grid prediction
# (dtrtri, dtrmm), the KL and the latent APV (dgeqrf). It leaves ``digest``,
# the sha256 of everything it computed.
LAPACK_INSTANCE = """
import hashlib, numpy as np, lgcp_design as ld
cov = ld.CovStructure('additive', ld.KernelSpec('matern32', 0.8, 2.0), ld.KernelSpec('sqexp', 1.5, 2.0))
model = ld.Model(ld.MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0), cov, ld.Poisson())
X = ld.halton(30).points
prior = ld.PriorTerms.at(model, X)
f = ld.sample_prior(model, X, 1, 3, prior=prior)[0]
y = ld.sample_counts(model, f, 4)
post = ld.fit_lgcp(model, X, y, prior=prior)
grid = ld.discretize(ld.unit_cube(), (5, 5, 4)).cells
mean, var = ld.laplace_predict(post, grid)
kl, apv = ld.kl_lemma1(post), ld.mean_latent_variance(post, grid)
digest = hashlib.sha256(np.concatenate([f, y, mean, var, [kl, apv]]).tobytes()).hexdigest()
"""


def run_python(code, *options):
    """stdout of a fresh interpreter, run with ``options`` and this
    checkout's src/ first on its path, on ``code``; a non-zero exit fails."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, *options, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
