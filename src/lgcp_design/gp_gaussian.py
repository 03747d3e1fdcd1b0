"""Gaussian-process prior terms, prior sampling, and the closed-form KL
divergence of the Gaussian observation model,
``lgcp.Model(mean, cov, GaussianObs(sigma2))``.

Fitting and prediction under every observation model, the Gaussian one
included, are ``lgcp.fit_lgcp`` and ``lgcp.laplace_predict``; the prior
terms and the variance clamp they use live here. All solves go through
Cholesky factorizations. Negative predicted variances arising from
cancellation are clamped to zero, and a clamp rate above 0.1% of queries
raises NumericalError instead of being hidden.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import LgcpDesignError, NumericalError
# cov_matrix is unused here but stays a module attribute: the perfbench
# tracer test checks that it is wrapped in every module that imports it
from .kernels import JITTER_SCALE, CovStructure, cov_matrix  # noqa: F401

__all__ = [
    "prior_predict",
    "sample_prior",
    "kl_gaussian_closed_form",
]

CLAMP_FAIL_FRACTION = 1e-3


def _chol(mat: np.ndarray, jitter: float):
    """Cholesky of mat + jitter*I; factorization failure is reported, not patched."""
    try:
        return cho_factor(mat + jitter * np.eye(mat.shape[0]), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed: {exc}") from exc


def _clamp_variances(var: np.ndarray) -> np.ndarray:
    neg = var < 0
    if neg.any():
        if neg.sum() > max(1, CLAMP_FAIL_FRACTION * var.size):
            raise NumericalError(
                f"{neg.sum()} of {var.size} predicted variances were negative"
            )
        var = np.where(neg, 0.0, var)
    return var


def _fit_prior(model, X):
    """Prior covariance (without jitter) and mean at design points X.

    These terms of a fit do not depend on the data; a caller fitting many
    data sets on the same points builds them once and passes them as
    ``_prior``.
    """
    return model.cov_at(X), model.mean_at(X)


def _query_prior(model, Xq, X, want):
    """Prior terms of a prediction at Xq from a fit at X.

    The cross-covariance, the prior mean at Xq, and the prior marginal
    variance (``want="marginal"``) or covariance (``want="full"``) at Xq.
    None of them depends on the data (Rasmussen & Williams 2006, Alg. 3.2).
    """
    second = model.cov_at(Xq) if want == "full" else prior_marginal_var(model, Xq)
    return model.cov_at(Xq, X), model.mean_at(Xq), second


def prior_marginal_var(model, query) -> np.ndarray:
    """Prior marginal variances at query points without forming the full matrix."""
    Xq = np.atleast_2d(np.asarray(query, dtype=float))
    if hasattr(model, "var_at"):
        return np.asarray(model.var_at(Xq), dtype=float)
    cov = getattr(model, "cov", None)
    if isinstance(cov, CovStructure):
        return np.full(Xq.shape[0], cov.total_variance)
    return np.diag(model.cov_at(Xq)).copy()


def prior_predict(model, query, want: str = "marginal"):
    """Prior mean and (co)variance at query points (the n = 0 design limit)."""
    Xq = np.atleast_2d(np.asarray(query, dtype=float))
    mean = model.mean_at(Xq)
    if want == "full":
        return mean, model.cov_at(Xq)
    return mean, prior_marginal_var(model, Xq)


def _prior_factor(model, X):
    """Prior mean at X and the transposed lower Cholesky factor of the
    (jittered) prior covariance: the part of ``sample_prior`` that does not
    depend on the seed, to be passed back as ``_factor``."""
    K = model.cov_at(X)
    jitter = JITTER_SCALE * max(np.max(np.diag(K)), 1.0)
    chol, _ = _chol(K, jitter)
    return model.mean_at(X), np.tril(chol).T


def sample_prior(model, points, count: int, seed, _factor=None) -> np.ndarray:
    """Draw ``count`` joint latent prior samples at the given points.

    Returns an array of shape (count, n_points); deterministic given seed.
    """
    if count < 1:
        raise LgcpDesignError("count must be >= 1")
    X = np.atleast_2d(np.asarray(points, dtype=float))
    mean, LT = _prior_factor(model, X) if _factor is None else _factor
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, X.shape[0]))
    return mean[None, :] + z @ LT


def kl_gaussian_closed_form(model, design_points, y, _prior=None) -> float:
    """KL divergence from prior to posterior over the design points.

    Closed form for the Gaussian observation model with posterior moments
    mu1 = K (K + sigma^2 I)^-1 (y - mu) and K1 = K - K (K + sigma^2 I)^-1 K:
    KL = 0.5 [ log|K K1^-1| + Tr(K1 K^-1) + mu1' K^-1 mu1 - n ].
    """
    X = np.atleast_2d(np.asarray(design_points, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    K, mu = _fit_prior(model, X) if _prior is None else _prior
    jitter = model.jitter
    Kj = K + jitter * np.eye(n)
    chol_noisy = _chol(K + model.noise_variance * np.eye(n), jitter)
    resid = y - mu
    mu1 = K @ cho_solve(chol_noisy, resid)
    K1 = Kj - K @ cho_solve(chol_noisy, K)

    chol_prior = _chol(K, jitter)
    chol_post = _chol(K1, jitter)
    log_det_prior = 2.0 * np.sum(np.log(np.diag(chol_prior[0])))
    log_det_post = 2.0 * np.sum(np.log(np.diag(chol_post[0])))
    trace = np.trace(cho_solve(chol_prior, K1))
    quad = mu1 @ cho_solve(chol_prior, mu1)
    kl = 0.5 * (log_det_prior - log_det_post + trace + quad - n)
    if kl < -1e-10:
        raise NumericalError(f"closed-form KL came out negative: {kl}")
    return max(float(kl), 0.0)
