"""Log-Gaussian Cox process inference via Newton MAP and Laplace approximation.

Supports Poisson, Negative-Binomial, and Gaussian observation models behind a
single interface. The Laplace posterior uses the numerically stable
B = I + W^{1/2} K W^{1/2} parameterization, which is the Woodbury form of
(K + W^-1)^-1 and remains valid as W -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.special import gammaln

from .exceptions import LgcpDesignError, NumericalError
from .gp_gaussian import _clamp_variances, _fit_prior, _query_prior
from .kernels import JITTER_SCALE, CovStructure, MeanFunction, cov_matrix, mean_eval

__all__ = [
    "Poisson",
    "NegativeBinomial",
    "GaussianObs",
    "Model",
    "LatentPosterior",
    "fit_lgcp",
    "laplace_predict",
    "kl_lemma1",
    "intensity_moments",
    "sample_counts",
    "woodbury_direct",
    "woodbury_stable",
]

NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 100
LINE_SEARCH_HALVINGS = 30
GH_NODES = 31


# ----------------------------------------------------------------------
# observation models


@dataclass(frozen=True)
class Poisson:
    """Count model y_i ~ Poisson(exp(f_i))."""

    def loglik(self, y, f):
        return y * f - np.exp(f) - gammaln(y + 1.0)

    def grad(self, y, f):
        return y - np.exp(f)

    def hessian_diag(self, y, f):
        """Negative second derivative of the log likelihood (entries of W)."""
        return np.exp(f)

    def sample(self, f, rng):
        return rng.poisson(np.exp(f))

    def check_counts(self, y):
        _require_counts(y)


@dataclass(frozen=True)
class NegativeBinomial:
    """Overdispersed counts with mean V_i exp(f_i) and dispersion r.

    Var[Y_i] = E[Y_i] + E[Y_i]^2 / r; the Poisson model is the r -> inf limit.
    ``volumes`` is either a scalar or one positive value per site.
    """

    r: float
    volumes: float | np.ndarray = 1.0

    def __post_init__(self):
        if self.r <= 0:
            raise LgcpDesignError("dispersion r must be positive")
        if np.any(np.asarray(self.volumes) <= 0):
            raise LgcpDesignError("volumes must be positive")

    def _mean(self, f):
        return np.asarray(self.volumes) * np.exp(f)

    def loglik(self, y, f):
        m = self._mean(f)
        r = self.r
        return (
            gammaln(y + r)
            - gammaln(r)
            - gammaln(y + 1.0)
            + r * np.log(r)
            + y * np.log(m)
            - (y + r) * np.log(r + m)
        )

    def grad(self, y, f):
        m = self._mean(f)
        return y - m * (y + self.r) / (self.r + m)

    def hessian_diag(self, y, f):
        m = self._mean(f)
        return (y + self.r) * m * self.r / (self.r + m) ** 2

    def sample(self, f, rng):
        m = self._mean(f)
        return rng.negative_binomial(self.r, self.r / (self.r + m))

    def check_counts(self, y):
        _require_counts(y)


@dataclass(frozen=True)
class GaussianObs:
    """Gaussian observation model y_i ~ N(f_i, sigma^2)."""

    noise_variance: float

    def __post_init__(self):
        if self.noise_variance <= 0:
            raise LgcpDesignError("noise_variance must be positive")

    def loglik(self, y, f):
        s2 = self.noise_variance
        return -0.5 * ((y - f) ** 2 / s2 + np.log(2.0 * np.pi * s2))

    def grad(self, y, f):
        return (y - f) / self.noise_variance

    def hessian_diag(self, y, f):
        return np.full_like(np.asarray(f, dtype=float), 1.0 / self.noise_variance)

    def sample(self, f, rng):
        return f + np.sqrt(self.noise_variance) * rng.standard_normal(np.shape(f))

    def check_counts(self, y):
        pass


def _require_counts(y):
    y = np.asarray(y)
    if np.any(y < 0) or not np.allclose(y, np.round(y)):
        raise LgcpDesignError("counts must be nonnegative integers")


# ----------------------------------------------------------------------
# model container


@dataclass(frozen=True)
class Model:
    """GP prior (mean + covariance) together with an observation model."""

    mean: MeanFunction
    cov: CovStructure
    obs: object = field(default_factory=Poisson)

    def mean_at(self, points) -> np.ndarray:
        return np.atleast_1d(mean_eval(points, self.mean))

    def cov_at(self, a, b=None) -> np.ndarray:
        return cov_matrix(a, a if b is None else b, self.cov)

    @property
    def jitter(self) -> float:
        return JITTER_SCALE * self.cov.total_variance

    @property
    def noise_variance(self) -> float:
        if isinstance(self.obs, GaussianObs):
            return self.obs.noise_variance
        raise LgcpDesignError("noise_variance only defined for Gaussian observations")


# ----------------------------------------------------------------------
# MAP estimation and Laplace posterior


@dataclass(frozen=True)
class LatentPosterior:
    """Laplace posterior at the design points; immutable once fitted."""

    model: object
    design_points: np.ndarray
    y: np.ndarray
    f_hat: np.ndarray
    W: np.ndarray
    alpha: np.ndarray = field(repr=False)  # K^-1 (f_hat - mu)
    chol_B: tuple = field(repr=False)  # (lower Cholesky of I + W^1/2 K W^1/2, True)
    K: np.ndarray = field(repr=False)
    log_marginal: float = 0.0
    iterations: int = 0
    halvings: int = 0  # line-search step halvings over all iterations
    grad_max: float = float("nan")  # max |gradient| of the log posterior at f_hat


def _newton_objective(obs, y, f, mu, alpha):
    # log posterior up to the constant -0.5 log|2 pi K|; trial steps can
    # overflow exp(f), which yields -inf and is rejected by the line search
    with np.errstate(over="ignore"):
        return float(np.sum(obs.loglik(y, f)) - 0.5 * (f - mu) @ alpha)


def _factor_B(K, sW):
    """Lower Cholesky factor of B = I + W^1/2 K W^1/2.

    B is built in a fresh Fortran-ordered array, which LAPACK's dpotrf
    factors in place (the routine ``cho_factor`` calls, without its argument
    checks; the caller has checked that K is finite). The strict upper
    triangle keeps B's entries, as ``cho_factor`` leaves it.
    """
    n = K.shape[0]
    B = np.multiply(sW[:, None], K, order="F")
    B *= sW[None, :]
    B.flat[:: n + 1] += 1.0
    c, info = dpotrf(B, lower=1, overwrite_a=1, clean=0)
    if info:
        raise NumericalError(
            "Cholesky factorization failed: "
            f"{info}-th leading minor of the array is not positive definite"
        )
    return c


def fit_lgcp(model, design_points, y, _prior=None) -> LatentPosterior:
    """Newton MAP estimation with step-halving, then the Laplace posterior.

    Rasmussen & Williams (2006) Alg. 3.1 in the B = I + W^1/2 K W^1/2
    parameterization. Each iteration factors B with LAPACK's dpotrf and
    solves with dpotrs directly; K is checked to be finite once per fit (a
    non-finite K raises ValueError). The line search keeps the step,
    iterate and objective of the trial it accepts; only when all
    ``LINE_SEARCH_HALVINGS`` tried steps fail is the next, untried, halved
    step taken without a test. Converges when the gradient of the exact log
    posterior has max-norm below 1e-8; non-convergence raises
    NumericalError. The posterior records the iteration count, the total
    number of step halvings and the final gradient max-norm.
    """
    X = np.atleast_2d(np.asarray(design_points, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if y.shape != (n,) or n < 1:
        raise LgcpDesignError("y must have one entry per design point")
    obs = model.obs
    obs.check_counts(y)

    K, mu = _fit_prior(model, X) if _prior is None else _prior
    K = K + model.jitter * np.eye(n)
    if not np.all(np.isfinite(K)):
        # _factor_B does not check its input; this is scipy's error for it
        raise ValueError("array must not contain infs or NaNs")

    # dual iterate: f = mu + K alpha is maintained exactly, so the
    # stationarity check grad_lik - alpha is free of K^-1 solve error
    f = mu.copy()
    alpha = np.zeros(n)
    obj = _newton_objective(obs, y, f, mu, alpha)
    halvings = 0
    converged = False
    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        W = np.maximum(obs.hessian_diag(y, f), 0.0)
        grad_lik = obs.grad(y, f)
        grad = grad_lik - alpha
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(grad))):
            raise NumericalError("Newton MAP produced non-finite iterates")
        grad_max = float(np.max(np.abs(grad)))
        if grad_max < NEWTON_TOL:
            converged = True
            break
        sW = np.sqrt(W)
        chol = _factor_B(K, sW)
        b = W * (f - mu) + grad_lik
        a_new = b - sW * dpotrs(chol, sW * (K @ b), lower=1, overwrite_b=1)[0]
        # step-halving line search on the exact log posterior; the slack
        # keeps roundoff noise in the objective from rejecting full Newton
        # steps near the optimum. Steps 1 to 2^-(H-1) are tested; when all
        # fail, step 2^-H is taken untested.
        slack = 1e-9 * max(1.0, abs(obj))
        step = 1.0
        for k in range(LINE_SEARCH_HALVINGS + 1):
            alpha_try = alpha + step * (a_new - alpha)
            f_try = mu + K @ alpha_try
            obj_try = _newton_objective(obs, y, f_try, mu, alpha_try)
            if obj_try >= obj - slack or k == LINE_SEARCH_HALVINGS:
                break
            step *= 0.5
            halvings += 1
        alpha, f, obj = alpha_try, f_try, obj_try
    if not converged:
        raise NumericalError(f"Newton MAP did not converge in {NEWTON_MAX_ITER} iterations")

    # W is the Hessian at the final f, computed by the converged iteration
    chol_B = (_factor_B(K, np.sqrt(W)), True)
    log_det_B = 2.0 * np.sum(np.log(np.diag(chol_B[0])))
    # obj is the log posterior at (f, alpha), so this is the Laplace
    # approximation of the log marginal likelihood
    log_marginal = float(obj - 0.5 * log_det_B)
    return LatentPosterior(
        model, X, y, f, W, alpha, chol_B, K, log_marginal, it, halvings, grad_max
    )


def laplace_predict(post: LatentPosterior, query, want: str = "marginal", _prior=None):
    """Laplace posterior predictive mean and (co)variance at query points."""
    Xq = np.atleast_2d(np.asarray(query, dtype=float))
    Kqd, prior_mean, prior_second = (
        _query_prior(post.model, Xq, post.design_points, want) if _prior is None else _prior
    )
    cross = Kqd @ post.alpha
    if not np.all(np.isfinite(cross)):
        # alpha is finite, so Kqd is not; dtrtrs does not check its input,
        # and this is scipy's error for it
        raise ValueError("array must not contain infs or NaNs")
    mean = prior_mean + cross
    sW = np.sqrt(post.W)
    # (K + W^-1)^-1 = W^1/2 B^-1 W^1/2 with B = I + W^1/2 K W^1/2. V solves
    # L V = W^1/2 Kdq as (L^T)^T V = W^1/2 Kdq, which reads only L's lower
    # triangle and rounds as scipy's solve_triangular(np.tril(L)) does; a
    # lower no-transpose solve would round differently
    V = dtrtrs(post.chol_B[0].T, sW[:, None] * Kqd.T, lower=0, trans=1, overwrite_b=1)[0]
    if want == "full":
        cov = prior_second - V.T @ V
        return mean, cov
    if want != "marginal":
        raise LgcpDesignError(f"unknown prediction kind {want!r}")
    var = prior_second - np.sum(V * V, axis=0)
    return mean, _clamp_variances(var)


# ----------------------------------------------------------------------
# KL divergence (Lemma 1) and intensity helpers

_GH_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gh_nodes(count: int):
    if count not in _GH_CACHE:
        _GH_CACHE[count] = hermgauss(count)
    return _GH_CACHE[count]


def kl_lemma1(post: LatentPosterior, nodes: int = GH_NODES, _prior=None) -> float:
    """KL divergence from prior to posterior of the latent process.

    Sum over design points of E_post[log p(y_i | f_i)] under the marginal
    Laplace posterior, via Gauss-Hermite quadrature, minus the approximate
    log marginal likelihood. Clamped to zero below -1e-10. ``_prior`` holds
    the prior terms of the marginal prediction at the design points.
    """
    mean, var = laplace_predict(post, post.design_points, want="marginal", _prior=_prior)
    x, w = _gh_nodes(nodes)
    scale = np.sqrt(2.0 * np.maximum(var, 0.0))
    # nodes broadcast: (n, nodes)
    f = mean[:, None] + scale[:, None] * x[None, :]
    ll = post.model.obs.loglik(post.y[:, None], f)
    expected = np.sum(ll * w[None, :], axis=1) / np.sqrt(np.pi)
    kl = float(np.sum(expected) - post.log_marginal)
    # the Laplace KL can dip slightly negative when the data carry almost no
    # information (true KL near zero); clamp that, but flag substantial
    # negativity as a numerical failure
    if kl < -1e-3 * max(1.0, abs(post.log_marginal)):
        raise NumericalError(f"Lemma-1 KL came out negative: {kl}")
    return max(kl, 0.0)


def intensity_moments(latent_mean, latent_var):
    """Log-normal mean and variance of lambda = exp(f).

    mean = exp(mu + v/2); var = (exp(v) - 1) exp(2 mu + v).
    """
    m = np.asarray(latent_mean, dtype=float)
    v = np.asarray(latent_var, dtype=float)
    if np.any(v < 0):
        raise LgcpDesignError("latent variance must be nonnegative")
    mean = np.exp(m + v / 2.0)
    var = np.expm1(v) * np.exp(2.0 * m + v)
    return mean, var


def sample_counts(model, latent_draw, seed):
    """Draw observations at design points given a latent vector.

    Deterministic given seed. Poisson and Negative-Binomial return integer
    counts; the Gaussian kind returns real-valued observations.
    """
    f = np.asarray(latent_draw, dtype=float)
    rng = np.random.default_rng(seed)
    return model.obs.sample(f, rng)


# ----------------------------------------------------------------------
# Woodbury identity, both routes (kept separate for verification)


def woodbury_direct(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(K + W^-1)^-1 by direct factorization of K + diag(1/W)."""
    A = K + np.diag(1.0 / np.asarray(W, dtype=float))
    chol = cho_factor(A, lower=True)
    return cho_solve(chol, np.eye(K.shape[0]))


def woodbury_stable(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(K + W^-1)^-1 = W - W (K^-1 + W)^-1 W, stable for small W entries."""
    W = np.asarray(W, dtype=float)
    n = K.shape[0]
    K_inv = cho_solve(cho_factor(K, lower=True), np.eye(n))
    inner = cho_solve(cho_factor(K_inv + np.diag(W), lower=True), np.eye(n))
    return np.diag(W) - W[:, None] * inner * W[None, :]
