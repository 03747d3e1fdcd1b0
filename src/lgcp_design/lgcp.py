"""Log-Gaussian Cox process inference via Newton MAP and Laplace approximation.

Supports Poisson, Negative-Binomial, and Gaussian observation models behind a
single interface: ``fit_lgcp``, ``laplace_predict`` and ``kl_lemma1`` serve
all three, and for Gaussian observations the Laplace posterior is the exact
GP posterior. Each reads the prior from a ``PriorTerms``, defined here and
the one owner of K + jitter I: prior draws (``gp_gaussian.sample_prior``)
factor the same K + model.jitter I that fits read. The Laplace posterior
uses the numerically stable B = I + W^{1/2} K W^{1/2} parameterization, the
Woodbury form of (K + W^-1)^-1, valid as W -> 0; B is factored and inputs
are checked through ``_lapack``.
Negative variances that ``laplace_predict`` predicts through cancellation
are clamped to zero, and a clamp rate above 0.1% of queries raises
NumericalError instead of being hidden; ``mean_latent_variance`` checks its
mean instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.polynomial.hermite import hermgauss

from ._lapack import cholesky, dpotrs, dtrmm, qr_r, require_finite, tril_inverse
from .exceptions import LgcpDesignError, NumericalError
from .kernels import JITTER_SCALE, CovStructure, MeanFunction, cov_matrix, mean_eval

__all__ = [
    "Poisson",
    "NegativeBinomial",
    "GaussianObs",
    "Model",
    "PriorTerms",
    "LatentPosterior",
    "fit_lgcp",
    "laplace_predict",
    "mean_latent_variance",
    "kl_lemma1",
    "intensity_moments",
    "sample_counts",
]

NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 100
LINE_SEARCH_HALVINGS = 30
GH_NODES = 31
# a mean posterior variance below zero by more than this share of the mean
# prior variance is reported, not clamped
VARIANCE_ROUNDOFF = 1e-10
CLAMP_FAIL_FRACTION = 1e-3


# ----------------------------------------------------------------------
# observation models


def _lgamma(x: float) -> float:
    try:
        return math.lgamma(x)
    except (OverflowError, ValueError):
        # above about 2.6e305 the result overflows; 0, -1, ... are poles
        return math.inf


def _log_gamma(x):
    """log|Gamma(x)| elementwise, as float64 of x's shape (an np.float64 for
    a scalar): inf where it overflows and at the poles, nan for nan. Built on
    math.lgamma, so it loads no scipy.special and its bits are CPython's on
    every platform."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(_lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)[()]


# log k! = _log_gamma(k + 1.0) for k below the table's length: empty at
# import, grown by _log_factorial when a count first needs it
_log_factorials = np.empty(0)
LOG_FACTORIAL_TABLE_MAX = 1 << 17


def _log_factorial(y):
    """log y! elementwise, bit for bit ``_log_gamma(y + 1.0)``. When every
    entry of y is an exact integer in [0, LOG_FACTORIAL_TABLE_MAX), it is
    read from a table of those same math.lgamma values, which grows to the
    next power of two above the largest count; any other y (empty, negative,
    not exactly integral, huge or NaN) takes ``_log_gamma``."""
    global _log_factorials
    y = np.asarray(y, dtype=float)
    if y.size and 0.0 <= y.min() and y.max() < LOG_FACTORIAL_TABLE_MAX:
        k = y.astype(np.intp)
        if np.array_equal(k, y):
            table, top = _log_factorials, int(k.max())
            if top >= table.size:
                # a new array, so a thread holding the old one reads it intact
                grown = _log_gamma(np.arange(table.size, 1 << top.bit_length()) + 1.0)
                table = _log_factorials = np.concatenate([table, grown])
            return table[k]
    return _log_gamma(y + 1.0)


class _Likelihood:
    """The log likelihood terms, gradient and W of an observation model,
    each from its ``evaluator(y)``; data must be counts unless the model
    overrides ``check_counts``."""

    def loglik(self, y, f):
        return self.evaluator(y)(f)[0]

    def grad(self, y, f):
        return self.evaluator(y)(f)[1]

    def hessian_diag(self, y, f):
        """Negative second derivative of the log likelihood (entries of W)."""
        return self.evaluator(y)(f)[2]

    def check_counts(self, y):
        _require_counts(y)


@dataclass(frozen=True)
class Poisson(_Likelihood):
    """Count model y_i ~ Poisson(exp(f_i))."""

    def evaluator(self, y):
        """The per-fit map f -> (log likelihood terms, gradient, W) at counts
        y, with log y! formed once and exp(f) shared by the three terms."""
        log_y_fact = _log_factorial(y)

        def evaluate(f):
            rate = np.exp(f)
            return y * f - rate - log_y_fact, y - rate, rate

        return evaluate

    def sample(self, f, rng):
        return rng.poisson(np.exp(f))


@dataclass(frozen=True)
class NegativeBinomial(_Likelihood):
    """Overdispersed counts with mean V_i exp(f_i) and dispersion r.

    Var[Y_i] = E[Y_i] + E[Y_i]^2 / r; the Poisson model is the r -> inf limit.
    ``volumes`` is either a scalar or one positive value per site.
    """

    r: float
    volumes: float | np.ndarray = 1.0

    def __post_init__(self):
        if not 0 < self.r < np.inf:
            raise LgcpDesignError("dispersion r must be positive and finite")
        volumes = np.asarray(self.volumes)
        if not np.all((0 < volumes) & (volumes < np.inf)):
            raise LgcpDesignError("volumes must be positive and finite")

    def evaluator(self, y):
        """The per-fit map f -> (log likelihood terms, gradient, W) at counts
        y, with the terms free of f formed once and the mean m and r + m
        shared by the three terms. Per-site volumes take the shape of y, so
        f may carry more columns than y (kl_lemma1's quadrature nodes)."""
        r = self.r
        y_r = y + r
        const = _log_gamma(y_r) - _log_gamma(r) - _log_factorial(y) + r * np.log(r)
        volumes = np.asarray(self.volumes)
        if volumes.ndim:
            volumes = volumes.reshape(np.shape(y))

        def evaluate(f):
            m = volumes * np.exp(f)
            r_m = r + m
            return (
                const + y * np.log(m) - y_r * np.log(r_m),
                y - m * y_r / r_m,
                y_r * m * r / r_m**2,
            )

        return evaluate

    def sample(self, f, rng):
        m = np.asarray(self.volumes) * np.exp(f)
        return rng.negative_binomial(self.r, self.r / (self.r + m))


@dataclass(frozen=True)
class GaussianObs(_Likelihood):
    """Gaussian observation model y_i ~ N(f_i, sigma^2)."""

    noise_variance: float

    def __post_init__(self):
        if not 0 < self.noise_variance < np.inf:
            raise LgcpDesignError("noise_variance must be positive and finite")

    def evaluator(self, y):
        """The per-fit map f -> (log likelihood terms, gradient, W) at data
        y, with the residual y - f shared by the first two; W = 1/sigma^2."""
        s2 = self.noise_variance
        log_norm = np.log(2.0 * np.pi * s2)
        precision = 1.0 / s2

        def evaluate(f):
            resid = y - f
            return (
                -0.5 * (resid**2 / s2 + log_norm),
                resid / s2,
                np.full_like(np.asarray(f, dtype=float), precision),
            )

        return evaluate

    def sample(self, f, rng):
        return f + np.sqrt(self.noise_variance) * rng.standard_normal(np.shape(f))

    def check_counts(self, y):
        pass


def _require_counts(y):
    y = np.asarray(y)
    # exact equality settles the common case without allclose's cost
    r = np.round(y)
    if np.any(y < 0) or not (np.array_equal(y, r) or np.allclose(y, r)):
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

    def moments_at(self, points):
        """Prior mean and marginal variance at points; the covariance is
        stationary, so the variance is its total variance everywhere."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        return self.mean_at(X), np.full(X.shape[0], self.cov.total_variance)

    def cov_at(self, a, b=None) -> np.ndarray:
        return cov_matrix(a, a if b is None else b, self.cov)

    @property
    def jitter(self) -> float:
        return JITTER_SCALE * self.cov.total_variance


@dataclass(frozen=True, eq=False)
class PriorTerms:
    """The terms of the GP prior at points X that no data set changes: K
    (without jitter) and mu, and, built on first use, the prior variance at
    X, K + jitter I (``jittered_K``) and its Cholesky factor for draws
    (``factor``), the factor of B at the Newton start of the last fit
    (``start_factor``), the terms of a prediction at other points
    (Rasmussen & Williams 2006, Alg. 3.2) and those of a mean posterior
    variance over them. One per point set, passed as ``prior=``, serves
    every fit and draw on it and the predictions of their posteriors.
    """

    model: object
    X: np.ndarray
    K: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    # [Xq, query(Xq), query_qr(Xq) or None until first asked for]
    _last_query: list | None = field(default=None, init=False, repr=False)
    # (bytes of W^1/2, factor of B) at the last fit's Newton start
    _start: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def at(cls, model, points, terms=None):
        """``terms``, checked to be built for this model object at these
        points, or new terms when it is None."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        if terms is None:
            return cls(model, X, model.cov_at(X), model.mean_at(X))
        if terms.model is not model or not np.array_equal(terms.X, X):
            raise LgcpDesignError("prior terms were built for another model or other points")
        return terms

    @cached_property
    def var(self) -> np.ndarray:
        return self.model.moments_at(self.X)[1]

    @cached_property
    def jittered_K(self) -> np.ndarray:
        """K + jitter I with the model's jitter: the prior covariance of every
        draw and fit on these points and of its posterior, read-only because
        they all share it. A non-finite K raises ValueError here, at the
        first draw or fit, since the factorizations do not check it."""
        K = self.K + self.model.jitter * np.eye(self.K.shape[0])
        require_finite(K)
        K.flags.writeable = False
        return K

    @cached_property
    def factor(self) -> np.ndarray:
        """Transposed lower Cholesky factor of ``jittered_K``: a draw at X is
        mu + z @ factor. A failed factorization raises NumericalError."""
        return np.tril(cholesky(self.jittered_K)).T

    def start_factor(self, sW):
        """``_factor_B(jittered_K, sW)``, the lower Cholesky factor of
        B = I + W^1/2 K W^1/2 at a Newton start, kept with the bytes of sW
        and returned again, the same read-only array, while the next start
        brings the same bytes. Every fit starts at f = mu, where a Poisson
        W = exp(mu) or a Gaussian 1/sigma^2 does not depend on the data, so
        all fits on these points share one factor; a Negative-Binomial W
        there does, and each of its fits builds and keeps a new one."""
        key = sW.tobytes()
        kept = self._start
        if kept is None or kept[0] != key:
            kept = (key, _factor_B(self.jittered_K, sW))
            kept[1].flags.writeable = False
            # a cache, set as one tuple so that threads sharing these terms
            # never pair one start's key with another's factor
            object.__setattr__(self, "_start", kept)
        return kept[1]

    def query(self, Xq):
        """K(Xq, X), the prior mean and the prior marginal variance at Xq: K,
        mu and var at X itself. The terms of the last other query set are
        kept, keyed on that set alone and compared by value.
        """
        if np.array_equal(Xq, self.X):
            return self.K, self.mu, self.var
        last = self._last_query
        if last is None or not np.array_equal(last[0], Xq):
            mean, var = self.model.moments_at(Xq)
            last = [Xq.copy(), (self.model.cov_at(Xq, self.X), mean, var), None]
            # a cache, set after construction as _start is
            object.__setattr__(self, "_last_query", last)
        return last[1]

    def query_qr(self, Xq):
        """R, upper triangular and min(N, n) x n, of a QR of K(Xq, X) for N
        query points, and the mean prior variance over Xq. Q has orthonormal
        columns, so ||A K(X, Xq)||_F = ||A R^T||_F for every A with n columns
        (Golub & Van Loan 2013, sec. 2.3 and 5.2). Kept with the terms of the
        last query set, so one QR serves every posterior on these points;
        at X itself it is built on each call.
        """
        Kqd, _, var = self.query(Xq)
        last = self._last_query
        kept = last is not None and last[1][0] is Kqd
        if kept and last[2] is not None:
            return last[2]
        out = qr_r(Kqd), float(np.mean(var))
        if kept:
            last[2] = out
        return out


# ----------------------------------------------------------------------
# MAP estimation and Laplace posterior


@dataclass(frozen=True)
class LatentPosterior:
    """Laplace posterior at the design points; immutable once fitted."""

    prior: PriorTerms  # the prior terms at the design points
    y: np.ndarray
    f_hat: np.ndarray
    W: np.ndarray
    alpha: np.ndarray = field(repr=False)  # K^-1 (f_hat - mu)
    # lower Cholesky of I + W^1/2 K W^1/2; a Gaussian fit's is the read-only
    # start factor its PriorTerms keeps
    chol_B: np.ndarray = field(repr=False)
    log_marginal: float = 0.0
    iterations: int = 0
    halvings: int = 0  # line-search step halvings over all iterations
    grad_max: float = float("nan")  # max |gradient| of the log posterior at f_hat

    @property
    def model(self):
        return self.prior.model

    @property
    def design_points(self) -> np.ndarray:
        return self.prior.X

    @property
    def K(self) -> np.ndarray:  # K + jitter I, read-only
        return self.prior.jittered_K

    @cached_property
    def _whitener(self):
        """M = L^-1 W^1/2, L the lower Cholesky factor of B, formed on first
        use and kept, so that every prediction from this posterior shares it.

        L^-1 is ``_lapack.tril_inverse``'s, which reads only L's lower
        triangle and does not write L, a factor this posterior may share
        with its ``PriorTerms``. From 64 rows it inverts by halves, about
        twice as fast as one dtrtri call at n = 150. M's strict upper
        triangle is zero outside the diagonal blocks of that inverse, which
        keep B's entries as dpotrf left them; dtrmm does not read it.
        """
        # L's diagonal is at least 1, so no block of it is singular
        M = tril_inverse(self.chol_B)
        M *= np.sqrt(self.W)[None, :]
        return M


def _log_posterior(evaluate, f, mu, alpha):
    """The log posterior at (f, alpha) up to the constant -0.5 log|2 pi K|,
    with the likelihood's gradient and W at f, from one call of the
    observation model's ``evaluate``, and the f - mu it formed. Trial steps
    can overflow exp(f), which yields -inf and is rejected by the line
    search; the caller ignores the overflow warning."""
    terms, grad_lik, W = evaluate(f)
    f_mu = f - mu
    return float(terms.sum() - 0.5 * f_mu @ alpha), grad_lik, W, f_mu


def _factor_B(K, sW, work=None):
    """Lower Cholesky factor of B = I + W^1/2 K W^1/2.

    B is written into ``work`` (a C-contiguous n x n array; a new one when
    omitted) as T = (K diag(sW)) scaled by sW along rows, in C order. T's
    entries are sW_i K_ij sW_j with the products rounded in the order
    (K_ij sW_j) sW_i, so T^T, a Fortran-ordered view, holds
    (K_ji sW_i) sW_j: B in Fortran order, bit for bit, because K is exactly
    symmetric. ``_lapack.cholesky`` factors that view in place; the caller
    has checked that K is finite. The strict upper triangle keeps B's
    entries, as ``cho_factor`` leaves it.
    """
    n = K.shape[0]
    T = np.multiply(K, sW[None, :], out=np.empty((n, n)) if work is None else work)
    T *= sW[:, None]
    T.reshape(-1)[:: n + 1] += 1.0  # the diagonal, through a view of C-contiguous T
    return cholesky(T.T, overwrite=True)


def fit_lgcp(model, design_points, y, prior=None) -> LatentPosterior:
    """Newton MAP estimation with step-halving, then the Laplace posterior.

    Rasmussen & Williams (2006) Alg. 3.1 in the B = I + W^1/2 K W^1/2
    parameterization. Each iteration factors B with ``_lapack.cholesky`` and
    solves with dpotrs directly. K + jitter I is the ``PriorTerms``'
    ``jittered_K``, shared read-only by every fit and posterior on its
    points and factored for their draws. Every fit starts at f = mu, and
    the factor of B there is ``PriorTerms.start_factor``, reused while the
    start W^1/2 has the same bytes: a Poisson or Gaussian start W does not
    depend on the data, so only the first fit on a point set builds it, and
    a Negative-Binomial fit builds its own. The observation model's
    ``evaluator`` gives one map f -> (log likelihood terms, gradient, W)
    per fit, with its terms free of f formed once; each trial point of the
    line search is evaluated by one call of it, and the accepted trial's
    gradient, W and f - mu serve the next iteration. Every later iteration
    writes B into one n x n workspace of the fit, built in C order as the
    transpose of B, which equals B because K is symmetric (see
    ``_factor_B``); the posterior's factor gets an array of its own. The
    line search keeps the step, iterate, objective, gradient and W of the
    trial it accepts; only when all ``LINE_SEARCH_HALVINGS`` tried steps
    fail is the next halved step taken without a test. Converges when the
    gradient of the exact log posterior has max-norm below 1e-8;
    non-convergence raises NumericalError. A Gaussian likelihood instead
    stops after the first full Newton step the line search accepts: W =
    1/sigma^2 does not depend on f, so the log posterior is quadratic and
    that step lands on its exact mode (Alg. 3.1 and sec. 3.4), while the
    roundoff of further iterates exceeds the tolerance once sigma^2 is
    small; that iteration's factor of B, the shared start factor, is the
    posterior's. The posterior records the iteration count, the total
    number of step halvings and the gradient max-norm at the returned
    iterate. ``prior`` is the design points' ``PriorTerms``, built here when
    omitted; the posterior carries it.
    """
    X = np.atleast_2d(np.asarray(design_points, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if y.shape != (n,) or n < 1:
        raise LgcpDesignError("y must have one entry per design point")
    obs = model.obs
    obs.check_counts(y)
    quadratic = isinstance(obs, GaussianObs)

    prior = PriorTerms.at(model, X, prior)
    mu = prior.mu
    K = prior.jittered_K

    # dual iterate: f = mu + K alpha is maintained exactly, so the
    # stationarity check grad_lik - alpha is free of K^-1 solve error
    evaluate = obs.evaluator(y)
    work = np.empty((n, n))
    f = mu.copy()
    alpha = np.zeros(n)
    chol_B = None
    halvings = 0
    converged = False
    it = 0
    with np.errstate(over="ignore"):
        obj, grad_lik, W, f_mu = _log_posterior(evaluate, f, mu, alpha)
        for it in range(1, NEWTON_MAX_ITER + 1):
            # W, the likelihood's negative Hessian at f, is nonnegative in
            # every observation model, so it needs no clamp
            grad_max = float(np.abs(grad_lik - alpha).max())
            if not (math.isfinite(grad_max) and np.isfinite(W).all()):
                raise NumericalError("Newton MAP produced non-finite iterates")
            if grad_max < NEWTON_TOL:
                converged = True
                break
            sW = np.sqrt(W)
            chol = prior.start_factor(sW) if it == 1 else _factor_B(K, sW, work)
            b = W * f_mu + grad_lik
            a_new = b - sW * dpotrs(chol, sW * (K @ b), lower=1, overwrite_b=1)[0]
            # step-halving line search on the exact log posterior; the slack
            # keeps roundoff noise in the objective from rejecting full Newton
            # steps near the optimum. Steps 1 to 2^-(H-1) are tested; when all
            # fail, step 2^-H is taken untested.
            slack = 1e-9 * max(1.0, abs(obj))
            direction = a_new - alpha
            step = 1.0
            for k in range(LINE_SEARCH_HALVINGS + 1):
                alpha_try = alpha + step * direction
                f_try = mu + K @ alpha_try
                obj_try, grad_try, W_try, f_mu_try = _log_posterior(evaluate, f_try, mu, alpha_try)
                if obj_try >= obj - slack or k == LINE_SEARCH_HALVINGS:
                    break
                step *= 0.5
                halvings += 1
            alpha, f, obj, grad_lik, W, f_mu = alpha_try, f_try, obj_try, grad_try, W_try, f_mu_try
            if quadratic and k == 0:
                # the full step lands on the mode of a quadratic log
                # posterior, and the factor of B just used is the one at its
                # W (a Gaussian W is the same at every f)
                grad_max = float(np.abs(grad_lik - alpha).max())
                chol_B = chol
                converged = True
                break
    if not converged:
        raise NumericalError(f"Newton MAP did not converge in {NEWTON_MAX_ITER} iterations")

    if chol_B is None:
        # W is the Hessian at the final f, from the evaluation that accepted it
        chol_B = _factor_B(K, np.sqrt(W))
    log_det_B = 2.0 * np.sum(np.log(np.diag(chol_B)))
    # obj is the log posterior at (f, alpha), so this is the Laplace
    # approximation of the log marginal likelihood
    log_marginal = float(obj - 0.5 * log_det_B)
    return LatentPosterior(prior, y, f, W, alpha, chol_B, log_marginal, it, halvings, grad_max)


def _whiten(post, *cross):
    """L^-1 W^1/2 X for each n-row cross-covariance X, L the lower Cholesky
    factor of B = I + W^1/2 K W^1/2, so that (K + W^-1)^-1 = W^1/2 B^-1 W^1/2
    gives X^T (K + W^-1)^-1 Y as the product of two of them.

    M = L^-1 W^1/2 is formed once per posterior with ``_lapack.tril_inverse``
    (n^3/3 flops, by halves from 64 rows, so that most of them run in dtrmm)
    and applied to each X with dtrmm, which runs at matrix-multiply speed
    where a triangular solve does not and reads only M's lower triangle.
    The explicit inverse is safe: B >= I, so every singular value of L is
    at least 1 and ||L^-1||_2 <= 1 (Higham 2002, ch. 8 and 14). Inputs are
    not checked for infs or NaNs.
    """
    return [dtrmm(1.0, post._whitener, X, lower=1) for X in cross]


def laplace_predict(post: LatentPosterior, query):
    """Laplace posterior predictive mean and marginal variance at query
    points, from the prior terms the posterior's ``PriorTerms`` gives for
    them. The covariance between query points is
    ``evaluation.ConditionedModel(model, post).cov_at``."""
    Xq = np.atleast_2d(np.asarray(query, dtype=float))
    Kqd, prior_mean, prior_var = post.prior.query(Xq)
    cross = Kqd @ post.alpha
    require_finite(cross)  # alpha is finite, so this checks Kqd for dtrmm
    (V,) = _whiten(post, Kqd.T)
    var = prior_var - np.einsum("ij,ij->j", V, V)
    return prior_mean + cross, _clamp_variances(var)


def _clamp_variances(var: np.ndarray) -> np.ndarray:
    """Predicted variances with the negatives that cancellation leaves set to
    zero; more than ``CLAMP_FAIL_FRACTION`` of them raises NumericalError."""
    neg = var < 0
    if neg.any():
        if neg.sum() > max(1, CLAMP_FAIL_FRACTION * var.size):
            raise NumericalError(
                f"{neg.sum()} of {var.size} predicted variances were negative"
            )
        var = np.where(neg, 0.0, var)
    return var


def mean_latent_variance(post: LatentPosterior, query) -> float:
    """Mean Laplace posterior variance of f over N query points: the latent
    APV. It is the mean prior variance minus ||M K(X, query)||_F^2 / N, with
    M the whitener ``laplace_predict`` applies, and the norm is taken as
    ||M R^T||_F^2 with R from the QR of K(query, X) that the posterior's
    ``PriorTerms.query_qr`` builds once per query set (Rasmussen & Williams
    2006, Alg. 3.2). So each posterior costs O(n^3), where the N variances
    of ``laplace_predict`` cost O(N n^2); the two agree to roundoff. A mean
    below zero by more than ``VARIANCE_ROUNDOFF`` of the mean prior variance
    raises NumericalError, and one within it is 0.
    """
    Xq = np.atleast_2d(np.asarray(query, dtype=float))
    R, prior_var = post.prior.query_qr(Xq)
    (V,) = _whiten(post, R.T)
    V = V.ravel(order="K")
    var = prior_var - float(V @ V) / Xq.shape[0]
    if var < 0.0:
        if var < -VARIANCE_ROUNDOFF * prior_var:
            raise NumericalError(f"mean posterior variance came out negative: {var}")
        var = 0.0
    return var


# ----------------------------------------------------------------------
# KL divergence (Lemma 1) and intensity helpers

_gh_nodes = cache(hermgauss)  # Gauss-Hermite nodes and weights by count


def kl_lemma1(post: LatentPosterior, nodes: int = GH_NODES) -> float:
    """KL divergence from prior to posterior of the latent process.

    Sum over design points of E_post[log p(y_i | f_i)] under the marginal
    Laplace posterior, via Gauss-Hermite quadrature, minus the approximate
    log marginal likelihood. Clamped to zero below -1e-10. The marginal
    prediction at the design points reads K, mu and the prior variance from
    ``post.prior``.
    """
    mean, var = laplace_predict(post, post.design_points)
    x, w = _gh_nodes(nodes)
    scale = np.sqrt(2.0 * var)
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

