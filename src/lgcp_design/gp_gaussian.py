"""The Gaussian-process prior: its data-independent terms at a point set
(``PriorTerms``, which reads the prior moments from ``model.moments_at``)
and prior sampling (``sample_prior``).

Fitting, prediction and the KL divergence under every observation model,
the Gaussian one included, are ``lgcp.fit_lgcp``, ``lgcp.laplace_predict``
and ``lgcp.kl_lemma1``; all three read the prior from a ``PriorTerms``, and
so does ``lgcp.mean_latent_variance``, from the QR factor of a grid
cross-covariance. The factorizations and their checks are ``_lapack``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._lapack import cholesky, qr_r, require_finite
from .exceptions import LgcpDesignError
# cov_matrix is unused here but stays a module attribute: the perfbench
# tracer test checks that it is wrapped in every module that imports it
from .kernels import JITTER_SCALE, cov_matrix  # noqa: F401

__all__ = [
    "PriorTerms",
    "sample_prior",
]


@dataclass(frozen=True, eq=False)
class PriorTerms:
    """The terms of the GP prior at points X that no data set changes: K
    (without jitter) and mu, and, built on first use, the prior variance at
    X, the draw factor, the jittered K that every fit reads
    (``jittered_K``), the factor of B at the Newton start of the last fit
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
    def factor(self) -> np.ndarray:
        """Transposed lower Cholesky factor of K + jitter I, the jitter scaled
        by K's largest variance: a draw at X is mu + z @ factor. A non-finite
        K raises ValueError and a failed factorization NumericalError."""
        jitter = JITTER_SCALE * max(np.max(np.diag(self.K)), 1.0)
        a = self.K + jitter * np.eye(self.K.shape[0])
        require_finite(a)
        return np.tril(cholesky(a)).T

    @cached_property
    def jittered_K(self) -> np.ndarray:
        """K + jitter I with the model's jitter: the prior covariance of every
        fit on these points and of its posterior, read-only because they all
        share it. A non-finite K raises ValueError here, at the first fit,
        since the factorizations of a fit do not check it."""
        K = self.K + self.model.jitter * np.eye(self.K.shape[0])
        require_finite(K)
        K.flags.writeable = False
        return K

    def start_factor(self, sW, factor_B):
        """``factor_B(jittered_K, sW)``, the lower Cholesky factor of
        B = I + W^1/2 K W^1/2 at a Newton start, kept with the bytes of sW
        and returned again, the same read-only array, while the next start
        brings the same bytes. Every fit starts at f = mu, where a Poisson
        W = exp(mu) or a Gaussian 1/sigma^2 does not depend on the data, so
        all fits on these points share one factor; a Negative-Binomial W
        there does, and each of its fits builds and keeps a new one."""
        key = sW.tobytes()
        kept = self._start
        if kept is None or kept[0] != key:
            kept = (key, factor_B(self.jittered_K, sW))
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


def sample_prior(model, points, count: int, seed, prior=None) -> np.ndarray:
    """Draw ``count`` joint latent prior samples at the given points.

    Returns an array of shape (count, n_points); deterministic given seed.
    ``prior`` is the points' ``PriorTerms``, built here when omitted.
    """
    if count < 1:
        raise LgcpDesignError("count must be >= 1")
    prior = PriorTerms.at(model, points, prior)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, prior.X.shape[0]))
    return prior.mu[None, :] + z @ prior.factor

