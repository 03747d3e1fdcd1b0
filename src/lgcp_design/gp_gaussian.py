"""Prior sampling: ``sample_prior`` draws the latent field at a point set
from the factor of the K + jitter I that the points' ``lgcp.PriorTerms``
keeps and every fit on them reads. The prior terms, and the fits,
predictions and KL divergences under every observation model, are ``lgcp``'s.
"""

from __future__ import annotations

import numpy as np

from .exceptions import LgcpDesignError
# cov_matrix is unused here but stays a module attribute: the perfbench
# tracer test checks that it is wrapped in every module that imports it
from .kernels import cov_matrix  # noqa: F401
from .lgcp import PriorTerms

__all__ = ["sample_prior"]


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
