"""Monte Carlo evaluation of designs: expected average-predictive-variance
loss and expected KL information gain, with replicate-level uncertainty.

Replicate seeds are spawned from a root seed by counter, so results are
bitwise reproducible and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import gp_gaussian, lgcp
from .exceptions import LgcpDesignError, NumericalError
from .gp_gaussian import prior_marginal_var
from .lgcp import GaussianObs

__all__ = [
    "UtilityEstimate",
    "ConditionedModel",
    "expected_apv",
    "expected_kl",
    "condition_on_data",
    "compare_designs",
    "write_comparison_csv",
    "CRITERIA",
]

CRITERIA = ("apv_latent", "apv_intensity", "kl")
REPLICATE_FAIL_FRACTION = 0.05


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte Carlo estimate of one criterion for one design."""

    criterion: str
    value: float
    std_error: float
    M: int
    replicates: np.ndarray = field(repr=False)
    design_provenance: dict = field(default_factory=dict)


def _summarize(criterion, replicates, provenance) -> UtilityEstimate:
    reps = np.asarray(replicates, dtype=float)
    M = reps.size
    se = float(np.std(reps, ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    return UtilityEstimate(criterion, float(np.mean(reps)), se, M, reps, dict(provenance))


def _is_gaussian(model) -> bool:
    return isinstance(model.obs, GaussianObs)


def _fit(model, points, y):
    if _is_gaussian(model):
        return gp_gaussian.fit_gaussian(model, points, y)
    return lgcp.fit_lgcp(model, points, y)


def _predict(post, query, want="marginal"):
    if isinstance(post, gp_gaussian.GaussianPosterior):
        return gp_gaussian.predict(post, query, want=want)
    return lgcp.laplace_predict(post, query, want=want)


def _apv_value(mean, var, target) -> float:
    if target == "latent":
        return float(np.mean(var))
    if target == "intensity":
        _, ivar = lgcp.intensity_moments(mean, np.maximum(var, 0.0))
        return float(np.mean(ivar))
    raise LgcpDesignError(f"unknown APV target {target!r}")


def _prior_apv(model, grid, target) -> float:
    mean = model.mean_at(grid.cells)
    var = prior_marginal_var(model, grid.cells)
    return _apv_value(mean, var, target)


def _points(design):
    return design.points if hasattr(design, "points") else np.asarray(design)


def _criteria_values(model, points, y, criteria, grid) -> list[float]:
    """Every criterion of one data replicate, from at most one fit."""
    gaussian = _is_gaussian(model)
    apv = any(c != "kl" for c in criteria)
    # the Gaussian KL has a closed form that needs no fit
    post = _fit(model, points, y) if apv or not gaussian else None
    if apv:
        mean, var = _predict(post, grid.cells)
    values = []
    for c in criteria:
        if c != "kl":
            values.append(_apv_value(mean, var, c.removeprefix("apv_")))
        elif gaussian:
            values.append(gp_gaussian.kl_gaussian_closed_form(model, points, y))
        else:
            values.append(lgcp.kl_lemma1(post))
    return values


def _replicates(model, point_sets, criteria, grid, M, seed, count_key):
    """Monte Carlo replicates of several criteria on several point sets.

    Replicate j draws one latent field on the union of the sets from
    SeedSequence(seed, spawn_key=(j, 0)), counts for set d from
    spawn_key=count_key(j, d), and fits each set once. Returns an array of
    shape (sets, criteria, M), NaN where a (set, replicate) cell failed, and
    the number of failed cells; a cell fills all its criteria or none.
    """
    bounds = np.cumsum([0] + [pts.shape[0] for pts in point_sets])
    union = np.vstack(point_sets)
    out = np.full((len(point_sets), len(criteria), M), np.nan)
    failures = 0
    for j in range(M):
        try:
            draw_seed = np.random.SeedSequence(seed, spawn_key=(j, 0))
            f_union = gp_gaussian.sample_prior(model, union, 1, draw_seed)[0]
        except NumericalError:
            failures += len(point_sets)
            continue
        for d, pts in enumerate(point_sets):
            f = f_union[bounds[d]:bounds[d + 1]]
            counts_seed = np.random.SeedSequence(seed, spawn_key=count_key(j, d))
            y = np.asarray(lgcp.sample_counts(model, f, counts_seed), dtype=float)
            try:
                out[d, :, j] = _criteria_values(model, pts, y, criteria, grid)
            except NumericalError:
                failures += 1
    return out, failures


def expected_apv(model, design, grid, M: int, seed=0, target: str = "latent") -> UtilityEstimate:
    """Expected APV loss of a design over prior-predictive data replicates.

    ``target`` is "latent" (posterior variance of f averaged over the grid)
    or "intensity" (log-normal variance of exp(f)). With a Gaussian
    observation model the posterior variance does not depend on the data, so
    the estimate is deterministic and the standard error is zero.
    """
    if M < 2:
        raise LgcpDesignError("M must be >= 2")
    criterion = f"apv_{target}"
    provenance = getattr(design, "provenance", {})
    points = _points(design)
    if points.shape[0] == 0:
        value = _prior_apv(model, grid, target)
        return _summarize(criterion, np.full(M, value), provenance)
    # intensity variance depends on the posterior mean, which does vary with
    # the data, so only the latent target has a Gaussian shortcut
    if _is_gaussian(model) and target == "latent":
        post = _fit(model, points, model.mean_at(points))
        mean, var = _predict(post, grid.cells)
        return _summarize(criterion, np.full(M, _apv_value(mean, var, target)), provenance)
    reps, failures = _replicates(
        model, [points], [criterion], grid, M, seed, lambda j, d: (j, 1)
    )
    return _finalize(criterion, reps[0, 0], failures, M, provenance)


def expected_kl(model, design, M: int, seed=0) -> UtilityEstimate:
    """Expected KL divergence from prior to posterior over data replicates."""
    if M < 2:
        raise LgcpDesignError("M must be >= 2")
    provenance = getattr(design, "provenance", {})
    points = _points(design)
    if points.shape[0] == 0:
        return _summarize("kl", np.zeros(M), provenance)
    reps, failures = _replicates(model, [points], ["kl"], None, M, seed, lambda j, d: (j, 1))
    return _finalize("kl", reps[0, 0], failures, M, provenance)


def _finalize(criterion, reps, failures, M, provenance) -> UtilityEstimate:
    if failures > REPLICATE_FAIL_FRACTION * M:
        raise NumericalError(
            f"{failures} of {M} replicates failed to converge"
        )
    if failures:
        reps = reps[np.isfinite(reps)]
    return _summarize(criterion, reps, provenance)


# ----------------------------------------------------------------------
# posterior conditioning (design evaluation against existing data)


class ConditionedModel:
    """A model whose prior is the posterior of a base model given old data.

    Downstream sampling, fitting, and inclusion probabilities treat the
    posterior mean/covariance as the prior; the observation model is
    unchanged. Conditioning on an empty data set returns the base model.
    """

    def __init__(self, base_model, posterior):
        self.base_model = base_model
        self.posterior = posterior
        self.obs = base_model.obs

    def mean_at(self, points):
        mean, _ = _predict(self.posterior, points)
        return mean

    def cov_at(self, a, b=None):
        if b is None:
            _, cov = _predict(self.posterior, a, want="full")
            return cov
        return _cross_cov(self.posterior, a, b)

    def var_at(self, points):
        _, var = _predict(self.posterior, points)
        return var

    @property
    def jitter(self):
        return self.base_model.jitter

    @property
    def noise_variance(self):
        return self.base_model.noise_variance


def _moments_at(model, points):
    """Latent mean and marginal variance at points, from one prediction."""
    if isinstance(model, ConditionedModel):
        return _predict(model.posterior, points)
    return np.asarray(model.mean_at(points), dtype=float), prior_marginal_var(model, points)


def _cross_cov(post, a, b):
    """Posterior cross-covariance between two query sets."""
    model = post.model
    if isinstance(post, gp_gaussian.GaussianPosterior):
        Kad = model.cov_at(a, post.train_points)
        Kdb = model.cov_at(post.train_points, b)
        return model.cov_at(a, b) - Kad @ cho_solve(post.chol, Kdb)
    Kad = model.cov_at(a, post.design_points)
    Kdb = model.cov_at(post.design_points, b)
    sW = np.sqrt(post.W)
    L = np.tril(post.chol_B[0])
    Va = solve_triangular(L, sW[:, None] * Kad.T, lower=True)
    Vb = solve_triangular(L, sW[:, None] * Kdb, lower=True)
    return model.cov_at(a, b) - Va.T @ Vb


def condition_on_data(model, existing_points, existing_y):
    """Replace the model's prior with its posterior given existing data."""
    points = np.atleast_2d(np.asarray(existing_points, dtype=float))
    if points.size == 0:
        return model
    post = _fit(model, points, np.asarray(existing_y, dtype=float))
    return ConditionedModel(model, post)


# ----------------------------------------------------------------------
# multi-design comparison with common random numbers


def compare_designs(
    model,
    designs: dict,
    criteria,
    grid,
    M: int,
    seed=0,
    base_of: dict | None = None,
) -> list[dict]:
    """Evaluate several designs under shared replicate randomness.

    ``designs`` maps name -> Design. Per replicate, one joint latent field is
    drawn on the union of all design points so that paired comparisons share
    their randomness; counts are then drawn per design. ``base_of`` maps a
    design name to the name of its base variant; for those rows the percent
    reduction relative to the base is reported. A name in ``base_of`` that is
    not in ``designs`` raises LgcpDesignError before any replicate runs. A
    failed fit drops that replicate from every criterion of its design.

    Returns a list of row dicts with keys design_name, criterion, estimate,
    std_error, M, reduction_vs_base_pct, replicates.
    """
    for c in criteria:
        if c not in CRITERIA:
            raise LgcpDesignError(f"unknown criterion {c!r}")
    names = list(designs)
    base_of = base_of or {}
    for name, base in base_of.items():
        if name not in designs or base not in designs:
            raise LgcpDesignError(f"base_of names unknown design: {name!r} -> {base!r}")
    reps, failures = _replicates(
        model, [designs[name].points for name in names], criteria, grid, M, seed,
        lambda j, d: (j, 1, d),
    )
    if failures > REPLICATE_FAIL_FRACTION * M * len(names):
        raise NumericalError(f"{failures} replicate fits failed across designs")

    rows = []
    for d, name in enumerate(names):
        for k, c in enumerate(criteria):
            # rows keep the aligned (NaN-padded) replicates so paired
            # comparisons across designs stay replicate-matched
            est = _summarize(c, reps[d, k][np.isfinite(reps[d, k])], designs[name].provenance)
            reduction = ""
            if name in base_of:
                base_mean = float(np.nanmean(reps[names.index(base_of[name]), k]))
                if base_mean != 0.0:
                    reduction = 100.0 * (base_mean - est.value) / base_mean
            rows.append(
                {
                    "design_name": name,
                    "criterion": c,
                    "estimate": est.value,
                    "std_error": est.std_error,
                    "M": est.M,
                    "reduction_vs_base_pct": reduction,
                    "replicates": reps[d, k],
                }
            )
    return rows


def write_comparison_csv(rows, path, header_comment: str | None = None) -> None:
    """Emit a comparison table as CSV."""
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("design_name,criterion,estimate,std_error,M,reduction_vs_base_pct\n")
        for row in rows:
            red = row["reduction_vs_base_pct"]
            red_str = f"{red:.17g}" if red != "" else ""
            fh.write(
                f"{row['design_name']},{row['criterion']},{row['estimate']:.17g},"
                f"{row['std_error']:.17g},{row['M']},{red_str}\n"
            )
