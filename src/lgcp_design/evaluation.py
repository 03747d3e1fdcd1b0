"""Monte Carlo evaluation of designs: expected average-predictive-variance
loss and expected KL information gain, with replicate-level uncertainty.

``estimate`` evaluates any set of criteria on one design and
``compare_designs`` on several; both fit each data replicate once and take
every criterion from that fit. ``expected_apv`` and ``expected_kl`` are
``estimate`` of a single criterion.

Replicate seeds are spawned from a root seed by counter, so results are
bitwise reproducible and independent of execution order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import gp_gaussian, lgcp
from .exceptions import LgcpDesignError, NumericalError
from .lgcp import GaussianObs

__all__ = [
    "UtilityEstimate",
    "ConditionedModel",
    "estimate",
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
    n_failed: int = 0  # replicates dropped for a NumericalError; M + n_failed were run
    # each NumericalError message of the dropped replicates -> how many it dropped
    failure_reasons: dict = field(default_factory=dict)


def _summarize(criterion, replicates, provenance, failure_reasons=None) -> UtilityEstimate:
    reps = np.asarray(replicates, dtype=float)
    M = reps.size
    se = float(np.std(reps, ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    reasons = dict(failure_reasons or {})
    return UtilityEstimate(
        criterion, float(np.mean(reps)), se, M, reps, dict(provenance),
        sum(reasons.values()), reasons,
    )


def _apv(criterion, mean, var) -> float:
    """An APV criterion from the latent moments at the grid cells."""
    if criterion == "apv_latent":
        return float(np.mean(var))
    _, ivar = lgcp.intensity_moments(mean, var)
    return float(np.mean(ivar))


def _points(design):
    return design.points if hasattr(design, "points") else np.asarray(design)


def _criteria_values(model, y, criteria, grid, prior) -> list[float]:
    """Every criterion of one data replicate on the points of ``prior``, a
    ``PriorTerms``, from one fit. Only the intensity APV predicts every grid
    cell; the latent APV needs their mean alone."""
    post = lgcp.fit_lgcp(model, prior.X, y, prior=prior)
    if "apv_intensity" in criteria:
        mean, var = lgcp.laplace_predict(post, grid.cells)
    values = []
    for c in criteria:
        if c == "apv_latent":
            values.append(lgcp.mean_latent_variance(post, grid.cells))
        elif c == "apv_intensity":
            values.append(_apv(c, mean, var))
        else:
            values.append(lgcp.kl_lemma1(post))
    return values


def _replicates(model, point_sets, criteria, grid, M, seed, count_key):
    """Monte Carlo replicates of several criteria on several point sets.

    Replicate j draws one latent field on the union of the sets from
    SeedSequence(seed, spawn_key=(j, 0)), counts for set d from
    spawn_key=count_key(j, d), and fits each set once. Returns an array of
    shape (sets, criteria, M), NaN where a (set, replicate) cell failed, and
    for each set a Counter of the NumericalError messages of its failed
    cells; a cell fills all its criteria or none.

    The prior terms do not depend on the replicate, so one ``PriorTerms``
    per set, and one for the union of several sets, is built before the
    replicate loop; the draws and values are those of building them in
    every replicate. A NumericalError while building the union's terms
    fails every replicate, and one while building a set's fails its own.
    """
    bounds = np.cumsum([0] + [pts.shape[0] for pts in point_sets])
    union = point_sets[0] if len(point_sets) == 1 else np.vstack(point_sets)
    out = np.full((len(point_sets), len(criteria), M), np.nan)
    try:
        draws = gp_gaussian.PriorTerms.at(model, union)
        draws.factor  # built here, so that its failure fails every replicate
    except NumericalError as exc:
        return out, [Counter({str(exc): M}) for _ in point_sets]
    priors = []
    for pts in point_sets:
        try:
            priors.append(draws if pts is union else gp_gaussian.PriorTerms.at(model, pts))
        except NumericalError as exc:
            priors.append(exc)
    reasons = [Counter() for _ in point_sets]
    for j in range(M):
        draw_seed = np.random.SeedSequence(seed, spawn_key=(j, 0))
        f_union = gp_gaussian.sample_prior(model, union, 1, draw_seed, prior=draws)[0]
        for d, prior in enumerate(priors):
            f = f_union[bounds[d]:bounds[d + 1]]
            counts_seed = np.random.SeedSequence(seed, spawn_key=count_key(j, d))
            y = np.asarray(lgcp.sample_counts(model, f, counts_seed), dtype=float)
            if isinstance(prior, NumericalError):
                reasons[d][str(prior)] += 1
                continue
            try:
                out[d, :, j] = _criteria_values(model, y, criteria, grid, prior)
            except NumericalError as exc:
                reasons[d][str(exc)] += 1
    return out, reasons


def estimate(model, design, criteria, grid, M: int, seed=0) -> list[UtilityEstimate]:
    """One ``UtilityEstimate`` per criterion, in order, over the same M
    prior-predictive data replicates. Each replicate is fitted once for every
    criterion, so one that fails in any criterion is dropped from all.

    An empty design takes the prior values, with no draw or fit. A Gaussian
    model's latent posterior variance does not depend on the data, so its
    latent APV comes from one fit, with standard error zero. ``grid`` may be
    None for "kl" alone. An unknown criterion or M < 2 raises LgcpDesignError
    before any draw or fit. When more than 5% of the replicates fail,
    NumericalError is raised; its ``failure_reasons`` maps each message of
    the failed replicates to its count.
    """
    if M < 2:
        raise LgcpDesignError("M must be >= 2")
    for c in criteria:
        if c not in CRITERIA:
            raise LgcpDesignError(f"unknown criterion {c!r}")
    provenance = getattr(design, "provenance", {})
    points = _points(design)
    fixed = {}
    if points.shape[0] == 0:
        # no data: the posterior is the prior
        fixed = {c: 0.0 if c == "kl" else _apv(c, *model.moments_at(grid.cells)) for c in criteria}
    elif isinstance(model.obs, GaussianObs) and "apv_latent" in criteria:
        post = lgcp.fit_lgcp(model, points, model.mean_at(points))
        fixed["apv_latent"] = lgcp.mean_latent_variance(post, grid.cells)
    loop = [c for c in criteria if c not in fixed]
    if loop:
        reps, reasons = _replicates(model, [points], loop, grid, M, seed, lambda j, d: (j, 1))
    return [
        _summarize(c, np.full(M, fixed[c]), provenance) if c in fixed
        else _finalize(c, reps[0, loop.index(c)], reasons[0], M, provenance)
        for c in criteria
    ]


def expected_apv(model, design, grid, M: int, seed=0, target: str = "latent") -> UtilityEstimate:
    """Expected APV loss of a design: ``estimate`` of "apv_<target>".
    ``target`` is "latent" (posterior variance of f averaged over the grid)
    or "intensity" (log-normal variance of exp(f)); an unknown one raises
    LgcpDesignError before any draw or fit."""
    criterion = f"apv_{target}"
    if criterion not in CRITERIA:
        raise LgcpDesignError(f"unknown APV target {target!r}")
    return estimate(model, design, [criterion], grid, M, seed)[0]


def expected_kl(model, design, M: int, seed=0) -> UtilityEstimate:
    """Expected prior-to-posterior KL of a design: ``estimate`` of "kl"."""
    return estimate(model, design, ["kl"], None, M, seed)[0]


def _finalize(criterion, reps, reasons, M, provenance) -> UtilityEstimate:
    failures = reasons.total()
    if failures > REPLICATE_FAIL_FRACTION * M:
        exc = NumericalError(f"{failures} of {M} replicates failed to converge")
        # each NumericalError message of the failed replicates -> its count
        exc.failure_reasons = dict(reasons)
        raise exc
    if failures:
        reps = reps[np.isfinite(reps)]
    return _summarize(criterion, reps, provenance, reasons)


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

    def moments_at(self, points):
        """Latent mean and marginal variance at points, from one prediction:
        the prior moments of this model, as ``Model.moments_at`` gives them
        for a prior one."""
        return lgcp.laplace_predict(self.posterior, points)

    def mean_at(self, points):
        return self.moments_at(points)[0]

    def cov_at(self, a, b=None):
        """Posterior covariance K0(a, b) - (M K0(D, a))^T (M K0(D, b)): K0 is
        the base prior's covariance, D the conditioning points and M the
        posterior's whitener (Rasmussen & Williams 2006, Alg. 3.2). With b
        None, or a itself, V = M K0(D, a) is formed once and the covariance
        at a is K0(a, a) - V^T V. K0(., D) comes from the base posterior's
        ``PriorTerms.query``, so a query set it holds is not built again."""
        post = self.posterior
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = a if b is None else np.atleast_2d(np.asarray(b, dtype=float))
        cross = [post.prior.query(q)[0].T for q in ((a,) if b is a else (a, b))]
        if not all(np.isfinite(c).all() for c in cross):
            # dtrmm does not check its input; this is scipy's error for it
            raise ValueError("array must not contain infs or NaNs")
        V = lgcp._whiten(post, *cross)
        # subtracted in place: the base covariance is a fresh array
        cov = post.model.cov_at(a, b)
        cov -= V[0].T @ V[-1]
        return cov

    def var_at(self, points):
        return self.moments_at(points)[1]

    @property
    def jitter(self):
        return self.base_model.jitter


def condition_on_data(model, existing_points, existing_y):
    """Replace the model's prior with its posterior given existing data."""
    points = np.atleast_2d(np.asarray(existing_points, dtype=float))
    if points.size == 0:
        return model
    post = lgcp.fit_lgcp(model, points, np.asarray(existing_y, dtype=float))
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
    reduction relative to the base is reported, computed over the replicates
    where both the design and its base succeeded. A name in ``base_of`` that is
    not in ``designs`` raises LgcpDesignError before any replicate runs. A
    failed fit drops that replicate from every criterion of its design. When
    more than 5% of all fits fail, NumericalError is raised; its
    ``failure_reasons`` maps each design name to its failures' messages and
    their counts.

    Returns a list of row dicts with keys design_name, criterion, estimate,
    std_error, M, n_failed (the design's failed replicates), failure_reasons
    (their NumericalError messages -> count), reduction_vs_base_pct,
    replicates.
    """
    for c in criteria:
        if c not in CRITERIA:
            raise LgcpDesignError(f"unknown criterion {c!r}")
    names = list(designs)
    base_of = base_of or {}
    for name, base in base_of.items():
        if name not in designs or base not in designs:
            raise LgcpDesignError(f"base_of names unknown design: {name!r} -> {base!r}")
    reps, reasons = _replicates(
        model, [designs[name].points for name in names], criteria, grid, M, seed,
        lambda j, d: (j, 1, d),
    )
    failures = sum(r.total() for r in reasons)
    if failures > REPLICATE_FAIL_FRACTION * M * len(names):
        exc = NumericalError(f"{failures} replicate fits failed across designs")
        # design name -> each NumericalError message of its failures -> count
        exc.failure_reasons = {name: dict(reasons[d]) for d, name in enumerate(names)}
        raise exc

    rows = []
    for d, name in enumerate(names):
        for k, c in enumerate(criteria):
            # rows keep the aligned (NaN-padded) replicates so paired
            # comparisons across designs stay replicate-matched
            est = _summarize(c, reps[d, k][np.isfinite(reps[d, k])], designs[name].provenance)
            reduction = ""
            if name in base_of:
                base_reps = reps[names.index(base_of[name]), k]
                paired = np.isfinite(reps[d, k]) & np.isfinite(base_reps)
                if paired.any():
                    base_mean = float(np.mean(base_reps[paired]))
                    if base_mean != 0.0:
                        mean = float(np.mean(reps[d, k][paired]))
                        reduction = 100.0 * (base_mean - mean) / base_mean
            rows.append(
                {
                    "design_name": name,
                    "criterion": c,
                    "estimate": est.value,
                    "std_error": est.std_error,
                    "M": est.M,
                    "n_failed": reasons[d].total(),
                    "failure_reasons": dict(reasons[d]),
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
