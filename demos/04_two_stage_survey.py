"""Design a follow-up survey conditioned on a completed first wave.

Run with: python3 demos/04_two_stage_survey.py

After a first survey wave is observed, the fitted posterior replaces the
prior: follow-up designs are generated and evaluated against what is still
unknown. The follow-up is thinned by the truncated inclusion probability:
the posterior's exp(mu + 2 sigma^2), scaled so its grid maximum is 1 and
then capped at p_max = 0.5. Every site within a factor of two of the peak
is accepted at the same rate, so the second wave spreads over the
high-intensity region instead of piling onto its maximum.
"""

import numpy as np

import lgcp_design as ld


def run():
    dom = ld.unit_cube()
    grid = ld.discretize(dom, (8, 8, 6))
    cov = ld.CovStructure(
        "additive", ld.KernelSpec("matern32", 0.8, 2.0), ld.KernelSpec("sqexp", 1.5, 2.0)
    )
    mean = ld.MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0)
    model = ld.Model(mean, cov, ld.Poisson())

    # wave 1: a small balanced survey, observed
    wave1 = ld.halton(25, domain=dom)
    f1 = ld.sample_prior(model, wave1.points, 1, seed=7)[0]
    y1 = ld.sample_counts(model, f1, seed=8).astype(float)
    print(f"wave 1: {wave1.n} sites, {y1.sum():.0f} events observed")

    conditioned = ld.condition_on_data(model, wave1.points, y1)
    var_at_wave1 = conditioned.var_at(wave1.points)
    print(
        f"posterior variance at wave-1 sites: {var_at_wave1.mean():.2f} "
        f"(prior was {cov.total_variance:.2f})"
    )

    # wave 2 candidates, thinned by the posterior-based truncated inclusion
    incl = ld.InclusionProbability.build(
        "truncated_expected_intensity", conditioned, grid, p_max=0.5
    )
    wave2 = ld.rejection_wrap("halton", incl, 25, dom, seed=9, offset=25)
    d = np.sqrt(
        np.sum((wave2.points[:, None] - wave1.points[None, :]) ** 2, axis=-1)
    ).min(axis=1)
    print(f"wave 2: {wave2.n} new sites, nearest wave-1 site {d.mean():.3f} away on average")

    # evaluate follow-up options against the conditioned model
    options = {
        "halton follow-up": ld.halton(25, offset=25, domain=dom),
        "thinned follow-up": wave2,
    }
    for name, design in options.items():
        est = ld.expected_apv(conditioned, design, grid, 20, seed=10, target="latent")
        print(f"  expected APV after {name:<18s}: {est.value:.3f} (se {est.std_error:.3f})")


if __name__ == "__main__":
    run()
