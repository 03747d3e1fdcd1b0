"""Rank designs by expected loss and information gain.

Run with: python3 demos/03_design_comparison.py  (a few seconds)

Designs are compared under a Poisson LGCP with a strong temporal trend.
For each Monte Carlo replicate a latent field is drawn on the union of all
design points (common random numbers), counts are simulated per design, the
model is refitted, and expected average predictive variance (APV) of the
intensity plus the expected KL information gain are estimated.

The headline effect: thinning a balanced design toward a priori informative
regions lowers expected APV and raises expected KL under count observations.
"""

import lgcp_design as ld


def run():
    dom = ld.unit_cube()
    grid = ld.discretize(dom, (10, 10, 8))
    cov = ld.CovStructure(
        "additive", ld.KernelSpec("matern32", 0.8, 2.0), ld.KernelSpec("sqexp", 1.5, 2.0)
    )
    mean = ld.MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0)
    model = ld.Model(mean, cov, ld.Poisson())
    incl = ld.InclusionProbability.build("scaled_latent_mean", model, grid)

    n, M = 50, 30
    designs = {
        "random": ld.random_design(n, dom, seed=11),
        "random+rejection": ld.rejection_wrap("random", incl, n, dom, seed=11),
        "halton": ld.halton(n, domain=dom),
        "halton+rejection": ld.rejection_wrap("halton", incl, n, dom, seed=11),
        "coffee-house": ld.coffee_house(n, grid.cells, domain=dom),
    }
    rows = ld.compare_designs(
        model, designs, ["apv_intensity", "kl"], grid, M, seed=123,
        base_of={
            "random+rejection": "random",
            "halton+rejection": "halton",
        },
    )

    print(f"{M} replicates, n = {n} sites, 800-cell evaluation grid\n")
    print(f"{'design':<20s} {'criterion':<14s} {'estimate':>10s} {'std err':>9s} {'vs base':>9s}")
    for row in rows:
        red = row["reduction_vs_base_pct"]
        red_str = f"{red:+.1f}%" if red != "" else ""
        print(
            f"{row['design_name']:<20s} {row['criterion']:<14s} "
            f"{row['estimate']:>10.3f} {row['std_error']:>9.3f} {red_str:>9s}"
        )
    print(
        "\nAPV is a loss (lower is better); KL is an information gain "
        "(higher is better).\nPositive 'vs base' percentages mean the "
        "rejection variant reduced that criterion,\nso for KL a negative "
        "percentage is the desirable outcome (more information gained)."
    )


if __name__ == "__main__":
    run()
