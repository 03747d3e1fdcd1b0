"""The benchmark's three workloads.

Each workload has a ``setup(seed, lib, outdir)`` that builds the inputs handed
to the library (the part timed as ``setup_s``) and a ``run(inputs)`` that makes
the library calls timed as ``wall_s``. ``run`` returns an ``Outcome``: the
output table's bytes plus the replicate and estimate counts derived from that
table, so the failure metrics come from what a user would read, not from
inside the library.

Seeds: ``--seed 0`` reproduces the seeds of the demos the workloads come
from (demo 03: designs 11, evaluation 123; demo 04: wave 1 7 and 8, thinning
9, evaluation 10; simstudy: root seed 0). Seed ``s`` adds ``s`` to the
compare_n50 design seed and to the two_stage_n150 evaluation seed; the others
stay fixed, for the reasons given where they are set.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

# The paper's model (and the CLI defaults): additive matern32 x sqexp prior,
# l_s 0.8, l_t 1.5, sigma2_s = sigma2_t = 2, concave temporal trend, Poisson.
GRID_RES = (10, 10, 8)


@dataclass
class Outcome:
    """What one workload run produced, in the terms the metrics use."""

    table: bytes  # the output table as written to disk
    fits_attempted: int
    fits_failed: int
    rows: int
    rows_failed: int
    replicates: int  # replicates x designs x cells, the fits_per_replicate base
    checks: list = field(default_factory=list)  # (name, ok, detail)
    extra: dict = field(default_factory=dict)


def _paper_model(ld):
    cov = ld.CovStructure(
        "additive", ld.KernelSpec("matern32", 0.8, 2.0), ld.KernelSpec("sqexp", 1.5, 2.0)
    )
    mean = ld.MeanFunction.concave_quadratic_time(2.0, 0.5, 30.0)
    return ld.Model(mean, cov, ld.Poisson())


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _finite_nonneg_checks(rows):
    """rows: (label, criterion, estimate, std_error, ok) for each estimate."""
    bad_finite = [r[0] for r in rows if r[4] and not (math.isfinite(r[2]) and math.isfinite(r[3]))]
    bad_sign = [r[0] for r in rows if r[4] and math.isfinite(r[2]) and r[2] < 0.0]
    return [
        ("successful rows finite", not bad_finite, ", ".join(bad_finite)),
        ("apv >= 0 and kl >= 0", not bad_sign, ", ".join(bad_sign)),
    ]


# ----------------------------------------------------------------------
# sweep_n150: cli.run_simulation_study on four paper-scale cells

SWEEP_DESIGNS = ("halton", "halton+rejection", "space_fill", "min_dran")
SWEEP_CRITERIA = ("apv_intensity", "kl")
PAPER_M = 50
# A fifth of the paper's M: one study then takes about 1.6 s on a 2-CPU VM, so
# a 20 s run times a dozen of them and reports their median, where at M = 50
# it timed two and the median of ten runs spread by 25 %.
SWEEP_M = 10
# The root seed sets every design and evaluation draw of the study, and with
# them how many Newton fits fail: at M = 50, 22 to 40 of 400 over seeds 0 to
# 20, each failure costing about 13 converged fits. Over ten seeds that spread wall_s
# by 18 % and replicates_per_s by 23 % (quartiles over median, 2-CPU x86-64
# VM, OpenBLAS 0.3.31), close to the largest bound the benchmark may set,
# 25 %, so the study keeps the simstudy default seed.
SWEEP_ROOT_SEED = 0
_FAILED_RE = re.compile(r"(\d+) of (\d+) replicates failed")


class Sweep:
    name = "sweep_n150"

    @staticmethod
    def setup(seed, lib, outdir):
        config = {
            "cov_mode": ["additive"],
            "l_t": ["1.5"],
            "sigma2_t": ["2"],
            "l_s": ["0.8"],
            "sigma2_s": ["2"],
            "design": list(SWEEP_DESIGNS),
            "n": ["150"],
            "criterion": list(SWEEP_CRITERIA),
            "M": [str(SWEEP_M)],
            "seed": [str(SWEEP_ROOT_SEED)],
            "grid_resolution": [str(r) for r in GRID_RES],
        }
        return {"lib": lib, "config": config, "outdir": outdir, "root_seed": SWEEP_ROOT_SEED}

    @staticmethod
    def run(inputs):
        cli = inputs["lib"].cli
        config = inputs["config"]
        cell_path, agg_path = cli.run_simulation_study(config, inputs["outdir"])
        table = _read(cell_path) + _read(agg_path)
        return Sweep.account(table, len(cli.enumerate_cells(config)))

    @staticmethod
    def account(table, n_cells):
        lines = table.decode().splitlines()
        header = lines[1].split(",")
        rows, fits_failed, rows_failed = [], 0, 0
        for line in lines[2:]:
            if line.startswith("#"):
                break  # start of aggregated.csv
            rec = dict(zip(header, line.split(",", len(header) - 1)))
            est, se, m = float(rec["estimate"]), float(rec["std_error"]), int(rec["M"])
            if rec["error"]:
                hit = _FAILED_RE.search(rec["error"])
                if hit is None:
                    raise RuntimeError(f"unparsed error row: {rec['error']!r}")
                fits_failed += int(hit.group(1))
            else:
                fits_failed += SWEEP_M - m
            ok = not rec["error"] and math.isfinite(est)
            rows_failed += not ok
            rows.append((f"{rec['design']}/{rec['criterion']}", rec["criterion"], est, se, ok))
        n_rows = len(rows)
        expected_rows = n_cells * len(SWEEP_CRITERIA)
        checks = [("one row per cell and criterion", n_rows == expected_rows,
                   f"{n_rows} rows, expected {expected_rows}")]
        checks += _finite_nonneg_checks(rows)
        return Outcome(
            table=table,
            fits_attempted=n_rows * SWEEP_M,
            fits_failed=fits_failed,
            rows=n_rows,
            rows_failed=rows_failed,
            replicates=n_cells * SWEEP_M,
            checks=checks,
        )


# ----------------------------------------------------------------------
# compare_n50: compare_designs on the demo-03 design set

COMPARE_M = 60
COMPARE_N = 50
COMPARE_CRITERIA = ("apv_intensity", "kl")
COMPARE_BASE_OF = {"random+rejection": "random", "halton+rejection": "halton"}
REPLICATE_FAIL_FRACTION = 0.05  # compare_designs' pooled budget, per fit attempted
_POOLED_RE = re.compile(r"(\d+) replicate fits failed across designs")


class Compare:
    name = "compare_n50"

    @staticmethod
    def setup(seed, lib, outdir):
        dom = lib.unit_cube()
        return {
            "lib": lib,
            "model": _paper_model(lib),
            "domain": dom,
            "grid": lib.discretize(dom, GRID_RES),
            "design_seed": 11 + seed,
            # the evaluation draws decide how many Newton fits fail, and one
            # failed fit costs about 13 converged ones: varying them spread
            # wall_s by 24 % over seeds (same VM as above), so they stay at
            # demo 03's
            "eval_seed": 123,
            "out_path": os.path.join(outdir, "comparison.csv"),
        }

    @staticmethod
    def run(inputs):
        ld = inputs["lib"]
        model, dom, grid, s = inputs["model"], inputs["domain"], inputs["grid"], inputs["design_seed"]
        incl = ld.InclusionProbability.build("scaled_latent_mean", model, grid)
        gen = ld.cli.generate_design
        designs = {
            "random": gen("random", COMPARE_N, dom, s),
            "random+rejection": gen("random+rejection", COMPARE_N, dom, s, incl=incl),
            "halton": gen("halton", COMPARE_N, dom, s),
            "halton+rejection": gen("halton+rejection", COMPARE_N, dom, s, incl=incl),
            "coffee-house": gen("space_fill", COMPARE_N, dom, s, grid=grid),
        }
        try:
            rows = ld.compare_designs(
                model, designs, list(COMPARE_CRITERIA), grid, COMPARE_M,
                seed=inputs["eval_seed"], base_of=COMPARE_BASE_OF,
            )
            ld.write_comparison_csv(rows, inputs["out_path"])
        except ld.NumericalError as exc:
            # over the pooled failure budget compare_designs gives no rows;
            # the message is its output, as the command line would print it
            if not _POOLED_RE.fullmatch(str(exc)):
                raise
            with open(inputs["out_path"], "w") as fh:
                fh.write(f"numerical failure: {exc}\n")
        out = Compare.account(_read(inputs["out_path"]), len(designs))
        out.extra["accepted_proposals"] = {
            name: d.provenance["accepted_proposals"][-1] + 1
            for name, d in designs.items() if "accepted_proposals" in d.provenance
        }
        return out

    @staticmethod
    def account(table, n_designs):
        lines = table.decode().splitlines()
        n_rows, attempted = n_designs * len(COMPARE_CRITERIA), n_designs * COMPARE_M
        hit = _POOLED_RE.fullmatch(lines[0].removeprefix("numerical failure: "))
        if hit:
            failed = int(hit.group(1))
            budget = REPLICATE_FAIL_FRACTION * attempted
            return Outcome(
                table=table, fits_attempted=attempted, fits_failed=failed, rows=n_rows,
                rows_failed=n_rows, replicates=attempted,
                checks=[("failures exceed the pooled budget", failed > budget,
                         f"{failed} failed fits, budget {budget:g}")],
            )
        header = lines[0].split(",")
        recs = [dict(zip(header, line.split(","))) for line in lines[1:]]
        rows, failed_by_design = [], {}
        for rec in recs:
            est, se, m = float(rec["estimate"]), float(rec["std_error"]), int(rec["M"])
            # one fit per design and replicate serves every criterion
            failed_by_design[rec["design_name"]] = COMPARE_M - m
            rows.append((f"{rec['design_name']}/{rec['criterion']}", rec["criterion"], est, se,
                         math.isfinite(est)))
        checks = _finite_nonneg_checks(rows)
        est = {(r[0]): r[2] for r in rows}
        for variant, base in COMPARE_BASE_OF.items():
            apv_v, apv_b = est[f"{variant}/apv_intensity"], est[f"{base}/apv_intensity"]
            kl_v, kl_b = est[f"{variant}/kl"], est[f"{base}/kl"]
            checks.append((f"{variant} apv_intensity below {base}", apv_v < apv_b,
                           f"{apv_v:.4g} vs {apv_b:.4g}"))
            checks.append((f"{variant} kl above {base}", kl_v > kl_b, f"{kl_v:.4g} vs {kl_b:.4g}"))
        return Outcome(
            table=table,
            fits_attempted=attempted,
            fits_failed=sum(failed_by_design.values()),
            rows=len(rows),
            rows_failed=sum(not r[4] for r in rows),
            replicates=attempted,
            checks=checks,
        )


# ----------------------------------------------------------------------
# two_stage_n150: the demo-04 flow at the paper's n

WAVE1_N = 25
WAVE2_N = 150
TWO_STAGE_M = 20
WAVE1_SEEDS = (7, 8)


class TwoStage:
    name = "two_stage_n150"

    @staticmethod
    def setup(seed, lib, outdir):
        dom = lib.unit_cube()
        model = _paper_model(lib)
        # the observed first wave is demo 04's for every seed: its data set the
        # acceptance rate of the follow-up, and other draws move the proposal
        # count from 2.3e3 to 3.9e4 or exhaust the 1000 n proposal budget
        wave1 = lib.halton(WAVE1_N, domain=dom)
        f1 = lib.sample_prior(model, wave1.points, 1, seed=WAVE1_SEEDS[0])[0]
        y1 = lib.sample_counts(model, f1, seed=WAVE1_SEEDS[1]).astype(float)
        return {
            "wave1_prior_seed": WAVE1_SEEDS[0],
            "wave1_count_seed": WAVE1_SEEDS[1],
            "lib": lib,
            "model": model,
            "domain": dom,
            "grid": lib.discretize(dom, GRID_RES),
            "wave1_points": wave1.points,
            "wave1_y": y1,
            # the thinning draws set the proposal count, and wall_s follows it:
            # thinning seeds 10 to 19 took 6.1e3 to 7.9e3 proposals, so they
            # stay at demo 04's
            "design_seed": 9,
            "eval_seed": 10 + seed,
            "out_path": os.path.join(outdir, "two_stage.csv"),
        }

    @staticmethod
    def run(inputs):
        ld = inputs["lib"]
        dom, grid = inputs["domain"], inputs["grid"]
        conditioned = ld.condition_on_data(inputs["model"], inputs["wave1_points"], inputs["wave1_y"])
        wave1_var = float(conditioned.var_at(inputs["wave1_points"]).mean())
        wave1_kl = ld.kl_lemma1(conditioned.posterior)
        incl = ld.InclusionProbability.build("truncated_expected_intensity", conditioned, grid,
                                             p_max=0.5)
        gen = ld.cli.generate_design
        options = {
            "halton follow-up": gen("halton", WAVE2_N, dom, None, offset=WAVE1_N),
            "thinned follow-up": gen("halton+rejection", WAVE2_N, dom, inputs["design_seed"],
                                     incl=incl, offset=WAVE1_N),
        }
        rows = []
        for name, design in options.items():
            est = ld.expected_apv(conditioned, design, grid, TWO_STAGE_M, seed=inputs["eval_seed"],
                                  target="latent")
            rows.append({"design_name": name, "criterion": est.criterion, "estimate": est.value,
                         "std_error": est.std_error, "M": est.M, "reduction_vs_base_pct": ""})
        comment = f"wave1_var={wave1_var:.17g} wave1_kl={wave1_kl:.17g}"
        ld.write_comparison_csv(rows, inputs["out_path"], header_comment=comment)
        out = TwoStage.account(_read(inputs["out_path"]))
        out.extra["accepted_proposals"] = {
            "thinned follow-up": options["thinned follow-up"].provenance["accepted_proposals"][-1] + 1
        }
        return out

    @staticmethod
    def account(table):
        lines = table.decode().splitlines()
        wave1 = dict(kv.split("=") for kv in lines[0].lstrip("# ").split())
        header = lines[1].split(",")
        recs = [dict(zip(header, line.split(","))) for line in lines[2:]]
        rows = [(r["design_name"], r["criterion"], float(r["estimate"]), float(r["std_error"]),
                 math.isfinite(float(r["estimate"]))) for r in recs]
        # wave-1 KL is an estimate too: one fit whose failure would have raised
        rows.append(("wave 1/kl", "kl", float(wave1["wave1_kl"]), 0.0,
                     math.isfinite(float(wave1["wave1_kl"]))))
        failed = sum(TWO_STAGE_M - int(r["M"]) for r in recs)
        return Outcome(
            table=table,
            fits_attempted=1 + len(recs) * TWO_STAGE_M,
            fits_failed=failed,
            rows=len(rows),
            rows_failed=sum(not r[4] for r in rows),
            replicates=len(recs) * TWO_STAGE_M,
            checks=_finite_nonneg_checks(rows),
        )


WORKLOADS = {w.name: w for w in (Sweep, Compare, TwoStage)}
