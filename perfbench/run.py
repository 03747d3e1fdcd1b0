"""Benchmark of lgcp_design's Monte Carlo design evaluation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_n150 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # all three, one process

Workloads (see workloads.py): sweep_n150, compare_n50, two_stage_n150.

One run imports the package from ``src/`` of the checkout, times a fresh
process's import plus input construction several times (``setup_s``), runs
the workload once as a warmup and then again until ``--seconds`` have passed,
and checks every output. BLAS runs one thread per calling thread (see
BLAS_THREADS below). With ``--trace 0`` it reports the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced runs
and reports the per-layer metrics from the traced ones. The last line of
standard output is one JSON object; the lines before it are a readable
report. A fuller record (environment, seeds, output hash, failure counts, the
per-span table and the spans) is written to ``.bench_out/`` in the checkout.

Exits non-zero, without a result line, if the package cannot be imported from
the checkout or no run of the workload completes; exits non-zero after the
result line if an output check fails.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread per calling thread, set before numpy loads (setup probes
# inherit it), so no run has more busy threads than the sweep's nproc workers.
# Unpinned, OpenBLAS hands each of two_stage_n150's ~14 000 small solves to a
# second thread, and the wake-ups made that workload follow the host's load:
# its median wall_s over ten seeds moved from 4.1 s to 5.2 s between two sets
# of runs, while pinned it took 2.4 s in both (2-CPU x86-64 VM, OpenBLAS 0.3.31).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
BLAS_THREADS_FOUND = {k: os.environ.get(k) for k in BLAS_THREADS}
os.environ.update(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import PAPER_M, SWEEP_M, WORKLOADS  # noqa: E402  (stdlib only: setup probes time numpy's import)

SETUP_PROBES = 5
FULL_SWEEP_CELLS = 4320  # tests/test_cli.py::TestEnumerateCells::test_full_scale_count
MAX_FAILED_RUNS = 3


class CheckFailed(Exception):
    pass


def import_library():
    """Import lgcp_design from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "lgcp_design" / "__init__.py").is_file():
        raise CheckFailed(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import lgcp_design
    import lgcp_design.cli  # noqa: F401  (the package does not import it)

    if Path(lgcp_design.__file__).resolve().parent != src / "lgcp_design":
        raise CheckFailed(f"imported lgcp_design from {lgcp_design.__file__}, not {src}")
    return lgcp_design


def declared_units() -> dict:
    """Metric name -> unit, for each section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def workload_outdir(workload, seed) -> str:
    path = OUT / f"{workload}-seed{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def setup_probe(workload, seed) -> float:
    """Time import plus input construction, as a fresh process sees it."""
    t0 = time.perf_counter()
    lib = import_library()
    WORKLOADS[workload].setup(seed, lib, workload_outdir(workload, seed))
    return time.perf_counter() - t0


def measure_setup(workload, seed) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment(threads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{f"{k} found": v for k, v in BLAS_THREADS_FOUND.items()},
        **{f"{k} used": v for k, v in BLAS_THREADS.items()},
        "nproc": len(os.sched_getaffinity(0)),
        "LGCP_DESIGN_THREADS": threads,
    }


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"p25": values[0], "median": values[0], "p75": values[0], "n": 1}
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q[0], "median": q[1], "p75": q[2], "n": len(values)}


def timed(wl, inputs, tracer=None):
    t0 = time.perf_counter()
    if tracer is None:
        outcome = wl.run(inputs)
    else:
        with tracer:
            outcome = wl.run(inputs)
    return time.perf_counter() - t0, outcome


def run_workload(name, args, lib, units) -> int:
    import tracing

    wl = WORKLOADS[name]
    setup_times = measure_setup(name, args.seed)
    inputs = wl.setup(args.seed, lib, workload_outdir(name, args.seed))
    threads = len(os.sched_getaffinity(0)) if name == "sweep_n150" else 1
    os.environ["LGCP_DESIGN_THREADS"] = str(threads)

    # warmup: first calls, lazy imports and caches; its output is the reference
    _, ref = timed(wl, inputs)
    attempted, failed = 1, 0
    walls, traced_walls, layer_runs, spans, mismatches = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not walls or (args.trace and not traced_walls):
        tracer = tracing.Tracer(lib) if args.trace and len(traced_walls) < len(walls) else None
        attempted += 1
        try:
            wall, outcome = timed(wl, inputs, tracer)
        except Exception:
            failed += 1
            traceback.print_exc()
            if failed >= MAX_FAILED_RUNS:
                break
            continue
        if outcome.table != ref.table:
            mismatches.append(f"{'traced' if tracer else 'untraced'} run {attempted}")
        if tracer is None:
            walls.append(wall)
            continue
        traced_walls.append(wall)
        spans = tracer.spans
        layer_runs.append(tracing.layer_metrics(spans, wall, threads, outcome.replicates))
        if layer_runs[-1]["lgcp.fit_lgcp.failed"] != outcome.fits_failed:
            mismatches.append(f"traced fit_lgcp failures {layer_runs[-1]['lgcp.fit_lgcp.failed']}"
                              f" != {outcome.fits_failed} derived from the output")
    if not walls or (args.trace and not traced_walls):
        print(f"error: {name}: no run completed", file=sys.stderr)
        return 1

    wall = quartiles(walls)
    fits_ok = ref.fits_attempted - ref.fits_failed
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall["median"],
        "replicates_per_s": fits_ok / wall["median"],
        "fit_ok_frac": fits_ok / ref.fits_attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    checks = [{"name": n, "ok": ok, "detail": d} for n, ok, d in ref.checks]
    checks.append({"name": "traced and untraced output bytes identical" if args.trace
                   else "repeated runs give identical output bytes",
                   "ok": not mismatches, "detail": "; ".join(mismatches)})
    correct = all(c["ok"] for c in checks)
    record = {
        "workload": name,
        "seed": args.seed,
        "library_seeds": {k: v for k, v in inputs.items() if k.endswith("seed")},
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(threads),
        "end_to_end": e2e,
        "wall_s": wall,
        "setup_s_samples": setup_times,
        "failed_fits": [ref.fits_failed, ref.fits_attempted],
        "failed_fit_frac": ref.fits_failed / ref.fits_attempted,
        "failed_estimates": [ref.rows_failed, ref.rows],
        "failed_estimate_frac": ref.rows_failed / ref.rows,
        "output_sha256": hashlib.sha256(ref.table).hexdigest(),
        "checks": checks,
        **ref.extra,
    }
    if name == "sweep_n150":
        cells = len(lib.cli.enumerate_cells(inputs["config"]))
        record["sweep_full_est_h"] = {
            "value": FULL_SWEEP_CELLS * wall["median"] / cells * PAPER_M / SWEEP_M / 3600.0,
            "label": f"upper estimate: {FULL_SWEEP_CELLS} cells at M={PAPER_M}, from the per-cell"
                     f" time of {cells} n=150 cells at M={SWEEP_M} on {threads} threads scaled by"
                     f" {PAPER_M}/{SWEEP_M}; the n=50 and n=100 cells are cheaper",
        }
    report = e2e
    if args.trace:
        report = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        report["trace.overhead_s"] = statistics.median(traced_walls) - wall["median"]
        record["per_layer"] = report
        record["span_table"] = tracing.by_name(spans)
        with gzip.open(OUT / f"spans-{name}-seed{args.seed}.jsonl.gz", "wt", compresslevel=1) as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    section = units["per_layer" if args.trace else "end_to_end"]
    if set(report) != set(section):
        raise CheckFailed(f"metrics {sorted(set(report) ^ set(section))} not matched in BENCHMARK.json")
    with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{name} seed {args.seed}: {wall['n']} timed runs after 1 warmup"
          f" ({attempted} attempted, {failed} failed)")
    print("  environment " + ", ".join(f"{k}={v}" for k, v in record["environment"].items()))
    print(f"  library seeds {record['library_seeds']}")
    for k, v in report.items():
        print(f"  {k:<40s} {v:.6g} {section[k]}")
    print(f"  wall_s p25/median/p75 {wall['p25']:.4f} / {wall['median']:.4f} / {wall['p75']:.4f} s"
          f" (n = {wall['n']})")
    print(f"  failed fits {ref.fits_failed} of {ref.fits_attempted}"
          f" (failed_fit_frac {record['failed_fit_frac']:.4g}); failed estimates"
          f" {ref.rows_failed} of {ref.rows} (failed_estimate_frac {record['failed_estimate_frac']:.4g})")
    if "sweep_full_est_h" in record:
        est = record["sweep_full_est_h"]
        print(f"  sweep_full_est_h {est['value']:.4g} h ({est['label']})")
    print(f"  output sha256 {record['output_sha256']}")
    for c in checks:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']} {c['detail']}")
    metrics = {k: {"value": v, "unit": section[k]} for k, v in report.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct:
        print(f"error: {name}: output checks failed", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    units = declared_units()
    lib = import_library()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # with "all", peak_rss_mb is the process's peak up to each workload
    return max(run_workload(name, args, lib, units) for name in names)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
