"""Batch command-line interface: design generation, design evaluation, and
the simulation-study sweep.

Subcommands: ``design``, ``evaluate``, ``simstudy``. Exit codes: 0 success,
2 usage error, 3 file/I-O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import NamedTuple

import numpy as np

from . import designs as dsg
from . import evaluation as ev
from .domain import Domain, discretize, is_admissible, load_mask_file, unit_cube
from .exceptions import LgcpDesignError, NumericalError
from .kernels import CovStructure, KernelSpec, MeanFunction
from .lgcp import GaussianObs, Model, NegativeBinomial, Poisson

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


# ----------------------------------------------------------------------
# flat key-value config files


def parse_config(path) -> dict:
    """Parse a flat key-value config.

    Lists come from repeated keys or from several whitespace-separated
    values on one line; both accumulate.
    """
    config: dict[str, list[str]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, *values = line.split()
            config.setdefault(key, []).extend(values)
    return config


def config_hash(config: dict) -> str:
    canon = "\n".join(
        f"{k}={v}" for k in sorted(config) for v in config[k]
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _cast(cast, key, value):
    try:
        return cast(value)
    except ValueError:
        raise LgcpDesignError(
            f"config key {key!r}: cannot read {value!r} as {cast.__name__}"
        ) from None


def _values(config, key, default):
    """The values of ``key``, or None for an absent key with a default; an
    absent key without one, or a key given with no value, is a usage error."""
    if key not in config:
        if default is None:
            raise LgcpDesignError(f"config missing required key {key!r}")
        return None
    if not config[key]:
        raise LgcpDesignError(f"config key {key!r} has no value")
    return config[key]


def _one(config, key, default=None, cast=str):
    values = _values(config, key, default)
    return default if values is None else _cast(cast, key, values[-1])


def _many(config, key, cast=str, default=None):
    values = _values(config, key, default)
    return default if values is None else [_cast(cast, key, v) for v in values]


# ----------------------------------------------------------------------
# shared construction helpers


def _domain_from_args(args) -> Domain:
    if getattr(args, "mask", None):
        if not os.path.exists(args.mask):
            raise FileNotFoundError(f"mask file not found: {args.mask}")
        return load_mask_file(args.mask)
    if getattr(args, "bounds", None):
        b = np.asarray(args.bounds, dtype=float).reshape(3, 2)
        return Domain(b)
    return unit_cube()


def _build_model(cov_mode, l_s, l_t, sigma2_s, sigma2_t, spatial_family,
                 temporal_family, mean, obs) -> Model:
    if cov_mode == "separable":
        spatial = KernelSpec(spatial_family, l_s, 1.0)
    else:
        spatial = KernelSpec(spatial_family, l_s, sigma2_s)
    temporal = KernelSpec(temporal_family, l_t, sigma2_t)
    return Model(mean, CovStructure(cov_mode, spatial, temporal), obs)


def _obs_from_spec(kind, sigma2, r, volume):
    if kind == "poisson":
        return Poisson()
    if kind == "gaussian":
        return GaussianObs(sigma2)
    if kind == "negbin":
        return NegativeBinomial(r, volume)
    raise LgcpDesignError(f"unknown observation kind {kind!r}")


def _model_from_args(args) -> Model:
    return _build_model(
        args.cov_mode, args.l_s, args.l_t, args.sigma2_s, args.sigma2_t,
        args.spatial_family, args.temporal_family,
        MeanFunction.concave_quadratic_time(args.mean_a, args.mean_b, args.mean_c),
        _obs_from_spec(args.obs, args.obs_sigma2, args.obs_r, args.obs_volume),
    )


class _Request(NamedTuple):
    n: int
    domain: Domain
    seed: object
    grid: object
    delta: float
    k: int | None
    incl: object
    offset: int


def _grid(r, message):
    if r.grid is None:
        raise LgcpDesignError(message)
    return r.grid


def _incl(r):
    if r.incl is None:
        raise LgcpDesignError("rejection designs need an inclusion probability")
    return r.incl


def _space_fill_rejection(r):
    incl = _incl(r)
    cells = _grid(r, "space_fill needs a candidate grid").cells
    return dsg.space_fill_rejection(r.n, cells, incl, r.seed, domain=r.domain)


def _rejection(base):
    return lambda r: dsg.rejection_wrap(base, _incl(r), r.n, r.domain, r.seed, offset=r.offset)


# Every generator name and how it builds its design from a _Request: the one
# table generate_design dispatches through and simstudy checks its names
# against. Entries look the generator up on ``dsg`` when they are called.
_GENERATORS = {
    "random": lambda r: dsg.random_design(r.n, r.domain, r.seed),
    "halton": lambda r: dsg.halton(r.n, r.offset, r.domain),
    "sobol": lambda r: dsg.sobol(r.n, r.offset, r.domain),
    "fibonacci": lambda r: dsg.fibonacci_lattice_3d(r.n, r.domain),
    "min_dran": lambda r: dsg.simple_inhibitory(r.n, r.delta, r.domain, r.seed),
    "close_pair": lambda r: dsg.inhibitory_close_pairs(
        r.n, r.n // 2 if r.k is None else r.k, r.delta, r.domain, r.seed),
    "min_dist": lambda r: dsg.min_dist_discrete(
        r.n, r.delta, _grid(r, "min_dist needs a grid"), r.seed),
    "space_fill": lambda r: dsg.coffee_house(
        r.n, _grid(r, "space_fill needs a candidate grid").cells, domain=r.domain),
    "space_fill+rejection": _space_fill_rejection,
    **{f"{base}+rejection": _rejection(base) for base in dsg.BASE_GENERATORS},
}


def _check_generator(name):
    if name in _GENERATORS:
        return
    if name.endswith("+rejection"):
        raise LgcpDesignError(f"unknown rejection base {name.removesuffix('+rejection')!r}")
    raise LgcpDesignError(f"unknown generator {name!r}")


def generate_design(name, n, domain, seed, grid=None, delta=None, k=None,
                    incl=None, offset=0) -> dsg.Design:
    """Dispatch a design generator by name; '<base>+rejection' thins with incl."""
    if n < 1:
        raise LgcpDesignError("n must be >= 1")
    if delta is None:
        delta = dsg.default_delta(n)
    _check_generator(name)
    return _GENERATORS[name](_Request(n, domain, seed, grid, delta, k, incl, offset))


# ----------------------------------------------------------------------
# simstudy


def enumerate_cells(config: dict) -> list[tuple]:
    """All (cov_mode, l_t, sigma2_t, l_s, design, n) cells of a sweep, in order.

    Each configured criterion is evaluated within every cell."""
    cells = []
    for cov_mode in _many(config, "cov_mode", str, ["additive"]):
        for l_t in _many(config, "l_t", float):
            for s2t in _many(config, "sigma2_t", float):
                for l_s in _many(config, "l_s", float):
                    for name in _many(config, "design", str):
                        for n in _many(config, "n", int):
                            cells.append((cov_mode, l_t, s2t, l_s, name, n))
    return cells


def run_simulation_study(config: dict, outdir) -> tuple[str, str]:
    """Run the full parameter sweep and write per-cell plus aggregated CSVs.

    One cell per (cov_mode, l_t, sigma2_t, l_s, design, n); every configured
    criterion is evaluated in each cell. Returns the two CSV paths.
    """
    chash = config_hash(config)

    sigma2_s = _one(config, "sigma2_s", 2.0, float)
    spatial_family = _one(config, "spatial_family", "matern32")
    temporal_family = _one(config, "temporal_family", "sqexp")
    mean = MeanFunction.concave_quadratic_time(
        _one(config, "mean_a", 2.0, float),
        _one(config, "mean_b", 0.5, float),
        _one(config, "mean_c", 30.0, float),
    )
    obs = _obs_from_spec(
        _one(config, "obs", "poisson"),
        _one(config, "obs_sigma2", 0.5, float),
        _one(config, "obs_r", 10.0, float),
        _one(config, "obs_volume", 1.0, float),
    )
    criteria = _many(config, "criterion", str, ["apv_intensity"])
    for criterion in criteria:
        if criterion not in ev.CRITERIA:
            raise LgcpDesignError(f"unknown criterion {criterion!r}")
    for name in _many(config, "design", str):
        _check_generator(name)
    M = _one(config, "M", 50, int)
    root_seed = _one(config, "seed", 0, int)
    res = tuple(_many(config, "grid_resolution", int, [10, 10, 8]))
    incl_variant = _one(config, "incl_variant", "scaled_latent_mean")
    p_max = _one(config, "p_max", 0.5, float)

    if "mask" in config:
        domain = load_mask_file(_one(config, "mask"))
    else:
        domain = unit_cube()
    grid = discretize(domain, res)
    cells = enumerate_cells(config)
    # M, every n and every parameter setting's model are checked before the
    # output exists, so a bad value is a usage error before the first cell runs
    if M < 2:
        raise LgcpDesignError("M must be >= 2")
    if any(cell[5] < 1 for cell in cells):
        raise LgcpDesignError("n must be >= 1")
    models = {
        (cov_mode, l_t, s2t, l_s): _build_model(
            cov_mode, l_s, l_t, sigma2_s, s2t, spatial_family, temporal_family,
            mean, obs,
        )
        for cov_mode, l_t, s2t, l_s in dict.fromkeys(cell[:4] for cell in cells)
    }
    os.makedirs(outdir, exist_ok=True)

    results = []
    for idx, (cov_mode, l_t, s2t, l_s, name, n) in enumerate(cells):
        model = models[cov_mode, l_t, s2t, l_s]
        incl = None
        if name.endswith("+rejection"):
            incl = dsg.InclusionProbability.build(incl_variant, model, grid, p_max=p_max)
        design_seed = int(
            np.random.SeedSequence(root_seed, spawn_key=(idx, 0)).generate_state(1)[0]
        )
        design = generate_design(name, n, domain, design_seed, grid=grid, incl=incl)
        eval_seed = int(
            np.random.SeedSequence(root_seed, spawn_key=(idx, 1)).generate_state(1)[0]
        )
        rows = []
        # one call per criterion, though one call would fit each replicate
        # once: the benchmark derives failed fits from the rows, one per
        # criterion, until ROADMAP item 5 counts them per fit
        for criterion in criteria:
            try:
                est = ev.estimate(model, design, [criterion], grid, M, eval_seed)[0]
                rows.append((criterion, est.value, est.std_error, est.M, ""))
            except NumericalError as exc:
                rows.append((criterion, float("nan"), float("nan"), 0, str(exc)))
        results.append(((cov_mode, l_t, s2t, l_s, name, n), rows))

    cell_path = os.path.join(outdir, "cells.csv")
    agg_path = os.path.join(outdir, "aggregated.csv")
    columns = "cov_mode,l_t,sigma2_t,l_s,design,n,criterion,estimate,std_error,M,error"
    with open(cell_path, "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(columns + "\n")
        for key, rows in results:
            cov_mode, l_t, s2t, l_s, name, n = key
            for criterion, est, se, m, err in rows:
                fh.write(
                    f"{cov_mode},{l_t:.17g},{s2t:.17g},{l_s:.17g},{name},{n},"
                    f"{criterion},{est:.17g},{se:.17g},{m},{err}\n"
                )

    # aggregate over l_s (the figure convention)
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for key, rows in results:
        cov_mode, l_t, s2t, _l_s, name, n = key
        for criterion, est, se, _m, err in rows:
            if not err:
                gkey = (cov_mode, l_t, s2t, name, n, criterion)
                groups.setdefault(gkey, []).append((est, se))
    with open(agg_path, "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("cov_mode,l_t,sigma2_t,design,n,criterion,estimate,std_error,cells\n")
        for gkey, vals in groups.items():
            est = float(np.mean([v[0] for v in vals]))
            se = float(np.mean([v[1] for v in vals]))
            cov_mode, l_t, s2t, name, n, criterion = gkey
            fh.write(
                f"{cov_mode},{l_t:.17g},{s2t:.17g},{name},{n},{criterion},"
                f"{est:.17g},{se:.17g},{len(vals)}\n"
            )
    return cell_path, agg_path


# ----------------------------------------------------------------------
# argument parsing


def _add_domain_args(p):
    p.add_argument("--mask", help="raster mask file (implies its bounds)")
    p.add_argument(
        "--bounds", type=float, nargs=6, metavar=("LO1", "HI1", "LO2", "HI2", "LOT", "HIT"),
        help="axis-aligned box; default unit cube",
    )


def _add_model_args(p):
    p.add_argument("--cov-mode", choices=["separable", "additive"], default="additive")
    p.add_argument("--spatial-family", choices=["matern32", "sqexp"], default="matern32")
    p.add_argument("--temporal-family", choices=["matern32", "sqexp"], default="sqexp")
    p.add_argument("--l-s", type=float, default=0.8)
    p.add_argument("--l-t", type=float, default=1.5)
    p.add_argument("--sigma2-s", type=float, default=2.0)
    p.add_argument("--sigma2-t", type=float, default=2.0)
    p.add_argument("--mean-a", type=float, default=2.0)
    p.add_argument("--mean-b", type=float, default=0.5)
    p.add_argument("--mean-c", type=float, default=30.0)
    p.add_argument("--obs", choices=["poisson", "gaussian", "negbin"], default="poisson")
    p.add_argument("--obs-sigma2", type=float, default=0.5)
    p.add_argument("--obs-r", type=float, default=10.0)
    p.add_argument("--obs-volume", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgcp-design",
        description="Survey design generation and evaluation for LGCP models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="generate a design CSV")
    p_design.add_argument("--generator", required=True)
    p_design.add_argument("--n", type=int, required=True)
    p_design.add_argument("--seed", type=int, default=0)
    p_design.add_argument("--offset", type=int, default=0)
    p_design.add_argument("--delta", type=float)
    p_design.add_argument("--close-pairs", type=int, dest="k")
    p_design.add_argument("--grid-res", type=int, nargs=3, default=[10, 10, 8])
    p_design.add_argument("--incl-variant", choices=[
        "scaled_latent_mean", "expected_intensity", "truncated_expected_intensity",
    ], default="scaled_latent_mean")
    p_design.add_argument("--p-max", type=float, default=0.5)
    p_design.add_argument("--out", required=True)
    p_design.add_argument("--provenance")
    _add_domain_args(p_design)
    _add_model_args(p_design)

    p_eval = sub.add_parser("evaluate", help="evaluate a design CSV")
    p_eval.add_argument("--design", required=True, help="design CSV path")
    p_eval.add_argument(
        "--criterion", action="append", choices=list(ev.CRITERIA), default=None,
    )
    p_eval.add_argument("--M", type=int, default=50)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--grid-res", type=int, nargs=3, default=[10, 10, 8])
    p_eval.add_argument("--out", required=True)
    _add_domain_args(p_eval)
    _add_model_args(p_eval)

    p_sim = sub.add_parser("simstudy", help="run a simulation-study sweep")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_design(args) -> int:
    domain = _domain_from_args(args)
    grid = discretize(domain, tuple(args.grid_res))
    incl = None
    if args.generator.endswith("+rejection"):
        incl = dsg.InclusionProbability.build(
            args.incl_variant, _model_from_args(args), grid, p_max=args.p_max,
        )
    design = generate_design(
        args.generator, args.n, domain, args.seed, grid=grid,
        delta=args.delta, k=args.k, incl=incl, offset=args.offset,
    )
    dsg.save_design(design, args.out, args.provenance)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    domain = _domain_from_args(args)
    grid = discretize(domain, tuple(args.grid_res))
    design = dsg.load_design(args.design)
    if design.n == 0:
        raise LgcpDesignError(f"design CSV {args.design} holds no points")
    outside = np.flatnonzero(~is_admissible(design.points, domain))
    if outside.size:
        k = outside[0]
        raise LgcpDesignError(
            f"design CSV {args.design}: point {k + 1} {tuple(design.points[k].tolist())} "
            "lies outside the evaluation domain"
        )
    model = _model_from_args(args)
    criteria = args.criterion or ["apv_intensity"]
    name = design.provenance.get("generator", "design")
    rows = [
        {"design_name": name, "criterion": est.criterion, "estimate": est.value,
         "std_error": est.std_error, "M": est.M, "reduction_vs_base_pct": ""}
        for est in ev.estimate(model, design, criteria, grid, args.M, args.seed)
    ]
    ev.write_comparison_csv(rows, args.out)
    return EXIT_OK


def _cmd_simstudy(args) -> int:
    if not os.path.exists(args.config):
        raise FileNotFoundError(f"config file not found: {args.config}")
    config = parse_config(args.config)
    run_simulation_study(config, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "design":
            return _cmd_design(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        return _cmd_simstudy(args)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LgcpDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
