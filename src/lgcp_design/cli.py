"""Batch command-line interface: design generation, design evaluation, and
the simulation-study sweep.

Subcommands: ``design``, ``evaluate``, ``simstudy``. Exit codes: 0 success,
2 usage error, 3 file/I-O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import designs as dsg
from . import evaluation as ev
from .domain import Domain, discretize, is_admissible, load_mask_file, unit_cube
from .exceptions import Choices, LgcpDesignError, NumericalError
from .kernels import COV_MODES, KERNEL_FAMILIES, CovStructure, KernelSpec, MeanFunction
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
    canon = "\n".join(f"{k}={v}" for k in sorted(config) for v in config[k])
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _cast(cast, key, value):
    try:
        return cast(value)
    except ValueError:
        raise LgcpDesignError(
            f"config key {key!r}: cannot read {value!r} as {cast.__name__}"
        ) from None


# ----------------------------------------------------------------------
# design generators


_Request = namedtuple("_Request", "n domain seed grid delta k incl offset")


def _grid(r, message):
    if r.grid is None:
        raise LgcpDesignError(message)
    return r.grid


def _incl(r):
    if r.incl is None:
        raise LgcpDesignError("rejection designs need an inclusion probability")
    return r.incl


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
    # the inclusion probability is checked before the grid
    "space_fill+rejection": lambda r: dsg.space_fill_rejection(
        r.n, incl=_incl(r), candidates=_grid(r, "space_fill needs a candidate grid").cells,
        seed=r.seed, domain=r.domain),
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
# the options of design, evaluate and simstudy

_REQUIRED = object()  # the default of an option that must be given


class _Option(NamedTuple):
    """One option: the flag ``flag`` or ``--<key>`` (``_`` written ``-``) and
    the config key ``<key>``. An absent one takes ``default`` (None: unset). A
    ``many`` option takes every value of its config key, and from its flag
    ``nargs`` values or one per repeat."""

    cast: type = float
    default: object = None
    choices: Choices | None = None
    check: object = None  # raises LgcpDesignError for a value it does not allow
    lo: int | None = None  # the smallest allowed value
    many: bool = False
    nargs: int | None = None
    flag: str | None = None
    metavar: object = None
    help: str | None = None

    def validate(self, key, value):
        if self.lo is not None and value < self.lo:
            raise LgcpDesignError(f"{key} must be >= {self.lo}")
        if self.choices is not None:
            self.choices.check(value)
        if self.check is not None:
            self.check(value)


# Each observation kind and how it is built from the option values.
_OBSERVATIONS = {
    "poisson": lambda v: Poisson(),
    "gaussian": lambda v: GaussianObs(v["obs_sigma2"]),
    "negbin": lambda v: NegativeBinomial(v["obs_r"], v["obs_volume"]),
}

_MODEL = {
    "cov_mode": _Option(str, "additive", COV_MODES),
    "spatial_family": _Option(str, "matern32", KERNEL_FAMILIES),
    "temporal_family": _Option(str, "sqexp", KERNEL_FAMILIES),
    "l_s": _Option(default=0.8),
    "l_t": _Option(default=1.5),
    "sigma2_s": _Option(default=2.0),
    "sigma2_t": _Option(default=2.0),
    "mean_a": _Option(default=2.0),
    "mean_b": _Option(default=0.5),
    "mean_c": _Option(default=30.0),
    "obs": _Option(str, "poisson", Choices("observation kind", *_OBSERVATIONS)),
    "obs_sigma2": _Option(default=0.5),
    "obs_r": _Option(default=10.0),
    "obs_volume": _Option(default=1.0),
}

# Every option, with its type, default and allowed values: the one table the
# flags of design and evaluate and the config keys of simstudy are read from.
OPTIONS = {
    **_MODEL,
    "generator": _Option(str, _REQUIRED, check=_check_generator),
    "design": _Option(str, _REQUIRED, check=_check_generator),
    "n": _Option(int, _REQUIRED, lo=1),
    "criterion": _Option(str, ("apv_intensity",), ev.CRITERIA, many=True),
    "M": _Option(int, 50, lo=2),
    "seed": _Option(int, 0, lo=0),
    "offset": _Option(int, 0, lo=0),
    "delta": _Option(),
    "close_pairs": _Option(int, metavar="K"),
    "grid_resolution": _Option(
        int, (10, 10, 8), many=True, nargs=3, flag="--grid-res", metavar="GRID_RES"),
    "incl_variant": _Option(str, "scaled_latent_mean", dsg.INCL_VARIANTS),
    "p_max": _Option(default=0.5),
    "mask": _Option(str, help="raster mask file (implies its bounds)"),
    "bounds": _Option(nargs=6, metavar=("LO1", "HI1", "LO2", "HI2", "LOT", "HIT"),
                      help="axis-aligned box; default unit cube"),
}


def _checked(values: dict) -> dict:
    """``values``, option key -> value or list of values, once each value
    passes its option's checks; the first that fails raises LgcpDesignError."""
    for key, value in values.items():
        if key in OPTIONS and value is not None:
            for v in value if isinstance(value, (list, tuple)) else [value]:
                OPTIONS[key].validate(key, v)
    if "p_max" in values:
        dsg.InclusionProbability.check(values["incl_variant"], values["p_max"])
    return values


def _build_model(v: dict) -> Model:
    """The model of the option values ``v``; separable mode fixes the spatial
    variance at 1, so it ignores sigma2_s."""
    obs = _OBSERVATIONS[v["obs"]](v)
    sigma2_s = 1.0 if v["cov_mode"] == "separable" else v["sigma2_s"]
    spatial = KernelSpec(v["spatial_family"], v["l_s"], sigma2_s)
    temporal = KernelSpec(v["temporal_family"], v["l_t"], v["sigma2_t"])
    mean = MeanFunction.concave_quadratic_time(v["mean_a"], v["mean_b"], v["mean_c"])
    return Model(mean, CovStructure(v["cov_mode"], spatial, temporal), obs)


def _domain(v: dict) -> Domain:
    if v["mask"]:
        if not os.path.exists(v["mask"]):
            raise FileNotFoundError(f"mask file not found: {v['mask']}")
        return load_mask_file(v["mask"])
    if v["bounds"]:
        return Domain(np.asarray(v["bounds"], dtype=float).reshape(3, 2))
    return unit_cube()


# ----------------------------------------------------------------------
# simstudy

# The sweep axes, outermost first: one cell per combination of their values.
# A config gives every axis but cov_mode.
_AXES = ("cov_mode", "l_t", "sigma2_t", "l_s", "design", "n")
_CONFIG_KEYS = (*_MODEL, "design", "n", "criterion", "M", "seed", "grid_resolution",
                "incl_variant", "p_max", "mask")


def _read(config, key):
    """Config key ``key``, cast to its option's type: all its values for a
    sweep axis or a ``many`` option, else its last. An absent key takes the
    option's default; a key given with no value is a usage error."""
    opt = OPTIONS[key]
    if key not in config:
        if key in _AXES[1:]:
            raise LgcpDesignError(f"config missing required key {key!r}")
        return [opt.default] if key in _AXES else opt.default
    if not config[key]:
        raise LgcpDesignError(f"config key {key!r} has no value")
    if key in _AXES or opt.many:
        return [_cast(opt.cast, key, value) for value in config[key]]
    return _cast(opt.cast, key, config[key][-1])


def enumerate_cells(config: dict) -> list[tuple]:
    """All (cov_mode, l_t, sigma2_t, l_s, design, n) cells of a sweep, in order.

    Each configured criterion is evaluated within every cell."""
    return list(itertools.product(*(_read(config, key) for key in _AXES)))


def run_simulation_study(config: dict, outdir) -> tuple[str, str]:
    """Run the full parameter sweep and write per-cell plus aggregated CSVs.

    One cell per (cov_mode, l_t, sigma2_t, l_s, design, n); every configured
    criterion is evaluated in each cell. Returns the two CSV paths.
    """
    chash = config_hash(config)
    # every value, and every parameter setting's model, is checked before the
    # output exists, so a bad value is a usage error before the first cell runs
    v = _checked({key: _read(config, key) for key in _CONFIG_KEYS})
    domain = _domain({**v, "bounds": None})
    grid = discretize(domain, v["grid_resolution"])
    cells = list(itertools.product(*(v[key] for key in _AXES)))
    models = {
        setting: _build_model({**v, **dict(zip(_AXES, setting))})
        for setting in dict.fromkeys(cell[:4] for cell in cells)
    }
    os.makedirs(outdir, exist_ok=True)

    results = []
    for idx, cell in enumerate(cells):
        model = models[cell[:4]]
        name, n = cell[4:]
        incl = None
        if name.endswith("+rejection"):
            incl = dsg.InclusionProbability.build(v["incl_variant"], model, grid, p_max=v["p_max"])
        design_seed, eval_seed = (
            int(np.random.SeedSequence(v["seed"], spawn_key=(idx, j)).generate_state(1)[0])
            for j in (0, 1)
        )
        design = generate_design(name, n, domain, design_seed, grid=grid, incl=incl)
        rows = []
        # one call per criterion, though one call would fit each replicate
        # once: the benchmark derives failed fits from the rows, one per
        # criterion, until ROADMAP item 5 counts them per fit
        for criterion in v["criterion"]:
            try:
                est = ev.estimate(model, design, [criterion], grid, v["M"], eval_seed)[0]
                rows.append((criterion, est.value, est.std_error, est.M, ""))
            except NumericalError as exc:
                rows.append((criterion, float("nan"), float("nan"), 0, str(exc)))
        results.append((cell, rows))

    cell_path = os.path.join(outdir, "cells.csv")
    agg_path = os.path.join(outdir, "aggregated.csv")
    columns = "cov_mode,l_t,sigma2_t,l_s,design,n,criterion,estimate,std_error,M,error"
    with open(cell_path, "w") as fh:
        fh.write(f"# config_hash={chash}\n{columns}\n")
        for (cov_mode, l_t, s2t, l_s, name, n), rows in results:
            for criterion, est, se, m, err in rows:
                fh.write(
                    f"{cov_mode},{l_t:.17g},{s2t:.17g},{l_s:.17g},{name},{n},"
                    f"{criterion},{est:.17g},{se:.17g},{m},{err}\n"
                )

    # aggregate over l_s (the figure convention)
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for (cov_mode, l_t, s2t, _l_s, name, n), rows in results:
        for criterion, est, se, _m, err in rows:
            if not err:
                gkey = (cov_mode, l_t, s2t, name, n, criterion)
                groups.setdefault(gkey, []).append((est, se))
    with open(agg_path, "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("cov_mode,l_t,sigma2_t,design,n,criterion,estimate,std_error,cells\n")
        for (cov_mode, l_t, s2t, name, n, criterion), vals in groups.items():
            est, se = (float(np.mean(column)) for column in zip(*vals))
            fh.write(
                f"{cov_mode},{l_t:.17g},{s2t:.17g},{name},{n},{criterion},"
                f"{est:.17g},{se:.17g},{len(vals)}\n"
            )
    return cell_path, agg_path


# ----------------------------------------------------------------------
# argument parsing


def _add_options(p, *keys):
    for key in keys:
        opt = OPTIONS[key]
        p.add_argument(
            opt.flag or "--" + key.replace("_", "-"), dest=key, type=opt.cast,
            choices=opt.choices, required=opt.default is _REQUIRED, nargs=opt.nargs,
            action="append" if opt.many and opt.nargs is None else "store",
            metavar=opt.metavar, help=opt.help,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgcp-design",
        description="Survey design generation and evaluation for LGCP models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="generate a design CSV")
    _add_options(p_design, "generator", "n", "seed", "offset", "delta", "close_pairs",
                 "grid_resolution", "incl_variant", "p_max")
    p_design.add_argument("--out", required=True)
    p_design.add_argument("--provenance")
    _add_options(p_design, "mask", "bounds", *_MODEL)

    p_eval = sub.add_parser("evaluate", help="evaluate a design CSV")
    p_eval.add_argument("--design", dest="design_csv", metavar="DESIGN", required=True,
                        help="design CSV path")
    _add_options(p_eval, "criterion", "M", "seed", "grid_resolution")
    p_eval.add_argument("--out", required=True)
    _add_options(p_eval, "mask", "bounds", *_MODEL)

    p_sim = sub.add_parser("simstudy", help="run a simulation-study sweep")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_design(v) -> int:
    domain = _domain(v)
    grid = discretize(domain, v["grid_resolution"])
    incl = None
    if v["generator"].endswith("+rejection"):
        model = _build_model(v)
        incl = dsg.InclusionProbability.build(v["incl_variant"], model, grid, p_max=v["p_max"])
    design = generate_design(v["generator"], v["n"], domain, v["seed"], grid=grid,
                             delta=v["delta"], k=v["close_pairs"], incl=incl, offset=v["offset"])
    dsg.save_design(design, v["out"], v["provenance"])
    return EXIT_OK


def _cmd_evaluate(v) -> int:
    domain = _domain(v)
    grid = discretize(domain, v["grid_resolution"])
    design = dsg.load_design(v["design_csv"])
    if design.n == 0:
        raise LgcpDesignError(f"design CSV {v['design_csv']} holds no points")
    outside = np.flatnonzero(~is_admissible(design.points, domain))
    if outside.size:
        k = outside[0]
        raise LgcpDesignError(
            f"design CSV {v['design_csv']}: point {k + 1} {tuple(design.points[k].tolist())} "
            "lies outside the evaluation domain"
        )
    name = design.provenance.get("generator", "design")
    rows = [
        {"design_name": name, "criterion": est.criterion, "estimate": est.value,
         "std_error": est.std_error, "M": est.M, "reduction_vs_base_pct": ""}
        for est in ev.estimate(_build_model(v), design, v["criterion"], grid, v["M"], v["seed"])
    ]
    ev.write_comparison_csv(rows, v["out"])
    return EXIT_OK


def _cmd_simstudy(v) -> int:
    if not os.path.exists(v["config"]):
        raise FileNotFoundError(f"config file not found: {v['config']}")
    run_simulation_study(parse_config(v["config"]), v["out"])
    return EXIT_OK


_COMMANDS = {"design": _cmd_design, "evaluate": _cmd_evaluate, "simstudy": _cmd_simstudy}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a flag left out takes its option's default
    values = {
        key: OPTIONS[key].default if value is None and key in OPTIONS else value
        for key, value in vars(args).items()
    }
    try:
        return _COMMANDS[args.command](_checked(values))
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
