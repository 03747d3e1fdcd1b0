"""Tests of the benchmark's tracer.

Run from the root of a checkout: python3 -m pytest perfbench/test_tracing.py
"""

import inspect
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import lgcp_design  # noqa: E402
import lgcp_design.cli  # noqa: E402,F401
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _public_functions():
    """Every (owner, name, function) a tracer may replace."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "lgcp_design" or name.startswith("lgcp_design."):
            out += [(mod, k, v) for k, v in vars(mod).items() if inspect.isfunction(v)]
    incl = lgcp_design.designs.InclusionProbability
    return out + [(incl, "at", incl.__dict__["at"])]


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    wl = WORKLOADS["compare_n50"]
    inputs = wl.setup(0, lgcp_design, str(tmp_path))
    before = _public_functions()
    plain = wl.run(inputs)
    with tracing.Tracer(lgcp_design) as tracer:
        traced = wl.run(inputs)
    assert traced.table == plain.table
    # every wrapped function is back in place
    assert all(getattr(owner, k) is v for owner, k, v in before)
    layers = tracing.layer_metrics(tracer.spans, 1.0, 1, traced.replicates)
    assert layers["lgcp.fit_lgcp.failed"] == traced.fits_failed
    assert layers["lgcp.fit_lgcp.calls"] == traced.fits_attempted
    assert layers["evaluation.fits_per_replicate"] == 1.0


def test_tracer_wraps_cross_module_references():
    with tracing.Tracer(lgcp_design):
        # lgcp and gp_gaussian import cov_matrix by name; both must be wrapped
        assert lgcp_design.lgcp.cov_matrix is lgcp_design.kernels.cov_matrix
        assert lgcp_design.gp_gaussian.cov_matrix is lgcp_design.kernels.cov_matrix
        assert lgcp_design.kernels.cov_matrix.__wrapped__ is not None
    assert not hasattr(lgcp_design.kernels.cov_matrix, "__wrapped__")


def test_self_time_subtracts_union_of_children():
    # parent 0 spans [0, 10]; children in two threads overlap on [2, 4]
    spans = [
        (1, 0, "c", 2, 1.0, 4.0, None, None),
        (2, 0, "c", 3, 2.0, 5.0, None, None),
        (0, None, "p", 1, 0.0, 10.0, None, None),
    ]
    table = tracing.by_name(spans)
    assert table["p"]["self_s"] == 6.0
    assert table["c"]["calls"] == 2 and table["c"]["self_s"] == 6.0
