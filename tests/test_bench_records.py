"""Every BENCH_*.json record at the root of the repository carries the keys
that all records share, and its claim names a workload and an end-to-end
metric that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"tag", "change", "claim", "command", "parent_commit", "pairs", "seeds", "environment",
        "workloads"}
CLAIM_KEYS = {"workload", "metric", "target", "met"}


def _benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_complete(path):
    with open(path) as fh:
        record = json.load(fh)
    assert KEYS <= set(record), f"missing {sorted(KEYS - set(record))}"
    claim = record["claim"]
    assert CLAIM_KEYS <= set(claim), f"claim missing {sorted(CLAIM_KEYS - set(claim))}"
    assert isinstance(claim["met"], bool)
    bench = _benchmark()
    assert claim["workload"] in {w["name"] for w in bench["workloads"]}
    assert claim["metric"] in {m["name"] for m in bench["end_to_end"]}
    assert claim["workload"] in record["workloads"]
    assert record["pairs"] == len(record["seeds"])
