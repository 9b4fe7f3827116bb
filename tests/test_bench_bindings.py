"""The benchmark under bench/ imports, wraps and patches names of the program.

A renamed or removed name would stop every benchmark run with an
AttributeError; these tests make it fail the test suite instead.
"""

import sys
from pathlib import Path

import pytest

from datamarket import cli, harness
from datamarket.ledger import Ledger

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("checks", "tracing", "workloads", "measure"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    # tracing binds the functions it times (harness.sortition, the
    # fedcore aggregators, ...) at import, so a missing one fails here
    import measure
    import tracing

    return measure, tracing


def test_benchmark_modules_import(bench_modules):
    measure, tracing = bench_modules
    assert measure.tracing is tracing


def test_patched_attributes_bound(bench_modules):
    # measure swaps these at run time, reading each from its owner's namespace
    for owner, attr in [
        (cli, "MetricsSink"),
        (cli, "run_auction_to_completion"),
        (harness, "run_federated_round"),
        (harness, "run_core"),
    ]:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_ledger_methods_bound(bench_modules):
    _, tracing = bench_modules
    # the tracer wraps these when installed; the checks read commits_for
    methods = [m for names in tracing.LEDGER_SPANS.values() for m in names]
    for method in methods + ["commits_for"]:
        assert method in vars(Ledger), f"Ledger.{method}"
