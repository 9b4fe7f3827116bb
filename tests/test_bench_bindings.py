"""The benchmark under bench/ imports, wraps and patches names of the program.

A renamed or removed name would stop every benchmark run with an
AttributeError; these tests make it fail the test suite instead.
"""

import sys
import threading
from pathlib import Path

import pytest

from conftest import quick_scenario
from datamarket import cli, harness, training
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


def test_traced_functions_run_on_the_calling_thread(bench_modules, monkeypatch):
    # the tracer keeps one span stack, so a traced call on a block worker
    # would corrupt it; only the private block kernels may leave the caller
    _, tracing = bench_modules
    caller = threading.current_thread()
    off_thread: list[str] = []
    kernel_threads: set[threading.Thread] = set()

    class ThreadCheck(tracing.Tracer):
        def timed(self, name, fn, before=None):
            return self._checked(name, super().timed(name, fn, before))

        def counted(self, name, fn):
            return self._checked(name, super().counted(name, fn))

        def _checked(self, name, wrapper):
            def check(*args, **kwargs):
                if threading.current_thread() is not caller:
                    off_thread.append(name)
                return wrapper(*args, **kwargs)

            return check

    run_losses = training._run_losses

    def spy(*args, **kwargs):
        kernel_threads.add(threading.current_thread())
        return run_losses(*args, **kwargs)

    monkeypatch.setattr(training, "_run_losses", spy)
    monkeypatch.setattr(training, "_cpu_count", lambda: 2)
    monkeypatch.setattr(training, "BLOCK_MACS", 16 * 8 * 32)  # 32-row blocks
    with ThreadCheck().installed():
        harness.run_auction_to_completion(quick_scenario(hidden_units=8, t_max=2))
    assert off_thread == []
    assert kernel_threads - {caller}, "utility never used a block worker"
