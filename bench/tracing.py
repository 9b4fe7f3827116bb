"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the ``datamarket`` modules with
wrappers for the length of one pipeline run and puts the originals back
afterwards.  Nothing under ``src/`` is edited: a function is swapped in
every ``datamarket`` module namespace that binds it, so a name imported
with ``from .training import utility`` is caught in the importing module
too.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from datamarket import adversary, economics, fedcore, harness, rng, training
from datamarket.ledger import Ledger

# Span name -> functions it covers.  Grouping several functions under one
# name gives the per-layer figures the README maps to end-to-end metrics.
SPANS = {
    "harness.pipeline": [harness.run_auction_to_completion],
    "harness.round_loop": [harness.run_core],
    "training.dataset": [harness.build_splits, training.dirichlet_partition, training.partition_shards],
    "training.utility": [training.utility],
    "training.local_update": [training.local_update],
    "training.evaluate_metric": [training.evaluate_metric],
    "training.state_digest": [training.state_digest],
    "fedcore.round": [fedcore.run_federated_round],
    "fedcore.sample_sellers": [fedcore.sample_sellers],
    "fedcore.omd_update": [fedcore.omd_update],
    "fedcore.aggregate": [
        fedcore.corrected_krum_index,
        fedcore.classical_krum_index,
        fedcore.mean_aggregate,
    ],
    "consensus.sortition": [harness.sortition],
    "consensus.scoring": [harness.likelihood_scores, harness.decide, harness.best_digest],
    "adversary.node_digest": [adversary.byzantine_node_digest],
    "adversary.poisoned_state": [adversary.poisoned_state],
    "adversary.seller_update": [adversary.malicious_seller_update],
    "economics.distribute_revenue": [economics.distribute_revenue],
    "economics.analyze_payoffs": [economics.analyze_payoffs],
}

LEDGER_SPANS = {
    "ledger.commit_digest": ["commit_digest"],
    "ledger.publish_execution_set": ["publish_execution_set"],
    "ledger.advance_block": ["advance_block"],
    "ledger.setup": [
        "register_user",
        "register_node",
        "mint",
        "register_dataset",
        "start_auction",
        "place_bid",
        "close_auction",
    ],
    "ledger.export": ["snapshot_json", "tx_log_ndjson"],
}

# Too cheap to time: a timer would cost more than the call.
COUNTED = {"rng.derive_seed": rng.derive_seed, "rng.rng_from": rng.rng_from}


class Tracer:
    """Spans of one pipeline run, kept in memory.

    A span is ``(parent, name, start, end, round)``; its id is its index.
    ``round`` is the round the span began in: ``None`` before the round
    loop, then 0, 1, ... as the run's ``round`` events arrive.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.round: int | None = None
        self._stack: list[int] = []

    def on_round_event(self, t: int) -> None:
        self.round = t + 1

    def timed(self, name: str, fn, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            opened_in = self.round
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (parent, name, start, end, opened_in)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; restore on exit."""
        with contextlib.ExitStack() as stack:
            for name, fns in SPANS.items():
                for fn in fns:
                    _swap_everywhere(stack, fn, self.timed(name, fn, self._hook(name, fn)))
            for name, methods in LEDGER_SPANS.items():
                for method in methods:
                    original = getattr(Ledger, method)
                    wrapper = self.timed(name, original, self._hook(name, original))
                    stack.enter_context(patched(Ledger, method, wrapper))
            for name, fn in COUNTED.items():
                _swap_everywhere(stack, fn, self.counted(name, fn))
            stack.enter_context(_round_loop_bounds(self))
            yield self

    def _hook(self, name: str, fn):
        factory = _HOOKS.get(name)
        return factory(self, fn) if factory is not None else None

    def to_records(self, **tags) -> list[dict]:
        return [
            {"id": sid, "parent": p, "name": n, "start": s, "end": e, "round": r, **tags}
            for sid, (p, n, s, e, r) in enumerate(self.spans)
        ]


def _rows_counter(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    def before(args, kwargs):
        a = signature.bind(*args, **kwargs)
        a.apply_defaults()
        tracer.counts["training.local_update.rows"] += len(a.arguments["shard"]) * a.arguments["epochs"]

    return before


def _seat_counter(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    def before(args, kwargs):
        members = signature.bind(*args, **kwargs).arguments["members"]
        tracer.counts["consensus.seats"] += len(members)

    return before


# Span name -> factory of a hook that counts work from the call's arguments.
_HOOKS = {"training.local_update": _rows_counter, "ledger.publish_execution_set": _seat_counter}


@contextlib.contextmanager
def _round_loop_bounds(tracer: Tracer):
    """Number rounds from 0 once the round loop starts; back to None after it."""
    original = harness.run_core

    def run_core(*args, **kwargs):
        tracer.round = 0
        try:
            return original(*args, **kwargs)
        finally:
            tracer.round = None

    with patched(harness, "run_core", run_core):
        yield


@contextlib.contextmanager
def patched(owner, attr: str, value):
    original = owner.__dict__[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _swap_everywhere(stack: contextlib.ExitStack, original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "datamarket" and not name.startswith("datamarket."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                stack.enter_context(patched(module, attr, replacement))


def _self_times(spans: list[tuple]) -> list[float]:
    child_time = [0.0] * len(spans)
    for parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, _, start, end, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer, rounds: int, candidates: int, emits: int,
                  tx_count: int, replay_s: float, events_bytes: int) -> dict[str, float]:
    """Per-layer figures of one pipeline run (one cell of one pass)."""
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for _, name, start, end, _ in spans:
        total[name] += end - start
        calls[name] += 1
    selfs = _self_times(spans)
    self_total: dict[str, float] = defaultdict(float)
    for (_, name, *_), s in zip(spans, selfs):
        self_total[name] += s
    in_loop = [end - start for _, name, start, end, r in spans
               if name == "ledger.advance_block" and r is not None]
    tenth = max(1, len(in_loop) // 10)
    growth = statistics.fmean(in_loop[-tenth:]) / statistics.fmean(in_loop[:tenth]) if in_loop else 1.0
    loop_evals = sum(1 for _, name, *_, r in spans
                     if name == "training.evaluate_metric" and r is not None)
    mini_rounds = calls["ledger.publish_execution_set"]
    counts = tracer.counts
    return {
        "training.utility.s": total["training.utility"],
        "training.utility.calls": calls["training.utility"],
        "training.local_update.s": total["training.local_update"],
        "training.local_update.calls": calls["training.local_update"],
        "training.local_update.rows": counts["training.local_update.rows"],
        "training.evaluate_metric.s": total["training.evaluate_metric"],
        "training.evaluate_metric.calls_per_round": loop_evals / rounds,
        "training.state_digest.s": total["training.state_digest"],
        "training.state_digest.calls": calls["training.state_digest"],
        "training.dataset.s": total["training.dataset"],
        "fedcore.self.s": self_total["fedcore.round"],
        "fedcore.sample_sellers.s": total["fedcore.sample_sellers"],
        "fedcore.omd_update.s": total["fedcore.omd_update"],
        "fedcore.aggregate.s": total["fedcore.aggregate"],
        "fedcore.candidates_per_round": candidates / rounds,
        "consensus.sortition.s": total["consensus.sortition"],
        "consensus.scoring.s": total["consensus.scoring"],
        "consensus.mini_rounds": mini_rounds,
        "consensus.seats": counts["consensus.seats"],
        "consensus.accept_ratio": rounds / mini_rounds if mini_rounds else 1.0,
        "ledger.commit_digest.s": total["ledger.commit_digest"],
        "ledger.commit_digest.calls": calls["ledger.commit_digest"],
        "ledger.publish_execution_set.s": total["ledger.publish_execution_set"],
        "ledger.advance_block.s": total["ledger.advance_block"],
        "ledger.advance_block.growth": growth,
        "ledger.setup.s": total["ledger.setup"],
        "ledger.tx": tx_count,
        "ledger.export.s": total["ledger.export"],
        "ledger.replay.s": replay_s,
        "adversary.node_digest.s": total["adversary.node_digest"],
        "adversary.node_digest.calls": calls["adversary.node_digest"],
        "adversary.poisoned_state.s": total["adversary.poisoned_state"],
        "adversary.poisoned_state.calls": calls["adversary.poisoned_state"],
        "adversary.seller_update.s": total["adversary.seller_update"],
        "adversary.seller_update.calls": calls["adversary.seller_update"],
        "economics.distribute_revenue.s": total["economics.distribute_revenue"],
        "economics.analyze_payoffs.s": total["economics.analyze_payoffs"],
        "metrics.emit.calls": emits,
        "metrics.events_bytes": events_bytes,
        "harness.self.s": self_total["harness.round_loop"],
        "rng.derive_seed.calls": counts["rng.derive_seed"],
        "rng.rng_from.calls": counts["rng.rng_from"],
        "rounds": rounds,
    }


def write_spans(path, records) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")
