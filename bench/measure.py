"""One benchmark run: repeated passes over a workload's cells, timed and checked.

A pass runs every cell of the workload once through ``datamarket run``.
A run repeats passes for its length in seconds.  Every pass of a cell
does the same work, so each figure is taken as the fastest of the cell's
repetitions and then summed over cells (see ``fastest``).
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from datamarket import cli, harness
from datamarket.errors import MarketError
from datamarket.ledger import Ledger
from datamarket.metrics import MetricsSink
from datamarket.scenario import format_config, load_scenario

import checks
import tracing
from tracing import patched
from workloads import WORKLOADS

SETUP_PROBES = 3  # set-up probes per cell and pass
ARTIFACTS = ("rounds.csv", "events.jsonl", "ledger.json", "tx_log.ndjson", "summary.json")
PER_CELL = ("run_s", "export_s", "replay_s", "artifact_bytes")


@dataclass
class CellRun:
    """Timings and outputs of one ``datamarket run`` of one scenario."""

    out_dir: Path
    run_s: float = 0.0
    export_s: float = 0.0
    replay_s: float = 0.0
    artifact_bytes: int = 0
    round_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    emits: int = 0
    result: object = None
    events: list = field(default_factory=list)
    replayed: object = None


def run_cell(cfg: Path, out_dir: Path, tracer=None) -> CellRun:
    """One ``datamarket run`` with the round clock (and the tracer) attached."""
    run = CellRun(out_dir=out_dir)
    marks: dict[str, float] = {}
    round_at: list[float] = []

    class RoundClock(MetricsSink):
        """Sink that timestamps each ``round`` event as it is emitted."""

        def emit(self, kind, **data):
            super().emit(kind, **data)
            run.emits += 1
            if kind == "round":
                round_at.append(perf_counter())
                if tracer is not None:
                    tracer.on_round_event(data["round"])

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        pipeline = cli.run_auction_to_completion
        federated_round = harness.run_federated_round

        def timed_pipeline(scenario, sink=None):
            marks["start"] = perf_counter()
            try:
                run.result = pipeline(scenario, sink=sink)
            finally:
                marks["end"] = perf_counter()
            run.events = sink.events
            return run.result

        def first_round_marker(*args, **kwargs):
            marks.setdefault("loop", perf_counter())
            return federated_round(*args, **kwargs)

        stack.enter_context(patched(cli, "MetricsSink", RoundClock))
        stack.enter_context(patched(cli, "run_auction_to_completion", timed_pipeline))
        stack.enter_context(patched(harness, "run_federated_round", first_round_marker))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", "--config", str(cfg), "--out", str(out_dir)])
        done = perf_counter()

    # Read before the benchmark's own replay and checks allocate anything.
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.run_s = marks["end"] - marks["start"]
    run.export_s = done - marks["end"]
    run.round_s = [b - a for a, b in zip([marks["loop"], *round_at], round_at)]
    text = (out_dir / "tx_log.ndjson").read_text()
    started = perf_counter()
    run.replayed = Ledger.replay(text)
    run.replay_s = perf_counter() - started
    run.artifact_bytes = sum((out_dir / name).stat().st_size for name in ARTIFACTS)
    return run


class _SetupDone(Exception):
    pass


def probe_setup(scenario) -> float:
    """Seconds from the pipeline call to its first round; the round never runs."""
    def stop(*args, **kwargs):
        raise _SetupDone

    with patched(harness, "run_federated_round", stop):
        started = perf_counter()
        try:
            harness.run_auction_to_completion(scenario)
        except _SetupDone:
            return perf_counter() - started
    raise RuntimeError("the pipeline ended without starting a round")


def measure(workload: str, seed: int, seconds: float, traced: bool, out: Path) -> dict:
    cells = WORKLOADS[workload](seed)
    base = out / workload
    configs = []
    for cell in cells:
        (base / cell.label).mkdir(parents=True, exist_ok=True)
        cfg = base / f"{cell.label}.cfg"
        cfg.write_text(format_config(cell.scenario))
        if load_scenario(cfg) != cell.scenario:
            raise RuntimeError(f"{cfg} does not round-trip the scenario")
        configs.append(cfg)

    attempted = failed = passes = 0
    # Per cell: the figures of each checked repetition, and the set-up probes.
    reps: dict[str, list[dict]] = {cell.label: [] for cell in cells}
    setups: dict[str, list[float]] = {cell.label: [] for cell in cells}
    windows: dict[str, tuple[float, float]] = {}
    spans: list[dict] = []
    peak_rss_mb = None
    fingerprints: dict[str, str] = {}
    started = perf_counter()
    last_pass_s = 0.0
    # Start a pass only if it should end within the run's time; the first always runs.
    while not passes or perf_counter() - started + last_pass_s <= seconds:
        pass_started = perf_counter()
        passes += 1
        for cell, cfg in zip(cells, configs):
            if not traced:
                setups[cell.label] += [probe_setup(cell.scenario) for _ in range(SETUP_PROBES)]
            t_max = cell.scenario.t_max
            attempted += t_max
            tracer = tracing.Tracer() if traced else None
            try:
                run = run_cell(cfg, base / cell.label, tracer)
            except MarketError:
                traceback.print_exc(file=sys.stderr)
                failed += t_max
                continue
            if peak_rss_mb is None:
                peak_rss_mb = run.peak_rss_mb
            if cell.label not in windows:
                windows[cell.label] = checks.accuracy_window(cell.scenario)
            try:
                checks.check_run(cell.scenario, run, windows[cell.label])
                fp = checks.fingerprint(run)
                if fingerprints.setdefault(cell.label, fp) != fp:
                    raise checks.CheckFailed("a repeated run exported a different transaction log")
            except checks.CheckFailed as exc:
                print(f"bench: check failed on {cell.label}: {exc}", file=sys.stderr)
                failed += t_max
                continue
            figures = {"round_s": run.round_s, **{k: getattr(run, k) for k in PER_CELL}}
            if traced:
                figures.update(tracing.layer_metrics(
                    tracer,
                    rounds=t_max,
                    candidates=sum(len(set(e["sampled"])) for e in run.events if e["event"] == "round"),
                    emits=run.emits,
                    tx_count=len(run.result.ledger.tx_log),
                    replay_s=run.replay_s,
                    events_bytes=(run.out_dir / "events.jsonl").stat().st_size,
                ))
                if passes == 1:
                    spans += tracer.to_records(cell=cell.label)
            reps[cell.label].append(figures)
            del run  # the next cell's run should not find this one's ledger still alive
        last_pass_s = perf_counter() - pass_started

    if not all(reps.values()):
        raise RuntimeError("some cell never completed a checked run; no figures to report")
    if traced:
        tracing.write_spans(out / f"spans-{workload}.ndjson", spans)
        values = _layer_figures(reps)
    else:
        values = _end_to_end(reps, setups)
        values["peak_rss_mb"] = peak_rss_mb
    # Every round of a failed run counts as failed, and any failure fails the run.
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "passes": passes, "values": values}


def fastest(reps: list[dict], key: str) -> float:
    """A cell's figure: the lowest value over its repetitions.

    Every repetition of a cell does the same work (the checks require a
    byte-identical transaction log), so the spread between them is the
    host's: other tenants only ever add time, and on a shared machine they
    do so in bursts that last seconds.  The fastest repetition is the
    steadiest estimate of the program's own cost.
    """
    return min(r[key] for r in reps)


def _fastest_rounds(reps: list[dict]) -> list[float]:
    """Each round's lowest duration over the repetitions of its cell."""
    return [min(durations) for durations in zip(*(r["round_s"] for r in reps))]


def _round_figures(reps: dict[str, list[dict]]) -> tuple[float, list[float]]:
    """Rounds per second of round-loop time, and the rounds' durations in ms."""
    rounds = [d for cell in reps.values() for d in _fastest_rounds(cell)]
    return len(rounds) / sum(rounds), [1e3 * d for d in rounds]


def _end_to_end(reps: dict[str, list[dict]], setups: dict[str, list[float]]) -> dict[str, float]:
    """End-to-end figures: each cell's fastest repetition, summed over cells."""
    values = {k: sum(fastest(cell, k) for cell in reps.values()) for k in PER_CELL}
    values["setup_s"] = sum(min(probes) for probes in setups.values())
    values["rounds_per_s"], round_ms = _round_figures(reps)
    cuts = statistics.quantiles(round_ms, n=100, method="inclusive")
    values["round_p50_ms"] = cuts[49]
    values["round_p99_ms"] = cuts[98]
    return values


def _layer_figures(reps: dict[str, list[dict]]) -> dict[str, float]:
    """Per-layer figures: each cell's fastest repetition, summed over cells.

    Counts are the same in every repetition.  Ratios are weighted by the
    cells' rounds, and the block-time growth, itself a ratio of times, is
    each cell's median.
    """
    cells = list(reps.values())
    keys = [k for k in cells[0][0] if k not in PER_CELL and k != "round_s"]
    combined = {k: sum(fastest(cell, k) for cell in cells) for k in keys}
    rounds = [cell[0]["rounds"] for cell in cells]
    for k in ("training.evaluate_metric.calls_per_round", "fedcore.candidates_per_round"):
        combined[k] = statistics.fmean([cell[0][k] for cell in cells], weights=rounds)
    combined["ledger.advance_block.growth"] = statistics.fmean(
        [statistics.median(r["ledger.advance_block.growth"] for r in cell) for cell in cells],
        weights=rounds)
    combined["consensus.accept_ratio"] = combined["rounds"] / combined["consensus.mini_rounds"]
    combined["trace.rounds_per_s"] = _round_figures(reps)[0]
    return combined
