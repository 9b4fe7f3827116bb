"""Command-line front end: run scenarios and grids, analyze payoffs, verify a run."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from functools import cache
from pathlib import Path

from .consensus import likelihood_scores
from .economics import PayoffParams, analyze_payoffs, geometric_catch_prob
from .harness import byzantine_grid, run_auction_to_completion, run_experiment_grid
from .ledger import Ledger
from .metrics import MetricsSink, rounds_csv
from .scenario import AnalysisConfig, ConsensusConfig, Scenario, load_scenario


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("DATAMARKET_OUT", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args):
    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _cmd_run(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    sink = MetricsSink()
    result = run_auction_to_completion(scenario, sink=sink)
    (out / "rounds.csv").write_text(
        rounds_csv(
            result.run.records if result.run else [],
            scenario.adversary.node_fraction,
            scenario.ablation,
        )
    )
    sink.write(out / "events.jsonl")
    (out / "ledger.json").write_text(result.ledger.snapshot_json())
    (out / "tx_log.ndjson").write_text(result.ledger.tx_log_ndjson() + "\n")
    summary = result.summary()
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(f"run complete: {summary['rounds']} rounds, outputs in {out}")
    if result.run:
        print(f"final test accuracy: {result.run.final_test_accuracy:.4f}")
    return 0


def _cmd_grid(args) -> int:
    scenario = _load(args)
    out = _out_dir(args)
    fractions = tuple(float(x) for x in args.fractions.split(","))
    ablations = tuple(args.ablations.split(","))
    items = byzantine_grid(scenario, fractions=fractions, ablations=ablations)
    written = run_experiment_grid(items, out)
    print(f"grid complete: {len(written)} series in {out}")
    return 0


def _cmd_analyze(args) -> int:
    params = PayoffParams(
        seller_pool=args.seller_pool,
        node_pool=args.node_pool,
        node_count=args.nodes,
        bribe=args.bribe,
        quality_honest=args.quality,
        quality_claimed=args.claimed,
        success_prob=args.beta,
        catch_prob=geometric_catch_prob(args.detect),
    )
    report = analyze_payoffs(params, rounds=args.rounds)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
    print(text)
    return 0


class _Unreadable(Exception):
    """A run artifact that is missing or does not parse; the message names the file."""


def _cmd_verify(args) -> int:
    """Check one run's output directory against its own records."""

    @cache
    def read(name: str):
        try:
            text = (Path(args.dir) / name).read_text()
            if name.endswith(".jsonl"):
                return [json.loads(line) for line in text.splitlines()]
            return Ledger.replay(text) if name.endswith(".ndjson") else json.loads(text)
        except Exception as exc:  # the directory comes from outside the program
            raise _Unreadable(f"{name}: {type(exc).__name__}: {exc}") from None

    def events(kind: str) -> list[dict]:
        return [event for event in read("events.jsonl") if event["event"] == kind]

    def conserved() -> bool:
        ledger = read("tx_log.ndjson")
        held = sum(a.balance for a in ledger.accounts.values()) + ledger.escrowed_total
        return held + ledger.fees_collected == ledger.total_supply

    def scored() -> bool:  # a digest accepted earlier in its round had no preimage and drops out
        ledger, consensus = read("tx_log.ndjson"), events("consensus")
        by_slot = {(e["round"], e["mini_round"]): e for e in consensus}
        if len(by_slot) != len(consensus) or by_slot.keys() != ledger.execution_slots.keys():
            return False
        for (t, i), event in by_slot.items():
            counts = [Counter(c.digest for c in ledger.commits_for(t, l)) for l in range(1, i + 1)]
            sizes = [len(ledger.execution_slots[t, l].members) for l in range(1, i + 1)]
            dropped = {by_slot[t, l]["accepted"] for l in range(1, i)}
            scores = {k.hex(): v for k, v in likelihood_scores(counts, sizes).items()}
            if event["scores"] != {k: v for k, v in scores.items() if k not in dropped}:
                return False
        return True

    def adopted() -> bool:  # a round with no consensus events ran on a single executor
        ordered = sorted(events("consensus"), key=lambda e: e["mini_round"])
        last = {e["round"]: e["accepted"] for e in ordered}
        digests = {r["round"]: r["accepted_digest"] for r in events("round")}
        return all(last[t] == digest for t, digest in digests.items() if t in last)

    checks = [
        ("tx_log.ndjson replays to ledger.json",
         lambda: read("tx_log.ndjson").snapshot() == read("ledger.json")),
        ("tokens are conserved on the replayed ledger", conserved),
        ("consensus events score the ledger's commits", scored),
        ("round events adopt their last mini-round's digest", adopted),
        ("summary.json counts the round events",
         lambda: read("summary.json")["rounds"] == len(events("round"))),
    ]
    failures = 0
    for name, check in checks:
        try:
            problem = None if check() else "does not hold"
        except Exception as exc:  # a malformed artifact fails its check, not the command
            problem = str(exc) if isinstance(exc, _Unreadable) else f"{type(exc).__name__}: {exc}"
        print(f"[PASS] {name}" if problem is None else f"[FAIL] {name}: {problem}")
        failures += problem is not None
    print(f"{failures} of {len(checks)} checks failed" if failures else "all checks passed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="datamarket",
        description="Deterministic data-marketplace protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario end to end")
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="output directory (or $DATAMARKET_OUT)")
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="run the adversary-fraction x ablation grid")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--seed", type=int, default=None)
    p_grid.add_argument("--out", default=None)
    p_grid.add_argument("--fractions", default="0.2,0.3,0.4,0.5")
    p_grid.add_argument("--ablations", default="none,no-krum,no-consensus")
    p_grid.set_defaults(func=_cmd_grid)

    p_an = sub.add_parser("analyze", help="standalone payoff analysis")
    p_an.add_argument("--seller-pool", type=float, default=70.0)
    p_an.add_argument("--node-pool", type=float, default=30.0)
    p_an.add_argument("--nodes", type=int, default=Scenario.nodes)
    p_an.add_argument("--bribe", type=float, default=AnalysisConfig.bribe)
    p_an.add_argument("--quality", type=float, default=AnalysisConfig.quality_honest)
    p_an.add_argument("--claimed", type=float, default=AnalysisConfig.quality_claimed)
    p_an.add_argument("--beta", type=float, default=ConsensusConfig.confidence_beta)
    p_an.add_argument("--detect", type=float, default=AnalysisConfig.detect_rate)
    p_an.add_argument("--rounds", type=int, default=5)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="check a run's output directory against its records")
    p_verify.add_argument("dir", metavar="DIR", help="output directory of one `datamarket run`")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
