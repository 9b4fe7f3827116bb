"""Command-line front end: run scenarios, grids, payoff analysis, self-checks."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .consensus import ConsensusParams, acceptance_bound, execution_set_size, threshold, total_executions
from .economics import PayoffParams, analyze_payoffs, distribute_revenue, geometric_catch_prob
from .fedcore import corrected_krum, omd_update
from .harness import byzantine_grid, run_auction_to_completion, run_experiment_grid
from .ledger import DataRequest, Ledger
from .metrics import MetricsSink, rounds_csv
from .rng import derive_seed, rng_from
from .scenario import load_scenario


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


def _cmd_verify(args) -> int:
    """Fast invariant battery; exits non-zero on the first failure."""
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    # committee growth closed forms against the doubling recurrence
    ok = True
    for s0 in range(1, 9):
        sizes, step = [s0], 1
        for _ in range(2, 16):
            sizes.append(sizes[-1] + step)
            step *= 2
        for i in range(1, 16):
            ok &= execution_set_size(i, s0) == sizes[i - 1]
            ok &= total_executions(i, s0) == sum(sizes[:i])
    check("committee growth closed forms", ok)

    # threshold / acceptance-bound round trip
    rng = rng_from(derive_seed("verify", "roundtrip"))
    ok = True
    for _ in range(200):
        params = ConsensusParams(
            total_nodes=int(rng.integers(2, 400)),
            sample_fraction=float(rng.uniform(0.01, 0.99)),
            byz_fraction_max=float(rng.uniform(0.01, 0.49)),
            confidence_beta=float(rng.uniform(0.001, 0.499)),
            base_size=1,
        )
        ok &= abs(acceptance_bound(threshold(params), params) - params.confidence_beta) < 1e-9
    check("threshold/acceptance-bound round trip", ok)

    # distribution update feasibility
    ok = True
    for k in range(500):
        n = int(rng.integers(2, 40))
        alpha = float(rng.uniform(0.0, 1.0))
        p = rng.dirichlet(np.ones(n))
        p = omd_update(p, np.zeros(n), 1.0, alpha)
        u = rng.normal(scale=rng.uniform(0.1, 30.0), size=n)
        q = omd_update(p, u, float(rng.uniform(0.0, 5.0)), alpha)
        ok &= abs(q.sum() - 1.0) < 1e-9 and q.min() >= alpha / n - 1e-12
    check("mirror-descent update feasibility", ok)

    # robust aggregation membership
    ok = True
    for _ in range(200):
        cands = [rng.normal(size=6) for _ in range(int(rng.integers(1, 12)))]
        pick = corrected_krum(cands)
        ok &= any(np.array_equal(pick, c) for c in cands)
    check("robust aggregation returns a member", ok)

    # revenue conservation
    ok = True
    for _ in range(2000):
        bid = int(rng.integers(1, 10**9))
        sellers = {f"s{i}": int(rng.integers(0, 50)) for i in range(int(rng.integers(1, 8)))}
        if all(v == 0 for v in sellers.values()):
            sellers["s0"] = 1
        nodes = {f"n{i}": int(rng.integers(0, 20)) for i in range(int(rng.integers(1, 6)))}
        if all(v == 0 for v in nodes.values()):
            nodes["n0"] = 1
        report = distribute_revenue(bid, sellers, nodes)
        ok &= sum(report.transfers.values()) == bid
        ok &= report.node_share == 30 * bid // 100
    check("revenue split conserves the bid", ok)

    # ledger token conservation on a small workload
    ledger = Ledger(seed=7, auction_window=3)
    buyer = ledger.register_user("b1", is_buyer=True)
    rival = ledger.register_user("b2", is_buyer=True)
    seller = ledger.register_user("s1", is_buyer=False)
    node = ledger.register_node("n1")
    ledger.mint(buyer, 500)
    ledger.mint(rival, 400)
    ledger.register_dataset(seller, {"x"}, 10)
    ledger.start_auction(DataRequest(tags={"x"}, amount=300), buyer)
    ledger.place_bid(DataRequest(tags={"x"}, amount=350), rival)
    for _ in range(3):
        ledger.advance_block()
    _, matched, settlement = ledger.close_auction({"x"})
    ledger.payout_escrow(settlement, {seller: 245, node: 105})
    check(
        "ledger token conservation",
        sum(a.balance for a in ledger.accounts.values())
        + ledger.escrowed_total
        + ledger.fees_collected
        == ledger.total_supply,
    )

    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
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
    p_an.add_argument("--nodes", type=int, default=50)
    p_an.add_argument("--bribe", type=float, default=1.0)
    p_an.add_argument("--quality", type=float, default=0.75)
    p_an.add_argument("--claimed", type=float, default=0.8)
    p_an.add_argument("--beta", type=float, default=0.01)
    p_an.add_argument("--detect", type=float, default=0.3)
    p_an.add_argument("--rounds", type=int, default=5)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run the quick invariant battery")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
