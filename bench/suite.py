"""Modes that run ``run.py`` as child processes: every workload, and the steadiness self-check.

Each measurement gets a fresh process so that peak memory and warm caches
belong to one workload only.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # A run stops starting passes after ``seconds``; the last pass and the
    # set-up around it take at most about as long again.
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=2 * seconds + 60)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {done.returncode}")
    return json.loads(lines[-1])


def run_all(names: list[str], seed: int, seconds: float) -> int:
    """Untraced and traced run of each workload, with the tracing overhead."""
    summary = {}
    for name in names:
        plain = run_child(name, seed, seconds, 0)
        traced = run_child(name, seed, seconds, 1)
        e2e = {k: v["value"] for k, v in plain["metrics"].items()}
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        overhead = 1.0 - layers["trace.rounds_per_s"] / e2e["rounds_per_s"]
        print(f"== {name}  seed {seed}  correct {plain['correct'] and traced['correct']}  "
              f"rounds attempted {plain['attempted']}, failed {plain['failed']}")
        units = {k: v["unit"] for k, v in {**plain["metrics"], **traced["metrics"]}.items()}
        for key, value in {**e2e, **layers}.items():
            print(f"  {key:<44} {value:>16.6g} {units[key]}")
        print(f"  tracing overhead on rounds_per_s: {100 * overhead:.1f}%")
        summary[name] = {"correct": plain["correct"] and traced["correct"],
                         "attempted": plain["attempted"], "failed": plain["failed"],
                         "end_to_end": e2e, "per_layer": layers,
                         "tracing_overhead": overhead}
    print(json.dumps(summary))
    return 0 if all(s["correct"] for s in summary.values()) else 1


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def steadiness(names: list[str], seed: int, seconds: float, runs: int, spec: dict) -> int:
    """Two sets of ``runs`` runs per workload, on distinct seeds, run alternately.

    A metric passes when each set's quartile spread stays within the
    metric's bound and the two sets' medians differ by no more than the
    bound, in either direction; the failed share must be the same in both
    sets.
    """
    metrics = spec["end_to_end"]
    report: dict = {}
    ok_all = True
    for name in names:
        sets: list[list[dict]] = [[], []]
        for k in range(runs):
            for which in (0, 1):
                sets[which].append(run_child(name, seed + which * runs + k, seconds, 0))
        print(f"== {name}: 2 sets x {runs} runs, seeds {seed}..{seed + 2 * runs - 1}")
        print(f"  {'metric':<16}{'bound':>7}  {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8}  shift   verdict")
        failed_shares = {sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets}
        workload_ok = len(failed_shares) == 1 and all(r["correct"] for s in sets for r in s)
        report[name] = {}
        for m in metrics:
            bound, key = m["bound"], m["name"]
            values = [[r["metrics"][key]["value"] for r in s] for s in sets]
            stats = [spread(v) for v in values]
            shift = (stats[1][0] - stats[0][0]) / stats[0][0]
            ok = all(st[3] <= bound for st in stats) and abs(shift) <= bound
            steady = all(st[3] < bound / 3 for st in stats)
            verdict = ("steady" if steady else "agrees") if ok else "FAILS"
            workload_ok &= ok
            for which, (med, q1, q3, spr) in enumerate(stats):
                tail = f"{shift:+7.3f}  {verdict}" if which == 1 else ""
                print(f"  {key if which == 0 else '':<16}{bound if which == 0 else '':>7}  "
                      f"{'AB'[which]:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spr:>8.4f}  {tail}")
            report[name][key] = {"bound": bound, "values": values, "shift": shift,
                                 "ok": ok, "steady": steady}
        print(f"  failed share per set: {sorted(failed_shares)}; workload {'agrees' if workload_ok else 'FAILS'}")
        ok_all &= workload_ok
    print(json.dumps(report))
    return 0 if ok_all else 1
