"""Benchmark of the datamarket simulator.

    python3 bench/run.py --workload byzantine-committee --seed 1 --seconds 55 --trace 0

Runs the workload's scenarios through ``datamarket run`` again and again
for ``--seconds`` seconds, checks every run's outputs, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the unit of
work is the round.  ``--workload all`` runs every workload, untraced and
traced, and ``--steady N`` runs the steadiness self-check; see README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _import_program() -> None:
    """Import ``datamarket`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import datamarket
    except ImportError as exc:
        sys.exit(f"bench: cannot import datamarket from {src}: {exc}")
    if src.resolve() not in Path(datamarket.__file__).resolve().parents:
        sys.exit(f"bench: datamarket imported from {datamarket.__file__}, not {src}")


def report(spec: dict, workload: str, seed: int, traced: bool, outcome: dict) -> dict:
    metrics = spec["per_layer" if traced else "end_to_end"]
    values = outcome["values"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(f"workload {workload}  seed {seed}  {'traced' if traced else 'untraced'}  "
          f"passes {outcome['passes']}")
    for m in metrics:
        print(f"  {m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  rounds attempted {outcome['attempted']}, failed {outcome['failed']}")
    return {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness self-check: two sets of N runs per workload")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        sys.exit(f"bench: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.steady or args.workload == "all":
        import suite

        if args.steady:
            return suite.steadiness(names, seed, seconds, args.steady, spec)
        return suite.run_all(names, seed, seconds)

    from measure import measure

    outcome = measure(args.workload, seed, seconds, bool(args.trace), OUT)
    result = report(spec, args.workload, seed, bool(args.trace), outcome)
    print(json.dumps(result))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
