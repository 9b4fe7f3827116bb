"""Output checks run on every pipeline run the benchmark makes.

Each check recomputes a quantity apart from the program -- from the
scenario, from closed forms the protocol defines, or from the exported
artifacts -- or tests a property the method must have.  None compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

import numpy as np

from datamarket.harness import build_splits
from datamarket.scenario import Scenario
from datamarket.training import state_digest

NODE_SHARE_PERCENT = 30  # the paper's split: 30% to compute nodes, 70% to sellers
WRONG_ADOPTION_TAIL = 1e-6


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def accuracy_window(scenario: Scenario) -> tuple[float, float]:
    """Floor and ceiling for final test accuracy from the nearest-class-mean classifier.

    The cluster means are ``separation * e_k`` by construction of the
    synthetic task, so the classifier needs no training.  With equal
    priors and isotropic noise it is the Bayes rule, so a trained model
    can beat it on the test split only by sampling luck.
    """
    spec = scenario.synth_spec()
    test = build_splits(scenario).test
    means = np.zeros((spec.class_count, spec.dims))
    means[np.arange(spec.class_count), np.arange(spec.class_count)] = spec.separation
    dist = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    nearest = float((dist.argmin(axis=1) == test.labels).mean())
    chance = 1.0 / spec.class_count
    n = len(test)
    slack = 4.0 * math.sqrt(nearest * (1.0 - nearest) / n) + 1.0 / n
    return (chance + nearest) / 2.0, nearest + slack


def committee_size(i: int, s0: int, population: int) -> int:
    return min(s0 + 2 ** (i - 1) - 1, population)


def closed_form_threshold(scenario: Scenario) -> float:
    c = scenario.consensus
    f, q, beta, n = c.byz_fraction_max, c.sample_fraction, c.confidence_beta, scenario.nodes
    return math.log((1 - beta) / beta) * 2 * q * (1 - q) * n * (1 - f) * f / ((1 - f) - f)


def wrong_adoption_limit(rounds: int, beta: float) -> int:
    """Smallest k with P[Binomial(rounds, beta) > k] below the tail level."""
    tail = 1.0
    for k in range(rounds + 1):
        tail -= math.comb(rounds, k) * beta**k * (1 - beta) ** (rounds - k)
        if tail < WRONG_ADOPTION_TAIL:
            return k
    return rounds


def integer_split(total: int, weights: dict[str, int]) -> dict[str, int]:
    scale = sum(weights.values())
    shares = {key: total * w // scale for key, w in weights.items()}
    shares[min(shares)] += total - sum(shares.values())
    return shares


def check_run(scenario: Scenario, run, window: tuple[float, float]) -> None:
    """Checks on one ``datamarket run`` of a scenario.

    ``run`` carries the pipeline result, the emitted events, the
    exported artifact directory and the ledger replayed from the exported
    transaction log.
    """
    result, events, out = run.result, run.events, run.out_dir
    _require(not result.refunded and result.run is not None, "auction refunded, no run")
    core = result.run
    t_max = scenario.t_max
    _require(core.termination == "round-cap", f"termination {core.termination!r}")
    rounds = [e for e in events if e["event"] == "round"]
    _require(len(rounds) == t_max == len(core.records), f"{len(rounds)} rounds, want {t_max}")

    # A wrong adoption, which beta allows, may install poisoned weights or
    # roll the state back a round; the training floor holds only without one.
    wrong = sum(1 for e in rounds if not e["honest_adopted"])
    rolled_back = sum(1 for a, b in zip(rounds, rounds[1:]) if a["accepted_digest"] == b["accepted_digest"])
    floor, ceiling = window
    acc = core.final_test_accuracy
    _require(acc <= ceiling, f"test accuracy {acc:.4f} above the ceiling {ceiling:.4f}")
    _require(wrong > 0 or acc >= floor, f"test accuracy {acc:.4f} below the floor {floor:.4f}")

    n = scenario.sellers
    min_p = scenario.osmd.floor_fraction / n - 1e-12
    for e in rounds:
        p = np.asarray(e["probabilities"])
        _require(len(p) == n, f"round {e['round']}: {len(p)} probabilities, want {n}")
        _require(abs(float(p.sum()) - 1.0) <= 1e-9, f"round {e['round']}: p sums to {p.sum()!r}")
        _require(float(p.min()) >= min_p, f"round {e['round']}: p below the fairness floor")
    _require(
        int(core.access_counts.sum()) == (t_max - rolled_back) * scenario.osmd.batch_size,
        "access counts do not sum to rounds x batch size",
    )

    s0 = scenario.consensus_params().base_size
    population = scenario.nodes
    theta = closed_form_threshold(scenario)
    by_round: dict[int, list[dict]] = {}
    for e in events:
        if e["event"] == "consensus":
            by_round.setdefault(e["round"], []).append(e)
    seats = 0
    for e in rounds:
        t = e["round"]
        minis = by_round.get(t, [])
        _require(len(minis) == e["mini_rounds"], f"round {t}: mini-round count mismatch")
        counts: list[Counter] = []
        sizes: list[int] = []
        for i, mini in enumerate(minis, start=1):
            size = committee_size(i, s0, population)
            commits = result.ledger.commits_for(t, i)
            _require(len(commits) == size, f"round {t}.{i}: {len(commits)} commits, {size} seats")
            counts.append(Counter(c.digest.hex() for c in commits))
            sizes.append(size)
            seats += size
            scores = {
                k: sum((2 * c.get(k, 0) - c_l) * c_l for c, c_l in zip(counts, sizes))
                for k in set().union(*counts)
            }
            for k, reported in mini["scores"].items():
                _require(scores.get(k) == reported, f"round {t}.{i}: score of {k[:12]} differs")
        adopted = minis[-1]["accepted"]
        _require(adopted == e["accepted_digest"], f"round {t}: adopted digest differs from decision")
        _require(
            scores[adopted] > theta or sizes[-1] == population,
            f"round {t}: adopted digest scores {scores[adopted]} <= threshold {theta:.1f}",
        )
    _require(sum(core.participation.values()) == seats, "participation differs from committee seats")

    final = state_digest(core.weights, core.probabilities, core.access_counts).hex()
    _require(final == rounds[-1]["accepted_digest"], "final state does not hash to the adopted digest")

    _require(wrong == core.wrong_adoptions, "wrong-adoption count differs from the events")
    limit = wrong_adoption_limit(t_max, scenario.consensus.confidence_beta)
    _require(wrong <= limit, f"{wrong} wrong adoptions, binomial tail allows {limit}")

    tx = [json.loads(line) for line in (out / "tx_log.ndjson").read_text().splitlines()]
    payouts = [entry for entry in tx if entry["op"] == "payout_escrow"]
    _require(len(payouts) == 1, f"{len(payouts)} payouts, want 1")
    bid = scenario.request.amount
    node_share = NODE_SHARE_PERCENT * bid // 100
    sellers = {sid: int(c) for sid, c in zip(core.seller_ids, core.access_counts)}
    expected = integer_split(node_share, dict(core.participation))
    expected.update(integer_split(bid - node_share, sellers))
    _require(payouts[0]["transfers"] == expected, "payout differs from the integer 30/70 split")

    snapshot = json.loads((out / "ledger.json").read_text())
    _require(run.replayed.snapshot() == snapshot == result.ledger.snapshot(),
             "replayed ledger differs from the exported snapshot")
    balances = sum(a["balance"] for a in snapshot["accounts"].values())
    escrow = sum(a["escrowed"] for a in snapshot["active_auctions"])
    escrow += sum(s["amount"] for s in snapshot["settlements"].values())
    _require(balances + escrow + snapshot["fees_collected"] == snapshot["total_supply"],
             "tokens not conserved")


def fingerprint(run) -> str:
    """Digest of the run's exported transaction log; equal for equal runs."""
    return hashlib.sha256((run.out_dir / "tx_log.ndjson").read_bytes()).hexdigest()
