"""Orchestrates the full marketplace loop over ledger, consensus, and training.

Per global round, every honest executor replays the same deterministic
sampling/aggregation computation, ``honest_round``: a pure function of the
run's fixed ``Market``, the adopted state and the round index.  Each
executor commits a digest of its result, and the likelihood rule picks
the digest to adopt.  The winning digest's preimage is verified before
adoption.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from . import adversary as adv
from .consensus import AgreementOutcome, ConsensusParams, agree, sortition, threshold
# bench/tracing.py times the consensus layer through these harness names.
from .consensus import best_digest, decide, likelihood_scores  # noqa: F401
from .economics import PayoffReport, RevenueReport, analyze_payoffs, distribute_revenue
from .errors import NoConsensus
from .fedcore import FederatedRoundResult, run_federated_round
from .ledger import Ledger
from .metrics import MetricsSink, rounds_csv
from .rng import derive_seed
from .scenario import Scenario
from .training import (
    Adopted,
    DatasetSplits,
    LabeledDataset,
    ModelSpec,
    ModelWeights,
    RowSet,
    State,
    as_stack,
    dirichlet_partition,
    evaluate_metric,
    gather_rows,
    init_weights,
    load_idx,
    local_updates,
    partition_shards,
    split_dataset,
    state_digest,
    synth_dataset,
    utility,
)

@dataclass
class RunResult:
    weights: ModelWeights
    probabilities: np.ndarray
    access_counts: np.ndarray
    participation: dict[str, int]
    records: list[dict]  # the payloads of the run's ``round`` events
    seller_ids: list[str]
    final_validation_accuracy: float
    final_test_accuracy: float
    termination: str
    wrong_adoptions: int
    wall_time_s: float


@dataclass
class PipelineResult:
    ledger: Ledger
    run: RunResult | None = None
    revenue: RevenueReport | None = None
    payoff: PayoffReport | None = None
    winner: str | None = None
    refunded: bool = True  # the escrow went back to the winning bidder

    def summary(self) -> dict:
        """The outcome ``datamarket run`` writes to ``summary.json``."""
        run, revenue = self.run, self.revenue
        shares = ("bid_amount", "node_share", "seller_share")
        outcome = ("final_validation_accuracy", "final_test_accuracy", "termination", "wall_time_s")
        return {
            "refunded": self.refunded,
            "winner": self.winner,
            "revenue": {name: getattr(revenue, name) for name in shares} if revenue else None,
            "payoff": self.payoff.to_dict() if self.payoff else None,
            "rounds": len(run.records) if run else 0,
            **{name: getattr(run, name) if run else None for name in outcome},
        }


def build_splits(scenario: Scenario) -> DatasetSplits:
    """Materialize the scenario's dataset: synthetic clusters or IDX files."""
    if scenario.data.kind == "idx":
        full = load_idx(scenario.data.images, scenario.data.labels)
        return split_dataset(full)
    return synth_dataset(
        scenario.synth_spec(),
        scenario.data.rows,
        derive_seed(scenario.root_seed, "dataset"),
    )


def _ids(prefix: str, count: int) -> tuple[str, ...]:
    """Participant ids: ``s000``, ``s001``, ... for sellers, ``n000``, ... for nodes."""
    return tuple([f"{prefix}{i:03d}" for i in range(count)])


def _seller_shards(scenario: Scenario, splits: DatasetSplits) -> list[RowSet]:
    """Every seller's training rows, by index: a seeded Dirichlet partition of the train split."""
    seed = derive_seed(scenario.root_seed, "partition")
    plan = dirichlet_partition(splits.train, scenario.sellers, scenario.data.partition_alpha, seed)
    return partition_shards(splits.train, plan)


@dataclass(frozen=True, eq=False)
class Market:
    """The constants every round of one run reads, fixed before the first round.

    Seller ``i`` of a round is ``seller_ids[i]``, holding ``shards[i]``: the
    sellers the auction matched, in id order, or every seller of the
    scenario in a standalone run.  A shard names its rows by index into the
    run's one feature array, and a round gathers the rows of the sellers it
    trains.  ``node_ids`` is the run's one node table, the ids the ledger
    registered; committees index it, and ``byz_nodes`` and ``byz_sellers``
    mask it and the sellers.  The market is also the rounds'
    :class:`fedcore.SellerOracle`.

    Besides these constants, the market remembers the last stack it scored
    and each row's loss and accuracy on the utility set, and finds a row in
    it by its bits.  A round's base row is normally the previous round's
    adopted candidate, so it is not scored again; when the utility set is the
    validation split, the adopted candidate's validation accuracy comes
    from the same pass.  A remembered score is the score the row would get
    afresh, since a row's scores do not depend on the rest of its stack.
    """

    scenario: Scenario
    root: bytes  # the scenario's root seed
    label: str  # the auction's tags; every per-round seed derives from root and label
    seller_ids: tuple[str, ...]
    shards: tuple[RowSet, ...]
    splits: DatasetSplits
    node_ids: tuple[str, ...]
    byz_nodes: np.ndarray
    byz_sellers: np.ndarray
    spec: ModelSpec
    utility_set: LabeledDataset
    # the last stack scored, as its rows' bits, with each row's loss and accuracy
    _last: list = field(default_factory=list, init=False, repr=False)

    @classmethod
    def build(
        cls, scenario: Scenario, label: str, seller_ids: Sequence[str], node_ids: tuple[str, ...],
        splits: DatasetSplits, shards: Sequence[RowSet],
    ) -> Market:
        """The market over these sellers and nodes; Byzantine roles follow from the scenario."""
        if len(node_ids) != scenario.nodes:
            raise ValueError(f"the scenario has {scenario.nodes} nodes, not {len(node_ids)}")
        root = scenario.root_seed
        byz_nodes, byz_sellers = adv.assign_roles(
            len(node_ids), len(seller_ids), scenario.adversary, derive_seed(root, "adversary")
        )
        train, validation = splits.train, splits.validation
        rows = scenario.data.utility_eval_rows
        return cls(
            scenario=scenario, root=root, label=label, seller_ids=tuple(seller_ids),
            shards=tuple(shards), splits=splits, node_ids=node_ids, byz_nodes=byz_nodes,
            byz_sellers=byz_sellers,
            spec=ModelSpec(
                train.dataset.features.shape[1], train.class_count, scenario.hidden_units
            ),
            utility_set=validation.head(rows) if rows else validation,
        )

    @classmethod
    def standalone(cls, scenario: Scenario) -> Market:
        """Every seller of the scenario, outside any auction."""
        splits = build_splits(scenario)
        shards = _seller_shards(scenario, splits)
        return cls.build(
            scenario, "standalone", _ids("s", scenario.sellers), _ids("n", scenario.nodes), splits,
            shards,
        )

    def initial_state(self) -> State:
        """Seeded initial weights, a uniform distribution and zero access counts."""
        n = len(self.seller_ids)
        weights = init_weights(self.spec, derive_seed(self.root, "init"))
        return weights, np.full(n, 1.0 / n), np.zeros(n, dtype=np.int64)

    def local_deltas(
        self, sellers: Sequence[int], values: np.ndarray, seeds: Sequence[bytes]
    ) -> np.ndarray:
        """The sellers' deltas for the weights, every non-empty shard trained in one call.

        The rows of these sellers' shards are gathered with one index.  A
        seller with an empty shard proposes a zero delta.  A Byzantine
        seller trains on its adversarial shard, and its update is then
        transformed by its strategy.
        """
        adversary, train = self.scenario.adversary, self.scenario.train
        deltas = np.zeros((len(sellers), len(values)))
        shards = [self.shards[i] for i in sellers]
        held = [j for j, shard in enumerate(shards) if len(shard)]
        if not held:
            return deltas
        pool = gather_rows([shards[j] for j in held])
        sizes = [len(shards[j]) for j in held]
        byz = [j for j in held if self.byz_sellers[sellers[j]]]
        firsts = dict(zip(held, accumulate(sizes, initial=0)))
        for j in byz:  # views of the rows this round gathered, so the labels are its own to change
            shard = pool.take(slice(firsts[j], firsts[j] + len(shards[j])))
            shard.labels[:] = adv.malicious_seller_shard(adversary, shard).labels
        deltas[held] = local_updates(
            ModelWeights(values, self.spec), pool, sizes, [seeds[j] for j in held],
            epochs=train.epochs, lr=train.lr, batch=train.batch,
        )
        for j in byz:
            deltas[j] = adv.malicious_seller_update(adversary, deltas[j], seeds[j])
        return deltas

    def utility(self, stack: np.ndarray) -> np.ndarray:
        """Each row's loss on the utility set; a row 0 in the last stack scored is not rescored.

        The other rows are scored in one pass, and this stack and its scores
        then replace the remembered ones.
        """
        stack = as_stack(self.spec, stack)
        base = self._remembered(stack[0])
        fresh = 0 if base is None else 1
        losses, accuracies = np.empty(len(stack)), np.empty(len(stack))
        if base is not None:
            losses[0], accuracies[0] = self._last[1][base], self._last[2][base]
        if fresh < len(stack):
            losses[fresh:], accuracies[fresh:] = utility(self.spec, stack[fresh:], self.utility_set)
        self._last[:] = stack.view(np.int64).copy(), losses, accuracies
        return losses.copy()

    def validation_accuracy(self, weights: ModelWeights) -> float:
        """Accuracy of the weights on the validation split.

        When the utility set is the validation split, it is read from the
        last stack scored; weights not in it are scored as a stack of their
        own, which the next round's base row then finds.
        """
        if self.utility_set is not self.splits.validation:
            return evaluate_metric(weights, self.splits.validation)
        row = self._remembered(weights.values)
        if row is None:
            self.utility(weights.values[None])
            row = 0
        return float(self._last[2][row])

    def _remembered(self, values: np.ndarray) -> int | None:
        """Index of the first row of the last stack scored with the same bits as values."""
        if not self._last:
            return None
        matches = (self._last[0] == np.asarray(values, dtype=np.float64).view(np.int64)).all(axis=1)
        return int(matches.argmax()) if matches.any() else None

    def forgery_seed(self, t: int) -> bytes:
        """Seed of the state Byzantine executors forge in round t."""
        return derive_seed(self.root, "byz", self.label, t)


def honest_round(market: Market, state: State, t: int) -> tuple[State, bytes, FederatedRoundResult]:
    """Round t's honest work on state: the next state, its digest and the round's result.

    A pure function of its arguments, so every honest executor that holds
    the market and the state computes the same digest.
    """
    weights, p, counts = state
    scenario = market.scenario
    fed = run_federated_round(
        weights.values, p, counts, scenario.osmd, derive_seed(market.root, "fed", market.label, t),
        market, aggregator="mean" if scenario.ablation == "no-krum" else "corrected-krum",
    )
    new_state = (weights.with_values(fed.values), fed.probabilities, fed.access_counts)
    return new_state, state_digest(*new_state), fed


def run_core(
    scenario: Scenario,
    *,
    market: Market | None = None,
    ledger: Ledger | None = None,
    sink: MetricsSink | None = None,
) -> RunResult:
    """Run the training/consensus loop until the metric target or round cap.

    Without a market the run is standalone (:meth:`Market.standalone`);
    without a ledger it commits on a fresh one with the market's nodes
    registered.  Returns the adopted weights plus the per-seller access
    counts and per-node participation counts that drive revenue
    distribution.
    """
    started = time.perf_counter()
    sink = sink if sink is not None else MetricsSink()
    if market is None:
        market = Market.standalone(scenario)
    elif market.scenario != scenario:
        raise ValueError("the market was built for another scenario")
    if ledger is None:
        ledger = scenario.ledger()
        ledger.register_nodes(market.node_ids)

    tau = scenario.request.threshold
    participation = np.zeros(len(market.node_ids), dtype=np.int64)  # seats per node
    records: list[dict] = []
    prev: Adopted | None = None
    wrong_adoptions = 0
    state = market.initial_state()
    # Validation accuracy of the current weights: the stopping test, the
    # round's record and the final figure all read this one evaluation.
    val_acc = market.validation_accuracy(state[0])
    t = 0
    while t < scenario.t_max and val_acc < tau:
        honest_state, honest_digest, fed = honest_round(market, state, t)
        honest = (honest_state, honest_digest)
        if scenario.ablation == "no-consensus":
            adopted, mini_rounds = _single_executor_round(market, t, participation, honest, prev)
        else:
            adopted, mini_rounds = _consensus_round(
                market, t, ledger, participation, honest, prev, sink
            )

        state, digest = adopted
        if state_digest(*state) != digest:
            raise NoConsensus("adopted state does not match the accepted digest")
        if digest != honest_digest:
            wrong_adoptions += 1
        prev = adopted

        weights, p, access_counts = state
        val_acc = market.validation_accuracy(weights)
        record = dict(
            round=t,
            mini_rounds=mini_rounds,
            accepted_digest=digest.hex(),
            accuracy=val_acc,
            probabilities=p.tolist(),
            access_counts=access_counts.tolist(),
            sampled=list(fed.sampled),
            chosen_seller=fed.chosen_seller,
            honest_adopted=digest == honest_digest,
        )
        records.append(record)
        sink.emit("round", **record)
        t += 1

    weights, p, access_counts = state
    return RunResult(
        weights=weights,
        probabilities=p,
        access_counts=access_counts,
        participation=dict(zip(market.node_ids, participation.tolist())),
        records=records,
        seller_ids=list(market.seller_ids),
        final_validation_accuracy=val_acc,
        final_test_accuracy=evaluate_metric(weights, market.splits.test),
        termination="metric" if val_acc >= tau else "round-cap",
        wrong_adoptions=wrong_adoptions,
        wall_time_s=time.perf_counter() - started,
    )


def _single_executor_round(
    market: Market, t: int, participation: np.ndarray, honest: Adopted, prev: Adopted | None
) -> tuple[Adopted, int]:
    seed = derive_seed(market.root, "sortition", market.label, t, 1)
    executor = sortition(seed, len(market.node_ids), 1)[0]
    participation[executor] += 1
    if not market.byz_nodes[executor]:
        return honest, 1
    return adv.lone_forgery(market.scenario.adversary, honest[0], prev, market.forgery_seed(t)), 1


def _consensus_round(
    market: Market, t: int, ledger: Ledger, participation: np.ndarray, honest: Adopted,
    prev: Adopted | None, sink: MetricsSink,
) -> tuple[Adopted, int]:
    """One global round's agreement: the committees commit on the ledger."""
    root, label, node_ids = market.root, market.label, market.node_ids
    honest_state, honest_digest = honest
    reveals: dict[bytes, State] = {honest_digest: honest_state}
    adversary = market.scenario.adversary
    forged = None
    if market.byz_nodes.any():
        forged = adv.committee_forgery(adversary, honest_state, prev, market.forgery_seed(t))
    if forged is not None:
        reveals[forged[1]] = forged[0]

    def commit(i: int, size: int) -> Counter:
        es_seed = derive_seed(root, "sortition", label, ledger.beacon(), t, i)
        seats = sortition(es_seed, len(node_ids), size)
        members = [node_ids[j] for j in seats.tolist()]
        ledger.publish_execution_set(t, i, members)
        participation[seats] += 1
        commits: list[tuple[str, bytes]] = []
        for node, byzantine in zip(members, market.byz_nodes[seats].tolist()):
            if not byzantine:
                digest = honest_digest
            elif forged is not None:
                digest = forged[1]
            else:
                digest = adv.byzantine_node_digest(
                    adversary, derive_seed(root, "byz-digest", label, t, i, node)
                )
            commits.append((node, digest))
        ledger.commit_digests(t, i, commits)
        ledger.advance_block()
        return Counter(digest for _, digest in commits)

    def on_decision(i: int, scores: dict[bytes, int], accepted: bytes | None) -> None:
        sink.emit(
            "consensus",
            round=t,
            mini_round=i,
            scores={k.hex(): v for k, v in sorted(scores.items())},
            accepted=accepted.hex() if accepted else None,
        )

    params = market.scenario.consensus_params()
    accepted, mini_rounds = agree(params, threshold(params), commit, reveals, on_decision)
    return (reveals[accepted], accepted), mini_rounds


def run_auction_to_completion(
    scenario: Scenario, sink: MetricsSink | None = None
) -> PipelineResult:
    """Full pipeline: registration, auction, training consensus, payout."""
    sink = sink if sink is not None else MetricsSink()
    # The dataset is built before the first ledger call, so a dataset that
    # cannot be built leaves nothing registered or minted.
    splits = build_splits(scenario)
    shards = _seller_shards(scenario, splits)
    ledger = scenario.ledger()
    request = scenario.data_request()

    buyer = ledger.register_user("buyer000", is_buyer=True)
    ledger.mint(buyer, request.amount + scenario.tx_fee)
    rivals = []
    for k, amount in enumerate(scenario.competing_bids):
        rival = ledger.register_user(f"buyer{k + 1:03d}", is_buyer=True)
        ledger.mint(rival, amount + scenario.tx_fee)
        rivals.append((rival, amount))

    seller_ids = [ledger.register_user(sid, is_buyer=False) for sid in _ids("s", scenario.sellers)]
    node_ids = _ids("n", scenario.nodes)
    ledger.register_nodes(node_ids)
    registry_tags = frozenset(scenario.data.registry_tags) or request.tags
    for sid, shard in zip(seller_ids, shards):
        ledger.register_dataset(sid, registry_tags, len(shard))

    for rival, amount in rivals:
        ledger.start_auction(replace(request, amount=amount), rival)
    ledger.start_auction(request, buyer)
    while ledger.height < ledger.auction_window:
        ledger.advance_block()
    won_request, matched, settlement = ledger.close_auction(request.tags)

    if not matched:
        return PipelineResult(ledger)

    winner = ledger.settlements[settlement].highest_bidder
    matched_ids = sorted(matched)
    index_of = {sid: k for k, sid in enumerate(seller_ids)}
    market = Market.build(
        scenario,
        "+".join(sorted(request.tags)),
        matched_ids,
        node_ids,
        splits,
        [shards[index_of[sid]] for sid in matched_ids],
    )
    run = run_core(scenario, market=market, ledger=ledger, sink=sink)

    contribs = {sid: int(run.access_counts[k]) for k, sid in enumerate(matched_ids)}
    if sum(contribs.values()) == 0 or sum(run.participation.values()) == 0:
        ledger.refund_settlement(settlement)
        return PipelineResult(ledger, run, winner=winner)

    revenue = distribute_revenue(won_request.amount, contribs, run.participation)
    ledger.payout_escrow(settlement, revenue.transfers)

    rounds_for_analysis = max((rec["mini_rounds"] for rec in run.records), default=1)
    payoff = analyze_payoffs(
        scenario.payoff_params(float(revenue.seller_share), float(revenue.node_share)),
        rounds=rounds_for_analysis,
    )
    sink.emit(
        "settlement",
        bid=won_request.amount,
        node_share=revenue.node_share,
        seller_share=revenue.seller_share,
    )
    return PipelineResult(ledger, run, revenue, payoff, winner, refunded=False)


def byzantine_grid(
    base: Scenario,
    fractions: tuple[float, ...] = (0.2, 0.3, 0.4, 0.5),
    ablations: tuple[str, ...] = ("none", "no-krum", "no-consensus"),
) -> list[tuple[str, Scenario]]:
    """Scenario matrix over Byzantine node fractions and ablations.

    The fraction varies the compute-node adversaries; the seller
    adversary fraction stays at the base scenario's value so the
    aggregation ablation keeps its failure mode at every grid point.
    """
    items = []
    for fraction in fractions:
        for ablation in ablations:
            label = f"byz{int(round(fraction * 100))}_{ablation}"
            scenario = replace(
                base,
                ablation=ablation,
                adversary=replace(base.adversary, node_fraction=fraction),
            )
            items.append((label, scenario))
    return items


def run_experiment_grid(
    items: list[tuple[str, Scenario]], out_dir: str | Path
) -> dict[str, Path]:
    """Run each scenario and write one per-round CSV series per label.

    Failures are recorded in grid_errors.json and do not stop the grid.
    Real wall times go to a separate timings file so the metric CSVs stay
    reproducible byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    errors: dict[str, str] = {}
    timings: list[tuple[str, float, float]] = []
    for label, scenario in items:
        try:
            result = run_core(scenario)
        except Exception as exc:  # record and continue with the rest
            errors[label] = f"{type(exc).__name__}: {exc}"
            continue
        path = out / f"{label}.csv"
        path.write_text(
            rounds_csv(result.records, scenario.adversary.node_fraction, scenario.ablation)
        )
        written[label] = path
        timings.append((label, result.wall_time_s, result.final_test_accuracy))
    if errors:
        (out / "grid_errors.json").write_text(json.dumps(errors, indent=2, sort_keys=True))
    lines = ["label,wall_time_s,final_test_accuracy"]
    lines += [f"{label},{wall:.6f},{acc:.8f}" for label, wall, acc in timings]
    (out / "grid_timings.csv").write_text("\n".join(lines) + "\n")
    return written


def consensus_trials(
    params: ConsensusParams,
    byz_fraction: float,
    trials: int,
    seed: int = 0,
) -> list[AgreementOutcome]:
    """Independent agreement instances against colluding committers.

    Each instance runs :func:`consensus.agree` on committees drawn by
    sortition: honest members commit a common honest digest, Byzantine
    members a common wrong digest.
    """
    byz_count = int(byz_fraction * params.total_nodes)  # the lowest indices; roles are exchangeable
    root = derive_seed("consensus-trials", seed)
    theta = threshold(params)
    outcomes = []
    for k in range(trials):
        trial = derive_seed(root, "trial", k)
        honest, wrong = derive_seed(trial, "honest"), derive_seed(trial, "wrong")

        def commit(i: int, size: int) -> Counter:
            seats = sortition(derive_seed(trial, "es", i), params.total_nodes, size)
            n_wrong = int((seats < byz_count).sum())
            return Counter({honest: size - n_wrong, wrong: n_wrong})

        accepted, mini_rounds = agree(params, theta, commit)
        outcomes.append(AgreementOutcome(accepted, mini_rounds, accepted == wrong))
    return outcomes
