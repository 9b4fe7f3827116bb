"""Orchestrates the full marketplace loop over ledger, consensus, and training.

Per global round, every honest executor replays the same deterministic
sampling/aggregation computation (the shared seed depends on the auction
and round only), commits a digest of its result, and the likelihood rule
picks the digest to adopt.  The winning digest's preimage is verified
before adoption.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import adversary as adv
from .consensus import AgreementOutcome, ConsensusParams, agree, sortition, threshold
# bench/tracing.py times the consensus layer through these harness names.
from .consensus import best_digest, decide, likelihood_scores  # noqa: F401
from .economics import (
    PayoffParams,
    PayoffReport,
    RevenueReport,
    analyze_payoffs,
    distribute_revenue,
    geometric_catch_prob,
)
from .errors import NoConsensus
from .fedcore import run_federated_round
from .ledger import Ledger
from .metrics import MetricsSink, rounds_csv
from .rng import derive_seed
from .scenario import Scenario
from .training import (
    DatasetSplits,
    LabeledDataset,
    ModelWeights,
    dirichlet_partition,
    evaluate_metric,
    init_weights,
    load_idx,
    local_update,
    partition_shards,
    split_dataset,
    state_digest,
    synth_dataset,
    utility,
)

State = tuple[ModelWeights, np.ndarray, np.ndarray]


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
    run: RunResult | None
    revenue: RevenueReport | None
    payoff: PayoffReport | None
    winner: str | None
    refunded: bool


def build_splits(scenario: Scenario) -> DatasetSplits:
    """Materialize the scenario's dataset: synthetic clusters or IDX files."""
    if scenario.data.kind == "synthetic":
        return synth_dataset(
            scenario.synth_spec(),
            scenario.data.rows,
            derive_seed(scenario.root_seed, "dataset"),
        )
    if scenario.data.kind == "idx":
        full = load_idx(scenario.data.images, scenario.data.labels)
        return split_dataset(full)
    raise ValueError(f"unknown dataset kind {scenario.data.kind!r}")


class _SellerPool:
    """Resolves per-seller updates, honest or adversarial, for one round."""

    def __init__(
        self,
        scenario: Scenario,
        shards: list[LabeledDataset],
        byz_sellers: frozenset[int],
        utility_set: LabeledDataset,
        spec,
    ):
        self.scenario = scenario
        self.shards = shards
        self.byz_sellers = byz_sellers
        self.utility_set = utility_set
        self.spec = spec
        self.round_seed = b"\x00" * 32

    def local_delta(self, seller: int, values: np.ndarray) -> np.ndarray:
        shard = self.shards[seller]
        if len(shard) == 0:
            return np.zeros_like(values)
        w = ModelWeights(values, self.spec)
        seed = derive_seed(self.round_seed, "seller", seller)
        train = self.scenario.train
        if seller in self.byz_sellers:
            return adv.malicious_seller_update(
                self.scenario.adversary.seller_strategy,
                w,
                shard,
                seed,
                epochs=train.epochs,
                lr=train.lr,
                batch=train.batch,
                scale_factor=self.scenario.adversary.scale_factor,
            )
        return local_update(
            w, shard, epochs=train.epochs, lr=train.lr, batch=train.batch, seed=seed
        )

    def utility(self, stack: np.ndarray) -> np.ndarray:
        return utility(self.spec, stack, self.utility_set)


def _aggregator_for(scenario: Scenario) -> str:
    return "mean" if scenario.ablation == "no-krum" else "corrected-krum"


def run_core(
    scenario: Scenario,
    *,
    ledger: Ledger | None = None,
    auction_label: str = "standalone",
    seller_ids: list[str] | None = None,
    splits: DatasetSplits | None = None,
    shards: list[LabeledDataset] | None = None,
    sink: MetricsSink | None = None,
) -> RunResult:
    """Run the training/consensus loop until the metric target or round cap.

    Returns the adopted weights plus the per-seller access counts and
    per-node participation counts that drive revenue distribution.
    """
    started = time.perf_counter()
    root = scenario.root_seed
    sink = sink if sink is not None else MetricsSink()

    if splits is None:
        splits = build_splits(scenario)
    if seller_ids is None:
        seller_ids = [f"s{i:03d}" for i in range(scenario.sellers)]
    n_sellers = len(seller_ids)
    if shards is None:
        plan = dirichlet_partition(
            splits.train,
            n_sellers,
            scenario.data.partition_alpha,
            derive_seed(root, "partition"),
        )
        shards = partition_shards(splits.train, plan)

    own_ledger = ledger is None
    if own_ledger:
        ledger = Ledger(
            seed=scenario.seed,
            auction_window=scenario.auction_window,
            commit_timeout=scenario.timeout_blocks,
        )
    node_ids = [f"n{i:03d}" for i in range(scenario.nodes)]
    if own_ledger:
        for nid in node_ids:
            ledger.register_node(nid)

    spec = scenario.model_spec(
        input_dim=splits.train.features.shape[1], class_count=splits.train.class_count
    )
    weights = init_weights(spec, derive_seed(root, "init"))
    p = np.full(n_sellers, 1.0 / n_sellers)
    access_counts = np.zeros(n_sellers, dtype=np.int64)
    participation: dict[str, int] = {nid: 0 for nid in node_ids}

    params = scenario.consensus_params()
    theta = threshold(params)
    byz_nodes, byz_sellers = adv.assign_roles(
        node_ids, list(range(n_sellers)), scenario.adversary, derive_seed(root, "adversary")
    )
    utility_set = (
        splits.validation.head(scenario.data.utility_eval_rows)
        if scenario.data.utility_eval_rows
        else splits.validation
    )
    pool = _SellerPool(scenario, shards, byz_sellers, utility_set, spec)
    tau = scenario.request.threshold

    records: list[dict] = []
    prev_digest: bytes | None = None
    prev_state: State | None = None
    wrong_adoptions = 0
    # Validation accuracy of the current weights: the stopping test, the
    # round's record and the final figure all read this one evaluation.
    val_acc = evaluate_metric(weights, splits.validation)
    t = 0
    while t < scenario.t_max and val_acc < tau:
        pool.round_seed = derive_seed(root, "fed", auction_label, t)
        fed = run_federated_round(
            weights.values,
            p,
            access_counts,
            scenario.osmd,
            pool.round_seed,
            pool,
            aggregator=_aggregator_for(scenario),
        )
        honest_state: State = (
            weights.with_values(fed.values),
            fed.probabilities,
            fed.access_counts,
        )
        honest_digest = state_digest(*honest_state)

        if scenario.ablation == "no-consensus":
            accepted, mini_rounds = _single_executor_round(
                scenario, root, auction_label, t, node_ids, byz_nodes, participation,
                honest_state, honest_digest, prev_state,
            )
        else:
            accepted, mini_rounds = _consensus_round(
                scenario, root, auction_label, t, ledger, node_ids, byz_nodes,
                participation, params, theta, honest_state, honest_digest,
                prev_state, prev_digest, sink,
            )

        state, digest = accepted
        if state_digest(*state) != digest:
            raise NoConsensus("adopted state does not match the accepted digest")
        weights, p, access_counts = state
        if digest != honest_digest:
            wrong_adoptions += 1
        prev_digest, prev_state = digest, state

        val_acc = evaluate_metric(weights, splits.validation)
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

    return RunResult(
        weights=weights,
        probabilities=p,
        access_counts=access_counts,
        participation=participation,
        records=records,
        seller_ids=list(seller_ids),
        final_validation_accuracy=val_acc,
        final_test_accuracy=evaluate_metric(weights, splits.test),
        termination="metric" if val_acc >= tau else "round-cap",
        wrong_adoptions=wrong_adoptions,
        wall_time_s=time.perf_counter() - started,
    )


def _poisoned_state(
    scenario: Scenario, root: bytes, auction_label: str, t: int, honest_state: State
) -> State:
    """Revealable forged state Byzantine executors stand behind in round t."""
    return adv.poisoned_state(
        *honest_state,
        seed=derive_seed(root, "byz", auction_label, t),
        strength=scenario.adversary.poison_strength,
    )


def _single_executor_round(
    scenario, root, auction_label, t, node_ids, byz_nodes, participation,
    honest_state, honest_digest, prev_state,
) -> tuple[tuple[State, bytes], int]:
    seed = derive_seed(root, "sortition", auction_label, t, 1)
    executor = sortition(seed, node_ids, 1)[0]
    participation[executor] += 1
    if executor not in byz_nodes:
        return (honest_state, honest_digest), 1
    if scenario.adversary.node_strategy == "stale-digest" and prev_state is not None:
        state = prev_state
    else:
        state = _poisoned_state(scenario, root, auction_label, t, honest_state)
    return (state, state_digest(*state)), 1


def _consensus_round(
    scenario, root, auction_label, t, ledger, node_ids, byz_nodes, participation,
    params: ConsensusParams, theta: float, honest_state, honest_digest,
    prev_state, prev_digest, sink: MetricsSink,
) -> tuple[tuple[State, bytes], int]:
    """One global round's agreement: the committees commit on the ledger."""
    reveals: dict[bytes, State] = {honest_digest: honest_state}
    strategy = scenario.adversary.node_strategy
    colluding_digest = None
    if byz_nodes and strategy == "colluding-common-digest":
        poison = _poisoned_state(scenario, root, auction_label, t, honest_state)
        colluding_digest = state_digest(*poison)
        reveals[colluding_digest] = poison
    if prev_digest is not None and prev_state is not None:
        reveals[prev_digest] = prev_state
    ctx = adv.RoundContext(prev_digest=prev_digest, colluding_digest=colluding_digest)
    shared = adv.shared_forgery(strategy, ctx)

    def commit(i: int, size: int) -> Counter:
        es_seed = derive_seed(root, "sortition", auction_label, ledger.beacon(), t, i)
        members = sortition(es_seed, node_ids, size)
        ledger.publish_execution_set(t, i, members)
        commits: list[tuple[str, bytes]] = []
        for node in members:
            participation[node] += 1
            if node not in byz_nodes:
                digest = honest_digest
            elif shared is not None:
                digest = shared
            else:
                digest = adv.byzantine_node_digest(
                    strategy,
                    honest_digest,
                    ctx,
                    derive_seed(root, "byz-digest", auction_label, t, i, node),
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

    accepted, mini_rounds = agree(params, theta, commit, reveals, on_decision)
    return (reveals[accepted], accepted), mini_rounds


def run_auction_to_completion(
    scenario: Scenario, sink: MetricsSink | None = None
) -> PipelineResult:
    """Full pipeline: registration, auction, training consensus, payout."""
    sink = sink if sink is not None else MetricsSink()
    ledger = Ledger(
        seed=scenario.seed,
        auction_window=scenario.auction_window,
        commit_timeout=scenario.timeout_blocks,
        tx_fee=scenario.tx_fee,
    )
    request = scenario.data_request()

    buyer = ledger.register_user("buyer000", is_buyer=True)
    ledger.mint(buyer, request.amount + scenario.tx_fee)
    rivals = []
    for k, amount in enumerate(scenario.competing_bids):
        rival = ledger.register_user(f"buyer{k + 1:03d}", is_buyer=True)
        ledger.mint(rival, amount + scenario.tx_fee)
        rivals.append((rival, amount))

    seller_ids = [ledger.register_user(f"s{i:03d}", is_buyer=False) for i in range(scenario.sellers)]
    node_ids = [ledger.register_node(f"n{i:03d}") for i in range(scenario.nodes)]

    splits = build_splits(scenario)
    plan = dirichlet_partition(
        splits.train,
        scenario.sellers,
        scenario.data.partition_alpha,
        derive_seed(scenario.root_seed, "partition"),
    )
    shards = partition_shards(splits.train, plan)
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
        return PipelineResult(
            ledger=ledger, run=None, revenue=None, payoff=None, winner=None, refunded=True
        )

    winner = ledger.settlements[settlement].winner
    matched_ids = sorted(matched)
    index_of = {sid: k for k, sid in enumerate(seller_ids)}
    matched_shards = [shards[index_of[sid]] for sid in matched_ids]
    run = run_core(
        scenario,
        ledger=ledger,
        auction_label="+".join(sorted(request.tags)),
        seller_ids=matched_ids,
        splits=splits,
        shards=matched_shards,
        sink=sink,
    )

    contribs = {sid: int(run.access_counts[k]) for k, sid in enumerate(matched_ids)}
    node_counts = {nid: count for nid, count in run.participation.items()}
    if sum(contribs.values()) == 0 or sum(node_counts.values()) == 0:
        ledger.refund_settlement(settlement)
        return PipelineResult(
            ledger=ledger, run=run, revenue=None, payoff=None, winner=winner, refunded=True
        )

    revenue = distribute_revenue(won_request.amount, contribs, node_counts)
    ledger.payout_escrow(settlement, revenue.transfers)

    beta = scenario.consensus.confidence_beta
    rounds_for_analysis = max((rec["mini_rounds"] for rec in run.records), default=1)
    payoff = analyze_payoffs(
        PayoffParams(
            seller_pool=float(revenue.seller_share),
            node_pool=float(revenue.node_share),
            node_count=scenario.nodes,
            bribe=scenario.analysis.bribe,
            quality_honest=scenario.analysis.quality_honest,
            quality_claimed=scenario.analysis.quality_claimed,
            success_prob=beta,
            catch_prob=geometric_catch_prob(scenario.analysis.detect_rate),
        ),
        rounds=rounds_for_analysis,
    )
    sink.emit(
        "settlement",
        bid=won_request.amount,
        node_share=revenue.node_share,
        seller_share=revenue.seller_share,
    )
    return PipelineResult(
        ledger=ledger, run=run, revenue=revenue, payoff=payoff, winner=winner, refunded=False
    )


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
    node_ids = [f"n{i:03d}" for i in range(params.total_nodes)]
    byz_count = int(byz_fraction * params.total_nodes)
    byz = frozenset(node_ids[:byz_count])  # identities are exchangeable
    root = derive_seed("consensus-trials", seed)
    theta = threshold(params)
    outcomes = []
    for k in range(trials):
        trial = derive_seed(root, "trial", k)
        honest, wrong = derive_seed(trial, "honest"), derive_seed(trial, "wrong")

        def commit(i: int, size: int) -> Counter:
            members = sortition(derive_seed(trial, "es", i), node_ids, size)
            n_wrong = sum(1 for m in members if m in byz)
            return Counter({honest: size - n_wrong, wrong: n_wrong})

        accepted, mini_rounds = agree(params, theta, commit)
        outcomes.append(AgreementOutcome(accepted, mini_rounds, accepted == wrong))
    return outcomes
