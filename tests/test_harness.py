"""End-to-end orchestration: training/consensus loop, pipeline, grid, CLI."""

import csv
import json
import pickle
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    quick_scenario,
    reference_synth_dataset,
    robustness_scenario,
    traced_memory,
    write_idx_pair,
)
from datamarket import adversary, harness
from datamarket.cli import main as cli_main
from datamarket.consensus import execution_set_size, sortition, threshold
from datamarket.economics import analyze_payoffs
from datamarket.errors import DegenerateParams, DimensionMismatch, EmptyEvalSet, NoConsensus
from datamarket.harness import (
    Market,
    build_splits,
    byzantine_grid,
    consensus_trials,
    honest_round,
    run_auction_to_completion,
    run_core,
    run_experiment_grid,
)
from datamarket.ledger import Ledger
from datamarket.metrics import MetricsSink, agreement_csv, rounds_csv
from datamarket.rng import derive_seed, rng_from
from datamarket.scenario import (
    AdversaryConfig,
    DataConfig,
    RequestConfig,
    Scenario,
    format_config,
    load_scenario,
    parse_config,
)
from datamarket.training import (
    LabeledDataset,
    ModelWeights,
    dirichlet_partition,
    evaluate_metric,
    gather_rows,
    load_idx,
    local_update,
    local_updates,
    state_digest,
    utility,
)


def conserved(ledger: Ledger) -> bool:
    held = sum(a.balance for a in ledger.accounts.values())
    return held + ledger.escrowed_total + ledger.fees_collected == ledger.total_supply


class TestRunCore:
    def test_honest_run_reaches_target_in_single_mini_rounds(self, scenario):
        params = scenario.consensus_params()
        assert execution_set_size(1, params.base_size) ** 2 > threshold(params)
        result = run_core(scenario)
        assert result.termination == "metric"
        assert result.final_validation_accuracy >= 0.95
        assert all(rec["mini_rounds"] == 1 for rec in result.records)
        assert result.wrong_adoptions == 0

    def test_zero_threshold_stops_immediately(self):
        scenario = quick_scenario(request=RequestConfig(tags=("demo",), threshold=0.0))
        result = run_core(scenario)
        assert result.records == []
        assert not result.weights.values.any()  # untouched zero-initialized model
        assert result.access_counts.sum() == 0

    def test_replay_bit_identical(self, scenario):
        a, b = run_core(scenario), run_core(scenario)
        assert [r["accepted_digest"] for r in a.records] == [r["accepted_digest"] for r in b.records]
        assert np.array_equal(a.weights.values, b.weights.values)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert rounds_csv(a.records, 0.0, "none") == rounds_csv(b.records, 0.0, "none")

    def test_adversarial_replay_bit_identical(self):
        scenario = robustness_scenario(5, 0.3, 0.2, t_max=4)
        a, b = run_core(scenario), run_core(scenario)
        assert [r["accepted_digest"] for r in a.records] == [r["accepted_digest"] for r in b.records]

    def test_participation_matches_committee_seats(self, scenario):
        result = run_core(scenario)
        params = scenario.consensus_params()
        expected = sum(
            execution_set_size(i, params.base_size, cap=params.total_nodes)
            for rec in result.records
            for i in range(1, rec["mini_rounds"] + 1)
        )
        assert sum(result.participation.values()) == expected

    def test_access_counts_sum_to_batch_times_rounds(self, scenario):
        result = run_core(scenario)
        assert result.access_counts.sum() == scenario.osmd.batch_size * len(result.records)

    def test_probabilities_stay_feasible(self, scenario):
        result = run_core(scenario)
        floor = scenario.osmd.floor_fraction / scenario.sellers
        for rec in result.records:
            assert abs(sum(rec["probabilities"]) - 1.0) < 1e-9
            assert min(rec["probabilities"]) >= floor - 1e-12

    def test_sink_round_events(self, scenario):
        sink = MetricsSink()
        result = run_core(scenario, sink=sink)
        rounds = [e for e in sink.events if e["event"] == "round"]
        assert [{"event": "round", **rec} for rec in result.records] == rounds
        assert all("probabilities" in e and "chosen_seller" in e for e in rounds)
        consensus_events = [e for e in sink.events if e["event"] == "consensus"]
        assert consensus_events and all("scores" in e for e in consensus_events)
        # jsonl must serialize deterministically
        assert sink.to_jsonl() == sink.to_jsonl()


class TestHonestRound:
    def test_pure_in_market_state_and_round(self):
        # honest nodes, Byzantine sellers: every adopted digest is the honest one
        scenario = robustness_scenario(5, 0.0, 0.2, t_max=5)
        accepted = [r["accepted_digest"] for r in run_core(scenario).records]
        assert len(accepted) == scenario.t_max

        market = Market.build(scenario, "standalone")
        assert market.byz_sellers.any() and not market.byz_nodes.any()
        state, score = market.initial_state(), None
        inputs = []
        for t in range(scenario.t_max):
            inputs.append(pickle.dumps(state))
            # the previous round's score of these weights, handed on, changes no digest
            _, unscored, _ = honest_round(market, state, t)
            state, digest, fed = honest_round(market, state, t, score)
            assert digest == unscored and digest.hex() == accepted[t]
            score = fed.score

        # another executor, handed only the state, recomputes each round in any order
        other = Market.build(scenario, "standalone")
        for t in reversed(range(scenario.t_max)):
            _, digest, _ = honest_round(other, pickle.loads(inputs[t]), t)
            assert digest.hex() == accepted[t]

    def test_run_leaves_the_market_as_built(self):
        scenario = scored_once_scenario(8, "no-consensus")
        market = Market.build(scenario, "standalone")
        built = pickle.dumps(market)
        run_core(scenario, market=market)
        assert pickle.dumps(market) == built

    def test_market_of_another_scenario_rejected(self):
        market = Market.build(quick_scenario(), "standalone")
        with pytest.raises(ValueError):
            run_core(quick_scenario(seed=12), market=market)


def scored_once_scenario(
    hidden: int, ablation: str, utility_rows: int = 0, node_strategy: str = "colluding-common-digest"
) -> Scenario:
    """30% Byzantine nodes and 20% Byzantine sellers, linear or MLP, under one ablation."""
    base = robustness_scenario(5, 0.3, 0.2, t_max=6, hidden_units=hidden, ablation=ablation)
    return replace(
        base,
        data=replace(base.data, utility_eval_rows=utility_rows),
        adversary=replace(base.adversary, node_strategy=node_strategy),
    )


def scored_once_case(
    hidden: int, ablation: str, utility_rows: int, node_strategy: str = "colluding-common-digest"
):
    """One input, named ``hidden-ablation-rows``, then its node strategy unless the default."""
    name = f"{hidden}-{ablation}-{utility_rows}"
    if node_strategy != "colluding-common-digest":
        name += f"-{node_strategy}"
    return pytest.param(hidden, ablation, utility_rows, node_strategy, id=name)


SCORED_ONCE_CASES = [
    *[
        scored_once_case(hidden, ablation, 0)
        for hidden in (0, 8)
        for ablation in ("none", "no-krum", "no-consensus")
    ],
    scored_once_case(0, "none", 100),  # a utility set that is not the validation split
    scored_once_case(8, "no-consensus", 100),
    # the previous round's state adopted again, so its score carries over
    *[scored_once_case(0, "no-consensus", rows, "stale-digest") for rows in (0, 100)],
]
SCORED_ONCE_PARAMS = "hidden, ablation, utility_rows, node_strategy"


class TestScoredOnce:
    """Each model runs forward once per round; a score carried forward is the fresh one."""

    @pytest.mark.parametrize(SCORED_ONCE_PARAMS, SCORED_ONCE_CASES)
    def test_recorded_accuracy_is_the_adopted_weights(
        self, monkeypatch, hidden, ablation, utility_rows, node_strategy
    ):
        scenario = scored_once_scenario(hidden, ablation, utility_rows, node_strategy)
        reads = []
        original = Market.validation_accuracy

        def spy(market, weights, score):
            accuracy, score = original(market, weights, score)
            reads.append((market, weights, accuracy))
            return accuracy, score

        monkeypatch.setattr(Market, "validation_accuracy", spy)
        result = run_core(scenario)
        assert len(result.records) == len(reads) - 1 == scenario.t_max
        if ablation == "no-consensus":
            assert result.wrong_adoptions > 0  # forged adoptions, which no stack scored
        for record, (market, weights, accuracy) in zip(result.records, reads[1:]):
            state = (weights, np.array(record["probabilities"]), np.array(record["access_counts"]))
            assert state_digest(*state).hex() == record["accepted_digest"]
            assert record["accuracy"] == accuracy == evaluate_metric(weights, market.splits.validation)

    @pytest.mark.parametrize(SCORED_ONCE_PARAMS, SCORED_ONCE_CASES)
    def test_no_row_is_scored_twice(
        self, monkeypatch, hidden, ablation, utility_rows, node_strategy
    ):
        rows = []

        def spy(spec, stack, eval_set):
            rows.extend(row.tobytes() for row in stack)
            return utility(spec, stack, eval_set)

        monkeypatch.setattr(harness, "utility", spy)
        scenario = scored_once_scenario(hidden, ablation, utility_rows, node_strategy)
        assert len(run_core(scenario).records) == scenario.t_max
        assert len(rows) > scenario.t_max and len(set(rows)) == len(rows)


class TestAllByzantineCommittee:
    def test_random_digests_end_without_consensus(self):
        scenario = quick_scenario(
            adversary=AdversaryConfig(node_fraction=1.0, node_strategy="random-digest")
        )
        sink = MetricsSink()
        with pytest.raises(NoConsensus):
            run_core(scenario, sink=sink)
        params = scenario.consensus_params()
        n = params.total_nodes
        sizes = [execution_set_size(i, params.base_size, cap=n) for i in range(1, 6)]
        assert sizes[-1] == n == 20  # the fifth committee is everyone
        events = sink.events
        assert [(e["event"], e["round"], e["mini_round"]) for e in events] == [
            ("consensus", 0, i) for i in range(1, 6)
        ]
        # every seat forged its own digest, so each mini-round adds its committee's digests
        assert [len(e["scores"]) for e in events] == [sum(sizes[:i]) for i in range(1, 6)]
        last = events[-1]
        assert last["accepted"] in last["scores"]
        assert last["scores"][last["accepted"]] == max(last["scores"].values())


def seated_run(strategy: str, ablation: str = "none"):
    """A standalone run at 30% Byzantine nodes on a ledger the test holds."""
    base = robustness_scenario(2, 0.3, 0.0, t_max=8)
    adversary = replace(base.adversary, node_strategy=strategy)
    scenario = replace(base, ablation=ablation, adversary=adversary)
    market = Market.build(scenario, "standalone")
    ledger = scenario.ledger()
    ledger.register_nodes(market.node_ids)
    return market, ledger, run_core(scenario, market=market, ledger=ledger)


class TestSeatsFollowRoles:
    """What each seat commits, and how often each node sits, follow from the Byzantine mask."""

    @pytest.mark.parametrize("strategy", adversary.NODE_STRATEGIES)
    def test_committee_seats(self, strategy):
        market, ledger, result = seated_run(strategy)
        config, root, label = market.scenario.adversary, market.root, market.label
        byzantine = {n for n, b in zip(market.node_ids, market.byz_nodes.tolist()) if b}
        forged_seats = 0
        for rec in result.records:
            t = rec["round"]
            honest, forged = set(), set()
            for i in range(1, rec["mini_rounds"] + 1):
                commits = ledger.commits_for(t, i)
                assert len(commits) == len(ledger.execution_slots[t, i].members)
                for c in commits:
                    if c.node not in byzantine:
                        honest.add(c.digest)
                        continue
                    forged.add(c.digest)
                    forged_seats += 1
                    if strategy == "random-digest":
                        seed = derive_seed(root, "byz-digest", label, t, i, c.node)
                        assert c.digest == adversary.byzantine_node_digest(config, seed)
            assert len(honest) == 1  # every honest seat of the round commits one digest
            assert not honest & forged
            if rec["honest_adopted"]:
                assert honest.pop().hex() == rec["accepted_digest"]
        assert forged_seats and any(rec["honest_adopted"] for rec in result.records)
        published = [e["members"] for e in ledger.tx_log if e["op"] == "publish_execution_set"]
        seats = Counter(node for members in published for node in members)
        assert result.participation == {node: seats[node] for node in market.node_ids}

    @pytest.mark.parametrize("strategy", adversary.NODE_STRATEGIES)
    def test_single_executor_seats(self, strategy):
        market, ledger, result = seated_run(strategy, "no-consensus")
        seeds = [derive_seed(market.root, "sortition", market.label, t, 1) for t in range(8)]
        executors = [int(sortition(seed, len(market.node_ids), 1)[0]) for seed in seeds]
        honest = [not market.byz_nodes[k] for k in executors]
        assert len(result.records) == len(executors)
        assert [rec["honest_adopted"] for rec in result.records] == honest
        assert any(honest) and not all(honest)
        seats = Counter(market.node_ids[k] for k in executors)
        assert result.participation == {node: seats[node] for node in market.node_ids}
        assert not any(e["op"] == "publish_execution_set" for e in ledger.tx_log)


class TestByzantineLoneExecutor:
    def run(self, strategy):
        scenario = quick_scenario(
            ablation="no-consensus",
            t_max=5,
            adversary=AdversaryConfig(node_fraction=1.0, node_strategy=strategy),
        )
        return run_core(scenario)

    def test_forged_state_adopted_every_round(self):
        random, colluding = self.run("random-digest"), self.run("colluding-common-digest")
        assert len(random.records) == 5
        # both hand back the same poisoned state, and no round adopts the honest one
        assert random.records == colluding.records
        assert random.wrong_adoptions == 5
        assert not any(rec["honest_adopted"] for rec in random.records)

    def test_stale_replays_one_state(self):
        result = self.run("stale-digest")
        assert len(result.records) == 5 and result.wrong_adoptions == 5
        assert len({rec["accepted_digest"] for rec in result.records}) == 1


class TestAblations:
    def test_no_consensus_uses_single_executor(self):
        scenario = quick_scenario(ablation="no-consensus")
        result = run_core(scenario)
        assert all(rec["mini_rounds"] == 1 for rec in result.records)
        assert sum(result.participation.values()) == len(result.records)

    def test_no_krum_blends(self):
        scenario = quick_scenario(ablation="no-krum")
        result = run_core(scenario)
        assert result.termination == "metric"


class TestHiddenLayerModel:
    def test_mlp_scenario_trains_and_replays(self):
        scenario = quick_scenario(hidden_units=8, t_max=6)
        a, b = run_core(scenario), run_core(scenario)
        assert a.weights.spec.hidden == 8
        assert a.records and a.records[0]["accepted_digest"] == b.records[0]["accepted_digest"]
        assert a.records[-1]["accuracy"] > a.records[0]["accuracy"]  # it does learn


class TestStaleAdversary:
    def test_stale_adoption_reverts_one_round(self):
        scenario = robustness_scenario(
            3, 0.45, 0.0, t_max=6,
        )
        scenario = replace(
            scenario, adversary=replace(scenario.adversary, node_strategy="stale-digest")
        )
        result = run_core(scenario)
        # a stale win re-adopts the previous round's state; digests then repeat
        digests = [r["accepted_digest"] for r in result.records]
        assert len(digests) == 6
        assert result.wrong_adoptions > 0
        assert any(a == b for a, b in zip(digests, digests[1:]))


class OneAtATime(Market):
    """Reference oracle: every sampled seller trains alone, as it would on its own machine."""

    empty_byzantine_sampled = 0

    def local_deltas(self, sellers, values, seeds):
        config, train = self.scenario.adversary, self.scenario.train
        w = ModelWeights(values, self.spec)
        deltas = []
        for seller, seed in zip(sellers, seeds):
            shard = gather_rows([self.shards[seller]])
            byzantine = bool(self.byz_sellers[seller])
            if not len(shard):  # a zero delta, never transformed: -10 * 0 would be -0.0
                OneAtATime.empty_byzantine_sampled += byzantine
                deltas.append(np.zeros_like(values))
                continue
            if byzantine:
                shard = adversary.malicious_seller_shard(config, shard)
            delta = local_update(
                w, shard, epochs=train.epochs, lr=train.lr, batch=train.batch, seed=seed
            )
            if byzantine:
                delta = adversary.malicious_seller_update(config, delta, seed)
            deltas.append(delta)
        return np.array(deltas)


class TestStackedTraining:
    @pytest.mark.parametrize("hidden", [0, 8])
    @pytest.mark.parametrize("strategy", adversary.SELLER_STRATEGIES)
    def test_run_matches_training_one_seller_at_a_time(self, monkeypatch, strategy, hidden):
        # skewed shards: empty ones (some Byzantine), some of a few rows, some of several batches
        base = quick_scenario(t_max=4, hidden_units=hidden)
        scenario = replace(
            base,
            data=replace(base.data, partition_alpha=0.05),
            adversary=AdversaryConfig(
                node_fraction=0.3, seller_fraction=0.5, seller_strategy=strategy
            ),
        )
        stacked = run_auction_to_completion(scenario)
        monkeypatch.setattr(harness, "Market", OneAtATime)
        monkeypatch.setattr(OneAtATime, "empty_byzantine_sampled", 0)
        alone = run_auction_to_completion(scenario)
        assert OneAtATime.empty_byzantine_sampled > 0
        assert len(alone.run.records) == scenario.t_max
        assert state_digest(alone.run.weights, alone.run.probabilities, alone.run.access_counts) == (
            state_digest(stacked.run.weights, stacked.run.probabilities, stacked.run.access_counts)
        )
        assert alone.ledger.tx_log_ndjson() == stacked.ledger.tx_log_ndjson()


    @pytest.mark.parametrize("strategy", adversary.SELLER_STRATEGIES)
    def test_empty_shard_proposes_a_plain_zero_delta(self, strategy):
        base = quick_scenario()
        scenario = replace(
            base,
            data=replace(base.data, partition_alpha=0.05),
            adversary=AdversaryConfig(seller_fraction=0.5, seller_strategy=strategy),
        )
        market = Market.build(scenario, "standalone")
        byzantine = np.flatnonzero(market.byz_sellers).tolist()
        empty = [i for i in byzantine if not len(market.shards[i])]
        values = market.initial_state()[0].values
        deltas = market.local_deltas(empty, values, [derive_seed("empty", i) for i in empty])
        assert empty and deltas.shape == (len(empty), len(values))
        assert not deltas.any() and not np.signbit(deltas).any()  # no transform's -0.0


def pipeline_market(monkeypatch, scenario: Scenario):
    """The pipeline's result on the scenario, and the market its run trained on."""
    markets = []

    def capture(scenario, *, market, **kwargs):
        markets.append(market)
        return run_core(scenario, market=market, **kwargs)

    monkeypatch.setattr(harness, "run_core", capture)
    result = run_auction_to_completion(scenario)
    (market,) = markets
    return result, market


class TestPipeline:
    def test_one_node_table_registered_run_and_paid(self, monkeypatch):
        result, market = pipeline_market(monkeypatch, quick_scenario(t_max=2))
        node_ids = market.node_ids
        registered = [e["node_ids"] for e in result.ledger.tx_log if e["op"] == "register_nodes"]
        assert registered == [list(node_ids)]
        assert list(result.run.participation) == list(node_ids)
        assert list(result.revenue.node_transfers) == list(node_ids)

    def test_market_is_every_registered_seller_in_table_order(self, monkeypatch):
        # from 1000 sellers on, id order (s100, s1000, s101, ...) is not table order
        scenario = quick_scenario(sellers=1001, t_max=1)
        result, market = pipeline_market(monkeypatch, scenario)
        log = result.ledger.tx_log
        sellers = [e["user_id"] for e in log if e["op"] == "register_user" and not e["is_buyer"]]
        assert len(sellers) == scenario.sellers and sellers[1000] == "s1000"
        assert list(market.seller_ids) == sellers
        assert [(e["seller"], e["size"]) for e in log if e["op"] == "register_dataset"] == [
            (sid, len(shard)) for sid, shard in zip(market.seller_ids, market.shards)
        ]
        assert list(result.run.seller_ids) == sellers
        assert list(result.revenue.seller_transfers) == sellers

    def test_competing_bids_and_split(self):
        scenario = quick_scenario(competing_bids=(100,))
        result = run_auction_to_completion(scenario)
        assert not result.refunded and result.winner == "buyer000"
        assert result.revenue.bid_amount == 150
        assert result.revenue.node_share == 45 and result.revenue.seller_share == 105
        assert sum(result.revenue.transfers.values()) == 150
        assert result.ledger.accounts["buyer001"].balance == 100  # outbid refund
        assert conserved(result.ledger)

    def test_no_matching_sellers_refunds(self):
        scenario = quick_scenario(
            data=DataConfig(rows=500, registry_tags=("unrelated",)),
        )
        result = run_auction_to_completion(scenario)
        assert result.refunded and result.run is None
        assert result.ledger.accounts["buyer000"].balance == 150
        assert conserved(result.ledger)

    def test_missing_idx_files_fail_before_any_ledger_call(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a participant was registered before the dataset was built")

        monkeypatch.setattr(Ledger, "register_user", refuse)
        missing = DataConfig(
            kind="idx", images=str(tmp_path / "img.idx"), labels=str(tmp_path / "lbl.idx")
        )
        with pytest.raises(FileNotFoundError):
            run_auction_to_completion(quick_scenario(data=missing))

    def test_summary(self):
        result = run_auction_to_completion(quick_scenario())
        summary = result.summary()
        assert summary["revenue"] == {"bid_amount": 150, "node_share": 45, "seller_share": 105}
        assert summary["payoff"] == result.payoff.to_dict()
        assert summary["rounds"] == len(result.run.records)
        assert summary["termination"] == result.run.termination
        assert summary["final_test_accuracy"] == result.run.final_test_accuracy
        refunded = run_auction_to_completion(
            quick_scenario(data=DataConfig(rows=500, registry_tags=("unrelated",)))
        )
        assert refunded.summary() == {
            "refunded": True, "winner": None, "revenue": None, "payoff": None, "rounds": 0,
            "final_validation_accuracy": None, "final_test_accuracy": None, "termination": None,
            "wall_time_s": None,
        }

    def test_payoff_report_attached(self):
        result = run_auction_to_completion(quick_scenario())
        assert result.payoff is not None
        assert result.payoff.u_node_honest == pytest.approx(
            result.revenue.node_share / 20
        )

    def test_zero_rounds_refunds_escrow(self):
        scenario = quick_scenario(request=RequestConfig(tags=("demo",), amount=150, threshold=0.0))
        result = run_auction_to_completion(scenario)
        assert result.refunded and result.revenue is None
        assert result.ledger.accounts["buyer000"].balance == 150
        assert conserved(result.ledger)

    def test_pipeline_deterministic(self):
        a = run_auction_to_completion(quick_scenario())
        b = run_auction_to_completion(quick_scenario())
        assert a.ledger.snapshot_json() == b.ledger.snapshot_json()
        assert a.revenue.transfers == b.revenue.transfers

    @pytest.mark.parametrize(
        "make",
        [
            quick_scenario,
            lambda **kw: robustness_scenario(1, 0.45, 0.2, sellers=10, nodes=30, t_max=8, **kw),
        ],
        ids=["honest", "byzantine"],
    )
    def test_commits_land_in_their_publish_block(self, make):
        # Every seat commits in the block that publishes its execution set,
        # so the shortest commit timeout changes nothing but the genesis record.
        runs = []
        for scenario in (make(), make(timeout_blocks=1)):
            sink = MetricsSink()
            result = run_auction_to_completion(scenario, sink=sink)
            csv_text = rounds_csv(result.run.records, scenario.adversary.node_fraction, scenario.ablation)
            runs.append((csv_text, sink.to_jsonl(), result.ledger.tx_log))
        (csv_default, events_default, log_default), (csv_short, events_short, log_short) = runs
        assert csv_short == csv_default and events_short == events_default
        assert log_default[0]["commit_timeout"] == Scenario().timeout_blocks
        assert log_short[0] == {**log_default[0], "commit_timeout": 1}
        assert log_short[1:] == log_default[1:]


class TestGrid:
    def test_grid_writes_series(self, tmp_path):
        base = quick_scenario(t_max=3, request=RequestConfig(tags=("demo",), threshold=1.0))
        items = byzantine_grid(base, fractions=(0.2, 0.4), ablations=("none", "no-krum"))
        assert [label for label, _ in items] == [
            "byz20_none", "byz20_no-krum", "byz40_none", "byz40_no-krum",
        ]
        written = run_experiment_grid(items, tmp_path)
        assert len(written) == 4
        for label, path in written.items():
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["round"]) for r in rows] == list(range(len(rows)))
            assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)
            assert {r["ablation"] for r in rows} <= {"none", "no-krum"}
        assert (tmp_path / "grid_timings.csv").exists()

    def test_empty_grid_succeeds(self, tmp_path):
        assert run_experiment_grid([], tmp_path) == {}

    def test_default_grid_is_twelve_series(self):
        items = byzantine_grid(quick_scenario())
        assert len(items) == 12
        labels = [label for label, _ in items]
        assert "byz30_no-krum" in labels and "byz50_no-consensus" in labels

    def test_grid_records_errors_and_continues(self, tmp_path):
        ok = quick_scenario(t_max=2, request=RequestConfig(tags=("demo",), threshold=1.0))
        bad = replace(ok, data=replace(ok.data, kind="idx", images="/missing", labels="/missing"))
        written = run_experiment_grid([("good", ok), ("bad", bad)], tmp_path)
        assert set(written) == {"good"}
        errors = json.loads((tmp_path / "grid_errors.json").read_text())
        assert "bad" in errors


class TestConsensusTrialsHelper:
    def test_deterministic_csv(self):
        params = quick_scenario().consensus_params()
        a = agreement_csv(consensus_trials(params, 0.3, 50, seed=4))
        b = agreement_csv(consensus_trials(params, 0.3, 50, seed=4))
        assert a == b
        assert a.splitlines()[0] == "trial,mini_rounds,wrong_accepted"


class TestScenarioConfig:
    def test_round_trip(self):
        scenario = quick_scenario(competing_bids=(100, 120))
        assert parse_config(format_config(scenario)) == scenario

    def test_comments_and_blanks_ignored(self):
        scenario = parse_config("# comment\n\nseed = 9\ndata.rows = 800  # inline\n")
        assert scenario.seed == 9 and scenario.data.rows == 800

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("sellerz = 10\n")
        with pytest.raises(ValueError):
            parse_config("data.rowz = 10\n")
        for line in ["nosuch.key = 1", "consensus = 3", "data.rows.extra = 1", ".seed = 1"]:
            with pytest.raises(ValueError, match="unknown"):
                parse_config(line + "\n")
        for line, key in [("seed = 1.5", "'seed'"), ("data.rows = many", "'data.rows'")]:
            with pytest.raises(ValueError, match=f"^line 1: .*{key}"):
                parse_config(line + "\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="line 3: key 'seed' already set on line 1"):
            parse_config("seed = 1\ndata.rows = 800\nseed = 2\n")
        with pytest.raises(ValueError, match="line 2: key 'data.rows' already set on line 1"):
            parse_config("data.rows = 800\ndata.rows = 900\n")

    def test_out_of_range_section_value_names_its_lines_and_keys(self):
        with pytest.raises(
            ValueError,
            match=r"^line 2 \(adversary\.node_fraction\): .*node_fraction must lie in \[0, 1\]$",
        ):
            parse_config("seed = 1\nadversary.node_fraction = 2")
        with pytest.raises(
            ValueError,
            match=r"^lines 1, 3 \(osmd\.learning_rate, osmd\.batch_size\): .*batch_size must be >= 1$",
        ):
            parse_config("osmd.learning_rate = 0.5\nseed = 1\nosmd.batch_size = 0\n")

    def test_bad_ablation_rejected(self):
        with pytest.raises(ValueError):
            parse_config("ablation = everything-off\n")

    @pytest.mark.parametrize(
        "line",
        [
            "consensus.byz_fraction_max = 0",
            "consensus.sample_fraction = 1.5",
            "osmd.batch_size = 0",
            "osmd.step_size = 0",
            "adversary.node_fraction = 2",
            "adversary.seller_strategy = bribe",
            "request.metric = f1",
            "tx_fee = -5",
            "auction_window = 0",
            "timeout_blocks = 0",
            "timeout_blocks = -3",
            "competing_bids = 0",
            "hidden_units = -1",
            "data.classes = 1",
            "train.batch = 0",
            "train.epochs = -1",
            "data.utility_eval_rows = -5",
            "analysis.detect_rate = 2",
            "analysis.quality_claimed = 0.5",
            "analysis.bribe = -1",
            "data.kind = parquet",
            "data.partition_alpha = 0",
            "data.dims = 2",
            "data.noise = -1",
            "data.rows = 9",
            "train.lr = -1",
        ],
    )
    def test_bad_protocol_value_fails_at_load(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises((ValueError, DegenerateParams)) as failure:
            load_scenario(path)
        if line.startswith("timeout_blocks"):  # not the ledger's name, commit_timeout
            failure.match("^timeout_blocks must be >= 1$")

    def test_readme_block_matches_defaults(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Scenario config", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]

        def keys(text):
            lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
            return [line.split("=", 1)[0].strip() for line in lines if line]

        assert parse_config(block) == Scenario()
        assert keys(block) == keys(format_config(Scenario()))

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("seed = 4\nrequest.tags = a,b\ncompeting_bids = 400, 700\n")
        scenario = load_scenario(path)
        assert scenario.seed == 4 and scenario.request.tags == ("a", "b")
        assert scenario.competing_bids == (400, 700)


class TestBuildSplits:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_splits(quick_scenario(data=DataConfig(kind="parquet")))

    def test_idx_kind_loads_files(self, tmp_path):
        import struct

        images = np.zeros((40, 2, 2), dtype=np.uint8)
        labels = np.tile(np.arange(4, dtype=np.uint8), 10)
        (tmp_path / "img.idx").write_bytes(
            struct.pack(">iiii", 0x00000803, 40, 2, 2) + images.tobytes()
        )
        (tmp_path / "lbl.idx").write_bytes(
            struct.pack(">ii", 0x00000801, 40) + labels.tobytes()
        )
        scenario = quick_scenario(
            data=DataConfig(kind="idx", images=str(tmp_path / "img.idx"), labels=str(tmp_path / "lbl.idx"))
        )
        splits = build_splits(scenario)
        assert len(splits.train) == 32 and len(splits.validation) == 4 and len(splits.test) == 4

    @pytest.mark.parametrize(
        "shape, classes, refusal",
        [
            ((8, 2, 2), 2, EmptyEvalSet),  # validation and test would be empty
            ((9, 2, 2), 2, EmptyEvalSet),
            ((40, 2, 2), 1, ValueError),  # a model needs two classes
            ((40, 2, 0), 2, ValueError),  # and at least one input
        ],
        ids=["8", "9", "one-class", "zero-wide"],
    )
    def test_idx_pair_under_ten_images_refused_before_the_ledger(
        self, tmp_path, monkeypatch, shape, classes, refusal
    ):
        # a refusal after the first ledger call would leave the bid escrowed
        img, lbl = write_idx_pair(tmp_path, np.zeros(shape), np.arange(shape[0]) % classes)
        scenario = quick_scenario(data=DataConfig(kind="idx", images=img, labels=lbl))
        ledgers = []
        make_ledger = Scenario.ledger

        def ledger(self):
            ledgers.append(make_ledger(self))
            return ledgers[-1]

        monkeypatch.setattr(Scenario, "ledger", ledger)
        with pytest.raises(refusal):
            run_auction_to_completion(scenario)
        assert ledgers == []


class TestShardRows:
    """Shards name their rows by index; a round trains on the rows they name."""

    @pytest.mark.parametrize("kind", ["synthetic", "idx"])
    def test_sellers_train_on_their_rows_of_the_train_split(self, tmp_path, monkeypatch, kind):
        # skewed shards, some empty, and label-flip sellers
        base = quick_scenario(
            sellers=30, adversary=AdversaryConfig(seller_fraction=0.4, seller_strategy="label-flip")
        )
        data = replace(base.data, rows=600, partition_alpha=0.05)
        # the train split as a copy of its rows: the first 480 rows of the file, or of the
        # shuffled draws
        if kind == "idx":
            rng = rng_from(derive_seed("shard-rows"))
            images = rng.integers(0, 256, size=(600, 4, 4))
            img, lbl = write_idx_pair(tmp_path, images, rng.integers(0, 4, size=600))
            data = replace(data, kind="idx", images=img, labels=lbl)
            train = load_idx(img, lbl).take(slice(480))
        else:
            seed = derive_seed(base.root_seed, "dataset")
            features, labels = reference_synth_dataset(base.synth_spec(), 600, seed)[0]
            train = LabeledDataset(features, labels, data.classes)
        scenario = replace(base, data=data)
        plan = dirichlet_partition(
            train, scenario.sellers, data.partition_alpha, derive_seed(scenario.root_seed, "partition")
        )
        market = Market.build(scenario, "standalone")
        trained = []

        def spy(w, pool, sizes, seeds, **kwargs):
            ends = np.cumsum(sizes)
            trained.extend(pool.take(slice(end - size, end)) for end, size in zip(ends, sizes))
            return local_updates(w, pool, sizes, seeds, **kwargs)

        monkeypatch.setattr(harness, "local_updates", spy)
        sellers = list(range(scenario.sellers))
        values = market.initial_state()[0].values
        market.local_deltas(sellers, values, [derive_seed("rows", i) for i in sellers])
        held = [i for i in sellers if len(plan[i])]
        assert len(trained) == len(held) < len(sellers)
        assert any(market.byz_sellers[i] for i in held)
        for i, rows in zip(held, trained):
            expected = train.take(plan[i])
            labels = expected.labels
            if market.byz_sellers[i]:
                labels = (labels + 1) % expected.class_count
            assert rows.features.tobytes() == expected.features.tobytes()
            assert rows.labels.tobytes() == labels.tobytes()

    def test_market_holds_one_copy_of_the_rows(self):
        # the drawn rows, validation and test gathered once, the labels and the index sets
        # read about 1.31 of the feature bytes held and 1.35 at the peak; a seller-major copy
        # of the train rows read 1.88 and 2.10
        data = DataConfig(rows=20_000, classes=10, dims=32, separation=3.0)
        scenario = quick_scenario(sellers=200, data=data)
        Market.build(quick_scenario(), "standalone")  # first calls allocate caches of their own
        held, peak = traced_memory(lambda: Market.build(scenario, "standalone"))
        feature_bytes = 20_000 * 32 * 8
        assert held < 1.5 * feature_bytes and peak < 1.6 * feature_bytes


def run_out(tmp_path: Path, scenario: Scenario) -> Path:
    """Output directory of ``datamarket run`` on the scenario."""
    config = tmp_path / "scenario.cfg"
    config.write_text(format_config(scenario))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out"


def bump(record: dict, key: str) -> None:
    record[key] += 1


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(format_config(quick_scenario()))
        return path

    def test_run_subcommand(self, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "rounds.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["revenue"]["node_share"] == 45
        for line in (out / "events.jsonl").read_text().splitlines():
            json.loads(line)

    def test_refused_run_prints_one_line_and_writes_nothing(self, tmp_path, capsys):
        img, lbl = write_idx_pair(tmp_path, np.zeros((40, 2, 2)), np.zeros(40))
        scenario = quick_scenario(data=DataConfig(kind="idx", images=img, labels=lbl))
        config = tmp_path / "scenario.cfg"
        config.write_text(format_config(scenario))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "ValueError: invalid model dimensions\n"
        assert not out.exists()

    def test_seed_override_changes_output(self, tmp_path):
        config = self.write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli_main(["run", "--config", str(config), "--out", str(out_a)])
        cli_main(["run", "--config", str(config), "--out", str(out_b), "--seed", "77"])
        assert (out_a / "rounds.csv").read_text() != (out_b / "rounds.csv").read_text()

    def test_grid_subcommand(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text(
            format_config(
                quick_scenario(t_max=2, request=RequestConfig(tags=("demo",), threshold=1.0))
            )
        )
        out = tmp_path / "grid"
        args = ["grid", "--config", str(config), "--out", str(out), "--fractions", "0.3,0.5"]
        assert cli_main(args + ["--ablations", "none,no-consensus"]) == 0
        labels = ["byz30_none", "byz30_no-consensus", "byz50_none", "byz50_no-consensus"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"{label}.csv" for label in labels] + ["grid_timings.csv"]
        )
        timings = (out / "grid_timings.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in timings[1:]] == labels
        assert cli_main(args + ["--ablations", "none,everything-off"]) == 1
        assert capsys.readouterr().err.startswith("ValueError: unknown ablation")

    def test_analyze_subcommand(self, tmp_path, capsys):
        out_file = tmp_path / "payoff.json"
        code = cli_main(["analyze", "--rounds", "5", "--out", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["equilibrium_holds"] is True
        assert capsys.readouterr().out.strip()

    def test_analyze_defaults_are_the_scenario_defaults(self, capsys):
        report = analyze_payoffs(Scenario().payoff_params(70.0, 30.0), rounds=5)
        assert cli_main(["analyze"]) == 0
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        assert capsys.readouterr().out == text + "\n"

    def verify(self, out, capsys) -> tuple[int, list[str]]:
        capsys.readouterr()
        code = cli_main(["verify", str(out)])
        return code, [line for line in capsys.readouterr().out.splitlines() if line[:1] == "["]

    @pytest.mark.parametrize(
        "scenario",
        [
            quick_scenario(),
            quick_scenario(adversary=AdversaryConfig(node_fraction=0.3, node_strategy="random-digest")),
            quick_scenario(
                ablation="no-consensus",
                adversary=AdversaryConfig(node_fraction=0.3, node_strategy="stale-digest"),
            ),
            quick_scenario(data=DataConfig(rows=500, registry_tags=("unrelated",))),
        ],
        ids=["quick", "random-digest", "no-consensus", "refunded"],
    )
    def test_verify_passes_a_fresh_run(self, scenario, tmp_path, capsys):
        code, lines = self.verify(run_out(tmp_path, scenario), capsys)
        assert code == 0
        assert len(lines) == 5 and all(line.startswith("[PASS]") for line in lines)

    def test_verify_drops_a_disqualified_digest_from_later_scores(self, tmp_path, capsys, monkeypatch):
        # Byzantine nodes that all commit one digest nobody can reveal win a
        # mini-round; the digest is disqualified and later scores omit it.
        monkeypatch.setattr(adversary, "byzantine_node_digest", lambda config, seed: bytes(32))
        config = AdversaryConfig(node_fraction=0.7, node_strategy="random-digest")
        out = run_out(tmp_path, quick_scenario(t_max=1, adversary=config))
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert bytes(32).hex() in {e.get("accepted") for e in events if e["event"] == "consensus"}
        assert bytes(32).hex() not in {e.get("accepted_digest") for e in events}
        code, lines = self.verify(out, capsys)
        assert code == 0 and all(line.startswith("[PASS]") for line in lines)

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        return run_out(tmp_path_factory.mktemp("verify"), quick_scenario())

    @pytest.mark.parametrize(
        "artifact, match, change, failure",
        [
            ("tx_log.ndjson", lambda r: r["op"] == "mint", lambda r: bump(r, "amount"),
             "[FAIL] tx_log.ndjson replays to ledger.json: does not hold"),
            ("ledger.json", lambda r: True, lambda r: bump(r["accounts"]["buyer000"], "balance"),
             "[FAIL] tx_log.ndjson replays to ledger.json: does not hold"),
            ("events.jsonl", lambda e: e["event"] == "consensus",
             lambda e: bump(e["scores"], min(e["scores"])),
             "[FAIL] consensus events score the ledger's commits: does not hold"),
            ("events.jsonl", lambda e: e["event"] == "round",
             lambda e: e.update(accepted_digest=bytes(32).hex()),
             "[FAIL] round events adopt their last mini-round's digest: does not hold"),
            ("tx_log.ndjson", lambda r: r["op"] == "mint", lambda r: bump(r, "height"),
             "[FAIL] tx_log.ndjson replays to ledger.json: tx_log.ndjson: ValueError: 'mint' entry"),
        ],
        ids=["mint-amount", "balance", "score", "accepted-digest", "height"],
    )
    def test_verify_fails_a_tampered_run(
        self, pristine, tmp_path, capsys, artifact, match, change, failure
    ):
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        lines = (out / artifact).read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if match(json.loads(line)))
        record = json.loads(lines[k])
        change(record)
        lines[k] = json.dumps(record)
        (out / artifact).write_text("\n".join(lines) + "\n")
        code, lines = self.verify(out, capsys)
        assert code == 1
        assert any(line.startswith(failure) for line in lines), lines

    def test_verify_fails_a_run_missing_a_consensus_event(self, pristine, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        lines = (out / "events.jsonl").read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if json.loads(line)["event"] == "consensus")
        (out / "events.jsonl").write_text("\n".join(lines[:k] + lines[k + 1 :]) + "\n")
        code, lines = self.verify(out, capsys)
        assert code == 1
        assert "[FAIL] consensus events score the ledger's commits: does not hold" in lines

    def test_verify_fails_without_a_summary(self, pristine, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pristine, out)
        (out / "summary.json").unlink()
        code, lines = self.verify(out, capsys)
        assert code == 1
        assert lines[-1].startswith(
            "[FAIL] summary.json counts the round events: summary.json: FileNotFoundError"
        )

    def test_out_dir_env_var(self, tmp_path, monkeypatch, capsys):
        config = self.write_config(tmp_path)
        monkeypatch.setenv("DATAMARKET_OUT", str(tmp_path / "envout"))
        assert cli_main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "envout" / "rounds.csv").exists()
