"""Auction contract state machine, escrow, commits, and audit surfaces."""

import json

import pytest

from datamarket.errors import (
    AuctionStillOpen,
    CommitTimeout,
    DoubleCommit,
    DuplicateId,
    InsufficientBalance,
    NoActiveAuction,
    NoSuchAuction,
    NotBuyer,
    NotInExecutionSet,
    UnknownNode,
    UnknownSeller,
)
from datamarket.ledger import DataRequest, Ledger, Role
from datamarket.rng import derive_seed, rng_from


def request(tags=("x",), amount=100, threshold=0.9) -> DataRequest:
    return DataRequest(tags=frozenset(tags), amount=amount, threshold=threshold)


def conserved(ledger: Ledger) -> bool:
    held = sum(a.balance for a in ledger.accounts.values())
    return held + ledger.escrowed_total + ledger.fees_collected == ledger.total_supply


def funded_ledger(**kwargs) -> Ledger:
    ledger = Ledger(seed=3, **kwargs)
    ledger.register_user("b1", is_buyer=True)
    ledger.register_user("b2", is_buyer=True)
    ledger.register_user("s1", is_buyer=False)
    ledger.register_user("s2", is_buyer=False)
    ledger.mint("b1", 1000)
    ledger.mint("b2", 1000)
    return ledger


class TestRegistration:
    def test_fresh_buyer(self):
        ledger = Ledger()
        ledger.register_user("b1", is_buyer=True)
        acct = ledger.accounts["b1"]
        assert acct.role is Role.BUYER and acct.balance == 0

    def test_duplicate_rejected(self):
        ledger = Ledger()
        ledger.register_user("s1", is_buyer=False)
        with pytest.raises(DuplicateId):
            ledger.register_user("s1", is_buyer=False)
        with pytest.raises(DuplicateId):
            ledger.register_node("s1")

    @pytest.mark.parametrize(
        "batch, offending",
        [
            (["n1", "n2", "n1"], "n1"),
            (["n1", "s1"], "s1"),
            (["n1", "b1", "n2", "n2"], "b1"),
            (["n1", "n2", "n1", "b1"], "n1"),
        ],
        ids=["batch0", "batch1", "batch2", "batch3"],
    )
    def test_bad_node_batch_registers_none(self, batch, offending):
        ledger = Ledger()
        ledger.register_user("s1", is_buyer=False)
        ledger.register_user("b1", is_buyer=True)
        tx_log, snapshot = list(ledger.tx_log), ledger.snapshot()
        with pytest.raises(DuplicateId, match=f"account '{offending}' already registered"):
            ledger.register_nodes(batch)
        assert ledger.tx_log == tx_log and ledger.snapshot() == snapshot

    def test_node_batch_logs_one_entry(self):
        ledger = Ledger()
        ledger.register_nodes(["n0", "n1", "n2"])
        entry = {"op": "register_nodes", "height": 0, "node_ids": ["n0", "n1", "n2"]}
        assert ledger.tx_log[1:] == [entry]
        assert [a.role for a in ledger.accounts.values()] == [Role.NODE] * 3

    def test_two_hundred_sellers(self):
        ledger = Ledger()
        for i in range(200):
            ledger.register_user(f"s{i:03d}", is_buyer=False)
        sellers = [a for a in ledger.accounts.values() if a.role is Role.SELLER]
        assert len(sellers) == 200
        assert len({a.id for a in sellers}) == 200


class TestDatasetRegistry:
    def test_register_and_query(self):
        ledger = funded_ledger()
        ledger.register_dataset("s1", {"mnist", "digits"}, 600)
        assert ledger.identify_matching_datasets({"mnist"}) == {"s1"}

    def test_unknown_seller(self):
        ledger = funded_ledger()
        with pytest.raises(UnknownSeller):
            ledger.register_dataset("ghost", {"x"}, 5)
        with pytest.raises(UnknownSeller):
            ledger.register_dataset("b1", {"x"}, 5)  # buyers cannot own datasets

    def test_two_datasets_same_seller(self):
        ledger = funded_ledger()
        d1 = ledger.register_dataset("s1", {"a"}, 10)
        d2 = ledger.register_dataset("s1", {"b"}, 20)
        stored = {(ds.dataset_id, tuple(sorted(ds.tags)), ds.size) for ds in ledger.datasets}
        assert (d1, ("a",), 10) in stored and (d2, ("b",), 20) in stored

    def test_matching_is_superset(self):
        ledger = funded_ledger()
        ledger.register_dataset("s1", {"a", "b"}, 1)
        ledger.register_dataset("s2", {"b"}, 1)
        assert ledger.identify_matching_datasets({"a"}) == {"s1"}
        assert ledger.identify_matching_datasets({"a", "c"}) == frozenset()
        assert ledger.identify_matching_datasets(set()) == {"s1", "s2"}

    def test_agrees_with_brute_force_scan(self):
        rng = rng_from(derive_seed("registry"))
        ledger = Ledger()
        universe = [f"t{i}" for i in range(9)]
        sellers = [f"s{i:02d}" for i in range(30)]
        for s in sellers:
            ledger.register_user(s, is_buyer=False)
        records = []
        for _ in range(600):
            seller = sellers[int(rng.integers(len(sellers)))]
            tags = {universe[i] for i in rng.choice(9, size=int(rng.integers(1, 5)), replace=False)}
            ledger.register_dataset(seller, tags, int(rng.integers(1, 50)))
            records.append((seller, frozenset(tags)))
        for _ in range(60):
            query = {universe[i] for i in rng.choice(9, size=int(rng.integers(0, 4)), replace=False)}
            expected = {seller for seller, tags in records if frozenset(query) <= tags}
            assert ledger.identify_matching_datasets(query) == expected


class TestAuctionLifecycle:
    def test_start_auction_places_first_bid(self):
        ledger = funded_ledger()
        ledger.start_auction(request(amount=100), "b1")
        auction = ledger.active_auctions[frozenset({"x"})]
        assert auction.highest_bid == 100 and auction.highest_bidder == "b1"
        assert auction.auction_end == ledger.height + 10
        assert ledger.snapshot()["active_auctions"][0]["escrowed"] == 100
        assert ledger.accounts["b1"].balance == 900
        assert conserved(ledger)

    def test_non_buyer_cannot_start(self):
        ledger = funded_ledger()
        with pytest.raises(NotBuyer):
            ledger.start_auction(request(), "s1")
        with pytest.raises(NotBuyer):
            ledger.start_auction(request(), "nobody")

    @pytest.mark.parametrize("caller", ["s1", "n1", "nobody"])
    def test_non_buyer_cannot_bid(self, caller):
        ledger = funded_ledger()
        ledger.register_node("n1")
        ledger.mint("s1", 1000)
        ledger.mint("n1", 1000)
        ledger.start_auction(request(amount=100), "b1")
        tx_log, snapshot = list(ledger.tx_log), ledger.snapshot()
        with pytest.raises(NotBuyer):
            ledger.place_bid(request(amount=500), caller)
        with pytest.raises(NotBuyer):
            ledger.start_auction(request(amount=500), caller)
        assert ledger.tx_log == tx_log and ledger.snapshot() == snapshot

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(ValueError):
            Ledger(auction_window=window)
        genesis = json.loads(Ledger().tx_log_ndjson())
        with pytest.raises(ValueError):
            Ledger.replay(json.dumps({**genesis, "auction_window": window}))

    def test_negative_fee_rejected(self):
        # a negative fee would credit every bidder and drive fees_collected below zero
        with pytest.raises(ValueError):
            Ledger(tx_fee=-5)
        genesis = json.loads(Ledger().tx_log_ndjson())
        with pytest.raises(ValueError):
            Ledger.replay(json.dumps({**genesis, "tx_fee": -5}))

    def test_second_start_routes_to_bid(self):
        ledger = funded_ledger()
        ledger.start_auction(request(amount=100), "b1")
        ledger.start_auction(request(amount=150), "b2")
        auction = ledger.active_auctions[frozenset({"x"})]
        assert auction.highest_bidder == "b2" and auction.highest_bid == 150
        assert len(ledger.active_auctions) == 1
        assert ledger.accounts["b1"].balance == 1000  # refunded on outbid
        assert conserved(ledger)

    def test_failed_first_bid_rolls_back_auction(self):
        ledger = funded_ledger()
        with pytest.raises(InsufficientBalance):
            ledger.start_auction(request(amount=5000), "b1")
        assert not ledger.active_auctions

    def test_higher_bid_refunds_previous(self):
        ledger = funded_ledger()
        ledger.start_auction(request(amount=100), "b1")
        assert ledger.place_bid(request(amount=150), "b2") is True
        assert ledger.accounts["b1"].balance == 1000
        assert ledger.accounts["b2"].balance == 850
        assert ledger.active_auctions[frozenset({"x"})].highest_bid == 150
        assert conserved(ledger)

    def test_equal_bid_rejected(self):
        ledger = funded_ledger()
        ledger.start_auction(request(amount=100), "b1")
        assert ledger.place_bid(request(amount=100), "b2") is False
        assert ledger.active_auctions[frozenset({"x"})].highest_bidder == "b1"
        assert ledger.accounts["b2"].balance == 1000

    def test_bid_after_window_rejected(self):
        ledger = funded_ledger(auction_window=3)
        ledger.start_auction(request(amount=100), "b1")
        for _ in range(3):
            ledger.advance_block()
        with pytest.raises(NoActiveAuction):
            ledger.place_bid(request(amount=200), "b2")

    def test_bid_without_auction_rejected(self):
        ledger = funded_ledger()
        with pytest.raises(NoActiveAuction):
            ledger.place_bid(request(), "b1")

    def test_insufficient_balance(self):
        ledger = funded_ledger()
        ledger.start_auction(request(amount=100), "b1")
        with pytest.raises(InsufficientBalance):
            ledger.place_bid(request(amount=1500), "b2")


class TestCloseAuction:
    def test_winner_after_window(self):
        ledger = funded_ledger(auction_window=10)
        ledger.register_dataset("s1", {"x"}, 10)
        ledger.start_auction(request(amount=100), "b1")
        ledger.place_bid(request(amount=150), "b2")
        for _ in range(10):
            ledger.advance_block()
        won, sellers, settlement = ledger.close_auction({"x"})
        assert won.amount == 150 and sellers == {"s1"}
        assert ledger.settlements[settlement].highest_bidder == "b2"
        assert frozenset({"x"}) not in ledger.active_auctions
        assert conserved(ledger)

    def test_close_before_end_rejected(self):
        ledger = funded_ledger()
        ledger.start_auction(request(), "b1")
        with pytest.raises(AuctionStillOpen):
            ledger.close_auction({"x"})

    def test_close_unknown_auction(self):
        ledger = funded_ledger()
        with pytest.raises(NoSuchAuction):
            ledger.close_auction({"zzz"})

    def test_no_matching_sellers_refunds_winner(self):
        ledger = funded_ledger(auction_window=2)
        ledger.start_auction(request(amount=100), "b1")
        for _ in range(2):
            ledger.advance_block()
        won, sellers, settlement = ledger.close_auction({"x"})
        assert sellers == frozenset() and settlement is None
        assert ledger.accounts["b1"].balance == 1000
        assert ledger.escrowed_total == 0
        assert conserved(ledger)

    def test_payout_must_balance(self):
        ledger = funded_ledger(auction_window=1)
        ledger.register_dataset("s1", {"x"}, 3)
        ledger.start_auction(request(amount=100), "b1")
        ledger.advance_block()
        _, _, settlement = ledger.close_auction({"x"})
        with pytest.raises(ValueError):
            ledger.payout_escrow(settlement, {"s1": 50})
        ledger.payout_escrow(settlement, {"s1": 70, "b1": 30})
        assert ledger.accounts["s1"].balance == 70
        assert conserved(ledger)

    @pytest.mark.parametrize(
        "transfers, error, message",
        [
            ({"s1": 60, "n9": 20, "n8": 20}, KeyError, "unknown account 'n9'"),
            ({"s1": 120, "b1": -20}, ValueError, "non-negative"),
            ({"s1": 70, "b1": 31}, ValueError, "do not sum"),
        ],
    )
    def test_refused_payout_changes_nothing(self, transfers, error, message):
        ledger = funded_ledger(auction_window=1)
        ledger.register_dataset("s1", {"x"}, 3)
        ledger.start_auction(request(amount=100), "b1")
        ledger.advance_block()
        _, _, settlement = ledger.close_auction({"x"})
        tx_log, snapshot = list(ledger.tx_log), ledger.snapshot()
        with pytest.raises(error, match=message):
            ledger.payout_escrow(settlement, transfers)
        assert ledger.tx_log == tx_log and ledger.snapshot() == snapshot


class TestCommitments:
    def fresh(self):
        ledger = Ledger(seed=1, commit_timeout=10)
        for i in range(6):
            ledger.register_node(f"n{i}")
        return ledger

    def test_commit_in_last_block_before_deadline_accepted(self):
        ledger = self.fresh()
        ledger.publish_execution_set(0, 1, ["n0", "n1"])
        deadline = ledger.execution_slots[(0, 1)].deadline
        assert deadline == ledger.height + 10
        while ledger.height < deadline - 1:
            ledger.advance_block()
        ledger.commit_digests(0, 1, [("n1", derive_seed("d")), ("n0", derive_seed("d"))])
        assert [c.node for c in ledger.commits_for(0, 1)] == ["n0", "n1"]

    def test_commit_at_deadline_rejected_without_trace(self):
        ledger = self.fresh()
        ledger.publish_execution_set(0, 1, ["n0", "n1", "n2"])
        ledger.commit_digest("n0", 0, 1, derive_seed("d"))
        for _ in range(10):
            ledger.advance_block()
        tx_log, snapshot = list(ledger.tx_log), ledger.snapshot()
        with pytest.raises(CommitTimeout):
            ledger.commit_digests(0, 1, [("n1", derive_seed("d")), ("n2", derive_seed("d"))])
        with pytest.raises(CommitTimeout):  # the deadline comes before membership
            ledger.commit_digest("n5", 0, 1, derive_seed("d"))
        assert ledger.tx_log == tx_log and ledger.snapshot() == snapshot
        assert [c.node for c in ledger.commits_for(0, 1)] == ["n0"]

    def test_partly_committed_slot_replays(self):
        ledger = Ledger(seed=1, commit_timeout=3)
        for i in range(6):
            ledger.register_node(f"n{i}")
        ledger.publish_execution_set(0, 1, ["n0", "n1"])  # full commit
        ledger.publish_execution_set(0, 2, ["n0", "n1", "n2"])  # n2 withholds
        for node in ["n0", "n1"]:
            ledger.commit_digest(node, 0, 1, derive_seed("d"))
            ledger.commit_digest(node, 0, 2, derive_seed("d"))
        for _ in range(4):
            ledger.advance_block()
        with pytest.raises(CommitTimeout):
            ledger.commit_digest("n2", 0, 2, derive_seed("d"))
        assert [c.node for c in ledger.commits_for(0, 2)] == ["n0", "n1"]
        replayed = Ledger.replay(ledger.tx_log_ndjson())
        assert replayed.snapshot_json() == ledger.snapshot_json()
        for key in [(0, 1), (0, 2)]:
            assert replayed.commits_for(*key) == ledger.commits_for(*key)

    def test_replay_rejects_commit_after_deadline(self):
        ledger = Ledger(seed=1, commit_timeout=2)
        ledger.register_node("n0")
        ledger.publish_execution_set(0, 1, ["n0"])
        ledger.advance_block()
        ledger.commit_digest("n0", 0, 1, derive_seed("d"))
        lines = ledger.tx_log_ndjson().splitlines()
        assert json.loads(lines[3])["op"] == "advance_block"
        second_block = json.dumps({**json.loads(lines[3]), "height": 2})
        late = [*lines[:4], second_block, *lines[4:]]  # a second block before the commit
        with pytest.raises(CommitTimeout):
            Ledger.replay("\n".join(late))

    @pytest.mark.parametrize("timeout", [0, -3])
    def test_timeout_below_one_rejected(self, timeout):
        with pytest.raises(ValueError):
            Ledger(commit_timeout=timeout)
        genesis = json.loads(Ledger().tx_log_ndjson())
        with pytest.raises(ValueError):
            Ledger.replay(json.dumps({**genesis, "commit_timeout": timeout}))

    def test_non_member_rejected(self):
        ledger = self.fresh()
        ledger.publish_execution_set(0, 1, ["n0", "n1"])
        with pytest.raises(NotInExecutionSet):
            ledger.commit_digest("n5", 0, 1, derive_seed("d"))
        with pytest.raises(NotInExecutionSet):
            ledger.commit_digest("n0", 0, 2, derive_seed("d"))

    def test_double_commit_rejected(self):
        ledger = self.fresh()
        ledger.publish_execution_set(0, 1, ["n0", "n1"])
        ledger.commit_digest("n0", 0, 1, derive_seed("d"))
        with pytest.raises(DoubleCommit):
            ledger.commit_digest("n0", 0, 1, derive_seed("other"))


class TestExecutionSets:
    def fresh(self):
        ledger = Ledger(seed=1, commit_timeout=10)
        ledger.register_user("b0", is_buyer=True)
        ledger.register_user("s0", is_buyer=False)
        ledger.register_nodes([f"n{i}" for i in range(4)])
        return ledger

    @pytest.mark.parametrize(
        "members, error, named",
        [
            (["n0", "n1", "n0"], DuplicateId, "n0"),
            (["n2", "n1", "n1", "n2"], DuplicateId, "n1"),
            (["n0", "n0", "x"], DuplicateId, "n0"),  # a repeat before an unknown id
            (["n0", "x"], UnknownNode, "x"),
            (["n0", "b0"], UnknownNode, "b0"),  # a buyer is no node
            (["s0"], UnknownNode, "s0"),
            (["x", "x", "b0"], UnknownNode, "x"),  # an unknown id before its repeat
        ],
    )
    def test_bad_member_refused_without_trace(self, members, error, named):
        ledger = self.fresh()
        tx_log, snapshot = list(ledger.tx_log), ledger.snapshot()
        with pytest.raises(error, match=f"'{named}'"):
            ledger.publish_execution_set(0, 1, members)
        assert ledger.tx_log == tx_log and ledger.snapshot() == snapshot
        assert ledger.execution_slots == {} and ledger.commits_for(0, 1) == []
        ledger.publish_execution_set(0, 1, ["n3", "n0"])  # the slot is still free
        assert len(ledger.execution_slots[(0, 1)].members) == 2

    @pytest.mark.parametrize(
        "members, error", [(["n0", "n0"], DuplicateId), (["n0", "b0"], UnknownNode)]
    )
    def test_replay_refuses_bad_member_entry(self, members, error):
        ledger = self.fresh()
        ledger.publish_execution_set(0, 1, ["n0", "n1"])
        lines = ledger.tx_log_ndjson().splitlines()
        entry = json.loads(lines[-1])
        assert entry["op"] == "publish_execution_set"
        forged = json.dumps({**entry, "members": members})
        with pytest.raises(error):
            Ledger.replay("\n".join([*lines[:-1], forged]))

    def test_slot_keeps_member_order(self):
        ledger = self.fresh()
        ledger.publish_execution_set(0, 1, ["n2", "n0", "n1"])
        ledger.commit_digests(0, 1, [("n0", derive_seed("d")), ("n2", derive_seed("d"))])
        assert [c.node for c in ledger.commits_for(0, 1)] == ["n2", "n0"]
        assert list(ledger.execution_slots[(0, 1)].members) == ["n2", "n0", "n1"]


class TestBatchCommits:
    D = derive_seed("d")

    def fresh(self, members=("n0", "n1", "n2", "n3")):
        ledger = Ledger(seed=1, commit_timeout=10)
        for i in range(6):
            ledger.register_node(f"n{i}")
        ledger.publish_execution_set(0, 1, list(members))
        return ledger

    @pytest.mark.parametrize(
        "batch, error",
        [
            ([("n1", D), ("n5", D)], NotInExecutionSet),  # n5 is no member
            ([("n1", D), ("n0", D)], DoubleCommit),  # n0 committed before
            ([("n1", D), ("n2", D), ("n1", D)], DoubleCommit),  # n1 twice in the batch
        ],
    )
    def test_bad_batch_changes_nothing(self, batch, error):
        ledger = self.fresh()
        ledger.commit_digests(0, 1, [("n0", self.D)])
        tx_log, snapshot = list(ledger.tx_log), ledger.snapshot()
        with pytest.raises(error):
            ledger.commit_digests(0, 1, batch)
        assert [c.node for c in ledger.commits_for(0, 1)] == ["n0"]
        assert ledger.tx_log == tx_log and ledger.snapshot() == snapshot

    def test_unpublished_slot_rejected(self):
        ledger = self.fresh()
        with pytest.raises(NotInExecutionSet):
            ledger.commit_digests(0, 2, [("n0", self.D)])
        with pytest.raises(NotInExecutionSet):
            ledger.commit_digests(0, 2, [])

    def test_two_batches_fill_slot_in_member_order(self):
        ledger = self.fresh()
        ledger.commit_digests(0, 1, [("n2", self.D), ("n0", derive_seed("x"))])
        assert [c.node for c in ledger.commits_for(0, 1)] == ["n0", "n2"]
        ledger.commit_digests(0, 1, [("n3", self.D), ("n1", self.D)])
        assert [c.node for c in ledger.commits_for(0, 1)] == ["n0", "n1", "n2", "n3"]
        logged = [
            [node for node, _ in e["commits"]] for e in ledger.tx_log if e["op"] == "commit_digests"
        ]
        assert logged == [["n2", "n0"], ["n3", "n1"]]

    def test_batch_logs_one_entry(self):
        ledger = self.fresh()
        before = len(ledger.tx_log)
        x = derive_seed("x")  # sorts after D, so first-seen order is not sorted order
        ledger.commit_digests(0, 1, [("n3", x), ("n0", self.D), ("n1", self.D), ("n2", x)])
        assert len(ledger.tx_log) == before + 1
        assert ledger.tx_log[-1] == {
            "op": "commit_digests",
            "height": 0,
            "round": 0,
            "mini_round": 1,
            "digests": [x.hex(), self.D.hex()],
            "commits": [["n3", 0], ["n0", 1], ["n1", 1], ["n2", 0]],
        }
        assert [(c.node, c.digest) for c in ledger.commits_for(0, 1)] == [
            ("n0", self.D), ("n1", self.D), ("n2", x), ("n3", x)
        ]

    def test_replay_makes_one_call_per_logged_batch(self):
        original = Ledger(seed=2, commit_timeout=3)
        for i in range(6):
            original.register_node(f"n{i}")
        original.publish_execution_set(0, 1, ["n0", "n1", "n2"])
        original.publish_execution_set(0, 2, ["n3", "n4", "n5"])
        original.commit_digests(0, 1, [("n2", self.D), ("n0", self.D)])
        original.commit_digest("n3", 0, 2, derive_seed("y"))
        original.commit_digest("n1", 0, 1, derive_seed("y"))
        original.commit_digests(0, 2, [("n4", self.D)])
        original.commit_digests(0, 2, [("n5", self.D)])
        for _ in range(4):
            original.advance_block()

        batches = []

        class Recording(Ledger):
            def commit_digests(self, round, mini_round, commits):
                batches.append(((round, mini_round), [node for node, _ in commits]))
                super().commit_digests(round, mini_round, commits)

        replayed = Recording.replay(original.tx_log_ndjson())
        assert replayed.snapshot_json() == original.snapshot_json()
        assert replayed.tx_log_ndjson() == original.tx_log_ndjson()
        assert batches == [
            ((0, 1), ["n2", "n0"]),
            ((0, 2), ["n3"]),
            ((0, 1), ["n1"]),
            ((0, 2), ["n4"]),
            ((0, 2), ["n5"]),
        ]
        for key in [(0, 1), (0, 2)]:
            assert replayed.commits_for(*key) == original.commits_for(*key)


class TestBlocks:
    def test_height_increments(self):
        ledger = Ledger()
        assert ledger.advance_block() == 1
        assert ledger.advance_block() == 2

    def test_beacon_reproducible_across_instances(self):
        a, b, other = Ledger(seed=99), Ledger(seed=99), Ledger(seed=100)
        beacons = {}
        for height in range(1, 6):
            for ledger in (a, b, other):
                ledger.advance_block()
            if height in (3, 5):
                assert a.beacon() == b.beacon() != other.beacon()
                beacons[height] = a.beacon()
        assert beacons[3] != beacons[5]


class TestConservationFuzz:
    def test_random_workload_conserves_supply(self):
        rng = rng_from(derive_seed("workload"))
        ledger = Ledger(seed=5, auction_window=4, tx_fee=1)
        buyers = [f"b{i}" for i in range(4)]
        for b in buyers:
            ledger.register_user(b, is_buyer=True)
            ledger.mint(b, 5000)
        ledger.register_user("s1", is_buyer=False)
        ledger.register_dataset("s1", {"t"}, 10)
        for step in range(200):
            action = rng.integers(0, 3)
            buyer = buyers[int(rng.integers(4))]
            try:
                if action == 0:
                    ledger.start_auction(request(tags=("t",), amount=int(rng.integers(1, 300))), buyer)
                elif action == 1:
                    ledger.place_bid(request(tags=("t",), amount=int(rng.integers(1, 300))), buyer)
                else:
                    ledger.advance_block()
                    try:
                        won, sellers, settlement = ledger.close_auction({"t"})
                        if settlement is not None:
                            ledger.payout_escrow(
                                settlement, {"s1": won.amount - 1, buyer: 1}
                            )
                    except (NoSuchAuction, AuctionStillOpen):
                        pass
            except (NoActiveAuction, InsufficientBalance):
                pass
            assert conserved(ledger)


class TestDeterminismAndAudit:
    def drive(self) -> Ledger:
        ledger = funded_ledger(auction_window=3, tx_fee=2)
        ledger.register_node("n0")
        ledger.register_dataset("s1", {"x", "y"}, 42)
        ledger.start_auction(request(tags=("x",), amount=120), "b1")
        ledger.place_bid(request(tags=("x",), amount=180), "b2")
        for _ in range(3):
            ledger.advance_block()
        _, _, settlement = ledger.close_auction({"x"})
        ledger.payout_escrow(settlement, {"s1": 126, "n0": 54})
        ledger.publish_execution_set(0, 1, ["n0"])
        ledger.commit_digest("n0", 0, 1, derive_seed("c"))
        ledger.advance_block()
        return ledger

    def test_identical_sequences_identical_state(self):
        assert self.drive().snapshot_json() == self.drive().snapshot_json()

    def test_replay_from_tx_log(self):
        original = self.drive()
        replayed = Ledger.replay(original.tx_log_ndjson())
        assert replayed.snapshot_json() == original.snapshot_json()
        assert replayed.tx_log_ndjson() == original.tx_log_ndjson()

    def test_snapshot_is_valid_json(self):
        snapshot = json.loads(self.drive().snapshot_json())
        assert snapshot["total_supply"] == 2000
        assert snapshot["accounts"]["s1"]["role"] == "seller"

    def test_tx_log_is_ndjson(self):
        for line in self.drive().tx_log_ndjson().splitlines():
            json.loads(line)

    def test_exports_are_compact(self):
        ledger = self.drive()
        for text in [ledger.snapshot_json(), *ledger.tx_log_ndjson().splitlines()]:
            assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))

    def tampered(self, op: str, field: str, value) -> str:
        """The drive() log with ``field`` of the last ``op`` entry set to ``value``."""
        entries = [json.loads(line) for line in self.drive().tx_log_ndjson().splitlines()]
        last = max(i for i, entry in enumerate(entries) if entry["op"] == op)
        entries[last][field] = value
        return "\n".join(json.dumps(entry) for entry in entries)

    def test_replay_rejects_tampered_height(self):
        with pytest.raises(ValueError, match=r"'advance_block' entry \d+ .*\['height'\]"):
            Ledger.replay(self.tampered("advance_block", "height", 9999))

    @pytest.mark.parametrize("op", ["genesis", "mint", "commit_digests"])
    def test_replay_rejects_unknown_extra_field(self, op):
        with pytest.raises(ValueError, match="genesis" if op == "genesis" else r"\['note'\]"):
            Ledger.replay(self.tampered(op, "note", "x"))

    def test_replay_rejects_tampered_outcome(self):
        # the ledger decides acceptance; a log claiming otherwise is refused
        with pytest.raises(ValueError, match=r"\['accepted'\]"):
            Ledger.replay(self.tampered("place_bid", "accepted", False))

    @pytest.mark.parametrize(
        "entry",
        [
            {"op": "commit_digest", "height": 0, "node": "n0", "round": 0, "mini_round": 1,
             "digest": "00" * 32},
            {"op": "register_node", "height": 0, "node_id": "n9"},
        ],
    )
    def test_replay_rejects_old_per_seat_ops(self, entry):
        lines = self.drive().tx_log_ndjson().splitlines()
        with pytest.raises(ValueError, match="unknown op"):
            Ledger.replay("\n".join([*lines, json.dumps(entry)]))
