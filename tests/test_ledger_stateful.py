"""Random ledger call sequences: conservation, atomic failures and exact replay.

Every call either appends exactly one transaction-log entry or raises and
changes nothing, and replaying the exported log rebuilds the same ledger,
the same commits and the same log text.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from datamarket.errors import (
    CommitTimeout,
    DoubleCommit,
    DuplicateId,
    MarketError,
    NotBuyer,
    NotInExecutionSet,
    UnknownNode,
    UnknownSeller,
)
from datamarket.ledger import DataRequest, Ledger, Role
from datamarket.rng import derive_seed

USERS = ("b0", "b1", "b2", "s0", "s1", "s2")
NODES = ("n0", "n1", "n2", "n3", "n4")
TAGS = st.sampled_from([frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})])
DIGESTS = tuple(derive_seed("digest", k) for k in range(3))
TIMEOUT = 4


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ledger = Ledger(seed=4, auction_window=2, commit_timeout=TIMEOUT, tx_fee=1)
        self.height = 0
        self.slots: dict[tuple[int, int], tuple[tuple[str, ...], int]] = {}  # members, deadline
        self.committed: dict[tuple[int, int], dict[str, bytes]] = {}

    def call(self, op: str, *args, error: type | None = None, may_fail: bool = False) -> bool:
        """Apply one ledger call; True if it succeeded.

        It must raise ``error`` (or any ledger error when ``may_fail``) and
        change nothing, or succeed and append exactly one ``op`` entry.
        """
        ledger = self.ledger
        tx_log, snapshot = list(ledger.tx_log), ledger.snapshot()
        try:
            getattr(ledger, op)(*args)
        except (MarketError, ValueError, KeyError) as exc:
            assert type(exc) is error or may_fail, f"{op}{args} raised {exc!r}"
            assert ledger.tx_log == tx_log and ledger.snapshot() == snapshot
            return False
        assert error is None, f"{op}{args} should have raised {error.__name__}"
        assert ledger.tx_log[:-1] == tx_log and ledger.tx_log[-1]["op"] == op
        return True

    @initialize()
    def open_market(self):
        for user in ("b0", "b1", "s0", "s1"):
            self.call("register_user", user, user.startswith("b"))
        for buyer in ("b0", "b1"):
            self.call("mint", buyer, 1000)
        self.call("register_nodes", list(NODES[:3]))  # the rest stay for register_nodes
        self.call("register_dataset", "s0", {"x"}, 10)
        # settle one auction first, so the payout and refund rules have one to act on
        self.call("start_auction", DataRequest(tags={"x"}, amount=100), "b0")
        for _ in range(2):
            self.advance_block()
        self.call("close_auction", {"x"})
        self.call("start_auction", DataRequest(tags={"x"}, amount=100), "b1")

    # -- registration and funding ---------------------------------------

    @rule(user=st.sampled_from(USERS), is_buyer=st.booleans())
    def register_user(self, user, is_buyer):
        known = user in self.ledger.accounts
        self.call("register_user", user, is_buyer, error=DuplicateId if known else None)

    @rule(batch=st.lists(st.sampled_from(NODES + USERS[:1]), max_size=4))
    def register_nodes(self, batch):
        clash = len(set(batch)) < len(batch) or any(n in self.ledger.accounts for n in batch)
        self.call("register_nodes", batch, error=DuplicateId if clash else None)

    @rule(account=st.sampled_from(USERS + NODES), amount=st.integers(-3, 600))
    def mint(self, account, amount):
        error = ValueError if amount < 0 else None if account in self.ledger.accounts else KeyError
        self.call("mint", account, amount, error=error)

    @rule(seller=st.sampled_from(USERS + NODES), tags=TAGS, size=st.integers(0, 50))
    def register_dataset(self, seller, tags, size):
        acct = self.ledger.accounts.get(seller)
        error = None if acct is not None and acct.role is Role.SELLER else UnknownSeller
        self.call("register_dataset", seller, tags, size, error=error)

    # -- auction --------------------------------------------------------

    def is_buyer(self, caller: str) -> bool:
        acct = self.ledger.accounts.get(caller)
        return acct is not None and acct.role is Role.BUYER

    @rule(caller=st.sampled_from(USERS + NODES), tags=TAGS, amount=st.integers(1, 400))
    def start_auction(self, caller, tags, amount):
        buyer = self.is_buyer(caller)
        self.call(
            "start_auction", DataRequest(tags=tags, amount=amount), caller,
            error=None if buyer else NotBuyer, may_fail=buyer,
        )

    @precondition(lambda self: self.ledger.active_auctions)
    @rule(data=st.data(), caller=st.sampled_from(USERS + NODES), amount=st.integers(1, 400))
    def place_bid(self, data, caller, amount):
        tags = data.draw(st.sampled_from(sorted(self.ledger.active_auctions, key=sorted)))
        buyer = self.is_buyer(caller)
        self.call(
            "place_bid", DataRequest(tags=tags, amount=amount), caller,
            error=None if buyer else NotBuyer, may_fail=buyer,
        )

    @rule()
    def advance_block(self):
        self.call("advance_block")
        self.height += 1

    @precondition(lambda self: self.ledger.active_auctions)
    @rule(data=st.data())
    def close_auction(self, data):
        tags = data.draw(st.sampled_from(sorted(self.ledger.active_auctions, key=sorted)))
        self.call("close_auction", tags, may_fail=True)

    @precondition(lambda self: self.ledger.settlements)
    @rule(data=st.data(), exact=st.booleans())
    def payout_escrow(self, data, exact):
        settlement = data.draw(st.sampled_from(sorted(self.ledger.settlements)))
        left = self.ledger.settlements[settlement].highest_bid
        accounts = st.sampled_from(sorted(self.ledger.accounts))
        payees = data.draw(st.lists(accounts, min_size=1, max_size=3, unique=True))
        transfers = {}
        for payee in payees[1:]:
            transfers[payee] = data.draw(st.integers(0, left))
            left -= transfers[payee]
        transfers[payees[0]] = left if exact else left + 1
        self.call("payout_escrow", settlement, transfers, error=None if exact else ValueError)

    @rule(data=st.data())
    def refund_settlement(self, data):
        settlements = self.ledger.settlements
        ids = st.integers(0, 3)
        if settlements:
            ids = st.sampled_from(sorted(settlements)) | ids
        settlement = data.draw(ids)
        if settlement not in settlements:
            self.call("refund_settlement", settlement, error=KeyError)
            return
        winner, amount = settlements[settlement].highest_bidder, settlements[settlement].highest_bid
        before = self.ledger.accounts[winner].balance
        self.call("refund_settlement", settlement)
        assert self.ledger.accounts[winner].balance == before + amount

    # -- digest commitments ---------------------------------------------

    @rule(data=st.data(), round=st.integers(0, 1), mini_round=st.integers(1, 2))
    def publish_execution_set(self, data, round, mini_round):
        key = (round, mini_round)
        accounts = self.ledger.accounts
        registered = [node for node in NODES if node in accounts]
        nodes = st.lists(st.sampled_from(registered), min_size=1, max_size=3, unique=True)
        members = data.draw(nodes)
        if data.draw(st.booleans()):  # one more member: a repeat, a user or an unregistered node
            position = data.draw(st.integers(0, len(members)))
            members.insert(position, data.draw(st.sampled_from(NODES + USERS[:1])))
        error = None
        for k, node in enumerate(members):  # the first offending member names the error
            if node not in accounts or accounts[node].role is not Role.NODE:
                error = UnknownNode
            elif node in members[:k]:
                error = DuplicateId
            if error is not None:
                break
        if key in self.slots:
            error = ValueError
        if self.call("publish_execution_set", round, mini_round, members, error=error):
            self.slots[key] = (tuple(members), self.height + TIMEOUT)
            self.committed[key] = {}

    @precondition(lambda self: self.slots)
    @rule(data=st.data())
    def commit_digests(self, data):
        key = data.draw(st.sampled_from(sorted(self.slots)))
        nodes = st.sampled_from(self.slots[key][0]) | st.sampled_from(NODES)
        batch = data.draw(st.lists(st.tuples(nodes, st.sampled_from(DIGESTS)), max_size=3))
        error = None
        if self.height >= self.slots[key][1]:
            error = CommitTimeout
        else:
            seen = set(self.committed[key])
            for node, _ in batch:
                if node not in self.slots[key][0]:
                    error = NotInExecutionSet
                    break
                if node in seen:
                    error = DoubleCommit
                    break
                seen.add(node)
        if self.call("commit_digests", *key, batch, error=error):
            self.committed[key].update(batch)

    # -- invariants -----------------------------------------------------

    @invariant()
    def tokens_conserved(self):
        ledger = self.ledger
        held = sum(a.balance for a in ledger.accounts.values())
        assert held + ledger.escrowed_total + ledger.fees_collected == ledger.total_supply

    @invariant()
    def auctions_hold_buyer_bids(self):
        ledger = self.ledger
        for tags, auction in ledger.active_auctions.items():
            assert auction.request.tags == tags
        for auction in [*ledger.active_auctions.values(), *ledger.settlements.values()]:
            assert self.is_buyer(auction.highest_bidder)

    @invariant()
    def commits_in_member_order(self):
        for key, (members, _) in self.slots.items():
            done = self.committed[key]
            expected = [(node, done[node]) for node in members if node in done]
            assert [(c.node, c.digest) for c in self.ledger.commits_for(*key)] == expected

    @invariant()
    def replay_reproduces_ledger(self):
        text = self.ledger.tx_log_ndjson()
        replayed = Ledger.replay(text)
        assert replayed.snapshot() == self.ledger.snapshot()
        for key in self.slots:
            assert replayed.commits_for(*key) == self.ledger.commits_for(*key)
        assert replayed.tx_log_ndjson() == text


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(max_examples=50, stateful_step_count=30, deadline=None)
