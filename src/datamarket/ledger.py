"""Simulated single-writer blockchain: balances, auctions, escrow, commits.

All state changes go through the public methods below, which either apply
fully or raise without side effects; each successful call appends one
entry to a replayable transaction log, the ledger's only record.  Token
conservation is exact: minted supply always equals balances plus escrow
plus collected fees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .consensus import CommitRecord
from .errors import (
    AuctionStillOpen,
    CommitTimeout,
    DoubleCommit,
    DuplicateId,
    InsufficientBalance,
    NoActiveAuction,
    NoSuchAuction,
    NotBuyer,
    NotInExecutionSet,
    UnknownSeller,
)
from .rng import derive_seed


class Role(str, Enum):
    BUYER = "buyer"
    SELLER = "seller"
    NODE = "node"


_ROLE_NAMES = {role: role.value for role in Role}


@dataclass
class Account:
    id: str
    balance: int
    role: Role


@dataclass(frozen=True)
class DataRequest:
    """A buyer's bid: what data to use, how much to pay, when to stop.

    Validation accuracy ("accuracy") is the only metric the market scores.
    """

    tags: frozenset[str]
    amount: int
    metric_id: str = "accuracy"
    threshold: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "tags", frozenset(self.tags))
        if not self.tags:
            raise ValueError("request tags must be non-empty")
        if self.amount <= 0:
            raise ValueError("bid amount must be positive")
        if self.metric_id != "accuracy":
            raise ValueError(f"unknown metric {self.metric_id!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("metric threshold must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "tags": sorted(self.tags),
            "amount": self.amount,
            "metric_id": self.metric_id,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DataRequest":
        return cls(
            tags=frozenset(data["tags"]),
            amount=data["amount"],
            metric_id=data.get("metric_id", "accuracy"),
            threshold=data.get("threshold", 0.95),
        )


@dataclass
class AuctionState:
    """One auction from its first bid to its payout; ``request`` is the escrowed highest bid."""

    request: DataRequest
    highest_bidder: str
    auction_end: int

    @property
    def highest_bid(self) -> int:
        return self.request.amount


@dataclass(frozen=True)
class DatasetRecord:
    dataset_id: str
    seller: str
    tags: frozenset[str]
    size: int


@dataclass
class _ExecutionSlot:
    members: tuple[str, ...]
    member_set: frozenset[str]
    deadline: int
    commits: dict[str, bytes] = field(default_factory=dict)  # node -> digest, in commit order


_compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Ledger:
    """Single-writer ledger hosting the auction contract state machine."""

    def __init__(
        self,
        seed: int = 0,
        auction_window: int = 10,
        commit_timeout: int = 10,
        tx_fee: int = 0,
    ):
        if auction_window < 1:
            raise ValueError("auction_window must be >= 1")
        if commit_timeout < 1:
            raise ValueError("commit_timeout must be >= 1")
        if tx_fee < 0:
            raise ValueError("tx_fee must be >= 0")
        self.seed = seed
        self.auction_window = auction_window
        self.commit_timeout = commit_timeout
        self.tx_fee = tx_fee
        self.height = 0
        self.accounts: dict[str, Account] = {}
        self.datasets: list[DatasetRecord] = []
        self.active_auctions: dict[frozenset[str], AuctionState] = {}
        self.settlements: dict[int, AuctionState] = {}
        self.execution_slots: dict[tuple[int, int], _ExecutionSlot] = {}
        self.tx_log: list[dict] = [{
            "op": "genesis", "seed": seed, "auction_window": auction_window,
            "commit_timeout": commit_timeout, "tx_fee": tx_fee,
        }]
        self.total_supply = 0
        self.fees_collected = 0
        self._next_settlement = 0

    # -- internals ----------------------------------------------------

    def _log(self, op: str, **params) -> None:
        self.tx_log.append({"op": op, "height": self.height, **params})

    def _account(self, account_id: str) -> Account:
        if account_id not in self.accounts:
            raise KeyError(f"unknown account {account_id!r}")
        return self.accounts[account_id]

    # -- registration and funding --------------------------------------

    def register_user(self, user_id: str, is_buyer: bool) -> str:
        if user_id in self.accounts:
            raise DuplicateId(f"account {user_id!r} already registered")
        role = Role.BUYER if is_buyer else Role.SELLER
        self.accounts[user_id] = Account(id=user_id, balance=0, role=role)
        self._log("register_user", user_id=user_id, is_buyer=is_buyer)
        return user_id

    def register_node(self, node_id: str) -> str:
        """Register one compute node; see register_nodes."""
        self.register_nodes([node_id])
        return node_id

    def register_nodes(self, node_ids: Iterable[str]) -> None:
        """Register compute nodes as one transaction; a repeated or known id refuses them all.

        The error names the first offending id in batch order.
        """
        node_ids = list(node_ids)
        accounts, role = self.accounts, Role.NODE
        fresh: dict[str, Account] = {}
        for node_id in node_ids:
            if node_id in accounts or node_id in fresh:
                raise DuplicateId(f"account {node_id!r} already registered")
            fresh[node_id] = Account(node_id, 0, role)
        accounts.update(fresh)
        self._log("register_nodes", node_ids=node_ids)

    def mint(self, account_id: str, amount: int) -> None:
        """Issue new tokens to an account; grows the tracked supply."""
        if amount < 0:
            raise ValueError("cannot mint a negative amount")
        acct = self._account(account_id)
        acct.balance += amount
        self.total_supply += amount
        self._log("mint", account_id=account_id, amount=amount)

    def register_dataset(self, seller: str, tags: Iterable[str], size: int) -> str:
        tags = frozenset(tags)
        if not tags:
            raise ValueError("dataset tags must be non-empty")
        if size < 0:
            raise ValueError("dataset size must be >= 0")
        acct = self.accounts.get(seller)
        if acct is None or acct.role is not Role.SELLER:
            raise UnknownSeller(f"{seller!r} is not a registered seller")
        dataset_id = f"d{len(self.datasets) + 1}"
        self.datasets.append(DatasetRecord(dataset_id, seller, tags, size))
        self._log("register_dataset", seller=seller, tags=sorted(tags), size=size)
        return dataset_id

    def identify_matching_datasets(self, tags: Iterable[str]) -> frozenset[str]:
        """Sellers owning at least one dataset whose tags cover the query."""
        query = frozenset(tags)
        return frozenset(ds.seller for ds in self.datasets if query <= ds.tags)

    # -- auction ------------------------------------------------------

    def start_auction(self, request: DataRequest, caller: str) -> frozenset[str]:
        """Open an auction for the request's tags with the request as its first bid.

        When an auction with the same tags is already active the call
        bids on that one instead of opening a second.
        """
        auction = self.active_auctions.get(request.tags)
        if auction is None:
            auction_end = self.height + self.auction_window
            self._charge(request, caller, auction_end).balance -= request.amount
            self.active_auctions[request.tags] = AuctionState(request, caller, auction_end)
        else:
            self._bid(auction, request, caller)
        self._log("start_auction", request=request.to_dict(), caller=caller)
        return request.tags

    def place_bid(self, request: DataRequest, caller: str) -> bool:
        """Escrow a strictly higher bid, refunding the displaced bidder.

        Equal bids are rejected; the transaction fee is charged whether or
        not the bid is accepted.
        """
        auction = self.active_auctions.get(request.tags)
        if auction is None:
            raise NoActiveAuction(f"no active auction for tags {sorted(request.tags)}")
        accepted = self._bid(auction, request, caller)
        self._log("place_bid", request=request.to_dict(), caller=caller, accepted=accepted)
        return accepted

    def _bid(self, auction: AuctionState, request: DataRequest, caller: str) -> bool:
        acct = self._charge(request, caller, auction.auction_end)
        accepted = request.amount > auction.highest_bid
        if accepted:
            acct.balance -= request.amount
            self.accounts[auction.highest_bidder].balance += auction.highest_bid
            auction.request = request
            auction.highest_bidder = caller
        return accepted

    def _charge(self, request: DataRequest, caller: str, auction_end: int) -> Account:
        """Take the fee from a registered buyer who can cover the bid, before auction_end."""
        acct = self.accounts.get(caller)
        if acct is None or acct.role is not Role.BUYER:
            raise NotBuyer(f"{caller!r} is not a registered buyer")
        if self.height >= auction_end:
            raise NoActiveAuction(f"no active auction for tags {sorted(request.tags)}")
        if acct.balance < request.amount + self.tx_fee:
            raise InsufficientBalance(
                f"{caller!r} holds {acct.balance}, needs {request.amount + self.tx_fee}"
            )
        acct.balance -= self.tx_fee
        self.fees_collected += self.tx_fee
        return acct

    def close_auction(self, tags: Iterable[str]) -> tuple[DataRequest, frozenset[str], int | None]:
        """End an elapsed auction; return the winning request and matched sellers.

        The auction, with its escrow, becomes a settlement awaiting payout.
        With no matching sellers the winner is refunded in full.
        """
        tags = frozenset(tags)
        auction = self.active_auctions.get(tags)
        if auction is None:
            raise NoSuchAuction(f"no auction for tags {sorted(tags)}")
        if self.height < auction.auction_end:
            raise AuctionStillOpen(
                f"auction open until height {auction.auction_end}, now {self.height}"
            )
        del self.active_auctions[tags]
        sellers = self.identify_matching_datasets(tags)
        if not sellers:
            self.accounts[auction.highest_bidder].balance += auction.highest_bid
            self._log("close_auction", tags=sorted(tags), outcome="refunded")
            return auction.request, frozenset(), None
        settlement_id = self._next_settlement
        self._next_settlement += 1
        self.settlements[settlement_id] = auction
        self._log("close_auction", tags=sorted(tags), outcome="settled")
        return auction.request, sellers, settlement_id

    def payout_escrow(self, settlement_id: int, transfers: Mapping[str, int]) -> None:
        """Disburse a settlement's escrow; transfers must sum to it exactly."""
        settlement = self.settlements.get(settlement_id)
        if settlement is None:
            raise KeyError(f"unknown settlement {settlement_id}")
        if sum(transfers.values()) != settlement.highest_bid:
            raise ValueError("transfers do not sum to the escrowed amount")
        if min(transfers.values(), default=0) < 0:
            raise ValueError("transfers must be non-negative")
        accounts = self.accounts
        if not transfers.keys() <= accounts.keys():
            self._account(next(k for k in transfers if k not in accounts))
        for account_id, value in transfers.items():
            accounts[account_id].balance += value
        del self.settlements[settlement_id]
        transfers = dict(sorted(transfers.items()))
        self._log("payout_escrow", settlement_id=settlement_id, transfers=transfers)

    def refund_settlement(self, settlement_id: int) -> None:
        """Return a settlement's escrow to the winning bidder untouched."""
        settlement = self.settlements.get(settlement_id)
        if settlement is None:
            raise KeyError(f"unknown settlement {settlement_id}")
        self.accounts[settlement.highest_bidder].balance += settlement.highest_bid
        del self.settlements[settlement_id]
        self._log("refund_settlement", settlement_id=settlement_id)

    # -- digest commitments --------------------------------------------

    def publish_execution_set(
        self, round: int, mini_round: int, members: Iterable[str]
    ) -> None:
        key = (round, mini_round)
        if key in self.execution_slots:
            raise ValueError(f"execution set for {key} already published")
        members = tuple(members)
        self.execution_slots[key] = _ExecutionSlot(
            members=members,
            member_set=frozenset(members),
            deadline=self.height + self.commit_timeout,
        )
        self._log("publish_execution_set", round=round, mini_round=mini_round, members=list(members))

    def commit_digest(self, node: str, round: int, mini_round: int, digest: bytes) -> None:
        """Record one node's commit; see commit_digests."""
        self.commit_digests(round, mini_round, [(node, digest)])

    def commit_digests(
        self, round: int, mini_round: int, commits: Sequence[tuple[str, bytes]]
    ) -> None:
        """Record (node, digest) commits for one execution slot, in order.

        A batch at or after the slot's deadline is refused whole.  Otherwise
        the batch is validated first: every node must be a member that has
        not committed yet and appears once in the batch.  The batch is
        logged as one entry: its distinct digests once each, in first-seen
        order, and each commit as ``[node, index into digests]``.
        """
        slot = self.execution_slots.get((round, mini_round))
        if slot is None:
            raise NotInExecutionSet(f"no execution set ({round}, {mini_round})")
        if self.height >= slot.deadline:
            raise CommitTimeout(f"execution set ({round}, {mini_round}) timed out at {slot.deadline}")
        batch: set[str] = set()
        for node, _ in commits:
            if node not in slot.member_set:
                raise NotInExecutionSet(f"{node!r} not in execution set ({round}, {mini_round})")
            if node in slot.commits or node in batch:
                raise DoubleCommit(f"{node!r} already committed for ({round}, {mini_round})")
            batch.add(node)
        index: dict[bytes, int] = {}
        for node, digest in commits:
            slot.commits[node] = digest
            index.setdefault(digest, len(index))
        self._log(
            "commit_digests", round=round, mini_round=mini_round,
            digests=[digest.hex() for digest in index],
            commits=[[node, index[digest]] for node, digest in commits],
        )

    def commits_for(self, round: int, mini_round: int) -> list[CommitRecord]:
        """The slot's commits in member order."""
        slot = self.execution_slots.get((round, mini_round))
        if slot is None:
            return []
        done = slot.commits
        return [CommitRecord(mini_round, done[node], node) for node in slot.members if node in done]

    # -- block production -----------------------------------------------

    def advance_block(self) -> int:
        """Advance one block; auctions and execution slots expire by height."""
        self.height += 1
        self._log("advance_block")
        return self.height

    def beacon(self) -> bytes:
        """Deterministic randomness of the current block, used to seed sortition."""
        return derive_seed(self.seed, "beacon", self.height)

    # -- audit surfaces ---------------------------------------------------

    @property
    def escrowed_total(self) -> int:
        auctions = [*self.active_auctions.values(), *self.settlements.values()]
        return sum(a.highest_bid for a in auctions)

    def snapshot(self) -> dict:
        return {
            "height": self.height,
            "total_supply": self.total_supply,
            "fees_collected": self.fees_collected,
            "accounts": {
                account_id: {"balance": a.balance, "role": _ROLE_NAMES[a.role]}
                for account_id, a in sorted(self.accounts.items())
            },
            "datasets": [
                {
                    "id": ds.dataset_id,
                    "seller": ds.seller,
                    "tags": sorted(ds.tags),
                    "size": ds.size,
                }
                for ds in self.datasets
            ],
            "active_auctions": [
                {
                    "tags": sorted(a.request.tags),
                    "auction_end": a.auction_end,
                    "highest_bid": a.highest_bid,
                    "highest_bidder": a.highest_bidder,
                    "escrowed": a.highest_bid,
                }
                for a in map(self.active_auctions.get, sorted(self.active_auctions, key=sorted))
            ],
            "settlements": {
                str(sid): {
                    "amount": s.highest_bid,
                    "winner": s.highest_bidder,
                    "tags": sorted(s.request.tags),
                }
                for sid, s in sorted(self.settlements.items())
            },
        }

    def snapshot_json(self) -> str:
        return _compact_json(self.snapshot())

    def tx_log_ndjson(self) -> str:
        return "\n".join(map(_compact_json, self.tx_log))

    @classmethod
    def replay(cls, ndjson: str) -> "Ledger":
        """Rebuild a ledger by re-applying an exported transaction log.

        Each re-applied call must log exactly the entry it was read from,
        so a log with a changed height, result or extra field is refused.
        """
        lines = [json.loads(line) for line in ndjson.splitlines() if line.strip()]
        if not lines or lines[0]["op"] != "genesis":
            raise ValueError("transaction log must start with a genesis record")
        genesis = lines[0]
        keys = ("seed", "auction_window", "commit_timeout", "tx_fee")
        ledger = cls(**{key: genesis[key] for key in keys})
        if ledger.tx_log[0] != genesis:
            raise ValueError("genesis record has fields other than its parameters")
        for entry in lines[1:]:
            op = entry["op"]
            if op == "register_user":
                ledger.register_user(entry["user_id"], entry["is_buyer"])
            elif op == "register_nodes":
                ledger.register_nodes(entry["node_ids"])
            elif op == "mint":
                ledger.mint(entry["account_id"], entry["amount"])
            elif op == "register_dataset":
                ledger.register_dataset(entry["seller"], entry["tags"], entry["size"])
            elif op == "start_auction":
                ledger.start_auction(DataRequest.from_dict(entry["request"]), entry["caller"])
            elif op == "place_bid":
                ledger.place_bid(DataRequest.from_dict(entry["request"]), entry["caller"])
            elif op == "close_auction":
                ledger.close_auction(entry["tags"])
            elif op == "payout_escrow":
                ledger.payout_escrow(entry["settlement_id"], entry["transfers"])
            elif op == "refund_settlement":
                ledger.refund_settlement(entry["settlement_id"])
            elif op == "publish_execution_set":
                ledger.publish_execution_set(entry["round"], entry["mini_round"], entry["members"])
            elif op == "commit_digests":
                digests = [bytes.fromhex(digest) for digest in entry["digests"]]
                commits = [(node, digests[k]) for node, k in entry["commits"]]
                ledger.commit_digests(entry["round"], entry["mini_round"], commits)
            elif op == "advance_block":
                ledger.advance_block()
            else:
                raise ValueError(f"unknown op {op!r} in transaction log")
            logged = ledger.tx_log[-1]
            if logged != entry:
                names = logged.keys() | entry.keys()
                fields = sorted(k for k in names if logged.get(k) != entry.get(k))
                raise ValueError(
                    f"{op!r} entry {len(ledger.tx_log) - 1} does not replay as read: {fields} differ"
                )
        return ledger

