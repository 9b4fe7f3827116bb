"""Revenue distribution and game-theoretic payoff analysis.

The ledger-facing half splits a winning bid 30/70 between compute nodes
and sellers in exact integer arithmetic.  The analysis half evaluates
one-shot expected payoffs for honest versus colluding behaviour and
mechanically checks the conditions under which honesty dominates for
sellers, for compute nodes, and for both at once.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

from .errors import EmptyContributors

NODE_SHARE_PERCENT = 30


@dataclass(frozen=True)
class RevenueReport:
    """Exact integer split of one winning bid."""

    bid_amount: int
    node_share: int
    seller_share: int
    node_transfers: dict[str, int]
    seller_transfers: dict[str, int]

    @property
    def transfers(self) -> dict[str, int]:
        merged = dict(self.node_transfers)
        merged.update(self.seller_transfers)
        return merged


def _integer_ratio(weight: float) -> tuple[int, int]:
    """Exact (numerator, denominator) of an integer or real weight."""
    try:
        return operator.index(weight), 1
    except TypeError:
        return weight.as_integer_ratio()


def _proportional_split(total: int, weights: Mapping[str, float]) -> dict[str, int]:
    """Floor-divide total by weight; the remainder goes to the lowest id.

    Each weight becomes an exact integer ratio over one common denominator,
    so the floors are exact even for float weights and the shares always
    sum to the total.  Equal weights get equal shares, so the ratio and the
    floor are worked out once per distinct weight.
    """
    multiplicity = Counter(weights.values())
    if not multiplicity or all(w == 0 for w in multiplicity):
        raise EmptyContributors("no positive weights to split over")
    if any(w < 0 for w in multiplicity):
        raise ValueError("weights must be non-negative")
    ratios = {w: _integer_ratio(w) for w in multiplicity}
    common = math.lcm(*(den for _, den in ratios.values()))
    scaled = {w: num * (common // den) for w, (num, den) in ratios.items()}
    scale = sum(n * multiplicity[w] for w, n in scaled.items())
    share = {w: total * n // scale for w, n in scaled.items()}
    shares = {key: share[w] for key, w in weights.items()}
    shares[min(shares)] += total - sum(shares.values())
    return shares


def distribute_revenue(
    bid_amount: int,
    seller_contribs: Mapping[str, float],
    node_counts: Mapping[str, int],
) -> RevenueReport:
    """Split a bid: 30% to nodes by participation, 70% to sellers by contribution.

    All transfers are integers and sum exactly to the bid amount.
    """
    if bid_amount <= 0:
        raise ValueError("bid amount must be positive")
    node_share = NODE_SHARE_PERCENT * bid_amount // 100
    seller_share = bid_amount - node_share
    return RevenueReport(
        bid_amount=bid_amount,
        node_share=node_share,
        seller_share=seller_share,
        node_transfers=_proportional_split(node_share, node_counts),
        seller_transfers=_proportional_split(seller_share, seller_contribs),
    )


def geometric_catch_prob(detect_rate: float) -> Callable[[int], float]:
    """Default detection model: 1 - (1 - d)^(r - 1), non-decreasing in r."""
    if not 0.0 <= detect_rate <= 1.0:
        raise ValueError("detect_rate must lie in [0, 1]")
    return lambda rounds: 1.0 - (1.0 - detect_rate) ** (rounds - 1)


@dataclass(frozen=True)
class PayoffParams:
    """Inputs of the one-shot payoff game.

    seller_pool / node_pool: reward pools for sellers and compute nodes.
    node_count: number of compute nodes a briber must reach.
    bribe: per-node bribe offered for endorsing inflated quality.
    quality_honest / quality_claimed: true and falsified data quality.
    success_prob: probability a collusion attempt slips through consensus.
    catch_prob: probability a colluding node is excluded from rewards
        when the run terminates after a given number of rounds.
    """

    seller_pool: float
    node_pool: float
    node_count: int
    bribe: float
    quality_honest: float
    quality_claimed: float
    success_prob: float
    catch_prob: Callable[[int], float] = field(default_factory=lambda: geometric_catch_prob(0.3))

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if min(self.seller_pool, self.node_pool, self.bribe) < 0:
            raise ValueError("monetary quantities must be >= 0")
        if not 0.0 <= self.quality_honest <= self.quality_claimed <= 1.0:
            raise ValueError("need 0 <= quality_honest <= quality_claimed <= 1")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError("success_prob must lie in [0, 1]")


def seller_payoff(params: PayoffParams, honest: bool) -> float:
    """Expected seller earnings under honest or quality-inflating play."""
    honest_value = params.quality_honest * params.seller_pool
    if honest:
        return honest_value
    bribed = params.quality_claimed * params.seller_pool - params.node_count * params.bribe
    return (1.0 - params.success_prob) * honest_value + params.success_prob * bribed


def node_payoff(params: PayoffParams, rounds: int, honest: bool) -> float:
    """Expected per-node earnings; the honest value is independent of rounds."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    base = params.node_pool / params.node_count
    if honest:
        return base
    caught = params.catch_prob(rounds)
    return base * (1.0 - caught) + params.success_prob * params.bribe


def seller_honesty_check(params: PayoffParams) -> tuple[bool, float]:
    """Honesty dominates for the seller iff bribing costs exceed the quality gain.

    Returns the payoff advantage of honesty,
    success_prob * (node_count * bribe - quality_gain * seller_pool).
    """
    gain = (params.quality_claimed - params.quality_honest) * params.seller_pool
    cost = params.node_count * params.bribe
    delta = params.success_prob * (cost - gain)
    return cost >= gain, delta


def node_honesty_check(params: PayoffParams, rounds: int) -> tuple[bool, float]:
    """Honesty (weakly) dominates for a node iff expected exclusion outweighs the bribe."""
    delta = (
        params.catch_prob(rounds) * params.node_pool / params.node_count
        - params.success_prob * params.bribe
    )
    return delta >= 0.0, delta


def honesty_equilibrium_check(
    params: PayoffParams, rounds: int
) -> tuple[bool, tuple[float, float] | None]:
    """Whether some bribe level satisfies both honesty conditions at once.

    The seller condition lower-bounds the feasible per-node bribe and the
    node condition upper-bounds it; the window is non-empty iff
    success_prob * quality_gain * seller_pool <= catch_prob * node_pool.
    With zero success probability the window is unbounded above.
    """
    gain = (params.quality_claimed - params.quality_honest) * params.seller_pool
    caught = params.catch_prob(rounds)
    lower = gain / params.node_count
    if params.success_prob == 0.0:
        return True, (lower, float("inf"))
    upper = caught * params.node_pool / (params.success_prob * params.node_count)
    holds = params.success_prob * gain <= caught * params.node_pool
    return holds, (lower, upper) if holds else None


@dataclass(frozen=True)
class PayoffReport:
    """Evaluated payoffs plus the honesty-condition verdicts."""

    u_seller_honest: float
    u_seller_malicious: float
    u_node_honest: float
    u_node_collude: float
    seller_honesty_holds: bool
    node_honesty_holds: bool
    equilibrium_holds: bool
    bribe_window: tuple[float, float] | None
    rounds: int

    def to_dict(self) -> dict:
        return asdict(self)


def analyze_payoffs(params: PayoffParams, rounds: int) -> PayoffReport:
    """Evaluate all payoffs and honesty conditions for one parameter set."""
    seller_ok, _ = seller_honesty_check(params)
    node_ok, _ = node_honesty_check(params, rounds)
    eq_ok, window = honesty_equilibrium_check(params, rounds)
    return PayoffReport(
        u_seller_honest=seller_payoff(params, honest=True),
        u_seller_malicious=seller_payoff(params, honest=False),
        u_node_honest=node_payoff(params, rounds, honest=True),
        u_node_collude=node_payoff(params, rounds, honest=False),
        seller_honesty_holds=seller_ok,
        node_honesty_holds=node_ok,
        equilibrium_holds=eq_ok,
        bribe_window=window,
        rounds=rounds,
    )
