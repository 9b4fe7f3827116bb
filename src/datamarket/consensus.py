"""Committee sortition and multi-round likelihood agreement on result digests.

Off-chain executors are drawn in mini-rounds whose committee size grows
exponentially.  Each executor commits a digest of its computed state; a
digest is accepted once its cumulative likelihood score clears a threshold
calibrated so that the probability of a Byzantine digest winning stays
below a configured bound.  :func:`agree` runs the mini-rounds for every
caller; each caller supplies only how a committee is seated and commits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .errors import DegenerateParams, NoConsensus, SizeExceedsPopulation
from .rng import rng_from


@dataclass(frozen=True)
class ConsensusParams:
    """Protocol-wide consensus configuration.

    total_nodes: size of the executor population.
    sample_fraction: expected fraction of the population queried per round.
    byz_fraction_max: largest Byzantine fraction the threshold must defend
        against; must stay below one half.
    confidence_beta: target bound on the probability of accepting a
        Byzantine digest.
    base_size: committee size of the first mini-round.
    """

    total_nodes: int
    sample_fraction: float
    byz_fraction_max: float
    confidence_beta: float
    base_size: int

    def __post_init__(self):
        if self.total_nodes < 1:
            raise DegenerateParams("total_nodes must be >= 1")
        if not 0.0 < self.sample_fraction < 1.0:
            raise DegenerateParams("sample_fraction must lie in (0, 1)")
        if not 0.0 <= self.byz_fraction_max < 0.5:
            raise DegenerateParams("byz_fraction_max must lie in [0, 0.5)")
        # 0.5 is the zero-information edge (threshold 0), still evaluable.
        if not 0.0 < self.confidence_beta <= 0.5:
            raise DegenerateParams("confidence_beta must lie in (0, 0.5]")
        if self.base_size < 1:
            raise DegenerateParams("base_size must be >= 1")


@dataclass(frozen=True)
class CommitRecord:
    """One executor's digest commitment for one mini-round."""

    mini_round: int
    digest: bytes
    node: str


def execution_set_size(i: int, s0: int, cap: int | None = None) -> int:
    """Committee size for mini-round ``i`` (1-based): s0 + 2^(i-1) - 1.

    Capped at the population size when ``cap`` is given.
    """
    if i < 1:
        raise ValueError("mini-round index starts at 1")
    size = s0 + 2 ** (i - 1) - 1
    if cap is not None:
        size = min(size, cap)
    return size


def total_executions(r: int, s0: int) -> int:
    """Closed form for the total committee seats over mini-rounds 1..r."""
    if r < 1:
        raise ValueError("round count must be >= 1")
    return r * (s0 - 1) + 2**r - 1


def sortition(seed: bytes, population: int, size: int) -> np.ndarray:
    """Draw a uniform without-replacement committee of population indices, deterministic in seed."""
    if size > population:
        raise SizeExceedsPopulation(f"size {size} > population {population}")
    return rng_from(seed).permutation(population)[:size]


def likelihood_scores(
    counts_by_round: Sequence[Mapping[bytes, int]],
    sizes: Sequence[int],
) -> dict[bytes, int]:
    """Exact integer likelihood scores per digest.

    For each digest k seen in any mini-round the score is
    sum over mini-rounds l of (2*c_{k,l} - C_l) * C_l, where c_{k,l} is the
    number of committers of k in mini-round l and C_l the committee size.
    """
    if len(counts_by_round) != len(sizes):
        raise ValueError("counts and sizes length mismatch")
    digests: set[bytes] = set()
    for l, counts in enumerate(counts_by_round):
        committed = sum(counts.values())
        if committed > sizes[l]:
            raise ValueError(f"mini-round {l + 1} has more commits than seats")
        digests.update(counts)
    return {
        k: sum((2 * counts.get(k, 0) - c_l) * c_l for counts, c_l in zip(counts_by_round, sizes))
        for k in digests
    }


def _scale(params: ConsensusParams) -> float:
    """2q(1-q)·N·(1-f)·f, the scale that threshold and acceptance_bound share."""
    f = params.byz_fraction_max
    q = params.sample_fraction
    if f <= 0.0 or f >= 0.5:
        raise DegenerateParams("byz_fraction_max must lie strictly in (0, 0.5)")
    return 2.0 * q * (1.0 - q) * params.total_nodes * (1.0 - f) * f


def threshold(params: ConsensusParams) -> float:
    """Likelihood score a digest must exceed for acceptance.

    Grows with the demanded confidence and shrinks as the tolerated
    Byzantine fraction moves away from one half.
    """
    f = params.byz_fraction_max
    beta = params.confidence_beta
    return math.log((1.0 - beta) / beta) * _scale(params) / ((1.0 - f) - f)


def acceptance_bound(theta: float, params: ConsensusParams) -> float:
    """Upper bound on the probability that a Byzantine digest is accepted.

    Exact inverse of :func:`threshold`: feeding the threshold computed for
    a configured bound returns that bound.
    """
    f = params.byz_fraction_max
    x = theta * (1.0 - 2.0 * f) / _scale(params)
    if x > 0.0:  # e^x overflows past about 709, where e^-x just underflows to 0
        return math.exp(-x) / (1.0 + math.exp(-x))
    return 1.0 / (1.0 + math.exp(x))


def best_digest(scores: Mapping[bytes, int]) -> bytes | None:
    """Digest with the largest score; ties broken by smallest digest."""
    if not scores:
        return None
    return min(scores, key=lambda k: (-scores[k], k))


def decide(scores: Mapping[bytes, int], theta: float) -> bytes | None:
    """Accept the digest whose score strictly exceeds theta, else None.

    When several digests clear the threshold the one with the largest
    score wins; equal scores fall back to the smallest digest.
    """
    return best_digest({k: s for k, s in scores.items() if s > theta})


@dataclass(frozen=True)
class AgreementOutcome:
    """Result of one simulated agreement instance."""

    accepted: bytes
    mini_rounds: int
    wrong_accepted: bool


def agree(
    params: ConsensusParams,
    theta: float,
    commit: Callable[[int, int], Mapping[bytes, int]],
    revealable: Collection[bytes] | None = None,
    on_decision: Callable[[int, dict[bytes, int], bytes | None], None] | None = None,
) -> tuple[bytes, int]:
    """Run mini-rounds until a revealable digest is accepted.

    ``commit(i, size)`` seats the committee of mini-round ``i`` and returns
    its digest counts.  A digest is accepted once its score clears theta;
    once the committee spans the whole population, the top-scoring digest
    is accepted after that mini-round.  An accepted digest outside
    ``revealable`` (None: every digest is) is disqualified and the rounds
    go on.  ``on_decision(i, scores, accepted)`` sees every mini-round's
    scores and decision before anything is returned or raised.

    Returns the accepted digest and the number of mini-rounds; raises
    NoConsensus when no revealable digest is left at the population cap.

    The scores equal :func:`likelihood_scores` over every mini-round so
    far, kept as running sums so that a mini-round adds only its own counts.
    """
    cross: dict[bytes, int] = {}  # digest -> sum over mini-rounds of 2·c·C
    squares = 0  # sum over mini-rounds of C²
    disqualified: set[bytes] = set()
    i = 0
    while True:
        i += 1
        size = execution_set_size(i, params.base_size, cap=params.total_nodes)
        counts = commit(i, size)
        if sum(counts.values()) > size:
            raise ValueError(f"mini-round {i} has more commits than seats")
        for k, c in counts.items():
            cross[k] = cross.get(k, 0) + 2 * c * size
        squares += size * size
        scores = {k: v - squares for k, v in cross.items() if k not in disqualified}
        accepted = decide(scores, theta)
        exhausted = size >= params.total_nodes
        if accepted is None and exhausted:
            accepted = best_digest(scores)
        if on_decision is not None:
            on_decision(i, scores, accepted)
        if accepted is not None:
            if revealable is None or accepted in revealable:
                return accepted, i
            # winner has no revealable preimage (forged digest): disqualify it
            disqualified.add(accepted)
        if exhausted:
            raise NoConsensus("no revealable digest available at population cap")
