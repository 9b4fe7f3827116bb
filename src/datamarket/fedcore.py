"""Adaptive seller sampling and Byzantine-robust aggregation.

One federated round samples sellers from an adaptively maintained
distribution, estimates each sampled seller's marginal utility without
bias, shifts the distribution by an entropic mirror-descent step on a
floor-constrained simplex, and aggregates the candidate models by picking
the one closest to their mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCandidates,
    NumericalFailure,
    ZeroProbabilitySampled,
)
from .rng import derive_seed, rng_from

FEASIBILITY_TOL = 1e-10


@dataclass(frozen=True)
class OsmdConfig:
    """Settings for the sampling/aggregation round.

    batch_size: sellers sampled per round (with replacement).
    learning_rate: step of the distribution update; 0 freezes the
        distribution.
    step_size: scale applied to seller deltas.
    floor_fraction: fairness floor; every seller keeps probability at
        least floor_fraction / n.
    """

    batch_size: int = 10
    learning_rate: float = 1.0
    step_size: float = 1.0
    floor_fraction: float = 0.5

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 <= self.floor_fraction <= 1.0:
            raise ValueError("floor_fraction must lie in [0, 1]")


def sample_sellers(p: np.ndarray, k: int, seed: bytes) -> np.ndarray:
    """Draw k seller indices i.i.d. from p, deterministic in seed."""
    p = np.asarray(p, dtype=float)
    rng = rng_from(seed)
    return rng.choice(len(p), size=k, replace=True, p=p / p.sum())


def utility_estimates(
    multiplicity: np.ndarray,
    p: np.ndarray,
    k: int,
    deltas: np.ndarray,
) -> np.ndarray:
    """Importance-weighted utility estimates; zero for unsampled sellers.

    ``multiplicity[i]`` counts seller i's draws among the k, and ``deltas``
    holds the sampled sellers' utility changes in index order.  For a
    sampled seller i the estimate is (multiplicity_i / (k * p_i)) * delta_i,
    which makes the estimator unbiased under sampling from p.
    """
    multiplicity, p = np.asarray(multiplicity), np.asarray(p, dtype=float)
    sampled = np.flatnonzero(multiplicity)
    zero = sampled[p[sampled] == 0.0]
    if len(zero):
        raise ZeroProbabilitySampled(f"seller {zero[0]} sampled with zero probability")
    u_hat = np.zeros(len(p))
    u_hat[sampled] = multiplicity[sampled] / (k * p[sampled]) * np.asarray(deltas, dtype=float)
    return u_hat


def _project_floor_simplex(weights: np.ndarray, floor: float) -> np.ndarray:
    """Entropic projection onto {q : sum q = 1, q_i >= floor}.

    Entries that would fall below the floor are pinned there; the rest are
    scaled to fill the remaining mass.  Each pass pins at least one new
    entry, so at most n passes are needed.
    """
    n = len(weights)
    q = np.empty(n)
    fixed = np.zeros(n, dtype=bool)
    for _ in range(n + 1):
        free = ~fixed
        budget = 1.0 - floor * int(fixed.sum())
        if not free.any():
            q[:] = floor
            break
        free_sum = float(weights[free].sum())
        if free_sum <= 0.0 or not np.isfinite(free_sum) or budget < -FEASIBILITY_TOL:
            raise NumericalFailure("projection ran out of mass")
        q[fixed] = floor
        q[free] = weights[free] * (budget / free_sum)
        newly = free & (q < floor)
        if not newly.any():
            break
        fixed |= newly
    if abs(float(q.sum()) - 1.0) > FEASIBILITY_TOL or q.min() < floor - 1e-12:
        raise NumericalFailure("projection failed to reach feasibility")
    return q


def omd_update(
    p: np.ndarray,
    u_hat: np.ndarray,
    eta: float,
    alpha: float,
) -> np.ndarray:
    """One mirror-descent step of the sampling distribution.

    Multiplies each probability by exp(-eta * u_hat_i) (computed in log
    space for stability) and projects back onto the floor-constrained
    simplex.  A zero estimate vector leaves the distribution unchanged.
    """
    p = np.asarray(p, dtype=float)
    u_hat = np.asarray(u_hat, dtype=float)
    if p.shape != u_hat.shape:
        raise DimensionMismatch("distribution and estimates differ in length")
    floor = alpha / len(p)
    with np.errstate(over="ignore", invalid="ignore"):
        step = eta * u_hat
        if not np.any(step):
            return _project_floor_simplex(p.copy(), floor) if p.min() < floor else p.copy()
        with np.errstate(divide="ignore"):
            log_w = np.log(p) - step
        log_w = log_w - np.nanmax(log_w)
        weights = np.exp(log_w)
    if not np.all(np.isfinite(weights)):
        raise NumericalFailure("non-finite weights in distribution update")
    return _project_floor_simplex(weights, floor)


def _stack(candidates: Sequence[np.ndarray]) -> np.ndarray:
    """The candidates as one (k, P) float matrix; a float matrix is returned without a copy."""
    if len(candidates) == 0:
        raise EmptyCandidates("no candidates to aggregate")
    if len({np.shape(c) for c in candidates}) > 1:
        raise DimensionMismatch("candidate dimensions differ")
    return np.asarray(candidates, dtype=float)


def corrected_krum_index(candidates: Sequence[np.ndarray]) -> int:
    """Index of the candidate nearest the mean of all, by squared distance; ties go to the lowest."""
    stack = _stack(candidates)
    return int(np.argmin(((stack - stack.mean(axis=0)) ** 2).sum(axis=1)))


def classical_krum_index(candidates: Sequence[np.ndarray], byz_count: int | None = None) -> int:
    """Classical nearest-neighbour Krum score, for comparison; no round aggregates with it."""
    stack = _stack(candidates)
    n = len(stack)
    if byz_count is None:
        byz_count = max(0, (n - 3) // 2)
    if n <= 2 * byz_count + 2:
        raise ValueError("need more than 2 * byz_count + 2 candidates")
    diff = stack[:, None, :] - stack[None, :, :]
    dist2 = (diff**2).sum(axis=2)
    closest = n - byz_count - 1  # excludes self, which scores 0 anyway
    scores = np.sort(dist2, axis=1)[:, 1 : closest + 1].sum(axis=1)
    return int(np.argmin(scores))


def mean_aggregate(candidates: Sequence[np.ndarray]) -> np.ndarray:
    """Plain coordinate-wise mean; the no-krum ablation aggregator."""
    return _stack(candidates).mean(axis=0)


class SellerOracle(Protocol):
    """Interface a round uses to reach sellers and score models."""

    def local_deltas(
        self, sellers: Sequence[int], values: np.ndarray, seeds: Sequence[bytes]
    ) -> np.ndarray:
        """Parameter deltas the given sellers propose for the weights, as a (k, P) matrix.

        Row j is seller ``sellers[j]``'s delta, and ``seeds[j]`` is that
        seller's own seed, ``derive_seed(round_seed, "seller", sellers[j])``.
        """

    def utility(self, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Loss and accuracy of each row of a (k, param_count) weight stack; lower loss is better.

        A round calls this once, so one pass scores all its rows: the base
        weights first when their score is not known yet, then the
        candidates, then the mean aggregator's blend if there is one.
        """


@dataclass(frozen=True)
class FederatedRoundResult:
    """Outputs and diagnostics of one sampling/aggregation round."""

    values: np.ndarray
    probabilities: np.ndarray
    access_counts: np.ndarray
    sampled: tuple[int, ...]
    chosen_seller: int
    score: tuple[float, float]  # the new values' (loss, accuracy)


def run_federated_round(
    values: np.ndarray,
    p: np.ndarray,
    counts: np.ndarray,
    params: OsmdConfig,
    seed: bytes,
    oracle: SellerOracle,
    aggregator: str = "corrected-krum",
    base: tuple[float, float] | None = None,
) -> FederatedRoundResult:
    """Execute one full round: sample, estimate, reweight, aggregate.

    Deterministic in (inputs, seed); every honest executor given the same
    arguments produces a bit-identical result.  Each distinct sampled
    seller contributes one candidate row, in seller-index order.  The
    sellers train in one oracle call, and the rows are scored in another:
    the base weights unless ``base`` gives their (loss, accuracy), all
    candidates, and the mean aggregator's blend.
    """
    values = np.asarray(values, dtype=float)
    p = np.asarray(p, dtype=float)
    k = params.batch_size

    sample = sample_sellers(p, k, derive_seed(seed, "sample"))
    multiplicity = np.bincount(sample, minlength=len(p))
    sampled_sellers = np.flatnonzero(multiplicity).tolist()
    seller_seeds = [derive_seed(seed, "seller", i) for i in sampled_sellers]
    deltas = oracle.local_deltas(sampled_sellers, values, seller_seeds)

    candidates = values + params.step_size * deltas
    if aggregator == "corrected-krum":
        chosen = corrected_krum_index(candidates)
        new_values = candidates[chosen]
        rows = [candidates]
    elif aggregator == "mean":
        chosen = -1  # blend, not a member: the last row scored
        new_values = mean_aggregate(candidates)
        rows = [candidates, new_values[None]]
    else:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    if base is None:
        rows.insert(0, values[None])
    losses, accuracies = oracle.utility(np.vstack(rows))
    if base is None:
        base, losses, accuracies = (losses[0], accuracies[0]), losses[1:], accuracies[1:]
    u_hat = utility_estimates(multiplicity, p, k, losses[: len(candidates)] - base[0])
    new_p = omd_update(p, u_hat, params.learning_rate, params.floor_fraction)

    return FederatedRoundResult(
        values=new_values,
        probabilities=new_p,
        access_counts=counts + multiplicity,
        sampled=tuple(int(i) for i in sample),
        chosen_seller=sampled_sellers[chosen] if chosen >= 0 else -1,
        score=(float(losses[chosen]), float(accuracies[chosen])),
    )
