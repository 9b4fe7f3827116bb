"""Configurable Byzantine behaviours for compute nodes and data sellers.

Every behaviour is a pure function of its inputs and a seed, so full runs
with adversaries replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyShard
from .rng import derive_seed, rng_from
from .training import LabeledDataset, ModelWeights, local_update

NODE_STRATEGIES = ("random-digest", "stale-digest", "colluding-common-digest")
SELLER_STRATEGIES = ("label-flip", "random-gradient", "scaled-gradient")


@dataclass(frozen=True)
class AdversaryConfig:
    """Which fraction of each population misbehaves, and how."""

    node_fraction: float = 0.0
    node_strategy: str = "colluding-common-digest"
    seller_fraction: float = 0.0
    seller_strategy: str = "scaled-gradient"
    scale_factor: float = -10.0
    poison_strength: float = 3.0

    def __post_init__(self):
        if not 0.0 <= self.node_fraction <= 1.0:
            raise ValueError("node_fraction must lie in [0, 1]")
        if not 0.0 <= self.seller_fraction <= 1.0:
            raise ValueError("seller_fraction must lie in [0, 1]")
        if self.node_strategy not in NODE_STRATEGIES:
            raise ValueError(f"unknown node strategy {self.node_strategy!r}")
        if self.seller_strategy not in SELLER_STRATEGIES:
            raise ValueError(f"unknown seller strategy {self.seller_strategy!r}")


def _pick(population: Sequence, count: int, seed: bytes) -> frozenset:
    if count == 0:
        return frozenset()
    order = rng_from(seed).permutation(len(population))[:count]
    return frozenset(population[int(i)] for i in order)


def assign_roles(
    nodes: Sequence, sellers: Sequence, config: AdversaryConfig, seed: bytes
) -> tuple[frozenset, frozenset]:
    """Mark floor(fraction * count) identities adversarial, seeded."""
    byz_nodes = _pick(
        nodes, int(config.node_fraction * len(nodes)), derive_seed(seed, "nodes")
    )
    byz_sellers = _pick(
        sellers, int(config.seller_fraction * len(sellers)), derive_seed(seed, "sellers")
    )
    return byz_nodes, byz_sellers


@dataclass(frozen=True)
class RoundContext:
    """State a Byzantine node may reference when forging a digest."""

    prev_digest: bytes | None = None
    colluding_digest: bytes | None = None


# Label of the per-node digest a strategy falls back to without a shared one.
_FALLBACK_LABELS = {
    "random-digest": "random-digest",
    "stale-digest": "stale-fallback",
    "colluding-common-digest": "colluding",
}


def shared_forgery(strategy: str, ctx: RoundContext) -> bytes | None:
    """Digest every Byzantine node commits this round, or None if it is per node.

    stale-digest shares the previous round's accepted digest and
    colluding-common-digest the context's colluding digest, each when the
    context holds one; random-digest never shares.
    """
    if strategy not in NODE_STRATEGIES:
        raise ValueError(f"unknown node strategy {strategy!r}")
    if strategy == "stale-digest":
        return ctx.prev_digest
    if strategy == "colluding-common-digest":
        return ctx.colluding_digest
    return None


def byzantine_node_digest(
    strategy: str,
    honest_digest: bytes,
    ctx: RoundContext,
    seed: bytes,
) -> bytes:
    """Digest a Byzantine node commits instead of the honest one.

    The shared forgery when there is one (see shared_forgery); otherwise a
    fresh hash of the node's seed: random-digest always, stale-digest
    without a previous round, colluding-common-digest without a context
    digest.
    """
    shared = shared_forgery(strategy, ctx)
    if shared is not None:
        return shared
    return derive_seed(seed, _FALLBACK_LABELS[strategy])


def poisoned_state(
    w: ModelWeights,
    p: np.ndarray,
    counts: np.ndarray,
    seed: bytes,
    strength: float = 3.0,
) -> tuple[ModelWeights, np.ndarray, np.ndarray]:
    """Corrupted-but-revealable state colluding nodes stand behind.

    Weights are displaced by seeded noise whose norm scales with the
    current weight norm; the bookkeeping vectors are left intact so the
    forgery is not trivially detectable from them.
    """
    rng = rng_from(derive_seed(seed, "poison"))
    noise = rng.normal(size=w.values.shape)
    norm = float(np.linalg.norm(noise))
    target = strength * (1.0 + float(np.linalg.norm(w.values)))
    noise = noise * (target / norm) if norm > 0 else noise
    return w.with_values(w.values + noise), np.array(p, copy=True), np.array(counts, copy=True)


def malicious_seller_update(
    strategy: str,
    w: ModelWeights,
    shard: LabeledDataset,
    seed: bytes,
    epochs: int = 3,
    lr: float = 0.01,
    batch: int = 64,
    scale_factor: float = 1.0,
    target_norm: float | None = None,
) -> np.ndarray:
    """Parameter delta a malicious seller returns.

    label-flip trains honestly on a label-permuted shard; random-gradient
    returns seeded Gaussian noise at the target norm (the honest update's
    norm when none is given); scaled-gradient multiplies the honest
    update by a factor.
    """
    if len(shard) == 0:
        raise EmptyShard("cannot corrupt an empty shard")
    if strategy == "label-flip":
        flipped = LabeledDataset(
            shard.features, (shard.labels + 1) % shard.class_count, shard.class_count
        )
        return local_update(w, flipped, epochs=epochs, lr=lr, batch=batch, seed=seed)
    if strategy == "scaled-gradient":
        honest = local_update(w, shard, epochs=epochs, lr=lr, batch=batch, seed=seed)
        return scale_factor * honest
    if strategy == "random-gradient":
        if target_norm is None:
            honest = local_update(w, shard, epochs=epochs, lr=lr, batch=batch, seed=seed)
            target_norm = float(np.linalg.norm(honest))
        noise = rng_from(derive_seed(seed, "random-gradient")).normal(size=w.values.shape)
        norm = float(np.linalg.norm(noise))
        return noise * (target_norm / norm) if norm > 0 else noise
    raise ValueError(f"unknown seller strategy {strategy!r}")
