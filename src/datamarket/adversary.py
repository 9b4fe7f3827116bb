"""Configurable Byzantine behaviours for compute nodes and data sellers.

Every behaviour is a pure function of its inputs and a seed, so full runs
with adversaries replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .consensus import sortition
from .errors import EmptyShard
from .rng import derive_seed, rng_from
from .training import Adopted, LabeledDataset, ModelWeights, State, local_update, state_digest

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


def assign_roles(
    nodes: Sequence, sellers: Sequence, config: AdversaryConfig, seed: bytes
) -> tuple[frozenset, frozenset]:
    """Mark floor(fraction * count) identities adversarial, drawn by seeded sortition."""
    byz_nodes = sortition(derive_seed(seed, "nodes"), nodes, int(config.node_fraction * len(nodes)))
    byz_sellers = sortition(
        derive_seed(seed, "sellers"), sellers, int(config.seller_fraction * len(sellers))
    )
    return frozenset(byz_nodes), frozenset(byz_sellers)


def committee_forgery(
    strategy: str, honest: State, prev: Adopted | None, seed: bytes, strength: float
) -> Adopted | None:
    """Revealable state and digest every Byzantine committee member stands behind.

    colluding-common-digest stands behind a poisoned copy of the honest
    state, stale-digest behind the previous round's adopted state (None in
    the first round); random-digest has none, so each node commits its
    own :func:`byzantine_node_digest`.
    """
    if strategy == "colluding-common-digest":
        return _poisoned(honest, seed, strength)
    if strategy == "stale-digest":
        return prev
    if strategy == "random-digest":
        return None
    raise ValueError(f"unknown node strategy {strategy!r}")


def lone_forgery(
    strategy: str, honest: State, prev: Adopted | None, seed: bytes, strength: float
) -> Adopted:
    """State and digest a Byzantine single executor hands back in place of the honest ones.

    With nobody to outvote it, it still reveals a preimage: the committee
    forgery where there is one, else a poisoned copy of the honest state.
    """
    return committee_forgery(strategy, honest, prev, seed, strength) or _poisoned(honest, seed, strength)


def byzantine_node_digest(strategy: str, seed: bytes) -> bytes:
    """Digest a Byzantine node commits when its committee has no common forgery.

    A fresh hash of the node's seed: random-digest always, stale-digest
    before any round has been adopted.
    """
    if strategy == "random-digest":
        return derive_seed(seed, "random-digest")
    if strategy == "stale-digest":
        return derive_seed(seed, "stale-fallback")
    raise ValueError(f"node strategy {strategy!r} has no per-node digest")


def poisoned_state(
    w: ModelWeights, p: np.ndarray, counts: np.ndarray, seed: bytes, strength: float = 3.0
) -> State:
    """Corrupted-but-revealable state Byzantine executors stand behind.

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


def _poisoned(honest: State, seed: bytes, strength: float) -> Adopted:
    state = poisoned_state(*honest, seed=seed, strength=strength)
    return state, state_digest(*state)


def malicious_seller_update(
    strategy: str,
    w: ModelWeights,
    shard: LabeledDataset,
    seed: bytes,
    epochs: int = 3,
    lr: float = 0.01,
    batch: int = 64,
    scale_factor: float = 1.0,
) -> np.ndarray:
    """Parameter delta a malicious seller returns.

    label-flip trains honestly on a label-permuted shard; random-gradient
    returns seeded Gaussian noise at the honest update's norm;
    scaled-gradient multiplies the honest update by a factor.
    """
    if len(shard) == 0:
        raise EmptyShard("cannot corrupt an empty shard")
    if strategy == "label-flip":
        flipped = LabeledDataset(
            shard.features, (shard.labels + 1) % shard.class_count, shard.class_count
        )
        return local_update(w, flipped, epochs=epochs, lr=lr, batch=batch, seed=seed)
    if strategy not in SELLER_STRATEGIES:
        raise ValueError(f"unknown seller strategy {strategy!r}")
    honest = local_update(w, shard, epochs=epochs, lr=lr, batch=batch, seed=seed)
    if strategy == "scaled-gradient":
        return scale_factor * honest
    noise = rng_from(derive_seed(seed, "random-gradient")).normal(size=w.values.shape)
    norm = float(np.linalg.norm(noise))
    return noise * (float(np.linalg.norm(honest)) / norm) if norm > 0 else noise
