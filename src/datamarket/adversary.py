"""Configurable Byzantine behaviours for compute nodes and data sellers.

Every behaviour takes the run's :class:`AdversaryConfig` and reads its
strategy and parameters there.  Each is a pure function of its inputs and
a seed, so full runs with adversaries replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import sortition
from .rng import derive_seed, rng_from
from .training import Adopted, LabeledDataset, ModelWeights, State, state_digest

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
    nodes: int, sellers: int, config: AdversaryConfig, seed: bytes
) -> tuple[np.ndarray, np.ndarray]:
    """Node and seller masks, each marking floor(fraction * count) adversarial by sortition."""
    byz_nodes = sortition(derive_seed(seed, "nodes"), nodes, int(config.node_fraction * nodes))
    byz_sellers = sortition(
        derive_seed(seed, "sellers"), sellers, int(config.seller_fraction * sellers)
    )
    return np.isin(np.arange(nodes), byz_nodes), np.isin(np.arange(sellers), byz_sellers)


def committee_forgery(
    config: AdversaryConfig, honest: State, prev: Adopted | None, seed: bytes
) -> Adopted | None:
    """Revealable state and digest every Byzantine committee member stands behind.

    colluding-common-digest stands behind a poisoned copy of the honest
    state, stale-digest behind the previous round's adopted state (None in
    the first round); random-digest has none, so each node commits its
    own :func:`byzantine_node_digest`.
    """
    if config.node_strategy == "colluding-common-digest":
        return _poisoned(config, honest, seed)
    if config.node_strategy == "stale-digest":
        return prev
    return None


def lone_forgery(
    config: AdversaryConfig, honest: State, prev: Adopted | None, seed: bytes
) -> Adopted:
    """State and digest a Byzantine single executor hands back in place of the honest ones.

    With nobody to outvote it, it still reveals a preimage: the committee
    forgery where there is one, else a poisoned copy of the honest state.
    """
    return committee_forgery(config, honest, prev, seed) or _poisoned(config, honest, seed)


def byzantine_node_digest(config: AdversaryConfig, seed: bytes) -> bytes:
    """Digest a Byzantine node commits when its committee has no common forgery.

    A fresh hash of the node's seed: random-digest always, stale-digest
    before any round has been adopted.
    """
    if config.node_strategy == "random-digest":
        return derive_seed(seed, "random-digest")
    if config.node_strategy == "stale-digest":
        return derive_seed(seed, "stale-fallback")
    raise ValueError(f"node strategy {config.node_strategy!r} has no per-node digest")


def _noise(seed: bytes, shape: tuple[int, ...], norm: float) -> np.ndarray:
    """Seeded Gaussian noise scaled to the given norm."""
    noise = rng_from(seed).normal(size=shape)
    drawn = float(np.linalg.norm(noise))
    return noise * (norm / drawn) if drawn > 0 else noise


def poisoned_state(
    w: ModelWeights, p: np.ndarray, counts: np.ndarray, seed: bytes, strength: float
) -> State:
    """Corrupted-but-revealable state Byzantine executors stand behind.

    Weights are displaced by seeded noise whose norm scales with the
    current weight norm; the bookkeeping vectors are left intact so the
    forgery is not trivially detectable from them.
    """
    target = strength * (1.0 + float(np.linalg.norm(w.values)))
    noise = _noise(derive_seed(seed, "poison"), w.values.shape, target)
    return w.with_values(w.values + noise), np.array(p, copy=True), np.array(counts, copy=True)


def _poisoned(config: AdversaryConfig, honest: State, seed: bytes) -> Adopted:
    state = poisoned_state(*honest, seed=seed, strength=config.poison_strength)
    return state, state_digest(*state)


def malicious_seller_shard(config: AdversaryConfig, shard: LabeledDataset) -> LabeledDataset:
    """The shard a malicious seller trains on: label-flip permutes its labels."""
    if config.seller_strategy != "label-flip":
        return shard
    return LabeledDataset(shard.features, (shard.labels + 1) % shard.class_count, shard.class_count)


def malicious_seller_update(config: AdversaryConfig, update: np.ndarray, seed: bytes) -> np.ndarray:
    """Parameter delta a malicious seller returns for the update it trained.

    The update comes from training on :func:`malicious_seller_shard` with
    the seller's own seed.  label-flip returns it as it is; random-gradient
    returns seeded Gaussian noise at its norm; scaled-gradient multiplies
    it by ``scale_factor``.
    """
    strategy = config.seller_strategy
    if strategy == "scaled-gradient":
        return config.scale_factor * update
    if strategy == "random-gradient":
        norm = float(np.linalg.norm(update))
        return _noise(derive_seed(seed, "random-gradient"), update.shape, norm)
    return update
