"""Shared scenario factories and reference helpers for the test suite."""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from datamarket.rng import rng_from
from datamarket.scenario import (
    AdversaryConfig,
    ConsensusConfig,
    DataConfig,
    OsmdConfig,
    RequestConfig,
    Scenario,
    TrainConfig,
)


def quick_scenario(**overrides) -> Scenario:
    """Small, fast scenario that converges in a few rounds."""
    base = Scenario(
        seed=11,
        sellers=20,
        nodes=20,
        t_max=10,
        consensus=ConsensusConfig(
            sample_fraction=0.25, byz_fraction_max=0.3, confidence_beta=0.01
        ),
        osmd=OsmdConfig(batch_size=6, learning_rate=1.0, step_size=0.5, floor_fraction=0.5),
        train=TrainConfig(epochs=3, lr=0.02, batch=64),
        data=DataConfig(
            rows=2000, classes=4, dims=16, separation=4.5, noise=1.0, partition_alpha=0.5
        ),
        request=RequestConfig(tags=("demo", "synthetic"), amount=150, threshold=0.95),
    )
    return replace(base, **overrides)


def robustness_scenario(seed: int, node_fraction: float, seller_fraction: float, **overrides) -> Scenario:
    """Fixed-round scenario used for the adversary robustness comparisons."""
    base = Scenario(
        seed=seed,
        sellers=50,
        nodes=50,
        t_max=12,
        consensus=ConsensusConfig(
            sample_fraction=0.1, byz_fraction_max=0.3, confidence_beta=1e-3
        ),
        osmd=OsmdConfig(batch_size=10, learning_rate=1.0, step_size=0.5, floor_fraction=0.5),
        train=TrainConfig(epochs=3, lr=0.02, batch=64),
        data=DataConfig(
            rows=5000, classes=4, dims=16, separation=4.5, noise=1.0, partition_alpha=0.5
        ),
        adversary=AdversaryConfig(
            node_fraction=node_fraction,
            seller_fraction=seller_fraction,
            node_strategy="colluding-common-digest",
            seller_strategy="scaled-gradient",
            scale_factor=-10.0,
            poison_strength=0.5,
        ),
        request=RequestConfig(tags=("synthetic",), amount=1000, threshold=1.0),
    )
    return replace(base, **overrides)


@pytest.fixture
def scenario():
    return quick_scenario()


def write_idx_pair(tmp_path, images, labels):
    rows, cols = images.shape[1], images.shape[2]
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(
        struct.pack(">iiii", 0x00000803, len(images), rows, cols)
        + images.astype(np.uint8).tobytes()
    )
    lbl_path.write_bytes(
        struct.pack(">ii", 0x00000801, len(labels)) + labels.astype(np.uint8).tobytes()
    )
    return str(img_path), str(lbl_path)


def reference_synth_dataset(spec, rows, seed):
    """(features, labels) of each split, built with every full-size intermediate.

    Each row's class mean is gathered into a full matrix and added to the
    scaled draws, and the splits are copies taken by index.
    """
    rng = rng_from(seed)
    counts = [rows // spec.class_count] * spec.class_count
    for k in range(rows % spec.class_count):
        counts[k] += 1
    labels = np.repeat(np.arange(spec.class_count), counts)
    means = np.zeros((spec.class_count, spec.dims))
    means[np.arange(spec.class_count), np.arange(spec.class_count)] = spec.separation
    features = means[labels] + spec.noise * rng.normal(size=(rows, spec.dims))
    order = rng.permutation(rows)
    features, labels = features[order], labels[order]
    n_train = rows - 2 * (rows // 10)
    parts = np.split(np.arange(rows), (n_train, n_train + rows // 10))
    return [(features[idx], labels[idx]) for idx in parts]


def traced_memory(build) -> tuple[int, int]:
    """Bytes traced as still held when ``build()`` returns, and their peak while it ran."""
    tracemalloc.start()
    try:
        result = build()  # alive while the figures are read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak
