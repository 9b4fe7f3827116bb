"""The benchmark's workloads: fixed-work scenarios generated from a seed.

Each workload is a list of cells, and each cell is one scenario that the
benchmark hands to ``datamarket run``.  Every scenario asks for a validation
accuracy of 1.0 on Gaussian clusters that overlap, so no run can stop early:
each one ends at its round cap and the work done does not depend on how
fast the model converges.
"""

from __future__ import annotations

from dataclasses import dataclass

from datamarket.scenario import (
    AdversaryConfig,
    ConsensusConfig,
    DataConfig,
    OsmdConfig,
    RequestConfig,
    Scenario,
    TrainConfig,
)

DEFAULT_SEED = 1  # seed 7 is held out for checking speed claims (see README.md)

# The seed must change the inputs but not the amount of work, or runs on
# different seeds would differ by more than measurement noise.  A large
# Dirichlet concentration gives every seller a shard of nearly the same
# size, and a small mirror-descent step keeps the sampling distribution
# near uniform, so each round trains about the same number of candidates.
EVEN = 1000.0
STEADY_SAMPLING = OsmdConfig(learning_rate=0.1)

BYZANTINE_STRATEGIES = ("colluding-common-digest", "random-digest", "stale-digest")
BYZANTINE_FRACTIONS = (0.3, 0.4)


@dataclass(frozen=True)
class Cell:
    label: str
    scenario: Scenario


def scaled_mlp(seed: int) -> list[Cell]:
    """Training at BLAS-sized matrices: utility scoring dominates."""
    scenario = Scenario(
        seed=seed,
        sellers=500,
        nodes=2000,
        t_max=20,
        hidden_units=64,
        train=TrainConfig(epochs=3, lr=0.2, batch=64),
        data=DataConfig(
            rows=40000, classes=10, dims=32, separation=3.0, noise=1.0, partition_alpha=EVEN
        ),
        osmd=STEADY_SAMPLING,
        request=RequestConfig(threshold=1.0),
    )
    return [Cell("scaled-mlp", scenario)]


def byzantine_committee(seed: int) -> list[Cell]:
    """Large populations with Byzantine nodes: committees grow over several mini-rounds.

    A small sample fraction and a small beta against a tolerated Byzantine
    fraction of 0.45 make committees start at 20 of 4000 nodes and double
    their growth until the honest digest clears the threshold, mostly after
    3 to 6 mini-rounds.  Beta is set so that about 4% of rounds need 7
    mini-rounds and almost none need 8: the 99th-percentile round then lies
    inside one committee size instead of on the edge between two, where it
    would jump with the seed.
    """
    cells = []
    for strategy in BYZANTINE_STRATEGIES:
        for fraction in BYZANTINE_FRACTIONS:
            scenario = Scenario(
                seed=seed,
                sellers=100,
                nodes=4000,
                t_max=50,
                consensus=ConsensusConfig(
                    sample_fraction=0.005, byz_fraction_max=0.45, confidence_beta=3e-3
                ),
                train=TrainConfig(epochs=1, lr=0.05, batch=32),
                data=DataConfig(
                    rows=4000,
                    classes=4,
                    dims=16,
                    separation=2.5,
                    noise=1.0,
                    partition_alpha=EVEN,
                    utility_eval_rows=100,
                ),
                osmd=STEADY_SAMPLING,
                adversary=AdversaryConfig(
                    node_fraction=fraction,
                    node_strategy=strategy,
                    seller_fraction=0.2,
                    seller_strategy="scaled-gradient",
                ),
                request=RequestConfig(threshold=1.0),
            )
            cells.append(Cell(f"{strategy}-{int(fraction * 100)}", scenario))
    return cells


WORKLOADS = {
    "scaled-mlp": scaled_mlp,
    "byzantine-committee": byzantine_committee,
}
