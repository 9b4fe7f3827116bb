"""Deterministic simulator for an auction-driven decentralized data marketplace.

The package wires together a simulated ledger (auctions, escrow, digest
commitments), committee-sortition consensus with a likelihood acceptance
rule, adaptive federated training with robust aggregation, configurable
adversaries, and the revenue/incentive calculus that ties them together.
"""

from .adversary import AdversaryConfig, assign_roles, byzantine_node_digest, malicious_seller_update
from .consensus import (
    AgreementOutcome,
    CommitRecord,
    ConsensusParams,
    acceptance_bound,
    agree,
    decide,
    execution_set_size,
    likelihood_scores,
    sortition,
    threshold,
    total_executions,
)
from .economics import (
    PayoffParams,
    PayoffReport,
    RevenueReport,
    analyze_payoffs,
    distribute_revenue,
    geometric_catch_prob,
    honesty_equilibrium_check,
    node_honesty_check,
    node_payoff,
    seller_honesty_check,
    seller_payoff,
)
from .fedcore import (
    FederatedRoundResult,
    OsmdConfig,
    mean_aggregate,
    omd_update,
    run_federated_round,
    sample_sellers,
    update_access_counts,
    utility_estimates,
)
from .harness import (
    Market,
    PipelineResult,
    RunResult,
    byzantine_grid,
    consensus_trials,
    honest_round,
    run_auction_to_completion,
    run_core,
    run_experiment_grid,
)
from .ledger import Account, AuctionState, DataRequest, DatasetRecord, Ledger, Role
from .metrics import MetricsSink, agreement_csv, rounds_csv
from .scenario import Scenario, load_scenario, parse_config
from .training import (
    DatasetSplits,
    LabeledDataset,
    ModelSpec,
    ModelWeights,
    SynthSpec,
    dirichlet_partition,
    evaluate_metric,
    init_weights,
    load_idx,
    local_update,
    state_digest,
    synth_dataset,
    utility,
)

__version__ = "0.1.0"
