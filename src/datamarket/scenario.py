"""Scenario configuration: typed sub-configs plus a flat key=value format.

A scenario pins every knob of a run -- population sizes, consensus and
sampling parameters, training hyperparameters, dataset recipe, adversary
mix, and the buyer request -- so that a (scenario, seed) pair fully
determines the output.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .adversary import AdversaryConfig
from .consensus import ConsensusParams, threshold
from .economics import PayoffParams, geometric_catch_prob
from .fedcore import OsmdConfig
from .ledger import DataRequest, Ledger
from .rng import derive_seed
from .training import SynthSpec, TrainConfig

ABLATIONS = ("none", "no-krum", "no-consensus")
DATA_KINDS = ("synthetic", "idx")


@dataclass(frozen=True)
class ConsensusConfig:
    sample_fraction: float = 0.1
    byz_fraction_max: float = 0.3
    confidence_beta: float = 0.01


@dataclass(frozen=True)
class DataConfig:
    kind: str = "synthetic"  # synthetic | idx
    rows: int = 4000
    classes: int = 4
    dims: int = 16
    separation: float = 6.0
    noise: float = 1.0
    partition_alpha: float = 0.5
    images: str = ""
    labels: str = ""
    utility_eval_rows: int = 0  # 0 = score on the full validation set
    registry_tags: tuple[str, ...] = ()  # dataset tags sellers register; () = request tags

    def __post_init__(self):
        if self.kind not in DATA_KINDS:
            raise ValueError(f"unknown data.kind {self.kind!r}")
        if self.classes < 2:
            raise ValueError("data.classes must be >= 2")
        if self.utility_eval_rows < 0:
            raise ValueError("data.utility_eval_rows must be >= 0")
        if not self.partition_alpha > 0:
            raise ValueError("data.partition_alpha must be > 0")
        if self.kind == "synthetic":
            if self.dims < self.classes:
                raise ValueError("synthetic data needs data.dims >= data.classes")
            if not self.noise >= 0:
                raise ValueError("synthetic data needs data.noise >= 0")
            # the 80/10/10 split leaves the validation and test sets empty below 10 rows
            if self.rows < max(10, self.classes):
                raise ValueError("synthetic data needs data.rows >= max(10, data.classes)")


@dataclass(frozen=True)
class RequestConfig:
    tags: tuple[str, ...] = ("synthetic",)
    amount: int = 1000
    metric: str = "accuracy"
    threshold: float = 0.95


@dataclass(frozen=True)
class AnalysisConfig:
    quality_honest: float = 0.75
    quality_claimed: float = 0.8
    bribe: float = 1.0
    detect_rate: float = 0.3


@dataclass(frozen=True)
class Scenario:
    seed: int = 42
    sellers: int = 50
    nodes: int = 50
    t_max: int = 50
    auction_window: int = 10
    timeout_blocks: int = 10
    tx_fee: int = 0
    hidden_units: int = 0
    ablation: str = "none"
    competing_bids: tuple[int, ...] = ()
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    osmd: OsmdConfig = field(default_factory=OsmdConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    request: RequestConfig = field(default_factory=RequestConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.sellers < 1 or self.nodes < 1:
            raise ValueError("need at least one seller and one node")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}")
        if self.hidden_units < 0:
            raise ValueError("hidden_units must be >= 0")
        if self.timeout_blocks < 1:  # checked here too: the ledger names it commit_timeout
            raise ValueError("timeout_blocks must be >= 1")
        # Build the derived protocol objects now so a bad value fails at
        # load, not after a run has escrowed the buyer's bid.  The osmd,
        # adversary, train and data sections check themselves; each rival
        # bid is a request.
        self.ledger()
        threshold(self.consensus_params())
        self.payoff_params(seller_pool=0.0, node_pool=0.0)
        request = self.data_request()
        for amount in self.competing_bids:
            dataclasses.replace(request, amount=amount)

    # -- derived protocol objects --------------------------------------

    @property
    def root_seed(self) -> bytes:
        return derive_seed("scenario", self.seed)

    def consensus_params(self) -> ConsensusParams:
        return ConsensusParams(
            total_nodes=self.nodes,
            sample_fraction=self.consensus.sample_fraction,
            byz_fraction_max=self.consensus.byz_fraction_max,
            confidence_beta=self.consensus.confidence_beta,
            base_size=max(1, round(self.consensus.sample_fraction * self.nodes)),
        )

    def payoff_params(self, seller_pool: float, node_pool: float) -> PayoffParams:
        """The payoff game of a run whose revenue split paid out these pools."""
        return PayoffParams(
            seller_pool=seller_pool,
            node_pool=node_pool,
            node_count=self.nodes,
            bribe=self.analysis.bribe,
            quality_honest=self.analysis.quality_honest,
            quality_claimed=self.analysis.quality_claimed,
            success_prob=self.consensus.confidence_beta,
            catch_prob=geometric_catch_prob(self.analysis.detect_rate),
        )

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(
            class_count=self.data.classes,
            dims=self.data.dims,
            separation=self.data.separation,
            noise=self.data.noise,
        )

    def data_request(self) -> DataRequest:
        return DataRequest(
            tags=frozenset(self.request.tags),
            amount=self.request.amount,
            metric_id=self.request.metric,
            threshold=self.request.threshold,
        )

    def ledger(self) -> Ledger:
        """A fresh ledger with this scenario's seed, auction window, commit timeout and fee."""
        return Ledger(
            self.seed, self.auction_window, commit_timeout=self.timeout_blocks, tx_fee=self.tx_fee
        )


def _fields(cls) -> dict[str, type]:
    """Each field of a config dataclass and its resolved type."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _parse(raw: str, kind: type):
    # any other type is refused, so a bool field cannot read "False" as true
    if kind in (int, float, str):
        return kind(raw)
    if kind in (tuple[int, ...], tuple[str, ...]):
        item = typing.get_args(kind)[0]
        return tuple(item(part.strip()) for part in raw.split(",") if part.strip())
    raise ValueError(f"no parser for values of type {kind}")


def parse_config(text: str) -> Scenario:
    """Parse the flat ``section.key = value`` scenario format.

    Each dataclass field of :class:`Scenario` is a section and every other
    field a top-level key.  Lines starting with ``#`` are comments; unknown
    keys, keys given twice, values of the wrong type and section values out
    of range are rejected, with their lines, so typos fail loudly instead
    of silently using defaults.
    """
    fields = _fields(Scenario)
    kinds = {
        name: _fields(kind) for name, kind in fields.items() if dataclasses.is_dataclass(kind)
    }
    kinds[None] = {name: kind for name, kind in fields.items() if name not in kinds}
    values: dict[str | None, dict] = {section: {} for section in kinds}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        section, name = key.split(".", 1) if "." in key else (None, key)
        if section not in kinds:
            raise ValueError(f"line {lineno}: unknown section {section!r}")
        if name not in kinds[section]:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"line {lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[section][name] = _parse(raw, kinds[section][name])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    top = values.pop(None)
    sections = {}
    for name, kw in values.items():
        try:
            sections[name] = fields[name](**kw)
        except ValueError as exc:  # a section checks its values together: name every line
            keys = [f"{name}.{key}" for key in kw]
            lines = ", ".join(str(first_line[key]) for key in keys)
            where = f"line{'s' if len(keys) > 1 else ''} {lines} ({', '.join(keys)})"
            raise ValueError(f"{where}: bad {name!r} section: {exc}") from None
    return Scenario(**top, **sections)


def load_scenario(path: str | Path) -> Scenario:
    return parse_config(Path(path).read_text())


def _format(value) -> str:
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)


def format_config(scenario: Scenario) -> str:
    """Render a scenario back into the flat config format."""
    lines = []
    for name, kind in _fields(Scenario).items():
        value = getattr(scenario, name)
        if dataclasses.is_dataclass(kind):
            lines += [f"{name}.{key} = {_format(getattr(value, key))}" for key in _fields(kind)]
        else:
            lines.append(f"{name} = {_format(value)}")
    return "\n".join(lines) + "\n"
