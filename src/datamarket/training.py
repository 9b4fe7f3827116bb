"""Minimal differentiable models, datasets, and canonical state hashing.

The model is a tanh network written once, as a loop over its layers; the
default, multinomial logistic regression, is its one-layer case.  Plain
mini-batch gradient descent lets every executor reproduce bit-identical
weights from the same seed.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from hashlib import sha256
from typing import Sequence

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    EmptyEvalSet,
    EmptyShard,
    NonFiniteState,
    TruncatedFile,
)
from .rng import rng_from

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Cap on one model's first-layer product over a block of rows (rows x
# input_dim x first width): 2**18 multiply-adds.  OpenBLAS runs a product
# this small on the calling thread, so no BLAS worker thread is woken.
BLOCK_MACS = 1 << 18


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor: input and class dims, optional tanh hidden width."""

    input_dim: int
    class_count: int
    hidden: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.class_count < 2 or self.hidden < 0:
            raise ValueError("invalid model dimensions")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        if self.hidden:
            return (self.input_dim, self.hidden, self.class_count)
        return (self.input_dim, self.class_count)

    @property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims, dims[1:]))


@dataclass(frozen=True)
class ModelWeights:
    """Flat parameter vector tied to its architecture."""

    values: np.ndarray
    spec: ModelSpec

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.shape != (self.spec.param_count,):
            raise DimensionMismatch(
                f"expected {self.spec.param_count} parameters, got {self.values.shape}"
            )

    def with_values(self, values: np.ndarray) -> "ModelWeights":
        return ModelWeights(values=values, spec=self.spec)


State = tuple[ModelWeights, np.ndarray, np.ndarray]  # weights, p, counts: what state_digest hashes
Adopted = tuple[State, bytes]  # a state and its digest


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if len(self.features) != len(self.labels):
            raise DimensionMismatch("feature and label row counts differ")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError("label outside class range")

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, indices: np.ndarray | slice) -> "LabeledDataset":
        """The rows at ``indices``: a copy, or views of this dataset's arrays for a slice.

        Rows of a checked dataset pass its checks, so they are not checked again.
        """
        rows = object.__new__(LabeledDataset)
        vars(rows).update(
            features=self.features[indices], labels=self.labels[indices], class_count=self.class_count
        )
        return rows

    def head(self, rows: int) -> "LabeledDataset":
        return self if rows >= len(self) else self.take(slice(rows))


@dataclass(frozen=True)
class RowSet:
    """Rows of one dataset named by their indices: a train split or a seller's shard.

    Only :func:`gather_rows` copies their feature rows.
    """

    dataset: LabeledDataset
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.labels[self.index]

    @property
    def class_count(self) -> int:
        return self.dataset.class_count

    def take(self, positions: np.ndarray) -> "RowSet":
        """The rows at these positions of this set, still named by their indices."""
        return RowSet(self.dataset, self.index[positions])


def gather_rows(sets: Sequence[RowSet]) -> LabeledDataset:
    """The rows of every set, one set after another, gathered with one index.

    The sets must name rows of one dataset.
    """
    return sets[0].dataset.take(np.concatenate([rows.index for rows in sets]))


@dataclass(frozen=True)
class DatasetSplits:
    train: RowSet
    validation: LabeledDataset
    test: LabeledDataset


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian-cluster classification task, one axis-aligned mean per class."""

    class_count: int = 4
    dims: int = 16
    separation: float = 6.0
    noise: float = 1.0

    def __post_init__(self):
        if self.dims < self.class_count:
            raise ValueError("need dims >= class_count for distinct cluster means")
        if not self.noise >= 0:
            raise ValueError("need noise >= 0")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of every seller's :func:`local_update`, honest or not."""

    epochs: int = 3
    lr: float = 0.01
    batch: int = 64

    def __post_init__(self):
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("train.epochs and train.batch must be >= 1")
        if not self.lr > 0:
            raise ValueError("train.lr must be > 0")


def block_rows(spec: ModelSpec) -> int:
    """Eval rows per scoring block, from the first layer's shape alone."""
    fan_in, fan_out = spec.layer_dims[:2]
    return max(1, BLOCK_MACS // (fan_in * fan_out))


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _block_pool() -> ThreadPoolExecutor:
    """The process's block workers, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_cpu_count(), thread_name_prefix="datamarket-block")
        return _pool


def _map_runs(fn, n: int, rows: int) -> list:
    """fn(run) over contiguous runs of the blocks of ``rows`` rows of range(n).

    fn takes a list of block slices and returns one result per block; the
    results are joined in block order.  The runs go to one worker per CPU,
    never more workers than blocks, and the calling thread takes the first
    run itself; a single run uses no pool.  No rows make one empty block.
    """
    blocks = [slice(start, min(start + rows, n)) for start in range(0, n, rows)] or [slice(0, 0)]
    workers = max(1, min(_cpu_count(), len(blocks)))
    cuts = [len(blocks) * i // workers for i in range(workers + 1)]
    runs = [blocks[a:b] for a, b in zip(cuts, cuts[1:])]
    futures = [_block_pool().submit(fn, run) for run in runs[1:]]
    try:
        results = fn(runs[0])
    finally:
        rest = [future.result() for future in futures]  # waits even if the first run raised
    for part in rest:  # in run order, so the results stay in block order
        results += part
    return results


def init_weights(spec: ModelSpec, seed: bytes) -> ModelWeights:
    """Zero weights for the linear model; scaled normal init with a hidden layer."""
    if spec.hidden == 0:
        return ModelWeights(np.zeros(spec.param_count), spec)
    rng = rng_from(seed)
    dims = spec.layer_dims
    parts = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        parts.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return ModelWeights(np.concatenate(parts), spec)


def _layers(values: np.ndarray, dims: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (matrix, bias): views of a flat [W1, b1, W2, b2, ...] vector.

    A (k, P) stack gives each row's layers at once, with a leading axis of k.
    """
    lead = values.shape[:-1]
    layers = []
    o = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        matrix = values[..., o : o + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        o += fan_in * fan_out
        layers.append((matrix, values[..., o : o + fan_out]))
        o += fan_out
    return layers


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(layers, features: np.ndarray):
    """Logits and each layer's input: the features, then every tanh hidden layer.

    Features of (g, rows, d), with each layer's matrix (g, fan_in, fan_out)
    and bias (g, 1, fan_out), run g models at once, each on its own batch;
    every product is then one BLAS call per model.
    """
    inputs = [features]
    for matrix, bias in layers[:-1]:
        inputs.append(np.tanh(inputs[-1] @ matrix + bias))
    matrix, bias = layers[-1]
    return inputs[-1] @ matrix + bias, inputs


def predict_logits(w: ModelWeights, features: np.ndarray) -> np.ndarray:
    return _forward(_layers(w.values, w.spec.layer_dims), features)[0]


def _backward(layers, inputs, labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Flat gradient of the mean cross-entropy, last layer first; overwrites probs.

    Labels of (g, rows) give one gradient per model of a stack, as (g, P).
    """
    lead, n = labels.shape[:-1], labels.shape[-1]
    probs -= labels[..., None] == np.arange(probs.shape[-1])  # 1 at each row's label
    err = probs / n
    grads = []
    for k in reversed(range(len(layers))):
        product = inputs[k].swapaxes(-1, -2) @ err
        grads[:0] = [product.reshape(*lead, -1), err.sum(axis=-2)]
        if k:
            err = (err @ layers[k][0].swapaxes(-1, -2)) * (1.0 - inputs[k] ** 2)
    return np.concatenate(grads, axis=-1)


def loss_and_grad(w: ModelWeights, features: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and its gradient as a flat vector."""
    layers = _layers(w.values, w.spec.layer_dims)
    logits, inputs = _forward(layers, features)
    probs = _softmax(logits)
    loss = -np.log(probs[np.arange(len(labels)), labels] + 1e-300).mean()
    return loss, _backward(layers, inputs, labels, probs)


def local_update(
    w: ModelWeights,
    shard: LabeledDataset,
    epochs: int = 3,
    lr: float = 0.01,
    batch: int = 64,
    seed: bytes = b"\x00" * 32,
) -> np.ndarray:
    """Parameter delta after mini-batch gradient descent on the shard.

    The one-shard case of :func:`local_updates`.
    """
    return local_updates(w, shard, [len(shard)], [seed], epochs=epochs, lr=lr, batch=batch)[0]


def local_updates(
    w: ModelWeights,
    pool: LabeledDataset,
    sizes: Sequence[int],
    seeds: Sequence[bytes],
    epochs: int = 3,
    lr: float = 0.01,
    batch: int = 64,
) -> np.ndarray:
    """Each shard's parameter delta after mini-batch gradient descent from w, as a (k, P) matrix.

    The shards lie one after another in the pool: shard i is the next
    sizes[i] rows.  Shard i's rows are reshuffled each epoch from seeds[i].
    At each batch offset, the shards whose batch there has the same row
    count take one step together over a (g, rows, d) stack; shards are
    grouped, never padded, and each model of a stack gets its own products.
    So row i is a pure function of (w, shard i, hyperparameters, seeds[i]),
    bit-identical to training that shard alone.
    """
    if 0 in sizes:
        raise EmptyShard("cannot train on an empty shard")
    if sum(sizes) != len(pool):
        raise DimensionMismatch("shard sizes do not add up to the pool's rows")
    if not sizes:
        return np.empty((0, w.spec.param_count))
    features, labels = pool.features, pool.labels
    firsts = np.cumsum(sizes) - sizes  # where each shard's rows begin in the pool
    groups: dict[tuple[int, int], list[int]] = {}  # (offset, batch rows) -> shards
    for i, size in enumerate(sizes):
        for start in range(0, size, batch):
            groups.setdefault((start, min(batch, size - start)), []).append(i)
    # Each step: its shards, and where their batches lie in an epoch's order of the pool.
    steps = [
        (members, (firsts[members] + start)[:, None] + np.arange(rows))
        for (start, rows), members in groups.items()
    ]
    rngs = [rng_from(seed) for seed in seeds]
    local = np.tile(w.values, (len(sizes), 1))
    for _ in range(epochs):
        order = np.concatenate([rng.permutation(size) for rng, size in zip(rngs, sizes)])
        order += np.repeat(firsts, sizes)
        for members, positions in steps:
            rows = order[positions]
            models = local[members]
            layers = [(m, b[:, None]) for m, b in _layers(models, w.spec.layer_dims)]
            logits, inputs = _forward(layers, features[rows])
            local[members] = models - lr * _backward(layers, inputs, labels[rows], _softmax(logits))
    return local - w.values


def _run_logits(layers, features: np.ndarray, run: list[slice]):
    """Each block's logits of every model of a stack, as (k, classes, rows).

    Each model gets its own small product per block.  Activations are held
    as (k, units, rows), so each unit's or class's values over a block are
    one contiguous slice: the bias adds, the class max and the class sum
    then run along the rows instead of along the short class axis.  The
    first layer's output, the largest array, goes into one buffer that the
    run reuses, so a block's logits last only until the next block's are
    made.
    """
    (first, first_bias), *rest = [
        (matrix.swapaxes(1, 2), bias[:, :, None]) for matrix, bias in layers
    ]
    buffer = np.empty((len(first), first.shape[1], run[0].stop - run[0].start))
    for block in run:
        z = np.matmul(first, features[block].T, out=buffer[..., : block.stop - block.start])
        z += first_bias
        for matrix, bias in rest:
            np.tanh(z, out=z)
            z = np.matmul(matrix, z)
            z += bias
        yield z


def _run_labels(layers, features: np.ndarray, run: list[slice]) -> list[np.ndarray]:
    """Each model's argmax class of each row of each block of a run, as (k, rows)."""
    return [z.argmax(axis=1) for z in _run_logits(layers, features, run)]


def predict_labels(w: ModelWeights, features: np.ndarray) -> np.ndarray:
    """Argmax class of every row, the first top class on a tie, from utility()'s logits."""
    layers = _layers(w.values[None], w.spec.layer_dims)
    labels = _map_runs(partial(_run_labels, layers, features), len(features), block_rows(w.spec))
    return np.concatenate(labels, axis=1)[0]


def evaluate_metric(w: ModelWeights, eval_set: LabeledDataset) -> float:
    """Fraction of rows whose argmax prediction matches the label.

    Equal to the accuracy utility() gives the same weights, alone or in a stack.
    """
    if len(eval_set) == 0:
        raise EmptyEvalSet("empty evaluation set")
    return np.count_nonzero(predict_labels(w, eval_set.features) == eval_set.labels) / len(eval_set)


def _run_losses(
    layers, features: np.ndarray, labels: np.ndarray, run: list[slice]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Summed cross-entropy and correct-prediction count of each model over each block of a run.

    A row is correct when its label is the argmax class, as in _run_labels.
    """
    scores = []
    for block, z in zip(run, _run_logits(layers, features, run)):
        y = labels[block]
        correct = (z.argmax(axis=1) == y).sum(axis=1)
        top = z.max(axis=1)
        shifted = z - top[:, None]
        np.exp(shifted, out=shifted)
        losses = np.log(shifted.sum(axis=1))
        losses += top
        losses -= z[:, y, np.arange(len(y))]
        scores.append((losses.sum(axis=1), correct))
    return scores


def as_stack(spec: ModelSpec, stack: np.ndarray) -> np.ndarray:
    """The stack as a float array, refused unless it is a non-empty (k, param_count) matrix."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 2 or not len(stack) or stack.shape[1] != spec.param_count:
        raise DimensionMismatch(
            f"expected a (k, {spec.param_count}) weight stack, got {stack.shape}"
        )
    return stack


def utility(
    spec: ModelSpec, stack: np.ndarray, eval_set: LabeledDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy loss and accuracy of each row of a (k, param_count) weight stack.

    Lower loss means a better model; the accuracy is evaluate_metric's.
    One forward-only pass scores all k models, in blocks of
    block_rows(spec) eval rows spread over the available CPUs; the loss is
    taken from a log-sum-exp of the logits.  The block sums are added in
    block order, so a model's scores are bit-identical whatever the thread
    count and whatever other models share the stack.
    """
    if len(eval_set) == 0:
        raise EmptyEvalSet("empty evaluation set")
    layers = _layers(as_stack(spec, stack), spec.layer_dims)
    run_losses = partial(_run_losses, layers, eval_set.features, eval_set.labels)
    total = np.zeros(len(stack))
    correct = np.zeros(len(stack), dtype=np.int64)
    for block_sum, block_correct in _map_runs(run_losses, len(eval_set), block_rows(spec)):
        total += block_sum
        correct += block_correct
    return total / len(eval_set), correct / len(eval_set)


def state_digest(w: ModelWeights, p: np.ndarray, counts: np.ndarray) -> bytes:
    """SHA-256 of the canonical byte serialization of (weights, p, counts).

    Layout: layer dims, activation tag, then each array as a length-
    prefixed little-endian block, making the encoding injective on the
    state.  Rejects non-finite weights or probabilities.
    """
    p = np.asarray(p, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if not np.all(np.isfinite(w.values)) or not np.all(np.isfinite(p)):
        raise NonFiniteState("state contains non-finite values")
    h = sha256(b"state-v1")
    dims = w.spec.layer_dims
    h.update(struct.pack("<I", len(dims)))
    h.update(struct.pack(f"<{len(dims)}I", *dims))
    act = b"tanh" if w.spec.hidden else b""
    h.update(struct.pack("<I", len(act)))
    h.update(act)
    for arr in (w.values, p):
        h.update(struct.pack("<Q", arr.size))
        h.update(arr.astype("<f8").tobytes())
    h.update(struct.pack("<Q", counts.size))
    h.update(counts.astype("<i8").tobytes())
    return h.digest()


def _read_idx_header(data: bytes, path: str, magic: int, dim_count: int) -> tuple[int, ...]:
    header = 4 + 4 * dim_count
    if len(data) < header:
        raise TruncatedFile(f"{path}: header truncated")
    found = struct.unpack(">i", data[:4])[0]
    if found != magic:
        raise BadMagic(f"{path}: magic {found:#010x}, expected {magic:#010x}")
    dims = struct.unpack(f">{dim_count}i", data[4:header])
    if min(dims) < 0:
        raise DimensionMismatch(f"{path}: negative size in header {dims}")
    return dims


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Parse an IDX image/label file pair into a dataset scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        img_data = f.read()
    with open(labels_path, "rb") as f:
        lbl_data = f.read()
    count, rows, cols = _read_idx_header(img_data, images_path, IDX_IMAGE_MAGIC, 3)
    (label_count,) = _read_idx_header(lbl_data, labels_path, IDX_LABEL_MAGIC, 1)
    pixel_bytes = count * rows * cols
    if len(img_data) < 16 + pixel_bytes:
        raise TruncatedFile(f"{images_path}: expected {pixel_bytes} pixel bytes")
    if len(lbl_data) < 8 + label_count:
        raise TruncatedFile(f"{labels_path}: expected {label_count} label bytes")
    if label_count != count:
        raise DimensionMismatch(f"{count} images but {label_count} labels")
    pixels = np.frombuffer(img_data, dtype=np.uint8, count=pixel_bytes, offset=16)
    labels = np.frombuffer(lbl_data, dtype=np.uint8, count=label_count, offset=8)
    features = pixels.reshape(count, rows * cols).astype(np.float64)
    features /= 255.0
    class_count = int(labels.max()) + 1 if count else 1
    return LabeledDataset(features, labels.astype(np.int64), class_count)


def _split_points(rows: int) -> tuple[int, int]:
    """Where validation and test begin in an 80/10/10 split; the flooring remainder stays in train.

    Below 10 rows the validation and test sets would be empty, so the
    dataset is refused.
    """
    if rows < 10:
        raise EmptyEvalSet(f"an 80/10/10 split needs at least 10 rows, not {rows}")
    return rows - 2 * (rows // 10), rows - rows // 10


def split_dataset(dataset: LabeledDataset) -> DatasetSplits:
    """80/10/10 split in row order.

    The train split names its rows by index, and validation and test are
    row slices of the dataset's own arrays, so no row is copied.
    """
    validation, test = _split_points(len(dataset))
    return DatasetSplits(
        train=RowSet(dataset, np.arange(validation)),
        validation=dataset.take(slice(validation, test)),
        test=dataset.take(slice(test, None)),
    )


def synth_dataset(spec: SynthSpec, rows: int, seed: bytes) -> DatasetSplits:
    """Deterministic Gaussian-cluster dataset split 80/10/10.

    Class k's mean is ``separation`` on axis k: each row draws its noise at
    scale ``noise`` and adds ``separation`` to its label's column.  The rows
    stay in the one array they were drawn into, and a seeded shuffle of
    their indices deals them to the splits.  The train split names its rows
    by index; validation and test are each gathered once, since the scorer
    reads them in contiguous blocks.
    """
    if rows < spec.class_count:
        raise ValueError("need at least one row per class")
    validation, test = _split_points(rows)
    rng = rng_from(seed)
    counts = [rows // spec.class_count] * spec.class_count
    for k in range(rows % spec.class_count):
        counts[k] += 1
    labels = np.repeat(np.arange(spec.class_count), counts)
    features = rng.normal(0.0, spec.noise, size=(rows, spec.dims))
    features[np.arange(rows), labels] += spec.separation
    full = LabeledDataset(features, labels, spec.class_count)
    order = rng.permutation(rows)
    return DatasetSplits(
        train=RowSet(full, order[:validation]),
        validation=full.take(order[validation:test]),
        test=full.take(order[test:]),
    )


def dirichlet_partition(
    dataset: LabeledDataset | RowSet,
    sellers: int,
    concentration: float,
    seed: bytes,
) -> list[np.ndarray]:
    """Split row indices across sellers with per-class Dirichlet shares.

    Low concentration produces heavily skewed per-seller label mixes;
    large concentration approaches an even split.  Each class's rows are
    shuffled and cut into consecutive runs, one per seller, by its own
    draw of shares.  Every row is assigned exactly once, and each seller's
    indices come back in ascending order, as views of one seller-major array.
    """
    if sellers < 1:
        raise ValueError("need at least one seller")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    rng = rng_from(seed)
    labels = dataset.labels
    # the smallest integer type that holds a seller: up to 65536 sellers sort by radix
    seller_of = np.empty(len(labels), dtype=np.min_scalar_type(sellers - 1))
    for k in range(dataset.class_count):
        idx = np.nonzero(labels == k)[0]
        if len(idx) == 0:
            continue
        idx = rng.permutation(idx)
        shares = rng.dirichlet(np.full(sellers, concentration))
        cuts = (np.cumsum(shares) * len(idx)).astype(int)[:-1]
        # seller s gets positions cuts[s-1] <= j < cuts[s] of the shuffled class
        seller_of[idx] = np.searchsorted(cuts, np.arange(len(idx)), side="right")
    order = np.argsort(seller_of, kind="stable")
    return np.split(order, np.cumsum(np.bincount(seller_of, minlength=sellers))[:-1])


def partition_shards(dataset: RowSet, plan: list[np.ndarray]) -> list[RowSet]:
    """Each plan entry's rows of the dataset, named by index; no row is copied."""
    return [dataset.take(indices) for indices in plan]
