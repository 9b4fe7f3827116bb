"""Models, gradients, datasets, partitioning, hashing, and the IDX loader."""

import struct

import numpy as np
import pytest

from conftest import reference_synth_dataset, traced_memory, write_idx_pair
from datamarket import training
from datamarket.errors import (
    BadMagic,
    DimensionMismatch,
    EmptyEvalSet,
    EmptyShard,
    NonFiniteState,
    TruncatedFile,
)
from datamarket.rng import derive_seed, rng_from
from datamarket.training import (
    BLOCK_MACS,
    LabeledDataset,
    ModelSpec,
    ModelWeights,
    RowSet,
    SynthSpec,
    dirichlet_partition,
    evaluate_metric,
    gather_rows,
    init_weights,
    load_idx,
    local_update,
    local_updates,
    loss_and_grad,
    partition_shards,
    predict_labels,
    predict_logits,
    split_dataset,
    state_digest,
    synth_dataset,
    utility,
)


def finite_difference_grad(w: ModelWeights, features, labels, h=1e-6):
    grad = np.zeros_like(w.values)
    for j in range(len(grad)):
        plus, minus = w.values.copy(), w.values.copy()
        plus[j] += h
        minus[j] -= h
        lp, _ = loss_and_grad(w.with_values(plus), features, labels)
        lm, _ = loss_and_grad(w.with_values(minus), features, labels)
        grad[j] = (lp - lm) / (2 * h)
    return grad


def small_dataset(seed=0, rows=60, dims=5, classes=3):
    rng = rng_from(derive_seed("data", seed))
    labels = rng.integers(0, classes, size=rows)
    features = rng.normal(size=(rows, dims)) + 2.0 * np.eye(dims)[:classes][labels][:, :dims]
    return LabeledDataset(features, labels, classes)


class TestLabeledDataset:
    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0]])
    def test_label_outside_class_range_rejected(self, labels):
        with pytest.raises(ValueError, match="label outside class range"):
            LabeledDataset(np.zeros((2, 1)), labels, 3)


class TestGradients:
    @pytest.mark.parametrize("hidden", [0, 6])
    def test_analytic_matches_finite_differences(self, hidden):
        rng = rng_from(derive_seed("fd", hidden))
        spec = ModelSpec(input_dim=4, class_count=3, hidden=hidden)
        for trial in range(100):
            w = ModelWeights(rng.normal(scale=0.6, size=spec.param_count), spec)
            features = rng.normal(size=(1, 4))
            labels = rng.integers(0, 3, size=1)
            _, grad = loss_and_grad(w, features, labels)
            fd = finite_difference_grad(w, features, labels)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / denom < 1e-4

    def test_one_training_step_is_gradient_descent(self):
        data = small_dataset(rows=1)
        spec = ModelSpec(input_dim=5, class_count=3)
        w = init_weights(spec, derive_seed("step"))
        delta = local_update(w, data, epochs=1, lr=0.5, batch=8, seed=derive_seed("s"))
        fd = finite_difference_grad(w, data.features, data.labels)
        assert np.linalg.norm(delta + 0.5 * fd) / np.linalg.norm(fd) < 1e-4


class TestLocalUpdate:
    def test_zero_epochs_zero_delta(self):
        data = small_dataset()
        w = init_weights(ModelSpec(5, 3), derive_seed("z"))
        delta = local_update(w, data, epochs=0, lr=0.1, batch=16, seed=derive_seed("z"))
        assert not delta.any()

    def test_deterministic_in_seed(self):
        data = small_dataset()
        w = init_weights(ModelSpec(5, 3), derive_seed("w"))
        seed = derive_seed("same")
        a = local_update(w, data, seed=seed)
        b = local_update(w, data, seed=seed)
        assert np.array_equal(a, b)

    def test_empty_shard_rejected(self):
        empty = LabeledDataset(np.empty((0, 5)), np.empty(0, dtype=int), 3)
        w = init_weights(ModelSpec(5, 3), derive_seed("e"))
        with pytest.raises(EmptyShard):
            local_update(w, empty)

    def test_descends_training_loss(self):
        data = small_dataset(rows=200)
        w = init_weights(ModelSpec(5, 3), derive_seed("d"))
        delta = local_update(w, data, epochs=3, lr=0.05, batch=32, seed=derive_seed("d"))
        (after, before), _ = utility(w.spec, np.stack([w.values + delta, w.values]), data)
        assert after < before


def trained_alone(w: ModelWeights, shard: LabeledDataset, epochs, lr, batch, seed):
    """Reference: the per-shard training loop, stepping on the 2-D gradient of loss_and_grad."""
    rng = rng_from(seed)
    local = w.values.copy()
    for _ in range(epochs):
        order = rng.permutation(len(shard))
        for start in range(0, len(order), batch):
            rows = order[start : start + batch]
            _, grad = loss_and_grad(w.with_values(local), shard.features[rows], shard.labels[rows])
            local -= lr * grad
    return local - w.values


def pooled(shards):
    """The shards' rows one after another, as local_updates takes them."""
    features = np.concatenate([shard.features for shard in shards])
    labels = np.concatenate([shard.labels for shard in shards])
    return LabeledDataset(features, labels, shards[0].class_count)


class TestLocalUpdates:
    BATCH = 8

    @pytest.mark.parametrize("hidden", [0, 6])
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_rows_bit_identical_to_training_alone(self, hidden, epochs):
        b = self.BATCH
        # repeated sizes share stacks at every offset; the others train alone at their last one
        sizes = [1, b - 1, b, b + 1, 2 * b + 3, b, b + 1, 2 * b + 3, 1]
        shards = [small_dataset(seed=i, rows=rows) for i, rows in enumerate(sizes)]
        # label-flipped labels, as a Byzantine seller trains on them
        shards[5:7] = [
            LabeledDataset(s.features, (s.labels + 1) % s.class_count, s.class_count)
            for s in shards[5:7]
        ]
        seeds = [derive_seed("stacked", i) for i in range(len(shards))]
        spec = ModelSpec(5, 3, hidden=hidden)
        w = ModelWeights(rng_from(derive_seed("w0", hidden)).normal(size=spec.param_count), spec)
        stacked = local_updates(w, pooled(shards), sizes, seeds, epochs=epochs, lr=0.3, batch=b)
        assert stacked.shape == (len(shards), spec.param_count)
        for row, shard, seed in zip(stacked, shards, seeds):
            alone = local_update(w, shard, epochs=epochs, lr=0.3, batch=b, seed=seed)
            assert np.array_equal(row, alone)
            assert np.array_equal(alone, trained_alone(w, shard, epochs, 0.3, b, seed))

    def test_any_empty_shard_rejected(self):
        w = init_weights(ModelSpec(5, 3), derive_seed("e"))
        empty = LabeledDataset(np.empty((0, 5)), np.empty(0, dtype=int), 3)
        with pytest.raises(EmptyShard):
            local_updates(w, small_dataset(), [60, 0], [derive_seed("a"), derive_seed("b")])

    def test_sizes_must_cover_the_pool(self):
        w = init_weights(ModelSpec(5, 3), derive_seed("c"))
        with pytest.raises(DimensionMismatch):
            local_updates(w, small_dataset(), [30, 20], [derive_seed("a"), derive_seed("b")])

    def test_no_shards_no_rows(self):
        w = init_weights(ModelSpec(5, 3), derive_seed("none"))
        empty = LabeledDataset(np.empty((0, 5)), np.empty(0, dtype=int), 3)
        assert local_updates(w, empty, [], []).shape == (0, w.spec.param_count)


class TestPredictLogits:
    def test_mlp_follows_flat_layout(self):
        # the flat parameter vector is [W1, b1, W2, b2], each matrix row-major
        rng = rng_from(derive_seed("layout"))
        w1, b1 = rng.normal(size=(5, 4)), rng.normal(size=4)
        w2, b2 = rng.normal(size=(4, 3)), rng.normal(size=3)
        w = ModelWeights(np.concatenate([w1.ravel(), b1, w2.ravel(), b2]), ModelSpec(5, 3, hidden=4))
        x = rng.normal(size=(20, 5))
        assert np.array_equal(predict_logits(w, x), np.tanh(x @ w1 + b1) @ w2 + b2)


class TestEvaluateMetric:
    def test_constant_majority_on_balanced_binary(self):
        features = np.zeros((10, 2))
        labels = np.array([0] * 5 + [1] * 5)
        data = LabeledDataset(features, labels, 2)
        spec = ModelSpec(2, 2)
        # bias forces class 0 everywhere
        w = ModelWeights(np.array([0, 0, 0, 0, 5.0, -5.0]), spec)
        assert evaluate_metric(w, data) == 0.5

    def test_perfect_separator(self):
        rng = rng_from(derive_seed("sep"))
        labels = rng.integers(0, 2, size=100)
        features = np.column_stack([labels * 10.0 - 5.0, rng.normal(size=100)])
        data = LabeledDataset(features, labels, 2)
        w = ModelWeights(np.array([-1.0, 1.0, 0, 0, 0, 0]), ModelSpec(2, 2))
        assert evaluate_metric(w, data) == 1.0

    def test_matches_argmax_count(self):
        data = small_dataset(rows=120)
        rng = rng_from(derive_seed("argmax"))
        spec = ModelSpec(5, 3)
        w = ModelWeights(rng.normal(size=spec.param_count), spec)
        predicted = predict_logits(w, data.features).argmax(axis=1)
        expected = float(np.mean(predicted == data.labels))
        assert evaluate_metric(w, data) == expected
        assert 0.0 <= evaluate_metric(w, data) <= 1.0

    def test_empty_eval_set(self):
        empty = LabeledDataset(np.empty((0, 5)), np.empty(0, dtype=int), 3)
        with pytest.raises(EmptyEvalSet):
            evaluate_metric(init_weights(ModelSpec(5, 3), derive_seed("m")), empty)

    @pytest.mark.parametrize("hidden", [0, 7])
    def test_blocked_predictions_match_whole_set(self, hidden):
        spec = ModelSpec(5, 3, hidden=hidden)
        block = BLOCK_MACS // (5 * (hidden or 3))
        data = small_dataset(seed=hidden, rows=2 * block + block // 2 + 1)
        rng = rng_from(derive_seed("blocked-argmax", hidden))
        w = ModelWeights(rng.normal(size=spec.param_count), spec)
        expected = predict_logits(w, data.features).argmax(axis=1)
        assert np.array_equal(predict_labels(w, data.features), expected)
        assert evaluate_metric(w, data) == float(np.mean(expected == data.labels))


    def test_single_block_maps_no_runs(self, monkeypatch):
        def no_pool():
            raise AssertionError("a set of one block is labelled inline")

        monkeypatch.setattr(training, "_block_pool", no_pool)
        monkeypatch.setattr(training, "_cpu_count", lambda: 4)
        data = small_dataset(rows=100)
        w = init_weights(ModelSpec(5, 3, hidden=7), derive_seed("inline"))
        expected = predict_logits(w, data.features).argmax(axis=1)
        assert np.array_equal(predict_labels(w, data.features), expected)

    def test_no_rows_give_no_labels(self):
        w = init_weights(ModelSpec(5, 3, hidden=7), derive_seed("no-rows"))
        assert predict_labels(w, np.empty((0, 5))).shape == (0,)


class TestUtility:
    def test_uniform_model_gives_log_classes(self):
        data = small_dataset(classes=3)
        w = init_weights(ModelSpec(5, 3), derive_seed("u"))  # zeros -> uniform softmax
        losses, _ = utility(w.spec, w.values[None], data)
        assert losses[0] == pytest.approx(np.log(3), rel=1e-12)

    def test_gradient_step_reduces_loss(self):
        data = small_dataset(rows=150)
        w = init_weights(ModelSpec(5, 3), derive_seed("g"))
        _, grad = loss_and_grad(w, data.features, data.labels)
        (stepped, base), _ = utility(w.spec, np.stack([w.values - 0.1 * grad, w.values]), data)
        assert stepped < base

    def test_non_negative(self):
        rng = rng_from(derive_seed("nn"))
        data = small_dataset()
        spec = ModelSpec(5, 3)
        for _ in range(20):
            w = ModelWeights(rng.normal(scale=3.0, size=spec.param_count), spec)
            losses, _ = utility(spec, w.values[None], data)
            assert losses[0] >= 0.0

    @pytest.mark.parametrize("hidden", [0, 7])
    @pytest.mark.parametrize("models", [1, 5])
    def test_rows_match_single_model_loss(self, hidden, models):
        spec = ModelSpec(5, 3, hidden=hidden)
        block = BLOCK_MACS // (5 * (hidden or 3))  # rows whose first-layer product fits the cap
        data = small_dataset(seed=hidden, rows=3 * block + block // 3 + 1)
        rng = rng_from(derive_seed("stack", hidden, models))
        stack = rng.normal(scale=0.5, size=(models, spec.param_count))
        scores, accuracies = utility(spec, stack, data)
        assert scores.shape == accuracies.shape == (models,)
        for row, score, accuracy in zip(stack, scores, accuracies):
            expected, _ = loss_and_grad(ModelWeights(row, spec), data.features, data.labels)
            assert score == pytest.approx(expected, rel=1e-12)
            assert accuracy == evaluate_metric(ModelWeights(row, spec), data)

    @pytest.mark.parametrize("hidden", [0, 7])
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_pooled_scores_equal_one_worker(self, monkeypatch, hidden, workers):
        spec = ModelSpec(5, 3, hidden=hidden)
        monkeypatch.setattr(training, "BLOCK_MACS", 5 * (hidden or 3) * 16)  # 16-row blocks
        data = small_dataset(seed=hidden, rows=16 * 19 + 5)  # 20 blocks
        stack = rng_from(derive_seed("pooled", hidden)).normal(size=(5, spec.param_count))
        monkeypatch.setattr(training, "_cpu_count", lambda: 1)
        alone = utility(spec, stack, data)
        monkeypatch.setattr(training, "_cpu_count", lambda: workers)
        pooled = utility(spec, stack, data)
        assert np.array_equal(pooled[0], alone[0]) and np.array_equal(pooled[1], alone[1])

    @pytest.mark.parametrize("hidden", [0, 7])
    def test_row_scored_alone_equals_row_in_stack(self, hidden):
        spec = ModelSpec(5, 3, hidden=hidden)
        block = BLOCK_MACS // (5 * (hidden or 3))
        data = small_dataset(seed=hidden, rows=2 * block + 7)
        stack = rng_from(derive_seed("alone", hidden)).normal(size=(6, spec.param_count))
        scores, accuracies = utility(spec, stack, data)
        assert len(set(accuracies.tolist())) > 1  # the rows differ in accuracy, not only in loss
        for i, row in enumerate(stack):
            alone, alone_accuracy = utility(spec, row[None], data)
            assert np.array_equal(alone, scores[i : i + 1])
            assert np.array_equal(alone_accuracy, accuracies[i : i + 1])
            assert evaluate_metric(ModelWeights(row, spec), data) == accuracies[i]
        pair, pair_accuracies = utility(spec, stack[[4, 1]], data)
        assert np.array_equal(pair, scores[[4, 1]])
        assert np.array_equal(pair_accuracies, accuracies[[4, 1]])

    @pytest.mark.parametrize("bias", [(0.0, 0.0, 0.0), (-1.0, 0.0, 0.0)])
    def test_ties_go_to_the_first_top_class(self, bias):
        # zero matrices: every row ties on the top classes, and the first of them is predicted
        spec = ModelSpec(5, 3)
        data = small_dataset(rows=90)
        tied = np.concatenate([np.zeros(15), bias])
        predicted = predict_logits(ModelWeights(tied, spec), data.features).argmax(axis=1)
        expected = float(np.mean(predicted == data.labels))
        assert 0.0 < expected < 0.5  # a shortcut that calls every top class right reads 1.0
        _, alone = utility(spec, tied[None], data)
        others = rng_from(derive_seed("tied")).normal(size=(2, spec.param_count))
        _, in_stack = utility(spec, np.vstack([others[0], tied, others[1]]), data)
        assert alone[0] == in_stack[1] == expected == evaluate_metric(ModelWeights(tied, spec), data)
        _, untied = utility(spec, others, data)  # rows in a block with a tie keep their accuracy
        assert np.array_equal(in_stack[[0, 2]], untied)

    def test_single_block_uses_no_pool(self, monkeypatch):
        def no_pool():
            raise AssertionError("a single block must be scored on the calling thread")

        monkeypatch.setattr(training, "_block_pool", no_pool)
        monkeypatch.setattr(training, "_cpu_count", lambda: 4)
        spec = ModelSpec(5, 3, hidden=7)
        stack = rng_from(derive_seed("one-block")).normal(size=(3, spec.param_count))
        losses, accuracies = utility(spec, stack, small_dataset(rows=100))
        assert losses.shape == accuracies.shape == (3,)

    def test_repeated_calls_bit_identical(self):
        spec = ModelSpec(5, 3, hidden=6)
        data = small_dataset(rows=500)
        stack = rng_from(derive_seed("rep")).normal(size=(4, spec.param_count))
        (a, a_accuracy), (b, b_accuracy) = utility(spec, stack, data), utility(spec, stack, data)
        assert np.array_equal(a, b) and np.array_equal(a_accuracy, b_accuracy)

    def test_empty_eval_set(self):
        empty = LabeledDataset(np.empty((0, 5)), np.empty(0, dtype=int), 3)
        spec = ModelSpec(5, 3)
        with pytest.raises(EmptyEvalSet):
            utility(spec, np.zeros((2, spec.param_count)), empty)

    def test_stack_width_checked(self):
        spec = ModelSpec(5, 3)
        with pytest.raises(DimensionMismatch):
            utility(spec, np.zeros((2, spec.param_count + 1)), small_dataset())
        with pytest.raises(DimensionMismatch):
            utility(spec, np.zeros((0, spec.param_count)), small_dataset())
        with pytest.raises(DimensionMismatch):
            utility(spec, np.zeros(spec.param_count), small_dataset())


class TestStateDigest:
    def setup_method(self):
        self.spec = ModelSpec(3, 2)
        self.w = ModelWeights(np.arange(8, dtype=float) / 7.0, self.spec)
        self.p = np.array([0.25, 0.75])
        self.counts = np.array([3, 9], dtype=np.int64)

    def test_equal_states_equal_digests(self):
        a = state_digest(self.w, self.p, self.counts)
        b = state_digest(
            ModelWeights(self.w.values.copy(), self.spec), self.p.copy(), self.counts.copy()
        )
        assert a == b and len(a) == 32

    def test_last_bit_flip_changes_digest(self):
        values = self.w.values.copy()
        bits = values.view(np.uint64)
        bits[5] ^= 1
        flipped = ModelWeights(bits.view(np.float64), self.spec)
        assert state_digest(flipped, self.p, self.counts) != state_digest(
            self.w, self.p, self.counts
        )

    def test_distribution_and_counts_hashed(self):
        base = state_digest(self.w, self.p, self.counts)
        assert state_digest(self.w, np.array([0.75, 0.25]), self.counts) != base
        assert state_digest(self.w, self.p, np.array([9, 3], dtype=np.int64)) != base

    def test_golden_value(self):
        # frozen regression pin for the canonical serialization
        digest = state_digest(self.w, self.p, self.counts)
        assert digest.hex() == GOLDEN_DIGEST

    def test_golden_value_with_hidden_layer(self):
        # pins the three layer dims and the tanh tag of an MLP's encoding
        mlp = ModelWeights(np.arange(14) / 13.0, ModelSpec(3, 2, hidden=2))
        assert state_digest(mlp, self.p, self.counts).hex() == GOLDEN_MLP_DIGEST

    def test_non_finite_rejected(self):
        bad = ModelWeights(np.array([np.nan] + [0.0] * 7), self.spec)
        with pytest.raises(NonFiniteState):
            state_digest(bad, self.p, self.counts)

    def test_distinct_random_states_distinct_digests(self):
        rng = rng_from(derive_seed("inj"))
        seen = set()
        for _ in range(10_000):
            w = ModelWeights(rng.normal(size=8), self.spec)
            seen.add(state_digest(w, self.p, self.counts))
        assert len(seen) == 10_000


GOLDEN_DIGEST = "bfce8b31c76a058b446a9186b48c37af015f9a458fea5ecaa232532454d4f234"
GOLDEN_MLP_DIGEST = "7b933f434a0399473e8df175820ff2e715318158a70ba4fac939c98423d450eb"


class TestIdxLoader:
    def test_round_trip_fixture(self, tmp_path):
        images = np.arange(4 * 2 * 3, dtype=np.uint8).reshape(4, 2, 3)
        labels = np.array([7, 0, 2, 9], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        data = load_idx(img, lbl)
        assert len(data) == 4
        assert list(data.labels) == [7, 0, 2, 9]
        assert data.class_count == 10
        assert data.features.shape == (4, 6)
        assert np.allclose(data.features[1], images[1].ravel() / 255.0)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        labels = np.zeros(1, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        broken = tmp_path / "broken.idx"
        broken.write_bytes(struct.pack(">iiii", 0x00000999, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(BadMagic):
            load_idx(str(broken), lbl)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(DimensionMismatch):
            load_idx(img, lbl)

    @pytest.mark.parametrize("header", [(2, -2, 2), (2, -2, -2), (-2, 2, 2)])
    def test_negative_image_size_rejected(self, tmp_path, header):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        broken = tmp_path / "negative.idx"
        broken.write_bytes(struct.pack(">iiii", 0x00000803, *header) + bytes(8))
        with pytest.raises(DimensionMismatch, match="negative.idx"):
            load_idx(str(broken), lbl)

    def test_negative_label_count_rejected(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        broken = tmp_path / "negative.idx"
        broken.write_bytes(struct.pack(">ii", 0x00000801, -2) + bytes(2))
        with pytest.raises(DimensionMismatch, match="negative.idx"):
            load_idx(img, str(broken))

    def test_splits_are_slices_of_the_loaded_array(self, tmp_path):
        images = np.arange(30 * 3 * 2, dtype=np.uint8).reshape(30, 3, 2)
        img, lbl = write_idx_pair(tmp_path, images, np.arange(30) % 3)
        full = load_idx(img, lbl)
        assert full.features.tobytes() == (images.reshape(30, 6) / 255.0).tobytes()
        splits = split_dataset(full)
        # the train split names the first 24 rows by index; validation and test are views
        assert splits.train.dataset is full and np.array_equal(splits.train.index, np.arange(24))
        for part in (splits.validation, splits.test):
            assert part.features.base is full.features and part.labels.base is full.labels
        parts = (gather_rows([splits.train]), splits.validation, splits.test)
        assert np.array_equal(np.concatenate([part.features for part in parts]), full.features)

    def test_load_and_split_peak_memory(self, tmp_path):
        # the file's bytes and the one float64 matrix; a second full-size copy would read about 2.0
        rng = rng_from(derive_seed("idx-memory"))
        images = rng.integers(0, 256, size=(3000, 16, 16))
        img, lbl = write_idx_pair(tmp_path, images, rng.integers(0, 10, size=3000))
        held, peak = traced_memory(lambda: split_dataset(load_idx(img, lbl)))
        assert peak < 1.5 * held

    @pytest.mark.parametrize("count", [8, 9])
    def test_fewer_than_ten_rows_refused(self, tmp_path, count):
        # the 80/10/10 split would leave validation and test empty
        img, lbl = write_idx_pair(tmp_path, np.zeros((count, 2, 2)), np.arange(count) % 2)
        with pytest.raises(EmptyEvalSet, match=f"at least 10 rows, not {count}"):
            split_dataset(load_idx(img, lbl))

    def test_ten_rows_split_8_1_1(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((10, 2, 2)), np.arange(10) % 2)
        splits = split_dataset(load_idx(img, lbl))
        assert [len(splits.train), len(splits.validation), len(splits.test)] == [8, 1, 1]

    def test_truncated_pixels(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        data = open(img, "rb").read()
        open(img, "wb").write(data[:-3])
        with pytest.raises(TruncatedFile):
            load_idx(img, lbl)


class TestSynthDataset:
    @pytest.mark.parametrize(
        "spec, rows",
        [
            (SynthSpec(), 500),
            (SynthSpec(class_count=10, dims=32, separation=3.0), 4_003),
            (SynthSpec(class_count=3, dims=3, separation=-2.0, noise=0.25), 97),
            (SynthSpec(class_count=2, dims=5, separation=0.0, noise=0.0), 40),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_bit_identical_to_reference(self, spec, rows, seed):
        splits = synth_dataset(spec, rows, derive_seed("synth", seed))
        reference = reference_synth_dataset(spec, rows, derive_seed("synth", seed))
        parts = (gather_rows([splits.train]), splits.validation, splits.test)
        for part, (features, labels) in zip(parts, reference):
            assert part.features.tobytes() == features.tobytes()
            assert part.labels.tobytes() == labels.tobytes()

    def test_train_split_indexes_the_drawn_rows(self):
        splits = synth_dataset(SynthSpec(), 503, derive_seed("views"))
        drawn = splits.train.dataset
        assert drawn.features.shape == (503, 16) and drawn.features.base is None
        assert np.array_equal(drawn.labels, np.sort(drawn.labels))  # drawn class by class
        assert len(np.unique(splits.train.index)) == len(splits.train) == 403
        for part in (splits.validation, splits.test):  # gathered once, not views of the draws
            assert not np.shares_memory(part.features, drawn.features)
        # train, validation and test hold each drawn row once
        parts = (gather_rows([splits.train]), splits.validation, splits.test)
        rows = [part.features for part in parts]
        assert sorted(map(bytes, np.concatenate(rows))) == sorted(map(bytes, drawn.features))

    def test_peak_memory(self):
        # the draws, validation and test gathered once, the labels and the shuffle read about
        # 1.27 of the feature bytes at the end and at the peak; a shuffled full copy of the
        # draws read 1.03 at the end and 2.09 at the peak
        spec = SynthSpec(class_count=10, dims=32, separation=3.0)

        def build():
            return synth_dataset(spec, 20_000, derive_seed("memory"))

        build()  # first calls allocate caches of their own
        held, peak = traced_memory(build)
        assert held < 1.35 * 20_000 * 32 * 8 and peak < 1.1 * held

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(noise=-1.0)

    def test_two_separated_clusters_learnable(self):
        splits = synth_dataset(
            SynthSpec(class_count=2, dims=4, separation=8.0, noise=1.0),
            2000,
            derive_seed("sep2"),
        )
        spec = ModelSpec(4, 2)
        w = init_weights(spec, derive_seed("init"))
        values = w.values.copy()
        train = gather_rows([splits.train])
        for _ in range(80):
            _, grad = loss_and_grad(w.with_values(values), train.features, train.labels)
            values -= 0.5 * grad
        assert evaluate_metric(w.with_values(values), splits.test) >= 0.99

    def test_seed_stable(self):
        spec = SynthSpec()
        a = synth_dataset(spec, 500, derive_seed("stable"))
        b = synth_dataset(spec, 500, derive_seed("stable"))
        assert np.array_equal(gather_rows([a.train]).features, gather_rows([b.train]).features)
        assert np.array_equal(a.test.labels, b.test.labels)

    def test_split_sizes_floor_remainder_to_train(self):
        splits = synth_dataset(SynthSpec(), 4_003, derive_seed("sizes"))
        assert len(splits.validation) == 400
        assert len(splits.test) == 400
        assert len(splits.train) == 4_003 - 800


def reference_dirichlet_partition(dataset, sellers, concentration, seed):
    """The plan built chunk by chunk: each class cut by np.split, each seller's chunks sorted."""
    rng = rng_from(seed)
    shards = [[] for _ in range(sellers)]
    for k in range(dataset.class_count):
        idx = np.nonzero(dataset.labels == k)[0]
        if len(idx) == 0:
            continue
        idx = rng.permutation(idx)
        shares = rng.dirichlet(np.full(sellers, concentration))
        cuts = (np.cumsum(shares) * len(idx)).astype(int)[:-1]
        for s, chunk in enumerate(np.split(idx, cuts)):
            shards[s].append(chunk)
    return [
        np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)
        for chunks in shards
    ]


class TestDirichletPartition:
    def build(self, rows=4000, classes=4, seed="part"):
        rng = rng_from(derive_seed(seed))
        labels = np.repeat(np.arange(classes), rows // classes)
        features = rng.normal(size=(rows, 3))
        return LabeledDataset(features, labels, classes)

    def test_single_seller_gets_everything(self):
        data = self.build()
        plan = dirichlet_partition(data, 1, 0.5, derive_seed("one"))
        assert len(plan) == 1 and len(plan[0]) == len(data)

    def test_disjoint_and_within_bounds(self):
        data = self.build()
        for trial in range(10):
            plan = dirichlet_partition(data, 13, 0.5, derive_seed("dj", trial))
            combined = np.concatenate(plan)
            assert len(np.unique(combined)) == len(combined)
            assert combined.max() < len(data)

    def test_low_concentration_skews_labels(self):
        data = self.build(rows=4000, classes=4)
        medians = []
        for trial in range(5):
            plan = dirichlet_partition(data, 50, 0.5, derive_seed("skew", trial))
            max_shares = []
            for indices in plan:
                if len(indices) == 0:
                    continue
                hist = np.bincount(data.labels[indices], minlength=4)
                max_shares.append(hist.max() / hist.sum())
            medians.append(np.median(max_shares))
        assert all(m > 0.4 for m in medians)

    def test_high_concentration_near_uniform(self):
        data = self.build(rows=8000, classes=4)
        plan = dirichlet_partition(data, 50, 1e6, derive_seed("unif"))
        for k in range(4):
            class_rows = np.sum(data.labels == k)
            for indices in plan:
                share = np.sum(data.labels[indices] == k) / class_rows
                assert abs(share - 1 / 50) <= 0.1 * (1 / 50) + 2 / class_rows

    @pytest.mark.parametrize(
        "rows, classes, sellers, concentration",
        [
            (4000, 4, 13, 0.5),
            (4000, 4, 1, 0.5),
            (4000, 4, 50, 0.05),  # many empty shards
            (200, 4, 120, 0.5),  # more sellers than rows of a class
            (1000, 10, 300, 1000.0),
            (999, 3, 257, 2.0),  # past 256 sellers, the seller index needs two bytes
        ],
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_reference(self, rows, classes, sellers, concentration, seed):
        data = self.build(rows=rows, classes=classes, seed=f"ref{seed}")
        plan = dirichlet_partition(data, sellers, concentration, derive_seed("plan", seed))
        reference = reference_dirichlet_partition(
            data, sellers, concentration, derive_seed("plan", seed)
        )
        assert len(plan) == sellers
        for indices, expected in zip(plan, reference):
            assert indices.dtype == expected.dtype and indices.tobytes() == expected.tobytes()
        if concentration == 0.05:
            assert any(len(indices) == 0 for indices in plan)

    def test_skipped_class_draws_nothing(self):
        labels = np.repeat([0, 2], 50)  # class 1 is empty
        data = LabeledDataset(np.zeros((100, 3)), labels, 3)
        plan = dirichlet_partition(data, 7, 0.5, derive_seed("gap"))
        reference = reference_dirichlet_partition(data, 7, 0.5, derive_seed("gap"))
        assert [a.tobytes() for a in plan] == [b.tobytes() for b in reference]


class TestPartitionShards:
    def train_split(self, seed):
        """The rows of a dataset that a shuffle puts first, named by index."""
        data = TestDirichletPartition().build(rows=1000, classes=4)
        return RowSet(data, rng_from(derive_seed(seed)).permutation(1000)[:800])

    def test_shards_index_the_one_array(self):
        train = self.train_split("pool")
        copied = gather_rows([train])  # the train split as a copy of its rows
        plan = dirichlet_partition(train, 30, 0.1, derive_seed("pool"))
        reference = dirichlet_partition(copied, 30, 0.1, derive_seed("pool"))
        assert [a.tobytes() for a in plan] == [b.tobytes() for b in reference]
        assert any(len(indices) == 0 for indices in plan)
        shards = partition_shards(train, plan)
        for shard, indices in zip(shards, plan):
            expected = copied.take(indices)
            assert shard.dataset is train.dataset and len(shard) == len(indices)
            rows = gather_rows([shard])
            assert rows.features.tobytes() == expected.features.tobytes()
            assert rows.labels.tobytes() == expected.labels.tobytes()

    def test_rows_of_a_checked_dataset_are_not_checked_again(self, monkeypatch):
        train = self.train_split("unchecked")
        plan = dirichlet_partition(train, 30, 0.1, derive_seed("unchecked"))
        checked = []
        monkeypatch.setattr(LabeledDataset, "__post_init__", checked.append)
        rows = [gather_rows([shard]) for shard in partition_shards(train, plan)]
        assert checked == [] and [len(shard) for shard in rows] == [len(i) for i in plan]
        assert rows[0].class_count == train.class_count
