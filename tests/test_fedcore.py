"""Seller sampling, utility estimation, the mirror-descent step, aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket import fedcore
from datamarket.errors import (
    DimensionMismatch,
    EmptyCandidates,
    NumericalFailure,
    ZeroProbabilitySampled,
)
from datamarket.fedcore import (
    OsmdConfig,
    _stack,
    classical_krum_index,
    corrected_krum_index,
    mean_aggregate,
    omd_update,
    run_federated_round,
    sample_sellers,
    utility_estimates,
)
from datamarket.rng import derive_seed, rng_from


class TestSampleSellers:
    def test_point_mass_returns_only_that_index(self):
        sample = sample_sellers(np.array([0.0, 1.0, 0.0]), 12, derive_seed("pm"))
        assert list(sample) == [1] * 12

    def test_deterministic_in_seed(self):
        p = np.full(4, 0.25)
        seed = derive_seed("det")
        assert np.array_equal(sample_sellers(p, 100, seed), sample_sellers(p, 100, seed))

    def test_uniform_frequencies(self):
        p = np.full(4, 0.25)
        sample = sample_sellers(p, 1_000_000, derive_seed("freq"))
        counts = np.bincount(sample, minlength=4)
        sigma = np.sqrt(1_000_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 250_000) < 3 * sigma)


def round_access_counts(monkeypatch, counts, sample):
    """The access counts a round leaves after it draws sample."""
    monkeypatch.setattr(fedcore, "sample_sellers", lambda p, k, seed: np.asarray(sample))
    n, seed = len(counts), derive_seed("counts")
    params = OsmdConfig(batch_size=len(sample), learning_rate=0.0)
    oracle = _StubOracle({i: np.zeros(1) for i in range(n)}, seed)
    out = run_federated_round(np.zeros(1), np.full(n, 1 / n), counts, params, seed, oracle)
    return out.access_counts


class TestAccessCounts:
    def test_adds_multiplicities(self, monkeypatch):
        out = round_access_counts(monkeypatch, np.array([0, 0]), np.array([0, 0, 1]))
        assert list(out) == [2, 1]

    def test_unsampled_untouched(self, monkeypatch):
        out = round_access_counts(monkeypatch, np.array([5, 7, 9]), np.array([1]))
        assert list(out) == [5, 8, 9]

    def test_increment_sums_to_batch(self, monkeypatch):
        rng = rng_from(derive_seed("counts"))
        for _ in range(100):
            n, k = int(rng.integers(2, 20)), int(rng.integers(1, 50))
            before = rng.integers(0, 10, size=n)
            sample = rng.integers(0, n, size=k)
            after = round_access_counts(monkeypatch, before, sample)
            assert (after - before).sum() == k
            assert np.all(after >= before)


class TestUtilityEstimates:
    def test_unsampled_is_zero(self):
        u = utility_estimates(np.array([0, 1]), np.array([0.5, 0.5]), 1, np.array([-0.3]))
        assert u[0] == 0.0

    def test_importance_weighting(self):
        # two hits out of four draws at probability 1/4 doubles the delta
        u = utility_estimates(
            np.array([1, 2, 1, 0]), np.full(4, 0.25), 4, np.array([0.0, -0.1, 0.0])
        )
        assert u[1] == pytest.approx((2 / (4 * 0.25)) * -0.1) == pytest.approx(-0.2)

    def test_zero_probability_sampled(self):
        with pytest.raises(ZeroProbabilitySampled):
            utility_estimates(np.array([1, 0]), np.array([0.0, 1.0]), 1, np.array([1.0]))

    def test_unbiased_over_resamples(self):
        p = np.array([0.5, 0.3, 0.2])
        delta = np.array([-0.2, 0.4, -0.7])
        total = np.zeros(3)
        draws = 20_000
        root = derive_seed("unbiased")
        for i in range(draws):
            multiplicity = np.bincount(sample_sellers(p, 8, derive_seed(root, i)), minlength=3)
            total += utility_estimates(multiplicity, p, 8, delta[multiplicity > 0])
        mean = total / draws
        assert np.all(np.abs(mean - delta) / np.abs(delta) < 0.05)


class TestOmdUpdate:
    def test_zero_estimates_leave_distribution(self):
        p = np.array([0.3, 0.45, 0.25])
        assert np.allclose(omd_update(p, np.zeros(3), 2.0, 0.0), p, atol=1e-12)

    def test_zero_learning_rate_freezes(self):
        p = np.array([0.3, 0.45, 0.25])
        assert np.allclose(omd_update(p, np.array([5.0, -3.0, 1.0]), 0.0, 0.0), p, atol=1e-12)

    def test_exponentiated_gradient_closed_form(self):
        q = omd_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.log(2.0), 0.0)
        assert np.allclose(q, [1 / 3, 2 / 3], atol=1e-12)

    def test_floor_binds(self):
        q = omd_update(np.array([0.5, 0.5]), np.array([50.0, 0.0]), 1.0, 0.5)
        assert q[0] == pytest.approx(0.25)  # pinned at alpha/n
        assert q[1] == pytest.approx(0.75)

    def test_full_floor_is_uniform(self):
        q = omd_update(np.array([0.9, 0.05, 0.05]), np.array([-3.0, 1.0, 2.0]), 1.0, 1.0)
        assert np.allclose(q, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_overflowing_estimates_raise(self):
        with pytest.raises(NumericalFailure):
            omd_update(np.array([0.5, 0.5]), np.array([-1e308, 0.0]), 10.0, 0.0)

    def test_feasibility_randomized(self):
        rng = rng_from(derive_seed("feas"))
        for _ in range(2000):
            n = int(rng.integers(2, 50))
            alpha = float(rng.uniform(0.0, 1.0))
            p = omd_update(rng.dirichlet(np.ones(n)), np.zeros(n), 1.0, alpha)
            u = rng.normal(scale=float(rng.uniform(0.01, 50.0)), size=n)
            q = omd_update(p, u, float(rng.uniform(0.0, 5.0)), alpha)
            assert abs(q.sum() - 1.0) < 1e-9
            assert q.min() >= alpha / n - 1e-12

    @given(st.integers(2, 16), st.floats(0.0, 1.0), st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_feasibility_property(self, n, alpha, salt):
        rng = rng_from(derive_seed("hyp", n, salt))
        p = omd_update(rng.dirichlet(np.ones(n)), np.zeros(n), 1.0, alpha)
        q = omd_update(p, rng.normal(scale=10.0, size=n), 1.5, alpha)
        assert abs(q.sum() - 1.0) < 1e-9
        assert q.min() >= alpha / n - 1e-12


class TestCorrectedKrum:
    def test_single_candidate(self):
        c = np.array([2.0, 3.0])
        assert corrected_krum_index([c]) == 0

    def test_reference_example(self):
        cands = [
            np.array([1.0, 1.0]),
            np.array([1.1, 0.9]),
            np.array([0.9, 1.1]),
            np.array([10.0, 10.0]),
        ]
        # distances to mean (3.25, 3.25): 10.125, 10.145, 10.145, 91.125
        assert corrected_krum_index(cands) == 0

    def test_identical_candidates(self):
        c = np.array([4.0, -1.0])
        assert corrected_krum_index([c.copy() for _ in range(5)]) == 0

    def test_tie_goes_to_lowest_index(self):
        cands = [np.array([1.0]), np.array([-1.0]), np.array([1.0])]
        assert corrected_krum_index(cands) == 0

    def test_output_is_member(self):
        rng = rng_from(derive_seed("member"))
        for _ in range(300):
            cands = [rng.normal(size=5) for _ in range(int(rng.integers(1, 12)))]
            picked = corrected_krum_index(cands)
            assert 0 <= picked < len(cands)
            assert corrected_krum_index(np.stack(cands)) == picked

    def test_matches_exhaustive_distance_scan(self):
        rng = rng_from(derive_seed("scan"))
        for _ in range(200):
            cands = [rng.normal(size=4) for _ in range(int(rng.integers(2, 10)))]
            mean = np.mean(cands, axis=0)
            dists = [float(((c - mean) ** 2).sum()) for c in cands]
            assert corrected_krum_index(cands) == int(np.argmin(dists))

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            corrected_krum_index([])
        with pytest.raises(EmptyCandidates):
            corrected_krum_index(np.empty((0, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            corrected_krum_index([np.zeros(2), np.zeros(3)])


class TestOtherAggregators:
    def test_mean_aggregate(self):
        out = mean_aggregate([np.array([0.0, 2.0]), np.array([2.0, 0.0])])
        assert np.allclose(out, [1.0, 1.0])

    def test_matrix_is_not_copied(self):
        stack = np.arange(6.0).reshape(3, 2)
        assert _stack(stack) is stack
        assert np.array_equal(mean_aggregate(stack), mean_aggregate(list(stack)))

    def test_classical_krum_rejects_outlier(self):
        rng = rng_from(derive_seed("ck"))
        cands = [rng.normal(size=6) * 0.1 for _ in range(7)] + [np.full(6, 50.0)]
        assert classical_krum_index(cands, byz_count=1) < 7

    def test_classical_krum_needs_enough_candidates(self):
        with pytest.raises(ValueError):
            classical_krum_index([np.zeros(2)] * 4, byz_count=1)


class _StubOracle:
    """Seller deltas from a fixed table; utility is the weight-vector norm.

    Checks that each seller receives its own seed, derived from the round's.
    """

    def __init__(self, deltas, round_seed):
        self.deltas = deltas
        self.round_seed = round_seed
        self.scored: list[np.ndarray] = []

    def local_deltas(self, sellers, values, seeds):
        for seller, seed in zip(sellers, seeds, strict=True):
            assert seed == derive_seed(self.round_seed, "seller", seller)
        return np.array([self.deltas[seller] for seller in sellers], dtype=float)

    def utility(self, stack):
        self.scored.append(np.array(stack))
        norms = np.linalg.norm(stack, axis=1)
        return norms, norms


class TestFederatedRound:
    PARAMS = OsmdConfig(batch_size=6, learning_rate=1.0, step_size=1.0, floor_fraction=0.2)

    def test_zero_deltas_fix_state(self):
        n, dim = 5, 4
        deltas = {i: np.zeros(dim) for i in range(n)}
        p = np.full(n, 0.2)
        counts = np.zeros(n, dtype=np.int64)
        seed = derive_seed("zero")
        out = run_federated_round(
            np.ones(dim), p, counts, self.PARAMS, seed, _StubOracle(deltas, seed)
        )
        assert np.array_equal(out.values, np.ones(dim))
        assert np.allclose(out.probabilities, p, atol=1e-12)
        assert out.access_counts.sum() == 6

    def test_deterministic_replay(self):
        rng = rng_from(derive_seed("fedrep"))
        deltas = {i: rng.normal(size=3) for i in range(4)}
        args = (
            np.zeros(3),
            np.full(4, 0.25),
            np.zeros(4, dtype=np.int64),
            self.PARAMS,
            derive_seed("replay"),
        )
        a = run_federated_round(*args, _StubOracle(deltas, args[-1]))
        b = run_federated_round(*args, _StubOracle(deltas, args[-1]))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert a.sampled == b.sampled and a.chosen_seller == b.chosen_seller

    def test_corrupted_seller_not_chosen(self):
        # one seller returns a huge displaced delta; krum must pick honest
        deltas = {i: np.full(3, 0.1) for i in range(5)}
        deltas[3] = np.full(3, 100.0)
        out = run_federated_round(
            np.zeros(3),
            np.full(5, 0.2),
            np.zeros(5, dtype=np.int64),
            self.PARAMS,
            derive_seed("corrupt"),
            _StubOracle(deltas, derive_seed("corrupt")),
        )
        assert 3 in out.sampled  # corrupted seller was actually drawn
        assert out.chosen_seller != 3
        assert np.allclose(out.values, 0.1)

    def test_mean_aggregator_blends(self):
        deltas = {i: np.full(2, float(i)) for i in range(3)}
        out = run_federated_round(
            np.zeros(2),
            np.full(3, 1 / 3),
            np.zeros(3, dtype=np.int64),
            self.PARAMS,
            derive_seed("blend"),
            _StubOracle(deltas, derive_seed("blend")),
            aggregator="mean",
        )
        assert out.chosen_seller == -1
        sampled = sorted(set(out.sampled))
        assert np.allclose(out.values, np.mean([deltas[i] for i in sampled], axis=0))

    def test_candidates_in_seller_index_order(self):
        deltas = {i: np.full(1, float(i)) for i in range(6)}
        oracle = _StubOracle(deltas, derive_seed("order"))
        out = run_federated_round(
            np.zeros(1),
            np.full(6, 1 / 6),
            np.zeros(6, dtype=np.int64),
            self.PARAMS,
            derive_seed("order"),
            oracle,
        )
        # candidate j is seller i's model, whose only weight is i
        assert oracle.scored[0][1:, 0].tolist() == sorted(set(out.sampled))

    def test_scores_base_and_candidates_in_one_call(self):
        deltas = {i: np.full(2, float(i)) for i in range(5)}
        values = np.array([0.5, -1.0])
        args = (values, np.full(5, 0.2), np.zeros(5, dtype=np.int64), self.PARAMS, derive_seed("once"))
        norm = float(np.linalg.norm(values))
        for aggregator in ("corrected-krum", "mean"):
            oracle = _StubOracle(deltas, derive_seed("once"))
            out = run_federated_round(*args, oracle, aggregator=aggregator)
            # with the base row's score given, only the other rows are scored, to the same result
            rescored = run_federated_round(*args, oracle, aggregator=aggregator, base=(norm, norm))
            rows = [values + deltas[i] for i in sorted(set(out.sampled))]
            if aggregator == "mean":
                assert np.array_equal(out.values, np.mean(rows, axis=0))
                rows.append(out.values)  # the blend, scored after the candidates
            assert len(oracle.scored) == 2
            assert np.array_equal(oracle.scored[0], np.stack([values, *rows]))
            assert np.array_equal(oracle.scored[1], np.stack(rows))
            assert out.score == rescored.score == (float(np.linalg.norm(out.values)),) * 2
            assert out.chosen_seller == rescored.chosen_seller
            assert np.array_equal(out.values, rescored.values)
            assert np.array_equal(out.probabilities, rescored.probabilities)

    @pytest.mark.parametrize(
        "field, value", [("batch_size", 0), ("step_size", 0.0), ("step_size", -1.0)]
    )
    def test_config_rejects_non_positive(self, field, value):
        with pytest.raises(ValueError):
            OsmdConfig(**{field: value})
