"""Committee growth, sortition, likelihood scoring, and the decision rule."""

import contextlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket.consensus import (
    ConsensusParams,
    acceptance_bound,
    agree,
    best_digest,
    decide,
    execution_set_size,
    likelihood_scores,
    sortition,
    threshold,
    total_executions,
)
from datamarket.errors import DegenerateParams, NoConsensus, SizeExceedsPopulation
from datamarket.harness import consensus_trials
from datamarket.rng import derive_seed


def brute_force_sizes(s0: int, rounds: int) -> list[int]:
    """Doubling recurrence: the committee grows by 1, 2, 4, ... seats."""
    sizes, step = [s0], 1
    for _ in range(rounds - 1):
        sizes.append(sizes[-1] + step)
        step *= 2
    return sizes


def make_params(**overrides) -> ConsensusParams:
    kwargs = dict(
        total_nodes=50,
        sample_fraction=0.1,
        byz_fraction_max=0.3,
        confidence_beta=0.01,
        base_size=5,
    )
    kwargs.update(overrides)
    return ConsensusParams(**kwargs)


class TestCommitteeGrowth:
    def test_first_round_is_base_size(self):
        assert execution_set_size(1, 4) == 4

    def test_fourth_round_matches_recurrence(self):
        assert brute_force_sizes(4, 4) == [4, 5, 7, 11]
        assert execution_set_size(4, 4) == 11

    def test_cap_at_population(self):
        assert execution_set_size(10, 4, cap=50) == 50

    def test_total_single_round(self):
        assert total_executions(1, 4) == 4

    def test_total_matches_summation(self):
        assert total_executions(4, 4) == sum(brute_force_sizes(4, 4)) == 27
        assert total_executions(3, 1) == sum(brute_force_sizes(1, 3)) == 7

    @pytest.mark.parametrize("s0", range(1, 9))
    def test_closed_forms_match_recurrence(self, s0):
        sizes = brute_force_sizes(s0, 20)
        for r in range(1, 21):
            assert execution_set_size(r, s0) == sizes[r - 1]
            assert total_executions(r, s0) == sum(sizes[:r])

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError):
            execution_set_size(0, 4)
        with pytest.raises(ValueError):
            total_executions(0, 4)


class TestSortition:
    POPULATION = 8

    def test_full_population(self):
        members = sortition(derive_seed("full"), self.POPULATION, self.POPULATION)
        assert sorted(members.tolist()) == list(range(self.POPULATION))

    def test_deterministic_in_seed(self):
        seed = derive_seed("twice")
        first = sortition(seed, self.POPULATION, 3)
        second = sortition(seed, self.POPULATION, 3)
        assert np.array_equal(first, second)

    def test_size_exceeds_population(self):
        with pytest.raises(SizeExceedsPopulation):
            sortition(derive_seed("big"), self.POPULATION, 9)

    def test_members_distinct(self):
        for k in range(50):
            members = sortition(derive_seed("distinct", k), self.POPULATION, 5)
            assert len(set(members.tolist())) == 5

    def test_selection_frequency_uniform(self):
        # Monte Carlo bound: per-node frequency within 3 sigma of size/n
        trials, size = 100_000, 3
        counts = Counter()
        for k in range(trials):
            counts.update(sortition(derive_seed("freq", k), self.POPULATION, size).tolist())
        expectation = trials * size / self.POPULATION
        sigma = math.sqrt(trials * (size / self.POPULATION) * (1 - size / self.POPULATION))
        for node in range(self.POPULATION):
            assert abs(counts[node] - expectation) < 3 * sigma


class TestLikelihoodScores:
    def test_unanimous_single_round(self):
        assert likelihood_scores([{b"A": 5}], [5]) == {b"A": 25}

    def test_even_split_scores_zero(self):
        assert likelihood_scores([{b"A": 2, b"B": 2}], [4]) == {b"A": 0, b"B": 0}

    def test_two_round_accumulation(self):
        scores = likelihood_scores([{b"A": 3}, {b"A": 4}], [4, 5])
        assert scores[b"A"] == (2 * 3 - 4) * 4 + (2 * 4 - 5) * 5 == 23

    def test_absent_round_penalizes(self):
        scores = likelihood_scores([{b"A": 3, b"B": 1}, {b"A": 4}], [4, 5])
        assert scores[b"B"] == (2 * 1 - 4) * 4 + (0 - 5) * 5

    def test_rejects_overfull_round(self):
        with pytest.raises(ValueError):
            likelihood_scores([{b"A": 6}], [5])

    @given(
        st.lists(
            st.tuples(st.integers(2, 30), st.integers(0, 3)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_per_round_sum_identity(self, rounds):
        # over each round, sum over digests of (2c - C)C is (2*committed - k*C)C
        counts_by_round, sizes = [], []
        for size, extra in rounds:
            split = {b"A": max(0, size - 1 - extra), b"B": min(extra, 1)}
            split = {k: v for k, v in split.items() if v > 0}
            counts_by_round.append(split)
            sizes.append(size)
        scores = likelihood_scores(counts_by_round, sizes)
        for idx, (counts, c_l) in enumerate(zip(counts_by_round, sizes)):
            per_round = sum(
                (2 * counts.get(k, 0) - c_l) * c_l for k in scores
            )
            committed = sum(counts.values())
            assert per_round == (2 * committed - len(scores) * c_l) * c_l


class TestThreshold:
    def test_reference_value(self):
        # ln(99) * 2*0.1*0.9*50*0.7*0.3 / 0.4 = ln(99) * 4.725
        assert threshold(make_params()) == pytest.approx(math.log(99) * 4.725, rel=1e-12)
        assert threshold(make_params()) == pytest.approx(21.71, abs=0.005)

    def test_half_fraction_rejected_at_construction(self):
        with pytest.raises(DegenerateParams):
            make_params(byz_fraction_max=0.5)

    def test_zero_fraction_degenerate(self):
        with pytest.raises(DegenerateParams):
            threshold(make_params(byz_fraction_max=0.0))

    def test_half_confidence_gives_zero(self):
        assert threshold(make_params(confidence_beta=0.5)) == 0.0


class TestAcceptanceBound:
    def test_round_trip_reference(self):
        params = make_params()
        assert acceptance_bound(threshold(params), params) == pytest.approx(0.01, abs=1e-9)

    def test_zero_threshold_is_half(self):
        assert acceptance_bound(0.0, make_params()) == 0.5

    def test_monotone_decreasing_in_threshold(self):
        params = make_params()
        values = [acceptance_bound(t, params) for t in np.linspace(0.0, 400.0, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_huge_threshold_does_not_overflow(self):
        params = ConsensusParams(100, 0.1, 0.3, 1e-3, 1)
        assert acceptance_bound(20000.0, params) == 0.0

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            params = make_params(
                total_nodes=int(rng.integers(2, 500)),
                sample_fraction=float(rng.uniform(0.01, 0.99)),
                byz_fraction_max=float(rng.uniform(0.01, 0.49)),
                confidence_beta=float(rng.uniform(0.001, 0.499)),
                base_size=int(rng.integers(1, 9)),
            )
            back = acceptance_bound(threshold(params), params)
            assert back == pytest.approx(params.confidence_beta, abs=1e-9)


class TestDecide:
    THETA = 21.71

    def test_accepts_crossing_digest(self):
        assert decide(likelihood_scores([{b"A": 5}], [5]), self.THETA) == b"A"

    def test_continues_below_threshold(self):
        assert decide(likelihood_scores([{b"A": 2, b"B": 2}], [4]), self.THETA) is None

    def test_tie_breaks_to_smaller_digest(self):
        assert decide({b"B": 30, b"A": 30}, 21.71) == b"A"

    def test_strictly_greater_required(self):
        assert decide(likelihood_scores([{b"A": 5}], [5]), 25.0) is None

    def test_largest_score_wins(self):
        assert decide({b"A": 30, b"B": 40}, 21.71) == b"B"

    def test_best_digest_empty(self):
        assert best_digest(likelihood_scores([], [])) is None


class TestAgreement:
    def test_honest_unanimity_first_round(self):
        params = make_params()  # base 5, theta 21.71 < 25
        for out in consensus_trials(params, 0.0, 20, seed=5):
            assert out.mini_rounds == 1 and not out.wrong_accepted

    def test_terminates_under_max_byzantine(self):
        params = make_params()
        for out in consensus_trials(params, 0.3, 200, seed=6):
            assert out.mini_rounds >= 1


class TestAgree:
    """The mini-round driver against scripted commit sources."""

    PARAMS = make_params()  # sizes 5, 6, 8, 12, 20, 36, 50; theta 21.71

    def setup_method(self):
        self.sizes, self.decisions = [], []

    def agree(self, counts, revealable=None):
        def commit(i, size):
            self.sizes.append(size)
            return counts(i, size)

        def on_decision(i, scores, accepted):
            self.decisions.append((i, dict(scores), accepted))

        return agree(self.PARAMS, threshold(self.PARAMS), commit, revealable, on_decision)

    def test_forged_winner_disqualified_then_honest_accepted(self):
        # The forgery takes the first committee (score 25 > theta) and has
        # no preimage; the honest digest overtakes it in mini-round 3.
        result = self.agree(
            lambda i, size: {b"F": size} if i == 1 else {b"H": size}, revealable={b"H"}
        )
        assert result == (b"H", 3)
        assert self.sizes == [5, 6, 8]
        assert [accepted for _, _, accepted in self.decisions] == [b"F", None, b"H"]
        assert self.decisions[1][1] == {b"H": -25 + 36}  # F is out of the table
        assert self.decisions[2][1] == {b"H": -25 + 36 + 64}

    def test_no_revealable_digest_at_cap_raises(self):
        # Every mini-round's committee commits a fresh forgery.
        with pytest.raises(NoConsensus):
            self.agree(lambda i, size: {bytes([i]): size}, revealable=set())
        assert self.sizes == [5, 6, 8, 12, 20, 36, 50]
        assert [i for i, _, _ in self.decisions] == list(range(1, 8))
        # A forgery clears theta whenever its committee outweighs all
        # earlier ones (mini-rounds 1, 5, 6) and is disqualified; at the
        # cap the top scorer goes the same way and nothing is left.
        accepted = [d for _, _, d in self.decisions]
        assert accepted == [b"\x01", None, None, None, b"\x05", b"\x06", b"\x07"]
        _, last_scores, last = self.decisions[-1]
        assert not {b"\x01", b"\x05", b"\x06"} & set(last_scores)
        assert last == min(last_scores, key=lambda k: (-last_scores[k], k))

    def test_cap_accepts_best_without_threshold(self):
        # An even split never clears theta; at the cap the top score wins.
        result = self.agree(lambda i, size: {b"A": size - size // 2, b"B": size // 2})
        assert result == (b"A", 7) and self.sizes[-1] == 50
        assert all(accepted is None for _, _, accepted in self.decisions[:-1])

    # Scripted commit sources and their revealable digests (None: all are).
    SOURCES = {
        # F wins mini-round 1 without a preimage and is disqualified.
        "forged-first": (lambda i, size: {b"F": size} if i == 1 else {b"H": size}, {b"H"}),
        # A fresh forgery each mini-round, disqualified up to the cap.
        "forgery-every-round": (lambda i, size: {bytes([i]): size}, set()),
        # Nothing clears theta; the cap accepts the top score.
        "even-split": (lambda i, size: {b"A": size - size // 2, b"B": size // 2}, None),
        # Empty seats and a digest counted zero times; B is disqualified and
        # A, with negative scores, is accepted at the cap.
        "partial-committees": (
            lambda i, size: {b"A": size // 3, b"B": size // 2, b"C": 0}, {b"A"}
        ),
    }

    @pytest.mark.parametrize("source", SOURCES)
    def test_scores_are_likelihood_scores_of_the_commits(self, source):
        counts, revealable = self.SOURCES[source]
        committed = []

        def record(i, size):
            committed.append(counts(i, size))
            return committed[-1]

        with contextlib.suppress(NoConsensus):
            self.agree(record, revealable)
        assert self.sizes[-1] == 50 or source == "forged-first"
        disqualified = set()
        for i, scores, accepted in self.decisions:
            every = likelihood_scores(committed[:i], self.sizes[:i])
            assert scores == {k: v for k, v in every.items() if k not in disqualified}
            if accepted is not None and revealable is not None and accepted not in revealable:
                disqualified.add(accepted)
        assert disqualified or revealable is None

    def test_rejects_more_commits_than_seats(self):
        with pytest.raises(ValueError, match="mini-round 2 has more commits than seats"):
            self.agree(lambda i, size: {b"A": size // 2, b"B": size // 2 + i})
