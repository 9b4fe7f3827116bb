"""Revenue splitting and the honesty-condition calculus."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from datamarket.consensus import execution_set_size, total_executions
from datamarket.economics import (
    PayoffParams,
    _proportional_split,
    analyze_payoffs,
    distribute_revenue,
    geometric_catch_prob,
    honesty_equilibrium_check,
    node_honesty_check,
    node_payoff,
    seller_honesty_check,
    seller_payoff,
)
from datamarket.errors import EmptyContributors
from datamarket.rng import derive_seed, rng_from


def params_with(**overrides) -> PayoffParams:
    kwargs = dict(
        seller_pool=70.0,
        node_pool=300.0,
        node_count=10,
        bribe=1.0,
        quality_honest=0.75,
        quality_claimed=0.8,
        success_prob=0.01,
        catch_prob=lambda r: 0.5,
    )
    kwargs.update(overrides)
    return PayoffParams(**kwargs)


class TestDistributeRevenue:
    def test_reference_split(self):
        report = distribute_revenue(1000, {"s1": 7, "s2": 3}, {"a": 2, "b": 1, "c": 1})
        assert report.node_share == 300 and report.seller_share == 700
        assert report.node_transfers == {"a": 150, "b": 75, "c": 75}
        assert report.seller_transfers == {"s1": 490, "s2": 210}

    def test_single_node_single_seller(self):
        report = distribute_revenue(1000, {"s": 1}, {"n": 1})
        assert report.node_transfers == {"n": 300}
        assert report.seller_transfers == {"s": 700}

    def test_small_bid_exact_total(self):
        report = distribute_revenue(10, {"s": 1}, {"a": 1, "b": 1, "c": 1})
        assert report.node_share == 3
        assert sum(report.node_transfers.values()) == 3
        assert sum(report.transfers.values()) == 10

    def test_remainder_to_lowest_id(self):
        # node share 33 over weights 2/1/1: floors 16/8/8, remainder 1 -> "a"
        report = distribute_revenue(110, {"s": 1}, {"x": 2, "a": 1, "m": 1})
        assert report.node_share == 33
        assert report.node_transfers == {"x": 16, "a": 9, "m": 8}
        assert sum(report.node_transfers.values()) == 33

    def test_empty_contributors(self):
        with pytest.raises(EmptyContributors):
            distribute_revenue(100, {}, {"n": 1})
        with pytest.raises(EmptyContributors):
            distribute_revenue(100, {"s": 0}, {"n": 1})

    def test_conservation_randomized(self):
        rng = rng_from(derive_seed("rev"))
        for _ in range(2000):
            bid = int(rng.integers(1, 10**12))
            sellers = {f"s{i}": float(rng.uniform(0, 9)) for i in range(int(rng.integers(1, 9)))}
            nodes = {f"n{i}": int(rng.integers(0, 30)) for i in range(int(rng.integers(1, 7)))}
            if all(v == 0 for v in sellers.values()):
                sellers["s0"] = 1.0
            if all(v == 0 for v in nodes.values()):
                nodes["n0"] = 1
            report = distribute_revenue(bid, sellers, nodes)
            assert sum(report.transfers.values()) == bid
            assert report.node_share == int(Fraction(30, 100) * bid)
            assert all(v >= 0 for v in report.transfers.values())


def fraction_split(total: int, weights: dict) -> dict:
    """Reference split: exact rationals per weight, floor, remainder to lowest id.

    Numpy scalars enter as their Python values: a Fraction built from a
    numpy integer keeps it as its numerator, and that arithmetic wraps at
    64 bits.
    """
    if not weights or all(w == 0 for w in weights.values()):
        raise EmptyContributors("no positive weights to split over")
    if any(w < 0 for w in weights.values()):
        raise ValueError("weights must be non-negative")
    exact = {
        key: Fraction(w.item() if isinstance(w, np.generic) else w)
        for key, w in weights.items()
    }
    scale = sum(exact.values())
    shares = {key: int(total * w / scale) for key, w in exact.items()}
    shares[min(shares)] += total - sum(shares.values())
    return shares


# Integers reach past 2**53, where a float no longer holds them exactly.
WEIGHTS = st.one_of(
    st.integers(0, 10**30),
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    st.integers(0, 2**62).map(np.int64),
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False).map(np.float64),
    st.just(0),
    st.just(0.0),
)


class TestProportionalSplit:
    @given(
        st.integers(1, 10**15),
        st.dictionaries(st.text("abcdefgh", min_size=1, max_size=3), WEIGHTS, min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, total, weights):
        assume(any(w > 0 for w in weights.values()))
        shares = _proportional_split(total, weights)
        assert shares == fraction_split(total, weights)
        assert all(type(v) is int for v in shares.values())

    def test_four_thousand_payees(self):
        rng = rng_from(derive_seed("payees"))
        ints = {f"n{i:04d}": int(rng.integers(0, 40)) for i in range(2000)}
        floats = {f"s{i:04d}": float(rng.uniform(0, 9)) for i in range(2000)}
        wide = {f"w{i:04d}": np.int64(2**60 + i) for i in range(4000)}
        for weights in (ints, floats, {**ints, **floats}, wide):
            for total in (3, 300_000, 10**18 + 7):
                assert _proportional_split(total, weights) == fraction_split(total, weights)

    @pytest.mark.parametrize(
        "weights",
        [{}, {"a": 0}, {"a": 0.0, "b": np.int64(0)}, {"a": 1, "b": -1}, {"a": np.float64(-0.5)},
         {"a": float("nan")}, {"a": float("inf")}],
    )
    def test_errors_match_reference(self, weights):
        with pytest.raises(Exception) as expected:
            fraction_split(100, weights)
        with pytest.raises(expected.type):
            _proportional_split(100, weights)


class TestPayoffs:
    def test_zero_success_prob_equalizes_seller(self):
        p = params_with(success_prob=0.0)
        assert seller_payoff(p, honest=True) == seller_payoff(p, honest=False)

    def test_honest_seller_value(self):
        assert seller_payoff(params_with(), honest=True) == pytest.approx(52.5)

    def test_malicious_seller_value(self):
        # 0.99 * 52.5 + 0.01 * (0.8 * 70 - 10 * 1) = 52.435
        assert seller_payoff(params_with(), honest=False) == pytest.approx(52.435)

    def test_honest_node_constant_in_rounds(self):
        p = params_with(node_pool=300.0, node_count=50)
        values = {node_payoff(p, r, honest=True) for r in range(1, 51)}
        assert values == {6.0}

    def test_collude_exceeds_honest_without_detection(self):
        p = params_with(catch_prob=lambda r: 0.0)
        assert node_payoff(p, 5, honest=False) == pytest.approx(
            node_payoff(p, 5, honest=True) + p.success_prob * p.bribe
        )

    def test_collude_value_with_detection(self):
        p = params_with(node_pool=300.0, node_count=50, catch_prob=lambda r: 0.5)
        assert node_payoff(p, 5, honest=False) == pytest.approx(3.01)
        assert node_payoff(p, 5, honest=True) == pytest.approx(6.0)


class TestSellerHonestyCondition:
    def test_reference_case_holds(self):
        holds, delta = seller_honesty_check(params_with())
        assert holds
        assert delta == pytest.approx(0.01 * (10 * 1 - 0.05 * 70)) == pytest.approx(0.065)

    def test_boundary_holds_with_zero_delta(self):
        # exactly representable: gain 0.25 * 64 = 16 equals cost 8 * 2
        p = params_with(
            quality_honest=0.5, quality_claimed=0.75, seller_pool=64.0, node_count=8, bribe=2.0
        )
        holds, delta = seller_honesty_check(p)
        assert holds and delta == 0.0

    def test_cheap_bribe_fails(self):
        p = params_with(node_count=1, bribe=1.0, quality_honest=0.3, quality_claimed=0.8)
        holds, delta = seller_honesty_check(p)
        assert not holds and delta < 0.0


class TestNodeHonestyCondition:
    def test_reference_case(self):
        p = params_with(node_pool=300.0, node_count=50, catch_prob=lambda r: 0.5)
        holds, delta = node_honesty_check(p, 5)
        assert holds and delta == pytest.approx(2.99)

    def test_no_detection_fails(self):
        p = params_with(catch_prob=lambda r: 0.0)
        holds, delta = node_honesty_check(p, 5)
        assert not holds and delta < 0.0

    def test_zero_success_prob_always_holds(self):
        p = params_with(success_prob=0.0, catch_prob=lambda r: 0.0)
        holds, _ = node_honesty_check(p, 1)
        assert holds


class TestEquilibriumCondition:
    def test_reference_window(self):
        p = params_with(node_pool=300.0, node_count=10, catch_prob=lambda r: 0.5)
        holds, window = honesty_equilibrium_check(p, 5)
        assert holds
        low, high = window
        assert low == pytest.approx(0.05 * 70 / 10) == pytest.approx(0.35)
        assert high == pytest.approx(0.5 * 300 / (0.01 * 10)) == pytest.approx(1500.0)

    def test_zero_success_prob_trivially_holds(self):
        holds, window = honesty_equilibrium_check(params_with(success_prob=0.0), 3)
        assert holds and window[1] == float("inf")

    def test_no_detection_fails(self):
        holds, window = honesty_equilibrium_check(
            params_with(catch_prob=lambda r: 0.0), 3
        )
        assert not holds and window is None

    def test_window_nonempty_iff_holds(self):
        rng = rng_from(derive_seed("window"))
        for _ in range(3000):
            q = float(rng.uniform(0, 1))
            p = params_with(
                seller_pool=float(rng.uniform(1, 500)),
                node_pool=float(rng.uniform(1, 500)),
                node_count=int(rng.integers(1, 80)),
                bribe=float(rng.uniform(0, 5)),
                quality_honest=q,
                quality_claimed=q + float(rng.uniform(0, 1 - q)),
                success_prob=float(rng.uniform(0.0001, 0.5)),
                catch_prob=geometric_catch_prob(float(rng.uniform(0, 1))),
            )
            rounds = int(rng.integers(1, 20))
            holds, window = honesty_equilibrium_check(p, rounds)
            if holds:
                low, high = window
                assert low <= high + 1e-12
            else:
                assert window is None


class TestSignAgreement:
    def test_deltas_match_direct_payoff_comparisons(self):
        rng = rng_from(derive_seed("sign"))
        for _ in range(3000):
            q = float(rng.uniform(0, 1))
            p = params_with(
                seller_pool=float(rng.uniform(1, 1000)),
                node_pool=float(rng.uniform(1, 1000)),
                node_count=int(rng.integers(1, 100)),
                bribe=float(rng.uniform(0, 10)),
                quality_honest=q,
                quality_claimed=q + float(rng.uniform(0, 1 - q)),
                success_prob=float(rng.uniform(0, 0.5)),
                catch_prob=geometric_catch_prob(float(rng.uniform(0, 1))),
            )
            rounds = int(rng.integers(1, 30))
            _, seller_delta = seller_honesty_check(p)
            _, node_delta = node_honesty_check(p, rounds)
            direct_seller = seller_payoff(p, True) - seller_payoff(p, False)
            direct_node = node_payoff(p, rounds, True) - node_payoff(p, rounds, False)
            assert np.sign(seller_delta) == np.sign(direct_seller) or (
                abs(seller_delta) < 1e-9 and abs(direct_seller) < 1e-9
            )
            assert np.sign(node_delta) == np.sign(direct_node) or (
                abs(node_delta) < 1e-9 and abs(direct_node) < 1e-9
            )


class TestCatchProbability:
    def test_geometric_monotone_from_zero(self):
        f = geometric_catch_prob(0.3)
        values = [f(r) for r in range(1, 20)]
        assert values[0] == 0.0
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_geometric_bounds_validated(self):
        with pytest.raises(ValueError):
            geometric_catch_prob(1.5)


class TestAnalyzeReport:
    def test_report_consistency(self):
        p = params_with(node_pool=300.0, node_count=10, catch_prob=lambda r: 0.5)
        report = analyze_payoffs(p, rounds=5)
        assert report.u_seller_honest == seller_payoff(p, True)
        assert report.u_node_collude == node_payoff(p, 5, False)
        assert report.equilibrium_holds and report.bribe_window is not None
        payload = report.to_dict()
        assert payload["rounds"] == 5 and payload["bribe_window"][0] == pytest.approx(0.35)


class TestSelectionAccounting:
    def test_expected_selections_match_closed_form(self):
        # sum over rounds of committee size equals the closed form exactly
        for s0 in (1, 4, 5):
            for r in range(1, 15):
                seats = sum(execution_set_size(i, s0) for i in range(1, r + 1))
                assert seats == total_executions(r, s0)
