"""Byzantine node and seller behaviours."""

import numpy as np
import pytest

from datamarket.adversary import (
    NODE_STRATEGIES,
    AdversaryConfig,
    RoundContext,
    assign_roles,
    byzantine_node_digest,
    malicious_seller_update,
    poisoned_state,
    shared_forgery,
)
from datamarket.errors import EmptyShard
from datamarket.rng import derive_seed, rng_from
from datamarket.training import (
    LabeledDataset,
    ModelSpec,
    init_weights,
    local_update,
    state_digest,
)

NODES = [f"n{i}" for i in range(50)]
SELLERS = list(range(40))


SEED = derive_seed("adv")


def shard(rows=40, dims=4, classes=2, seed="shard"):
    rng = rng_from(derive_seed(seed))
    labels = rng.integers(0, classes, size=rows)
    features = rng.normal(size=(rows, dims)) + labels[:, None]
    return LabeledDataset(features, labels, classes)


class TestAssignRoles:
    def test_zero_fraction_empty(self):
        nodes, sellers = assign_roles(NODES, SELLERS, AdversaryConfig(), SEED)
        assert nodes == frozenset() and sellers == frozenset()

    def test_floor_of_fraction(self):
        nodes, sellers = assign_roles(
            NODES, SELLERS, AdversaryConfig(node_fraction=0.3, seller_fraction=0.33), SEED
        )
        assert len(nodes) == 15  # 30% of 50
        assert len(sellers) == 13  # floor(0.33 * 40)

    def test_deterministic_in_seed(self):
        config = AdversaryConfig(node_fraction=0.2, seller_fraction=0.5)
        assert assign_roles(NODES, SELLERS, config, SEED) == assign_roles(
            NODES, SELLERS, config, SEED
        )

    def test_members_come_from_population(self):
        nodes, sellers = assign_roles(
            NODES, SELLERS, AdversaryConfig(node_fraction=1.0, seller_fraction=1.0), SEED
        )
        assert nodes == frozenset(NODES) and sellers == frozenset(SELLERS)


class TestNodeDigests:
    HONEST = derive_seed("honest-digest")

    def test_colluders_share_one_digest(self):
        ctx = RoundContext(colluding_digest=derive_seed("shared-wrong"))
        digests = {
            byzantine_node_digest(
                "colluding-common-digest", self.HONEST, ctx, derive_seed("node", i)
            )
            for i in range(10)
        }
        assert digests == {ctx.colluding_digest}

    def test_random_digests_differ_between_nodes(self):
        a = byzantine_node_digest("random-digest", self.HONEST, RoundContext(), derive_seed("a"))
        b = byzantine_node_digest("random-digest", self.HONEST, RoundContext(), derive_seed("b"))
        assert a != b and a != self.HONEST

    def test_stale_uses_previous_round(self):
        prev = derive_seed("prev")
        ctx = RoundContext(prev_digest=prev)
        assert byzantine_node_digest("stale-digest", self.HONEST, ctx, derive_seed("x")) == prev

    def test_stale_without_history_falls_back_to_random(self):
        out = byzantine_node_digest("stale-digest", self.HONEST, RoundContext(), derive_seed("y"))
        assert out != self.HONEST and len(out) == 32


class TestSharedForgery:
    HONEST = derive_seed("honest-digest")

    @pytest.mark.parametrize("strategy", NODE_STRATEGIES)
    @pytest.mark.parametrize("prev", [None, derive_seed("prev")])
    @pytest.mark.parametrize("colluding", [None, derive_seed("colluding")])
    def test_agrees_with_node_digest(self, strategy, prev, colluding):
        ctx = RoundContext(prev_digest=prev, colluding_digest=colluding)
        shared = shared_forgery(strategy, ctx)
        digests = [
            byzantine_node_digest(strategy, self.HONEST, ctx, derive_seed("node", i))
            for i in range(5)
        ]
        if shared is not None:
            assert digests == [shared] * 5
        else:
            assert len(set(digests)) == 5 and self.HONEST not in digests
        expected = {
            "random-digest": None,
            "stale-digest": prev,
            "colluding-common-digest": colluding,
        }[strategy]
        assert shared == expected

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            shared_forgery("withhold", RoundContext())
        with pytest.raises(ValueError):
            byzantine_node_digest("withhold", self.HONEST, RoundContext(), derive_seed("z"))


class TestPoisonedState:
    def test_digest_differs_but_bookkeeping_kept(self):
        spec = ModelSpec(4, 2)
        w = init_weights(spec, derive_seed("w"))
        p = np.array([0.5, 0.5])
        counts = np.array([1, 2], dtype=np.int64)
        pw, pp, pc = poisoned_state(w, p, counts, derive_seed("poison"), strength=0.5)
        assert state_digest(pw, pp, pc) != state_digest(w, p, counts)
        assert np.array_equal(pp, p) and np.array_equal(pc, counts)
        assert np.linalg.norm(pw.values - w.values) == pytest.approx(
            0.5 * (1.0 + np.linalg.norm(w.values))
        )


class TestSellerStrategies:
    def setup_method(self):
        self.spec = ModelSpec(4, 2)
        self.w = init_weights(self.spec, derive_seed("sw"))
        self.shard = shard()
        self.seed = derive_seed("seller-seed")

    def test_scale_factor_one_is_honest(self):
        honest = local_update(self.w, self.shard, seed=self.seed)
        out = malicious_seller_update(
            "scaled-gradient", self.w, self.shard, self.seed, scale_factor=1.0
        )
        assert np.array_equal(out, honest)

    def test_scale_factor_multiplies(self):
        honest = local_update(self.w, self.shard, seed=self.seed)
        out = malicious_seller_update(
            "scaled-gradient", self.w, self.shard, self.seed, scale_factor=-10.0
        )
        assert np.allclose(out, -10.0 * honest)

    def test_label_flip_on_two_classes_inverts(self):
        flipped_shard = LabeledDataset(
            self.shard.features, 1 - self.shard.labels, self.shard.class_count
        )
        expected = local_update(self.w, flipped_shard, seed=self.seed)
        out = malicious_seller_update("label-flip", self.w, self.shard, self.seed)
        assert np.array_equal(out, expected)

    def test_random_gradient_matches_configured_norm(self):
        out = malicious_seller_update(
            "random-gradient", self.w, self.shard, self.seed, target_norm=2.5
        )
        assert abs(np.linalg.norm(out) - 2.5) < 1e-9

    def test_random_gradient_defaults_to_honest_norm(self):
        honest = local_update(self.w, self.shard, seed=self.seed)
        out = malicious_seller_update("random-gradient", self.w, self.shard, self.seed)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(honest))
        assert not np.array_equal(out, honest)

    def test_empty_shard_rejected(self):
        empty = LabeledDataset(np.empty((0, 4)), np.empty(0, dtype=int), 2)
        with pytest.raises(EmptyShard):
            malicious_seller_update("label-flip", self.w, empty, self.seed)

    def test_strategies_deterministic(self):
        for strategy in ("label-flip", "random-gradient", "scaled-gradient"):
            a = malicious_seller_update(strategy, self.w, self.shard, self.seed)
            b = malicious_seller_update(strategy, self.w, self.shard, self.seed)
            assert np.array_equal(a, b)


class TestConfigValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            AdversaryConfig(node_fraction=1.5)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            AdversaryConfig(node_strategy="bribe-everyone")
