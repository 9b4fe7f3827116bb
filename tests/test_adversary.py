"""Byzantine node and seller behaviours."""

import numpy as np
import pytest

from conftest import quick_scenario
from datamarket.adversary import (
    NODE_STRATEGIES,
    AdversaryConfig,
    assign_roles,
    byzantine_node_digest,
    committee_forgery,
    lone_forgery,
    malicious_seller_shard,
    malicious_seller_update,
    poisoned_state,
)
from datamarket.consensus import sortition
from datamarket.errors import EmptyShard
from datamarket.harness import Market
from datamarket.rng import derive_seed, rng_from
from datamarket.training import (
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    init_weights,
    local_update,
    state_digest,
)

NODES, SELLERS = 50, 40


SEED = derive_seed("adv")


def nodes(strategy, strength=0.5):
    return AdversaryConfig(node_strategy=strategy, poison_strength=strength)


def sellers(strategy, **kw):
    return AdversaryConfig(seller_strategy=strategy, **kw)


def shard(rows=40, dims=4, classes=2, seed="shard"):
    rng = rng_from(derive_seed(seed))
    labels = rng.integers(0, classes, size=rows)
    features = rng.normal(size=(rows, dims)) + labels[:, None]
    return LabeledDataset(features, labels, classes)


class TestAssignRoles:
    def test_zero_fraction_empty(self):
        nodes, sellers = assign_roles(NODES, SELLERS, AdversaryConfig(), SEED)
        assert nodes.dtype == sellers.dtype == bool
        assert nodes.shape == (NODES,) and sellers.shape == (SELLERS,)
        assert not nodes.any() and not sellers.any()

    def test_floor_of_fraction(self):
        nodes, sellers = assign_roles(
            NODES, SELLERS, AdversaryConfig(node_fraction=0.3, seller_fraction=0.33), SEED
        )
        assert nodes.sum() == 15  # 30% of 50
        assert sellers.sum() == 13  # floor(0.33 * 40)
        # the marked indices are the seeded sortition draw
        drawn = sortition(derive_seed(SEED, "sellers"), SELLERS, 13)
        assert np.flatnonzero(sellers).tolist() == sorted(drawn.tolist())

    def test_deterministic_in_seed(self):
        config = AdversaryConfig(node_fraction=0.2, seller_fraction=0.5)
        first = assign_roles(NODES, SELLERS, config, SEED)
        second = assign_roles(NODES, SELLERS, config, SEED)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_members_come_from_population(self):
        nodes, sellers = assign_roles(
            NODES, SELLERS, AdversaryConfig(node_fraction=1.0, seller_fraction=1.0), SEED
        )
        assert nodes.all() and sellers.all()


def adopted(state):
    return state, state_digest(*state)


HONEST = adopted(
    (init_weights(ModelSpec(4, 2), derive_seed("honest-w")), np.array([0.5, 0.5]), np.array([1, 2]))
)
PREV = adopted(poisoned_state(*HONEST[0], derive_seed("prev"), strength=1.0))
POISON = adopted(poisoned_state(*HONEST[0], derive_seed("byz"), strength=0.5))


class TestNodeDigests:
    def test_random_digests_differ_between_nodes(self):
        a = byzantine_node_digest(nodes("random-digest"), derive_seed("a"))
        b = byzantine_node_digest(nodes("random-digest"), derive_seed("b"))
        assert a != b and HONEST[1] not in (a, b) and len(a) == 32

    def test_stale_without_history_falls_back_to_random(self):
        assert committee_forgery(nodes("stale-digest"), HONEST[0], None, SEED) is None
        out = byzantine_node_digest(nodes("stale-digest"), derive_seed("y"))
        assert out != HONEST[1] and len(out) == 32
        assert out != byzantine_node_digest(nodes("random-digest"), derive_seed("y"))

    def test_colluders_have_no_per_node_digest(self):
        with pytest.raises(ValueError):
            byzantine_node_digest(nodes("colluding-common-digest"), derive_seed("x"))


class TestCommitteeForgery:
    @pytest.mark.parametrize("strategy", NODE_STRATEGIES)
    @pytest.mark.parametrize("prev", [None, PREV])
    def test_per_strategy(self, strategy, prev):
        forged = committee_forgery(nodes(strategy), HONEST[0], prev, derive_seed("byz"))
        expected = {
            "random-digest": None,
            "stale-digest": prev,
            "colluding-common-digest": POISON,
        }[strategy]
        if expected is None:
            assert forged is None
        else:
            assert forged[1] == expected[1] != HONEST[1]
            assert state_digest(*forged[0]) == forged[1]  # the forgery is revealable

    def test_colluding_forgery_is_seeded(self):
        colluding = nodes("colluding-common-digest")
        a = committee_forgery(colluding, HONEST[0], None, derive_seed("a"))
        b = committee_forgery(colluding, HONEST[0], None, derive_seed("b"))
        assert a[1] != b[1]

    def test_strength_comes_from_config(self):
        colluding = nodes("colluding-common-digest", strength=3.0)
        forged = committee_forgery(colluding, HONEST[0], None, derive_seed("byz"))
        assert forged[1] == state_digest(*poisoned_state(*HONEST[0], derive_seed("byz"), 3.0))
        assert forged[1] != POISON[1]


class TestLoneForgery:
    @pytest.mark.parametrize("strategy", NODE_STRATEGIES)
    @pytest.mark.parametrize("prev", [None, PREV])
    def test_per_strategy(self, strategy, prev):
        forged = lone_forgery(nodes(strategy), HONEST[0], prev, derive_seed("byz"))
        # a lone executor always hands back a revealable state that is not the honest one
        expected = prev if strategy == "stale-digest" and prev is not None else POISON
        assert forged[1] == expected[1] != HONEST[1]
        assert state_digest(*forged[0]) == forged[1]


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
        self.train = TrainConfig()

    def update(self, config, shard=None):
        """Train the seller's adversarial shard, then transform the update, as a round does."""
        shard = malicious_seller_shard(config, self.shard if shard is None else shard)
        train = self.train
        trained = local_update(
            self.w, shard, epochs=train.epochs, lr=train.lr, batch=train.batch, seed=self.seed
        )
        return malicious_seller_update(config, trained, self.seed)

    def test_scale_factor_one_is_honest(self):
        honest = local_update(self.w, self.shard, seed=self.seed)
        out = self.update(sellers("scaled-gradient", scale_factor=1.0))
        assert np.array_equal(out, honest)

    def test_scale_factor_multiplies(self):
        honest = local_update(self.w, self.shard, seed=self.seed)
        out = self.update(sellers("scaled-gradient", scale_factor=-10.0))
        assert np.allclose(out, -10.0 * honest)

    def test_train_config_sets_the_update(self):
        train = TrainConfig(epochs=1, lr=0.5, batch=8)
        adversary = AdversaryConfig(seller_fraction=1.0)
        market = Market.standalone(quick_scenario(train=train, adversary=adversary))
        w = market.initial_state()[0]
        honest = local_update(w, market.shards[3], epochs=1, lr=0.5, batch=8, seed=self.seed)
        out = market.local_deltas([3], w.values, [self.seed])
        assert np.array_equal(out, [adversary.scale_factor * honest])

    def test_label_flip_on_two_classes_inverts(self):
        flipped_shard = LabeledDataset(
            self.shard.features, 1 - self.shard.labels, self.shard.class_count
        )
        expected = local_update(self.w, flipped_shard, seed=self.seed)
        out = self.update(sellers("label-flip"))
        assert np.array_equal(out, expected)

    def test_random_gradient_defaults_to_honest_norm(self):
        honest = local_update(self.w, self.shard, seed=self.seed)
        out = self.update(sellers("random-gradient"))
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(honest))
        assert not np.array_equal(out, honest)

    def test_empty_shard_rejected(self):
        empty = LabeledDataset(np.empty((0, 4)), np.empty(0, dtype=int), 2)
        with pytest.raises(EmptyShard):
            self.update(sellers("label-flip"), empty)

    def test_strategies_deterministic(self):
        for strategy in ("label-flip", "random-gradient", "scaled-gradient"):
            a = self.update(sellers(strategy))
            b = self.update(sellers(strategy))
            assert np.array_equal(a, b)


class TestConfigValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            AdversaryConfig(node_fraction=1.5)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            AdversaryConfig(node_strategy="bribe-everyone")
