import dataclasses

import numpy as np
import pytest

from buffers import loss_buffers
from oracles import (
    central_difference_grads,
    gce_reference,
    grid_max_instance_loss,
    max_relative_error,
    softmax_reference,
)
from sphash.data import one_hot
from sphash.encoder import init_centers
from sphash.errors import ParameterError
from sphash.losses import (
    BatchCodes,
    LossConfig,
    _instance_softmax,
    cal_loss,
    center_probs,
    chl_loss,
    gce_terms,
    nsh_loss,
    per_instance_loss,
    total_loss,
)
from sphash.pacer import SampleWeights

# frozen from the scalar formula: q = e^1.62 / (e^1.62 + e^-1.62)
Q_TWO_POINT_CASE = 0.9623121094913941


def random_batch(rng, b=4, m=2, length=5, k=3, scale=0.95):
    codes = [rng.uniform(-scale, scale, (b, length)) for _ in range(m)]
    labels = one_hot(rng.integers(0, k, b), k)
    return BatchCodes(np.concatenate(codes), labels)


def instance_prob(batch, i, m, cfg):
    """q of modality m's code of instance i, as chl_loss reads it from the softmax."""
    _, q, _ = _instance_softmax(batch, cfg, loss_buffers(batch))
    return float(q[m * batch.batch_size + i])


def center_prob(code, centers, k, cfg):
    return float(center_probs(code, centers, cfg.tau)[0, k])


def aggregation_prob(code, centers, label_row, cfg):
    """v = y . p read back from per_instance_loss: at r = 1 its one term is 1 - v."""
    batch = BatchCodes(np.atleast_2d(code), np.atleast_2d(label_row))
    return 1.0 - float(per_instance_loss(batch, centers, dataclasses.replace(cfg, r=1.0))[0])


def code_grad_check(fn, batch, tolerance=1e-4):
    """fn(BatchCodes) -> (value, grads); compare against central differences."""
    _, analytic = fn(batch)
    numeric = central_difference_grads(
        lambda: fn(batch)[0], batch.codes, step=1e-4
    )
    assert max_relative_error(analytic, numeric) < tolerance


class TestBatchCodes:
    def test_modality_blocks_are_views_of_the_stacked_matrix(self):
        batch = BatchCodes(np.arange(12.0).reshape(6, 2), np.eye(2, dtype=np.uint8))
        assert (batch.batch_size, batch.n_modalities) == (2, 3)
        assert all(np.shares_memory(codes, batch.stacked) for codes in batch.codes)
        assert batch.codes[1].tolist() == [[4.0, 5.0], [6.0, 7.0]]

    @pytest.mark.parametrize("rows, labels", [
        (5, np.eye(2)), (0, np.eye(2)), (0, np.zeros((0, 2))), (2, np.ones(2)),
    ])
    def test_rows_not_a_positive_multiple_of_the_label_rows(self, rows, labels):
        with pytest.raises(ParameterError, match="not a positive multiple"):
            BatchCodes(np.zeros((rows, 3)), labels)


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            LossConfig(tau=0.0)
        with pytest.raises(ParameterError):
            LossConfig(r=0.0)
        with pytest.raises(ParameterError):
            LossConfig(r=1.5)
        with pytest.raises(ParameterError):
            LossConfig(alpha=-0.1)
        for value in ("nan", "inf"):
            with pytest.raises(ParameterError):
                LossConfig(tau=float(value))
            with pytest.raises(ParameterError):
                LossConfig(alpha=float(value))


class TestGceTransform:
    def test_r_one_is_exactly_one_minus_p(self):
        p = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(gce_terms(p, 1.0), 1.0 - p)

    def test_small_r_approaches_negative_log(self):
        p = np.linspace(0.1, 1.0, 50)
        g = gce_terms(p, 1e-3)
        assert (np.abs(g + np.log(p)) <= 0.01 * np.abs(np.log(p))).all()

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, 100)
        for r in (0.1, 0.5, 0.9, 1.0):
            assert np.allclose(gce_terms(p, r), gce_reference(p, r), atol=1e-12)

    def test_zero_at_one_and_max_at_zero(self):
        for r in (0.1, 0.5, 1.0):
            assert gce_terms(np.array(1.0), r) == 0.0
            assert np.isclose(gce_terms(np.array(0.0), r), (r * r - r + 1.0) / r)


class TestInstanceProb:
    def test_single_element_batch_is_one(self):
        batch = BatchCodes(np.array([[0.5, -0.3]]), np.array([[1]]))
        assert instance_prob(batch, 0, 0, LossConfig()) == 1.0

    def test_two_point_scalar_case(self):
        batch = BatchCodes(
            np.array([[0.9, 0.9], [-0.9, -0.9]]), np.eye(2, dtype=np.uint8)
        )
        q = instance_prob(batch, 0, 0, LossConfig(tau=1.0))
        expected = np.exp(1.62) / (np.exp(1.62) + np.exp(-1.62))
        assert np.isclose(q, expected, atol=1e-12)
        assert np.isclose(q, Q_TWO_POINT_CASE, atol=1e-12)

    def test_softmax_components_sum_to_one(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng, b=5, m=3, length=4)
        p, q, _ = _instance_softmax(batch, LossConfig(), loss_buffers(batch))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6
        assert (q > 0).all() and (q <= 1).all()

    def test_stable_under_huge_logits(self):
        # logits up to 1e4 in magnitude: tau=1e-3 with codes near +-1
        codes = [np.array([[1.0] * 10, [-1.0] * 10])]
        batch = BatchCodes(np.concatenate(codes), np.eye(2, dtype=np.uint8))
        q = instance_prob(batch, 0, 0, LossConfig(tau=1e-3))
        assert np.isfinite(q) and 0.0 <= q <= 1.0


class TestChlLoss:
    def test_zero_when_match_probability_is_one(self):
        # one instance, identical codes across modalities: q = 1 for every view
        code = np.array([[0.4, -0.7, 0.2]])
        batch = BatchCodes(np.concatenate([code, code, code]), np.array([[1]]))
        value, grads = chl_loss(batch, LossConfig(), loss_buffers(batch))
        assert value == 0.0

    def test_r_one_reduces_to_one_minus_q(self):
        rng = np.random.default_rng(3)
        batch = random_batch(rng, b=3, m=2, length=4)
        cfg = LossConfig(r=1.0)
        value, _ = chl_loss(batch, cfg, loss_buffers(batch))
        expected = 0.0
        for m in range(2):
            for i in range(3):
                expected += 1.0 - instance_prob(batch, i, m, cfg)
        assert np.isclose(value, expected / 3, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, b=3, m=2, length=4)
        code_grad_check(lambda b: chl_loss(b, LossConfig(tau=0.7, r=0.5), loss_buffers(b)), batch)

    def test_gradients_flow_to_negatives(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, b=4, m=2, length=3)
        _, grads = chl_loss(batch, LossConfig(), loss_buffers(batch))
        # every batch row receives gradient through the shared denominator
        for g in grads:
            assert (np.abs(g).sum(axis=1) > 0).all()

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(24)
        batch = random_batch(rng, b=6, m=2, length=4)
        value, _ = chl_loss(batch, LossConfig(), loss_buffers(batch))
        perm = rng.permutation(6)
        shuffled = BatchCodes(np.concatenate([c[perm] for c in batch.codes]), batch.labels[perm])
        value_p, _ = chl_loss(shuffled, LossConfig(), loss_buffers(shuffled))
        assert np.isclose(value, value_p, atol=1e-12)


class TestCenterProb:
    def test_uniform_for_zero_code(self):
        centers = init_centers(4, 6, seed=0)
        cfg = LossConfig()
        probs = [center_prob(np.zeros(6), centers, k, cfg) for k in range(4)]
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_two_center_scalar_case(self):
        # logits (1, 0): p = e / (e + 1)
        centers = np.array([[1, 1], [1, -1]], dtype=np.int8)
        code = np.array([0.25, 0.25])
        p = center_prob(code, centers, 0, LossConfig(tau=0.5))
        assert np.isclose(p, np.e / (np.e + 1.0), atol=1e-12)

    def test_matches_reference_softmax(self):
        rng = np.random.default_rng(6)
        centers = init_centers(5, 8, seed=1)
        code = rng.uniform(-1, 1, 8)
        cfg = LossConfig(tau=0.3)
        expected = softmax_reference(code @ centers.T.astype(float) / 0.3)
        got = [center_prob(code, centers, k, cfg) for k in range(5)]
        assert np.allclose(got, expected, atol=1e-12)

    def test_normalization_under_adversarial_logits(self):
        centers = init_centers(6, 16, seed=2)
        code = np.full(16, 625.0)  # |code.center| = 16 * 625 = 1e4 at tau = 1
        probs = center_probs(code, centers, tau=1.0)
        assert np.isfinite(probs).all()
        assert abs(probs.sum() - 1.0) < 1e-6


class TestAggregationProb:
    def test_one_hot_selects_component(self):
        centers = init_centers(3, 8, seed=3)
        code = np.random.default_rng(7).uniform(-1, 1, 8)
        cfg = LossConfig()
        p = [center_prob(code, centers, k, cfg) for k in range(3)]
        v = aggregation_prob(code, centers, np.array([0, 1, 0]), cfg)
        assert np.isclose(v, p[1], atol=1e-12)

    def test_multi_hot_is_dot_product_with_reference_p(self):
        centers = init_centers(3, 8, seed=4)
        code = np.random.default_rng(8).uniform(-1, 1, 8)
        cfg = LossConfig(tau=0.4)
        p_ref = softmax_reference(code @ centers.T.astype(float) / 0.4)
        v = aggregation_prob(code, centers, np.array([1, 1, 0]), cfg)
        assert np.isclose(v, p_ref[0] + p_ref[1], atol=1e-12)
        # and the arithmetic of the definition: y . p
        assert np.isclose(np.dot([1, 1, 0], [0.2, 0.3, 0.5]), 0.5)

    def test_all_ones_label_gives_exactly_one(self):
        centers = init_centers(4, 6, seed=5)
        code = np.random.default_rng(9).uniform(-1, 1, 6)
        v = aggregation_prob(code, centers, np.ones(4), LossConfig())
        assert np.isclose(v, 1.0, atol=1e-9)

    def test_empty_label_row_rejected(self):
        centers = init_centers(3, 4, seed=6)
        batch = BatchCodes(np.zeros((1, 4)), np.zeros((1, 3)))
        with pytest.raises(ParameterError, match="label row has no class"):
            per_instance_loss(batch, centers, LossConfig())


class TestPerInstanceLoss:
    def test_zero_when_aggregation_is_one(self):
        # huge code pushed exactly onto a center: every other class underflows
        centers = init_centers(3, 16, seed=7)
        code = centers[1].astype(np.float64) * 1e4
        batch = BatchCodes(
            np.concatenate([code[None, :], code[None, :]]), np.array([[0, 1, 0]])
        )
        losses = per_instance_loss(batch, centers, LossConfig())
        assert losses[0] == 0.0

    def test_worst_case_value_and_grid_maximum(self):
        # v = 0 in both modalities at M=2, r=0.5 gives the bound 3.0
        assert np.isclose(2 * float(gce_terms(np.array(0.0), 0.5)), 3.0)
        assert np.isclose(grid_max_instance_loss(2, 0.5), 3.0, atol=1e-9)

    def test_single_modality_r_one(self):
        assert np.isclose(float(gce_terms(np.array(0.4), 1.0)), 0.6)

    def test_bounds_hold_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for r in (0.1, 0.5, 1.0):
            for m in (1, 2, 3):
                cfg = LossConfig(r=r)
                codes = [rng.uniform(-1, 1, (8, 6)) * rng.uniform(0, 100) for _ in range(m)]
                labels = one_hot(rng.integers(0, 4, 8), 4)
                batch = BatchCodes(np.concatenate(codes), labels)
                centers = init_centers(4, 6, seed=int(rng.integers(0, 100)))
                losses = per_instance_loss(batch, centers, cfg)
                upper = m * (r * r - r + 1.0) / r
                assert (losses >= 0.0).all()
                assert (losses <= upper + 1e-9).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, b=6, m=2, length=5, k=4)
        centers = init_centers(4, 5, seed=8)
        cfg = LossConfig()
        base = per_instance_loss(batch, centers, cfg)
        perm = rng.permutation(6)
        shuffled = BatchCodes(np.concatenate([c[perm] for c in batch.codes]), batch.labels[perm])
        assert np.allclose(per_instance_loss(shuffled, centers, cfg), base[perm], atol=1e-12)


class TestCalLoss:
    def test_zero_at_perfect_aggregation(self):
        centers = init_centers(3, 16, seed=9)
        codes = centers[[0, 2]].astype(np.float64) * 1e4
        batch = BatchCodes(np.concatenate([codes, codes]), one_hot(np.array([0, 2]), 3))
        value, _ = cal_loss(batch, centers, LossConfig(), loss_buffers(batch).grads)
        assert value == 0.0

    def test_equals_mean_of_per_instance(self):
        rng = np.random.default_rng(12)
        batch = random_batch(rng, b=5, m=3, length=4, k=3)
        centers = init_centers(3, 4, seed=10)
        cfg = LossConfig(r=0.7)
        value, _ = cal_loss(batch, centers, cfg, loss_buffers(batch).grads)
        assert np.isclose(value, per_instance_loss(batch, centers, cfg).mean(), atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, b=4, m=2, length=5, k=3)
        centers = init_centers(3, 5, seed=11)
        cfg = LossConfig(tau=0.6, r=0.5)
        code_grad_check(lambda b: cal_loss(b, centers, cfg, loss_buffers(b).grads), batch)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(14)
        batch = random_batch(rng, b=6, m=2, length=4, k=3)
        centers = init_centers(3, 4, seed=12)
        value, _ = cal_loss(batch, centers, LossConfig(), loss_buffers(batch).grads)
        perm = rng.permutation(6)
        shuffled = BatchCodes(np.concatenate([c[perm] for c in batch.codes]), batch.labels[perm])
        value_p, _ = cal_loss(shuffled, centers, LossConfig(), loss_buffers(shuffled).grads)
        assert np.isclose(value, value_p, atol=1e-12)


class TestNshLoss:
    def test_zero_weights_give_zero_loss(self):
        rng = np.random.default_rng(15)
        batch = random_batch(rng, b=4, m=2, length=4, k=3)
        centers = init_centers(3, 4, seed=13)
        weights = SampleWeights(np.zeros(4), gamma=1.0)
        value, grads = nsh_loss(batch, centers, weights, LossConfig(), loss_buffers(batch).grads)
        assert value == 0.0
        assert all(not g.any() for g in grads)

    def test_unit_weights_identity(self):
        rng = np.random.default_rng(16)
        batch = random_batch(rng, b=5, m=2, length=4, k=3)
        centers = init_centers(3, 4, seed=14)
        cfg = LossConfig()
        gamma = 1.3
        cal_value, cal_grads = cal_loss(batch, centers, cfg, loss_buffers(batch).grads)
        nsh_value, nsh_grads = nsh_loss(
            batch, centers, SampleWeights(np.ones(5), gamma), cfg, loss_buffers(batch).grads
        )
        assert np.isclose(nsh_value, cal_value - gamma / 2.0, atol=1e-12)
        for a, b in zip(cal_grads, nsh_grads):
            assert np.allclose(a, b, atol=1e-12)

    def test_gradients_with_mixed_weights(self):
        rng = np.random.default_rng(17)
        batch = random_batch(rng, b=4, m=2, length=4, k=3)
        centers = init_centers(3, 4, seed=15)
        weights = SampleWeights(np.array([0.0, 0.25, 0.75, 1.0]), gamma=0.9)
        code_grad_check(
            lambda b: nsh_loss(b, centers, weights, LossConfig(), loss_buffers(b).grads), batch
        )

    def test_weight_validation(self):
        rng = np.random.default_rng(18)
        batch = random_batch(rng, b=3, m=2, length=4, k=3)
        centers = init_centers(3, 4, seed=16)
        good = SampleWeights(np.ones(3), gamma=1.0)
        good.values[0] = 1.5  # mutate after construction
        with pytest.raises(ParameterError):
            nsh_loss(batch, centers, good, LossConfig(), loss_buffers(batch).grads)
        with pytest.raises(ParameterError, match="5 weights for batch of 3"):
            nsh_loss(batch, centers, SampleWeights(np.ones(5), 1.0), LossConfig(),
                     loss_buffers(batch).grads)


def objective(parts, cfg):
    """(value, code grads) of center + alpha * contrastive from total_loss's parts."""
    center, contrastive, grads = parts
    return center + cfg.alpha * (contrastive or 0.0), grads


class TestTotalLoss:
    def test_alpha_zero_degenerates(self):
        rng = np.random.default_rng(19)
        batch = random_batch(rng, b=4, m=2, length=4, k=3)
        centers = init_centers(3, 4, seed=17)
        cfg = LossConfig(alpha=0.0)
        warm, contrastive, _ = total_loss(batch, centers, None, cfg, loss_buffers(batch))
        assert contrastive is None
        assert warm == cal_loss(batch, centers, cfg, loss_buffers(batch).grads)[0]
        weights = SampleWeights(np.full(4, 0.5), gamma=1.1)
        paced, contrastive, _ = total_loss(batch, centers, weights, cfg, loss_buffers(batch))
        assert contrastive is None
        assert paced == nsh_loss(batch, centers, weights, cfg, loss_buffers(batch).grads)[0]

    def test_parts_are_the_phase_kernels(self):
        rng = np.random.default_rng(24)
        batch = random_batch(rng, b=4, m=2, length=4, k=3)
        centers = init_centers(3, 4, seed=22)
        cfg = LossConfig(alpha=0.3)
        weights = SampleWeights(np.array([0.0, 0.4, 1.0, 0.7]), gamma=1.2)
        contrastive, c_grads = chl_loss(batch, cfg, loss_buffers(batch))
        for phase_weights, (center, grads) in (
            (None, cal_loss(batch, centers, cfg, loss_buffers(batch).grads)),
            (weights, nsh_loss(batch, centers, weights, cfg, loss_buffers(batch).grads)),
        ):
            parts = total_loss(batch, centers, phase_weights, cfg, loss_buffers(batch))
            assert parts[:2] == (center, contrastive)
            for got, g, cg in zip(parts[2], grads, c_grads):
                assert got.tobytes() == (g + cfg.alpha * cg).tobytes()

    def test_scores_the_batch_whatever_its_buffers_held(self):
        # the buffers are scratch: values left in them, another batch's codes
        # among them, change no bit of a value or a code gradient
        rng = np.random.default_rng(25)
        batch = random_batch(rng, b=4, m=2, length=5, k=3)
        centers = init_centers(3, 5, seed=23)
        cfg = LossConfig(alpha=0.3)
        weights = SampleWeights(np.array([0.0, 0.4, 1.0, 0.7]), gamma=1.2)

        def stale_buffers():
            buffers = loss_buffers(batch)
            for array in vars(buffers).values():
                array[...] = rng.uniform(-1.0, 1.0, array.shape)
            return buffers

        for score in (
            lambda buffers: chl_loss(batch, cfg, buffers),
            lambda buffers: objective(total_loss(batch, centers, None, cfg, buffers), cfg),
            lambda buffers: objective(total_loss(batch, centers, weights, cfg, buffers), cfg),
        ):
            fresh_value, fresh_grads = score(loss_buffers(batch))
            value, grads = score(stale_buffers())
            assert value == fresh_value
            assert [g.tobytes() for g in grads] == [g.tobytes() for g in fresh_grads]

    def test_warmup_minus_selfpaced_is_half_gamma_at_unit_weights(self):
        rng = np.random.default_rng(20)
        batch = random_batch(rng, b=4, m=2, length=4, k=3)
        centers = init_centers(3, 4, seed=18)
        cfg = LossConfig(alpha=0.7)
        gamma = 1.4
        warm, _ = objective(total_loss(batch, centers, None, cfg, loss_buffers(batch)), cfg)
        paced, _ = objective(
            total_loss(batch, centers, SampleWeights(np.ones(4), gamma), cfg, loss_buffers(batch)),
            cfg,
        )
        assert np.isclose(warm - paced, gamma / 2.0, atol=1e-12)

    def test_gradients_both_phases(self):
        rng = np.random.default_rng(21)
        batch = random_batch(rng, b=3, m=2, length=4, k=3)
        centers = init_centers(3, 4, seed=19)
        cfg = LossConfig(alpha=1.2, tau=0.6)
        weights = SampleWeights(np.array([0.2, 0.8, 1.0]), gamma=1.0)
        code_grad_check(
            lambda b: objective(total_loss(b, centers, None, cfg, loss_buffers(b)), cfg), batch
        )
        code_grad_check(
            lambda b: objective(total_loss(b, centers, weights, cfg, loss_buffers(b)), cfg), batch
        )
