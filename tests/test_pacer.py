import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buffers import loss_buffers
from oracles import grid_argmin_weight, grid_max_instance_loss
from sphash.data import one_hot
from sphash.encoder import init_centers
from sphash.errors import ParameterError
from sphash.losses import BatchCodes, LossConfig, nsh_loss
from sphash.pacer import (
    PaceSchedule,
    SampleWeights,
    gamma_at,
    loss_upper_bound,
    refresh_weights,
)
from sphash.trainer import TrainConfig, resolve_config


def optimal_weight(loss: float, gamma: float) -> float:
    """The closed-form weight of one instance, as refresh_weights computes it."""
    return float(refresh_weights(np.array([loss]), gamma).values[0])


def regularizer(w: float, gamma: float) -> float:
    """The pace penalty gamma*(w^2/2 - w), read back from nsh_loss.

    The one instance's codes sit far along its class center, so its center
    softmax is exactly one-hot, its loss exactly zero, and nsh_loss's value
    is the penalty alone.
    """
    centers = init_centers(2, 4, seed=0)
    codes = 1e3 * centers[:1]
    batch = BatchCodes(np.concatenate([codes, codes]), one_hot(np.array([0]), 2))
    value, grads = nsh_loss(batch, centers, SampleWeights(np.array([w]), gamma), LossConfig(),
                            loss_buffers(batch).grads)
    assert not any(g.any() for g in grads)
    return value


class TestOptimalWeight:
    def test_zero_loss_gives_full_weight(self):
        assert optimal_weight(0.0, 1.0) == 1.0

    def test_loss_at_or_beyond_gamma_gives_zero(self):
        assert optimal_weight(2.0, 1.0) == 0.0
        assert optimal_weight(1.0, 1.0) == 0.0

    def test_half_loss_matches_grid_argmin(self):
        w = optimal_weight(0.5, 1.0)
        assert w == 0.5
        assert abs(w - grid_argmin_weight(0.5, 1.0, grid_points=10**6)) < 2e-6

    def test_matches_grid_argmin_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            loss = float(rng.uniform(0, 6))
            gamma = float(rng.uniform(0.05, 3))
            w = optimal_weight(loss, gamma)
            assert abs(w - grid_argmin_weight(loss, gamma, grid_points=10**5)) < 2e-5

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            optimal_weight(-0.1, 1.0)
        with pytest.raises(ParameterError):
            optimal_weight(0.5, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        loss_a=st.floats(0, 10, allow_nan=False),
        loss_b=st.floats(0, 10, allow_nan=False),
        gamma=st.floats(0.01, 5, allow_nan=False),
    )
    def test_monotone_in_loss(self, loss_a, loss_b, gamma):
        lo, hi = sorted((loss_a, loss_b))
        assert optimal_weight(lo, gamma) >= optimal_weight(hi, gamma)

    @settings(max_examples=200, deadline=None)
    @given(
        loss=st.floats(0, 10, allow_nan=False),
        gamma_a=st.floats(0.01, 5, allow_nan=False),
        gamma_b=st.floats(0.01, 5, allow_nan=False),
    )
    def test_monotone_in_gamma(self, loss, gamma_a, gamma_b):
        lo, hi = sorted((gamma_a, gamma_b))
        assert optimal_weight(loss, lo) <= optimal_weight(loss, hi)

    @settings(max_examples=200, deadline=None)
    @given(
        loss=st.one_of(st.just(0.0), st.floats(1e-6, 10, allow_nan=False)),
        gamma=st.floats(0.01, 5, allow_nan=False),
    )
    def test_zero_iff_loss_reaches_gamma(self, loss, gamma):
        w = optimal_weight(loss, gamma)
        assert 0.0 <= w <= 1.0
        if loss >= gamma:
            assert w == 0.0
        if loss <= 0.999 * gamma:  # strictly inside, clear of rounding at the edge
            assert w > 0.0
        assert (w == 1.0) == (loss == 0.0)


class TestRegularizer:
    def test_values(self):
        assert regularizer(0.0, 5.0) == 0.0
        assert regularizer(1.0, 5.0) == -2.5
        assert np.isclose(regularizer(0.5, 2.0), 2.0 * (0.125 - 0.5))

    def test_never_positive_and_minimized_at_one(self):
        w = np.linspace(0, 1, 101)
        values = np.array([regularizer(float(x), 1.7) for x in w])
        assert (values <= 0).all()
        assert values.argmin() == 100

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            regularizer(1.2, 1.0)
        with pytest.raises(ParameterError):
            regularizer(0.5, -1.0)


class TestGammaBounds:
    def test_upper_matches_grid_maximum(self):
        for m in (1, 2):
            for r in (0.1, 0.5, 1.0):
                upper = loss_upper_bound(m, r)
                assert abs(upper - grid_max_instance_loss(m, r)) < 1e-6


class TestPaceSchedule:
    def test_fixed(self):
        sched = PaceSchedule(gamma_start=1.2)
        for epoch in (0, 3, 100):
            assert gamma_at(sched, epoch) == 1.2

    def test_linear_ramp(self):
        sched = PaceSchedule(gamma_start=1.0, gamma_end=2.0, ramp_epochs=10)
        assert gamma_at(sched, 0) == 1.0
        assert gamma_at(sched, 5) == 1.5
        assert gamma_at(sched, 10) == 2.0
        assert gamma_at(sched, 25) == 2.0

    def test_monotone_non_decreasing(self):
        sched = PaceSchedule(gamma_start=0.3, gamma_end=2.4, ramp_epochs=7)
        values = [gamma_at(sched, e) for e in range(20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ParameterError):
            PaceSchedule(gamma_start=0.0)
        with pytest.raises(ParameterError):
            PaceSchedule(gamma_start=2.0, gamma_end=1.0)
        for start, end in [(math.inf, None), (math.nan, None), (1.0, math.inf), (1.0, math.nan)]:
            with pytest.raises(ParameterError):
                PaceSchedule(gamma_start=start, gamma_end=end, ramp_epochs=2)

    def test_schedule_must_stay_inside_bounds(self):
        sched = PaceSchedule(gamma_start=1.0)
        resolve_config(TrainConfig(loss=LossConfig(r=0.5), pace=sched), 2)  # upper bound 3.0
        with pytest.raises(ParameterError):
            resolve_config(TrainConfig(loss=LossConfig(r=0.5),
                                       pace=PaceSchedule(gamma_start=3.0)), 2)


class TestRefreshWeights:
    def test_all_zero_losses(self):
        weights = refresh_weights(np.zeros(5), gamma=1.0)
        assert weights.values.tolist() == [1.0] * 5

    def test_closed_form_values(self):
        gamma = 0.8
        losses = np.array([0.0, gamma / 2, 2 * gamma])
        weights = refresh_weights(losses, gamma)
        assert np.allclose(weights.values, [1.0, 0.5, 0.0])
        for loss, w in zip(losses, weights.values):
            assert abs(w - grid_argmin_weight(float(loss), gamma, grid_points=10**5)) < 2e-5

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            refresh_weights(np.array([0.1, np.inf]), 1.0)

    def test_invariant_zero_where_loss_reaches_gamma(self):
        rng = np.random.default_rng(1)
        losses = rng.uniform(0, 3, 100)
        weights = refresh_weights(losses, gamma=1.5)
        assert np.array_equal(weights.values == 0.0, losses >= 1.5)


class TestVariantsAndPartition:
    def test_all_positive_weights_mean_no_noisy(self):
        # every loss below gamma: no instance gets weight zero, none is flagged noisy
        weights = refresh_weights(np.array([0.0, 0.3, 0.8, 0.99]), gamma=1.0)
        assert (weights.values > 0).all()

    def test_sample_weights_validation(self):
        with pytest.raises(ParameterError):
            SampleWeights(np.array([0.5, 1.2]), gamma=1.0)
        with pytest.raises(ParameterError):
            SampleWeights(np.array([0.5]), gamma=0.0)


def test_loss_upper_bound_formula():
    assert loss_upper_bound(2, 0.5) == 3.0
    assert loss_upper_bound(3, 1.0) == 3.0
