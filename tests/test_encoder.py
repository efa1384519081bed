import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from buffers import activations, gradients
from oracles import central_difference_grads, max_relative_error
from sphash.encoder import (
    HashEncoderParams,
    ModalityParams,
    backward,
    binarize,
    encode,
    flat_size,
    forward,
    init_centers,
    init_params,
)
from sphash.errors import ParameterError


def zero_params(d=3, hidden=4, code=2):
    return ModalityParams(
        w1=np.zeros((d, hidden)), b1=np.zeros(hidden), w2=np.zeros((hidden, code)), b2=np.zeros(code)
    )


class TestEncode:
    def test_zero_params_give_zero_codes(self):
        x = np.ones((5, 3))
        codes = encode(zero_params(), x, activations(zero_params(), x))
        assert np.array_equal(codes, np.zeros((5, 2)))

    def test_outputs_strictly_inside_unit_box(self):
        params = init_params((8,), 16, 6, seed=0).modalities[0]
        x = np.random.default_rng(1).normal(0, 50.0, size=(30, 8))
        codes = encode(params, x, activations(params, x))
        assert np.abs(codes).max() < 1.0

    def test_deterministic(self):
        params = init_params((4,), 8, 3, seed=5).modalities[0]
        x = np.random.default_rng(2).normal(size=(6, 4))
        first = encode(params, x, activations(params, x))
        assert first.tobytes() == encode(params, x, activations(params, x)).tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError, match="input dim 4 != encoder dim 3"):
            encode(zero_params(d=3), np.ones((2, 4)), activations(zero_params(), np.ones((2, 4))))

    def test_single_row_matches_batch(self):
        params = init_params((4,), 8, 3, seed=5).modalities[0]
        x = np.random.default_rng(3).normal(size=(6, 4))
        batched = encode(params, x, activations(params, x))
        assert np.allclose(encode(params, x[2], activations(params, x[2])), batched[2])


class TestBinarize:
    def test_sign_with_tie_to_plus_one(self):
        assert binarize(np.array([0.3, -0.2, 0.0])).tolist() == [1, -1, 1]

    def test_idempotent(self):
        codes = np.random.default_rng(0).normal(size=(4, 6))
        once = binarize(codes)
        assert np.array_equal(binarize(once.astype(np.float64)), once)

    def test_all_negative(self):
        assert (binarize(-np.abs(np.random.default_rng(1).normal(size=8)) - 0.1) == -1).all()

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            binarize(np.array([np.nan, 0.5]))


class TestInitCenters:
    def test_two_classes_one_bit(self):
        centers = init_centers(2, 1, seed=0)
        assert sorted(centers[:, 0].tolist()) == [-1, 1]

    def test_distinct_and_reproducible(self):
        a = init_centers(4, 16, seed=9)
        b = init_centers(4, 16, seed=9)
        assert np.array_equal(a, b)
        assert np.isin(a, (-1, 1)).all()
        assert len({row.tobytes() for row in a}) == 4

    def test_capacity_error(self):
        with pytest.raises(ParameterError, match="3 distinct centers"):
            init_centers(3, 1, seed=0)

    def test_tight_capacity_fills_space(self):
        centers = init_centers(4, 2, seed=3)
        assert len({row.tobytes() for row in centers}) == 4


class TestInitParams:
    def test_zero_biases_and_weight_bounds(self):
        params = init_params((9, 5), hidden_dim=7, code_length=3, seed=1)
        for mod, d in zip(params.modalities, (9, 5)):
            assert not mod.b1.any() and not mod.b2.any()
            assert np.abs(mod.w1).max() <= 1.0 / np.sqrt(d)
            assert np.abs(mod.w2).max() <= 1.0 / np.sqrt(7)

    def test_deterministic(self):
        a = init_params((4, 4), 8, 2, seed=7)
        b = init_params((4, 4), 8, 2, seed=7)
        assert a.modalities[1].w1.tobytes() == b.modalities[1].w1.tobytes()

    def test_rejects_bad_dims(self):
        with pytest.raises(ParameterError):
            init_params((0,), 4, 2, seed=0)


class TestFlatLayout:
    def test_views_tile_the_flat_vector_in_order(self):
        params = init_params((9, 5), hidden_dim=7, code_length=3, seed=1)
        assert params.flat.shape == (flat_size((9, 5), 7, 3),)
        pieces = [a for mod in params.modalities for a in (mod.w1, mod.b1, mod.w2, mod.b2)]
        assert [a.shape for a in pieces[:4]] == [(9, 7), (7,), (7, 3), (3,)]
        offset = 0
        for a in pieces:
            assert np.shares_memory(a, params.flat)
            assert a.ctypes.data == params.flat[offset:].ctypes.data
            offset += a.size
        assert offset == params.flat.size

    def test_writing_flat_moves_every_encoder(self):
        params = init_params((4, 3), 5, 2, seed=2)
        x = np.ones((2, 4))
        params.flat[:] = 0.0
        assert not encode(params.modalities[0], x, activations(params.modalities[0], x)).any()

    def test_rejects_wrong_flat_length(self):
        with pytest.raises(ParameterError, match="flat weights have shape"):
            HashEncoderParams(np.zeros(flat_size((4,), 5, 2) + 1), (4,), 5, 2)


class TestForward:
    def test_codes_equal_encode_and_hidden_is_first_layer(self):
        mod = init_params((4,), 8, 3, seed=5).modalities[0]
        x = np.random.default_rng(7).normal(size=(6, 4))
        hidden, codes = forward(mod, x, activations(mod, x))
        assert codes.tobytes() == encode(mod, x, activations(mod, x)).tobytes()
        assert hidden.tobytes() == np.tanh(x @ mod.w1 + mod.b1).tobytes()


def modality_grads(params, grad):
    """(w1, b1, w2, b2) of modality 0 from a vector laid out like params.flat."""
    mod = dataclasses.replace(params, flat=grad).modalities[0]
    return [mod.w1, mod.b1, mod.w2, mod.b2]


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        mod = init_params((3,), 4, 2, seed=0).modalities[0]
        x = np.ones((5, 3))
        grads = backward(mod, x, *forward(mod, x, activations(mod, x)), np.zeros((5, 2)),
                         *gradients(mod, 5))
        assert not grads.any()

    def test_linear_in_upstream(self):
        mod = init_params((3,), 4, 2, seed=0).modalities[0]
        x = np.random.default_rng(4).normal(size=(5, 3))
        g = np.random.default_rng(5).normal(size=(5, 2))
        single = backward(mod, x, *forward(mod, x, activations(mod, x)), g, *gradients(mod, 5))
        double = backward(mod, x, *forward(mod, x, activations(mod, x)), 2.0 * g,
                          *gradients(mod, 5))
        assert np.allclose(2.0 * single, double)

    def test_matches_central_differences(self):
        # loss = sum of code components on a 5x3 -> 4 -> 2 instance
        rng = np.random.default_rng(6)
        for trial in range(5):
            params = init_params((3,), 4, 2, seed=trial)
            mod = params.modalities[0]
            x = rng.normal(size=(5, 3))
            upstream = np.ones((5, 2))
            hidden, codes = forward(mod, x, activations(mod, x))
            grad = backward(mod, x, hidden, codes, upstream, *gradients(mod, 5))
            analytic = modality_grads(params, grad)
            numeric = central_difference_grads(
                lambda: float(encode(mod, x, activations(mod, x)).sum()),
                [mod.w1, mod.b1, mod.w2, mod.b2],
                step=1e-4,
            )
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_shape_mismatch(self):
        mod = init_params((3,), 4, 2, seed=0).modalities[0]
        x = np.ones((5, 3))
        hidden, codes = forward(mod, x, activations(mod, x))
        with pytest.raises(ParameterError, match="hidden, codes and grad shapes"):
            backward(mod, x, hidden, codes, np.zeros((5, 3)), *gradients(mod, 5))
        with pytest.raises(ParameterError, match="hidden, codes and grad shapes"):
            backward(mod, x, hidden[:, :3], codes, np.zeros((5, 2)), *gradients(mod, 5))


@settings(max_examples=30, deadline=None)
@given(
    codes=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 8)),
        elements=st.floats(-1.0, 1.0, allow_nan=False),
    )
)
def test_binarize_always_in_pm_one(codes):
    out = binarize(codes)
    assert np.isin(out, (-1, 1)).all()
    assert np.array_equal(binarize(out.astype(float)), out)
