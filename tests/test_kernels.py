import numpy as np
import pytest

from oracles import naive_average_precision
from sphash import kernels


def random_packed(rng, rows, length):
    codes = rng.choice([-1, 1], (rows, length)).astype(np.int8)
    return codes, kernels.pack_signs(codes)


class TestPackSigns:
    def test_bit_layout_roundtrip(self):
        rng = np.random.default_rng(0)
        for length in (1, 8, 63, 64, 65, 128):
            codes, packed = random_packed(rng, 5, length)
            assert packed.dtype == np.uint64
            assert packed.shape == (5, (length + 63) // 64)
            bits = np.unpackbits(packed.view(np.uint8), axis=1)[:, :length]
            # pack order within bytes is most-significant-first
            expected = np.unpackbits(np.packbits(codes > 0, axis=1), axis=1)[:, :length]
            assert np.array_equal(bits, expected)

    def test_padding_bits_do_not_leak(self):
        rng = np.random.default_rng(1)
        codes, packed = random_packed(rng, 4, 10)
        distances = kernels.pairwise_hamming_packed(packed, packed)
        assert (np.diag(distances) == 0).all()
        assert distances.max() <= 10


class TestHammingPaths:
    def test_numpy_path_matches_elementwise_count(self):
        # one to four words, both the uint8 and the uint16 result, and more
        # query rows than one chunk
        rng = np.random.default_rng(2)
        for length in (1, 63, 64, 65, 70, 128, 130, 192, 256):
            a_codes, a = random_packed(rng, 150, length)
            b_codes, b = random_packed(rng, 9, length)
            expected = (a_codes[:, None, :] != b_codes[None, :, :]).sum(axis=2)
            distances = kernels.pairwise_hamming_packed(a, b)
            assert np.array_equal(distances, expected), length
            # unsigned, wide enough for the code length, and no wider
            assert distances.dtype == (np.uint8 if length < 256 else np.uint16)
        # a code and its complement are the largest distance the dtype must hold
        codes, packed = random_packed(rng, 3, 256)
        distances = kernels.pairwise_hamming_packed(packed, kernels.pack_signs(-codes))
        assert (np.diag(distances) == 256).all()

    def test_dispatch_shape_check(self):
        rng = np.random.default_rng(4)
        _, a = random_packed(rng, 2, 64)
        _, b = random_packed(rng, 2, 130)
        with pytest.raises(ValueError):
            kernels.pairwise_hamming_packed(a, b)


class TestApScores:
    def test_matches_naive_oracle_bitwise(self):
        rng = np.random.default_rng(5)
        rel = rng.random((150, 37)) < 0.3  # more rows than one query chunk
        for dtype in (np.uint8, bool):
            scores = kernels.ap_scores(rel.astype(dtype))
            for row, score in zip(rel, scores):
                assert score == naive_average_precision(row.tolist())

    def test_empty_relevance_rows_score_zero(self):
        rel = np.zeros((3, 10), dtype=np.uint8)
        assert np.array_equal(kernels.ap_scores(rel), np.zeros(3))
