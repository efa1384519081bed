"""Hot retrieval kernels: packed Hamming distances and batched average precision.

There is one implementation of each kernel, in numpy. Codes are packed into
uint64 words and compared with ``np.bitwise_count`` (numpy >= 2.0), one word
at a time. Distances come back as the narrowest unsigned integer that holds
the code length (uint8 up to 255 bits, uint16 beyond), so a stable argsort of
them is numpy's O(n) radix sort. Average precision is accumulated with
cumulative sums that add strictly left to right, so scores are bit-identical
to a sequential per-query loop.
"""

from __future__ import annotations

import numpy as np

_QUERY_CHUNK = 64  # query rows per scratch buffer of 8-byte cells: 3.6 MB at G = 7000


def pack_signs(codes: np.ndarray) -> np.ndarray:
    """Pack rows of {-1,+1} codes into uint64 words (+1 -> bit set).

    Padding bits beyond the code length are zero on both sides of any xor,
    so they never contribute to a popcount.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError("expected a 2-d code matrix")
    packed = np.packbits(codes > 0, axis=1)
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def pairwise_hamming_packed(query_words: np.ndarray, gallery_words: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between packed code sets, shape (Q, G).

    The dtype is the narrowest unsigned integer that holds 64 bits per word.
    """
    n_words = query_words.shape[1]
    if gallery_words.shape[1] != n_words:
        raise ValueError("packed word counts differ")
    n_query = query_words.shape[0]
    out = np.zeros((n_query, gallery_words.shape[0]), dtype=np.min_scalar_type(64 * n_words))
    gallery_columns = np.ascontiguousarray(gallery_words.T)
    xor = np.empty((min(_QUERY_CHUNK, n_query), gallery_words.shape[0]), dtype=np.uint64)
    for start in range(0, n_query, _QUERY_CHUNK):
        rows = slice(start, start + _QUERY_CHUNK)
        block = out[rows]
        buffer = xor[:len(block)]
        for word in range(n_words):
            np.bitwise_xor(query_words[rows, word, None], gallery_columns[word], out=buffer)
            block += np.bitwise_count(buffer)
    return out


def ap_scores(ranked_relevance: np.ndarray) -> np.ndarray:
    """Average precision per query from 0/1 relevance in rank order.

    AP = (1/R) * sum over relevant ranks k of (relevant-in-top-k) / k,
    and 0.0 for a query with no relevant items.
    """
    rel = np.asarray(ranked_relevance)
    n_query, n_gallery = rel.shape
    ranks = np.arange(1, n_gallery + 1, dtype=np.float64)
    totals = np.empty(n_query)
    n_relevant = np.empty(n_query)
    terms = np.empty((min(_QUERY_CHUNK, n_query), n_gallery))
    for start in range(0, n_query, _QUERY_CHUNK):
        rows = slice(start, start + _QUERY_CHUNK)
        block = rel[rows]
        buffer = terms[:len(block)]
        np.cumsum(block, axis=1, out=buffer)  # relevant-in-top-k, exact in float64
        n_relevant[rows] = buffer[:, -1]
        buffer /= ranks
        buffer *= block  # a term is 0.0 at irrelevant ranks, and adding 0.0 is exact
        # cumsum adds strictly left to right: the order of a sequential per-query loop
        np.cumsum(buffer, axis=1, out=buffer)
        totals[rows] = buffer[:, -1]
    return np.where(n_relevant > 0, totals / np.maximum(n_relevant, 1), 0.0)
