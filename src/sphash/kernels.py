"""Hot retrieval kernels: packed Hamming distances and batched average precision.

There is one implementation of each kernel, in numpy. Codes are packed into
uint64 words and compared with ``np.bitwise_count`` (numpy >= 2.0); average
precision is accumulated with cumulative sums that add strictly left to
right, so scores are bit-identical to a sequential per-query loop.
"""

from __future__ import annotations

import numpy as np

_QUERY_CHUNK = 256  # bounds the (chunk, gallery, words) xor buffer


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
    """All-pairs Hamming distances between packed code sets, shape (Q, G)."""
    if query_words.shape[1] != gallery_words.shape[1]:
        raise ValueError("packed word counts differ")
    n_query = query_words.shape[0]
    out = np.empty((n_query, gallery_words.shape[0]), dtype=np.int64)
    for start in range(0, n_query, _QUERY_CHUNK):
        stop = min(start + _QUERY_CHUNK, n_query)
        xor = query_words[start:stop, None, :] ^ gallery_words[None, :, :]
        out[start:stop] = np.bitwise_count(xor).sum(axis=2, dtype=np.int64)
    return out


def ap_scores(ranked_relevance: np.ndarray) -> np.ndarray:
    """Average precision per query from 0/1 relevance in rank order.

    AP = (1/R) * sum over relevant ranks k of (relevant-in-top-k) / k,
    and 0.0 for a query with no relevant items.
    """
    rel = np.ascontiguousarray(ranked_relevance, dtype=np.uint8).astype(np.int64)
    cum = np.cumsum(rel, axis=1)
    ranks = np.arange(1, rel.shape[1] + 1, dtype=np.int64)
    # cumsum of the per-rank terms adds strictly left to right: the same
    # order as a sequential per-query loop
    terms = np.where(rel > 0, cum / ranks, 0.0)
    totals = np.cumsum(terms, axis=1)[:, -1]
    n_relevant = cum[:, -1]
    return np.where(n_relevant > 0, totals / np.maximum(n_relevant, 1), 0.0)
