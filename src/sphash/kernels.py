"""Hot retrieval kernels: packed Hamming distances and average precision.

There is one implementation of each kernel, in numpy. Codes are packed into
uint64 words and compared with ``np.bitwise_count`` (numpy >= 2.0), one word
at a time. Distances come back as the narrowest unsigned integer that holds
the code length (uint8 up to 255 bits, uint16 beyond), so a stable argsort of
them is numpy's O(n) radix sort.

Average precision and the PR curve read only the relevant ranks of a ranking:
the precision j / rank at the j-th relevant rank.
An irrelevant rank adds a term of 0.0 to AP, and adding 0.0 is exact, so a
cumulative sum over the relevant ranks alone, which adds strictly left to
right, gives the bits of a sequential per-query loop over the whole ranking.
"""

from __future__ import annotations

import numpy as np

QUERY_CHUNK = 32  # query rows per (rows, G) scratch buffer of 8-byte cells: 1.8 MB at G = 7000


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
    A (Q, G) uint64 scratch holds one word's xor, so callers pass a query
    chunk (``QUERY_CHUNK`` rows), not a whole query set.
    """
    n_words = query_words.shape[1]
    if gallery_words.shape[1] != n_words:
        raise ValueError("packed word counts differ")
    out = np.zeros((len(query_words), len(gallery_words)), dtype=np.min_scalar_type(64 * n_words))
    gallery_columns = np.ascontiguousarray(gallery_words.T)
    xor = np.empty(out.shape, dtype=np.uint64)
    for word in range(n_words):
        np.bitwise_xor(query_words[:, word, None], gallery_columns[word], out=xor)
        out += np.bitwise_count(xor)
    return out


def ranked_precision(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of 0/1 relevance in rank order: the relevant count, and the precision
    j / rank at the j-th relevant rank (1-based), zero-padded to the largest count.

    The padded matrix has at least one column, so an all-irrelevant block still
    gives a (rows, 1) matrix of zeros.
    """
    n_rows, n_gallery = block.shape
    row, rank = np.divmod(np.flatnonzero(block), n_gallery)  # hits in row-major order
    counts = np.bincount(row, minlength=n_rows)
    width = max(counts.max(initial=0), 1)
    ranks = np.full((n_rows, width), np.inf)  # j / inf is the 0.0 of the padding
    ranks[np.arange(width) < counts[:, None]] = rank + 1
    return counts, np.arange(1, width + 1) / ranks


def ap_scores(ranked_relevance: np.ndarray) -> np.ndarray:
    """Average precision per query from 0/1 relevance in rank order.

    AP = (1/R) * sum over relevant ranks k of (relevant-in-top-k) / k,
    and 0.0 for a query with no relevant items. Callers pass one query chunk.
    """
    counts, precision = ranked_precision(np.asarray(ranked_relevance))
    # cumsum adds strictly left to right: the order of a sequential per-query loop
    totals = np.cumsum(precision, axis=1)[:, -1]
    return np.divide(totals, counts, out=np.zeros(len(counts)), where=counts > 0)
