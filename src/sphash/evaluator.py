"""Hamming-space retrieval evaluation.

Queries are ranked against a gallery by Hamming distance with ties broken by
ascending gallery index, so rankings (and therefore every metric here) are
deterministic. Distances are the narrowest unsigned integer that holds the
code length, so the stable argsort that ranks them is numpy's O(n) radix sort.
An item is relevant to a query when the two share at least one class; the
shared-class count is a float32 matrix product per query chunk, exact for any
class count below 2**24. MAP is computed over the full gallery ranking;
queries with no relevant item score 0 and are counted in the mean. Per-query
results combine in fixed index order, keeping MAP bit-identical across runs.
Each task ranks its gallery once, one query chunk at a time, and keeps the
ranking bit-packed: Q * ceil(G/8) bytes. MAP and the PR curve both read it one
unpacked chunk at a time, and both read only its relevant ranks
(``kernels.ranked_precision``). A PR curve needs no more: recall first reaches
a level at a relevant rank, and precision after a rank peaks at a relevant one,
so the curve is the one a scan of every rank gives, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import ParameterError


@dataclass
class RetrievalTask:
    """One retrieval direction: query codes/labels against gallery codes/labels."""

    query_codes: np.ndarray     # (Q, L) in {-1,+1}
    query_labels: np.ndarray    # (Q, K) in {0,1}
    gallery_codes: np.ndarray   # (G, L)
    gallery_labels: np.ndarray  # (G, K)

    def __post_init__(self):
        if self.query_codes.ndim != 2 or self.gallery_codes.ndim != 2:
            raise ParameterError("codes must be 2-d matrices")
        if self.query_codes.shape[1] != self.gallery_codes.shape[1]:
            raise ParameterError(
                f"query code length {self.query_codes.shape[1]} != "
                f"gallery code length {self.gallery_codes.shape[1]}"
            )
        if self.query_codes.shape[0] == 0 or self.gallery_codes.shape[0] == 0:
            raise ParameterError("need at least one query and one gallery item")
        if self.query_labels.ndim != 2 or self.gallery_labels.ndim != 2:
            raise ParameterError("labels must be 2-d matrices")
        if self.query_labels.shape[1] != self.gallery_labels.shape[1]:
            raise ParameterError("query and gallery labels differ in class count")
        if self.query_labels.shape[0] != self.query_codes.shape[0]:
            raise ParameterError("query labels do not match query codes")
        if self.gallery_labels.shape[0] != self.gallery_codes.shape[0]:
            raise ParameterError("gallery labels do not match gallery codes")

    @cached_property
    def packed_ranking(self) -> np.ndarray:
        """(Q, ceil(G/8)) uint8: each query's relevance in rank order, bit-packed
        (``np.packbits``); computed once per task, one query chunk at a time."""
        query_words = kernels.pack_signs(self.query_codes)
        gallery_words = kernels.pack_signs(self.gallery_codes)
        query_labels = self.query_labels.astype(np.float32)
        gallery_labels = self.gallery_labels.astype(np.float32).T
        packed = np.empty((len(query_words), (len(gallery_words) + 7) // 8), dtype=np.uint8)
        for start in range(0, len(packed), kernels.QUERY_CHUNK):
            rows = slice(start, start + kernels.QUERY_CHUNK)
            ranked = _ranked_chunk(query_words[rows], gallery_words, query_labels[rows],
                                   gallery_labels)
            packed[rows] = np.packbits(ranked, axis=1)
        packed.flags.writeable = False  # shared by every metric of this task
        return packed

    def ranked_relevance(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """(rows, G) bool relevance in rank order of queries start..stop, unpacked."""
        n_gallery = self.gallery_codes.shape[0]
        return np.unpackbits(self.packed_ranking[start:stop], axis=1, count=n_gallery).view(bool)


def _ranked_chunk(query_words, gallery_words, query_labels, gallery_labels) -> np.ndarray:
    """(rows, G) bool relevance of a query chunk in rank order.

    A function of its own so that its (rows, G) temporaries are freed before
    the next chunk's are made.
    """
    distances = kernels.pairwise_hamming_packed(query_words, gallery_words)
    relevance = query_labels @ gallery_labels >= 1  # BLAS; exact in float32
    order = np.argsort(distances, axis=1, kind="stable")  # radix sort on narrow keys
    del distances
    order += np.arange(0, order.size, order.shape[1])[:, None]  # flat index into the chunk
    return relevance.ravel().take(order)


# each direction every model is scored in: (name, query modality, gallery modality).
# Datasets have exactly two modalities (``MultiModalDataset.validate`` rejects any
# other count), so I2T and T2I cover every cross-modal direction.
DIRECTIONS = (("I2T", 0, 1), ("T2I", 1, 0))


def mean_average_precision(task: RetrievalTask) -> float:
    """MAP over the full gallery ranking."""
    n_query = task.query_codes.shape[0]
    scores = np.empty(n_query)
    for start in range(0, n_query, kernels.QUERY_CHUNK):
        stop = start + kernels.QUERY_CHUNK
        scores[start:stop] = kernels.ap_scores(task.ranked_relevance(start, stop))
    return float(np.cumsum(scores)[-1]) / n_query  # adds in fixed index order: bit-stable


def pr_curve(task: RetrievalTask, num_points: int) -> list[tuple[float, float]]:
    """(recall, precision) pairs: precision at recall levels 0..1, averaged over queries.

    Per query the precision at recall level t is the maximum precision over
    all ranking prefixes whose recall reaches t; queries without a relevant
    item contribute zero precision everywhere and are counted.
    """
    if num_points < 2:
        raise ParameterError(f"num_points={num_points} must be >= 2")
    n_query = task.query_codes.shape[0]
    levels = np.linspace(0.0, 1.0, num_points)

    precision_sum = np.zeros(num_points)
    for start in range(0, n_query, kernels.QUERY_CHUNK):
        block = task.ranked_relevance(start, start + kernels.QUERY_CHUNK)
        counts, precision = kernels.ranked_precision(block)
        # the best precision from the j-th relevant rank on, attained at a relevant rank
        best_from = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
        for best, total in zip(best_from, counts):
            if total == 0:
                continue
            # recall first reaches each level at the relevant rank found here
            at = np.searchsorted(np.arange(1, total + 1) / total, levels, side="left")
            precision_sum += best[at]
    mean_precision = precision_sum / n_query
    return [(float(x), float(y)) for x, y in zip(levels, mean_precision)]


@dataclass(frozen=True)
class NoiseDetectionScore:
    precision: float
    recall: float
    f1: float
    auc: float


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mid = upper - (counts - 1) / 2.0
    return mid[inverse]


def noise_detection_score(weights: np.ndarray, mask: np.ndarray) -> NoiseDetectionScore:
    """Score the zero-weight set against the ground-truth noise mask.

    Precision/recall/F1 treat weight == 0 as "predicted noisy". AUC ranks
    instances by ascending weight; 1.0 means every noisy instance sits below
    every clean one, 0.5 means the ranking is uninformative. Conventions for
    degenerate inputs: an all-clean mask scores recall 1 (nothing to find)
    with precision 0 if anything was predicted; an empty prediction set
    scores precision 1 only when the mask is also all-clean.
    """
    values = np.asarray(weights, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if values.shape != mask.shape:
        raise ParameterError(f"weights {values.shape} vs mask {mask.shape}")

    predicted = values == 0.0
    tp = int((predicted & mask).sum())
    n_predicted = int(predicted.sum())
    n_noisy = int(mask.sum())

    recall = tp / n_noisy if n_noisy else 1.0
    if n_predicted:
        precision = tp / n_predicted
    else:
        precision = 1.0 if n_noisy == 0 else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)

    n_clean = len(mask) - n_noisy
    if n_noisy == 0 or n_clean == 0:
        auc = 0.5
    else:
        ranks = _midranks(values)
        u_clean = ranks[~mask].sum() - n_clean * (n_clean + 1) / 2.0
        auc = u_clean / (n_clean * n_noisy)
    return NoiseDetectionScore(precision, recall, f1, float(auc))
