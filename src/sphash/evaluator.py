"""Hamming-space retrieval evaluation.

Queries are ranked against a gallery by Hamming distance with ties broken by
ascending gallery index, so rankings (and therefore every metric here) are
deterministic. Distances are the narrowest unsigned integer that holds the
code length, so the stable argsort that ranks them is numpy's O(n) radix sort.
An item is relevant to a query when the two share at least one class; the
shared-class count is a float32 matrix product, exact for any class count
below 2**24. MAP is computed over the full gallery ranking; queries with no
relevant item score 0 and are counted in the mean. Per-query results combine
in fixed index order, keeping MAP bit-identical across runs. Each task ranks
its gallery once; MAP and the PR curve both read that ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import ParameterError, ShapeError
from .pacer import SampleWeights

_RANK_CHUNK = 64  # query rows ranked at a time: bounds the (rows, G) intp order array


@dataclass
class RetrievalTask:
    """One retrieval direction: query codes/labels against gallery codes/labels."""

    query_codes: np.ndarray     # (Q, L) in {-1,+1}
    query_labels: np.ndarray    # (Q, K) in {0,1}
    gallery_codes: np.ndarray   # (G, L)
    gallery_labels: np.ndarray  # (G, K)
    direction: str = ""

    def __post_init__(self):
        if self.query_codes.ndim != 2 or self.gallery_codes.ndim != 2:
            raise ShapeError("codes must be 2-d matrices")
        if self.query_codes.shape[1] != self.gallery_codes.shape[1]:
            raise ShapeError(
                f"query code length {self.query_codes.shape[1]} != "
                f"gallery code length {self.gallery_codes.shape[1]}"
            )
        if self.query_codes.shape[0] == 0 or self.gallery_codes.shape[0] == 0:
            raise ShapeError("need at least one query and one gallery item")
        if self.query_labels.shape[0] != self.query_codes.shape[0]:
            raise ShapeError("query labels do not match query codes")
        if self.gallery_labels.shape[0] != self.gallery_codes.shape[0]:
            raise ShapeError("gallery labels do not match gallery codes")

    def relevance(self) -> np.ndarray:
        """(Q, G) bool: share at least one class."""
        q = self.query_labels.astype(np.float32)
        g = self.gallery_labels.astype(np.float32)
        return (q @ g.T) >= 1  # BLAS; counts below 2**24 are exact in float32

    @cached_property
    def ranked_relevance(self) -> np.ndarray:
        """(Q, G) relevance in rank order, computed once per task."""
        relevance = self.relevance()
        distances = pairwise_hamming(self.query_codes, self.gallery_codes)
        ranked = np.empty_like(relevance)
        for start in range(0, len(ranked), _RANK_CHUNK):
            rows = slice(start, start + _RANK_CHUNK)
            order = np.argsort(distances[rows], axis=1, kind="stable")  # radix sort on narrow keys
            ranked[rows] = np.take_along_axis(relevance[rows], order, axis=1)
        ranked.flags.writeable = False  # shared by every metric of this task
        return ranked


def pairwise_hamming(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """All-pairs distances via packed-word popcounts (the hot kernel).

    The result is unsigned and as narrow as the code length allows (uint8 up
    to 255 bits): cast it before subtracting or summing many distances.
    """
    if codes_a.shape[1] != codes_b.shape[1]:
        raise ShapeError(f"code lengths differ: {codes_a.shape[1]} vs {codes_b.shape[1]}")
    return kernels.pairwise_hamming_packed(kernels.pack_signs(codes_a), kernels.pack_signs(codes_b))


def cross_modal_tasks(
    query_codes, query_labels, gallery_codes, gallery_labels
) -> tuple[RetrievalTask, RetrievalTask]:
    """The two directions every model is scored in: (I2T, T2I).

    I2T ranks the modality-1 gallery for modality-0 queries; T2I the reverse.
    ``query_codes`` and ``gallery_codes`` are per-modality code matrices.
    Datasets have exactly two modalities (``MultiModalDataset.validate``
    rejects any other count), so the pair covers every cross-modal direction.
    """
    return (
        RetrievalTask(query_codes[0], query_labels, gallery_codes[1], gallery_labels, "I2T"),
        RetrievalTask(query_codes[1], query_labels, gallery_codes[0], gallery_labels, "T2I"),
    )


def mean_average_precision(task: RetrievalTask) -> float:
    """MAP over the full gallery ranking."""
    scores = kernels.ap_scores(task.ranked_relevance)
    total = 0.0
    for score in scores:  # fixed index order: bit-stable mean
        total += float(score)
    return total / len(scores)


@dataclass(frozen=True)
class CurvePoint:
    x: float
    y: float


def pr_curve(task: RetrievalTask, num_points: int) -> list[CurvePoint]:
    """Precision at interpolated recall levels 0..1, averaged over queries.

    Per query the precision at recall level t is the maximum precision over
    all ranking prefixes whose recall reaches t; queries without a relevant
    item contribute zero precision everywhere and are counted.
    """
    if num_points < 2:
        raise ParameterError(f"num_points={num_points} must be >= 2")
    ranked = task.ranked_relevance
    levels = np.linspace(0.0, 1.0, num_points)
    ranks = np.arange(1, ranked.shape[1] + 1)

    precision_sum = np.zeros(num_points)
    for rel in ranked:
        total = rel.sum()
        if total == 0:
            continue
        cum = np.cumsum(rel)
        recall = cum / total
        precision = cum / ranks
        best_from = np.maximum.accumulate(precision[::-1])[::-1]
        at = np.searchsorted(recall, levels, side="left")
        precision_sum += best_from[np.minimum(at, len(recall) - 1)]
    mean_precision = precision_sum / ranked.shape[0]
    return [CurvePoint(float(x), float(y)) for x, y in zip(levels, mean_precision)]


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


def noise_detection_score(weights, mask: np.ndarray) -> NoiseDetectionScore:
    """Score the zero-weight set against the ground-truth noise mask.

    Precision/recall/F1 treat weight == 0 as "predicted noisy". AUC ranks
    instances by ascending weight; 1.0 means every noisy instance sits below
    every clean one, 0.5 means the ranking is uninformative. Conventions for
    degenerate inputs: an all-clean mask scores recall 1 (nothing to find)
    with precision 0 if anything was predicted; an empty prediction set
    scores precision 1 only when the mask is also all-clean.
    """
    values = weights.values if isinstance(weights, SampleWeights) else np.asarray(weights, float)
    mask = np.asarray(mask, dtype=bool)
    if values.shape != mask.shape:
        raise ShapeError(f"weights {values.shape} vs mask {mask.shape}")

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


@dataclass
class WeightHistogram:
    edges: np.ndarray   # (bins + 1,)
    masses: np.ndarray  # (bins,), sums to 1


def weight_density(weights, bins: int) -> WeightHistogram:
    """Normalized histogram of weights over [0, 1]."""
    if bins < 2:
        raise ParameterError(f"bins={bins} must be >= 2")
    values = weights.values if isinstance(weights, SampleWeights) else np.asarray(weights, float)
    if values.size == 0:
        raise ParameterError("cannot histogram an empty weight vector")
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return WeightHistogram(edges, counts / values.size)
