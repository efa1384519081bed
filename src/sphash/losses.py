"""Differentiable loss kernels over relaxed codes.

All probabilities are temperature-softmax scores of code dot products, pushed
through the robust transform

    g(u) = (1 - r) * (1 - u^r) / r + r * (1 - u),        u in [0, 1],

which behaves like 1 - u at r = 1 and approaches -ln(u) as r -> 0. Three
losses build on it:

* contrastive: g of the probability that a code matches its own instance
  across modalities, normalized over the mini-batch;
* center aggregation: g of the probability mass a code places on the hash
  centers of its labeled classes;
* self-paced: the center criterion weighted per instance, plus the pace
  regularizer gamma*(w^2/2 - w).

Every kernel returns the exact analytic gradient with respect to the relaxed
codes of all batch members; softmaxes subtract their row max before
exponentiation so values stay finite for arbitrarily large logits. Weights
are constants during backprop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ParameterError, ShapeError
from .pacer import SampleWeights

# floor applied inside gradient factors only: g'(u) carries u^(r-1), which
# blows up at u -> 0 when r < 1, while g(u) itself is finite at u = 0
_GRAD_FLOOR = 1e-12

WARMUP = "warmup"
SELFPACED = "selfpaced"


@dataclass(frozen=True)
class LossConfig:
    """Temperature, robustness factor, and contrastive trade-off weight.

    Defaults are calibrated on the synthetic benchmark: tau soft enough that
    center aggregation keeps a usable gradient at convergence, alpha small
    because instance discrimination and class clustering pull against each
    other on tightly clustered data.
    """

    tau: float = 1.0
    r: float = 0.5
    alpha: float = 0.002

    def __post_init__(self):
        # each check is written so that NaN fails too
        if not 0 < self.tau < math.inf:
            raise ParameterError(f"temperature tau={self.tau} must be positive and finite")
        if not 0.0 < self.r <= 1.0:
            raise ParameterError(f"weight factor r={self.r} outside (0, 1]")
        if not 0 <= self.alpha < math.inf:
            raise ParameterError(f"alpha={self.alpha} must be non-negative and finite")


@dataclass
class BatchCodes:
    """Relaxed codes of one mini-batch, one (B, L) matrix per modality."""

    codes: list[np.ndarray]
    labels: np.ndarray

    def __post_init__(self):
        self.codes = [np.asarray(c, dtype=np.float64) for c in self.codes]
        self.labels = np.asarray(self.labels)
        if not self.codes:
            raise ShapeError("batch needs at least one modality")
        b, l = self.codes[0].shape
        for i, c in enumerate(self.codes):
            if c.shape != (b, l):
                raise ShapeError(f"modality {i} codes {c.shape} != {(b, l)}")
        if self.labels.shape[0] != b:
            raise ShapeError(f"labels rows {self.labels.shape[0]} != batch size {b}")

    @property
    def batch_size(self) -> int:
        return self.codes[0].shape[0]

    @property
    def n_modalities(self) -> int:
        return len(self.codes)


def gce_terms(probs: np.ndarray, r: float) -> np.ndarray:
    """Robust transform g(u); exact 1-u at r=1 and finite at u=0."""
    probs = np.asarray(probs, dtype=np.float64)
    if r == 1.0:
        return 1.0 - probs
    return (1.0 - r) * (1.0 - np.power(probs, r)) / r + r * (1.0 - probs)


def gce_grad(probs: np.ndarray, r: float) -> np.ndarray:
    """dg/du with the floor that keeps u^(r-1) finite near zero."""
    probs = np.maximum(np.asarray(probs, dtype=np.float64), _GRAD_FLOOR)
    if r == 1.0:
        return np.full_like(probs, -1.0)
    return -(1.0 - r) * np.power(probs, r - 1.0) - r


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _instance_softmax(batch: BatchCodes, cfg: LossConfig):
    """Shared contrastive quantities.

    Returns (P, pos, q): the (MB, MB) softmax over all anchor/target code
    pairs, the boolean mask of same-instance targets, and per-anchor match
    probabilities q = sum of P over the positive targets.
    """
    b = batch.batch_size
    stacked = np.vstack(batch.codes)  # row m*B + i
    p = _row_softmax(stacked @ stacked.T / cfg.tau)
    instance = np.tile(np.arange(b), batch.n_modalities)
    pos = instance[:, None] == instance[None, :]
    q = np.clip((p * pos).sum(axis=1), 0.0, 1.0)
    return p, pos, q


def chl_loss(batch: BatchCodes, cfg: LossConfig) -> tuple[float, list[np.ndarray]]:
    """Contrastive value and its gradients w.r.t. every modality's codes."""
    b = batch.batch_size
    p, pos, q = _instance_softmax(batch, cfg)
    value = float(gce_terms(q, cfg.r).sum() / b)

    coeff = gce_grad(q, cfg.r) / b
    g = coeff[:, None] * p * (pos - q[:, None])
    grad_stacked = (g + g.T) @ np.vstack(batch.codes) / cfg.tau
    grads = [grad_stacked[m * b : (m + 1) * b] for m in range(batch.n_modalities)]
    return value, grads


def center_probs(codes: np.ndarray, centers: np.ndarray, tau: float) -> np.ndarray:
    """Softmax over centers of code-center similarities, shape (B, K)."""
    codes = np.atleast_2d(np.asarray(codes, dtype=np.float64))
    centers = np.asarray(centers, dtype=np.float64)
    if codes.shape[1] != centers.shape[1]:
        raise ShapeError(f"code length {codes.shape[1]} != center length {centers.shape[1]}")
    return _row_softmax(codes @ centers.T / tau)


def _aggregation_matrix(batch: BatchCodes, centers: np.ndarray, cfg: LossConfig):
    """Per-modality center softmaxes and the (B, M) matrix of v values."""
    labels = np.asarray(batch.labels, dtype=np.float64)
    if (labels.sum(axis=1) == 0).any():
        raise LabelError("a label row has no class set")
    probs = [center_probs(c, centers, cfg.tau) for c in batch.codes]
    v = np.column_stack([np.clip((p * labels).sum(axis=1), 0.0, 1.0) for p in probs])
    return probs, labels, v


def per_instance_loss(batch: BatchCodes, centers: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """loss_i = sum over modalities of g(v_i^m); bounded by M*(r^2-r+1)/r."""
    _, _, v = _aggregation_matrix(batch, centers, cfg)
    return gce_terms(v, cfg.r).sum(axis=1)


def _weighted_center_loss(
    batch: BatchCodes, centers: np.ndarray, cfg: LossConfig, scale: np.ndarray
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Value and code gradients of (1/B) sum_i scale_i * loss_i."""
    b = batch.batch_size
    probs, labels, v = _aggregation_matrix(batch, centers, cfg)
    per_instance = gce_terms(v, cfg.r).sum(axis=1)
    value = float((scale * per_instance).sum() / b)

    centers_f = np.asarray(centers, dtype=np.float64)
    grads = []
    for m, p in enumerate(probs):
        coeff = (scale * gce_grad(v[:, m], cfg.r)) / b
        d_logits = coeff[:, None] * p * (labels - v[:, m][:, None])
        grads.append(d_logits @ centers_f / cfg.tau)
    return value, grads, per_instance


def cal_loss(batch: BatchCodes, centers: np.ndarray, cfg: LossConfig) -> tuple[float, list[np.ndarray]]:
    """Center aggregation loss: mean of per-instance losses, with gradients."""
    ones = np.ones(batch.batch_size)
    value, grads, _ = _weighted_center_loss(batch, centers, cfg, ones)
    return value, grads


def nsh_loss(
    batch: BatchCodes, centers: np.ndarray, weights: SampleWeights, cfg: LossConfig
) -> tuple[float, list[np.ndarray]]:
    """Self-paced loss: weighted center criterion plus the pace regularizer.

    Weights are constants during backprop, so the gradient is exactly the
    weight-scaled center-aggregation gradient.
    """
    w = np.asarray(weights.values, dtype=np.float64)
    if w.shape != (batch.batch_size,):
        raise ShapeError(f"{w.shape[0]} weights for batch of {batch.batch_size}")
    if w.size and (w.min() < 0 or w.max() > 1):
        raise ParameterError("sample weights must lie in [0, 1]")
    value, grads, _ = _weighted_center_loss(batch, centers, cfg, w)
    penalty = weights.gamma * (0.5 * w * w - w).sum() / batch.batch_size
    return value + float(penalty), grads


def total_loss(
    phase: str,
    batch: BatchCodes,
    centers: np.ndarray,
    weights: SampleWeights | None,
    cfg: LossConfig,
) -> tuple[float, float | None, list[np.ndarray]]:
    """Parts of one phase's objective, center + alpha * contrastive.

    Returns (center, contrastive, grads). The center term is the plain
    criterion in warm-up and its weighted form in the self-paced phase. The
    contrastive term is None at alpha = 0, where it is never evaluated.
    grads are the code gradients of the whole objective.
    """
    if phase == WARMUP:
        center, grads = cal_loss(batch, centers, cfg)
    elif phase == SELFPACED:
        if weights is None:
            raise ParameterError("self-paced phase requires sample weights")
        center, grads = nsh_loss(batch, centers, weights, cfg)
    else:
        raise ParameterError(f"unknown phase {phase!r}")

    if not cfg.alpha > 0:
        return center, None, grads
    contrastive, c_grads = chl_loss(batch, cfg)
    return center, contrastive, [g + cfg.alpha * cg for g, cg in zip(grads, c_grads)]
