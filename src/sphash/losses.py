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

Warm-up is training with no weights: ``total_loss`` takes the plain center
criterion when it is given none and the self-paced one otherwise.

Every kernel returns the exact analytic gradient with respect to the relaxed
codes of all batch members; softmaxes subtract their row max before
exponentiation so values stay finite for arbitrarily large logits. Weights
are constants during backprop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .pacer import SampleWeights

# floor applied inside gradient factors only: g'(u) carries u^(r-1), which
# blows up at u -> 0 when r < 1, while g(u) itself is finite at u = 0
_GRAD_FLOOR = 1e-12


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
    """Relaxed codes of one mini-batch: one (M*B, L) matrix, modality m in rows m*B..(m+1)*B.

    B is the label rows and M the code rows over B. ``codes`` holds each
    modality's (B, L) block as a view of ``stacked``.
    """

    stacked: np.ndarray
    labels: np.ndarray
    codes: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.stacked = np.asarray(self.stacked, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        rows, b = len(self.stacked), len(self.labels)
        if self.stacked.ndim != 2 or self.labels.ndim != 2 or not b or not rows or rows % b:
            raise ParameterError(f"codes {self.stacked.shape} are not a positive multiple "
                                 f"of the rows of labels {self.labels.shape}")
        self.codes = [self.stacked[start : start + b] for start in range(0, rows, b)]

    @property
    def batch_size(self) -> int:
        return len(self.labels)

    @property
    def n_modalities(self) -> int:
        return len(self.codes)


def gce_terms(probs: np.ndarray, r: float) -> np.ndarray:
    """Robust transform g(u); exact 1-u at r=1 and finite at u=0."""
    probs = np.asarray(probs, dtype=np.float64)
    return (1.0 - r) * (1.0 - np.power(probs, r)) / r + r * (1.0 - probs)


def gce_grad(probs: np.ndarray, r: float) -> np.ndarray:
    """dg/du with the floor that keeps u^(r-1) finite near zero."""
    probs = np.maximum(np.asarray(probs, dtype=np.float64), _GRAD_FLOOR)
    return -(1.0 - r) * np.power(probs, r - 1.0) - r


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row, computed in place in logits (which it returns)."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


@dataclass
class LossBuffers:
    """The scratch one mini-batch's objective is computed in: M modalities, B rows, L bits.

    ``total_loss`` leaves the objective's code gradients in ``grads``, laid out
    like ``BatchCodes.stacked``; the other three are the contrastive term's.
    """

    grads: np.ndarray        # (M*B, L)
    contrastive: np.ndarray  # (M*B, L), the contrastive term's code gradients
    softmax: np.ndarray      # (M*B, M*B), then the gradient of the logits
    symmetric: np.ndarray    # (M*B, M*B)

    @staticmethod
    def shapes(n_modalities: int, batch_size: int, code_length: int) -> tuple:
        """The fields' shapes, in field order."""
        rows = n_modalities * batch_size
        return ((rows, code_length),) * 2 + ((rows, rows),) * 2


def _positives(n_rows: int, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of each stacked row's same-instance columns, shape (M*B, M).

    Row m*B + i matches columns m'*B + i for every modality m'.
    """
    rows = np.arange(n_rows)[:, None]
    return rows, rows % batch_size + np.arange(0, n_rows, batch_size)


def _instance_softmax(batch: BatchCodes, cfg: LossConfig, buffers: LossBuffers):
    """Shared contrastive quantities.

    Returns (P, q, positives): the (MB, MB) softmax over all anchor/target code
    pairs, in buffers.softmax; per-anchor match probabilities q = the sum of P
    over the anchor's same-instance targets; and the ``_positives`` index of
    those targets. With two modalities q is p[i, i] + p[i, (i + B) mod 2B],
    bit-equal to a row sum of P masked to those targets: every other term of
    that sum is an exact 0.0.
    """
    p = np.matmul(batch.stacked, batch.stacked.T, out=buffers.softmax)
    p /= cfg.tau
    _row_softmax(p)
    positives = _positives(len(p), batch.batch_size)
    q = np.clip(p[positives].sum(axis=1), 0.0, 1.0)
    return p, q, positives


def chl_loss(
    batch: BatchCodes, cfg: LossConfig, buffers: LossBuffers
) -> tuple[float, list[np.ndarray]]:
    """Contrastive value and its gradients w.r.t. every modality's codes.

    Every (MB, MB) and (MB, L) array is written in buffers, and the gradients
    are views of buffers.contrastive.
    """
    b = batch.batch_size
    p, q, positives = _instance_softmax(batch, cfg, buffers)
    value = float(gce_terms(q, cfg.r).sum() / b)

    # g = coeff * p * (positive - q), entry by entry in that order: (coeff p)(0.0 - q)
    # everywhere, then (coeff p)(1 - q) at the positives
    coeff = gce_grad(q, cfg.r) / b
    p *= coeff[:, None]
    at_positives = p[positives]
    p *= (0.0 - q)[:, None]  # not -q: keeps the sign of a zero
    p[positives] = at_positives * (1.0 - q)[:, None]
    g_sym = np.add(p, p.T, out=buffers.symmetric)
    grad_stacked = np.matmul(g_sym, batch.stacked, out=buffers.contrastive)
    grad_stacked /= cfg.tau
    return value, [grad_stacked[m * b : (m + 1) * b] for m in range(batch.n_modalities)]


def center_probs(codes: np.ndarray, centers: np.ndarray, tau: float) -> np.ndarray:
    """Softmax over centers of code-center similarities, shape (B, K)."""
    codes = np.atleast_2d(np.asarray(codes, dtype=np.float64))
    centers = np.asarray(centers, dtype=np.float64)
    if codes.shape[1] != centers.shape[1]:
        raise ParameterError(f"code length {codes.shape[1]} != center length {centers.shape[1]}")
    return _row_softmax(codes @ centers.T / tau)


def _aggregation_matrix(batch: BatchCodes, centers: np.ndarray, cfg: LossConfig):
    """Per-modality center softmaxes and the (B, M) matrix of v values."""
    labels = np.asarray(batch.labels, dtype=np.float64)
    if (labels.sum(axis=1) == 0).any():
        raise ParameterError("a label row has no class set")
    probs = [center_probs(c, centers, cfg.tau) for c in batch.codes]
    v = np.column_stack([np.clip((p * labels).sum(axis=1), 0.0, 1.0) for p in probs])
    return probs, labels, v


def per_instance_loss(batch: BatchCodes, centers: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """loss_i = sum over modalities of g(v_i^m); bounded by M*(r^2-r+1)/r."""
    _, _, v = _aggregation_matrix(batch, centers, cfg)
    return gce_terms(v, cfg.r).sum(axis=1)


def _weighted_center_loss(
    batch: BatchCodes, centers: np.ndarray, cfg: LossConfig, scale: np.ndarray,
    out: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Value and code gradients of (1/B) sum_i scale_i * loss_i.

    The gradients are written into out, an (M*B, L) array laid out like
    ``BatchCodes.stacked``, and returned as its row blocks.
    """
    b = batch.batch_size
    probs, labels, v = _aggregation_matrix(batch, centers, cfg)
    value = float((scale * gce_terms(v, cfg.r).sum(axis=1)).sum() / b)

    centers_f = np.asarray(centers, dtype=np.float64)
    grads = []
    for m, p in enumerate(probs):
        coeff = (scale * gce_grad(v[:, m], cfg.r)) / b
        d_logits = coeff[:, None] * p * (labels - v[:, m][:, None])
        grad = np.matmul(d_logits, centers_f, out=out[m * b : (m + 1) * b])
        grad /= cfg.tau
        grads.append(grad)
    return value, grads


def cal_loss(
    batch: BatchCodes, centers: np.ndarray, cfg: LossConfig, out: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Center aggregation loss: mean of per-instance losses, with gradients (written to out)."""
    return _weighted_center_loss(batch, centers, cfg, np.ones(batch.batch_size), out)


def nsh_loss(
    batch: BatchCodes, centers: np.ndarray, weights: SampleWeights, cfg: LossConfig,
    out: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Self-paced loss: weighted center criterion plus the pace regularizer.

    Weights are constants during backprop, so the gradient is exactly the
    weight-scaled center-aggregation gradient (written to out).
    """
    w = np.asarray(weights.values, dtype=np.float64)
    if w.shape != (batch.batch_size,):
        raise ParameterError(f"{w.shape[0]} weights for batch of {batch.batch_size}")
    if w.size and (w.min() < 0 or w.max() > 1):
        raise ParameterError("sample weights must lie in [0, 1]")
    value, grads = _weighted_center_loss(batch, centers, cfg, w, out)
    penalty = weights.gamma * (0.5 * w * w - w).sum() / batch.batch_size
    return value + float(penalty), grads


def total_loss(
    batch: BatchCodes,
    centers: np.ndarray,
    weights: SampleWeights | None,
    cfg: LossConfig,
    buffers: LossBuffers,
) -> tuple[float, float | None, list[np.ndarray]]:
    """Parts of one step's objective, center + alpha * contrastive.

    Returns (center, contrastive, grads). The center term is the plain
    criterion in warm-up (no weights) and its weighted form with the pace
    regularizer otherwise. The contrastive term is None at alpha = 0, where
    it is never evaluated. grads are the code gradients of the whole
    objective: the row blocks of buffers.grads.
    """
    if weights is None:
        center, grads = cal_loss(batch, centers, cfg, buffers.grads)
    else:
        center, grads = nsh_loss(batch, centers, weights, cfg, buffers.grads)

    if not cfg.alpha > 0:
        return center, None, grads
    contrastive, _ = chl_loss(batch, cfg, buffers)
    buffers.contrastive *= cfg.alpha  # grads + alpha * contrastive grads
    buffers.grads += buffers.contrastive
    return center, contrastive, grads
