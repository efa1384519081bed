"""Self-paced weighting.

Joint minimization of w*loss + gamma*(w^2/2 - w) over w in [0,1] has the
closed form w* = max(0, 1 - loss/gamma): instances whose loss reaches the
pace parameter gamma get weight zero and are treated as mislabeled, easy
instances get weight near one, and raising gamma admits harder instances.
Gamma itself must stay inside (0, loss_upper_bound) or the mechanism
degenerates (nothing selected / everything selected); ``trainer.resolve_config``
rejects a schedule that leaves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass
class SampleWeights:
    """Per-instance weights in [0,1] plus the pace parameter they came from."""

    values: np.ndarray
    gamma: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not self.gamma > 0:
            raise ParameterError(f"gamma={self.gamma} must be positive")
        if self.values.size and (self.values.min() < 0 or self.values.max() > 1):
            raise ParameterError("sample weights must lie in [0, 1]")


@dataclass(frozen=True)
class PaceSchedule:
    """How gamma evolves over the self-paced epochs.

    gamma_start throughout when gamma_end is None, else a linear ramp to
    gamma_end over ramp_epochs that then holds.
    """

    gamma_start: float = 1.0
    gamma_end: float | None = None
    ramp_epochs: int = 1

    def __post_init__(self):
        # the comparisons are written so that NaN fails them too
        if not 0 < self.gamma_start < math.inf:
            raise ParameterError(f"gamma_start={self.gamma_start} must be positive and finite")
        if not self.gamma_start <= self.resolved_end < math.inf:
            raise ParameterError(f"gamma_end={self.gamma_end} must be finite and >= gamma_start")
        if self.ramp_epochs < 1:
            raise ParameterError("ramp_epochs must be >= 1")

    @property
    def resolved_end(self) -> float:
        return self.gamma_start if self.gamma_end is None else self.gamma_end


def loss_upper_bound(n_modalities: int, r: float) -> float:
    """Largest possible per-instance loss, attained when every v_m = 0."""
    return n_modalities * (r * r - r + 1.0) / r


def gamma_at(schedule: PaceSchedule, epoch: int) -> float:
    """Gamma for the given epoch of the self-paced phase (0-based)."""
    if epoch < 0:
        raise ParameterError(f"epoch {epoch} must be >= 0")
    frac = min(1.0, epoch / schedule.ramp_epochs)
    return schedule.gamma_start + (schedule.resolved_end - schedule.gamma_start) * frac


def refresh_weights(losses: np.ndarray, gamma: float) -> SampleWeights:
    """One-pass optimal weights for the whole training set, parameters frozen."""
    losses = np.asarray(losses, dtype=np.float64)
    if not np.all(np.isfinite(losses)):
        raise ParameterError("per-instance losses must be finite")
    if losses.size and losses.min() < 0:
        raise ParameterError("per-instance losses must be non-negative")
    if not gamma > 0:
        raise ParameterError(f"gamma={gamma} must be positive")
    return SampleWeights(np.maximum(0.0, 1.0 - losses / gamma), gamma)
