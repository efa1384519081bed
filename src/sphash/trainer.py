"""End-to-end training.

Epochs below ``warmup_epochs`` minimize the plain center-aggregation
objective; every later epoch first refreshes per-instance weights over the
full training split with parameters frozen (one forward pass), then runs
mini-batch updates on the weighted objective with those weights constant.
Model selection keeps the checkpoint from the epoch with the best validation
MAP (mean of both retrieval directions). Two runs with the same config and
seed produce identical reports: batch order, reduction order, and every
sub-seed derive from the run seed.

A mini-batch step runs every encoder forward once, takes the phase
objective's parts and code gradients from ``losses.total_loss``, runs
backward through the stored activations, and applies one elementwise SGD or
adaptive-moments update to the flat weight vector (layout in ``encoder``).

Variants (ablations and robustness probes):
  full             the complete method
  no_warmup        warmup_epochs forced to 0
  no_chl           contrastive weight alpha forced to 0, term never evaluated
  no_spl           self-paced phase runs with all weights = 1
  binarize_weights every nonzero weight rounded up to 1 after each refresh
  gamma_override   gamma fixed above the loss upper bound, admitting everyone
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluator, losses, pacer
from .data import MultiModalDataset
from .encoder import (
    HashEncoderParams,
    backward,
    binarize,
    encode,
    forward,
    init_centers,
    init_params,
)
from .errors import ParameterError, ShapeError, TrainingDivergedError
from .fileio import save_checkpoint, write_csv
from .losses import SELFPACED, WARMUP, BatchCodes, LossConfig
from .pacer import PaceSchedule, SampleWeights
from .seeding import spawn_rng

VARIANTS = ("full", "no_warmup", "no_chl", "no_spl", "binarize_weights", "gamma_override")
OPTIMIZERS = ("sgd", "adaptive_moments")

_REFRESH_CHUNK = 1024
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    code_length: int = 32
    hidden_dim: int = 256
    batch_size: int = 128
    warmup_epochs: int = 5
    max_epochs: int = 200
    learning_rate: float = 1e-3
    optimizer: str = "adaptive_moments"
    loss: LossConfig = field(default_factory=LossConfig)
    pace: PaceSchedule | None = None  # None resolves to fixed gamma at half the upper bound
    seed: int = 0
    variant: str = "full"
    eval_every: int = 1
    clean_val: bool = False  # validate against true labels instead of observed ones

    def __post_init__(self):
        if self.code_length < 1 or self.hidden_dim < 1:
            raise ParameterError("code_length and hidden_dim must be positive")
        if self.batch_size < 2:
            raise ParameterError("batch_size must be >= 2 (the contrastive term needs a negative)")
        if not 0 <= self.warmup_epochs < self.max_epochs:
            raise ParameterError(
                f"need 0 <= warmup_epochs < max_epochs, got {self.warmup_epochs}/{self.max_epochs}"
            )
        if not 0 <= self.learning_rate < math.inf:  # written so that NaN fails too
            raise ParameterError("learning_rate must be non-negative and finite")
        if self.optimizer not in OPTIMIZERS:
            raise ParameterError(f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZERS}")
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.eval_every < 1:
            raise ParameterError("eval_every must be >= 1")


def resolve_config(config: TrainConfig, n_modalities: int) -> TrainConfig:
    """Materialize defaults and apply the variant's forced settings."""
    loss_cfg = config.loss
    warmup = config.warmup_epochs
    if config.variant == "no_chl":
        loss_cfg = dataclasses.replace(loss_cfg, alpha=0.0)
    if config.variant == "no_warmup":
        warmup = 0

    pace = config.pace
    _, upper = pacer.gamma_bounds(n_modalities, loss_cfg.r)
    if config.variant == "gamma_override":
        if pace is None:
            raise ParameterError("variant gamma_override needs an explicit gamma")
        # deliberately outside the admissible interval: every instance admitted
    else:
        if pace is None:
            pace = PaceSchedule(mode="fixed", gamma_start=0.5 * upper)
        pacer.validate_schedule(pace, n_modalities, loss_cfg.r)
    return dataclasses.replace(config, loss=loss_cfg, warmup_epochs=warmup, pace=pace)


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    loss_total: float
    loss_contrastive: float | None  # None when the term was never evaluated
    loss_center: float              # plain criterion in warm-up, weighted + penalty after
    gamma: float | None
    zero_weight_count: int | None
    val_map_i2t: float | None
    val_map_t2i: float | None


@dataclass
class WeightSnapshot:
    """Weights in effect during one self-paced epoch, with their losses."""

    epoch: int
    gamma: float
    losses: np.ndarray
    weights: np.ndarray


@dataclass
class TrainReport:
    config: TrainConfig
    records: list[EpochRecord]
    weight_log: list[WeightSnapshot]
    best_epoch: int
    best_val_map: float
    checkpoint_path: Path


class _OptimizerState:
    """SGD, or the adaptive moments m and v laid out like ``params.flat``."""

    def __init__(self, kind: str, params: HashEncoderParams):
        self.kind = kind
        self.step_count = 0
        if kind == "adaptive_moments":
            self.m = np.zeros_like(params.flat)
            self.v = np.zeros_like(params.flat)

    def apply(self, params: HashEncoderParams, grad: np.ndarray, lr: float) -> None:
        """One elementwise update of params.flat from a gradient of the same layout."""
        if self.kind == "sgd":
            params.flat -= lr * grad
            return
        self.step_count += 1
        correction1 = 1.0 - _ADAM_BETA1**self.step_count
        correction2 = 1.0 - _ADAM_BETA2**self.step_count
        self.m *= _ADAM_BETA1
        self.m += (1.0 - _ADAM_BETA1) * grad
        self.v *= _ADAM_BETA2
        self.v += (1.0 - _ADAM_BETA2) * grad * grad
        params.flat -= lr * (self.m / correction1) / (np.sqrt(self.v / correction2) + _ADAM_EPS)


def step(
    params: HashEncoderParams,
    centers: np.ndarray,
    x_batch: list[np.ndarray],
    y_batch: np.ndarray,
    phase: str,
    weights: SampleWeights | None,
    config: TrainConfig,
    opt_state: _OptimizerState,
    epoch: int = -1,
    batch_index: int = -1,
) -> dict:
    """One optimizer step on the phase objective; returns the loss parts.

    Each encoder runs forward once; backward reuses those activations, and
    the modality gradients join into one vector laid out like params.flat.
    """
    mods = params.modalities
    if len(x_batch) != len(mods):
        raise ShapeError(f"{len(x_batch)} feature blocks for {len(mods)} encoders")
    if y_batch.shape[0] == 0:
        raise ShapeError("empty batch")

    acts = [forward(mod, x) for mod, x in zip(mods, x_batch)]
    batch = BatchCodes([codes for _, codes in acts], y_batch)
    center, contrastive, code_grads = losses.total_loss(phase, batch, centers, weights, config.loss)
    total = center if contrastive is None else center + config.loss.alpha * contrastive
    if not np.isfinite(total):
        raise TrainingDivergedError(
            f"non-finite loss {total} at epoch {epoch}, batch {batch_index}", epoch, batch_index
        )

    grad = np.concatenate([
        backward(mod, x, hidden, codes, g)
        for mod, x, (hidden, codes), g in zip(mods, x_batch, acts, code_grads)
    ])
    opt_state.apply(params, grad, config.learning_rate)
    return {"total": total, "contrastive": contrastive, "center": center}


def _full_train_losses(
    params: HashEncoderParams, centers: np.ndarray, x_all: list[np.ndarray],
    labels: np.ndarray, cfg: LossConfig, epoch: int,
) -> np.ndarray:
    """Per-instance losses over the whole training split, parameters frozen."""
    n = labels.shape[0]
    out = np.empty(n)
    for start in range(0, n, _REFRESH_CHUNK):
        stop = min(start + _REFRESH_CHUNK, n)
        codes = [encode(mod, x[start:stop]) for mod, x in zip(params.modalities, x_all)]
        out[start:stop] = losses.per_instance_loss(
            BatchCodes(codes, labels[start:stop]), centers, cfg
        )
    if not np.all(np.isfinite(out)):
        raise TrainingDivergedError(f"non-finite instance loss at epoch {epoch}", epoch, -1)
    return out


def binary_codes(params: HashEncoderParams, dataset: MultiModalDataset) -> list[np.ndarray]:
    """Binarized codes for every modality of a dataset."""
    return [binarize(encode(mod, x)) for mod, x in zip(params.modalities, dataset.modalities)]


def _validation_map(
    params: HashEncoderParams,
    val_ds: MultiModalDataset,
    clean_val: bool,
) -> tuple[float, float]:
    """Cross-modal MAP within the validation split.

    Relevance uses only the validation split's own labels (ground-truth ones
    under clean_val), so model selection never peeks at train-split truth.
    """
    codes = binary_codes(params, val_ds)
    labels = val_ds.true_labels if clean_val else val_ds.labels
    i2t, t2i = evaluator.cross_modal_tasks(codes, labels, codes, labels)
    return evaluator.mean_average_precision(i2t), evaluator.mean_average_precision(t2i)


def train(
    train_ds: MultiModalDataset,
    val_ds: MultiModalDataset,
    config: TrainConfig,
    workdir,
) -> TrainReport:
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = resolve_config(config, train_ds.m)

    params = init_params(train_ds.dims, config.hidden_dim, config.code_length, config.seed)
    centers = init_centers(train_ds.class_count, config.code_length, config.seed)
    opt_state = _OptimizerState(config.optimizer, params)

    x_all = [x.astype(np.float64) for x in train_ds.modalities]
    labels = train_ds.labels
    n_train = train_ds.n

    checkpoint_path = workdir / "checkpoint.bin"
    records: list[EpochRecord] = []
    weight_log: list[WeightSnapshot] = []
    best_epoch, best_map = -1, -np.inf

    for epoch in range(config.max_epochs):
        phase = WARMUP if epoch < config.warmup_epochs else SELFPACED

        weights_all = None
        gamma = None
        zero_count = None
        if phase == SELFPACED:
            gamma = pacer.gamma_at(config.pace, epoch - config.warmup_epochs)
            instance_losses = _full_train_losses(params, centers, x_all, labels, config.loss, epoch)
            weights_all = pacer.refresh_weights(instance_losses, gamma)
            if config.variant == "no_spl":
                weights_all = SampleWeights(np.ones(n_train), gamma)
            elif config.variant == "binarize_weights":
                weights_all = pacer.binarize_weights(weights_all)
            zero_count = int((weights_all.values == 0).sum())
            weight_log.append(
                WeightSnapshot(epoch, gamma, instance_losses, weights_all.values.copy())
            )

        perm = spawn_rng(config.seed, "shuffle", epoch).permutation(n_train)
        sums = {"total": 0.0, "contrastive": 0.0, "center": 0.0}
        saw_contrastive = False
        for batch_index, start in enumerate(range(0, n_train, config.batch_size)):
            rows = perm[start : start + config.batch_size]
            w_slice = None
            if weights_all is not None:
                w_slice = SampleWeights(weights_all.values[rows], weights_all.gamma)
            parts = step(
                params,
                centers,
                [x[rows] for x in x_all],
                labels[rows],
                phase,
                w_slice,
                config,
                opt_state,
                epoch=epoch,
                batch_index=batch_index,
            )
            sums["total"] += parts["total"] * len(rows)
            sums["center"] += parts["center"] * len(rows)
            if parts["contrastive"] is not None:
                sums["contrastive"] += parts["contrastive"] * len(rows)
                saw_contrastive = True

        val_i2t = val_t2i = None
        if epoch % config.eval_every == 0 or epoch == config.max_epochs - 1:
            val_i2t, val_t2i = _validation_map(params, val_ds, config.clean_val)
            mean_map = 0.5 * (val_i2t + val_t2i)
            if mean_map > best_map:
                best_map = mean_map
                best_epoch = epoch
                save_checkpoint(params, centers, checkpoint_path)

        records.append(
            EpochRecord(
                epoch=epoch,
                phase=phase,
                loss_total=sums["total"] / n_train,
                loss_contrastive=sums["contrastive"] / n_train if saw_contrastive else None,
                loss_center=sums["center"] / n_train,
                gamma=gamma,
                zero_weight_count=zero_count,
                val_map_i2t=val_i2t,
                val_map_t2i=val_t2i,
            )
        )

    return TrainReport(
        config=config,
        records=records,
        weight_log=weight_log,
        best_epoch=best_epoch,
        best_val_map=float(best_map),
        checkpoint_path=checkpoint_path,
    )


def write_report_csv(report: TrainReport, path) -> None:
    """One row per epoch, one column per EpochRecord field; empty where it does not apply."""
    columns = [f.name for f in dataclasses.fields(EpochRecord)]
    write_csv(path, columns, [dataclasses.astuple(rec) for rec in report.records])


def write_weight_log_csv(report: TrainReport, train_ds: MultiModalDataset, path) -> None:
    """Per-epoch weight dump enabling weight-density and detection analysis."""
    rows = train_ds.source_rows
    if rows is None:
        rows = np.arange(train_ds.n)
    # plain Python scalars: the cell rule formats them faster than numpy ones
    rows, noisy = rows.tolist(), train_ds.noise_mask.astype(int).tolist()
    write_csv(
        path,
        ("epoch", "instance_index", "loss", "weight", "is_noisy_ground_truth"),
        (
            (snap.epoch, row, loss, weight, is_noisy)
            for snap in report.weight_log
            for row, loss, weight, is_noisy in zip(
                rows, snap.losses.tolist(), snap.weights.tolist(), noisy
            )
        ),
    )
