"""End-to-end training.

Epochs below ``warmup_epochs`` are warm-up: they train with no weights, on
the plain center-aggregation objective. Every later epoch first refreshes
per-instance weights over the full training split with parameters frozen
(one forward pass), then runs mini-batch updates on the weighted objective
with those weights constant. Whether an epoch has weights is the only record
of its phase; ``EpochRecord.phase`` names it for the report.
Every epoch ends with a validation, and model selection keeps the weights
from the epoch with the best validation MAP (mean of both retrieval
directions); ``train`` writes no file. Two runs with the same config and
seed produce identical reports: batch order, reduction order, and every
sub-seed derive from the run seed.

A mini-batch step runs every encoder forward once, takes the objective's
parts and code gradients from ``losses.total_loss``, runs
backward through the stored activations, and applies one elementwise Adam
update to the flat weight vector (layout in ``encoder``).
Every step, weight refresh and validation of a run writes into one workspace
allocated before the first epoch, so the thousands of steps of a run allocate
no array that scales with the batch, the chunk or the weights. Features stay
float32; each batch or chunk is cast to float64 (exactly) as it is read.

Variants (ablations and robustness probes):
  full             the complete method
  no_warmup        warmup_epochs forced to 0
  no_chl           contrastive weight alpha forced to 0, term never evaluated
  no_spl           self-paced phase runs with all weights = 1
  binarize_weights every nonzero weight rounded up to 1 after each refresh
  gamma_override   gamma fixed above the loss upper bound (200 unless a pace
                   is given), admitting everyone

``resolve_config`` forces the settings of no_warmup, no_chl and gamma_override;
the refresh applies the weight rules of no_spl and binarize_weights to the
epoch's row of ``TrainReport.weights``, which is the only copy of its weights.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluator, losses, pacer
from .data import MultiModalDataset
from .encoder import (
    HashEncoderParams,
    backward,
    backward_scratch_size,
    binarize,
    carve,
    encode,
    flat_size,
    forward,
    init_centers,
    init_params,
)
from .errors import ParameterError, TrainingDivergedError
from .fileio import write_csv, write_weight_log
from .losses import BatchCodes, LossBuffers, LossConfig
from .pacer import PaceSchedule, SampleWeights
from .seeding import spawn_rng

VARIANTS = ("full", "no_warmup", "no_chl", "no_spl", "binarize_weights", "gamma_override")
WARMUP = "warmup"
SELFPACED = "selfpaced"

# rows per refresh or encoding chunk; a product's last bits depend on its row count
# (``encoder.encode``), so this and a split's short last chunk fix the artifacts' bytes
_REFRESH_CHUNK = 1024
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_GAMMA_OVERRIDE_DEFAULT = 200.0


@dataclass(frozen=True)
class TrainConfig:
    code_length: int = 32
    hidden_dim: int = 256
    batch_size: int = 128
    warmup_epochs: int = 5
    max_epochs: int = 200
    learning_rate: float = 1e-3
    loss: LossConfig = field(default_factory=LossConfig)
    pace: PaceSchedule | None = None  # None resolves per variant in resolve_config
    seed: int = 0
    variant: str = "full"
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
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")


def resolve_config(config: TrainConfig, n_modalities: int) -> TrainConfig:
    """Materialize defaults and apply the variant's forced settings."""
    loss_cfg = config.loss
    warmup = config.warmup_epochs
    if config.variant == "no_chl":
        loss_cfg = dataclasses.replace(loss_cfg, alpha=0.0)
    if config.variant == "no_warmup":
        warmup = 0

    pace = config.pace
    upper = pacer.loss_upper_bound(n_modalities, loss_cfg.r)
    if config.variant == "gamma_override":
        # deliberately above the admissible interval: every instance admitted
        pace = pace or PaceSchedule(gamma_start=_GAMMA_OVERRIDE_DEFAULT)
        if not pace.gamma_start > upper:  # a ramp never falls below its start
            raise ParameterError(f"gamma_override needs gamma {pace.gamma_start} above the "
                                 f"loss bound {upper} for M={n_modalities}, r={loss_cfg.r}")
    else:
        pace = pace or PaceSchedule(gamma_start=0.5 * upper)
        if not pace.resolved_end < upper:  # the admissible interval is (0, upper)
            raise ParameterError(f"gamma reaches {pace.resolved_end}, outside (0, {upper}) for "
                                 f"M={n_modalities}, r={loss_cfg.r}")
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
    val_map_i2t: float
    val_map_t2i: float


@dataclass
class TrainReport:
    """The resolved config, a record per epoch, the self-paced history (row i of instance_losses
    and weights is epoch warmup_epochs + i) and best_epoch's encoder weights with the centers."""

    config: TrainConfig
    records: list[EpochRecord]
    instance_losses: np.ndarray  # (max_epochs - warmup_epochs, N)
    weights: np.ndarray          # same shape
    best_epoch: int
    best_val_map: float
    best_params: HashEncoderParams
    centers: np.ndarray


class _OptimizerState:
    """Adam's step count and moments m and v, laid out like ``params.flat``."""

    def __init__(self, params: HashEncoderParams):
        self.step_count = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def apply(self, params: HashEncoderParams, grad: np.ndarray, lr: float,
              scratch: np.ndarray) -> None:
        """One elementwise update of params.flat from a gradient of the same layout.

        The two rows of scratch, shaped (2, params.flat.size), take the update
        and its denominator. They are computed by the formula's operations in
        its order, so the result has the bits of the formula evaluated with
        temporaries.
        """
        update, denominator = scratch
        self.step_count += 1
        correction1 = 1.0 - _ADAM_BETA1**self.step_count
        correction2 = 1.0 - _ADAM_BETA2**self.step_count
        self.m *= _ADAM_BETA1
        self.m += np.multiply(1.0 - _ADAM_BETA1, grad, out=update)
        self.v *= _ADAM_BETA2
        np.multiply(1.0 - _ADAM_BETA2, grad, out=update)
        self.v += np.multiply(update, grad, out=update)
        # lr * (m / correction1) / (sqrt(v / correction2) + eps)
        np.divide(self.m, correction1, out=update)
        np.multiply(lr, update, out=update)
        np.divide(self.v, correction2, out=denominator)
        np.sqrt(denominator, out=denominator)
        denominator += _ADAM_EPS
        params.flat -= np.divide(update, denominator, out=update)


@dataclass
class _StepViews:
    """One step's arrays in the workspace arena, for a batch of B rows."""

    inputs: list[np.ndarray]  # (B, d_m) per modality: the batch's features
    hidden: list[np.ndarray]  # (B, hidden) per modality
    codes: np.ndarray         # (M*B, L): the batch's codes, laid out as BatchCodes.stacked
    loss: LossBuffers         # code gradients and contrastive scratch
    scratch: np.ndarray       # backward's intermediates, shared by the modalities


class _Workspace:
    """The memory every training step, weight refresh and validation of a run writes into.

    One float64 arena holds, in turn, a step's temporaries (``step_views``),
    the optimizer update's scratch (``update_scratch``) and the activations of
    a refresh or validation chunk (``refresh_views``). These phases never
    overlap: the update runs after backward has read the last step temporary,
    and a refresh or a validation runs between epochs. The views for fewer
    rows than the arena was sized for are contiguous reshapes of its leading
    elements, so a short batch or chunk touches no new memory. ``grad`` is the flat gradient, laid out like
    ``params.flat``, one block per modality in ``grad_blocks``; it is not in
    the arena, since the update reads it.
    """

    def __init__(self, params: HashEncoderParams, batch_rows: int, refresh_rows: int = 0):
        self.dims, self.hidden_dim = params.dims, params.hidden_dim
        self.code_length = params.code_length
        update_shape = (2, params.flat.size)
        size = max(sum(map(math.prod, self._step_shapes(batch_rows))),
                   sum(map(math.prod, self._refresh_shapes(refresh_rows))),
                   math.prod(update_shape))
        self.arena = np.empty(size)
        (self.update_scratch,) = carve(self.arena, update_shape)
        self.grad = np.empty_like(params.flat)
        self.grad_blocks = carve(
            self.grad, *[(flat_size((d,), self.hidden_dim, self.code_length),) for d in self.dims]
        )

    def _step_shapes(self, rows: int) -> list[tuple]:
        h, l, m = self.hidden_dim, self.code_length, len(self.dims)
        return [*((rows, d) for d in self.dims), *[(rows, h)] * m, (m * rows, l),
                *LossBuffers.shapes(m, rows, l), (backward_scratch_size(rows, h, l),)]

    def _refresh_shapes(self, rows: int) -> list[tuple]:
        return [(rows, self.hidden_dim), (len(self.dims) * rows, self.code_length)]

    def step_views(self, rows: int) -> _StepViews:
        m = len(self.dims)
        views = carve(self.arena, *self._step_shapes(rows))
        return _StepViews(views[:m], views[m : 2 * m], views[2 * m],
                          LossBuffers(*views[2 * m + 1 : -1]), views[-1])

    def refresh_views(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """A chunk's hidden activations, which the modalities take in turn, and its
        codes, laid out as ``BatchCodes.stacked``."""
        return tuple(carve(self.arena, *self._refresh_shapes(rows)))


def step(
    params: HashEncoderParams,
    centers: np.ndarray,
    workspace: _Workspace,
    views: _StepViews,
    y_batch: np.ndarray,
    weights: SampleWeights | None,
    config: TrainConfig,
    opt_state: _OptimizerState,
    epoch: int = -1,
    batch_index: int = -1,
) -> dict:
    """One optimizer step on the batch whose features views.inputs holds; returns
    the loss parts. No weights means warm-up.

    Each encoder runs forward once; backward reuses those activations, and
    the modality gradients fill one vector laid out like params.flat. Every
    array that scales with the batch or the weights is one of the workspace's,
    views among them (``workspace.step_views`` for this batch's rows), so a
    step allocates only small vectors.
    """
    mods = params.modalities
    batch = BatchCodes(views.codes, y_batch)  # ParameterError for an empty batch
    for mod, x, hidden, out in zip(mods, views.inputs, views.hidden, batch.codes):
        forward(mod, x, (hidden, out))
    center, contrastive, code_grads = losses.total_loss(
        batch, centers, weights, config.loss, views.loss
    )
    total = center if contrastive is None else center + config.loss.alpha * contrastive
    if not np.isfinite(total):
        raise TrainingDivergedError(f"non-finite loss {total} at epoch {epoch}, "
                                    f"batch {batch_index}")

    for mod, x, hidden, out, g, grad in zip(
        mods, views.inputs, views.hidden, batch.codes, code_grads, workspace.grad_blocks
    ):
        backward(mod, x, hidden, out, g, grad, views.scratch)
    opt_state.apply(params, workspace.grad, config.learning_rate, workspace.update_scratch)
    return {"total": total, "contrastive": contrastive, "center": center}


def _full_train_losses(
    params: HashEncoderParams, centers: np.ndarray, x_all: list[np.ndarray],
    labels: np.ndarray, cfg: LossConfig, epoch: int, workspace: _Workspace, out: np.ndarray,
) -> np.ndarray:
    """Per-instance losses over the whole training split, parameters frozen, written to out.

    The split is encoded _REFRESH_CHUNK rows at a time into the workspace,
    each chunk cast to float64 as it is read.
    """
    n = labels.shape[0]
    for start in range(0, n, _REFRESH_CHUNK):
        stop = min(start + _REFRESH_CHUNK, n)
        hidden, codes = workspace.refresh_views(stop - start)
        batch = BatchCodes(codes, labels[start:stop])
        for mod, x, mod_codes in zip(params.modalities, x_all, batch.codes):
            encode(mod, x[start:stop], (hidden, mod_codes))
        out[start:stop] = losses.per_instance_loss(batch, centers, cfg)
    if not np.all(np.isfinite(out)):
        raise TrainingDivergedError(f"non-finite instance loss at epoch {epoch}")
    return out


def binary_codes(params: HashEncoderParams, dataset: MultiModalDataset, modality: int,
                 buffers: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Binarized int8 codes of one modality of a dataset, encoded _REFRESH_CHUNK rows at a time.

    Every chunk is computed in buffers, a float64 (hidden, codes) pair of at
    least min(_REFRESH_CHUNK, n) rows, allocated once when None.
    """
    n = dataset.n
    if buffers is None:
        rows = min(_REFRESH_CHUNK, n)
        buffers = np.empty((rows, params.hidden_dim)), np.empty((rows, params.code_length))
    mod, x = params.modalities[modality], dataset.modalities[modality]
    codes = np.empty((n, params.code_length), dtype=np.int8)
    for start in range(0, n, _REFRESH_CHUNK):
        stop = min(start + _REFRESH_CHUNK, n)
        pair = tuple(b[: stop - start] for b in buffers)
        codes[start:stop] = binarize(encode(mod, x[start:stop], pair))
    return codes


def _validation_map(
    params: HashEncoderParams,
    val_ds: MultiModalDataset,
    clean_val: bool,
    workspace: _Workspace,
) -> tuple[float, float]:
    """Cross-modal MAP within the validation split, encoded in the workspace's refresh views.

    Relevance uses only the validation split's own labels (ground-truth ones
    under clean_val), so model selection never peeks at train-split truth.
    """
    rows = min(_REFRESH_CHUNK, val_ds.n)
    hidden, relaxed = workspace.refresh_views(rows)
    codes = [binary_codes(params, val_ds, modality, (hidden, relaxed[:rows]))
             for modality in range(val_ds.m)]
    labels = val_ds.true_labels if clean_val else val_ds.labels
    i2t, t2i = (evaluator.RetrievalTask(codes[query], labels, codes[gallery], labels)
                for _, query, gallery in evaluator.DIRECTIONS)
    return evaluator.mean_average_precision(i2t), evaluator.mean_average_precision(t2i)


def train(
    train_ds: MultiModalDataset,
    val_ds: MultiModalDataset,
    config: TrainConfig,
) -> TrainReport:
    train_ds.validate()
    val_ds.validate()
    if (val_ds.dims, val_ds.class_count) != (train_ds.dims, train_ds.class_count):
        raise ParameterError(f"validation split has dims {val_ds.dims} and {val_ds.class_count} "
                             f"classes, training split {train_ds.dims} and {train_ds.class_count}")
    config = resolve_config(config, train_ds.m)

    params = init_params(train_ds.dims, config.hidden_dim, config.code_length, config.seed)
    centers = init_centers(train_ds.class_count, config.code_length, config.seed)
    opt_state = _OptimizerState(params)

    labels = train_ds.labels
    n_train = train_ds.n
    workspace = _Workspace(params, min(config.batch_size, n_train),
                           min(_REFRESH_CHUNK, max(n_train, val_ds.n)))

    records: list[EpochRecord] = []
    paced_losses = np.empty((config.max_epochs - config.warmup_epochs, n_train))
    paced_weights = np.empty_like(paced_losses)
    best_epoch, best_map = -1, -np.inf
    best_flat = params.flat.copy()  # filled in place: no new allocation per improvement

    for epoch in range(config.max_epochs):
        weights_row = gamma = zero_count = None  # no weights: a warm-up epoch
        if epoch >= config.warmup_epochs:
            paced = epoch - config.warmup_epochs
            gamma = pacer.gamma_at(config.pace, paced)
            weights_row = paced_weights[paced]
            _full_train_losses(params, centers, train_ds.modalities, labels, config.loss, epoch,
                               workspace, paced_losses[paced])
            weights_row[:] = pacer.refresh_weights(paced_losses[paced], gamma).values
            if config.variant == "no_spl":
                weights_row[:] = 1.0
            elif config.variant == "binarize_weights":
                weights_row[weights_row > 0] = 1.0
            zero_count = int((weights_row == 0).sum())

        perm = spawn_rng(config.seed, "shuffle", epoch).permutation(n_train)
        sums = {"total": 0.0, "contrastive": 0.0, "center": 0.0}
        for batch_index, start in enumerate(range(0, n_train, config.batch_size)):
            rows = perm[start : start + config.batch_size]
            w_slice = None if weights_row is None else SampleWeights(weights_row[rows], gamma)
            views = workspace.step_views(len(rows))
            for x, batch_x in zip(train_ds.modalities, views.inputs):
                np.copyto(batch_x, x[rows])  # take(out=) cannot cast float32 to float64
            parts = step(params, centers, workspace, views, labels[rows], w_slice, config,
                         opt_state, epoch=epoch, batch_index=batch_index)
            sums["total"] += parts["total"] * len(rows)
            sums["center"] += parts["center"] * len(rows)
            if parts["contrastive"] is not None:
                sums["contrastive"] += parts["contrastive"] * len(rows)

        val_i2t, val_t2i = _validation_map(params, val_ds, config.clean_val, workspace)
        mean_map = 0.5 * (val_i2t + val_t2i)
        if mean_map > best_map:
            best_map = mean_map
            best_epoch = epoch
            best_flat[:] = params.flat

        records.append(
            EpochRecord(
                epoch=epoch,
                phase=WARMUP if weights_row is None else SELFPACED,
                loss_total=sums["total"] / n_train,
                loss_contrastive=sums["contrastive"] / n_train if config.loss.alpha > 0 else None,
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
        instance_losses=paced_losses,
        weights=paced_weights,
        best_epoch=best_epoch,
        best_val_map=float(best_map),
        best_params=dataclasses.replace(params, flat=best_flat),
        centers=centers,
    )


def write_report_csv(report: TrainReport, path) -> None:
    """One row per epoch, one column per EpochRecord field; empty where it does not apply."""
    columns = [f.name for f in dataclasses.fields(EpochRecord)]
    write_csv(path, columns, [dataclasses.astuple(rec) for rec in report.records])


def write_weight_log_csv(report: TrainReport, train_ds: MultiModalDataset, path) -> None:
    """Per-epoch weight dump (``fileio.write_weight_log``) for detection analysis."""
    rows = np.arange(train_ds.n) if train_ds.source_rows is None else train_ds.source_rows
    write_weight_log(path, report.config.warmup_epochs, report.instance_losses, report.weights,
                     rows, train_ds.noise_mask)
