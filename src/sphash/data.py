"""Multi-modal datasets: synthetic generation, label-noise injection, splits.

A dataset holds two aligned feature matrices (one per modality), the observed
one-hot labels and the ground-truth labels; the noise mask and the class count
derive from the labels. Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError
from .seeding import spawn_rng

_LATENT_DIM = 16


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic generator."""

    n: int
    k: int
    m: int
    dims: tuple[int, ...]
    class_separation: float = 5.5
    intra_noise_std: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.n < self.k:
            raise ParameterError(f"n={self.n} must be >= k={self.k}")
        if self.k < 2:
            raise ParameterError(f"k={self.k} must be >= 2")
        if self.m != 2:
            raise ParameterError(f"m={self.m} must be 2: retrieval scores modality 0 <-> 1")
        if len(self.dims) != self.m:
            raise ParameterError(f"dims has {len(self.dims)} entries for m={self.m} modalities")
        if any(d < 2 for d in self.dims):
            raise ParameterError(f"every modality dim must be >= 2, got dims={self.dims}")
        for name in ("class_separation", "intra_noise_std"):  # written so that NaN fails too
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name}={getattr(self, name)} must be positive and finite")


@dataclass
class MultiModalDataset:
    modalities: list[np.ndarray]      # float32, each (N, d_m)
    labels: np.ndarray                # uint8 (N, K), possibly noisy
    true_labels: np.ndarray           # uint8 (N, K)
    seed: int
    # row indices into the dataset this one was sliced from; None for a root dataset
    source_rows: np.ndarray | None = field(default=None)

    @property
    def n(self) -> int:
        return self.modalities[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.modalities)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(x.shape[1] for x in self.modalities)

    @property
    def class_count(self) -> int:
        return self.labels.shape[1]

    @property
    def noise_mask(self) -> np.ndarray:  # bool (N,), True where a labels row was corrupted
        return (self.labels != self.true_labels).any(axis=1)

    def validate(self) -> None:
        if self.m != 2:
            raise ParameterError(f"a dataset needs exactly 2 modalities, got {self.m}")
        n = self.n
        for i, x in enumerate(self.modalities):
            if x.ndim != 2 or x.shape[0] != n:
                raise ParameterError(f"modality {i} has shape {x.shape}, expected ({n}, d)")
            if not np.all(np.isfinite(x)):
                raise ParameterError(f"modality {i} contains non-finite values")
        if self.labels.ndim != 2:
            raise ParameterError(f"labels shape {self.labels.shape} is not 2-d")
        for name, lab in (("labels", self.labels), ("true_labels", self.true_labels)):
            if lab.shape != (n, self.class_count):
                raise ParameterError(f"{name} shape {lab.shape} != ({n}, {self.class_count})")
            if not np.isin(lab, (0, 1)).all():
                raise ParameterError(f"{name} entries must be 0 or 1")
            if (lab.sum(axis=1) == 0).any():
                raise ParameterError(f"{name} has a row without any class")

    def take(self, rows: np.ndarray) -> "MultiModalDataset":
        """Row-subset carrying labels and provenance indices along."""
        rows = np.asarray(rows)
        source = rows if self.source_rows is None else self.source_rows[rows]
        return MultiModalDataset(
            modalities=[x[rows] for x in self.modalities],
            labels=self.labels[rows],
            true_labels=self.true_labels[rows],
            seed=self.seed,
            source_rows=source,
        )


def one_hot(classes: np.ndarray, class_count: int) -> np.ndarray:
    out = np.zeros((len(classes), class_count), dtype=np.uint8)
    out[np.arange(len(classes)), classes] = 1
    return out


def is_single_label(labels: np.ndarray) -> bool:
    return bool((labels.sum(axis=1) == 1).all())


def _balanced_classes(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    counts = np.full(k, n // k, dtype=np.int64)
    counts[: n % k] += 1
    return rng.permutation(np.repeat(np.arange(k), counts))


def generate_synthetic(spec: SynthSpec) -> MultiModalDataset:
    """Draw a class-structured multi-modal dataset.

    One latent vector per class, rescaled so that the minimum pairwise
    distance is at least ``class_separation``. Each instance perturbs its
    class latent with Gaussian noise; each modality then applies its own
    fixed random affine map followed by a gentle tanh squash, so modalities
    are heterogeneous views of the same latent point.
    """
    rng = spawn_rng(spec.seed, "synthetic")

    classes = _balanced_classes(spec.n, spec.k, rng)

    latents = rng.normal(0.0, 1.0, size=(spec.k, _LATENT_DIM))
    diffs = latents[:, None, :] - latents[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    min_dist = dist[np.triu_indices(spec.k, k=1)].min()
    if min_dist < spec.class_separation:
        latents *= spec.class_separation / min_dist

    points = latents[classes] + rng.normal(0.0, spec.intra_noise_std, size=(spec.n, _LATENT_DIM))

    modalities = []
    for d in spec.dims:
        affine = rng.normal(0.0, 1.0 / np.sqrt(_LATENT_DIM), size=(_LATENT_DIM, d))
        offset = rng.uniform(-0.5, 0.5, size=d)
        modalities.append(np.tanh(0.5 * (points @ affine + offset)).astype(np.float32))

    labels = one_hot(classes, spec.k)
    return MultiModalDataset(
        modalities=modalities,
        labels=labels,
        true_labels=labels.copy(),
        seed=spec.seed,
    )


def inject_symmetric_noise(labels: np.ndarray, rate: float, seed: int) -> np.ndarray:
    """The labels with exactly round(rate*N) rows flipped to a uniformly random other class.

    The flip count is deterministic rather than per-row Bernoulli, so the
    noise mask, the rows where the result differs from labels, has an exact
    count. Only single-label inputs are supported.
    """
    if not 0.0 <= rate <= 1.0:
        raise ParameterError(f"noise rate {rate} outside [0, 1]")
    labels = np.asarray(labels)
    if not is_single_label(labels):
        raise ParameterError("symmetric noise requires single-label (one-hot) rows")

    n, k = labels.shape
    n_flip = int(np.floor(rate * n + 0.5))
    noisy = labels.copy()
    if n_flip == 0:
        return noisy

    rng = spawn_rng(seed, "symmetric-noise")
    rows = rng.choice(n, size=n_flip, replace=False)
    old = labels[rows].argmax(axis=1)
    # uniform over the K-1 other classes
    new = rng.integers(0, k - 1, size=n_flip)
    new[new >= old] += 1
    noisy[rows] = 0
    noisy[rows, new] = 1
    return noisy


def inject_noise_subset(
    dataset: MultiModalDataset, rows: np.ndarray, rate: float, seed: int
) -> MultiModalDataset:
    """New dataset with symmetric noise applied only to the given rows."""
    rows = np.asarray(rows)
    labels = dataset.labels.copy()
    labels[rows] = inject_symmetric_noise(dataset.labels[rows], rate, seed)
    return replace(dataset, labels=labels)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _largest_remainder(quotas: np.ndarray, total: int, caps: np.ndarray) -> np.ndarray:
    """Integer allocation summing to `total`, each within 1 of its quota."""
    base = np.minimum(np.floor(quotas).astype(np.int64), caps)
    short = total - int(base.sum())
    if short > 0:
        # hand out the shortfall by descending fractional remainder, index as tie-break
        order = sorted(range(len(quotas)), key=lambda c: (-(quotas[c] - base[c]), c))
        for c in order:
            if short == 0:
                break
            if base[c] < caps[c]:
                base[c] += 1
                short -= 1
    return base


def split_sizes(n: int, train_frac: float, val_frac: float) -> tuple[int, int]:
    """(train, val) sizes round(frac*n); ParameterError unless every split is non-empty."""
    if not (train_frac > 0 and val_frac > 0):  # written so that NaN fails too
        raise ParameterError("split fractions must be positive")
    if not train_frac + val_frac < 1.0:
        raise ParameterError(
            f"train_frac + val_frac = {train_frac + val_frac} leaves no test split"
        )
    n_train = _round_half_up(train_frac * n)
    n_val = _round_half_up(val_frac * n)
    if n_train < 1 or n_val < 1 or n_train + n_val >= n:
        raise ParameterError(f"degenerate split sizes ({n_train}/{n_val}/{n - n_train - n_val})")
    return n_train, n_val


def split_rows(
    dataset: MultiModalDataset, train_frac: float, val_frac: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted row indices of a stratified disjoint train/val/test partition by true class.

    Global sizes are round(frac*N) for train and val; per-class allocations
    stay within one instance of exact proportionality.
    """
    n_train, n_val = split_sizes(dataset.n, train_frac, val_frac)

    true_class = dataset.true_labels.argmax(axis=1)
    rng = spawn_rng(seed, "split")
    per_class = [rng.permutation(np.flatnonzero(true_class == c)) for c in range(dataset.class_count)]
    counts = np.array([len(idx) for idx in per_class])

    train_alloc = _largest_remainder(train_frac * counts, n_train, counts)
    val_alloc = _largest_remainder(val_frac * counts, n_val, counts - train_alloc)

    train_rows, val_rows, test_rows = [], [], []
    for idx, tr, va in zip(per_class, train_alloc, val_alloc):
        train_rows.append(idx[:tr])
        val_rows.append(idx[tr : tr + va])
        test_rows.append(idx[tr + va :])
    return tuple(np.sort(np.concatenate(parts)) for parts in (train_rows, val_rows, test_rows))


def split(
    dataset: MultiModalDataset, train_frac: float, val_frac: float, seed: int
) -> tuple[MultiModalDataset, MultiModalDataset, MultiModalDataset]:
    """The train/val/test datasets of ``split_rows``."""
    return tuple(dataset.take(rows) for rows in split_rows(dataset, train_frac, val_frac, seed))
