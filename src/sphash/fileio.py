"""On-disk formats: the one module that reads or writes any of them.

Feature file ("FMAT"): 24-byte header — 4-byte magic, u16 version, u16
reserved zero, u64 row count, u64 column count, all little-endian — followed
by rows*cols float32 values in row-major order. Label file ("LMAT") shares
the header layout with its own magic and a payload of one byte per entry in
{0,1}. A dataset is the ``dataset_files`` (the noise mask an N x 1 label file)
in one directory; its JSON manifest names exactly those files and holds every
other key, the split record included. A model checkpoint is a single binary
with its own magic. One bounded reader (``_Reader``) parses every binary file.

Text artifacts follow one rule each. CSV (``write_csv``): a header line of
column names, one line per row and a trailing newline; a cell is empty for
None, six decimals for a float and ``str`` of anything else. JSON
(``write_json``): two-space indent, sorted keys and a trailing newline, with
dataclasses, numpy scalars and paths converted. The weight dump
``weights.csv`` is a CSV of ``WEIGHT_LOG_COLUMNS``, one row per self-paced
epoch and training instance; every run has a self-paced epoch, so it has rows.

Every artifact, binary or text, is written to a temp file beside its target
and renamed over it, so readers never see a partial file. ``atomic_write``
writes byte chunks in turn (a header and blocks, one weight-dump epoch each):
no writer joins its pieces first.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .data import MultiModalDataset, split_sizes
from .encoder import HashEncoderParams, flat_size
from .errors import FormatError, ParameterError

FEATURE_MAGIC = b"FMAT"
LABEL_MAGIC = b"LMAT"
CHECKPOINT_MAGIC = bytes((0x52, 0x53, 0x48, 0x4E))
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHHQQ")
_MAX_ELEMENTS = 1 << 40  # anything larger is a corrupt header, not a real matrix

# the weights.csv header, which read_weight_log requires verbatim, and its row format
WEIGHT_LOG_COLUMNS = ("epoch", "instance_index", "loss", "weight", "is_noisy_ground_truth")
_WEIGHT_LOG_ROW = "%d,%d,%.6f,%.6f,%d\n"
_WEIGHT_LOG_DTYPE = np.dtype(
    [(name, np.float64 if name in ("loss", "weight") else np.int64) for name in WEIGHT_LOG_COLUMNS]
)


def atomic_write(path, chunks) -> None:
    """Write byte chunks in turn to a temp file beside path, then rename it over path.

    A write that raises, a chunk's included, removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 included: it subclasses float
        return f"{value:.6f}"
    return str(value)


def write_csv(path, columns, rows) -> None:
    """Write a header of ``columns`` and one line per row of cells."""
    lines = (",".join(map(_csv_cell, row)) + "\n" for row in [columns, *rows])
    atomic_write(path, ["".join(lines).encode()])


def write_weight_log(path, first_epoch, losses, weights, instance_index, noisy) -> None:
    """One row per epoch and instance in write_csv's bytes, one epoch at a time; row i
    of the (epochs, N) ``losses`` and ``weights`` is epoch first_epoch + i."""
    rows, noisy = instance_index.tolist(), noisy.astype(int).tolist()

    def chunks():
        yield (",".join(WEIGHT_LOG_COLUMNS) + "\n").encode()
        for epoch, loss, weight in zip(itertools.count(first_epoch), losses, weights):
            cells = zip(itertools.repeat(epoch), rows, loss.tolist(), weight.tolist(), noisy)
            yield "".join(map(_WEIGHT_LOG_ROW.__mod__, cells)).encode()

    atomic_write(path, chunks())


def read_weight_log(path):
    """The last epoch's (instance_index, weight, is_noisy_ground_truth).

    FormatError for a header other than ``WEIGHT_LOG_COLUMNS``, no rows, a row
    that does not parse as those columns or a weight outside [0, 1].
    """
    try:
        with open(path) as fh:
            if fh.readline().rstrip("\n") != ",".join(WEIGHT_LOG_COLUMNS):
                raise FormatError(f"{path}: header is not {WEIGHT_LOG_COLUMNS}")
            with warnings.catch_warnings():  # an empty body warns; the size check rejects it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                                  dtype=_WEIGHT_LOG_DTYPE)
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise FormatError(f"{path}: not a weight dump ({exc})") from exc
    if body.size == 0:
        raise FormatError(f"{path}: weight dump has no rows")
    last = body[body["epoch"] == body["epoch"].max()]
    weights = last["weight"]
    if not np.all((weights >= 0.0) & (weights <= 1.0)):
        raise FormatError(f"{path}: weight outside [0, 1]")
    return last["instance_index"], weights, last["is_noisy_ground_truth"]


def _json_default(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, obj) -> None:
    """Write obj as indented, key-sorted JSON with a trailing newline."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default)
    atomic_write(path, [(text + "\n").encode()])


class _Reader:
    """A binary file read front to back: header, bounded typed blocks, no trailing bytes."""

    def __init__(self, path, magic: bytes):
        self.path, self.raw = path, Path(path).read_bytes()
        if len(self.raw) < _HEADER.size:
            raise FormatError(f"{path}: file shorter than header")
        got, version, reserved, *self.sizes = _HEADER.unpack_from(self.raw)
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if reserved != 0:
            raise FormatError(f"{path}: reserved header bytes are not zero")
        self.offset = _HEADER.size

    def take(self, shape: tuple, dtype) -> np.ndarray:
        """The next block: a writable array of this shape, read as dtype."""
        itemsize, count = np.dtype(dtype).itemsize, math.prod(shape)
        block = self.raw[self.offset : self.offset + count * itemsize]
        if len(block) < count * itemsize:
            row_bytes = count // shape[0] * itemsize
            raise FormatError(
                f"{self.path}: payload holds {len(block) // row_bytes} of {shape[0]} declared rows"
            )
        self.offset += len(block)
        return np.frombuffer(block, dtype=dtype).reshape(shape).copy()

    def finish(self) -> None:
        if self.offset != len(self.raw):
            raise FormatError(
                f"{self.path}: {len(self.raw) - self.offset} trailing bytes after payload"
            )


def _save_matrix(matrix: np.ndarray, path, magic: bytes, dtype, kind: str) -> None:
    """The shared FMAT/LMAT layout: header, then the row-major payload as dtype."""
    if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ParameterError(f"{kind} matrix must be 2-d and non-empty, got shape {matrix.shape}")
    header = _HEADER.pack(magic, FORMAT_VERSION, 0, *matrix.shape)
    atomic_write(path, [header, matrix.astype(dtype).tobytes()])


def _load_matrix(path, magic: bytes, dtype) -> np.ndarray:
    reader = _Reader(path, magic)
    rows, cols = reader.sizes
    if rows == 0 or cols == 0:
        raise FormatError(f"{path}: empty matrix ({rows}x{cols})")
    if rows * cols > _MAX_ELEMENTS:
        raise FormatError(f"{path}: header declares {rows}x{cols} elements")
    matrix = reader.take((rows, cols), dtype)
    reader.finish()
    return matrix


def save_features(matrix: np.ndarray, path) -> None:
    matrix = np.asarray(matrix)
    if not np.all(np.isfinite(matrix)):
        raise ParameterError("feature matrix contains non-finite values")
    _save_matrix(matrix, path, FEATURE_MAGIC, "<f4", "feature")


def load_features(path) -> np.ndarray:
    return _load_matrix(path, FEATURE_MAGIC, "<f4")


def save_labels(matrix: np.ndarray, path) -> None:
    matrix = np.asarray(matrix)
    if not np.isin(matrix, (0, 1)).all():
        raise ParameterError("label matrix entries must be 0 or 1")
    _save_matrix(matrix, path, LABEL_MAGIC, np.uint8, "label")


def load_labels(path) -> np.ndarray:
    matrix = _load_matrix(path, LABEL_MAGIC, np.uint8)
    if not np.isin(matrix, (0, 1)).all():
        raise FormatError(f"{path}: payload byte outside {{0,1}}")
    return matrix


MANIFEST_NAME = "manifest.json"


def dataset_files(m: int) -> list[str]:
    """The files write_dataset writes for m modalities, the manifest last."""
    return [*(f"modality_{i}.fmat" for i in range(m)), "labels.lmat", "true_labels.lmat",
            "noise_mask.lmat", MANIFEST_NAME]


def _file_entries(m: int) -> dict:
    """The manifest's file-name entries: the dataset_files for m modalities."""
    *features, labels, true_labels, mask, _ = dataset_files(m)
    return {"modalities": features, "labels": labels, "true_labels": true_labels, "mask": mask}


def write_dataset(dataset: MultiModalDataset, out_dir, split: tuple[float, float, int]) -> Path:
    """Write the dataset_files: modality/label/mask files, then the manifest; returns its path.

    ``split`` is the (train_frac, val_frac, seed) record read_dataset returns.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = _file_entries(dataset.m)
    manifest = {
        **files,
        "class_count": dataset.class_count,
        "seed": dataset.seed,
        "split": dict(zip(_SPLIT_TYPES, split)),
    }
    for x, name in zip(dataset.modalities, files["modalities"]):
        save_features(x, out_dir / name)
    save_labels(dataset.labels, out_dir / files["labels"])
    save_labels(dataset.true_labels, out_dir / files["true_labels"])
    save_labels(dataset.noise_mask.astype(np.uint8)[:, None], out_dir / files["mask"])
    path = out_dir / MANIFEST_NAME
    write_json(path, manifest)
    return path


def read_dataset(manifest_path) -> tuple[MultiModalDataset, tuple[float, float, int]]:
    """Load a dataset directory; returns (dataset, (train_frac, val_frac, seed)).

    FormatError for a manifest that names other files than dataset_files(2) or
    lacks a key, a class_count or noise mask that disagrees with the labels, and
    a split that leaves a part empty.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise FormatError(f"{manifest_path}: not valid JSON ({exc})") from exc
    _check_manifest(manifest, manifest_path)
    base, files = manifest_path.parent, _file_entries(2)
    dataset = MultiModalDataset(
        modalities=[load_features(base / name) for name in files["modalities"]],
        labels=load_labels(base / files["labels"]),
        true_labels=load_labels(base / files["true_labels"]),
        seed=manifest["seed"],
    )
    record = manifest["split"]
    train_frac, val_frac = float(record["train_frac"]), float(record["val_frac"])
    try:
        dataset.validate()
        split_sizes(dataset.n, train_frac, val_frac)
    except ParameterError as exc:
        raise FormatError(f"{manifest_path}: inconsistent dataset: {exc}") from exc
    if manifest["class_count"] != dataset.class_count:
        raise FormatError(f"{manifest_path}: class_count is not the label column count")
    mask = load_labels(base / files["mask"])
    if not np.array_equal(mask, dataset.noise_mask[:, None]):
        raise FormatError(f"{base / files['mask']}: not the labels' N x 1 noise mask")
    return dataset, (train_frac, val_frac, record["seed"])


_MANIFEST_TYPES = {"class_count": int, "seed": int, "split": dict}
# the split record's keys, in the order of read_dataset's (train_frac, val_frac, seed)
_SPLIT_TYPES = {"train_frac": (int, float), "val_frac": (int, float), "seed": int}


def _check_manifest(manifest, path) -> None:
    """Raise FormatError unless the names are dataset_files(2) and each other key is typed."""
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    for key, name in _file_entries(2).items():
        if manifest.get(key) != name:
            raise FormatError(f"{path}: manifest key {key!r} must be {name!r}")
    for name, types in (("manifest", _MANIFEST_TYPES), ("split", _SPLIT_TYPES)):
        record = manifest if name == "manifest" else manifest["split"]  # a dict by now
        for key, kind in types.items():
            if key not in record:
                raise FormatError(f"{path}: {name} has no key {key!r}")
            if isinstance(record[key], bool) or not isinstance(record[key], kind):
                raise FormatError(f"{path}: {name} key {key!r} has type "
                                  f"{type(record[key]).__name__}")


def save_checkpoint(params: HashEncoderParams, centers: np.ndarray, path) -> None:
    """Model checkpoint: header, u64 sizes, centers as int8, then the f32 flat weights."""
    header = _HEADER.pack(CHECKPOINT_MAGIC, FORMAT_VERSION, 0, len(params.dims), params.hidden_dim)
    sizes = np.array([params.code_length, centers.shape[0], *params.dims], dtype="<u8")
    blocks = (sizes, centers.astype(np.int8), params.flat.astype("<f4"))
    atomic_write(path, [header, *(block.tobytes() for block in blocks)])


def load_checkpoint(path) -> tuple[HashEncoderParams, np.ndarray]:
    """Inverse of save_checkpoint; FormatError for any malformed or non-finite payload."""
    reader = _Reader(path, CHECKPOINT_MAGIC)
    n_mod, hidden = reader.sizes
    code_length, class_count, *dims = reader.take((2 + n_mod,), "<u8").tolist()
    if n_mod == 0 or n_mod > 64 or hidden == 0 or code_length == 0 or class_count == 0:
        raise FormatError(f"{path}: implausible checkpoint sizes")
    if any(d == 0 for d in dims) or max(dims) * hidden > _MAX_ELEMENTS:
        raise FormatError(f"{path}: implausible dims {dims}")
    centers = reader.take((class_count, code_length), np.int8)
    if not np.isin(centers, (-1, 1)).all():
        raise FormatError(f"{path}: center entries outside {{-1,+1}}")
    flat = reader.take((flat_size(dims, hidden, code_length),), "<f4").astype(np.float64)
    reader.finish()
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite encoder weights")
    return HashEncoderParams(flat, tuple(dims), hidden, code_length), centers
