"""On-disk formats.

Feature file ("FMAT"): 24-byte header — 4-byte magic, u16 version, u16
reserved zero, u64 row count, u64 column count, all little-endian — followed
by rows*cols float32 values in row-major order. Label file ("LMAT") shares
the header layout with its own magic and a payload of one byte per entry in
{0,1}. A dataset is a directory of these files tied together by a JSON
manifest; a model checkpoint is a single binary with its own magic.

Text artifacts follow one rule each. CSV (``write_csv``): a header line of
column names, one line per row and a trailing newline; a cell is empty for
None, six decimals for a float and ``str`` of anything else. JSON
(``write_json``): two-space indent, sorted keys and a trailing newline, with
dataclasses, numpy scalars and paths converted.

Every artifact, binary or text, is written to a temp file beside its target
and renamed over it, so readers never see a partial file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np

from .data import MultiModalDataset
from .encoder import HashEncoderParams, flat_size
from .errors import (
    BadMagicError,
    DimensionOverflowError,
    FormatError,
    LabelError,
    ParameterError,
    TruncatedPayloadError,
)

FEATURE_MAGIC = b"FMAT"
LABEL_MAGIC = b"LMAT"
CHECKPOINT_MAGIC = bytes((0x52, 0x53, 0x48, 0x4E))
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHHQQ")
_MAX_ELEMENTS = 1 << 40  # anything larger is a corrupt header, not a real matrix


def atomic_write(path: Path, payload: bytes) -> None:
    """Write payload to a temp file beside path, then rename it over path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 included: it subclasses float
        return f"{value:.6f}"
    return str(value)


def write_csv(path, columns, rows) -> None:
    """Write a header of ``columns`` and one line per row of cells."""
    lines = [",".join(columns)]
    lines += [",".join(map(_csv_cell, row)) for row in rows]
    atomic_write(Path(path), ("\n".join(lines) + "\n").encode())


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
    atomic_write(Path(path), (text + "\n").encode())


def _read_header(raw: bytes, magic: bytes, path) -> tuple[int, int]:
    if len(raw) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than header")
    got_magic, version, reserved, rows, cols = _HEADER.unpack_from(raw)
    if got_magic != magic:
        raise BadMagicError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if reserved != 0:
        raise FormatError(f"{path}: reserved header bytes are not zero")
    if rows == 0 or cols == 0:
        raise FormatError(f"{path}: empty matrix ({rows}x{cols})")
    if rows * cols > _MAX_ELEMENTS:
        raise DimensionOverflowError(f"{path}: header declares {rows}x{cols} elements")
    return rows, cols


def save_features(matrix: np.ndarray, path) -> None:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ParameterError(f"feature matrix must be 2-d and non-empty, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ParameterError("feature matrix contains non-finite values")
    header = _HEADER.pack(FEATURE_MAGIC, FORMAT_VERSION, 0, *matrix.shape)
    atomic_write(Path(path), header + matrix.astype("<f4").tobytes())


def load_features(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    rows, cols = _read_header(raw, FEATURE_MAGIC, path)
    expected = rows * cols * 4
    payload = raw[_HEADER.size :]
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload) // (cols * 4)} of {rows} declared rows"
        )
    if len(payload) > expected:
        raise FormatError(f"{path}: {len(payload) - expected} trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()


def save_labels(matrix: np.ndarray, path) -> None:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ParameterError(f"label matrix must be 2-d and non-empty, got shape {matrix.shape}")
    if not np.isin(matrix, (0, 1)).all():
        raise ParameterError("label matrix entries must be 0 or 1")
    header = _HEADER.pack(LABEL_MAGIC, FORMAT_VERSION, 0, *matrix.shape)
    atomic_write(Path(path), header + matrix.astype(np.uint8).tobytes())


def load_labels(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    rows, cols = _read_header(raw, LABEL_MAGIC, path)
    payload = raw[_HEADER.size :]
    if len(payload) < rows * cols:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload) // cols} of {rows} declared rows"
        )
    if len(payload) > rows * cols:
        raise FormatError(f"{path}: {len(payload) - rows * cols} trailing bytes after payload")
    matrix = np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols).copy()
    if not np.isin(matrix, (0, 1)).all():
        raise FormatError(f"{path}: payload byte outside {{0,1}}")
    return matrix


MANIFEST_NAME = "manifest.json"


def write_dataset(
    dataset: MultiModalDataset,
    out_dir,
    split_spec: dict | None = None,
) -> Path:
    """Write modality/label/mask files plus the JSON manifest; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "modalities": [],
        "labels": "labels.lmat",
        "true_labels": "true_labels.lmat",
        "mask": "noise_mask.lmat",
        "class_count": dataset.class_count,
        "seed": dataset.seed,
    }
    for i, x in enumerate(dataset.modalities):
        name = f"modality_{i}.fmat"
        save_features(x, out_dir / name)
        manifest["modalities"].append(name)
    save_labels(dataset.labels, out_dir / manifest["labels"])
    save_labels(dataset.true_labels, out_dir / manifest["true_labels"])
    save_labels(dataset.noise_mask.astype(np.uint8)[:, None], out_dir / manifest["mask"])
    if split_spec is not None:
        manifest["split"] = dict(split_spec)
    path = out_dir / MANIFEST_NAME
    write_json(path, manifest)
    return path


def read_dataset(manifest_path) -> tuple[MultiModalDataset, dict]:
    """Load a dataset directory; returns (dataset, manifest dict)."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise FormatError(f"{manifest_path}: not valid JSON ({exc})") from exc
    _check_manifest(manifest, manifest_path)
    base = manifest_path.parent
    dataset = MultiModalDataset(
        modalities=[load_features(base / rel) for rel in manifest["modalities"]],
        labels=load_labels(base / manifest["labels"]),
        true_labels=load_labels(base / manifest["true_labels"]),
        noise_mask=load_labels(base / manifest["mask"])[:, 0].astype(bool),
        class_count=manifest["class_count"],
        seed=manifest["seed"],
    )
    try:
        dataset.validate()
    except (ParameterError, LabelError) as exc:
        raise FormatError(f"{manifest_path}: inconsistent dataset files: {exc}") from exc
    return dataset, manifest


_MANIFEST_TYPES = {
    "modalities": list, "labels": str, "true_labels": str, "mask": str,
    "class_count": int, "seed": int,
}
_SPLIT_TYPES = {"train_frac": (int, float), "val_frac": (int, float), "seed": int}


def _check_manifest(manifest, path) -> None:
    """Raise FormatError unless each manifest key is present with its JSON type."""
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    split_spec = manifest.get("split", {})
    if not isinstance(split_spec, dict):
        raise FormatError(f"{path}: key 'split' is not a JSON object")
    checks = ((manifest, _MANIFEST_TYPES, True), (split_spec, _SPLIT_TYPES, False))
    for obj, types, required in checks:
        for key, kind in types.items():
            if key not in obj:
                if required:
                    raise FormatError(f"{path}: missing key {key!r}")
            elif isinstance(obj[key], bool) or not isinstance(obj[key], kind):
                raise FormatError(f"{path}: key {key!r} has type {type(obj[key]).__name__}")
    if not all(isinstance(name, str) for name in manifest["modalities"]):
        raise FormatError(f"{path}: 'modalities' must list file names")


def save_checkpoint(params: HashEncoderParams, centers: np.ndarray, path) -> None:
    """Model checkpoint: header, sizes, centers as int8, then the f32 flat weights."""
    dims = params.dims
    chunks = [_HEADER.pack(CHECKPOINT_MAGIC, FORMAT_VERSION, 0, len(dims), params.hidden_dim)]
    chunks.append(struct.pack("<QQ", params.code_length, centers.shape[0]))
    chunks.append(struct.pack(f"<{len(dims)}Q", *dims))
    chunks.append(centers.astype(np.int8).tobytes())
    chunks.append(params.flat.astype("<f4").tobytes())
    atomic_write(Path(path), b"".join(chunks))


def load_checkpoint(path) -> tuple[HashEncoderParams, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + 16:
        raise TruncatedPayloadError(f"{path}: file shorter than checkpoint header")
    magic, version, reserved, n_mod, hidden = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != FORMAT_VERSION or reserved != 0:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    offset = _HEADER.size
    code_length, class_count = struct.unpack_from("<QQ", raw, offset)
    offset += 16
    if n_mod == 0 or n_mod > 64 or hidden == 0 or code_length == 0 or class_count == 0:
        raise FormatError(f"{path}: implausible checkpoint sizes")
    need = n_mod * 8
    if len(raw) < offset + need:
        raise TruncatedPayloadError(f"{path}: truncated modality dims")
    dims = struct.unpack_from(f"<{n_mod}Q", raw, offset)
    offset += need
    if any(d == 0 for d in dims) or max(dims) * hidden > _MAX_ELEMENTS:
        raise DimensionOverflowError(f"{path}: implausible dims {dims}")

    def take(count: int, dtype) -> np.ndarray:
        nonlocal offset
        nbytes = count * np.dtype(dtype).itemsize
        if len(raw) < offset + nbytes:
            raise TruncatedPayloadError(f"{path}: checkpoint payload truncated")
        out = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        offset += nbytes
        return out

    centers = take(class_count * code_length, np.int8).reshape(class_count, code_length).copy()
    if not np.isin(centers, (-1, 1)).all():
        raise FormatError(f"{path}: center entries outside {{-1,+1}}")
    flat = take(flat_size(dims, hidden, code_length), "<f4").astype(np.float64)
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes after payload")
    return HashEncoderParams(flat, dims, int(hidden), int(code_length)), centers
