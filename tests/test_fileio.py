import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from sphash.data import SynthSpec, generate_synthetic
from sphash.encoder import encode, init_centers, init_params
from sphash.errors import (
    BadMagicError,
    DimensionOverflowError,
    FormatError,
    ParameterError,
    TruncatedPayloadError,
)
from sphash.fileio import (
    load_checkpoint,
    load_features,
    load_labels,
    read_dataset,
    save_checkpoint,
    save_features,
    save_labels,
    write_csv,
    write_dataset,
    write_json,
)


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        matrix = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
        path = tmp_path / "x.fmat"
        save_features(matrix, path)
        loaded = load_features(path)
        assert loaded.dtype == np.float32
        assert loaded.shape == (5, 3)
        assert loaded.tobytes() == matrix.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.fmat"
        save_features(np.zeros((2, 7), dtype=np.float32), path)
        raw = path.read_bytes()
        assert raw[0:4] == bytes.fromhex("464D4154")
        assert raw[4:6] == (1).to_bytes(2, "little")
        assert raw[6:8] == b"\x00\x00"
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 7
        assert len(raw) == 24 + 2 * 7 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.fmat"
        save_features(np.zeros((2, 2), dtype=np.float32), path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError, match="bad magic"):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.fmat"
        save_features(np.zeros((10, 3), dtype=np.float32), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: 24 + 9 * 3 * 4])  # drop the last row
        with pytest.raises(TruncatedPayloadError, match="9 of 10"):
            load_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.fmat"
        save_features(np.zeros((2, 2), dtype=np.float32), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_features(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "x.fmat"
        header = struct.pack("<4sHHQQ", b"FMAT", 1, 0, 1 << 40, 1 << 20)
        path.write_bytes(header)
        with pytest.raises(DimensionOverflowError):
            load_features(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.fmat"
        save_features(np.zeros((2, 2), dtype=np.float32), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_features(path)

    def test_rejects_non_finite(self, tmp_path):
        bad = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(ParameterError):
            save_features(bad, tmp_path / "x.fmat")


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        labels = (np.random.default_rng(1).random((6, 4)) < 0.3).astype(np.uint8)
        labels[:, 0] = 1
        path = tmp_path / "y.lmat"
        save_labels(labels, path)
        assert np.array_equal(load_labels(path), labels)

    def test_magic_differs_from_features(self, tmp_path):
        path = tmp_path / "y.lmat"
        save_labels(np.ones((2, 2), dtype=np.uint8), path)
        assert path.read_bytes()[0:4] == bytes.fromhex("4C4D4154")
        with pytest.raises(BadMagicError):
            load_features(path)

    def test_rejects_non_binary_payload(self, tmp_path):
        path = tmp_path / "y.lmat"
        save_labels(np.ones((2, 2), dtype=np.uint8), path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_labels(path)


class TestDatasetRoundTrip:
    def test_write_then_read(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n=40, k=4, m=2, dims=(6, 5), seed=3))
        manifest_path = write_dataset(ds, tmp_path, split_spec={"train_frac": 0.7, "val_frac": 0.1, "seed": 3})
        loaded, manifest = read_dataset(manifest_path)
        assert manifest["class_count"] == 4
        assert manifest["split"]["train_frac"] == 0.7
        for a, b in zip(loaded.modalities, ds.modalities):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.noise_mask, ds.noise_mask)

    def test_read_accepts_directory(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n=20, k=2, m=2, dims=(4, 4), seed=1))
        write_dataset(ds, tmp_path)
        loaded, _ = read_dataset(tmp_path)
        assert loaded.n == 20


class TestCheckpoint:
    def make(self):
        params = init_params((6, 5), hidden_dim=7, code_length=4, seed=2)
        centers = init_centers(3, 4, seed=2)
        return params, centers

    def test_round_trip_stable_after_first_quantization(self, tmp_path):
        params, centers = self.make()
        x = np.random.default_rng(0).normal(size=(4, 6))
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(params, centers, p1)
        loaded1, centers1 = load_checkpoint(p1)
        save_checkpoint(loaded1, centers1, p2)
        loaded2, centers2 = load_checkpoint(p2)
        # storage is float32; once quantized, save/load is the identity
        assert p1.read_bytes() == p2.read_bytes()
        c1 = encode(loaded1.modalities[0], x)
        c2 = encode(loaded2.modalities[0], x)
        assert c1.tobytes() == c2.tobytes()
        assert np.array_equal(centers1, centers)
        # and the quantized encoder stays close to the original
        assert np.allclose(c1, encode(params.modalities[0], x), atol=1e-6)

    def test_weight_block_is_per_array_f4_in_layout_order(self, tmp_path):
        params, centers = self.make()
        path = tmp_path / "c.bin"
        save_checkpoint(params, centers, path)
        expected = b"".join(
            np.ascontiguousarray(a).astype("<f4").tobytes()
            for mod in params.modalities
            for a in (mod.w1, mod.b1, mod.w2, mod.b2)
        )
        raw = path.read_bytes()
        header = 24 + 16 + 8 * len(params.dims) + centers.size
        assert len(raw) == header + len(expected)
        assert raw[header:] == expected
        assert raw[header:] == params.flat.astype("<f4").tobytes()

    def test_magic_and_corruption(self, tmp_path):
        params, centers = self.make()
        path = tmp_path / "c.bin"
        save_checkpoint(params, centers, path)
        raw = bytearray(path.read_bytes())
        assert raw[0:4] == bytes.fromhex("5253484E")
        raw[0] = 0
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        params, centers = self.make()
        path = tmp_path / "c.bin"
        save_checkpoint(params, centers, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TruncatedPayloadError):
            load_checkpoint(path)

    def test_centers_payload_validated(self, tmp_path):
        params, centers = self.make()
        path = tmp_path / "c.bin"
        save_checkpoint(params, centers, path)
        raw = bytearray(path.read_bytes())
        raw[24 + 16 + 2 * 8] = 3  # first center byte
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestCsvWriter:
    def test_cell_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c", "d", "e", "f"), [
            (None, 0.5, np.float64(1 / 3), 7, np.int64(-2), "selfpaced"),
            (1.0, None, np.float64(2.0), 0, np.int64(0), ""),
        ])
        assert path.read_bytes() == (
            b"a,b,c,d,e,f\n"
            b",0.500000,0.333333,7,-2,selfpaced\n"
            b"1.000000,,2.000000,0,0,\n"
        )

    def test_no_rows_is_header_and_newline(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "y"], iter(()))
        assert path.read_bytes() == b"x,y\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]  # no temp file left


@dataclass
class _Inner:
    where: Path
    scale: np.float64


@dataclass
class _Outer:
    name: str
    inner: _Inner
    sizes: tuple


class TestJsonWriter:
    def test_format(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 1, "a": [1.5, None]})
        assert path.read_text() == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'

    def test_hook_converts_dataclasses_numpy_scalars_and_paths(self, tmp_path):
        path = tmp_path / "t.json"
        obj = {
            "run": _Outer("x", _Inner(Path("runs") / "m", np.float64(0.25)), (np.int64(3), 4)),
            "count": np.int32(5),
            "flag": np.bool_(True),
            "ratio": np.float32(0.5),
        }
        write_json(path, obj)
        assert json.loads(path.read_text()) == {
            "run": {"name": "x", "inner": {"where": "runs/m", "scale": 0.25}, "sizes": [3, 4]},
            "count": 5,
            "flag": True,
            "ratio": 0.5,
        }

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "t.json", {"x": object()})
