"""Every atomic write of a command failing in turn, through ``cli.main``.

A first run of each command counts its ``fileio.atomic_write`` calls. The
command then reruns once per call k, with call k raising ``OSError(ENOSPC)``
after its first chunk reached the temp file, into an ``--out`` that holds an
older run's artifacts (another seed). After each rerun the exit code is the
documented one, no ``*.tmp`` is left, and every artifact holds either the
older run's bytes or a complete new run's bytes.
"""

import errno
import itertools
import shutil
from pathlib import Path

import pytest

import sphash.fileio as fileio
from sphash.cli import main

GEN = ["gen-data", "--n", "90", "--k", "3", "--dims", "8,6", "--noise-rate", "0.4"]
TRAIN = ["train", "--bits", "8", "--hidden", "10", "--batch-size", "16", "--warmup", "1",
         "--epochs", "3", "--alpha", "0.1"]
SWEEP = ["sweep", "--noise-rates", "0.4", "--bits", "8", "--variants", "full,no_chl",
         "--n", "90", "--k", "3", "--dims", "8,6", "--hidden", "10", "--batch-size", "16",
         "--warmup", "1", "--epochs", "3", "--alpha", "0.1"]
MANIFEST = "run_manifest.json"
REAL_ATOMIC_WRITE = fileio.atomic_write


def file_bytes(directory: Path) -> dict:
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A dataset, and per seed a checkpoint with its weight dump."""
    root = tmp_path_factory.mktemp("inputs")
    assert main(GEN + ["--seed", "3", "--out", str(root / "data")]) == 0
    for seed in ("1", "2"):
        assert main(TRAIN + ["--seed", seed, "--data", str(root / "data"),
                             "--out", str(root / f"model{seed}")]) == 0
    return root


def runs(inputs: Path) -> dict:
    """Each command's argv, without --out, for the older run (seed 1) and the new one (seed 2)."""
    data = str(inputs / "data")

    def evaluate(seed):
        model = inputs / f"model{seed}"
        return ["eval", "--checkpoint", str(model / "checkpoint.bin"), "--data", data,
                "--weights", str(model / "weights.csv")]

    return {
        "gen-data": (GEN + ["--seed", "1"], GEN + ["--seed", "2"]),
        "train": (TRAIN + ["--seed", "1", "--data", data], TRAIN + ["--seed", "2", "--data", data]),
        "eval": (evaluate(1), evaluate(2)),
        "sweep": (SWEEP + ["--seed", "1"], SWEEP + ["--seed", "2"]),
    }


def first_chunk_then_full_disk(chunks):
    yield from itertools.islice(chunks, 1)
    raise OSError(errno.ENOSPC, "No space left on device")


def failing_at(k: int, written: list):
    """An atomic_write that records each target path and fails on its call number k."""

    def write(path, chunks):
        written.append(Path(path))
        chunks = first_chunk_then_full_disk(chunks) if len(written) == k + 1 else chunks
        REAL_ATOMIC_WRITE(path, chunks)

    return write


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "sweep"])
def test_each_failing_write_leaves_old_or_new_artifacts(inputs, tmp_path, monkeypatch, command):
    old_argv, new_argv = runs(inputs)[command]
    old, new = tmp_path / "old", tmp_path / "new"
    assert main(old_argv + ["--out", str(old)]) == 0
    written = []
    monkeypatch.setattr(fileio, "atomic_write", failing_at(-1, written))
    assert main(new_argv + ["--out", str(new)]) == 0
    old_bytes, new_bytes = file_bytes(old), file_bytes(new)
    assert written and written[-1].name == MANIFEST

    for k in range(len(written)):
        out = tmp_path / f"fail{k}"
        shutil.copytree(old, out)
        failed = []
        monkeypatch.setattr(fileio, "atomic_write", failing_at(k, failed))
        code = main(new_argv + ["--out", str(out)])
        target = failed[k].relative_to(out)
        in_cell = target.parts[0] == "cells"
        assert code == (1 if in_cell else 3), target
        assert list(out.rglob("*.tmp")) == [], target
        left = file_bytes(out)
        if code == 3:  # the command raised, so main wrote no manifest
            assert left[MANIFEST] == old_bytes[MANIFEST], target
        for name, raw in left.items():
            if name == MANIFEST:
                continue
            if in_cell and name == "aggregate.csv":
                header, *rows = raw.decode().splitlines()
                expected_header, *expected_rows = new_bytes[name].decode().splitlines()
                assert header == expected_header
                variant = target.parts[1].split("_", 2)[-1]  # n0.4_b8_no_chl: no_chl
                assert rows == [f"{variant},error,error" if row.startswith(f"{variant},") else row
                                for row in expected_rows], target
                continue
            assert raw in (old_bytes[name], new_bytes[name]), (target, name)
