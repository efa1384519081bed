"""Each failure point of a command failing in turn, through ``cli.main``.

A first run of each command counts its calls at a failure point. The command
then reruns once per call k, with call k failing, into an ``--out`` that holds
an older run's artifacts (another seed). The failure points are:

- each ``fileio.atomic_write``, raising ``OSError(ENOSPC)`` after its first
  chunk reached the temp file;
- each ``os.replace`` inside it, raising ``OSError(EXDEV)`` once the temp file
  is complete;
- each ``os.fork`` of a scoring child, raising ``OSError(EAGAIN)``;
- each scoring child, killed by ``SIGKILL`` before it sends its result;
- each parent's read of a scoring child's pipe, raising ``OSError(EIO)``.

After each rerun the exit code is the documented one (1 when the failure is in
a sweep cell, else 3), no ``*.tmp`` is left, and every artifact holds either
the older run's bytes or a complete new run's bytes; a failed sweep cell reads
``error`` in ``aggregate.csv`` and every other cell reads the new run's scores.
No scoring child outlives its command (the conftest fixture checks this).
"""

import errno
import io
import itertools
import os
import shutil
import signal
from pathlib import Path

import pytest

import sphash.fileio as fileio
import sphash.cli as cli_module
from sphash.cli import main

GEN = ["gen-data", "--n", "90", "--k", "3", "--dims", "8,6", "--noise-rate", "0.4"]
TRAIN = ["train", "--bits", "8", "--hidden", "10", "--batch-size", "16", "--warmup", "1",
         "--epochs", "3", "--alpha", "0.1"]
SWEEP = ["sweep", "--noise-rates", "0.4", "--bits", "8", "--variants", "full,no_chl",
         "--n", "90", "--k", "3", "--dims", "8,6", "--hidden", "10", "--batch-size", "16",
         "--warmup", "1", "--epochs", "3", "--alpha", "0.1"]
MANIFEST = "run_manifest.json"
REAL_ATOMIC_WRITE = fileio.atomic_write
REAL_FORK = os.fork


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


class ReplaceFailingAt:
    """fileio's ``os``, recording each target ``os.replace`` renames to and failing
    on its call number k."""

    def __init__(self, k: int, renamed: list):
        self.k, self.renamed = k, renamed

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        self.renamed.append(Path(dst))
        if len(self.renamed) == self.k + 1:
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        os.replace(src, dst)


def writes_failing_at(monkeypatch, k: int, written: list) -> None:
    monkeypatch.setattr(fileio, "atomic_write", failing_at(k, written))


def renames_failing_at(monkeypatch, k: int, renamed: list) -> None:
    monkeypatch.setattr(fileio, "os", ReplaceFailingAt(k, renamed))


def first_runs(inputs: Path, tmp_path: Path, command: str, monkeypatch, fail_at):
    """(older run's out, new argv, older bytes, new bytes, the new run's calls at the
    failure point); fail_at(monkeypatch, k, calls) makes call k fail and records each call."""
    old_argv, new_argv = runs(inputs)[command]
    old, new = tmp_path / "old", tmp_path / "new"
    assert main(old_argv + ["--out", str(old)]) == 0
    calls = []
    fail_at(monkeypatch, -1, calls)
    assert main(new_argv + ["--out", str(new)]) == 0
    assert calls
    return old, new_argv, file_bytes(old), file_bytes(new), calls


def rerun_failing(old: Path, new_argv: list, out: Path, monkeypatch, fail_at, k: int):
    """(exit code, calls) of the new run into a copy of the older run, call k failing."""
    shutil.copytree(old, out)
    failed = []
    fail_at(monkeypatch, k, failed)
    return main(new_argv + ["--out", str(out)]), failed


def assert_old_or_new(out: Path, code: int, failed_cell, old_bytes: dict, new_bytes: dict, why):
    """No temp file is left, and each artifact holds the older or the new run's bytes;
    failed_cell, the variant of a failed sweep cell or None, reads error."""
    assert list(out.rglob("*.tmp")) == [], why
    left = file_bytes(out)
    if code == 3:  # the command raised, so main wrote no manifest
        assert left[MANIFEST] == old_bytes[MANIFEST], why
    for name, raw in left.items():
        if name == MANIFEST:
            continue
        if failed_cell is not None and name == "aggregate.csv":
            header, *rows = raw.decode().splitlines()
            expected_header, *expected_rows = new_bytes[name].decode().splitlines()
            assert header == expected_header
            assert rows == [f"{failed_cell},error,error" if row.startswith(f"{failed_cell},")
                            else row for row in expected_rows], why
            continue
        assert raw in (old_bytes[name], new_bytes[name]), (why, name)


def check_each_failing_file_step(inputs, tmp_path, monkeypatch, command, fail_at):
    old, new_argv, old_bytes, new_bytes, targets = first_runs(
        inputs, tmp_path, command, monkeypatch, fail_at)
    assert targets[-1].name == MANIFEST
    for k in range(len(targets)):
        out = tmp_path / f"fail{k}"
        code, failed = rerun_failing(old, new_argv, out, monkeypatch, fail_at, k)
        target = failed[k].relative_to(out)
        in_cell = target.parts[0] == "cells"
        assert code == (1 if in_cell else 3), target
        variant = target.parts[1].split("_", 2)[-1] if in_cell else None  # n0.4_b8_no_chl: no_chl
        assert_old_or_new(out, code, variant, old_bytes, new_bytes, target)


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "sweep"])
def test_each_failing_write_leaves_old_or_new_artifacts(inputs, tmp_path, monkeypatch, command):
    check_each_failing_file_step(inputs, tmp_path, monkeypatch, command, writes_failing_at)


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "sweep"])
def test_each_failing_rename_leaves_old_or_new_artifacts(inputs, tmp_path, monkeypatch, command):
    check_each_failing_file_step(inputs, tmp_path, monkeypatch, command, renames_failing_at)


def forks_failing_at(monkeypatch, k: int, forked: list) -> None:
    def fork():
        forked.append(len(forked))
        if len(forked) == k + 1:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return REAL_FORK()

    monkeypatch.setattr(cli_module.os, "fork", fork)


def test_failing_fork_makes_eval_exit_3_with_the_old_scores(inputs, tmp_path, monkeypatch):
    old, new_argv, old_bytes, _, forks = first_runs(
        inputs, tmp_path, "eval", monkeypatch, forks_failing_at)
    assert len(forks) == 1
    code, _ = rerun_failing(old, new_argv, tmp_path / "fail", monkeypatch, forks_failing_at, 0)
    assert code == 3
    assert file_bytes(tmp_path / "fail") == old_bytes  # map.csv and pr_*.csv among them


def scoring_children_killed_at(monkeypatch, k: int, forked: list) -> None:
    def fork():
        forked.append(len(forked))
        pid = REAL_FORK()
        if not pid and len(forked) == k + 1:
            os.kill(os.getpid(), signal.SIGKILL)  # dies before it scores or sends anything
        return pid

    monkeypatch.setattr(cli_module.os, "fork", fork)


class UnreadablePipe(io.BufferedReader):
    def read(self, size=-1):
        raise OSError(errno.EIO, "Input/output error")


def pipe_reads_failing_at(monkeypatch, k: int, opened: list) -> None:
    """cli's ``open``, recording each pipe read end it opens; reading pipe number k fails."""

    def opener(file, mode="r", *args, **kwargs):
        if isinstance(file, int) and mode == "rb":
            opened.append(file)
            if len(opened) == k + 1:
                return UnreadablePipe(io.FileIO(file, "rb"))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli_module, "open", opener, raising=False)


def check_each_failing_scoring_child(inputs, tmp_path, monkeypatch, command, fail_at):
    old, new_argv, old_bytes, new_bytes, calls = first_runs(
        inputs, tmp_path, command, monkeypatch, fail_at)
    cells = [None] if command == "eval" else ["full", "no_chl"]  # one child per cell, in order
    assert len(calls) == len(cells)
    for k, variant in enumerate(cells):
        out = tmp_path / f"fail{k}"
        code, _ = rerun_failing(old, new_argv, out, monkeypatch, fail_at, k)
        assert code == (3 if variant is None else 1)
        assert_old_or_new(out, code, variant, old_bytes, new_bytes, (command, variant))


def test_failing_fork_makes_only_its_sweep_cell_an_error(inputs, tmp_path, monkeypatch):
    check_each_failing_scoring_child(inputs, tmp_path, monkeypatch, "sweep", forks_failing_at)


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_each_killed_scoring_child_leaves_old_or_new_artifacts(inputs, tmp_path, monkeypatch,
                                                               command):
    check_each_failing_scoring_child(inputs, tmp_path, monkeypatch, command,
                                     scoring_children_killed_at)


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_each_failing_pipe_read_leaves_old_or_new_artifacts(inputs, tmp_path, monkeypatch,
                                                            command):
    check_each_failing_scoring_child(inputs, tmp_path, monkeypatch, command,
                                     pipe_reads_failing_at)
