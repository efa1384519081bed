"""One BLAS thread per process, and artifacts that do not depend on the count.

Importing ``sphash`` sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 unless the caller set them, before numpy loads its
BLAS. The CLI runs in a fresh interpreter here, since this one loaded numpy
long ago.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    return dict(env, PYTHONPATH=str(SRC), **extra)


@pytest.mark.parametrize("preset, expected", [({}, ["1", "1", "1"]),
                                              ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])])
def test_importing_the_cli_pins_one_thread_unless_set(preset, expected):
    probe = "import os, sphash.cli; print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
    out = subprocess.run([sys.executable, "-c", probe], env=clean_env(**preset), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.split() == expected


def run_at(threads: str, root: Path) -> dict[str, bytes]:
    """gen-data, train and eval --weights at a BLAS thread count; every artifact but manifests."""
    env = clean_env(OPENBLAS_NUM_THREADS=threads)

    def sphash(*argv):
        subprocess.run([sys.executable, "-m", "sphash.cli", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)

    data, model, scores = root / "data", root / "model", root / "eval"
    # batches of 128 and 64 hidden units put every GEMM above OpenBLAS's threading cutoff
    sphash("gen-data", "--n", "600", "--k", "6", "--dims", "48,40", "--noise-rate", "0.5",
           "--seed", "4", "--out", str(data))
    sphash("train", "--data", str(data), "--out", str(model), "--bits", "32", "--hidden", "64",
           "--batch-size", "128", "--warmup", "1", "--epochs", "3", "--seed", "4")
    sphash("eval", "--checkpoint", str(model / "checkpoint.bin"), "--data", str(data),
           "--weights", str(model / "weights.csv"), "--out", str(scores))
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


def test_artifacts_do_not_depend_on_the_thread_count(tmp_path):
    one, two = run_at("1", tmp_path / "one"), run_at("2", tmp_path / "two")
    assert {"model/checkpoint.bin", "model/weights.csv", "eval/map.csv"} <= one.keys()
    assert one == two
