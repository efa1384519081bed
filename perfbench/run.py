#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sphash CLI.

Run from the root of a source checkout (the package is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload paper-train --seed 19 --seconds 36 --trace 0

Each workload is a closed loop: one client runs one ``sphash`` command at a
time, each as its own process. The run first takes one sample each of
``sweep``, ``train`` and ``eval --weights``, then keeps cycling through them,
shortest first, skipping any whose last sample would overrun ``--seconds``,
until none fits. Every time metric is the median over a command's samples.
Set-up (``gen-data``, or bare interpreter start and import) runs
SETUP_REPEATS times and reports its median.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each command
once untraced and once under ``perfbench/tracer.py``, and prints the
per-layer metrics from the spans. Untraced runs never import the tracer.

Every operation must exit 0 and reproduce its artifacts byte for byte across
samples, and between untraced and traced runs; each violation counts as a
failed operation. ``sweep`` counts one operation per cell and an ``error``
cell in ``aggregate.csv`` as one failed operation. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Artifact SHA-256s and the environment block are printed above it and kept in
``.perfbench_work/results/``. See ``perfbench/README.md`` for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0   # a run kills whatever is still running after this long
SETUP_REPEATS = 9
KINDS = ("sweep", "train", "eval")
BLAS_THREADS = "1"    # the bounds in BENCHMARK.json were fixed at one BLAS thread

TRAIN_FRAC, VAL_FRAC = 0.7, 0.1
BATCH, HIDDEN, K, DIMS, MODALITIES = 128, 256, 8, "64,48", 2

TRAIN_ARTIFACTS = ("checkpoint.bin", "report.csv", "map_curve.csv", "weights.csv")
EVAL_ARTIFACTS = ("map.csv", "pr_i2t.csv", "pr_t2i.csv",
                  "noise_detection.json", "weights_histogram.csv")
DATA_ARTIFACTS = ("manifest.json", "modality_0.fmat", "modality_1.fmat",
                  "labels.lmat", "true_labels.lmat", "noise_mask.lmat")

# data: the gen-data set-up (None: set-up is interpreter start + import, and
# train/eval reuse the sweep cell named by `cell`). train: flags of the timed
# train. sweep: the timed sweep grid.
WORKLOADS = {
    "paper-train": {
        "data": {"n": 2000, "noise": 0.6},
        "train": {"bits": 32, "epochs": 200, "warmup": 5},
        "sweep": {"n": 2000, "noise_rates": (0.6,), "bits": (32,), "variants": ("full",),
                  "epochs": 20, "warmup": 5},
    },
    "gallery-eval": {
        "data": {"n": 10000, "noise": 0.6},
        "train": {"bits": 128, "epochs": 3, "warmup": 1},
        "sweep": {"n": 10000, "noise_rates": (0.6,), "bits": (128,), "variants": ("full",),
                  "epochs": 3, "warmup": 1},
    },
    "sweep-grid": {
        "data": None,
        "cell": (0.8, 128, "full"),
        "train": {"bits": 128, "epochs": 30, "warmup": 5},
        "sweep": {"n": 2000, "noise_rates": (0.2, 0.8), "bits": (16, 128),
                  "variants": ("full", "no_chl"), "epochs": 30, "warmup": 5},
    },
}

END_TO_END = {
    "setup_s": "s", "train_s": "s", "eval_s": "s", "sweep_cell_s": "s",
    "peak_rss_mb": "MB", "test_map": "ratio", "noise_f1": "ratio",
}

# spans reported as <name>.calls and <name>.self_s
LAYER_SPANS = (
    "cli.cmd_eval", "cli.cmd_sweep",
    "data.generate_synthetic", "data.split", "data.inject_noise_subset",
    "fileio.write_dataset", "fileio.read_dataset", "fileio.save_checkpoint",
    "fileio.load_checkpoint",
    "encoder.encode.step", "encoder.encode.refresh", "encoder.encode.validate",
    "encoder.encode.eval", "encoder.backward",
    "losses.chl_loss", "losses.nsh_loss", "losses.cal_loss", "losses.per_instance_loss",
    "pacer.refresh_weights",
    "trainer.step", "trainer.train", "trainer.write_weight_log_csv", "trainer.binary_codes",
    "evaluator.mean_average_precision", "evaluator.pr_curve",
    "kernels.pairwise_hamming_packed", "kernels.ap_scores",
)
# tracer counters reported as they are; kernel bytes are computed from shapes
LAYER_COUNTERS = {
    "fileio.write_dataset.bytes": "B",
    "fileio.save_checkpoint.bytes": "B",
    "trainer.write_weight_log_csv.bytes": "B",
    "kernels.pairwise_hamming_packed.pairs": "count",
    "kernels.pairwise_hamming_packed.bytes": "B",
    "kernels.ap_scores.elements": "count",
}
LAYER_DERIVED = {
    "pacer.admitted_ratio": "ratio",
    "kernels.rankings_per_direction": "ratio",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(LAYER_COUNTERS)
    units.update(LAYER_DERIVED)
    return units


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _cell_dir(noise, bits, variant) -> str:
    # the directory name cmd_sweep gives a cell
    return f"n{float(noise)}_b{int(bits)}_{variant}"


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def _grid(sweep: dict) -> list:
    """(noise, bits, variant) of every sweep cell, in cmd_sweep's order."""
    return [(n, b, v) for n in sweep["noise_rates"] for b in sweep["bits"]
            for v in sweep["variants"]]


class Op:
    """One finished CLI process: exit code, wall/CPU seconds, peak RSS, artifact digests."""

    def __init__(self, op_id, rc, wall, cpu, rss_mb, out_dir, trace_path):
        self.id, self.rc, self.wall, self.cpu, self.rss_mb = op_id, rc, wall, cpu, rss_mb
        self.out = out_dir
        self.trace_path = trace_path
        self.hashes: dict[str, str] = {}


class Runner:
    """Launches CLI processes, records failed operations, enforces the run limit."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        self.attempted = 0
        self.failed: dict[str, str] = {}  # operation id -> first reason

    def fail(self, op_id: str, reason: str) -> None:
        if op_id not in self.failed:
            self.failed[op_id] = reason
            print(f"FAILED {op_id}: {reason}", file=sys.stderr)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, cmd, log: Path):
        """(exit code, wall s, cpu s, peak RSS MB) of one child, killed at the run limit."""
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(self.remaining(), 0.1), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def cli(self, op_id: str, argv: list, out: Path | None, artifacts=(), traced=False,
            check_exit=True) -> Op:
        """Run `sphash <argv>` (under the tracer if traced) and hash its artifacts."""
        self.attempted += 1
        log = self.work / (op_id.replace("/", "_") + ".stderr")
        trace_path = self.work / (op_id.replace("/", "_") + ".trace.json") if traced else None
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "sphash.cli", *argv]
        rc, wall, cpu, rss = self.spawn(cmd, log)
        op = Op(op_id, rc, wall, cpu, rss, out, trace_path)
        if rc != 0 and check_exit:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            self.fail(op_id, f"exit code {rc}: {tail[0]}")
        for name in artifacts:
            path = out / name
            if path.is_file():
                op.hashes[name] = _sha256(path)
            elif rc == 0:
                self.fail(op_id, f"missing artifact {name}")
        return op

    def same_artifacts(self, op: Op, reference: Op, what: str) -> None:
        if op.hashes != reference.hashes:
            differing = sorted(k for k in set(op.hashes) | set(reference.hashes)
                               if op.hashes.get(k) != reference.hashes.get(k))
            self.fail(op.id, f"artifacts differ from {reference.id} ({what}): {differing}")


def setup(runner: Runner, spec: dict, seed: int):
    """SETUP_REPEATS set-ups; returns (their wall times, the dataset dir or None)."""
    walls, first = [], None
    for i in range(SETUP_REPEATS):
        if spec["data"] is None:
            op = runner.cli(f"setup{i}/import", ["--version"], None)
        else:
            out = runner.work / f"setup{i}" / "data"
            op = runner.cli(f"setup{i}/gen-data", [
                "gen-data", "--n", str(spec["data"]["n"]), "--k", str(K), "--m", str(MODALITIES),
                "--dims", DIMS, "--noise-rate", str(spec["data"]["noise"]),
                "--train-frac", str(TRAIN_FRAC), "--val-frac", str(VAL_FRAC),
                "--seed", str(seed), "--out", str(out),
            ], out, DATA_ARTIFACTS)
            if first is None:
                first = op
            else:
                runner.same_artifacts(op, first, "set-up repeats")
        walls.append(op.wall)
    return walls, (first.out if first else None)


def _train_flags(train: dict, seed: int, variant: str = "full") -> list:
    return ["--bits", str(train["bits"]), "--epochs", str(train["epochs"]),
            "--warmup", str(train["warmup"]), "--batch-size", str(BATCH),
            "--hidden", str(HIDDEN), "--variant", variant, "--seed", str(seed)]


class Pipeline:
    """The workload's sweep, train and eval --weights, and every sample taken of them.

    The constructor takes the first sample of each kind, in that order: train
    reads the set-up dataset (on sweep-grid, the dataset of the sweep's cell)
    and eval reads the first train's model. Later samples reuse those inputs.
    Each sample writes to a directory of its own and must reproduce the first
    sample's artifacts byte for byte.
    """

    def __init__(self, runner: Runner, spec: dict, seed: int, data_dir: Path | None, tag: str,
                 traced: bool = False):
        self.runner, self.spec, self.seed, self.traced = runner, spec, seed, traced
        self.base = runner.work / tag
        self.tag = tag
        self.data_dir, self.train_seed, self.variant, self.cell = data_dir, seed, "full", None
        self.cells = _grid(spec["sweep"])
        self.samples = {kind: [] for kind in KINDS}
        for kind in KINDS:
            self.run(kind)
        if self.cell is not None:
            _check_cell_replay(runner, self.first(), self.cell, spec["cell"])

    def first(self) -> dict:
        return {kind: samples[0] for kind, samples in self.samples.items()}

    def ops(self) -> list:
        return [op for samples in self.samples.values() for op in samples]

    def run(self, kind: str) -> None:
        samples = self.samples[kind]
        op = getattr(self, f"_{kind}")(len(samples))
        if samples:
            self.runner.same_artifacts(op, samples[0], "samples")
        samples.append(op)

    def _sweep(self, j: int) -> Op:
        sweep, out = self.spec["sweep"], self.base / f"sweep{j}"
        op = self.runner.cli(f"{self.tag}/sweep{j}", [
            "sweep", "--out", str(out),
            "--noise-rates", _csv_list(sweep["noise_rates"]), "--bits", _csv_list(sweep["bits"]),
            "--variants", _csv_list(sweep["variants"]), "--n", str(sweep["n"]), "--k", str(K),
            "--m", str(MODALITIES), "--dims", DIMS,
            "--train-frac", str(TRAIN_FRAC), "--val-frac", str(VAL_FRAC),
            "--epochs", str(sweep["epochs"]), "--warmup", str(sweep["warmup"]),
            "--batch-size", str(BATCH), "--hidden", str(HIDDEN), "--seed", str(self.seed),
        ], out, ("aggregate.csv",), self.traced, check_exit=False)
        self.runner.attempted += len(self.cells) - 1  # one operation per cell
        _check_sweep(self.runner, op, self.cells)
        if self.data_dir is None:  # train and eval this cell again, standalone
            self.cell = out / "cells" / _cell_dir(*self.spec["cell"])
            self.data_dir, self.variant = self.cell / "data", self.spec["cell"][2]
            try:
                self.train_seed = json.loads((self.data_dir / "manifest.json").read_text())["seed"]
            except (OSError, ValueError, KeyError) as exc:
                self.runner.fail(op.id, f"no dataset for cell {self.cell.name}: {exc}")
        return op

    def _train(self, j: int) -> Op:
        out = self.base / f"model{j}"
        return self.runner.cli(f"{self.tag}/train{j}", [
            "train", "--data", str(self.data_dir), "--out", str(out),
            *_train_flags(self.spec["train"], self.train_seed, self.variant),
        ], out, TRAIN_ARTIFACTS, self.traced)

    def _eval(self, j: int) -> Op:
        model, out = self.samples["train"][0].out, self.base / f"eval{j}"
        return self.runner.cli(f"{self.tag}/eval{j}", [
            "eval", "--checkpoint", str(model / "checkpoint.bin"), "--data", str(self.data_dir),
            "--weights", str(model / "weights.csv"), "--out", str(out),
        ], out, EVAL_ARTIFACTS, self.traced)


def _read_aggregate(path: Path) -> dict:
    """aggregate.csv as {column: {variant: text}}."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    table = {}
    for line in lines[1:]:
        row = line.split(",")
        for column, value in zip(header[1:], row[1:]):
            table.setdefault(column, {})[row[0]] = value
    return table


def _check_sweep(runner: Runner, op: Op, cells) -> None:
    """One failed operation per `error` cell; a sweep that fails otherwise fails every cell."""
    path = op.out / "aggregate.csv"
    table = _read_aggregate(path) if path.is_file() else {}
    failed = [(noise, bits, variant) for noise, bits, variant in cells
              if "error" in (table.get(f"{d}_n{noise}_b{bits}", {}).get(variant, "error")
                             for d in ("i2t", "t2i"))]
    if op.rc != 0 and not failed:
        failed = cells
    for cell in failed:
        runner.fail(f"{op.id}:{_cell_dir(*cell)}", f"error cell (sweep exit code {op.rc})")


def _check_cell_replay(runner: Runner, ops: dict, cell: Path, key) -> None:
    """A standalone train of a sweep cell must match the cell byte for byte."""
    train = ops["train"]
    for name in TRAIN_ARTIFACTS:
        path = cell / "train" / name
        if not path.is_file() or _sha256(path) != train.hashes.get(name):
            runner.fail(train.id, f"{name} differs from sweep cell {cell.name}")
    try:
        table = _read_aggregate(ops["sweep"].out / "aggregate.csv")
        rows = dict(line.split(",") for line in
                    (ops["eval"].out / "map.csv").read_text().splitlines()[1:])
    except (OSError, ValueError):
        return  # already counted as a failed operation
    noise, bits, variant = key
    for direction in ("i2t", "t2i"):
        if table.get(f"{direction}_n{noise}_b{bits}", {}).get(variant) != rows.get(direction):
            runner.fail(ops["eval"].id, f"map_{direction} differs from sweep cell {cell.name}")


def quality(spec: dict, ops: dict) -> dict:
    """test_map and noise_f1 from the first sample of each kind."""
    if spec["data"] is None:
        table = _read_aggregate(ops["sweep"].out / "aggregate.csv")
        values = [float(v) for column in table.values() for v in column.values()]
    else:
        rows = (ops["eval"].out / "map.csv").read_text().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in rows]
    detection = json.loads((ops["eval"].out / "noise_detection.json").read_text())
    return {"test_map": statistics.fmean(values), "noise_f1": float(detection["f1"])}


def end_to_end(spec: dict, setup_walls: list, pipeline: Pipeline) -> dict:
    """Medians over every sample of each kind."""
    def median(kind, field):
        return statistics.median(getattr(op, field) for op in pipeline.samples[kind])

    metrics = {
        "setup_s": statistics.median(setup_walls),
        "train_s": median("train", "wall"),
        "eval_s": median("eval", "wall"),
        "sweep_cell_s": median("sweep", "wall") / len(pipeline.cells),
        "peak_rss_mb": max(median(kind, "rss_mb") for kind in KINDS),
    }
    metrics.update(quality(spec, pipeline.first()))
    return metrics


# ---------------------------------------------------------------- trace side

def load_trace(path: Path) -> dict:
    """Spans of one traced command, aggregated: calls, self time, counters."""
    payload = json.loads(path.read_text())
    spans = payload["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = {}, {}
    train_owner = [-1] * len(spans)   # nearest enclosing trainer.train span
    in_eval = [False] * len(spans)    # inside cli.cmd_eval
    per_train = {}                     # train span -> {name: calls}
    eval_calls = {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        if name == "trainer.train":
            train_owner[i] = i
            per_train[i] = {}
        elif parent >= 0:
            train_owner[i] = train_owner[parent]
        in_eval[i] = name == "cli.cmd_eval" or (parent >= 0 and in_eval[parent])
        if train_owner[i] >= 0 and train_owner[i] != i:
            counts = per_train[train_owner[i]]
            counts[name] = counts.get(name, 0) + 1
        if in_eval[i]:
            eval_calls[name] = eval_calls.get(name, 0) + 1
    return {"calls": calls, "self_s": self_s, "counters": payload["counters"],
            "missing": payload["missing"], "per_train": list(per_train.values()),
            "eval_calls": eval_calls}


def expected_train_counts(n: int, epochs: int, warmup: int, variant: str) -> dict:
    """Call counts one training run must make, from its configuration."""
    n_train = math.floor(TRAIN_FRAC * n + 0.5)   # data.split's rounding
    steps = epochs * math.ceil(n_train / BATCH)
    return {
        "trainer.step": steps,
        "encoder.backward": MODALITIES * steps,
        "pacer.refresh_weights": epochs - warmup,
        "losses.chl_loss": 0 if variant == "no_chl" else steps,
    }


def self_check(runner: Runner, spec: dict, traced: dict, traces: dict) -> None:
    """Per-training-run call counts of the traced commands against the workload config."""
    sweep, train = spec["sweep"], spec["train"]
    n = spec["data"]["n"] if spec["data"] else sweep["n"]
    runs = {
        "sweep": [(sweep["n"], sweep["epochs"], sweep["warmup"], v) for _, _, v in _grid(sweep)],
        "train": [(n, train["epochs"], train["warmup"],
                   spec["cell"][2] if spec["data"] is None else "full")],
        "eval": [],
    }
    for kind, configs in runs.items():
        op, trace = traced[kind], traces[kind]
        if len(trace["per_train"]) != len(configs):
            runner.fail(op.id, f"{len(trace['per_train'])} traced training runs, "
                               f"expected {len(configs)}")
            continue
        for index, (config, seen) in enumerate(zip(configs, trace["per_train"])):
            checked = []
            for name, want in expected_train_counts(*config).items():
                if name in trace["missing"]:
                    continue  # the entry point is gone: absent, not wrong
                if seen.get(name, 0) != want:
                    runner.fail(op.id, f"training run {index} ({config[3]}): {name} called "
                                       f"{seen.get(name, 0)} times, expected {want}")
                checked.append(f"{name}={seen.get(name, 0)}/{want}")
            print(f"self-check {op.id} training run {index} ({config[3]}): " + " ".join(checked))


def per_layer(plain: dict, traced: dict, traces: dict) -> dict:
    """Per-layer metrics summed over the traced commands."""
    calls, self_s, counters, eval_calls, missing = {}, {}, {}, {}, set()
    for trace in traces.values():
        missing.update(trace["missing"])
        for source, target in ((trace["calls"], calls), (trace["self_s"], self_s),
                               (trace["counters"], counters), (trace["eval_calls"], eval_calls)):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value

    def absent(name: str) -> bool:
        owner = name.rsplit(".", 1)[0] if name.startswith("encoder.encode.") else name
        return owner in missing

    metrics = {}
    for name in LAYER_SPANS:
        if not absent(name):
            metrics[f"{name}.calls"] = calls.get(name, 0)
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for key in LAYER_COUNTERS:
        if not absent(key.rsplit(".", 1)[0]):
            metrics[key] = counters.get(key, 0)
    if calls.get("pacer.refresh_weights") and "pacer.admitted_ratio.sum" in counters:
        metrics["pacer.admitted_ratio"] = (counters["pacer.admitted_ratio.sum"]
                                           / calls["pacer.refresh_weights"])
    directions = eval_calls.get("evaluator.mean_average_precision", 0)
    if directions and not absent("kernels.pairwise_hamming_packed"):
        metrics["kernels.rankings_per_direction"] = (
            eval_calls.get("kernels.pairwise_hamming_packed", 0) / directions)
    metrics["process.cpu_s"] = sum(op.cpu for op in plain.values())
    metrics["trace.overhead_s"] = (sum(op.wall for op in traced.values())
                                   - sum(op.wall for op in plain.values()))
    if missing:
        print(f"absent entry points (metrics omitted): {sorted(missing)}", file=sys.stderr)
    return metrics


# ---------------------------------------------------------------- main

def environment(runner: Runner) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "envinfo.py")], env=runner.env,
                         cwd=runner.work, capture_output=True, text=True,
                         timeout=max(runner.remaining(), 1.0))
    try:
        return json.loads(out.stdout)
    except ValueError:
        return {"error": out.stderr.strip()[-500:]}


def measure(args, runner: Runner, spec: dict):
    """(metrics, units, all ops) of one run."""
    # compile the package's bytecode once so set-up times a warm import
    runner.spawn([sys.executable, "-c", "import sphash.cli"], runner.work / "warmup.stderr")
    setup_walls, data_dir = setup(runner, spec, args.seed)

    if args.trace:
        plain = Pipeline(runner, spec, args.seed, data_dir, "plain").first()
        traced = Pipeline(runner, spec, args.seed, data_dir, "traced", traced=True).first()
        for kind, op in traced.items():
            runner.same_artifacts(op, plain[kind], "traced vs untraced")
        metrics = {}
        if not runner.failed:
            traces = {kind: load_trace(op.trace_path) for kind, op in traced.items()}
            self_check(runner, spec, traced, traces)
            metrics = per_layer(plain, traced, traces) if not runner.failed else {}
        return metrics, per_layer_units(), [*plain.values(), *traced.values()]

    # Cycle through the commands, shortest first, until none fits in the
    # measuring time, so each command's samples spread over the whole run:
    # the host's speed drifts from one few-second window to the next.
    started = time.monotonic()
    pipeline = Pipeline(runner, spec, args.seed, data_dir, "run")
    ran = True
    while ran and not runner.failed:
        ran = False
        for kind in sorted(KINDS, key=lambda k: pipeline.samples[k][-1].wall):
            last = pipeline.samples[kind][-1].wall
            if (time.monotonic() - started + last <= args.seconds
                    and runner.remaining() > 1.5 * last):
                pipeline.run(kind)
                ran = True
    metrics = end_to_end(spec, setup_walls, pipeline) if not runner.failed else {}
    return metrics, END_TO_END, pipeline.ops()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; commands are sampled while another fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sphash" / "cli.py").is_file():
        print(f"no sphash source under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    spec = WORKLOADS[args.workload]
    label = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = WORK / f"{label}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, started)
    try:
        env = environment(runner)
        metrics, units, ops = measure(args, runner, spec)
        operations = {op.id: {"wall_s": op.wall, "cpu_s": op.cpu, "peak_rss_mb": op.rss_mb,
                              "sha256": op.hashes} for op in ops}
        for op in ops:  # keep the raw spans of a traced run
            if op.trace_path and op.trace_path.is_file():
                name = f"{label}-{op.id.replace('/', '-')}.spans.json"
                shutil.copyfile(op.trace_path, results / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": env, "operations": operations,
               "failed_operations": runner.failed, "metrics": metrics}
    (results / f"{label}.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print(f"{label}: {runner.attempted} operations, "
          f"{len(runner.failed)} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    for op_id, op in operations.items():
        print(f"{op_id} {op['wall_s']:.3f} s")
        for name, digest in sorted(op["sha256"].items()):
            print(f"  sha256 {digest} {name}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
