"""The benchmark tracer's view of the package stays valid.

``perfbench/tracer.py`` wraps sphash functions by name and lists any it cannot
find as missing instead of failing, and its counters swallow a missing
parameter or attribute. So a rename would silently drop that layer's
metrics. These tests load the tracer by path and check what it relies on,
mostly without installing it; one runs it on small commands and checks the
call counts of every training run as ``perfbench/run.py --trace 1`` does.
"""

import importlib
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from sphash import pacer, trainer
from sphash.data import SynthSpec, generate_synthetic, split, split_sizes

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
RUN_PATH = ROOT / "perfbench" / "run.py"

# parameters each of the tracer's counters reads from its call's bound arguments;
# write_dataset's counter reads the returned path, refresh_weights' the result
BOUND_PARAMETERS = {
    "fileio.write_dataset": (),
    "fileio.save_checkpoint": ("path",),
    "trainer.write_weight_log_csv": ("path",),
    "kernels.pairwise_hamming_packed": ("query_words", "gallery_words"),
    "kernels.ap_scores": ("ranked_relevance",),
    "pacer.refresh_weights": (),
}


def load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_by_path("perfbench_tracer", TRACER_PATH)


def entry_point(qualified: str):
    module_name, name = qualified.split(".")
    return getattr(importlib.import_module(f"sphash.{module_name}"), name, None)


def test_every_entry_point_resolves():
    tracer = load_tracer()
    names = [f"{module}.{name}" for module, names in tracer.ENTRY_POINTS.items() for name in names]
    assert [name for name in names if not callable(entry_point(name))] == []


def test_counted_entry_points_keep_their_parameters():
    tracer = load_tracer()
    assert set(tracer.COUNTERS) == set(BOUND_PARAMETERS)
    for qualified, params in BOUND_PARAMETERS.items():
        signature = inspect.signature(entry_point(qualified))
        assert set(params) <= set(signature.parameters), qualified


def test_refresh_counter_reads_weight_values():
    tracer = load_tracer()
    result = pacer.refresh_weights(np.array([0.0, 0.5, 2.0, 3.0]), gamma=1.0)
    assert isinstance(result.values, np.ndarray)
    recorder = tracer.Tracer()
    tracer.COUNTERS["pacer.refresh_weights"](recorder, {}, result)
    assert recorder.counters == {"pacer.admitted_ratio.sum": 0.5}


def test_weight_log_counter_reads_the_written_file_size(tmp_path):
    tracer = load_tracer()
    name = "trainer.write_weight_log_csv"
    recorder = tracer.Tracer()
    write = recorder.wrap(name, trainer.write_weight_log_csv, tracer.COUNTERS[name])
    dataset = generate_synthetic(SynthSpec(n=60, k=3, m=2, dims=(6, 5), seed=4))
    train_ds, val_ds, _ = split(dataset, 0.6, 0.2, 4)
    config = trainer.TrainConfig(code_length=8, hidden_dim=8, batch_size=16, warmup_epochs=1,
                                 max_epochs=3, seed=4)
    report = trainer.train(train_ds, val_ds, config)
    path = tmp_path / "weights.csv"
    write(report, train_ds, path)
    assert recorder.counters == {f"{name}.bytes": path.stat().st_size}
    assert path.stat().st_size > 0


def test_traced_training_runs_make_the_expected_calls(tmp_path):
    # a step that stops calling encoder.backward, or a refresh that stops calling
    # pacer.refresh_weights or encoder.encode, fails here and not only under
    # perfbench's --trace 1
    run = load_by_path("perfbench_run", RUN_PATH)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    n, epochs, warmup, seed = 300, 3, 1, 3
    synth = ["--n", str(n), "--k", "4", "--dims", "6,5",
             "--train-frac", str(run.TRAIN_FRAC), "--val-frac", str(run.VAL_FRAC)]
    training = ["--hidden", "16", "--batch-size", str(run.BATCH), "--epochs", str(epochs),
                "--warmup", str(warmup), "--seed", str(seed)]
    grid = {"noise_rates": (0.4,), "bits": (8,), "variants": ("full", "no_chl")}

    def sphash(*argv, trace=None):
        prefix = [str(TRACER_PATH), str(trace)] if trace else ["-m", "sphash.cli"]
        subprocess.run([sys.executable, *prefix, *argv], check=True, env=env, cwd=tmp_path,
                       stdout=subprocess.DEVNULL)
        return run.load_trace(trace) if trace else None

    sphash("gen-data", *synth, "--noise-rate", "0.4", "--seed", str(seed),
           "--out", str(tmp_path / "data"))
    traces = {
        "train": sphash("train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "m"),
                        "--bits", "8", *training, trace=tmp_path / "train.json"),
        "sweep": sphash("sweep", "--out", str(tmp_path / "s"), "--noise-rates", "0.4",
                        "--bits", "8", "--variants", "full,no_chl", *synth, *training,
                        trace=tmp_path / "sweep.json"),
    }
    variants = {"train": ["full"], "sweep": [variant for _, _, variant in run._grid(grid)]}
    chunks = math.ceil(split_sizes(n, run.TRAIN_FRAC, run.VAL_FRAC)[0] / trainer._REFRESH_CHUNK)
    refresh_encodes = run.MODALITIES * chunks * (epochs - warmup)  # per modality, chunk, epoch
    for kind, trace in traces.items():
        assert trace["missing"] == []
        assert len(trace["per_train"]) == len(variants[kind])
        for seen, variant in zip(trace["per_train"], variants[kind]):
            want = run.expected_train_counts(n, epochs, warmup, variant)
            assert {name: seen.get(name, 0) for name in want} == want, (kind, variant)
            assert seen.get("encoder.encode.refresh", 0) == refresh_encodes, (kind, variant)


def test_traced_eval_stays_one_command(tmp_path):
    # eval scores T2I in a forked child, which ends without returning into cli.main:
    # one command's stdout and one trace, holding the I2T scoring spans
    run = load_by_path("perfbench_run", RUN_PATH)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def sphash(*argv, trace=None):
        prefix = [str(TRACER_PATH), str(trace)] if trace else ["-m", "sphash.cli"]
        return subprocess.run([sys.executable, *prefix, *argv], check=True, env=env,
                              cwd=tmp_path, stdout=subprocess.PIPE, text=True).stdout

    data, model = str(tmp_path / "data"), str(tmp_path / "m")
    sphash("gen-data", "--n", "200", "--k", "4", "--dims", "6,5", "--noise-rate", "0.4",
           "--seed", "2", "--out", data)
    sphash("train", "--data", data, "--out", model, "--bits", "8", "--hidden", "8",
           "--epochs", "2", "--warmup", "1", "--seed", "2")
    printed = sphash("eval", "--checkpoint", f"{model}/checkpoint.bin", "--data", data,
                     "--out", str(tmp_path / "e"), trace=tmp_path / "eval.json")
    assert sorted(line.split()[0] for line in printed.splitlines()) == ["map_i2t", "map_t2i"]
    trace = run.load_trace(tmp_path / "eval.json")
    assert trace["calls"]["cli.cmd_eval"] == 1
    assert trace["eval_calls"]["evaluator.mean_average_precision"] == 1
