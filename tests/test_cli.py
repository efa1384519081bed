import dataclasses
import errno
import itertools
import json
import os
import shutil
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sphash.cli as cli_module
import sphash.fileio as fileio
from sphash.cli import _list_of, build_parser, main
from sphash.data import SynthSpec, generate_synthetic, split
from sphash.encoder import init_centers, init_params
from sphash.errors import ParameterError, TrainingDivergedError
from sphash.evaluator import RetrievalTask, mean_average_precision, pr_curve
from sphash.fileio import load_checkpoint, read_dataset, write_csv
from sphash.kernels import QUERY_CHUNK
from sphash.trainer import TrainConfig, binary_codes
from oracles import (final_weight_dump_reference, naive_pr_curve, ranked_relevance_reference,
                     weight_histogram_reference)


def artifact_bytes(directory, skip=("run_manifest.json",)):
    """Byte map of every artifact except the manifest (it records wall time)."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(directory))] = path.read_bytes()
    return out


GEN_ARGS = [
    "gen-data", "--n", "120", "--k", "4", "--m", "2", "--dims", "10,8",
    "--noise-rate", "0.5", "--seed", "7",
]
TRAIN_ARGS = [
    "train", "--bits", "8", "--hidden", "12", "--batch-size", "16",
    "--warmup", "1", "--epochs", "3", "--alpha", "0.1", "--seed", "7",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    assert main(GEN_ARGS + ["--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, dataset_dir):
    path = tmp_path_factory.mktemp("train")
    code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(path)])
    assert code == 0
    return path


class TestGenData:
    def test_writes_expected_files(self, dataset_dir):
        names = {p.name for p in dataset_dir.iterdir()}
        assert {
            "modality_0.fmat", "modality_1.fmat", "labels.lmat",
            "true_labels.lmat", "noise_mask.lmat", "manifest.json", "run_manifest.json",
        } <= names

    def test_noise_applied_to_train_split_only(self, dataset_dir):
        ds, split_record = read_dataset(dataset_dir)
        tr, va, te = split(ds, *split_record)
        n_flipped = int(np.floor(0.5 * tr.n + 0.5))
        assert tr.noise_mask.sum() == n_flipped
        assert not va.noise_mask.any()
        assert not te.noise_mask.any()

    def test_deterministic_rerun(self, dataset_dir, tmp_path):
        assert main(GEN_ARGS + ["--out", str(tmp_path)]) == 0
        assert artifact_bytes(tmp_path) == artifact_bytes(dataset_dir)

    def test_bad_noise_rate_is_usage_error(self, tmp_path):
        assert main(GEN_ARGS[:-2] + ["--noise-rate", "1.5", "--out", str(tmp_path)]) == 2

    def test_bad_spec_is_usage_error(self, tmp_path):
        args = list(GEN_ARGS)
        args[args.index("--n") + 1] = "2"  # fewer instances than classes
        assert main(args + ["--out", str(tmp_path)]) == 2

    def test_run_manifest_fields(self, dataset_dir):
        manifest = json.loads((dataset_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 7
        assert manifest["tool_version"]
        assert manifest["artifacts"]
        assert "duration_seconds" in manifest

    def test_duration_is_not_negative_when_the_wall_clock_steps_back(self, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setattr(time, "time", itertools.count(1.7e9, -3600.0).__next__)
        assert main(GEN_ARGS + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["duration_seconds"] >= 0

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "eval-weights", "sweep"])
    def test_run_manifest_lists_only_the_files_it_wrote(self, dataset_dir, train_dir, tmp_path,
                                                         command):
        (tmp_path / "stale.fmat").touch()
        (tmp_path / "old.lmat").touch()
        (tmp_path / "stale.csv").touch()
        evaluate = ["eval", "--checkpoint", str(train_dir / "checkpoint.bin"),
                    "--data", str(dataset_dir)]
        argv, listed = {
            "gen-data": (GEN_ARGS, ["labels.lmat", "manifest.json", "modality_0.fmat",
                                    "modality_1.fmat", "noise_mask.lmat", "true_labels.lmat"]),
            "train": (TRAIN_ARGS + ["--data", str(dataset_dir)],
                      ["checkpoint.bin", "map_curve.csv", "report.csv", "weights.csv"]),
            "eval": (evaluate, ["map.csv", "pr_i2t.csv", "pr_t2i.csv"]),
            "eval-weights": (evaluate + ["--weights", str(train_dir / "weights.csv")],
                             ["map.csv", "noise_detection.json", "pr_i2t.csv", "pr_t2i.csv",
                              "weights_histogram.csv"]),
            "sweep": (SWEEP_ARGS + ["--noise-rates", "0.2", "--variants", "full"],
                      ["aggregate.csv"]),
        }[command]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["artifacts"] == listed


class TestTrain:
    def test_outputs_exist(self, train_dir):
        for name in ("checkpoint.bin", "report.csv", "map_curve.csv", "weights.csv", "run_manifest.json"):
            assert (train_dir / name).exists()

    def test_report_has_one_row_per_epoch(self, train_dir):
        lines = (train_dir / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3

    def test_missing_dataset_is_io_error(self, tmp_path):
        code = main(TRAIN_ARGS + ["--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out")])
        assert code == 3

    def test_no_spl_variant_reports_zero_weight_column(self, dataset_dir, tmp_path):
        code = main(
            TRAIN_ARGS + ["--variant", "no_spl", "--data", str(dataset_dir), "--out", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "report.csv").read_text().strip().splitlines()[1:]
        paced = [r.split(",") for r in rows if r.split(",")[1] == "selfpaced"]
        assert paced and all(r[6] == "0" for r in paced)

    def test_gamma_defaults_recorded_in_manifest(self, train_dir):
        manifest = json.loads((train_dir / "run_manifest.json").read_text())
        pace = manifest["config"]["train"]["pace"]
        assert pace["gamma_end"] is None  # a fixed pace
        assert pace["gamma_start"] == pytest.approx(1.5)

    def test_gamma_override_defaults_to_200(self, dataset_dir, tmp_path):
        code = main(
            TRAIN_ARGS
            + ["--variant", "gamma_override", "--data", str(dataset_dir), "--out", str(tmp_path)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config"]["train"]["pace"]["gamma_start"] == 200.0


class TestEval:
    def test_eval_outputs_and_stdout(self, dataset_dir, train_dir, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--checkpoint", str(train_dir / "checkpoint.bin"),
                "--data", str(dataset_dir),
                "--weights", str(train_dir / "weights.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        maps = {}
        for line in printed:
            key, value = line.split()
            maps[key] = value
        for key in ("map_i2t", "map_t2i"):
            assert len(maps[key].split(".")[1]) == 4  # four decimals
            assert 0.0 <= float(maps[key]) <= 1.0
        for name in ("pr_i2t.csv", "pr_t2i.csv", "map.csv", "noise_detection.json", "weights_histogram.csv"):
            assert (tmp_path / name).exists()
        detection = json.loads((tmp_path / "noise_detection.json").read_text())
        assert set(detection) == {"precision", "recall", "f1", "auc"}

    def test_pr_curve_matches_dense_oracle_bytes(self, dataset_dir, train_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(train_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir), "--out", str(out)]) == 0
        params, _ = load_checkpoint(train_dir / "checkpoint.bin")
        dataset, split_record = read_dataset(dataset_dir)
        train_ds, _, test_ds = split(dataset, *split_record)
        query = [binary_codes(params, test_ds, m) for m in range(test_ds.m)]
        gallery = [binary_codes(params, train_ds, m) for m in range(train_ds.m)]
        ranked = ranked_relevance_reference(query[0], test_ds.true_labels,
                                            gallery[1], train_ds.true_labels)
        expected = tmp_path / "pr_i2t.csv"
        write_csv(expected, ("recall", "precision"), naive_pr_curve(ranked, 21))
        assert (out / "pr_i2t.csv").read_bytes() == expected.read_bytes()

    def test_weights_histogram_matches_oracle_bytes(self, dataset_dir, train_dir, tmp_path):
        # bin edges (0.0, 0.05, 0.5), the top of the range (1.0) and values between them
        chosen = [0.0, 0.05, 0.5, 1.0, 0.049999, 0.3, 0.72, 0.95, 0.999999]
        header, *lines = (train_dir / "weights.csv").read_text().splitlines()
        last = max(int(line.split(",", 1)[0]) for line in lines)
        rewritten, weights = [], []
        for line in lines:
            epoch, index, loss, weight, noisy = line.split(",")
            if int(epoch) == last:  # rows and noise flags stay; only the weight changes
                weight = str(chosen[len(weights) % len(chosen)])
                weights.append(float(weight))
            rewritten.append(",".join((epoch, index, loss, weight, noisy)))
        dump, out = tmp_path / "weights.csv", tmp_path / "out"
        dump.write_text("\n".join([header, *rewritten]) + "\n")
        assert eval_with_weights(train_dir, dataset_dir, dump, out) == 0
        expected = tmp_path / "expected.csv"
        write_csv(expected, ("bin_left", "bin_right", "density"),
                  weight_histogram_reference(weights))
        assert (out / "weights_histogram.csv").read_bytes() == expected.read_bytes()

    def test_incompatible_dims_exit_5(self, train_dir, tmp_path):
        other = tmp_path / "other_data"
        assert main(
            ["gen-data", "--n", "60", "--k", "3", "--m", "2", "--dims", "9,8",
             "--noise-rate", "0.0", "--seed", "1", "--out", str(other)]
        ) == 0
        code = main(
            ["eval", "--checkpoint", str(train_dir / "checkpoint.bin"),
             "--data", str(other), "--out", str(tmp_path / "out")]
        )
        assert code == 5

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_checkpoint_weight_exit_3(self, dataset_dir, train_dir, tmp_path, value):
        raw = bytearray((train_dir / "checkpoint.bin").read_bytes())
        raw[-4:] = np.array([value], dtype="<f4").tobytes()  # the last encoder weight
        checkpoint = tmp_path / "checkpoint.bin"
        checkpoint.write_bytes(bytes(raw))
        code = main(
            ["eval", "--checkpoint", str(checkpoint), "--data", str(dataset_dir),
             "--out", str(tmp_path / "out")]
        )
        assert code == 3

    def test_missing_checkpoint_exit_3(self, dataset_dir, tmp_path):
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "none.bin"),
             "--data", str(dataset_dir), "--out", str(tmp_path / "out")]
        )
        assert code == 3

    # the header's hidden size (bytes 16-24) and the first modality dim (bytes 40-48)
    @pytest.mark.parametrize("offset, message", [(16, "implausible checkpoint sizes"),
                                                 (40, "implausible dims [0, 8]")],
                             ids=["zero-hidden", "zero-dim"])
    def test_checkpoint_with_a_zero_size_exit_3(self, dataset_dir, train_dir, tmp_path, capsys,
                                                offset, message):
        raw = bytearray((train_dir / "checkpoint.bin").read_bytes())
        raw[offset:offset + 8] = bytes(8)
        checkpoint = tmp_path / "checkpoint.bin"
        checkpoint.write_bytes(bytes(raw))
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_checkpoint_with_another_class_count_exit_5(self, dataset_dir, tmp_path, capsys):
        dataset, _ = read_dataset(dataset_dir)  # 4 classes
        checkpoint = tmp_path / "checkpoint.bin"
        fileio.save_checkpoint(init_params(dataset.dims, 12, 8, seed=0),
                               init_centers(3, 8, seed=0), checkpoint)
        out = tmp_path / "out"
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset_dir),
                     "--out", str(out)])
        assert code == 5
        assert "checkpoint has 3 centers, dataset has 4 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_pr_points_sets_the_curve_length(self, dataset_dir, train_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(train_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir), "--pr-points", "5", "--out", str(out)]) == 0
        for name in ("pr_i2t.csv", "pr_t2i.csv"):
            header, *rows = (out / name).read_text().splitlines()
            assert header == "recall,precision"
            assert len(rows) == 5


SWEEP_ARGS = [
    "sweep", "--noise-rates", "0.2,0.6", "--bits", "8", "--variants", "full,no_spl",
    "--n", "90", "--k", "3", "--m", "2", "--dims", "8,6",
    "--hidden", "10", "--batch-size", "16", "--warmup", "1", "--epochs", "3",
    "--alpha", "0.1", "--seed", "5",
]


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep")
    assert main(SWEEP_ARGS + ["--out", str(path)]) == 0
    return path


class TestSweep:
    def test_grid_shape(self, sweep_dir):
        lines = (sweep_dir / "aggregate.csv").read_text().strip().splitlines()
        assert lines[0] == "variant,i2t_n0.2_b8,t2i_n0.2_b8,i2t_n0.6_b8,t2i_n0.6_b8"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "full"
        assert lines[2].split(",")[0] == "no_spl"
        cells = lines[1].split(",")[1:] + lines[2].split(",")[1:]
        assert all(0.0 <= float(c) <= 1.0 for c in cells)

    def test_cell_directories(self, sweep_dir):
        assert (sweep_dir / "cells/n0.2_b8_full/train/checkpoint.bin").exists()
        assert (sweep_dir / "cells/n0.6_b8_no_spl/data/manifest.json").exists()

    def test_rerun_is_byte_identical(self, sweep_dir, tmp_path):
        assert main(SWEEP_ARGS + ["--out", str(tmp_path)]) == 0
        assert artifact_bytes(tmp_path) == artifact_bytes(sweep_dir)

    def test_programming_error_in_a_cell_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in cell code")

        monkeypatch.setattr(cli_module, "_run_cell", broken)
        with pytest.raises(RuntimeError):
            main(SWEEP_ARGS + ["--out", str(tmp_path)])

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--noise-rates", "0.2,1.5"),
            ("--noise-rates", "-0.1"),
            ("--variants", "full,bogus"),
            ("--bits", "8,0"),
            ("--bits", "8,1"),  # 2 codes for 3 classes
            ("--n", "2"),  # fewer instances than classes
            ("--train-frac", "0.95"),  # with val 0.1: no test split
            ("--gamma", "5"),  # above the loss bound 3 of every non-override variant
            ("--class-separation", "inf"),
            ("--intra-noise-std", "inf"),
            ("--noise-rates", ""),
            ("--bits", ","),
            ("--variants", ""),
            ("--noise-rates", "0.2,0.20"),  # one value as parsed
            ("--bits", "8,16,8"),
            ("--variants", "full,full"),
        ],
        ids=["noise-above-one", "noise-below-zero", "unknown-variant", "zero-bits",
             "bits-below-capacity", "n-below-k",
             "no-test-split", "gamma-above-bound", "infinite-separation", "infinite-noise-std",
             "no-noise-rate", "no-bits", "no-variant",
             "repeated-noise-rate", "repeated-bits", "repeated-variant"],
    )
    def test_bad_grid_exits_2_before_any_cell(self, tmp_path, flag, value):
        # a repeated flag's last value wins
        assert main(SWEEP_ARGS + [flag, value, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "cells").exists()
        assert not (tmp_path / "aggregate.csv").exists()

    def test_run_manifest_records_the_resolved_configuration(self, sweep_dir):
        config = json.loads((sweep_dir / "run_manifest.json").read_text())["config"]
        assert config["variants"] == ["full", "no_spl"] and config["n"] == 90
        assert config["synth"] == {"n": 90, "k": 3, "m": 2, "dims": [8, 6], "class_separation": 5.5,
                                   "intra_noise_std": 0.7, "seed": 5}
        assert config["split"] == {"train_frac": 0.7, "val_frac": 0.1}
        train = config["train"]
        assert [(c["code_length"], c["variant"]) for c in train] == [(8, "full"), (8, "no_spl")]
        assert all(c["hidden_dim"] == 10 and c["loss"]["alpha"] == 0.1 for c in train)
        assert all(c["pace"]["gamma_start"] == pytest.approx(1.5) for c in train)  # resolved

    def test_singular_variant_flag_selects_the_variant_grid(self, tmp_path, monkeypatch):
        # argparse resolves the prefix --variant to sweep's --variants; the last value wins
        monkeypatch.setattr(cli_module, "_run_cell", lambda *args: (0.5, 0.5))
        assert main(SWEEP_ARGS + ["--variant", "no_spl", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config"]["variants"] == ["no_spl"]

    def test_diverged_cell_becomes_error_cell(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise TrainingDivergedError("non-finite loss at epoch 2, batch 0", 2, 0)

        monkeypatch.setattr(cli_module.trainer, "train", explode)
        assert main(SWEEP_ARGS + ["--out", str(tmp_path)]) == 1
        rows = (tmp_path / "aggregate.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[1:] == ["error"] * 4 for row in rows)
        assert list((tmp_path / "cells").glob("*/train/checkpoint.bin")) == []

    def test_cell_equals_a_standalone_train_and_eval(self, sweep_dir, tmp_path):
        cell = sweep_dir / "cells" / "n0.6_b8_no_spl"
        seed = json.loads((cell / "data" / "manifest.json").read_text())["seed"]
        model, scores = tmp_path / "model", tmp_path / "eval"
        assert main(["train", "--data", str(cell / "data"), "--out", str(model), "--bits", "8",
                     "--variant", "no_spl", "--seed", str(seed), "--hidden", "10",
                     "--batch-size", "16", "--warmup", "1", "--epochs", "3", "--alpha", "0.1"]) == 0
        for name in ("checkpoint.bin", "report.csv", "map_curve.csv", "weights.csv"):
            assert (model / name).read_bytes() == (cell / "train" / name).read_bytes(), name
        assert main(["eval", "--checkpoint", str(model / "checkpoint.bin"),
                     "--data", str(cell / "data"), "--out", str(scores)]) == 0
        maps = dict(line.split(",") for line in (scores / "map.csv").read_text().splitlines()[1:])
        header, *rows = (sweep_dir / "aggregate.csv").read_text().splitlines()
        row = dict(zip(header.split(","), next(r for r in rows if r.startswith("no_spl,")).split(",")))
        assert maps == {"i2t": row["i2t_n0.6_b8"], "t2i": row["t2i_n0.6_b8"]}


def in_child_only(action):
    """A stand-in for cli._score_direction that runs action() first in a forked child."""
    parent, real = os.getpid(), cli_module._score_direction

    def score(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    return score


@pytest.fixture(scope="module")
def scoring_splits():
    # 100 test queries span four 32-query chunks; a 351-row gallery is no multiple of 8
    dataset = generate_synthetic(SynthSpec(n=501, k=4, m=2, dims=(10, 8), seed=11))
    train_ds, _, test_ds = split(dataset, 0.7, 0.1, 11)
    assert test_ds.n > 2 * QUERY_CHUNK and train_ds.n % 8
    params = init_params(dataset.dims, hidden_dim=16, code_length=16, seed=11)
    return params, train_ds, test_ds


class TestScoringProcesses:
    def test_scores_equal_one_process_scoring(self, scoring_splits):
        params, train_ds, test_ds = scoring_splits
        query = [binary_codes(params, test_ds, m) for m in range(test_ds.m)]
        gallery = [binary_codes(params, train_ds, m) for m in range(train_ds.m)]
        # I2T: modality-0 test queries against the modality-1 train gallery; T2I the reverse
        labels = test_ds.true_labels, train_ds.true_labels
        tasks = [("I2T", RetrievalTask(query[0], labels[0], gallery[1], labels[1])),
                 ("T2I", RetrievalTask(query[1], labels[0], gallery[0], labels[1]))]
        # 10,001 points pickle to more than a pipe's 64 KB buffer
        expected = [(name, mean_average_precision(t), pr_curve(t, 10_001)) for name, t in tasks]
        assert cli_module._test_split_scores(params, train_ds, test_ds, 10_001) == expected
        assert cli_module._test_split_scores(params, train_ds, test_ds) == [
            (direction, score, None) for direction, score, _ in expected]

    def test_child_error_is_raised_in_the_parent(self, scoring_splits, monkeypatch):
        def fail():
            raise ParameterError("T2I codes do not line up")

        monkeypatch.setattr(cli_module, "_score_direction", in_child_only(fail))
        with pytest.raises(ParameterError, match="T2I codes do not line up"):
            cli_module._test_split_scores(*scoring_splits)

    def test_child_error_that_cannot_pickle_arrives_as_its_text(self, scoring_splits,
                                                                 monkeypatch):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def fail():
            raise LocalError("only in the child")

        monkeypatch.setattr(cli_module, "_score_direction", in_child_only(fail))
        with pytest.raises(ChildProcessError, match="LocalError: only in the child"):
            cli_module._test_split_scores(*scoring_splits)

    def test_killed_child_makes_eval_exit_3(self, dataset_dir, train_dir, tmp_path, monkeypatch,
                                            capsys):
        kill = in_child_only(lambda: os.kill(os.getpid(), signal.SIGKILL))
        monkeypatch.setattr(cli_module, "_score_direction", kill)
        assert main(["eval", "--checkpoint", str(train_dir / "checkpoint.bin"),
                     "--data", str(dataset_dir), "--out", str(tmp_path)]) == 3
        assert "killed by signal 9" in capsys.readouterr().err
        assert not (tmp_path / "map.csv").exists()

    def test_killed_child_makes_its_sweep_cell_an_error(self, tmp_path, monkeypatch):
        kill = in_child_only(lambda: os.kill(os.getpid(), signal.SIGKILL))
        monkeypatch.setattr(cli_module, "_score_direction", kill)
        assert main(SWEEP_ARGS + ["--noise-rates", "0.2", "--variants", "full",
                                  "--out", str(tmp_path)]) == 1
        assert (tmp_path / "aggregate.csv").read_text().splitlines()[1] == "full,error,error"

    def test_parent_error_kills_and_reaps_the_child(self, scoring_splits, monkeypatch):
        parent, real = os.getpid(), cli_module._score_direction

        def score(*args):
            if os.getpid() == parent:
                raise RuntimeError("I2T failed")
            time.sleep(60)  # still running when the parent fails
            return real(*args)

        monkeypatch.setattr(cli_module, "_score_direction", score)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="I2T failed"):
            cli_module._test_split_scores(*scoring_splits)
        assert time.monotonic() - started < 30  # killed, not waited for

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors")
    def test_failed_fork_leaves_no_descriptor_open(self, scoring_splits, monkeypatch):
        def fail():
            raise OSError(errno.EAGAIN, "no process slot")

        monkeypatch.setattr(cli_module.os, "fork", fail)
        before = sorted(os.listdir("/proc/self/fd"))
        for _ in range(3):
            with pytest.raises(OSError, match="no process slot"):
                cli_module._test_split_scores(*scoring_splits)
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_interrupt_while_the_child_runs_kills_it(self, scoring_splits, monkeypatch):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_score_direction", in_child_only(lambda: time.sleep(60)))
        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.alarm(1)  # the parent is waiting on the child's pipe by then
            with pytest.raises(KeyboardInterrupt):
                cli_module._test_split_scores(*scoring_splits)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 30  # killed, not waited for


class TestConfigFile:
    def test_file_supplies_defaults_but_flags_win(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 64, "k": 4, "dims": "8,6", "noise-rate": 0.25, "seed": 9}))
        out = tmp_path / "data"
        code = main(
            ["gen-data", "--config", str(config), "--n", "80", "--out", str(out)]
        )
        assert code == 0
        ds, _ = read_dataset(out)
        assert ds.n == 80  # flag beat the file
        assert ds.class_count == 4  # file value applied
        assert ds.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        out = tmp_path / "d"
        # noise_rat and se only abbreviate --noise-rate and --seed, with values those flags take
        for values in ({"plutonium": 1}, {"noise_rat": 0.3}, {"se": 5}):
            config.write_text(json.dumps(values))
            assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 2, values
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, values",
        [("train", {"epochs": 12.5}), ("train", {"bits": 16.5}), ("train", {"hidden": 8.5}),
         ("train", {"batch_size": 16.5}), ("train", {"clean_val": "no"}), ("train", {"seed": 1.5}),
         ("train", {"eval_every": 1.5}), ("train", {"gamma_ramp": "1:2:x"}),
         ("gen-data", {"noise_rate": [0.2]})],  # a list for a single-value flag
        ids=lambda param: param if isinstance(param, str) else next(iter(param)),
    )
    def test_value_that_does_not_parse_as_its_flag_exit_2(self, dataset_dir, tmp_path, command,
                                                          values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "out"
        data = ["--data", str(dataset_dir)] if command == "train" else []
        assert main([command, "--config", str(config), *data, "--out", str(out)]) == 2
        assert not out.exists()

    def test_true_is_the_switch_and_null_is_left_out(self, dataset_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"clean_val": True, "variant": "no_spl", "gamma": None}))
        out = tmp_path / "model"
        code = main(TRAIN_ARGS + ["--config", str(config), "--data", str(dataset_dir),
                                  "--out", str(out)])
        assert code == 0
        train = json.loads((out / "run_manifest.json").read_text())["config"]["train"]
        assert train["clean_val"] is True
        assert train["variant"] == "no_spl"
        assert train["pace"]["gamma_start"] == pytest.approx(1.5)  # the default pace

    def test_gen_data_lists_match_flags(self, dataset_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 120, "k": 4, "m": 2, "dims": [10, 8],
                                      "noise_rate": 0.5, "seed": 7}))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
        assert artifact_bytes(out) == artifact_bytes(dataset_dir)

    def test_file_supplies_a_required_flag(self, dataset_dir, tmp_path):
        out = tmp_path / "data"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 120, "k": 4, "m": 2, "dims": [10, 8],
                                      "noise_rate": 0.5, "seed": 7, "out": str(out)}))
        assert main(["gen-data", "--config", str(config)]) == 0
        assert artifact_bytes(out) == artifact_bytes(dataset_dir)

    def test_required_flag_in_neither_exit_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 120}))
        assert main(["gen-data", "--config", str(config)]) == 2

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "sweep"])
    def test_ambiguous_prefix_of_config_exit_2_before_the_file_is_read(
            self, dataset_dir, train_dir, tmp_path, command):
        # --c also abbreviates --class-separation, --clean-val or --checkpoint
        paths = {"train": ["--data", str(dataset_dir)],
                 "eval": ["--checkpoint", str(train_dir / "checkpoint.bin"),
                          "--data", str(dataset_dir)]}
        out = tmp_path / "out"
        argv = [command, "--c", str(tmp_path / "missing.json"), *paths.get(command, []),
                "--out", str(out)]
        assert _exit_code(argv) == 2
        assert not out.exists()

    def test_unambiguous_prefix_of_config_applies_the_file(self, dataset_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bits": 6, "hidden": 12, "batch_size": 16, "warmup": 1,
                                      "epochs": 3, "alpha": 0.1, "seed": 7}))
        out = tmp_path / "model"
        assert main(["train", "--conf", str(config), "--data", str(dataset_dir),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["train"]["code_length"] == 6

    def test_sweep_lists_match_flags(self, sweep_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "noise_rates": [0.2, 0.6], "bits": [8], "variants": ["full", "no_spl"],
            "n": 90, "k": 3, "m": 2, "dims": [8, 6], "hidden": 10, "batch_size": 16,
            "warmup": 1, "epochs": 3, "alpha": 0.1, "seed": 5,
        }))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert artifact_bytes(out) == artifact_bytes(sweep_dir)


BAD_MANIFESTS = {
    "not json": lambda m: "{truncated",
    "not an object": lambda m: "[]",
    "missing key": lambda m: json.dumps({k: v for k, v in m.items() if k != "labels"}),
    "string class count": lambda m: json.dumps({**m, "class_count": "4"}),
    "bool seed": lambda m: json.dumps({**m, "seed": True}),
    "modality not a name": lambda m: json.dumps({**m, "modalities": [0, 1]}),
    "NUL in a file name": lambda m: json.dumps({**m, "labels": "labels\0.lmat"}),
    "one modality": lambda m: json.dumps({**m, "modalities": m["modalities"][:1]}),
    "no split": lambda m: json.dumps({k: v for k, v in m.items() if k != "split"}),
    "split not an object": lambda m: json.dumps({**m, "split": [0.7, 0.1]}),
    "split without val_frac": lambda m: json.dumps(
        {**m, "split": {k: v for k, v in m["split"].items() if k != "val_frac"}}),
    "string split seed": lambda m: json.dumps({**m, "split": {**m["split"], "seed": "7"}}),
    "split leaves no test rows":
        lambda m: json.dumps({**m, "split": {**m["split"], "train_frac": 0.95}}),
    "files disagree": lambda m: json.dumps({**m, "labels": m["true_labels"]}),
    # training would fit the clean labels and score detection against the noisy ones
    "swapped label names": lambda m: json.dumps(
        {**m, "labels": m["true_labels"], "true_labels": m["labels"]}),
    "class count off by one": lambda m: json.dumps({**m, "class_count": m["class_count"] + 1}),
}


WEIGHT_HEADER = "epoch,instance_index,loss,weight,is_noisy_ground_truth\n"
BAD_WEIGHT_DUMPS = {  # payload, expected exit code
    "missing column": ("epoch,instance_index,loss\n2,0,0.5\n", 3),
    "short row": (WEIGHT_HEADER + "2,0\n", 3),
    "non-integer epoch": (WEIGHT_HEADER + "2.5,0,0.5,0.2,0\n", 3),
    "unparsable weight": (WEIGHT_HEADER + "2,0,0.5,heavy,0\n", 3),
    "weight above one": (WEIGHT_HEADER + "2,0,0.5,1.5,0\n", 3),
    "nan weight": (WEIGHT_HEADER + "2,0,0.5,nan,0\n", 3),
    "index past the dataset": (WEIGHT_HEADER + "2,99999,0.5,0.2,0\n", 5),
    "negative index": (WEIGHT_HEADER + "2,-1,0.5,0.2,0\n", 5),
    "empty file": ("", 3),
    "reordered header": ("instance_index,epoch,loss,weight,is_noisy_ground_truth\n0,2,0.5,0.2,0\n", 3),
    "extra column": (WEIGHT_HEADER.replace("\n", ",extra\n") + "2,0,0.5,0.2,0,1\n", 3),
    "bad cell in an earlier epoch": (WEIGHT_HEADER + "1,0,0.5,heavy,0\n2,0,0.5,0.2,0\n", 3),
    "header-only": (WEIGHT_HEADER, 3),
}


def eval_with_weights(train_dir, data, weights, out) -> int:
    """Exit code of ``eval --weights`` on the checkpoint in train_dir."""
    return main(["eval", "--checkpoint", str(train_dir / "checkpoint.bin"), "--data", str(data),
                 "--weights", str(weights), "--out", str(out)])


class TestInputErrors:
    @pytest.mark.parametrize(
        "payload", [b"{not json", b"[1, 2]", b'"n"', b"\xff\xfe", b'{"dims": ["a"]}'],
    )
    def test_bad_config_file_exit_2(self, tmp_path, payload):
        config = tmp_path / "config.json"
        config.write_bytes(payload)
        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_bad_dataset_manifest_exit_3(self, dataset_dir, tmp_path, case):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(BAD_MANIFESTS[case](manifest))
        code = main(TRAIN_ARGS + ["--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 3

    def test_gen_data_with_three_modalities_exit_2(self, tmp_path):
        args = [a if a != "10,8" else "10,8,6" for a in GEN_ARGS]
        args[args.index("--m") + 1] = "3"
        assert main(args + ["--out", str(tmp_path / "d")]) == 2

    def test_three_modality_dataset_exit_3(self, dataset_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        shutil.copy(data / "modality_1.fmat", data / "modality_2.fmat")
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["modalities"].append("modality_2.fmat")
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = main(TRAIN_ARGS + ["--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 3

    def test_noise_mask_with_a_second_column_exit_3(self, dataset_dir, train_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        mask = fileio.load_labels(data / "noise_mask.lmat")  # N x 1
        fileio.save_labels(np.hstack([mask, np.zeros_like(mask)]), data / "noise_mask.lmat")
        assert main(TRAIN_ARGS + ["--data", str(data), "--out", str(tmp_path / "out")]) == 3
        out = tmp_path / "eval"
        assert eval_with_weights(train_dir, data, train_dir / "weights.csv", out) == 3
        assert not out.exists()

    def test_mask_outside_the_directory_exit_3(self, dataset_dir, tmp_path):
        data, outside = tmp_path / "data", tmp_path / "mask.lmat"
        shutil.copytree(dataset_dir, data)
        shutil.copy(data / "noise_mask.lmat", outside)  # the right mask, under another path
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps({**manifest, "mask": str(outside)}))
        assert main(TRAIN_ARGS + ["--data", str(data), "--out", str(tmp_path / "out")]) == 3

    def test_noise_mask_with_a_flipped_bit_exit_3(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        mask = fileio.load_labels(data / "noise_mask.lmat")
        mask[0] ^= 1
        fileio.save_labels(mask, data / "noise_mask.lmat")
        assert main(TRAIN_ARGS + ["--data", str(data), "--out", str(tmp_path / "out")]) == 3
        assert "noise mask" in capsys.readouterr().err

    # FMAT/LMAT header: magic (bytes 0-4), version (4-6), reserved (6-8), rows (8-16)
    @pytest.mark.parametrize("name, offset, value, message", [
        ("modality_0.fmat", 6, b"\x01\x00", "reserved header bytes are not zero"),
        ("modality_1.fmat", 8, bytes(8), "empty matrix (0x8)"),
        ("labels.lmat", 8, bytes(8), "empty matrix (0x4)"),
    ], ids=["fmat-reserved", "fmat-zero-rows", "lmat-zero-rows"])
    def test_corrupt_matrix_header_exit_3(self, dataset_dir, tmp_path, capsys, name, offset,
                                          value, message):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        raw = bytearray((data / name).read_bytes())
        raw[offset:offset + len(value)] = value
        (data / name).write_bytes(bytes(raw))
        assert main(TRAIN_ARGS + ["--data", str(data), "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gen-data", "--n", "20", "--k", "1", "--dims", "10,8"], "k=1 must be >= 2"),
        (["gen-data", "--n", "10", "--k", "2", "--dims", "10,8", "--train-frac", "0.01",
          "--val-frac", "0.1"], "degenerate split sizes (0/1/9)"),
        (["--bits", "0"], "code_length and hidden_dim must be positive"),
        (["--hidden", "0"], "code_length and hidden_dim must be positive"),
        (["--eval-every", "0"], "eval_every must be >= 1"),
        (["--gamma-ramp", "0.5:0.6:0"], "ramp_epochs must be >= 1"),
    ], ids=["one-class", "empty-train-split", "zero-bits", "zero-hidden", "zero-eval-every",
            "zero-ramp-epochs"])
    def test_out_of_range_value_exit_2(self, dataset_dir, tmp_path, capsys, argv, message):
        if argv[0] != "gen-data":
            argv = TRAIN_ARGS + ["--data", str(dataset_dir), *argv]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("train", "--alpha"), ("train", "--lr"), ("train", "--tau"),
         ("gen-data", "--train-frac"), ("gen-data", "--val-frac"),
         ("gen-data", "--class-separation"), ("gen-data", "--intra-noise-std")],
    )
    def test_nan_flag_exit_2(self, dataset_dir, tmp_path, command, flag):
        args = GEN_ARGS if command == "gen-data" else TRAIN_ARGS + ["--data", str(dataset_dir)]
        for value in ("nan", "inf"):
            assert main(args + [flag, value, "--out", str(tmp_path / value)]) == 2, value

    @pytest.mark.parametrize("ramp", ["1:2:x", "a:2:3", "1:2", "1:2:3:4"])
    def test_malformed_gamma_ramp_exit_2(self, dataset_dir, tmp_path, ramp):
        args = TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as err:  # argparse rejects it, as any bad flag value
            main(args + ["--gamma-ramp", ramp])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "pace", [["--gamma", "inf"], ["--gamma", "nan"], ["--gamma-ramp", "1:inf:2"],
                 ["--gamma-ramp", "1:nan:2"],
                 ["--gamma", "0.5"],  # inside (0, 3.0): it would exclude the hardest instances
                 ["--r", "0.005"]],  # the default 200 falls below this r's bound 398.01
        ids=["gamma-inf", "gamma-nan", "ramp-to-inf", "ramp-to-nan", "gamma-inside-bound",
             "default-inside-bound"],
    )
    def test_non_finite_gamma_override_exit_2_before_training(self, dataset_dir, tmp_path, pace):
        out = tmp_path / "out"
        args = TRAIN_ARGS + ["--variant", "gamma_override", "--data", str(dataset_dir)]
        assert main(args + pace + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_bits_below_class_capacity_exit_2(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        # {-1,+1}^1 holds 2 distinct centers, the dataset has 4 classes
        code = main(TRAIN_ARGS + ["--bits", "1", "--data", str(dataset_dir), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_out_naming_a_file_exit_3(self, dataset_dir, tmp_path):
        existing = tmp_path / "file"
        existing.write_text("")
        assert main(GEN_ARGS + ["--out", str(existing)]) == 3  # FileExistsError
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(existing / "sub")])
        assert code == 3  # NotADirectoryError

    @pytest.mark.parametrize("case", sorted(BAD_WEIGHT_DUMPS))
    def test_bad_weight_dump_typed_error(self, dataset_dir, train_dir, tmp_path, case):
        payload, expected = BAD_WEIGHT_DUMPS[case]
        weights = tmp_path / "weights.csv"
        weights.write_bytes(payload.encode())
        code = main(
            ["eval", "--checkpoint", str(train_dir / "checkpoint.bin"), "--data", str(dataset_dir),
             "--weights", str(weights), "--out", str(tmp_path / "out")]
        )
        assert code == expected

    @pytest.mark.parametrize(
        "case", ["missing file", "header-only", "unparsable weight", "index past the dataset"],
    )
    def test_bad_weight_dump_fails_before_any_retrieval_artifact(self, dataset_dir, train_dir,
                                                                 tmp_path, case):
        weights, out = tmp_path / "weights.csv", tmp_path / "out"
        expected = 3
        if case != "missing file":
            payload, expected = BAD_WEIGHT_DUMPS[case]
            weights.write_text(payload)
        code = eval_with_weights(train_dir, dataset_dir, weights, out)
        assert code == expected
        assert not (out / "map.csv").exists()

    def test_empty_weights_path_exit_3(self, dataset_dir, train_dir, tmp_path):
        out = tmp_path / "out"
        assert eval_with_weights(train_dir, dataset_dir, "", out) == 3
        assert not (out / "map.csv").exists()

    def test_bad_weight_dump_exit_3_on_a_dataset_without_noise(self, train_dir, tmp_path):
        clean = tmp_path / "clean"
        assert main(GEN_ARGS + ["--noise-rate", "0.0", "--out", str(clean)]) == 0
        weights, out = tmp_path / "weights.csv", tmp_path / "out"
        weights.write_text(BAD_WEIGHT_DUMPS["unparsable weight"][0])
        assert eval_with_weights(train_dir, clean, weights, out) == 3
        assert not (out / "map.csv").exists()

    @pytest.mark.parametrize(
        "case, expected",
        [("duplicate row", 3), ("missing row", 5), ("flipped noise flag", 5)],
    )
    def test_last_epoch_must_list_the_training_split_once(self, dataset_dir, train_dir, tmp_path,
                                                          case, expected):
        text = (train_dir / "weights.csv").read_text()
        last = text.splitlines()[-1]
        payload = {
            "duplicate row": text + last + "\n",
            "missing row": text[: -len(last) - 1],
            "flipped noise flag": text[:-2] + ("1" if last.endswith("0") else "0") + "\n",
        }[case]
        weights, out = tmp_path / "weights.csv", tmp_path / "out"
        weights.write_text(payload)
        assert eval_with_weights(train_dir, dataset_dir, weights, out) == expected
        assert not (out / "map.csv").exists()

    def test_weight_dump_of_another_noise_draw_exit_5(self, train_dir, tmp_path):
        # same seed, so the same split rows; another noise rate, so another noise mask
        other = tmp_path / "other"
        assert main(GEN_ARGS + ["--noise-rate", "0.2", "--out", str(other)]) == 0
        out = tmp_path / "out"
        assert eval_with_weights(train_dir, other, train_dir / "weights.csv", out) == 5
        assert not (out / "map.csv").exists()

    @pytest.mark.parametrize("points", ["1", "0", "two", "10002", "100000000000000000000"])
    def test_pr_points_outside_2_to_10001_exit_2_before_any_work(self, dataset_dir, train_dir,
                                                                 tmp_path, capsys, points):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:  # argparse rejects it, as any bad flag value
            main(["eval", "--checkpoint", str(train_dir / "checkpoint.bin"),
                  "--data", str(dataset_dir), "--out", str(out), "--pr-points", points])
        assert err.value.code == 2
        assert not out.exists()
        assert "map_" not in capsys.readouterr().out

    def test_run_manifest_written_atomically(self, tmp_path, monkeypatch):
        """Every file each command leaves behind went through fileio.atomic_write."""
        written = set()
        real = fileio.atomic_write

        def recording(path, payload):
            written.add(path.resolve())
            real(path, payload)

        monkeypatch.setattr(fileio, "atomic_write", recording)
        data, model = tmp_path / "data", tmp_path / "model"
        runs = {
            "gen-data": GEN_ARGS + ["--out", str(data)],
            "train": TRAIN_ARGS + ["--data", str(data), "--out", str(model)],
            "eval": ["eval", "--checkpoint", str(model / "checkpoint.bin"), "--data", str(data),
                     "--weights", str(model / "weights.csv"), "--out", str(tmp_path / "eval")],
            "sweep": SWEEP_ARGS + ["--out", str(tmp_path / "sweep")],
        }
        for command, argv in runs.items():
            assert main(argv) == 0
            out = Path(argv[argv.index("--out") + 1])
            left = {path.resolve() for path in out.rglob("*") if path.is_file()}
            assert "run_manifest.json" in {path.name for path in left}, command
            assert left - written == set(), command
        assert (tmp_path / "eval" / "noise_detection.json").exists()


_DUMP_ROWS = st.lists(
    st.tuples(
        st.integers(0, 4),  # epoch: shuffled and repeated across rows
        st.integers(0, 999),
        st.floats(0.0, 1e3),
        st.floats(0.0, 1.0),
        st.integers(0, 1),
    ),
    min_size=1, max_size=30,
)
# truncate at a position, flip one bit, or append bytes
_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
        st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(0, 7)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=40)),
    ),
    min_size=1, max_size=3,
)


def _mutate(raw: bytes, mutations) -> bytes:
    data = bytearray(raw)
    for kind, *arg in mutations:
        if kind == "truncate":
            del data[int(arg[0] * len(data)):]
        elif kind == "flip" and data:
            data[min(int(arg[0] * len(data)), len(data) - 1)] ^= 1 << arg[1]
        elif kind == "extend":
            data += arg[0]
    return bytes(data)


class TestWeightDump:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_DUMP_ROWS, newline=st.sampled_from(["\n", "\r\n"]), trailing=st.booleans())
    def test_reader_matches_dict_reader_oracle(self, tmp_path, rows, newline, trailing):
        lines = [WEIGHT_HEADER.strip()] + [
            f"{epoch},{index},{loss!r},{weight!r},{noisy}"
            for epoch, index, loss, weight, noisy in rows
        ]
        path = tmp_path / "weights.csv"
        path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode())
        idx, weights, _ = fileio.read_weight_log(path)
        ref_idx, ref_weights = final_weight_dump_reference(path)
        assert idx.dtype == ref_idx.dtype and idx.tolist() == ref_idx.tolist()
        assert weights.dtype == ref_weights.dtype
        assert weights.tobytes() == ref_weights.tobytes()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=_MUTATIONS)
    def test_mutated_dump_exits_0_3_or_5(self, dataset_dir, train_dir, tmp_path, mutations):
        weights = tmp_path / "weights.csv"
        weights.write_bytes(_mutate((train_dir / "weights.csv").read_bytes(), mutations))
        assert eval_with_weights(train_dir, dataset_dir, weights, tmp_path / "out") in (0, 3, 5)


_DATASET_FILES = ("modality_0.fmat", "modality_1.fmat", "labels.lmat", "true_labels.lmat",
                  "noise_mask.lmat")


class TestMutatedBinaryInputs:
    """Truncated, bit-flipped and extended FMAT, LMAT and checkpoint files through main.

    Every outcome is an exit code the README documents for these commands:
    never 1 (a failed sweep cell) and never an uncaught exception.
    """

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(_DATASET_FILES + ("checkpoint.bin",)), mutations=_MUTATIONS)
    def test_eval_exits_0_2_3_4_or_5(self, dataset_dir, train_dir, tmp_path, name, mutations):
        data, checkpoint = tmp_path / "data", tmp_path / "checkpoint.bin"
        shutil.copytree(dataset_dir, data, dirs_exist_ok=True)
        shutil.copy(train_dir / "checkpoint.bin", checkpoint)
        target = checkpoint if name == "checkpoint.bin" else data / name
        target.write_bytes(_mutate(target.read_bytes(), mutations))
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code in (0, 2, 3, 4, 5)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(_DATASET_FILES), mutations=_MUTATIONS)
    def test_train_exits_0_2_3_4_or_5(self, dataset_dir, tmp_path, name, mutations):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data, dirs_exist_ok=True)
        (data / name).write_bytes(_mutate((data / name).read_bytes(), mutations))
        code = main(TRAIN_ARGS + ["--data", str(data), "--out", str(tmp_path / "out")])
        assert code in (0, 2, 3, 4, 5)


_DOCUMENTED_EXITS = (0, 2, 3, 4, 5)  # never 1: that is a failed sweep cell
_MANIFEST_KEYS = ("modalities", "labels", "true_labels", "mask", "class_count", "seed", "split",
                  "train_frac", "val_frac")
# any JSON value; the dataset's own file names among them, so a retyped name can still load
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=8)
    | st.sampled_from(_DATASET_FILES + ("manifest.json", ".")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)
# drop a key, or set one (retyped if it exists, added if not), at the top level or in "split"
_MANIFEST_EDITS = st.lists(
    st.tuples(st.sampled_from(["drop", "set"]), st.booleans(),
              st.sampled_from(_MANIFEST_KEYS) | st.text(max_size=6), _JSON_VALUES),
    min_size=1, max_size=3,
)
# malformed flag values; finite extremes such as lr=1e308 are left out, since they end in
# exit 4 only after numpy's overflow warnings, which this suite turns into errors
_BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["nan", "inf", "-inf", "a\0b"]),
    st.integers(max_value=0), st.floats(max_value=0.0, allow_nan=False),
    st.text(st.characters(categories=("L",)), max_size=6),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
# every size flag is fixed on the command line, which wins over the config file
_CONFIG_RUNS = {
    "gen-data": ["--n", "60", "--k", "3", "--dims", "6,5"],
    "train": ["--bits", "8", "--hidden", "8", "--batch-size", "16", "--epochs", "6"],
    "eval": [],
    "sweep": ["--noise-rates", "0.5", "--bits", "8", "--variants", "full", "--n", "60",
              "--k", "3", "--dims", "6,5", "--hidden", "8", "--batch-size", "16", "--epochs", "6"],
}


def _edit_manifest(manifest: dict, edits) -> dict:
    for kind, in_split, key, value in edits:
        if in_split and not isinstance(manifest.get("split"), dict):
            continue  # an earlier edit dropped or retyped the split record
        record = manifest["split"] if in_split else manifest
        if kind == "drop":
            record.pop(key, None)
        else:
            record[key] = value
    return manifest


def _config_keys(command: str) -> list[str]:
    """The command's own flags as config keys."""
    (commands,) = build_parser()._subparsers._group_actions
    actions = commands.choices[command]._actions
    return sorted(flag[2:].replace("-", "_") for action in actions
                  for flag in action.option_strings if flag.startswith("--"))


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the command line itself
        return exc.code


class TestFuzzedTextInputs:
    """Mutated dataset manifests and malformed --config files through main.

    Every outcome is an exit code the README documents for these commands.
    """

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=_MANIFEST_EDITS)
    def test_mutated_manifest_exits_0_2_3_4_or_5(self, dataset_dir, train_dir, tmp_path, edits):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data, dirs_exist_ok=True)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps(_edit_manifest(manifest, edits)))
        code = main(TRAIN_ARGS + ["--data", str(data), "--out", str(tmp_path / "train")])
        assert code in _DOCUMENTED_EXITS
        code = eval_with_weights(train_dir, data, train_dir / "weights.csv", tmp_path / "eval")
        assert code in _DOCUMENTED_EXITS

    @pytest.mark.parametrize("command", sorted(_CONFIG_RUNS))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_config_exits_0_2_3_4_or_5(self, dataset_dir, train_dir, tmp_path, command,
                                                 data):
        keys = st.sampled_from(_config_keys(command)) | st.text(max_size=8)  # unknown ones too
        config = data.draw(st.dictionaries(keys, _BAD_VALUES | st.lists(_BAD_VALUES, max_size=3),
                                           min_size=1, max_size=4))
        (tmp_path / "config.json").write_text(json.dumps(config))
        paths = {"train": ["--data", str(dataset_dir)],
                 "eval": ["--checkpoint", str(train_dir / "checkpoint.bin"),
                          "--data", str(dataset_dir)]}
        argv = [command, "--config", str(tmp_path / "config.json"), *paths.get(command, []),
                *_CONFIG_RUNS[command], "--out", str(tmp_path / "out")]
        assert _exit_code(argv) in _DOCUMENTED_EXITS


def test_flag_defaults_are_the_config_defaults():
    parser = build_parser()
    args = parser.parse_args(["train", "--data", "data", "--out", "out"])
    assert cli_module._train_config(args, args.bits, args.variant) == TrainConfig()
    spec = cli_module._synth_spec(parser.parse_args(["gen-data", "--out", "out"]))
    defaults = {f.name: f.default for f in dataclasses.fields(SynthSpec)
                if f.default is not dataclasses.MISSING}
    assert {name: getattr(spec, name) for name in defaults} == defaults


def test_list_parser_is_element_typed():
    assert _list_of(int)("8,,6") == [8, 6]
    assert _list_of(str)("full,no_spl") == ["full", "no_spl"]


class TestReplay:
    def test_manifest_argv_reproduces_artifacts(self, dataset_dir, train_dir, sweep_dir, tmp_path):
        eval_dir = tmp_path / "eval"
        assert main(
            ["eval", "--checkpoint", str(train_dir / "checkpoint.bin"), "--data", str(dataset_dir),
             "--weights", str(train_dir / "weights.csv"), "--out", str(eval_dir)]
        ) == 0
        assert (eval_dir / "noise_detection.json").exists()
        runs = {"gen-data": dataset_dir, "train": train_dir, "eval": eval_dir, "sweep": sweep_dir}
        for command, out in runs.items():
            # replay the argv recorded in the run manifest into a fresh directory
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["command"] == command
            replay = tmp_path / f"replay-{command}"
            argv = list(manifest["argv"])
            argv[argv.index("--out") + 1] = str(replay)
            assert main(argv) == 0, command
            assert artifact_bytes(replay) == artifact_bytes(out), command


class TestExitCodes:
    def test_divergence_maps_to_exit_4(self, dataset_dir, tmp_path, monkeypatch):
        from sphash.errors import TrainingDivergedError
        import sphash.cli as cli_module

        def explode(*args, **kwargs):
            raise TrainingDivergedError("non-finite loss at epoch 3, batch 1", 3, 1)

        monkeypatch.setattr(cli_module.trainer, "train", explode)
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(tmp_path)])
        assert code == 4

    def test_diverged_train_leaves_no_file(self, dataset_dir, tmp_path, monkeypatch):
        real = cli_module.trainer.step

        def diverge_from_epoch_2(*args, epoch, **kwargs):
            if epoch >= 2:  # after validations that improved the best MAP
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", epoch, 0)
            return real(*args, epoch=epoch, **kwargs)

        monkeypatch.setattr(cli_module.trainer, "step", diverge_from_epoch_2)
        out = tmp_path / "model"
        assert main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(out)]) == 4
        assert list(out.rglob("*")) == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["train"])  # missing required flags
    assert err.value.code == 2
