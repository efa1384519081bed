import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import sphash.cli as cli_module
import sphash.fileio as fileio
from sphash.cli import _list_of, main
from sphash.errors import TrainingDivergedError
from sphash.fileio import read_dataset
from sphash.data import split


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
        ds, manifest = read_dataset(dataset_dir)
        tr, va, te = split(
            ds, manifest["split"]["train_frac"], manifest["split"]["val_frac"],
            manifest["split"]["seed"],
        )
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
        assert pace["mode"] == "fixed"
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

    def test_missing_checkpoint_exit_3(self, dataset_dir, tmp_path):
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "none.bin"),
             "--data", str(dataset_dir), "--out", str(tmp_path / "out")]
        )
        assert code == 3


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

    def test_diverged_cell_becomes_error_cell(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise TrainingDivergedError("non-finite loss at epoch 2, batch 0", 2, 0)

        monkeypatch.setattr(cli_module.trainer, "train", explode)
        assert main(SWEEP_ARGS + ["--out", str(tmp_path)]) == 1
        rows = (tmp_path / "aggregate.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[1:] == ["error"] * 4 for row in rows)


class TestConfigFile:
    def test_file_supplies_defaults_but_flags_win(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 64, "k": 4, "dims": "8,6", "noise-rate": 0.25, "seed": 9}))
        out = tmp_path / "data"
        code = main(
            ["gen-data", "--config", str(config), "--n", "80", "--out", str(out)]
        )
        assert code == 0
        ds, manifest = read_dataset(out)
        assert ds.n == 80  # flag beat the file
        assert ds.class_count == 4  # file value applied
        assert manifest["seed"] == 9

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"plutonium": 1}))
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d")])
        assert code == 2


BAD_MANIFESTS = {
    "not json": lambda m: "{truncated",
    "not an object": lambda m: "[]",
    "missing key": lambda m: json.dumps({k: v for k, v in m.items() if k != "labels"}),
    "string class count": lambda m: json.dumps({**m, "class_count": "4"}),
    "bool seed": lambda m: json.dumps({**m, "seed": True}),
    "modality not a name": lambda m: json.dumps({**m, "modalities": [0, 1]}),
    "one modality": lambda m: json.dumps({**m, "modalities": m["modalities"][:1]}),
    "split not an object": lambda m: json.dumps({**m, "split": [0.7, 0.1]}),
    "string split seed": lambda m: json.dumps({**m, "split": {**m["split"], "seed": "7"}}),
    "files disagree": lambda m: json.dumps({**m, "labels": m["true_labels"]}),
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
}


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

    @pytest.mark.parametrize(
        "command, flag",
        [("train", "--alpha"), ("train", "--lr"), ("train", "--tau"),
         ("gen-data", "--train-frac"), ("gen-data", "--val-frac")],
    )
    def test_nan_flag_exit_2(self, dataset_dir, tmp_path, command, flag):
        args = GEN_ARGS if command == "gen-data" else TRAIN_ARGS + ["--data", str(dataset_dir)]
        for value in ("nan", "inf"):
            assert main(args + [flag, value, "--out", str(tmp_path / value)]) == 2, value

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


def test_list_parser_is_element_typed():
    assert _list_of(int)("8,,6") == [8, 6]
    assert _list_of(float)([1, "0.5"]) == [1.0, 0.5]
    assert _list_of(str)("full,no_spl") == ["full", "no_spl"]


class TestReplay:
    def test_manifest_argv_reproduces_artifacts(self, dataset_dir, tmp_path):
        # replay the argv recorded in the run manifest into a fresh directory
        manifest = json.loads((dataset_dir / "run_manifest.json").read_text())
        replay = tmp_path / "replay"
        argv = list(manifest["argv"])
        argv[argv.index("--out") + 1] = str(replay)
        assert main(argv) == 0
        assert artifact_bytes(replay) == artifact_bytes(dataset_dir)


class TestExitCodes:
    def test_divergence_maps_to_exit_4(self, dataset_dir, tmp_path, monkeypatch):
        from sphash.errors import TrainingDivergedError
        import sphash.cli as cli_module

        def explode(*args, **kwargs):
            raise TrainingDivergedError("non-finite loss at epoch 3, batch 1", 3, 1)

        monkeypatch.setattr(cli_module.trainer, "train", explode)
        code = main(TRAIN_ARGS + ["--data", str(dataset_dir), "--out", str(tmp_path)])
        assert code == 4


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["train"])  # missing required flags
    assert err.value.code == 2
