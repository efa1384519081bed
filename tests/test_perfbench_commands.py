"""The benchmark's command lines and the sweep layout it reads stay sphash's.

``perfbench/run.py`` builds each command it times as an argv list, and reads
a sweep's cells and ``aggregate.csv`` by its own idea of their names and
order. A flag renamed or retyped in ``sphash.cli``, or a sweep that walks or
names its grid differently, would otherwise show up only as failed benchmark
operations. These tests load the harness by path: one lets it build every
workload's commands with a runner that records each argv instead of spawning
a process, and parses them with the CLI's parser; the other runs a sweep
without training and reads it back with the harness's own readers.
"""

import importlib.util
from pathlib import Path

import sphash.cli as cli_module
from sphash.cli import build_parser, main

RUN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RecordingRunner:
    """The part of perfbench's Runner that setup and Pipeline use; runs nothing."""

    def __init__(self, run, work: Path):
        self.run, self.work = run, work
        self.argvs: list[list[str]] = []
        self.attempted = 0

    def cli(self, op_id, argv, out, artifacts=(), traced=False, check_exit=True):
        self.argvs.append(list(argv))
        return self.run.Op(op_id, 0, 0.0, 0.0, 0.0, out, None)

    def fail(self, op_id, reason):
        pass  # nothing ran, so every artifact check fails

    def same_artifacts(self, op, reference, what):
        pass


def test_every_benchmark_argv_parses(tmp_path):
    run = load_run()
    parser = build_parser()
    commands = set()
    for workload, spec in run.WORKLOADS.items():
        runner = RecordingRunner(run, tmp_path / workload)
        _, data_dir = run.setup(runner, spec, 19)
        run.Pipeline(runner, spec, 19, data_dir, "run")
        for argv in runner.argvs:
            if argv != ["--version"]:  # the import-only set-up
                commands.add(parser.parse_args(argv).command)
    assert commands == {"gen-data", "sweep", "train", "eval"}


def test_sweep_layout_is_the_one_perfbench_reads(tmp_path, monkeypatch):
    run = load_run()
    grid = {"noise_rates": [0.2, 0.6], "bits": [8, 16], "variants": ["full", "no_spl"]}
    calls = []

    def run_cell(args, noise, spec, config, seed, cell_dir):
        calls.append(((noise, config.code_length, config.variant), cell_dir))
        return 0.125 + len(calls), 0.5 + len(calls)  # two scores no other cell has

    monkeypatch.setattr(cli_module, "_run_cell", run_cell)
    assert main(["sweep", "--noise-rates", "0.2,0.6", "--bits", "8,16",
                 "--variants", "full,no_spl", "--n", "90", "--k", "3", "--dims", "8,6",
                 "--out", str(tmp_path)]) == 0
    assert [cell for cell, _ in calls] == run._grid(grid)
    table = run._read_aggregate(tmp_path / "aggregate.csv")
    for i, ((noise, bits, variant), cell_dir) in enumerate(calls, start=1):
        assert cell_dir.name == run._cell_dir(noise, bits, variant)
        assert table[f"i2t_n{noise}_b{bits}"][variant] == f"{0.125 + i:.6f}"
        assert table[f"t2i_n{noise}_b{bits}"][variant] == f"{0.5 + i:.6f}"
