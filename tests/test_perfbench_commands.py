"""The benchmark's command lines stay valid sphash command lines.

``perfbench/run.py`` builds each command it times as an argv list. A flag
renamed or retyped in ``sphash.cli`` would otherwise show up only as failed
benchmark operations. This test loads the harness by path, lets it build every
workload's commands with a runner that records each argv instead of spawning
a process, and parses them with the CLI's parser.
"""

import importlib.util
from pathlib import Path

from sphash.cli import build_parser

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
