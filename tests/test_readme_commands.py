"""The README's quick-start commands stay valid sphash command lines.

A flag renamed or retyped in ``sphash.cli`` would otherwise leave the docs
wrong while every test passes. This test reads each ``sphash ...`` command of
the quick start's shell block, joins its continuation lines, and parses it
with the CLI's parser.
"""

import re
import shlex
from pathlib import Path

from sphash.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_commands() -> list[list[str]]:
    """The argv of each ``sphash`` command in the quick start, without the program name."""
    block = re.search(r"## Quick start\n+```bash\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("sphash ")]


def test_every_quick_start_command_parses():
    parser = build_parser()
    commands = [parser.parse_args(argv).command for argv in quick_start_commands()]
    assert commands == ["gen-data", "train", "eval", "sweep"]
