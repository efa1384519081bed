"""The README's quick-start commands and library example stay valid.

A flag renamed or retyped in ``sphash.cli``, or a public name removed from the
package, would otherwise leave the docs wrong while every test passes. One
test reads each ``sphash ...`` command of the quick start's shell block, joins
its continuation lines, and parses it with the CLI's parser; another parses
the "Library use" Python block and resolves every name it imports from
``sphash``, without running it.
"""

import ast
import importlib
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


def test_library_example_imports_resolve():
    block = re.search(r"## Library use\n+```python\n(.*?)```", README.read_text(), re.S).group(1)
    imports = [(node.module, alias.name) for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sphash"
               for alias in node.names]
    assert imports  # the block still shows the library
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
