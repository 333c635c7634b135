"""README's library example runs, its CLI examples parse, and every exported name resolves."""

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from acawgn.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"
SUBMODULES = ("numerics", "inputs", "solver", "certificates", "scan")


def _library_example() -> str:
    """The python block under README's "Library surface" heading."""
    section = README.read_text().split("## Library surface", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    code = _library_example()
    assert "from acawgn import (" in code
    exec(compile(code, str(README), "exec"), {})


def test_readme_cli_examples_parse():
    # the sh block under README's "CLI" heading; build_parser's parser raises
    # CliError on any argument it does not accept
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = [ln for ln in block.splitlines() if ln.startswith("acawgn ")]
    assert examples
    for line in examples:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"acawgn.{name}")
    package = importlib.import_module("acawgn")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    # what the package re-exports from the module is the module's own object
    for n in module.__all__:
        if hasattr(package, n):
            assert getattr(package, n) is getattr(module, n), n


def test_cli_import_skips_scipy_linalg_and_optimize():
    # a cold `acawgn` command pays for what `import acawgn.cli` loads
    code = ("import sys, acawgn.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


def test_solve_never_loads_scipy_optimize():
    # the fixed-K optimizer is the solver's own Newton method
    code = ("import sys; from acawgn import solve_capacity; "
            "assert solve_capacity(8.0).converged; print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "False"
