"""The README's library quick start and command lines run as written against
the package."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import taubnut.cli as cli

ROOT = Path(__file__).resolve().parents[1]


def test_library_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", block], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("Horizon ")


def _command_lines():
    """Each `taubnut ...` line of the README's Command line block, with its
    backslash continuations joined."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("taubnut ")]


def test_readme_has_command_lines():
    assert len(_command_lines()) == 5


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_runs(line, capsys):
    code = cli.main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out and captured.err == ""
