"""Every ```python block of README.md runs, in a fresh namespace, and
every `cyclewalk ...` line of its "Command line" block exits 0."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from cyclewalk import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
COMMANDS = [shlex.split(line)[1:] for line in re.search(
    r"^## Command line\n.*?^```\n(.*?)^```", TEXT,
    flags=re.M | re.S).group(1).splitlines()
    if line.startswith("cyclewalk ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], "README.md block %d" % index, "exec"), {})


def test_readme_has_command_lines():
    assert len(COMMANDS) >= len(cli._COMMANDS)


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_readme_command_runs(args):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(args) == 0
    assert out.getvalue()
