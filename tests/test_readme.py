"""The README's library example and its CLI commands run as written."""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rectpencil.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def _cli_commands(reads_file=False):
    """``rectpencil …`` lines of the README's shell blocks that read the
    README's ``A.json`` (``reads_file``) or no file at all."""
    commands = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("rectpencil ") and (".json" in line) == reads_file:
                commands.append(shlex.split(line)[1:])
    return commands


def test_library_example_runs():
    (example,) = _blocks("python")
    with redirect_stdout(io.StringIO()) as out:
        exec(compile(example, "README.md", "exec"), {})
    assert out.getvalue()


def test_file_free_commands_are_all_covered():
    # the commands the README shows without an input file; if one is dropped
    # or gains a file argument, this list has to change with it
    assert sorted(" ".join(args[:2]) for args in _cli_commands()) == [
        "basis-check --i",
        "critical-poly --m",
        "discriminant23 --symbolic",
        "sds-poly --m",
        "transversality --basis",
    ]


@pytest.mark.parametrize("args", _cli_commands(), ids=lambda args: args[0])
def test_cli_command_exits_zero(args):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = main(args)
    assert code == EXIT_OK
    assert out.getvalue()


@pytest.mark.parametrize("args", _cli_commands(reads_file=True), ids=lambda args: args[0])
def test_file_command_exits_zero(tmp_path, monkeypatch, args):
    # the commands read A.json, the matrix the README's json block shows
    (matrix,) = _blocks("json")
    (tmp_path / "A.json").write_text(matrix)
    monkeypatch.chdir(tmp_path)
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = main(args)
    assert code == EXIT_OK
    assert out.getvalue()
