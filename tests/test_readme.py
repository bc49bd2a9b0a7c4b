"""The README's library example and command line examples run against the
current public names."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from heckedual.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under '## Library example'"
    return match.group(1)


def cli_examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert match, "README has no sh block under '## Command line'"
    return [line for line in match.group(1).splitlines() if line.startswith("heckedual ")]


def test_every_command_has_an_example():
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert [shlex.split(line)[1] for line in cli_examples()] == list(subcommands.choices)


@pytest.mark.parametrize("line", cli_examples())
def test_cli_example_runs(capsys, line):
    argv = shlex.split(line, comments=True)[1:]
    assert main(["--format", "json"] + argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert isinstance(json.loads(out), dict)


def test_library_example_runs(capsys):
    code = library_example()
    exec(compile(code, str(README), "exec"), {})
    # the first print is annotated with its output in the README
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    expected = first_print.split("#", 1)[1].strip()
    assert capsys.readouterr().out.splitlines()[0] == expected
