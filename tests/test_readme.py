"""README.md states the contract: its commands run as it says, and it names every public routine."""

import ast
import pathlib
import re
import shlex

import pytest

import upb3q
from upb3q.cli import main

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_commands():
    """The argv of each `upb3q ...` line in a fenced block, without its # comment and > redirection."""
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] != ["upb3q"]:
                continue
            if ">" in words:
                cut = words.index(">")
                del words[cut:cut + 2]
            yield words[1:]


COMMANDS = list(_readme_commands())


def test_the_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"verify", "orbit", "bloch"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    # an unfiltered verify runs the nine red stationary.local_* claims, so it exits 1
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == (1 if argv[0] == "verify" and "--filter" not in argv else 0)
    for flag in ("--json", "--csv"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            assert (out if path == "-" else (tmp_path / path).read_text(encoding="utf-8")) != ""


def test_every_public_routine_is_named_in_the_readme():
    # each module's top-level public def and class appears in README.md in backticks, as name or module.name
    package = pathlib.Path(upb3q.__file__).parent
    names = [(path.stem, node.name) for path in sorted(package.glob("*.py"))
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert len({module for module, _ in names}) == 7  # every module but __init__, which defines nothing
    assert [f"{module}.{name}" for module, name in names
            if not re.search(rf"`(?:{module}\.)?{name}\b", README)] == []
