"""The README's command lines run, and it names the flags the parser has."""

import re
import shlex
from pathlib import Path

import pytest

from stokesbc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """``stokesbc`` lines of the README's sh blocks, continuations joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split("#", 1)[0].split()
            if words[:1] == ["stokesbc"]:
                commands.append(" ".join(words))
    return commands


def long_flags(text):
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))


def test_readme_shows_both_subcommands():
    subcommands = [shlex.split(c)[1] for c in readme_commands()]
    assert subcommands.count("convergence") >= 2
    assert "counterexample" in subcommands


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_runs(command, tmp_path, capsys):
    argv = shlex.split(command)[1:]
    if argv[0] == "convergence":
        # a cheap study: at most two levels
        if "--levels" in argv:
            i = argv.index("--levels") + 1
            argv[i] = str(min(int(argv[i]), 2))
        else:
            argv += ["--levels", "2"]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path / "out")
    else:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert (tmp_path / "out").read_text(encoding="utf-8")


def test_readme_names_exactly_the_convergence_flags(capsys):
    assert cli.main(["convergence", "--help"]) == 0
    defined = long_flags(capsys.readouterr().out)
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert long_flags(section) == defined
