"""README's quick-start and command-line examples run as written and name real flags."""

import argparse
import re
import shlex
from pathlib import Path

from opsparse.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def test_quick_start_recovers_its_support(capsys):
    section = readme_section("Quick start")
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["zhat"].support() == [300, 1500]
    assert "[300, 1500]" in capsys.readouterr().out


def test_command_line_examples_run(tmp_path, monkeypatch):
    (block,) = re.findall(r"```sh\n(.*?)```", readme_section("Command line"),
                          flags=re.S)
    # one trial instead of README's fifty keeps the test fast
    assert "--trials 50" in block
    lines = block.replace("\\\n", " ").replace("--trials 50", "--trials 1")
    commands = [shlex.split(line)[1:] for line in lines.splitlines()
                if line.startswith("opsparse ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OPSPARSE_THREADS", "1")
    for argv in commands:
        assert main(argv) == 0, argv


def test_command_line_flags_exist():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    options = {opt for sub in subparsers.choices.values()
               for action in sub._actions for opt in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                           readme_section("Command line")))
    assert named, "no flags found in README's Command line section"
    assert named <= options, sorted(named - options)
