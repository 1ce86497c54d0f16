"""README's code examples run against the package as it is."""

import re
import shlex
from pathlib import Path

import pytest

from neurotraj.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def first_block(text: str, heading: str, language: str) -> str:
    """The first fenced block in `language` after the line `heading`."""
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```", section, re.S | re.M).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    code = first_block(README.read_text(encoding="utf-8"), "## Library use", "python")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md (Library use)", "exec"), {"__name__": "readme"})
    assert (tmp_path / "runs" / "exp6" / "summary.json").is_file()
    assert "'rmse'" in capsys.readouterr().out


def test_command_line_block_parses():
    block = first_block(README.read_text(encoding="utf-8"), "## Command line", "bash")
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("neurotraj ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's `neurotraj {shlex.join(argv)}` does not parse")
