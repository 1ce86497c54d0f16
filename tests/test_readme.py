"""README's code examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def first_python_block(text: str, heading: str) -> str:
    """The first fenced python block after the line `heading`."""
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    code = first_python_block(README.read_text(encoding="utf-8"), "## Library use")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md (Library use)", "exec"), {"__name__": "readme"})
    assert (tmp_path / "runs" / "exp6" / "summary.json").is_file()
    assert "'rmse'" in capsys.readouterr().out
