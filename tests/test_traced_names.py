"""Every name the benchmark's tracer wraps is still called by the program.

The tracer in `perfbench/tracing.py` replaces module-level names with
timing wrappers. A wrapped name that the program no longer calls records no
span, and its rows of the benchmark then read 0 whatever the code does.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from neurotraj import cli  # noqa: E402

COMMANDS = (
    ["run", "--preset", "exp2", "--scale", "0.1", "--out", "exp2"],
    ["run", "--preset", "exp13", "--scale", "0.1", "--out", "exp13"],
    ["run", "--preset", "exp12", "--scale", "0.1", "--out", "exp12"],
    ["analyze", "exp13", "exp12", "--out", "analysis"],
)


def test_every_traced_name_records_a_span(tmp_path, monkeypatch):
    """exp2 (NSGA-II, RMSE not searched), exp13 (MOEA/D) and exp12 (NSGA-II),
    then the comparison of exp13 with exp12, call every wrapped name."""
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in COMMANDS]
    finally:
        tracer.uninstall()
    assert codes == [cli.EXIT_OK] * len(COMMANDS)
    recorded = {span[0] for span in tracer.spans}
    assert [name for _, _, name in tracing.TARGETS if name not in recorded] == []
