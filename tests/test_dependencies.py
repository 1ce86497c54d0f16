"""The third-party modules the package imports are exactly the runtime
dependencies that pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def _names(requirements):
    """Distribution names of PEP 508 requirement strings, lower-cased."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def imported_third_party(package_dir: Path) -> set[str]:
    """Top-level names of every absolute import in the package's modules,
    including imports nested inside functions, less the standard library
    and the package itself."""
    found = set()
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {package_dir.name}


def test_imports_match_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _names(project["dependencies"])
    assert imported_third_party(ROOT / "src" / "neurotraj") == declared == {"numpy", "orjson"}
    assert {"scipy", "pytest", "hypothesis"} <= _names(project["optional-dependencies"]["test"])
