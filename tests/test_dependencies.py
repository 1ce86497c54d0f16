"""The third-party modules the package imports are exactly the runtime
dependencies that pyproject.toml declares, and the package's modules
import what they need at module level, with the exceptions named here,
and use every name they import."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neurotraj"


def _names(requirements):
    """Distribution names of PEP 508 requirement strings, lower-cased."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in one module, including
    imports nested inside functions."""
    found = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def imported_third_party(package_dir: Path) -> set[str]:
    """Top-level names of every absolute import in the package's modules,
    including imports nested inside functions, less the standard library
    and the package itself."""
    found = set().union(*map(imported_modules, sorted(package_dir.glob("*.py"))))
    return found - set(sys.stdlib_module_names) - {package_dir.name}


def function_imports(node: ast.AST, function: str | None = None):
    """(function, imported name) for each import inside a function body,
    named after the innermost function that holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from function_imports(child, child.name)
            continue
        if function is not None and isinstance(child, (ast.Import, ast.ImportFrom)):
            yield from ((function, alias.name) for alias in child.names)
        yield from function_imports(child, function)


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _names(project["dependencies"])
    assert imported_third_party(ROOT / "src" / "neurotraj") == declared == {"numpy", "orjson"}
    assert {"scipy", "pytest", "hypothesis"} <= _names(project["optional-dependencies"]["test"])


def test_only_trajectory_imports_csv():
    """One module holds the CSV form: every CSV file is written and read
    through trajectory.write_csv and trajectory.read_csv."""
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "csv" in imported_modules(path)]
    assert importers == ["trajectory.py"]


def test_imports_inside_functions_are_the_known_exceptions():
    """orjson stays out of import time for the commands that do not touch run
    files; Columns would be an import cycle (objectives imports trajectory)."""
    found = {(path.name, *pair) for path in sorted(PACKAGE.glob("*.py"))
             for pair in function_imports(_parse(path))}
    assert found == {
        ("experiment.py", "persist_experiment", "orjson"),
        ("experiment.py", "_read_run", "orjson"),
        ("trajectory.py", "_targets", "Columns"),
    }


def bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds: `import a.b` binds `a`."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_every_imported_name_is_used():
    """A module uses each name it imports (a `__future__` import binds
    none); `__init__.py` imports names only to re-export them."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                   for name in bound_names(node) if name not in used]
    assert unused == []
