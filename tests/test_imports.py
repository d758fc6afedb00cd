"""The library stays pure standard library: every absolute import in
``src/planartl`` names a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "planartl").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level module name of every absolute import in the file,
    at any depth (function-local imports included)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def test_library_imports_only_the_standard_library():
    assert len(SOURCES) >= 10
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert outside == set()
