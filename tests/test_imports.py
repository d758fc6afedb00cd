"""The library stays pure standard library: every absolute import in
``src/planartl`` names a standard-library module, and importing the
command line loads none of the heavy introspection modules.  And each
library module's ``__all__`` names exactly its public definitions."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "planartl").glob("*.py"))


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


def test_cli_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect, which pulls in ast and dis: each
    # start of the command line would pay for them
    heavy = ("dataclasses", "inspect", "ast", "dis")
    code = f"import sys, planartl.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Public top-level names kept out of ``__all__`` on purpose.
UNEXPORTED = {
    # enumerate_pairings under the name the tracing harness wraps
    ("diagram.py", "enumerate_diagrams"),
}


def public_names(tree: ast.Module) -> set[str]:
    """Every public top-level def or class, and every upper-case
    top-level constant."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper())
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.target.id.isupper():
                names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def exports(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return None


def test_every_library_module_exports_exactly_its_public_names():
    # the command line frontend and the package marker export nothing
    modules = [path for path in SOURCES if path.name not in ("__init__.py", "cli.py")]
    assert len(modules) >= 8
    assert {name for name, _ in UNEXPORTED} <= {path.name for path in modules}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        exported = exports(tree)
        assert exported is not None, f"{path.name} has no __all__"
        assert len(set(exported)) == len(exported), f"{path.name} exports a name twice"
        module = importlib.import_module(f"planartl.{path.stem}")
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], f"{path.name} exports names it does not define"
        public = public_names(tree)
        kept_out = {name for module_name, name in UNEXPORTED if module_name == path.name}
        assert kept_out <= public - set(exported), f"{path.name} lists a stale exception"
        assert public - set(exported) - kept_out == set(), f"{path.name} does not export its public names"
