"""Every module of the package uses each name it imports, every name the
package exports exists, and every function the benchmark tracer wraps
still exists.

``__init__.py`` is left out of the import check: it imports names only to
re-export them.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mastkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_package_exports_resolve_once():
    import mastkit

    missing = [name for name in mastkit.__all__ if not hasattr(mastkit, name)]
    twice = sorted({name for name in mastkit.__all__
                    if mastkit.__all__.count(name) > 1})
    assert not missing, f"__all__ names nothing at: {missing}"
    assert not twice, f"__all__ lists more than once: {twice}"


def test_tracer_targets_resolve():
    # perfbench is not a package; its tracer is loaded from its file.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module("mastkit." + module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert tracer.TARGETS and not missing, f"tracer targets gone: {missing}"
