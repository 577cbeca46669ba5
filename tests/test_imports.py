"""Every module of the package uses each name it imports, every name the
package exports exists, every function the benchmark tracer wraps
still exists, and every checked-in mutant still applies.

``__init__.py`` is left out of the import check: it imports names only to
re-export them.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mastkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def load_file(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    tracer = load_file("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module("mastkit." + module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert tracer.TARGETS and not missing, f"tracer targets gone: {missing}"


def _selected_files(tests):
    """The test files of a pytest selection: the arguments before any
    ``-k`` that are not options."""
    end = tests.index("-k") if "-k" in tests else len(tests)
    return [ROOT / arg for arg in tests[:end] if not arg.startswith("-")]


def test_mutants_still_apply():
    # tools/mutants.py needs each old text exactly once in its file; an
    # edit that moves the text would silently retire the mutant.
    mutants = load_file("mastkit_mutants", ROOT / "tools" / "mutants.py")
    names = [m.name for m in mutants.MUTANTS]
    broken = [m.name for m in mutants.MUTANTS
              if m.old == m.new or not _selected_files(m.tests)
              or not all(path.is_file() for path in _selected_files(m.tests))
              or (ROOT / m.path).read_text(encoding="utf-8").count(m.old) != 1]
    # A -k word that names no test in any selected file makes pytest
    # collect nothing for it, and a selected file none of whose tests
    # the words name is a file the entry no longer runs.
    unmatched = []
    for m in mutants.MUTANTS:
        if "-k" not in m.tests or m.name in broken:
            continue
        words = [word for word in m.tests[m.tests.index("-k") + 1].split()
                 if word not in ("or", "and", "not")]
        hits = {path: {word for word in words
                       if re.search(rf"def test_\w*{re.escape(word)}",
                                    path.read_text(encoding="utf-8"))}
                for path in _selected_files(m.tests)}
        found = set().union(*hits.values())
        unmatched += [f"{m.name}: {word}" for word in words if word not in found]
        unmatched += [f"{m.name}: {path.name}" for path, hit in hits.items()
                      if not hit]
    assert names and len(set(names)) == len(names)
    assert not broken, f"mutants that no longer apply: {broken}"
    assert not unmatched, f"-k words or files that name no test: {unmatched}"
