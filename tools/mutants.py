"""Run a checked-in list of mutants, each against the tests meant to kill it.

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a file of this checkout, a text that
occurs in that file exactly once, the text that replaces it, and a
pytest selection.  For each entry the checkout is copied to a temporary
directory (without ``.git``, caches and benchmark output), the edit is
made in the copy, and ``python -m pytest -x -q`` runs the selection from
the copy, so that ``pyproject.toml``'s ``pythonpath = ["src"]`` (and
``PYTHONPATH``, set to the copy's ``src``) imports the mutated code.

A mutant is killed when pytest reports a failing test (exit code 1) or
runs past ``TIMEOUT_S`` seconds.  It survives when every selected test
passes.  Any other exit (an old text that does not occur exactly once,
a selection that collects nothing, a collection error) is reported as a
broken entry.  The tool prints one line per mutant and exits 1 if any
mutant survives or any entry is broken.

This is the test-adequacy criterion of mutation testing (DeMillo,
Lipton and Sayward, "Hints on test data selection: help for the
practicing programmer", IEEE Computer 11(4), 1978): a test set is
adequate for a program when it tells the program from each of its
mutants.  A new fast path or rewritten check adds its mutants here next
to its property test.

Only the standard library is used.  Each mutant costs one pytest run,
so the tool is not part of the tier-1 suite; ``tests/test_imports.py``
only checks that every entry still applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPY_IGNORE = (".git", ".hypothesis", ".pytest_cache", "__pycache__", "out")
TIMEOUT_S = 600.0  # seconds one mutant's selection may run


class Mutant(NamedTuple):
    name: str
    path: str              # relative to the checkout root
    old: str               # occurs in the file exactly once
    new: str
    tests: tuple[str, ...]  # pytest arguments, run from the checkout root


CONSTRUCTION = "src/mastkit/construction.py"
TEST_CONSTRUCTION = "tests/test_construction.py"
EXACT = "src/mastkit/exact.py"
TEST_EXACT = "tests/test_exact.py"

MUTANTS = (
    # The one-walk strict step in check_good_pair.
    Mutant("step-ancestor-args-swapped", CONSTRUCTION,
           "tree.is_ancestor(tree.lca(ends), tree.leaf_node(pivot))",
           "tree.is_ancestor(tree.leaf_node(pivot), tree.lca(ends))",
           (TEST_CONSTRUCTION, "-k", "rules_they_replaced")),
    Mutant("step-tree1-only", CONSTRUCTION,
           "for tree in (state.tree1, state.tree2):\n"
           "        if tree.is_ancestor(tree.lca(ends)",
           "for tree in (state.tree1,):\n"
           "        if tree.is_ancestor(tree.lca(ends)",
           (TEST_CONSTRUCTION, "-k", "rules_they_replaced")),
    # The greedy sweep on piece ends: bisect_right, written as bisect_left
    # on the next position, and the nearer of the two ends.
    Mutant("sweep-bisect-right", CONSTRUCTION,
           "end1[bisect_left(end1, pos)], end2[bisect_left(end2, pos)]",
           "end1[bisect_left(end1, pos + 1)], end2[bisect_left(end2, pos + 1)]",
           (TEST_CONSTRUCTION, "-k", "rules_they_replaced")),
    Mutant("sweep-min-end", CONSTRUCTION,
           "pos = (e1 if e1 >= e2 else e2) + 1",
           "pos = (e1 if e1 <= e2 else e2) + 1",
           (TEST_CONSTRUCTION, "-k", "rules_they_replaced")),
    # The one certificate: construct certifies what either loop returns.
    Mutant("construct-uncertified", CONSTRUCTION,
           "return certified(state.tree1, state.tree2, out)", "return out",
           (TEST_CONSTRUCTION, "tests/test_cli.py", "-k", "forged_loop")),
    # Earlier rewrites whose scratch mutations CHANGES.md records.
    Mutant("lca-off-by-one", "src/mastkit/trees.py",
           "if a < r <= b:", "if a < r < b:",
           ("tests/test_trees.py",)),
    Mutant("nested-weak-unflipped", CONSTRUCTION,
           "replace(state, agreed=[], n_param=run.size() ** 2)",
           "replace(state, agreed=[], n_param=run.size() ** 2, flipped=False)",
           (TEST_CONSTRUCTION, "-k", "nested or hand_built")),
    # The rooted fill on the lighter child's support, and its row view.
    Mutant("chain-row-past-foot-one", EXACT,
           "end, value = len(heavy), 0", "end, value = len(heavy), 1",
           (TEST_EXACT,)),
    Mutant("chain-walk-ignores-end", EXACT,
           "last[0] <= u <= last[1]", "last[0] <= u",
           (TEST_EXACT,)),
    Mutant("rooted-scratch-not-reset", EXACT,
           "for v in changed:\n            old[v] = _UNCHANGED",
           "for v in ():\n            old[v] = _UNCHANGED",
           (TEST_EXACT,)),
    Mutant("rooted-support-ascending", EXACT,
           "sb.sort(reverse=True)", "sb.sort()",
           (TEST_EXACT,)),
    Mutant("edge-side-unranked", EXACT,
           "orient_at_edge(tree, canonical_root_edge(tree))",
           "orient_at_edge(tree, canonical_root_edge(tree), ranked=False)",
           (TEST_EXACT, "-k", "unrooted_mast_is_frozen")),
    Mutant("label-key-isdigit", "src/mastkit/trees.py",
           "if label.isdecimal():\n        return (0, _magnitude(label), label)",
           "if label.isdigit():\n        return (0, _magnitude(label), label)",
           ("tests/test_trees.py", "-k", "label_ordering")),
    Mutant("tree-file-without-bom", "src/mastkit/cli.py",
           'encoding="utf-8-sig"', 'encoding="utf-8"',
           ("tests/test_cli.py", "-k", "byte_order_mark")),
)


def apply(root: str, mutant: Mutant) -> None:
    """Make ``mutant``'s edit in the checkout at ``root``; raise
    ValueError unless its old text occurs there exactly once."""
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times "
                         f"in {mutant.path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> tuple[str, str]:
    """Return (verdict, detail): verdict is ``killed``, ``survived`` or
    ``broken``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*COPY_IGNORE))
        try:
            apply(copy, mutant)
        except ValueError as err:
            return "broken", str(err)
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q",
                "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(argv, cwd=copy, env=env, timeout=TIMEOUT_S,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {TIMEOUT_S:g} s"
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 1:
        return "killed", last[0]
    if done.returncode == 0:
        return "survived", last[0]
    return "broken", f"pytest exit {done.returncode}: {last[0]}"


def main() -> int:
    bad = 0
    for m in MUTANTS:
        start = time.perf_counter()
        verdict, detail = run(m)
        bad += verdict != "killed"
        print(f"{verdict:8} {m.name} ({time.perf_counter() - start:.1f} s): "
              f"{detail}", flush=True)
    print(f"# {len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
