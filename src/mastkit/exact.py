"""Exact maximum-agreement solvers.

Two independent routes to ground truth:

* a dynamic program over node pairs (:func:`rooted_mast`, lifted to
  unrooted trees by :func:`unrooted_mast`), polynomial and usable to a few
  hundred leaves;
* a brute-force subset scan (:func:`brute_force_mast`) that is exact by
  exhaustion and only feasible for tiny inputs.

Every result passes :func:`mastkit.construction.verify_outcome` on the
solver's own input trees before it is returned, so a result object is a
certificate, not a claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Union

from .trees import (
    RootedTree,
    TaxaMismatch,
    TreeError,
    UnrootedTree,
    isomorphic,
    root_at_edge,
    sorted_labels,
)

Tree = Union[RootedTree, UnrootedTree]

# The kind of every exact result: the set agrees on the two trees as
# given, rooted or unrooted, with no shape promised.
EXACT = "exact"


class SizeCapExceeded(TreeError):
    """An exact solver was asked for more leaves than its configured cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"input has {size} leaves, cap is {cap}")
        self.size = size
        self.cap = cap


@dataclass(frozen=True)
class MastResult:
    """A maximum agreement set together with its witness tree.

    ``witness`` is the first tree restricted to ``agreement_set``; the
    solvers certify that it is isomorphic to the second tree's
    restriction.  ``kind`` is a class constant, not a field.
    """

    size: int
    agreement_set: frozenset[str]
    witness: Tree
    kind = EXACT


def _certified(tree1: Tree, tree2: Tree, leaves: Iterable[str]) -> MastResult:
    # Imported here: construction imports this module for its DP.
    from .construction import certified
    agreement = frozenset(leaves)
    return certified(tree1, tree2, MastResult(
        len(agreement), agreement, tree1.restrict(agreement)))


def _check_pair(tree1: Tree, tree2: Tree, rooted: bool) -> None:
    want = RootedTree if rooted else UnrootedTree
    if not isinstance(tree1, want) or not isinstance(tree2, want):
        raise TypeError(f"expected two {want.__name__} inputs")
    if tree1.taxa != tree2.taxa:
        raise TaxaMismatch(
            f"taxon sets differ: {sorted_labels(tree1.taxa ^ tree2.taxa)} not shared")


def _agreement_table(tree1: RootedTree, tree2: RootedTree) -> list[list[int]]:
    """table[u][v] = size of a maximum agreement of the subtrees at u, v.

    Internal-pair cells take the best of matching the two child pairs
    straight or crossed and of the four one-sided descents.  Rows for
    leaves of ``tree1`` are 1 exactly on the ancestor path of the equally
    labeled leaf in ``tree2``.
    """
    ns = tree2.num_nodes()
    post2 = tree2.postorder()
    left2, right2 = tree2.left, tree2.right
    table: list[list[int]] = [None] * tree1.num_nodes()  # type: ignore[list-item]
    left1, right1, labels1 = tree1.left, tree1.right, tree1.labels
    for u in tree1.postorder():
        if left1[u] == -1:
            row = [0] * ns
            x = tree2.leaf_node(labels1[u])
            # Down from the root, through the child whose id range holds x.
            v = 0
            row[0] = 1
            while v != x:
                v = left2[v] if x < right2[v] else right2[v]
                row[v] = 1
        else:
            ra = table[left1[u]]
            rb = table[right1[u]]
            row = [0] * ns
            for v in post2:
                x = ra[v]
                y = rb[v]
                best = x if x >= y else y
                c = left2[v]
                if c != -1:
                    d = right2[v]
                    z = row[c]
                    if z > best:
                        best = z
                    z = row[d]
                    if z > best:
                        best = z
                    z = ra[c] + rb[d]
                    if z > best:
                        best = z
                    z = ra[d] + rb[c]
                    if z > best:
                        best = z
                row[v] = best
        table[u] = row
    return table


def _backtrack(tree1: RootedTree, tree2: RootedTree,
               table: list[list[int]]) -> list[str]:
    """Recover one optimal agreement set from a filled table.

    Ties are broken by a fixed preference (straight pairing, crossed
    pairing, then the four descents in order), so the recovered set is
    deterministic for given inputs.
    """
    left1, right1 = tree1.left, tree1.right
    left2, right2 = tree2.left, tree2.right
    out: list[str] = []
    stack = [(tree1.root, tree2.root)]
    while stack:
        u, v = stack.pop()
        m = table[u][v]
        if m == 0:
            continue
        if left1[u] == -1:
            out.append(tree1.labels[u])
            continue
        if left2[v] == -1:
            out.append(tree2.labels[v])
            continue
        a, b = left1[u], right1[u]
        c, d = left2[v], right2[v]
        ra, rb, ru = table[a], table[b], table[u]
        if ra[c] + rb[d] == m:
            stack.append((a, c))
            stack.append((b, d))
        elif ra[d] + rb[c] == m:
            stack.append((a, d))
            stack.append((b, c))
        elif ra[v] == m:
            stack.append((a, v))
        elif rb[v] == m:
            stack.append((b, v))
        elif ru[c] == m:
            stack.append((u, c))
        else:
            stack.append((u, d))
    return out


def rooted_agreement_leaves(tree1: RootedTree, tree2: RootedTree) -> list[str]:
    """One maximum agreement set of two rooted trees on the same taxa,
    uncertified: callers certify the result they build from it.
    """
    table = _agreement_table(tree1, tree2)
    leaves = _backtrack(tree1, tree2, table)
    if len(leaves) != table[tree1.root][tree2.root]:
        raise TreeError("internal error: backtracking lost leaves")
    return leaves


def rooted_mast(tree1: RootedTree, tree2: RootedTree) -> MastResult:
    """Maximum agreement of two rooted trees on the same taxa.

    Child order never matters for agreement; only the ancestor structure
    does.  Runs in O(|tree1| * |tree2|) time and space.
    """
    _check_pair(tree1, tree2, rooted=True)
    return _certified(tree1, tree2, rooted_agreement_leaves(tree1, tree2))


def _rooted_residual(tree: UnrootedTree, label: str) -> RootedTree:
    # Deleting leaf x turns its neighbor into the natural root of the rest.
    leaf = tree.leaf_node(label)
    rooted = root_at_edge(tree, (leaf, tree.adj[leaf][0]))
    return rooted.restrict(tree.taxa - {label})


def unrooted_mast(tree1: UnrootedTree, tree2: UnrootedTree) -> MastResult:
    """Maximum agreement of two unrooted trees on the same taxa.

    An agreement set containing leaf x is exactly a rooted agreement of
    the two trees with x deleted and the cut point taken as root, so the
    maximum is found by trying every leaf as x.  Any maximum agreement set
    is non-empty and thus contains some leaf, which makes the sweep
    exhaustive.  Ties go to the smallest x by label.  Only the winner is
    certified.
    """
    _check_pair(tree1, tree2, rooted=False)
    if len(tree1) <= 3:
        # At most one topology exists, so the trees agree everywhere.
        return _certified(tree1, tree2, tree1.taxa)
    best: list[str] = []
    for label in sorted_labels(tree1.taxa):
        sub = rooted_agreement_leaves(_rooted_residual(tree1, label),
                                      _rooted_residual(tree2, label))
        if len(sub) + 1 > len(best):
            best = sub + [label]
    return _certified(tree1, tree2, best)


def brute_force_mast(tree1: Tree, tree2: Tree, cap: int = 10) -> MastResult:
    """Exhaustive oracle: scan subsets by decreasing size, lexicographic
    within a size; the first agreeing subset is a maximum agreement set.

    Both trees must share rootedness and taxa.  Exponential; refuses more
    than ``cap`` leaves.
    """
    if isinstance(tree1, RootedTree) != isinstance(tree2, RootedTree):
        raise TypeError("trees must share rootedness")
    _check_pair(tree1, tree2, rooted=isinstance(tree1, RootedTree))
    n = len(tree1)
    if n > cap:
        raise SizeCapExceeded(n, cap)
    taxa = sorted_labels(tree1.taxa)
    for size in range(n, 0, -1):
        for combo in combinations(taxa, size):
            if isomorphic(tree1.restrict(combo), tree2.restrict(combo)):
                return _certified(tree1, tree2, combo)
    raise TreeError("unreachable: single leaves always agree")
