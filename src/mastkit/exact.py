"""Exact maximum-agreement solvers.

Two independent routes to ground truth:

* a dynamic program that fills one table over pairs of rooted subtrees,
  one from each tree, and backtracks one optimal set from it.  For
  :func:`rooted_mast` the subtrees are those of the nodes.  For
  :func:`unrooted_mast` they are the far sides of the directed edges,
  read off each tree's canonical rooting, so one table covers every way
  to root both trees (Steel and Warnow, "Kaikoura tree theorems", Inf.
  Process. Lett. 48, 1993).  Both tables
  have O(n^2) cells.  The unrooted table is filled and stored in full.
  The rooted one is filled only where the two subtrees share a taxon,
  since every other cell is 0, and a finished row with few such cells
  is stored as those cells alone;
* a brute-force subset scan (:func:`brute_force_mast`) that is exact by
  exhaustion and only feasible for tiny inputs.

Every result passes :func:`mastkit.construction.verify_outcome` on the
solver's own input trees before it is returned, so a result object is a
certificate, not a claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .trees import (
    RootedTree,
    TaxaMismatch,
    TreeError,
    UnrootedTree,
    canonical_root_edge,
    isomorphic,
    orient_at_edge,
    sorted_labels,
)

Tree = Union[RootedTree, UnrootedTree]

# The kind of every exact result: the set agrees on the two trees as
# given, rooted or unrooted, with no shape promised.
EXACT = "exact"

# The largest inputs the DP takes by default: (2n-1)^2 node pairs rooted
# and (4n-6)^2 directed-edge pairs unrooted, about 16.8M cells either way.
ROOTED_DP_CAP = 2048
UNROOTED_DP_CAP = 1024


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


class _Side(NamedTuple):
    """One input tree as the DP table sees it: a family of rooted
    subtrees, each with an integer id.

    ``order`` lists the ids with children before parents; ``left`` and
    ``right`` give each id's two child ids (-1 on leaves); ``labels``
    gives each leaf's taxon (``None`` elsewhere); ``leaf_row(label)``
    returns a fresh row over the ids, 1 where the subtree holds that
    taxon and 0 elsewhere, and the row's support: the ids where it is 1,
    in fill order, or ``None``, meaning every id.
    """

    order: list[int]
    left: list[int]
    right: list[int]
    labels: list[Optional[str]]
    leaf_row: Callable[[str], tuple[list[int], Optional[list[int]]]]


def _node_side(tree: RootedTree) -> _Side:
    """The node subtrees of a rooted tree, in its own child order."""
    left, right = tree.left, tree.right
    size = len(left)

    def leaf_row(label: str) -> tuple[list[int], list[int]]:
        # 1 on the ancestors: down from the root, through the child whose
        # id range holds x.  Fill order is descending id, so the support
        # is that path read back up.
        row = [0] * size
        x = tree.leaf_node(label)
        v = 0
        row[0] = 1
        path = [0]
        while v != x:
            v = left[v] if x < right[v] else right[v]
            row[v] = 1
            path.append(v)
        path.reverse()
        return row, path

    return _Side(tree.postorder(), left, right, tree.labels, leaf_row)


def _edge_side(tree: UnrootedTree) -> tuple[_Side, dict[str, int]]:
    """The directed edges of an unrooted tree on four or more taxa, and
    per taxon the id of the edge from its leaf to the leaf's neighbor.

    Edge p->c stands for the far side of the edge, rooted at c: a leaf
    edge carries c's taxon, any other edge has the children c->a and
    c->b, the one with the smaller taxon below it first.  So the subtree
    of the edge leaving a taxon's leaf is the tree rooted at that
    pendant edge and restricted to the other taxa, child order included.
    The edges are read off :func:`~mastkit.trees.orient_at_edge`'s
    canonical rooting, hung from the pendant edge of the smallest taxon
    x: edges down, away from x, keep its ranked children, and the far
    side of every edge up holds x, so the child towards x comes first.
    """
    left, right, labels, order = orient_at_edge(tree, canonical_root_edge(tree))
    top = order.pop()
    x, w = left[top], right[top]
    # Edge down into v gets id v, edge up out of v id top + v.  The edges
    # between x and w are the ones down into them, so top + x and top + w
    # stand for no edge; the root's slot holds node 0's edge up, if any.
    left += [-1] * (top - 1)
    right += [-1] * (top - 1)
    labels += [None] * (top - 1)
    par = [top] * top
    # Edges down from the bottom up, then edges up from the top down:
    # either way an edge's children come before it.
    for p in order[::-1]:
        a, b = left[p], right[p]
        if a != -1:
            par[a] = par[b] = p
            towards_x = x if p == w else top + p
            left[top + a], right[top + a] = towards_x, b
            left[top + b], right[top + b] = towards_x, a
            order += (top + a, top + b)

    def leaf_row(label: str) -> tuple[list[int], None]:
        # The edges down the path from the root to the taxon's leaf hold
        # it, and every edge up except those back along that path.  No
        # support: these rows are about half ones.
        row = [0] * top + [1] * top
        v = tree.leaf_node(label)
        while v != top:
            row[v] = 1
            row[top + v] = 0
            v = par[v]
        return row, None

    outward = {labels[v]: top + v for v in range(top) if labels[v] is not None}
    outward[labels[x]] = w
    return _Side(order, left, right, labels, leaf_row), outward


# A finished row is stored as its support cells only when the row is
# more than this many times as long as its support: a dict entry costs
# several list slots, so longer supports take less memory as lists.
_SPARSE_RATIO = 8


class _SparseRow(dict):
    """A finished table row kept as ``{id: value}`` on its support; any
    other id reads 0."""

    __slots__ = ()

    def __missing__(self, v: int) -> int:
        return 0


def _agreement_table(one: _Side, two: _Side) -> list:
    """table[u][v] = size of a maximum agreement of the subtrees u, v.

    Internal-pair cells take the best of matching the two child pairs
    straight or crossed and of the four one-sided descents.  Rows for
    leaves of ``one`` are 1 exactly on the ids of ``two`` that hold the
    same taxon.  A cell is 0 unless its two subtrees share a taxon, so an
    internal row is filled only on the union of its children's supports,
    unless the two together are as long as a full sweep.  Once its parent
    is filled, a row with a short support is replaced by a
    :class:`_SparseRow` of that support, so rows are read by index
    either way.
    """
    ns = len(two.left)
    order2, left2, right2, leaf_row = two.order, two.left, two.right, two.leaf_row
    left1, right1, labels1 = one.left, one.right, one.labels
    table: list = [None] * len(left1)
    # Supports other than None, each kept until its parent reads it.
    # Only node sides have them: one parent each, and descending id is
    # their fill order.
    supports: dict[int, list[int]] = {}
    for u in one.order:
        if left1[u] == -1:
            row, support = leaf_row(labels1[u])
        else:
            ra = table[left1[u]]
            rb = table[right1[u]]
            sa = supports.pop(left1[u], None)
            sb = supports.pop(right1[u], None)
            if sa is None or sb is None or len(sa) + len(sb) >= len(order2):
                support = None
            else:
                support = sorted(set(sa).union(sb), reverse=True)
            row = [0] * ns
            for v in order2 if support is None else support:
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
            # Nothing reads the children's rows again but the backtrack.
            for c, s, r in ((left1[u], sa, ra), (right1[u], sb, rb)):
                if s is not None and len(s) * _SPARSE_RATIO < ns:
                    table[c] = _SparseRow(zip(s, map(r.__getitem__, s)))
        table[u] = row
        if support is not None:
            supports[u] = support
    return table


def _backtrack(one: _Side, two: _Side, table: list,
               start: tuple[int, int]) -> list[str]:
    """Recover one optimal agreement set of the subtrees in ``start``
    from a filled table.

    Ties are broken by a fixed preference (straight pairing, crossed
    pairing, then the four descents in order), so the recovered set is
    deterministic for given inputs.
    """
    left1, right1 = one.left, one.right
    left2, right2 = two.left, two.right
    out: list[str] = []
    stack = [start]
    while stack:
        u, v = stack.pop()
        m = table[u][v]
        if m == 0:
            continue
        if left1[u] == -1:
            out.append(one.labels[u])
            continue
        if left2[v] == -1:
            out.append(two.labels[v])
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
    if len(out) != table[start[0]][start[1]]:
        raise TreeError("internal error: backtracking lost leaves")
    return out


def rooted_agreement_leaves(tree1: RootedTree, tree2: RootedTree) -> list[str]:
    """One maximum agreement set of two rooted trees on the same taxa,
    uncertified: callers certify the result they build from it.
    """
    one, two = _node_side(tree1), _node_side(tree2)
    return _backtrack(one, two, _agreement_table(one, two), (0, 0))


def rooted_mast(tree1: RootedTree, tree2: RootedTree) -> MastResult:
    """Maximum agreement of two rooted trees on the same taxa.

    Child order never matters for agreement; only the ancestor structure
    does.  The fill loop visits only the node pairs whose subtrees share
    a taxon: all |tree1| * |tree2| of them at worst (two caterpillars),
    about an eighth on two uniform trees of 2048 taxa.  Space is
    O(|tree1| * |tree2|) at worst; a finished row whose support is under
    an eighth of |tree2| keeps only its support, so the table stores
    about 14% of the cells on two uniform trees of 2048 taxa.
    """
    _check_pair(tree1, tree2, rooted=True)
    return _certified(tree1, tree2, rooted_agreement_leaves(tree1, tree2))


def unrooted_mast(tree1: UnrootedTree, tree2: UnrootedTree) -> MastResult:
    """Maximum agreement of two unrooted trees on the same taxa.

    An agreement set containing taxon x is x plus an agreement of the two
    rooted trees left when x's leaf is cut off, each rooted at the
    leaf's neighbor.  Those trees are the far sides of the directed edges
    leaving x's leaf, so one table over pairs of directed edges, with
    O(n^2) cells filled in O(n^2) time, holds the best set for every x.
    Any maximum agreement set contains some taxon, so the best x gives
    the maximum.  Ties go to the smallest x by label.  Only the winner is
    certified.
    """
    _check_pair(tree1, tree2, rooted=False)
    if len(tree1) <= 3:
        # At most one topology exists, so the trees agree everywhere.
        return _certified(tree1, tree2, tree1.taxa)
    taxa = tree1.sorted_taxa()
    (one, out1), (two, out2) = _edge_side(tree1), _edge_side(tree2)
    table = _agreement_table(one, two)
    size, pick = -1, taxa[0]
    for label in taxa:
        m = table[out1[label]][out2[label]]
        if m > size:
            size, pick = m, label
    leaves = _backtrack(one, two, table, (out1[pick], out2[pick]))
    return _certified(tree1, tree2, leaves + [pick])


def brute_force_mast(tree1: Tree, tree2: Tree, cap: int = 10) -> MastResult:
    """Exhaustive oracle: scan subsets by decreasing size, lexicographic
    within a size; the first agreeing subset is a maximum agreement set.

    Both trees must share rootedness and taxa.  Exponential; refuses more
    than ``cap`` leaves.
    """
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
