"""Exact maximum-agreement solvers.

Two independent routes to ground truth:

* a dynamic program that fills one table over pairs of rooted subtrees,
  one from each tree, and backtracks one optimal set from it.  For
  :func:`rooted_mast` the subtrees are those of the nodes.  For
  :func:`unrooted_mast` they are the far sides of the directed edges,
  read off each tree's canonical rooting, so one table covers every way
  to root both trees (Steel and Warnow, "Kaikoura tree theorems", Inf.
  Process. Lett. 48, 1993).  Both tables have O(n^2) cells.  The
  unrooted table is filled and stored in full.  A rooted row is its
  heavier child's row with only the cells that the lighter child's
  taxa reach recomputed, the heavy-child reuse of the fast algorithms
  (Cole, Farach-Colton, Hariharan, Przytycka and Thorup, SIAM J.
  Comput. 30(5), 2000), and is stored as the cells it changed;
* a brute-force subset scan (:func:`brute_force_mast`) that is exact by
  exhaustion and only feasible for tiny inputs.

Every result passes :func:`mastkit.construction.verify_outcome` on the
solver's own input trees before it is returned, so a result object is a
certificate, not a claim.
"""

from __future__ import annotations

from bisect import bisect_left
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
# The unrooted fill visits them all; the rooted one about 1.3% of them on
# two uniform trees at the cap and an eighth on two caterpillars.
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
    gives each leaf's taxon (``None`` elsewhere).  ``leaf_row(label)``
    gives what a fill reads of the row that is 1 on the ids whose
    subtree holds that taxon and 0 elsewhere: for nodes, the ids where
    it is 1, root first; for directed edges, the whole row.
    """

    order: list[int]
    left: list[int]
    right: list[int]
    labels: list[Optional[str]]
    leaf_row: Callable[[str], list[int]]


def _node_side(tree: RootedTree) -> _Side:
    """The node subtrees of a rooted tree, in its own child order."""
    left, right = tree.left, tree.right

    def leaf_row(label: str) -> list[int]:
        # The ancestors: down from the root, through the child whose id
        # range holds x.
        x = tree.leaf_node(label)
        v = 0
        path = [0]
        while v != x:
            v = left[v] if x < right[v] else right[v]
            path.append(v)
        return path

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

    def leaf_row(label: str) -> list[int]:
        # The edges down the path from the root to the taxon's leaf hold
        # it, and every edge up except those back along that path.
        row = [0] * top + [1] * top
        v = tree.leaf_node(label)
        while v != top:
            row[v] = 1
            row[top + v] = 0
            v = par[v]
        return row

    outward = {labels[v]: top + v for v in range(top) if labels[v] is not None}
    outward[labels[x]] = w
    return _Side(order, left, right, labels, leaf_row), outward


def _agreement_table(one: _Side, two: _Side) -> list[list[int]]:
    """table[u][v] = size of a maximum agreement of the subtrees u, v,
    every cell filled: the unrooted table over directed edges.

    Internal-pair cells take the best of matching the two child pairs
    straight or crossed and of the four one-sided descents.  Rows for
    leaves of ``one`` are 1 exactly on the ids of ``two`` that hold the
    same taxon.
    """
    ns = len(two.left)
    order2, left2, right2, leaf_row = two.order, two.left, two.right, two.leaf_row
    left1, right1, labels1 = one.left, one.right, one.labels
    table: list = [None] * len(left1)
    for u in one.order:
        if left1[u] == -1:
            table[u] = leaf_row(labels1[u])
            continue
        ra = table[left1[u]]
        rb = table[right1[u]]
        row = [0] * ns
        for v in order2:
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


# Above every cell value: the scratch array's value at ids that the
# node being filled has not changed.
_UNCHANGED = 1 << 62


class _Chains(NamedTuple):
    """What the rooted fill keeps of its rows.

    Per node of the first tree: its heavier child (-1 on leaves), the
    leaf at the foot of its heavy chain, and the ids whose cell it
    changed from its heavier child's row, ascending, with their new
    values (a leaf's ids are where its row is 1, and its values one
    shared list of ones).  ``walks`` remembers, per chain foot and id,
    the last read: the node it started from, the node that held the cell
    (past the foot: none held it) and its value.
    """

    heavy: list[int]
    foot: list[int]
    ids: list[list[int]]
    vals: list[list[int]]
    walks: dict[tuple[int, int], tuple[int, int, int]]


class _ChainRow:
    """Row ``u`` of the rooted table, read off its heavy chain.

    Cell ``v`` is the value stored by the first node down the chain from
    ``u`` that changed it, and 0 past the chain's foot.  Heavy children
    have the larger ids, so a read that starts between the last read's
    start and the node that held its cell has the same answer, and a
    walk that reaches the last start takes over its answer: a backtrack
    that descends a chain walks it about once per id.
    """

    __slots__ = ("u", "chains")

    def __init__(self, u: int, chains: _Chains):
        self.u, self.chains = u, chains

    def __getitem__(self, v: int) -> int:
        u = self.u
        heavy, foot, ids, vals, walks = self.chains
        key = (foot[u], v)
        last = walks.get(key)
        if last is not None and last[0] <= u <= last[1]:
            return last[2]
        start = u
        while u != -1:
            if last is not None and u == last[0]:
                end, value = last[1], last[2]
                break
            changed = ids[u]
            i = bisect_left(changed, v)
            if i < len(changed) and changed[i] == v:
                end, value = u, vals[u][i]
                break
            u = heavy[u]
        else:
            end, value = len(heavy), 0
        walks[key] = (start, end, value)
        return value


def _rooted_table(one: _Side, two: _Side) -> list[_ChainRow]:
    """table[u][v] = size of a maximum agreement of the node subtrees
    u, v of two rooted trees.

    Take u with heavier child a (more taxa; the left one on ties) and
    lighter child b.  Where v's subtree holds no taxon of b, cell (u, v)
    equals cell (a, v).  So u takes over a's row list and recomputes it
    only on b's support, the ids whose subtree holds a taxon of b,
    children first.  a's old value at an id already recomputed is kept
    in a scratch array, which is reset after each node.  Each open chain
    of heavy children keeps its support in the order its ids became
    nonzero, and it is sorted when the chain's top is a lighter child.
    Heavier subtrees are filled first, so at most log2(n) + 1 row lists
    are open at a time.
    """
    left1, right1, labels1 = one.left, one.right, one.labels
    left2, right2, leaf_row = two.left, two.right, two.leaf_row
    n1, ns = len(left1), len(left2)
    chains = _Chains([-1] * n1, list(range(n1)), [None] * n1, [None] * n1, {})
    heavy, foot, ids, vals = chains.heavy, chains.foot, chains.ids, chains.vals
    # Preorder with the lighter subtree first, read backwards.  A
    # subtree's ids are consecutive, so a child's size is its id range.
    order = []
    stack = [(0, n1)]
    while stack:
        u, size = stack.pop()
        order.append(u)
        a, b = left1[u], right1[u]
        if a != -1:
            size_a, size_b = b - a, size - 1 - (b - a)
            if size_b > size_a:
                a, b, size_a, size_b = b, a, size_b, size_a
            heavy[u] = a
            stack.append((a, size_a))
            stack.append((b, size_b))
    order.reverse()
    ones = [1] * ns
    old = [_UNCHANGED] * ns
    # (row, support) of each filled subtree whose parent is not: a
    # heavier child's below its sibling's.
    waiting: list[tuple[list[int], list[int]]] = []
    for u in order:
        if left1[u] == -1:
            path = leaf_row(labels1[u])
            row = [0] * ns
            for v in path:
                row[v] = 1
            ids[u], vals[u] = path, ones
            waiting.append((row, path[:]))
            continue
        rb, sb = waiting.pop()
        row, support = waiting[-1]
        foot[u] = foot[heavy[u]]
        sb.sort(reverse=True)
        changed: list[int] = []
        new: list[int] = []
        add_id, add_val = changed.append, new.append
        for v in sb:
            x = row[v]
            c = left2[v]
            if c == -1:
                # A leaf in b's support holds a taxon of b, so none of a.
                best = 1
            else:
                d = right2[v]
                rc = row[c]
                rd = row[d]
                bd = rb[d]
                if not (bd or rd):
                    # d's subtree holds no taxon of u.
                    best = rc
                else:
                    bc = rb[c]
                    if not (bc or rc):
                        best = rd
                    else:
                        best = rb[v]
                        if x > best:
                            best = x
                        if rc > best:
                            best = rc
                        if rd > best:
                            best = rd
                        # rc is cell (u, c); a's cell (a, c) is the
                        # smaller of it and old[c].
                        if bd:
                            o = old[c]
                            bd += o if o < rc else rc
                            if bd > best:
                                best = bd
                        if bc:
                            o = old[d]
                            bc += o if o < rd else rd
                            if bc > best:
                                best = bc
            if best != x:
                if not x:
                    support.append(v)
                old[v] = x
                row[v] = best
                add_id(v)
                add_val(best)
        for v in changed:
            old[v] = _UNCHANGED
        changed.reverse()
        new.reverse()
        ids[u], vals[u] = changed, new
    return [_ChainRow(u, chains) for u in range(n1)]


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
    return _backtrack(one, two, _rooted_table(one, two), (0, 0))


def rooted_mast(tree1: RootedTree, tree2: RootedTree) -> MastResult:
    """Maximum agreement of two rooted trees on the same taxa.

    Child order never matters for agreement; only the ancestor structure
    does.  A node's row is recomputed only where tree2's subtree holds a
    taxon of its lighter child.  A taxon is in the lighter child of at
    most log2(n) nodes, so the fill visits at most log2(n) times the
    summed depth of tree2's leaves, and never more than |tree1| * |tree2|
    cells: about 210k of the 16.8M on two uniform trees of 2048 taxa,
    2.1M on two caterpillars.  Each node stores only the cells it
    changed, about 2% of the cells on those uniform trees and a quarter
    on the caterpillars.
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
