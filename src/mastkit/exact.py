"""Exact maximum-agreement solvers.

Two independent routes to ground truth:

* a dynamic program that fills one table over pairs of rooted subtrees,
  one from each tree, and backtracks one optimal set from it.  For
  :func:`rooted_mast` the subtrees are those of the nodes.  For
  :func:`unrooted_mast` they are the far sides of the directed edges,
  read off each tree's canonical rooting, so one table covers every way
  to root both trees (Steel and Warnow, "Kaikoura tree theorems", Inf.
  Process. Lett. 48, 1993).  Both tables have O(n^2) cells.  An
  unrooted row is filled only if it can be read: the first tree's
  edges away from its smallest taxon always, which also give the
  maximum size, and the edges up a taxon's root path only when sets
  around smaller taxa fall short of it.  Within a row, a cell whose
  subtrees share no taxon stays 0 and a cell with one such child
  copies the other child's cell, so only the rest take the full
  recurrence.  A rooted row is its
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
from operator import add, itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .trees import (
    RootedTree,
    TaxaMismatch,
    TreeError,
    UnrootedTree,
    _pair_sorted_taxa,
    canonical_root_edge,
    isomorphic,
    leaf_ranks,
    orient_at_edge,
    sorted_labels,
)

Tree = Union[RootedTree, UnrootedTree]

# The kind of every exact result: the set agrees on the two trees as
# given, rooted or unrooted, with no shape promised.
EXACT = "exact"

# The largest inputs the DP takes by default: (2n-1)^2 node pairs rooted
# and (4n-6)^2 directed-edge pairs unrooted, about 16.8M cells either way.
# The unrooted fill visits about half of them when the smallest taxon is
# in a maximum set, and all of them at worst, but runs the full
# recurrence only where both children of the second tree's edge share a
# taxon with the row (about one cell in six at n=128); the rooted one
# visits about 1.3% of them on two uniform trees at the cap and an
# eighth on two caterpillars.
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
    """An unrooted tree's directed edges as the unrooted table sees them:
    a family of rooted subtrees, each with an integer id.

    ``order`` lists the ids with children before parents; ``left`` and
    ``right`` give each id's two child ids (-1 on leaves); ``labels``
    gives each leaf's taxon (``None`` elsewhere).  ``leaf_row(label)``
    gives the row that is 1 on the ids whose subtree holds that taxon
    and 0 elsewhere.  ``reverse`` gives each id's edge the other way
    round (-1 at ids that stand for no edge).  ``leaves`` lists the leaf
    ids of ``order``; ``inner`` lists its other ids in order, their left
    children and their right children, as three lists, so that a row
    loop reads each id's children with no lookup and the side holds no
    object per id for the garbage collector to count.
    """

    order: list[int]
    left: list[int]
    right: list[int]
    labels: list[Optional[str]]
    leaf_row: Callable[[str], list[int]]
    reverse: list[int]
    leaves: list[int]
    inner: tuple[list[int], list[int], list[int]]


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
    left, right, labels, order, par = orient_at_edge(
        tree, canonical_root_edge(tree), ranks=leaf_ranks(tree))
    top = order.pop()
    x, w = left[top], right[top]
    # Edge down into v gets id v, edge up out of v id top + v.  The edges
    # between x and w are the ones down into them, so top + x and top + w
    # stand for no edge; the root's slot holds node 0's edge up, if any.
    left += [-1] * (top - 1)
    right += [-1] * (top - 1)
    labels += [None] * (top - 1)
    # Edges down from the bottom up, then edges up from the top down:
    # either way an edge's children come before it.
    for p in order[::-1]:
        a, b = left[p], right[p]
        if a != -1:
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
        row[top + x] = row[top + w] = 0
        return row

    reverse = list(range(top, 2 * top)) + list(range(top))
    reverse[x], reverse[w] = w, x
    reverse[top + x] = reverse[top + w] = -1
    outward = {labels[v]: top + v for v in range(top) if labels[v] is not None}
    outward[labels[x]] = w
    leaves = [v for v in order if left[v] == -1]
    ids = [v for v in order if left[v] != -1]
    inner = (ids, [left[v] for v in ids], [right[v] for v in ids])
    return (_Side(order, left, right, labels, leaf_row, reverse, leaves, inner),
            outward)


def _fill_rows(one: _Side, two: _Side, table: list, ids: Iterable[int]) -> None:
    """Fill ``table[u]`` for each u of ``ids``, in turn: row u holds, per
    id v of ``two``, the size of a maximum agreement of the subtrees u, v.
    A child's row must be in the table, or come earlier in ``ids``.

    Rows for leaves of ``one`` are 1 exactly on the ids of ``two`` that
    hold the same taxon.  A cell is at least 1 exactly when its two
    subtrees share a taxon, so on u with children a, b, a leaf v of
    ``two`` is 1 where a or b holds its taxon.  An internal v with
    children c, d takes two short cuts: where cell (u, d) is 0, d's
    subtree holds no taxon of u, so v's subtree restricted to u's taxa
    is c's and the cell is cell (u, c), left 0 when that is 0 too; where
    only cell (u, c) is 0, the cell is cell (u, d).  Only where both are
    nonzero does the cell take the best of matching the two child pairs
    straight or crossed and of the four one-sided descents.  Ids that
    stand for no edge stay 0.
    """
    ns = len(two.left)
    leaves2, inner2, leaf_row = two.leaves, two.inner, two.leaf_row
    left1, right1, labels1 = one.left, one.right, one.labels
    for u in ids:
        if left1[u] == -1:
            table[u] = leaf_row(labels1[u])
            continue
        ra = table[left1[u]]
        rb = table[right1[u]]
        row = [0] * ns
        for v in leaves2:
            if ra[v] or rb[v]:
                row[v] = 1
        for v, c, d in zip(*inner2):
            rd = row[d]
            rc = row[c]
            if not rd:
                if rc:
                    row[v] = rc
            elif not rc:
                row[v] = rd
            else:
                best = ra[v]
                z = rb[v]
                if z > best:
                    best = z
                if rc > best:
                    best = rc
                if rd > best:
                    best = rd
                z = ra[c] + rb[d]
                if z > best:
                    best = z
                z = ra[d] + rb[c]
                if z > best:
                    best = z
                row[v] = best
        table[u] = row


def _best_over_rootings(one: _Side, two: _Side, table: list, down: list[int],
                        best: int) -> int:
    """The size of a maximum agreement of the two unrooted trees, read off
    the rows of ``down``, the ids of the first tree's canonical rooting
    below its root (children first), with ``best`` the size of the set
    built around the smallest taxon x0.

    A maximum agreement set is one of that rooting against the second
    tree rooted on some edge, whose root has the two directions d, d' of
    the edge as children.  So the maximum is the best, over the
    rooting's internal nodes u with children a, b, of u's row and of
    the pairings a[d] + b[d'] and a[d'] + b[d] over the edges: each is
    the size of an agreement set.  A node's terms are at most its number
    of taxa, so nodes no larger than the best so far are skipped, and
    the nodes are read from the top down.  The root, whose children are
    x0's leaf and the edge w leaving it, has no row: each of its terms
    is at most the size of the set around x0 or a cell of w's row.
    """
    left1, right1 = one.left, one.right
    ends = [v for v, r in enumerate(two.reverse) if v < r]
    near = itemgetter(*ends)
    far = itemgetter(*[two.reverse[v] for v in ends])
    size = [1] * len(left1)
    for u in down:
        a = left1[u]
        if a != -1:
            size[u] = size[a] + size[right1[u]]
    for u in reversed(down):
        if size[u] > best:
            ra, rb = table[left1[u]], table[right1[u]]
            best = max(best, max(table[u]), max(map(add, near(ra), far(rb))),
                       max(map(add, far(ra), near(rb))))
    return best


# Above every cell value: the scratch array's value at ids that the
# node being filled has not changed.
_UNCHANGED = 1 << 62


class _Chains(NamedTuple):
    """What the rooted fill keeps of its rows, read through :meth:`cell`.

    Per node of the first tree: its heavier child (-1 on leaves), the
    leaf at the foot of its heavy chain, and the ids whose cell it
    changed from its heavier child's row, ascending, with their new
    values (a leaf's ids are its taxon's ancestors in tree2, where its
    row is 1, whether or not the fill made that row, and its values one
    shared list of ones).  ``walks`` remembers, per chain foot and id,
    the last read: the node it started from, the node that held the cell
    (past the foot: none held it) and its value.
    """

    heavy: list[int]
    foot: list[int]
    ids: list[list[int]]
    vals: list[list[int]]
    walks: dict[tuple[int, int], tuple[int, int, int]]

    def cell(self, u: int, v: int) -> int:
        """Cell (u, v): the value stored by the first node down the heavy
        chain from ``u`` that changed it, and 0 past the chain's foot.

        Heavy children have the larger ids, so a read that starts between
        the last read's start and the node that held its cell has the same
        answer, and a walk that reaches the last start takes over its
        answer: a backtrack that descends a chain walks it about once per
        id.
        """
        heavy, foot, ids, vals, walks = self
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


def _rooted_table(tree1: RootedTree, tree2: RootedTree) -> _Chains:
    """``cell(u, v)`` = size of a maximum agreement of the node subtrees
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
    are open at a time.  A leaf's row is 1 on its taxon's ancestors in
    tree2, found up from the taxon's leaf through a parent array of
    tree2.  Only a leaf that is a heavier child (or the root) makes that
    row.  A lighter leaf's row is 1 exactly on that path, so its parent
    walks the path bottom-up and updates a's row there in closed form;
    the leaf gets no row, support list or scratch entry.
    """
    left1, right1, labels1 = tree1.left, tree1.right, tree1.labels
    left2, right2, leaf_node = tree2.left, tree2.right, tree2.leaf_node
    n1, ns = len(left1), len(left2)
    chains = _Chains([-1] * n1, list(range(n1)), [None] * n1, [None] * n1, {})
    heavy, foot, ids, vals = chains.heavy, chains.foot, chains.ids, chains.vals
    # Preorder with the lighter subtree first, read backwards.  A
    # subtree's ids are consecutive, so a child's size is its id range.
    # A node whose lighter child is a leaf is listed as ~u, and the leaf
    # is not listed.
    order = []
    stack = [(0, n1)]
    while stack:
        u, size = stack.pop()
        a, b = left1[u], right1[u]
        if a == -1:
            order.append(u)
            continue
        size_a, size_b = b - a, size - 1 - (b - a)
        if size_b > size_a:
            a, b, size_a, size_b = b, a, size_b, size_a
        heavy[u] = a
        stack.append((a, size_a))
        if size_b == 1:
            order.append(~u)
        else:
            order.append(u)
            stack.append((b, size_b))
    order.reverse()
    # Parent and sibling of each node of tree2, for the walks up from
    # its leaves.
    up, sib = [-1] * ns, [-1] * ns
    for v, d in enumerate(right2):
        if d != -1:
            c = v + 1
            up[c] = up[d] = v
            sib[c], sib[d] = d, c
    ones = [1] * ns
    old = [_UNCHANGED] * ns
    # (row, support) of each filled subtree whose parent is not: a
    # heavier child's below its sibling's.
    waiting: list[tuple[list[int], list[int]]] = []
    for u in order:
        if u < 0:
            # The lighter child b is a leaf, so u changes a's row only on
            # the path up from b's taxon.  At v, whose path child `on` was
            # just set to `val`, the sibling sib[on] keeps its value, so
            # the general update below reduces to val where row[sib[on]]
            # is 0 and else to the best of row[v], val and row[sib[on]] + 1.
            u = ~u
            a = heavy[u]
            b = left1[u] + right1[u] - a
            row, support = waiting[-1]
            foot[u] = foot[a]
            # The taxon's leaf holds no taxon of a, so its cell was 0.
            on = leaf_node(labels1[b])
            row[on] = val = 1
            support.append(on)
            path, changed, new = [on], [on], [1]
            v = up[on]
            while v != -1:
                path.append(v)
                x = row[v]
                r = row[sib[on]]
                if r:
                    r += 1
                    best = x if x > val else val
                    if r > best:
                        best = r
                else:
                    best = val
                if best != x:
                    if not x:
                        support.append(v)
                    row[v] = best
                    changed.append(v)
                    new.append(best)
                on, val = v, best
                v = up[v]
            path.reverse()
            changed.reverse()
            new.reverse()
            ids[b], vals[b] = path, ones
            ids[u], vals[u] = changed, new
            continue
        if left1[u] == -1:
            # A heavier child, or the root, is a leaf: its row is 1 on
            # the taxon's ancestors in tree2.
            v = leaf_node(labels1[u])
            row, path = [0] * ns, []
            while v != -1:
                row[v] = 1
                path.append(v)
                v = up[v]
            path.reverse()
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
    return chains


def _backtrack(one: Union[RootedTree, _Side], two: Union[RootedTree, _Side],
               cell: Callable[[int, int], int],
               start: tuple[int, int]) -> list[str]:
    """Recover one optimal agreement set of the subtrees in ``start``
    from a filled table, read through ``cell(u, v)``.

    ``one`` and ``two`` give each id's children and leaf taxon: the two
    rooted trees for the node table, the two edge sides for the unrooted
    one.  Ties are broken by a fixed preference (straight pairing,
    crossed pairing, then the four descents in order), so the recovered
    set is deterministic for given inputs.
    """
    left1, right1 = one.left, one.right
    left2, right2 = two.left, two.right
    out: list[str] = []
    stack = [start]
    while stack:
        u, v = stack.pop()
        m = cell(u, v)
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
        if cell(a, c) + cell(b, d) == m:
            stack.append((a, c))
            stack.append((b, d))
        elif cell(a, d) + cell(b, c) == m:
            stack.append((a, d))
            stack.append((b, c))
        elif cell(a, v) == m:
            stack.append((a, v))
        elif cell(b, v) == m:
            stack.append((b, v))
        elif cell(u, c) == m:
            stack.append((u, c))
        else:
            stack.append((u, d))
    if len(out) != cell(*start):
        raise TreeError("internal error: backtracking lost leaves")
    return out


def rooted_agreement_leaves(tree1: RootedTree, tree2: RootedTree) -> list[str]:
    """One maximum agreement set of two rooted trees on the same taxa,
    uncertified: callers certify the result they build from it.
    """
    return _backtrack(tree1, tree2, _rooted_table(tree1, tree2).cell, (0, 0))


def rooted_mast(tree1: RootedTree, tree2: RootedTree) -> MastResult:
    """Maximum agreement of two rooted trees on the same taxa.

    Child order never matters for agreement; only the ancestor structure
    does.  A node's row is recomputed only where tree2's subtree holds a
    taxon of its lighter child.  A taxon is in the lighter child of at
    most log2(n) nodes, so the fill visits at most log2(n) times the
    summed depth of tree2's leaves, and never more than |tree1| * |tree2|
    cells: about 210k of the 16.8M on two uniform trees of 2048 taxa,
    2.1M on two caterpillars.  Where the lighter child is a leaf (for
    three in four leaves of a uniform tree, and all leaves but one of a
    caterpillar), those cells are its taxon's path to tree2's root,
    updated bottom-up in closed form, and the leaf makes no row.  Each
    node stores only the cells it changed, about 2% of the cells on
    those uniform trees and a quarter on the caterpillars.
    """
    _check_pair(tree1, tree2, rooted=True)
    return _certified(tree1, tree2, rooted_agreement_leaves(tree1, tree2))


def unrooted_agreement_leaves(tree1: UnrootedTree,
                               tree2: UnrootedTree) -> list[str]:
    """One maximum agreement set of two unrooted trees on the same four
    or more taxa, uncertified, with the taxon it was built around last.

    A set containing taxon x is x plus an agreement of the two rooted
    trees left when x's leaf is cut off, each rooted at the leaf's
    neighbor: the far sides of the directed edges leaving x's leaf.  The
    set is built around the smallest x by label that is in some maximum
    set.  The table over pairs of directed edges is filled only where it
    is read.  First come the rows of the first tree's canonical rooting,
    the edges pointing away from its smallest taxon x0, one per node:
    those give the set around x0 and the maximum size.  Only when x0 is
    in no maximum set are the other taxa tried in label order, each with
    the rows of the edges up its root path, top down, which end in the
    edge leaving its leaf.  The backtrack from the pick's edge reads
    only rows of edges down and of the edges up the pick's path.
    """
    taxa = _pair_sorted_taxa(tree1, tree2)
    (one, out1), (two, out2) = _edge_side(tree1), _edge_side(tree2)
    table: list = [None] * len(one.left)
    # The edges down, one per node of the canonical rooting below its
    # root: the first half of the ids, listed first in one.order.
    down = one.order[:len(one.left) // 2]
    _fill_rows(one, two, table, down)
    start = table[out1[taxa[0]]][out2[taxa[0]]] + 1
    size = _best_over_rootings(one, two, table, down, start)
    pick = taxa[0]
    if size != start:
        for pick in taxa[1:]:
            # An edge up has the edge up from its parent (or x0's leaf)
            # as its left child and a down edge as its right one.
            path, u = [], out1[pick]
            while table[u] is None:
                path.append(u)
                u = one.left[u]
            path.reverse()
            _fill_rows(one, two, table, path)
            if table[out1[pick]][out2[pick]] + 1 == size:
                break
        else:
            raise TreeError("internal error: no taxon reaches the maximum")
    return _backtrack(one, two, lambda u, v: table[u][v],
                      (out1[pick], out2[pick])) + [pick]


def unrooted_mast(tree1: UnrootedTree, tree2: UnrootedTree) -> MastResult:
    """Maximum agreement of two unrooted trees on the same taxa.

    One table over pairs of directed edges, O(n^2) cells in O(n^2) time,
    holds the best set around every taxon (Steel and Warnow), but only
    the cells that can be read are filled (see
    :func:`unrooted_agreement_leaves`): half the rows when the smallest
    taxon is in a maximum set, and all of them at worst.  Ties go to the
    smallest taxon by label.  Only the result is certified.
    """
    _check_pair(tree1, tree2, rooted=False)
    if len(tree1) <= 3:
        # At most one topology exists, so the trees agree everywhere.
        return _certified(tree1, tree2, tree1.taxa)
    return _certified(tree1, tree2, unrooted_agreement_leaves(tree1, tree2))


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
