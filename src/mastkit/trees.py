"""Binary phylogenetic trees with labeled leaves.

Two flavors are distinguished by type:

* :class:`UnrootedTree` -- every internal node has degree exactly 3, every
  leaf degree 1.  A tree on ``n`` leaves has ``2n - 2`` nodes (degenerate
  trees with 1 or 2 leaves are legal).
* :class:`RootedTree` -- a distinguished root of degree 2 plus internal
  nodes with an *ordered* (left, right) child pair.  A tree on ``n``
  leaves has ``2n - 1`` nodes (a single-leaf tree is just its root).

Nodes are small integers that are stable within one tree value.  Trees are
immutable after construction: every operation that changes shape (restrict,
mirror, rooting) returns a fresh tree and never aliases node ids of the
source, except a restriction to every taxon, which returns the tree
itself.  Because instances never change, subtree leaf counts, the leaf
order and the taxa in label order are computed once on demand and cached.

Node arrays are made in one of two ways.  :func:`rooted_from_arrays` is
the one way a rooted tree is built from another structure (restriction,
mirroring, rooting, the Newick reader): it numbers the new nodes in
preorder, so the root is 0, every left child is its parent plus one and
every subtree is a contiguous id range.  Every rooted tree keeps that
numbering and stores only its child arrays: traversal orders, parents
and ancestry are read off the ids.  :func:`unrooted_from_edges` builds
the adjacency of generated and derooted trees: each node lists its
neighbors in the order its edges are given.  The Newick reader builds its
own as groups close, in the same children-then-parent order.  A rooting
is the child arrays of :func:`orient_at_edge`.  :func:`prune` restricts
them and the rooted builder numbers them, so a restricted rooting
(:func:`rooted_restriction`, and unrooted restriction, which then
suppresses the root again) builds only the restricted tree; isomorphism
and the Newick writer read them and build no tree, and the unrooted
exact DP reads its directed edges off them.

All traversals are iterative; trees may be path-like and deeper than the
interpreter recursion limit.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Iterable, Optional


class TreeError(Exception):
    """A structural invariant does not hold or an argument is malformed."""


class TaxaMismatch(TreeError):
    """Two trees that must share a taxon set do not."""


def _magnitude(label: str) -> tuple[int, str]:
    """A decimal label's value as (digit count, ASCII digits), leading
    zeros dropped: ordered as the numbers are, without ``int()``, which
    refuses more than 4300 digits."""
    if not label.isascii():
        import unicodedata  # here: only non-ASCII digits need its tables
        label = "".join([str(unicodedata.decimal(c)) for c in label])
    digits = label.lstrip("0")
    return len(digits), digits


def label_key(label: str):
    """Sort key giving numeric labels numeric order and others lexicographic.

    Decimal labels sort before non-decimal ones; ties between distinct
    spellings of the same number ("7" vs "07") fall back to the text.
    """
    if label.isdecimal():
        return (0, _magnitude(label), label)
    return (1, 0, label)


def sorted_labels(labels: Iterable[str]) -> list[str]:
    """``labels`` in :func:`label_key` order: text order, then the
    decimal labels first, stably ordered by value."""
    text = sorted(labels)
    decimal = list(filter(str.isdecimal, text))
    # Among ASCII digits with no leading zero, a longer label is larger
    # and text order is value order: the stable length sort, in C, is
    # the value sort.
    joined = "\n" + "\n".join(decimal)
    plain = joined.isascii() and "\n0" not in joined
    decimal.sort(key=len if plain else _magnitude)
    return decimal + list(filterfalse(str.isdecimal, text))


class _LabeledTree:
    """The label index both tree types share.

    ``labels`` maps leaf nodes to their taxon (``None`` on internal nodes).
    """

    __slots__ = ("labels", "_leaf_node", "_taxa", "_sorted_taxa")

    def __init__(self, labels: list[Optional[str]],
                 _leaf_node: Optional[dict[str, int]] = None):
        self.labels = labels
        if _leaf_node is None:  # else the caller built and checked it
            _leaf_node = {}
            for node, lab in enumerate(labels):
                if lab is not None:
                    if lab in _leaf_node:
                        raise TreeError(f"duplicate leaf label {lab!r}")
                    _leaf_node[lab] = node
        self._leaf_node = _leaf_node
        self._taxa = frozenset(_leaf_node)
        self._sorted_taxa = None

    def __len__(self) -> int:
        """Number of leaves."""
        return len(self._leaf_node)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} leaves={len(self)} nodes={self.num_nodes()}>"

    @property
    def taxa(self) -> frozenset[str]:
        return self._taxa

    def sorted_taxa(self) -> tuple[str, ...]:
        """The taxa in label order (see :func:`sorted_labels`)."""
        if self._sorted_taxa is None:
            self._sorted_taxa = tuple(sorted_labels(self._leaf_node))
        return self._sorted_taxa

    def num_nodes(self) -> int:
        return len(self.labels)

    def is_leaf(self, node: int) -> bool:
        return self.labels[node] is not None

    def leaf_node(self, label: str) -> int:
        try:
            return self._leaf_node[label]
        except KeyError:
            raise TreeError(f"unknown taxon {label!r}") from None

    def _keep_set(self, keep: Iterable[str]) -> frozenset[str]:
        """``keep`` as a set, checked to be a non-empty subset of the taxa."""
        keepset = frozenset(keep)
        if not keepset:
            raise TreeError("restriction to an empty taxon set")
        unknown = keepset - self._taxa
        if unknown:
            raise TreeError(f"unknown taxa in restriction: {sorted_labels(unknown)}")
        return keepset


class RootedTree(_LabeledTree):
    """An ordered rooted binary tree over a set of leaf labels.

    The representation is array-based: ``left`` and ``right`` map node
    ids to their children (-1 on leaves) and ``labels`` maps leaf nodes
    to their taxon (``None`` on internal nodes).  Node ids are the
    preorder, left subtree first: the root is 0, a left child is its
    parent plus one, and the subtree at ``v`` with ``k`` leaves is the id
    range ``v .. v + 2k - 2``.  Order and ancestry are read off the ids;
    no parent array is kept.
    """

    __slots__ = ("left", "right", "_nleaves", "_seq")

    root = 0

    def __init__(self, left: list[int], right: list[int],
                 labels: list[Optional[str]], _checked: bool = False):
        super().__init__(labels)
        self.left = left
        self.right = right
        self._nleaves = None
        self._seq = None
        if not _checked:
            self.validate()

    # -- basic queries ---------------------------------------------------

    def postorder(self) -> list[int]:
        """Nodes with children always before their parent: the ids from
        last to first (a list, which loops faster than a range)."""
        return list(range(len(self.labels) - 1, -1, -1))

    def leaf_counts(self) -> list[int]:
        """Per node, the number of leaves in its subtree."""
        if self._nleaves is None:
            cnt = [0] * len(self.labels)
            left, right = self.left, self.right
            for v in self.postorder():
                l = left[v]
                cnt[v] = 1 if l == -1 else cnt[l] + cnt[right[v]]
            self._nleaves = cnt
        return self._nleaves

    # -- core operations ---------------------------------------------------

    def seq(self) -> tuple[str, ...]:
        """Leaf labels in preorder (left to right)."""
        if self._seq is None:
            self._seq = tuple(lab for lab in self.labels if lab is not None)
        return self._seq

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff ``a`` lies on the path from ``b`` to the root (or a == b)."""
        return a <= b < a + 2 * self.leaf_counts()[a] - 1

    def lca(self, labels: Iterable[str]) -> int:
        """Least common ancestor node of a non-empty set of taxa."""
        nodes = [self.leaf_node(lab) for lab in labels]
        if not nodes:
            raise TreeError("lca of an empty taxon set")
        # The lca of a set is the lowest node whose id range holds its
        # first and its last leaf: descend while one child's range does.
        a, b = min(nodes), max(nodes)
        v, left, right = 0, self.left, self.right
        while left[v] != -1:
            r = right[v]
            if a < r <= b:
                break
            v = left[v] if b < r else r
        return v

    def restrict(self, keep: Iterable[str]) -> "RootedTree":
        """Restriction to a non-empty subset of taxa.

        Nodes outside the minimal subtree spanning ``keep`` are discarded
        and nodes left with a single live child are suppressed; surviving
        internal nodes keep their child order.
        """
        keepset = self._keep_set(keep)
        if keepset == self._taxa:
            return self
        return rooted_from_arrays(
            *prune(self.postorder(), self.left, self.right, self.labels, keepset),
            self.labels)

    def mirror(self) -> "RootedTree":
        """Swap the child order of every internal node."""
        return rooted_from_arrays(0, self.right, self.left, self.labels)

    def validate(self) -> None:
        """Check every structural invariant, preorder ids included;
        raises :class:`TreeError`."""
        left, right, labels = self.left, self.right, self.labels
        n = len(labels)
        if not (len(left) == len(right) == n):
            raise TreeError("array length mismatch")
        if n == 0:
            raise TreeError("empty tree")
        # Children have larger ids, so sizes fill in from the last id.
        size = [1] * n
        for v in range(n - 1, -1, -1):
            l, r = left[v], right[v]
            if (l == -1) != (r == -1):
                raise TreeError(f"node {v} has exactly one child")
            if l == -1:
                if labels[v] is None:
                    raise TreeError(f"leaf {v} is unlabeled")
                continue
            if labels[v] is not None:
                raise TreeError(f"internal node {v} carries a label")
            if l >= n or r >= n:
                raise TreeError(f"child link {v}->{max(l, r)} past the end")
            if l != v + 1 or r != l + size[l]:
                raise TreeError(f"node ids are not in preorder at {v}")
            size[v] = 1 + size[l] + size[r]
        # Every node reached from the root lies in its id range.
        if size[0] != n:
            raise TreeError("tree is not connected")


class UnrootedTree(_LabeledTree):
    """An unrooted binary tree: internal degree 3, leaf degree 1."""

    __slots__ = ("adj",)

    def __init__(self, adj: list[list[int]], labels: list[Optional[str]],
                 _checked: bool = False,
                 _leaf_node: Optional[dict[str, int]] = None):
        super().__init__(labels, _leaf_node)
        self.adj = adj
        if not _checked:
            self.validate()

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < len(self.adj) and v in self.adj[u]

    def restrict(self, keep: Iterable[str]) -> "UnrootedTree":
        """Restriction to a non-empty taxon subset: the minimal spanning
        subgraph with all degree-2 nodes suppressed, found by restricting
        the tree rooted at a kept leaf's pendant edge, in any child
        order."""
        keepset = self._keep_set(keep)
        if keepset == self._taxa:
            return self
        if len(keepset) == 1:
            return unrooted_from_edges(1, [], list(keepset))
        # The smallest id: frozenset order follows the hash seed.
        leaf = min(self._leaf_node[lab] for lab in keepset)
        return deroot(rooted_restriction(self, (leaf, self.adj[leaf][0]),
                                         keepset))

    def validate(self) -> None:
        """Check every structural invariant; raises :class:`TreeError`."""
        n = len(self.adj)
        if len(self.labels) != n:
            raise TreeError("array length mismatch")
        nleaves = len(self._leaf_node)
        if n == 0:
            raise TreeError("empty tree")
        edge_ends = 0
        for v in range(n):
            d = len(self.adj[v])
            edge_ends += d
            for u in self.adj[v]:
                if not (0 <= u < n) or v not in self.adj[u]:
                    raise TreeError(f"asymmetric adjacency at {v}-{u}")
            if self.labels[v] is not None:
                if d not in (0, 1) or (d == 0 and n != 1):
                    raise TreeError(f"leaf {v} has degree {d}")
            else:
                if d != 3:
                    raise TreeError(f"internal node {v} has degree {d}")
        if n != (2 * nleaves - 2 if nleaves > 1 else 1):
            raise TreeError(f"{n} nodes for {nleaves} leaves")
        if edge_ends != 2 * (n - 1):
            raise TreeError("edge count is not nodes - 1")
        seen, stack = {0}, [0]
        while stack:
            for u in self.adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            raise TreeError("tree is not connected")


# -- builders and rootedness conversions ------------------------------------


def preorder(top: int, left: list[int], right: list[int],
             rng=None) -> list[int]:
    """The nodes below ``top`` in preorder, left subtree first.

    With ``rng`` (an object with a ``randrange`` method), each child pair
    is first swapped on a coin flip, in place, drawn as its node is
    reached: the draws of :func:`root_at_edge` and ``setup``.
    """
    order = []
    stack = [top]
    while stack:
        v = stack.pop()
        order.append(v)
        l = left[v]
        if l != -1:
            r = right[v]
            if rng is not None and rng.randrange(2):
                left[v], right[v] = l, r = r, l
            # Push right first so the left child comes first.
            stack.append(r)
            stack.append(l)
    return order


def rooted_from_arrays(top: int, left: list[int], right: list[int],
                       labels: list[Optional[str]]) -> RootedTree:
    """The subtree below ``top`` as a fresh tree with preorder node ids.

    ``left`` and ``right`` give each reachable internal node's ordered
    children and are -1 on leaves; ``labels`` gives the leaves' taxa.
    Other entries are never read, and none is written.  The arrays must
    describe a binary tree; nothing is re-validated.
    """
    order = preorder(top, left, right)
    # new[v] is v's preorder id; the extra last slot maps -1 to -1.
    new = [-1] * (len(labels) + 1)
    for i, v in enumerate(order):
        new[v] = i
    return RootedTree([new[left[v]] for v in order],
                      [new[right[v]] for v in order],
                      [labels[v] for v in order], _checked=True)


def prune(order: list[int], left: list[int], right: list[int],
          labels: list[Optional[str]], keep: frozenset[str]
          ) -> tuple[int, list[int], list[int]]:
    """The restriction of a tree given as arrays to the taxa in ``keep``,
    as ``(top, kept_left, kept_right)`` for :func:`rooted_from_arrays`.

    ``order`` lists the nodes with children before their parents, the
    root last.  Nodes left with a single kept child are suppressed; the
    others keep their child order.  Nothing passed in is written.
    """
    n = len(labels)
    # rep[v] is the node standing for v's subtree once single-child
    # nodes are suppressed (-1: nothing kept below); only nodes with
    # a kept taxon on both sides keep their children.
    rep = [-1] * n
    kept_left = [-1] * n
    kept_right = [-1] * n
    for v in order:
        l = left[v]
        if l == -1:
            if labels[v] in keep:
                rep[v] = v
            continue
        rl, rr = rep[l], rep[right[v]]
        if rl == -1:
            rep[v] = rr
        elif rr == -1:
            rep[v] = rl
        else:
            rep[v] = v
            kept_left[v] = rl
            kept_right[v] = rr
    return rep[order[-1]], kept_left, kept_right


def unrooted_from_edges(num_nodes: int, edges: Iterable[tuple[int, int]],
                        labels: list[Optional[str]]) -> UnrootedTree:
    """An unrooted tree on nodes ``0..num_nodes-1`` with the given edges.

    Each node lists its neighbors in the order its edges come.  The edges
    must form a binary tree; nothing is re-validated.
    """
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return UnrootedTree(adj, labels, _checked=True)


def canonical_root_edge(tree: UnrootedTree) -> tuple[int, int]:
    """The edge incident to the leaf with the smallest label."""
    if len(tree) < 2:
        raise TreeError("a single-leaf tree has no edges")
    leaf = tree.leaf_node(tree.sorted_taxa()[0])
    return (leaf, tree.adj[leaf][0])


def orient_at_edge(tree: UnrootedTree, edge: tuple[int, int], *,
                   ranked: bool = True
                   ) -> tuple[list[int], list[int], list[Optional[str]], list[int]]:
    """``tree`` hung from a new root node that subdivides ``edge``, as
    fresh child arrays ``(left, right, labels, order)``: the one form of
    a rooting, which is numbered, pruned, hashed, written from or read
    as directed edges.

    The new root is node ``len(tree.adj)``, the last.  ``order`` lists
    every node with children before their parents, the new root last.
    With ``ranked``, the child whose subtree holds the smaller taxon is
    the left one; without, each pair keeps the order of ``edge`` and of
    the adjacency lists, and no taxon is sorted.
    """
    a, b = edge
    if not tree.has_edge(a, b):
        raise TreeError(f"no edge {edge!r} in tree")
    adj, labels = tree.adj, tree.labels
    top = len(adj)  # the new root's id
    left = [-1] * (top + 1)
    right = [-1] * (top + 1)
    left[top], right[top] = a, b
    # Orient away from the new root: a node's children are its neighbors
    # other than its parent, in adjacency order.
    par = [-1] * top
    par[a], par[b] = b, a
    order = [a, b]
    for v in order:
        if labels[v] is None:
            x, y, z = adj[v]
            p = par[v]
            if x == p:
                x, y = y, z
            elif y == p:
                y = z
            left[v], right[v] = x, y
            par[x] = par[y] = v
            order.append(x)
            order.append(y)
    order.reverse()
    order.append(top)
    if ranked:
        # best[v] is the rank of the smallest taxon below v; children are
        # ranked before their parents, and the new root last.
        best = [0] * (top + 1)
        leaf_node = tree._leaf_node
        for rank, label in enumerate(tree.sorted_taxa()):
            best[leaf_node[label]] = rank
        for v in order:
            x = left[v]
            if x != -1:
                y = right[v]
                if best[y] < best[x]:
                    left[v], right[v] = y, x
                    best[v] = best[y]
                else:
                    best[v] = best[x]
    return left, right, labels + [None], order


def root_at_edge(tree: UnrootedTree, edge: tuple[int, int],
                 rng=None) -> RootedTree:
    """Root an unrooted tree by subdividing ``edge`` with a new root node.

    ``rng`` fixes the left/right order of every child pair:

    * ``None`` (default, deterministic): the child whose subtree contains
      the smallest taxon becomes the left child;
    * an object with a ``randrange`` method: a coin flip per node, drawn
      in the new tree's preorder (see :func:`preorder`); heads swaps the
      pair from the order of ``edge`` and of the adjacency lists.
    """
    left, right, labels, order = orient_at_edge(tree, edge, ranked=rng is None)
    if rng is not None:
        preorder(order[-1], left, right, rng)  # flips the fresh arrays
    return rooted_from_arrays(order[-1], left, right, labels)


def rooted_restriction(tree: UnrootedTree, edge: tuple[int, int],
                       keep: Iterable[str]) -> RootedTree:
    """``tree`` hung from ``edge``, unranked, and cut down to ``keep``: the
    :func:`orient_at_edge` arrays pruned, so only the restricted tree is
    built."""
    keepset = tree._keep_set(keep)
    left, right, labels, order = orient_at_edge(tree, edge, ranked=False)
    return rooted_from_arrays(*prune(order, left, right, labels, keepset),
                              labels)


def deroot(tree: RootedTree) -> UnrootedTree:
    """Suppress the root, joining its two child subtrees by an edge.

    Node ``v`` becomes ``v - 1``, and each node lists its children
    before its parent, as the Newick reader does.
    """
    if len(tree) < 2:
        raise TreeError("cannot deroot a single-leaf tree")
    left, right, labels = tree.left, tree.right, tree.labels
    # A parent has a smaller id than its children, so walking the ids
    # down adds each node's child edges before its parent edge.
    edges = []
    for v in range(len(labels) - 1, 0, -1):
        if left[v] != -1:
            edges.append((left[v] - 1, v - 1))
            edges.append((right[v] - 1, v - 1))
    edges.append((left[0] - 1, right[0] - 1))
    return unrooted_from_edges(len(labels) - 1, edges, labels[1:])


# -- shape predicates --------------------------------------------------------


def is_caterpillar(tree) -> bool:
    """True iff every internal node (root included) is adjacent to a leaf."""
    if isinstance(tree, RootedTree):
        # A parent is never a leaf, so adjacency means a leaf child.
        for v in range(tree.num_nodes()):
            l = tree.left[v]
            if l != -1 and not tree.is_leaf(l) and not tree.is_leaf(tree.right[v]):
                return False
        return True
    if isinstance(tree, UnrootedTree):
        for v in range(tree.num_nodes()):
            if tree.labels[v] is None:
                if not any(tree.labels[u] is not None for u in tree.adj[v]):
                    return False
        return True
    raise TypeError(f"not a tree: {tree!r}")


# -- isomorphism -------------------------------------------------------------


def _canon_id(left: list[int], right: list[int], labels: list[Optional[str]],
              order: list[int], table: dict) -> int:
    """Hash-consed canonical id of the tree in child arrays, child order
    ignored; ``order`` lists children before parents, the root last."""
    ids = [0] * len(labels)
    for v in order:
        if left[v] == -1:
            key = labels[v]
        else:
            a, b = ids[left[v]], ids[right[v]]
            key = (a, b) if a <= b else (b, a)
        cached = table.get(key)
        if cached is None:
            cached = len(table)
            table[key] = cached
        ids[v] = cached
    return ids[order[-1]]


def isomorphic(a, b) -> bool:
    """Label-preserving isomorphism; child order is not significant.

    Both arguments must share rootedness.  Different taxon sets compare
    unequal rather than raising.  Ids are hashed on child arrays: two
    unrooted trees are hung, unranked, from one shared taxon's edge.
    """
    if isinstance(a, UnrootedTree) and isinstance(b, UnrootedTree):
        if a.taxa != b.taxa:
            return False
        if len(a) <= 2:
            return True
        taxon = min(a.taxa)  # any shared taxon hangs both trees alike
        hung = []
        for t in (a, b):
            leaf = t.leaf_node(taxon)
            hung.append(orient_at_edge(t, (leaf, t.adj[leaf][0]), ranked=False))
    elif not (isinstance(a, RootedTree) and isinstance(b, RootedTree)):
        raise TypeError("isomorphism needs two trees of the same rootedness")
    elif a.taxa != b.taxa:
        return False
    else:
        hung = [(t.left, t.right, t.labels, t.postorder()) for t in (a, b)]
    table: dict = {}
    return _canon_id(*hung[0], table) == _canon_id(*hung[1], table)

