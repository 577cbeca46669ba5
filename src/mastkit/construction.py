"""Constructive lower bounds for maximum agreement subtrees.

Given two binary trees on the same n taxa, the routines here build an
explicit agreement set of logarithmic size.  The pipeline:

* :func:`setup` roots both trees at an edge and keeps a common monotone
  leaf subsequence (at least sqrt(n) taxa), building only the two
  rootings cut down to it, the core pair, which list their leaves in one
  order; the loops keep these trees fixed and hold their core, pairs and
  splits as runs of positions in that order;
* :func:`weak_construct` peels one taxon per round off a shrinking core,
  or exits early with a greedy caterpillar, and guarantees an agreement
  of size about log n / log log n;
* :func:`main_construct` peels whole blocks found by :func:`strong_split`,
  each one a weak chain run on a nucleus of the core, on the same trees
  and in the same frame, aiming at Omega(log n).

Every intermediate object is checked as it is produced: candidate pairs
are re-validated with explicit ancestor queries, splits with explicit
incomparability queries, and :func:`construct`, which runs both, then
certifies the final outcome once with :func:`verify_outcome` against the
core pair it was built on.  Every outcome is a subset of the core, and
restriction composes, so the core pair accepts exactly the sets that the
full rooted pair would.  A returned outcome is therefore a certificate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, Union

from .exact import EXACT, ROOTED_DP_CAP, rooted_agreement_leaves
from .rng import SplitMix64
from .trees import (
    RootedTree,
    TaxaMismatch,
    TreeError,
    UnrootedTree,
    _pair_sorted_taxa,
    canonical_root_edge,
    deroot,
    is_caterpillar,
    isomorphic,
    orient_at_edge,
    preorder,
    prune,
    rooted_from_arrays,
    rooted_restriction,
)

ROOTED_CATERPILLAR = "rooted_caterpillar"
UNROOTED_CATERPILLAR = "unrooted_caterpillar"
BLOCK_TREE = "block_tree"

_ROOTED_KINDS = (ROOTED_CATERPILLAR, BLOCK_TREE)
_KINDS = _ROOTED_KINDS + (UNROOTED_CATERPILLAR, EXACT)

Tree = Union[RootedTree, UnrootedTree]


class CertificationError(TreeError):
    """A produced agreement set failed :func:`verify_outcome`."""


@dataclass(frozen=True)
class Piece:
    """A run of the core: positions ``lo..hi`` (1-based, inclusive) of the
    decomposition's ``order``, off a spine or named by a pair or split."""

    lo: int
    hi: int

    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class GoodPair:
    """One peel step: the taxon at position ``pivot`` joins the output, the
    run ``survivors`` carries on (both in the decomposition's frame).

    In both trees the ancestor of the survivors is strictly below the
    ancestor of survivors plus pivot, which is what lets the pivot sit on
    top of whatever the survivors later produce.  ``tier`` records the
    size floor the pair was found under: ``"large"`` keeps at least a 1/C
    fraction of the core, ``"regular"`` at least 1/(2 log2 n).
    """

    pivot: int
    survivors: Piece
    tier: str


@dataclass
class IterationState:
    """The shrinking core shared by both construction loops.

    ``tree1`` and ``tree2`` must list their leaves in one order and stay
    fixed; the core is the run ``lo..hi`` (0-based, inclusive) of that
    order, which each step shrinks.  ``flipped``, toggled only by
    :func:`path_decomposition`, means the loop reads both trees mirrored,
    and ``taxa`` lists the core's labels in that frame; a nested weak
    chain starts from a narrowed copy and inherits it.  ``agreed`` lists
    the peeled taxa, oldest first.  ``n_param`` is the size parameter all
    logarithmic thresholds refer to; it stays fixed as the core shrinks.
    """

    lo: int
    hi: int
    tree1: RootedTree
    tree2: RootedTree
    agreed: list[str]
    n_param: int
    step: int = 1
    flipped: bool = False

    def __post_init__(self) -> None:
        if self.tree1.seq() != self.tree2.seq():
            raise TreeError("the trees must list their leaves in one order")

    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def taxa(self) -> tuple[str, ...]:
        order = self.tree1.seq()[self.lo:self.hi + 1]
        return order[::-1] if self.flipped else order

@dataclass(frozen=True)
class PathDecomposition:
    """Both trees, cut down to the core, split along a spine into
    consecutive runs of the core.

    Both lists come from one walk: from the root down through one child
    of each node, listing the subtrees that hang off the other side
    top-down and ending with the leaf reached.  ``second`` is that walk
    on tree2 through right children, so it starts with the root's left
    subtree and ends with the right-most leaf.  ``first`` is the walk on
    tree1 through left children, reversed, so it starts with the
    left-most leaf and ends with the root's right subtree.  Each list
    partitions positions 1..n of ``order``, the core's labels in the
    loop's frame: mirrored when the state is ``flipped``.
    """

    first: tuple[Piece, ...]
    second: tuple[Piece, ...]
    order: tuple[str, ...]


@dataclass(frozen=True)
class IncomparableSplit:
    """Two disjoint runs of the core whose ancestors are incomparable in
    both trees: ``nucleus`` is recursed on, ``survivors`` is iterated on."""

    nucleus: Piece
    survivors: Piece


@dataclass(frozen=True)
class ConstructionOutcome:
    """A certified agreement set plus provenance.

    ``kind`` says what the set promises: the rooted kinds agree as rooted
    trees once both originals are rooted at the pendant edge of their
    smallest taxon, as :func:`setup` roots them; the unrooted kind agrees
    as an unrooted caterpillar.  ``claimed_bound`` is the size the taken
    branch promises (a report, not an assertion).
    """

    agreement_set: frozenset[str]
    kind: str
    branch: str
    claimed_bound: float


def _longest_increasing(values: Sequence[int]) -> list[int]:
    # Patience sorting; returns indices of one strictly increasing
    # subsequence of maximum length, deterministically.
    tails: list[int] = []
    tails_idx: list[int] = []
    prev = [-1] * len(values)
    for i, v in enumerate(values):
        j = bisect_left(tails, v)
        if j == len(tails):
            tails.append(v)
            tails_idx.append(i)
        else:
            tails[j] = v
            tails_idx[j] = i
        prev[i] = tails_idx[j - 1] if j else -1
    out: list[int] = []
    i = tails_idx[-1] if tails_idx else -1
    while i != -1:
        out.append(i)
        i = prev[i]
    out.reverse()
    return out


def common_monotone_subsequence(
        a: Sequence[str], b: Sequence[str]) -> tuple[tuple[str, ...], str]:
    """Longest subsequence of ``a`` that is also a subsequence of ``b``
    or of reversed ``b``; returns it with ``"increasing"`` or
    ``"decreasing"`` telling which.  Ties prefer increasing.

    Both sequences must enumerate the same distinct labels.  The result
    length is at least ceil(sqrt(n)): mapping each label to its position
    in ``b`` turns the question into longest monotone run in a
    permutation, and a permutation of n items always carries one.
    """
    if len(a) != len(b) or set(a) != set(b):
        raise TaxaMismatch("sequences must list the same labels")
    pos = {lab: i for i, lab in enumerate(b)}
    perm = [pos[lab] for lab in a]
    inc = _longest_increasing(perm)
    dec = _longest_increasing([-v for v in perm])
    picked = inc if len(inc) >= len(dec) else dec
    direction = "increasing" if len(inc) >= len(dec) else "decreasing"
    return tuple(a[i] for i in picked), direction


def setup(tree1: UnrootedTree, tree2: UnrootedTree,
          rng: Optional[SplitMix64] = None,
          ) -> tuple[IterationState, tuple[str, ...], tuple[str, ...]]:
    """Root both trees at the pendant edge of their smallest taxon, align
    their leaf orders, and cut down to a common monotone subsequence of
    size at least ceil(sqrt(n)).  With ``rng``, child pairs are oriented
    by coin flips instead of by smallest taxon (drawn by :func:`preorder`).
    The two trees share their taxa, so their label order is sorted once,
    on ``tree1``, and handed to ``tree2``.

    Returns the initial state plus the two rooted trees' leaf orders, the
    second reversed when the alignment is decreasing.  The state's trees,
    the core pair, are those rootings (the second mirrored then) cut down
    to the core; only the core pair is built.  Rooted agreements of the
    core pair are rooted agreements of the rootings, and of the unrooted
    originals after de-rooting.
    """
    if tree1.taxa != tree2.taxa:
        raise TaxaMismatch("input trees must share their taxon set")
    n = len(tree1)
    if n < 4:
        raise TreeError("setup needs at least 4 taxa")
    _pair_sorted_taxa(tree1, tree2)
    hung = [orient_at_edge(tree, canonical_root_edge(tree), ranked=rng is None)
            for tree in (tree1, tree2)]
    orders = []
    for left, right, labels, order in hung:
        # Walking each rooting's preorder, tree1's first, draws rng's flips
        # as root_at_edge would, and lists the leaves.
        walk = preorder(order[-1], left, right, rng)
        orders.append(tuple([labels[v] for v in walk if left[v] == -1]))
    common, direction = common_monotone_subsequence(*orders)
    if len(common) * len(common) < n:
        raise TreeError("internal error: common subsequence below sqrt floor")
    keep = frozenset(common)
    cores = []
    while hung:  # each tree's full arrays go once its core is built
        left, right, labels, order = hung.pop(0)
        top, kept_left, kept_right = prune(order, left, right, labels, keep)
        if cores and direction == "decreasing":  # mirror the second tree
            kept_left, kept_right = kept_right, kept_left
        cores.append(rooted_from_arrays(top, kept_left, kept_right, labels))
    if direction == "decreasing":
        orders[1] = orders[1][::-1]
    state = IterationState(lo=0, hi=len(common) - 1, tree1=cores[0],
                           tree2=cores[1], agreed=[], n_param=n)
    return state, orders[0], orders[1]


def _spine_pieces(tree: RootedTree, lo: int, hi: int, right_spine: bool,
                  flipped: bool) -> list[Piece]:
    # The subtrees hanging off the left (or right) spine of ``tree`` cut
    # down to leaf positions lo..hi (0-based), top-down, then the leaf
    # reached, as pieces of the frame.  Nodes with one child outside
    # lo..hi are suppressed by the cut, so the walk passes through them.
    counts, left, right = tree.leaf_counts(), tree.left, tree.right
    down_right = right_spine != flipped
    spans = []
    v, start = tree.root, 0
    while left[v] != -1:
        mid = start + counts[left[v]]  # first position under right[v]
        if mid > hi:
            v = left[v]
        elif mid <= lo:
            v, start = right[v], mid
        elif down_right:
            spans.append((max(start, lo), mid - 1))
            v, start = right[v], mid
        else:
            spans.append((mid, min(start + counts[v] - 1, hi)))
            v = left[v]
    spans.append((start, start))
    if flipped:
        return [Piece(hi - b + 1, hi - a + 1) for a, b in spans]
    return [Piece(a - lo + 1, b - lo + 1) for a, b in spans]


def path_decomposition(state: IterationState) -> PathDecomposition:
    """Split both trees of the state, cut down to its core, along their
    spines into runs of the core.

    The core must be a run of the trees' common leaf order.  First
    normalizes the state in place: if tree1's left root subtree is
    smaller than its right one, ``flipped`` toggles (agreements are
    unaffected since child order never matters for isomorphism).
    Afterwards tree1's left subtree holds at least half the core.  Then
    walks the spines of the fixed trees, read in that frame, as
    :class:`PathDecomposition` describes.
    """
    tree1, tree2, lo, hi = state.tree1, state.tree2, state.lo, state.hi
    base = tree1.seq()
    if not 0 <= lo <= hi < len(base) or base != tree2.seq():
        raise TreeError("the core is not a run of a common leaf order")
    # Down tree1's left spine, the first piece is its right root subtree.
    first = _spine_pieces(tree1, lo, hi, False, state.flipped)
    if len(first) > 1 and 2 * first[0].size() > hi - lo + 1:
        state.flipped = not state.flipped
        first = _spine_pieces(tree1, lo, hi, False, state.flipped)
    second = _spine_pieces(tree2, lo, hi, True, state.flipped)
    return PathDecomposition(tuple(first[::-1]), tuple(second), state.taxa)


def check_good_pair(state: IterationState, pair: GoodPair, c: int) -> None:
    """Re-derive every promise a pair makes; raise if any fails.

    Checks membership, the strict ancestor step in both trees, and the
    tier's size floor.  Both trees list a run of the core in one block, so
    its ancestor is that of its two ends, found by one walk per tree.  The
    ancestor of run plus pivot always lies above it, and strictly above
    exactly when the pivot's leaf is not under it.
    """
    run, core = pair.survivors, state.size()
    if not 1 <= run.lo <= run.hi <= core or not 1 <= pair.pivot <= core:
        raise TreeError("pair needs a non-empty run and a pivot in the core")
    if run.lo <= pair.pivot <= run.hi:
        raise TreeError("pivot may not survive itself")
    order = state.taxa
    ends, pivot = (order[run.lo - 1], order[run.hi - 1]), order[pair.pivot - 1]
    for tree in (state.tree1, state.tree2):
        if tree.is_ancestor(tree.lca(ends), tree.leaf_node(pivot)):
            raise TreeError("pivot fails the strict ancestor step")
    if pair.tier == "large":
        if run.size() * c < core:
            raise TreeError("large pair below its 1/C size floor")
    elif pair.tier == "regular":
        if run.size() * 2 * math.log2(state.n_param) < core:
            raise TreeError("regular pair below its 1/(2 log n) size floor")
    else:
        raise TreeError(f"unknown pair tier {pair.tier!r}")


def _overlap(piece: Piece, lo: int, hi: int) -> int:
    a = piece.lo if piece.lo > lo else lo
    b = piece.hi if piece.hi < hi else hi
    return b - a + 1 if b >= a else 0


def _first_piece(decomp: PathDecomposition, test: Callable[[Piece], bool]
                 ) -> Optional[tuple[bool, int, Piece]]:
    # The first piece passing ``test``, scanning ``first`` then ``second``,
    # as (in_first, index in its list, piece).
    for in_first, pieces in ((True, decomp.first), (False, decomp.second)):
        for idx, piece in enumerate(pieces):
            if test(piece):
                return in_first, idx, piece
    return None


def _first_oversized(decomp: PathDecomposition,
                     c: int) -> Optional[tuple[bool, int, Piece]]:
    # The first piece with more than max(2n'/C, 1) leaves.
    n = len(decomp.order)
    return _first_piece(decomp, lambda p: p.size() > 1 and p.size() * c > 2 * n)


def _cut_pair(state: IterationState, n: int, lo: int, hi: int,
              cut: int, prefix: bool, tier: str, c: int) -> GoodPair:
    # Survivors are positions lo..hi up to ``cut``, with the last position
    # n as pivot, or past ``cut``, with the first position as pivot.
    if prefix:
        pair = GoodPair(n, Piece(lo, min(hi, cut)), tier)
    else:
        pair = GoodPair(1, Piece(max(lo, cut + 1), hi), tier)
    check_good_pair(state, pair, c)
    return pair


def find_good_pair_structural(
        state: IterationState, decomp: PathDecomposition,
        c: int = 4) -> Optional[GoodPair]:
    """Look for a pair whose survivors keep at least a 1/C fraction.

    Returns None exactly when every piece of the decomposition has size
    at most max(2n'/C, 1), where n' is the current core size; otherwise
    the first oversized piece (first list scanned left to right, then the
    second) determines the pair via interval arithmetic on the common
    leaf order.
    """
    found = _first_oversized(decomp, c)
    if found is None:
        return None
    in_first, idx, piece = found
    n = len(decomp.order)
    lo, hi = piece.lo, piece.hi
    if not in_first:
        # For tree2's left root subtree (index 0), normalization keeps
        # tree1's left subtree at half the core, so two long prefixes
        # again overlap in a long prefix.
        cut = decomp.first[-1].lo - 1        # tree1's left root subtree
        prefix = idx == 0 or _overlap(piece, cut + 1, n) * c < n
    else:
        cut = decomp.second[0].hi            # tree2's left root subtree
        if idx < len(decomp.first) - 1:
            prefix = _overlap(piece, 1, cut) * c >= n
        else:
            prefix = _overlap(piece, cut + 1, n) * c < n
            if prefix:
                # Both left root subtrees are large; their leaf intervals
                # are prefixes, so they overlap in a long prefix.
                lo, hi = 1, piece.lo - 1
    return _cut_pair(state, n, lo, hi, cut, prefix, "large", c)


def find_good_pair_big_subtree(
        state: IterationState,
        decomp: PathDecomposition) -> Optional[GoodPair]:
    """Build a pair from a piece of size at least n'/log2(n_param).

    Assumes no oversized piece in the structural sense (so pieces fit in
    half the core); survivors are the big piece's majority overlap with a
    root subtree of the other tree, which keeps at least a 1/(2 log2 n)
    fraction.  Returns None if no piece reaches the floor.
    """
    n = len(decomp.order)
    if n < 2:
        raise TreeError("need at least two taxa to form a pair")
    floor = n / math.log2(state.n_param)
    found = _first_piece(decomp, lambda p: p.size() >= floor)
    if found is None:
        return None
    in_first, idx, piece = found
    lo, hi, size = piece.lo, piece.hi, piece.size()
    if in_first and idx < len(decomp.first) - 1:
        cut = decomp.second[0].hi            # tree2's left root subtree
        prefix = 2 * _overlap(piece, 1, cut) >= size
    elif in_first:
        # Top piece of tree1 versus bottom-heavy tree2: the prefix
        # under tree2's left root subtree misses the top piece, so
        # its first leaf is a valid pivot.
        cut, prefix = lo - 1, False
    elif idx == 0:
        cut, prefix = hi, True
    else:
        cut = decomp.first[-1].lo - 1        # tree1's left root subtree
        prefix = 2 * _overlap(piece, cut + 1, n) < size
    return _cut_pair(state, n, lo, hi, cut, prefix, "regular", 0)


def greedy_caterpillar(decomp: PathDecomposition, lo: int = 1,
                       hi: Optional[int] = None) -> tuple[str, ...]:
    """Sweep positions lo..hi, taking one leaf then skipping past both
    pieces containing it.

    Each list's pieces tile 1..n in ascending order, so the piece holding
    a position is the first whose end is not before it, found by bisecting
    the list's ends.  The picks hit each piece of either list at most
    once, so restricting either tree to them yields a caterpillar, and
    both caterpillars carry the picks in the same spine order, hence agree
    once de-rooted.  If every piece has size below (hi-lo+1)/B the sweep
    returns more than B picks.
    """
    order = decomp.order
    n = len(order)
    if hi is None:
        hi = n
    if lo < 1 or hi > n or lo > hi:
        raise TreeError("sweep window out of range")
    end1 = [piece.hi for piece in decomp.first]
    end2 = [piece.hi for piece in decomp.second]
    picks = []
    pos = lo
    while pos <= hi:
        picks.append(order[pos - 1])
        e1, e2 = end1[bisect_left(end1, pos)], end2[bisect_left(end2, pos)]
        pos = (e1 if e1 >= e2 else e2) + 1
    return tuple(picks)


def _peel(state: IterationState, peeled: Iterable[str],
          survivors: Piece) -> None:
    # Output ``peeled``; the core shrinks to ``survivors``, a run of the frame.
    state.agreed.extend(peeled)
    a, b = survivors.lo, survivors.hi
    if state.flipped:
        a, b = state.size() + 1 - b, state.size() + 1 - a
    state.lo, state.hi = state.lo - 1 + a, state.lo - 1 + b
    state.step += 1


def construct(state: IterationState, algorithm: str = "main",
              c: Optional[int] = None) -> ConstructionOutcome:
    """On a fresh state over ``state``'s whole core pair, run the weak chain
    or the main loop at C = ``c`` (None or 0: 4 weak, 40 main) and certify
    the outcome against that pair; ``state`` itself is never changed."""
    fresh = IterationState(0, len(state.tree1) - 1, state.tree1, state.tree2,
                           [], state.n_param)
    if algorithm == "weak":
        out = _weak_loop(fresh, c if c else 4)
    elif algorithm == "main":
        out = _main_loop(fresh, c if c else 40)
    else:
        raise TreeError(f"unknown construction algorithm {algorithm!r}")
    return certified(state.tree1, state.tree2, out)


def weak_construct(tree1: RootedTree, tree2: RootedTree, n_param: int,
                   c: int = 4) -> ConstructionOutcome:
    """Peel pivots until one taxon remains or a greedy caterpillar pays.

    Inputs are two rooted trees with identical leaf orders (as produced
    by :func:`setup`).  Each pair step keeps at least a 1/(2 log2 n_param)
    fraction, so starting from at least sqrt(n_param) taxa the rooted
    exit has size >= log2(n_param) / (2 log2(2 log2 n_param)) + 1; the
    caterpillar exit has size >= log2(n_param).
    """
    if tree1.taxa != tree2.taxa:
        raise TaxaMismatch("input trees must share their taxon set")
    if n_param < 4:
        raise TreeError("size parameter must be at least 4")
    return construct(IterationState(0, len(tree1) - 1, tree1, tree2, [],
                                    n_param), "weak", c)


def _weak_loop(state: IterationState, c: int) -> ConstructionOutcome:
    # The weak chain on ``state``, which it shrinks; uncertified.
    if c < 4:  # below 4 a piece may hold more than half the core
        raise TreeError(f"shrink-fraction constant C must be at least 4, got {c}")
    tallies = {"large": 0, "regular": 0}
    lg = math.log2(state.n_param)
    while state.size() > 1:
        decomp = path_decomposition(state)
        pair = (find_good_pair_structural(state, decomp, c)
                or find_good_pair_big_subtree(state, decomp))
        if pair is None:  # every piece is small, so the sweep pays
            return ConstructionOutcome(
                frozenset(greedy_caterpillar(decomp)), UNROOTED_CATERPILLAR,
                f"greedy-caterpillar(step={state.step})", lg)
        tallies[pair.tier] += 1
        _peel(state, [decomp.order[pair.pivot - 1]], pair.survivors)
    return ConstructionOutcome(
        frozenset(state.agreed).union(state.taxa), ROOTED_CATERPILLAR,
        f"pair-chain(large={tallies['large']} regular={tallies['regular']})",
        0.5 * lg / math.log2(2 * lg) + 1)


def _check_split(state: IterationState, split: IncomparableSplit) -> None:
    nucleus, survivors, core = split.nucleus, split.survivors, state.size()
    for run in (nucleus, survivors):
        if not 1 <= run.lo <= run.hi <= core:
            raise TreeError("split runs must be non-empty and inside the core")
    if nucleus.lo <= survivors.hi and survivors.lo <= nucleus.hi:
        raise TreeError("split runs overlap")
    if nucleus.size() ** 16 < state.n_param:
        raise TreeError("split nucleus below its size floor")
    if survivors.size() * 10 * math.log2(state.n_param) < core:
        raise TreeError("split survivors below their size floor")
    order = state.taxa
    for tree in (state.tree1, state.tree2):
        a = tree.lca((order[nucleus.lo - 1], order[nucleus.hi - 1]))
        b = tree.lca((order[survivors.lo - 1], order[survivors.hi - 1]))
        if tree.is_ancestor(a, b) or tree.is_ancestor(b, a):
            raise TreeError("split ancestors are comparable")


def strong_split(state: IterationState, decomp: PathDecomposition,
                 c: int = 40
                 ) -> Union[IncomparableSplit, ConstructionOutcome, None]:
    """With only small pieces left, cut the core in two incomparable
    parts, or fall back to an explicit caterpillar agreement.

    Requires every piece at size at most max(2n'/C, 1).  Locates a big
    piece inside the middle window, positions ceil(2n'/5)..floor(3n'/5)
    of the core (the survivors), and another in the first or last fifth,
    then intersects the latter with the other tree's pieces to carve a
    nucleus whose ancestor is incomparable with the survivors' ancestor
    in both trees.  When a landmark is missing the window is swept greedily
    instead, and if the other tree's pieces only graze the nucleus a
    transversal (one leaf per grazing piece) is solved exactly, which is
    feasible because the transversal restricts one tree to a caterpillar.
    Returns the split, or a fallback as an uncertified
    ``UNROOTED_CATERPILLAR`` outcome, or None when a window is degenerate.
    """
    order = decomp.order
    n = len(order)
    n_param = state.n_param
    if _first_oversized(decomp, c) is not None:
        raise TreeError("oversized piece: structural pair applies")
    if state.size() ** 4 < n_param:
        raise TreeError("core below the fourth-root floor")
    lg = math.log2(n_param)
    win_lo = (8 * n + 19) // 20
    win_hi = (12 * n) // 20
    inside1 = [p for p in decomp.first if p.lo >= win_lo and p.hi <= win_hi]
    inside2 = [p for p in decomp.second if p.lo >= win_lo and p.hi <= win_hi]
    if not inside1 or not inside2:
        return None  # no piece fits the middle window
    lo = max(inside1[0].lo, inside2[0].lo)
    hi = min(inside1[-1].hi, inside2[-1].hi)
    if lo > hi:
        return None  # the middle-window piece runs do not meet
    found = _first_piece(
        decomp, lambda p: p.hi >= lo and p.lo <= hi and p.size() * 10 * lg >= n)
    if found is None:
        return ConstructionOutcome(
            frozenset(greedy_caterpillar(decomp, lo, hi)),
            UNROOTED_CATERPILLAR, f"interval-sweep(step={state.step})", lg)
    anchor_in_first, _, anchor = found
    if anchor_in_first:
        side_lo, side_hi = 1, (4 * n) // 20
        contained = lambda p: 4 * p.hi < n
    else:
        side_lo, side_hi = (16 * n + 19) // 20, n
        contained = lambda p: 4 * p.lo > 3 * n
    if side_lo > side_hi:
        return None  # the side window is empty
    found = _first_piece(
        decomp, lambda p: (p.hi >= side_lo and p.lo <= side_hi
                           and p.size() * 5 * lg >= n and contained(p)))
    if found is None:
        return ConstructionOutcome(
            frozenset(greedy_caterpillar(decomp, side_lo, side_hi)),
            UNROOTED_CATERPILLAR, f"side-sweep(step={state.step})", lg)
    pick_in_first, _, pick = found
    partners = [p for p in (decomp.second if pick_in_first else decomp.first)
                if p.hi >= pick.lo and p.lo <= pick.hi]
    for partner in partners:
        cut_lo = max(partner.lo, pick.lo)
        cut_hi = min(partner.hi, pick.hi)
        if (cut_hi - cut_lo + 1) ** 16 >= n_param:
            split = IncomparableSplit(Piece(cut_lo, cut_hi), anchor)
            _check_split(state, split)
            return split
    transversal = tuple(order[max(p.lo, pick.lo) - 1] for p in partners)
    sub = rooted_agreement_leaves(state.tree1.restrict(transversal),
                                  state.tree2.restrict(transversal))
    return ConstructionOutcome(
        frozenset(sub), UNROOTED_CATERPILLAR,
        f"transversal-exact(step={state.step} partners={len(partners)})",
        lg / 48)


def main_construct(tree1: UnrootedTree, tree2: UnrootedTree, c: int = 40,
                   rng: Optional[SplitMix64] = None) -> ConstructionOutcome:
    """Build an agreement set by peeling singletons and whole blocks.

    Runs :func:`setup`, then while the core holds at least n^(1/4) taxa:
    take a structural pair if one exists, otherwise ask
    :func:`strong_split`.  A weak chain runs on a split's nucleus, with
    size parameter |nucleus|^2, and is appended as one block; a fallback
    caterpillar, the chain's own included (tagged ``nested:``), is
    returned as-is.  Blocks stack because each block's ancestor is
    incomparable with the remaining core's ancestor in both trees.  The
    loop ends when the core falls below n^(1/4) taxa or a degenerate
    window stops it; either way one exact rooted step on the remaining
    core closes the chain, and the branch is tagged ``final-exact`` if
    that step drops taxa, or ``degenerate-exact`` after a degenerate
    window.  A core of more than ``ROOTED_DP_CAP`` taxa is closed by a
    weak chain instead, as a nucleus is, and tagged ``degenerate-weak``.
    :func:`construct` runs the loop on a fresh copy of setup's state and
    certifies the outcome against the core pair.
    """
    return construct(setup(tree1, tree2, rng)[0], "main", c)


def _main_loop(state: IterationState, c: int) -> ConstructionOutcome:
    # The main chain on ``state``, which it shrinks; every outcome is a
    # subset of the core.  Uncertified.
    if c < 2:  # the claimed bound divides by log2(c)
        raise TreeError(f"shrink-fraction constant C must be at least 2, got {c}")
    n = state.n_param
    singles = 0
    blocks = 0
    while state.size() ** 4 >= n:
        decomp = path_decomposition(state)
        pair = find_good_pair_structural(state, decomp, c)
        if pair is not None:
            _peel(state, [decomp.order[pair.pivot - 1]], pair.survivors)
            singles += 1
            continue
        split = strong_split(state, decomp, c)
        if split is None:
            break
        if isinstance(split, ConstructionOutcome):
            return split
        nested = _nested_weak(state, split.nucleus)
        if nested.kind == UNROOTED_CATERPILLAR:
            return nested
        _peel(state, nested.agreement_set, split.survivors)
        blocks += 1
    branch = f"block-chain(singles={singles} blocks={blocks})"
    if state.size() > ROOTED_DP_CAP:
        # Too big for the exact table (only a degenerate window leaves
        # such a core): a weak chain closes it instead.
        nested = _nested_weak(state, Piece(1, state.size()))
        if nested.kind == UNROOTED_CATERPILLAR:
            return nested
        last = nested.agreement_set
        branch += ";degenerate-weak"
    else:
        last = rooted_agreement_leaves(state.tree1.restrict(state.taxa),
                                       state.tree2.restrict(state.taxa))
        if state.size() ** 4 >= n:  # only a degenerate window leaves early
            branch += ";degenerate-exact"
        elif len(last) < state.size():
            branch += ";final-exact"
    return ConstructionOutcome(
        frozenset(state.agreed).union(last), BLOCK_TREE, branch,
        math.log2(n) / (4 * math.log2(c)))


def _nested_weak(state: IterationState, run: Piece) -> ConstructionOutcome:
    # A weak chain on the frame run ``run`` of the core, sized by it alone:
    # a narrowed copy of the state, on the same trees and in the same frame,
    # which its first step keeps on a tie.  Uncertified.
    nested = replace(state, agreed=[], n_param=run.size() ** 2)
    _peel(nested, (), run)
    nested.step = 1
    out = _weak_loop(nested, 4)
    return replace(out, branch="nested:" + out.branch)


def verify_outcome(tree1: Tree, tree2: Tree, outcome) -> bool:
    """Certify an agreement result against two trees the caller holds.

    ``outcome`` is a :class:`ConstructionOutcome` or an exact
    :class:`~mastkit.exact.MastResult`; only its ``agreement_set`` and
    ``kind`` are read, never trees.  Both trees are restricted to the set
    and the restrictions tested for isomorphism, and for caterpillar
    kinds for their shape.  The trees may be the unrooted originals or
    the core pair :func:`setup` derived from them.
    Against unrooted trees, a rooted kind is checked with each tree rooted
    at the pendant edge of its smallest taxon, the rooting :func:`setup`
    uses.  An empty set, an unknown kind, or a taxon either tree lacks
    fails.
    """
    if isinstance(tree1, RootedTree) != isinstance(tree2, RootedTree):
        raise TypeError("verification needs two trees of the same rootedness")
    a = frozenset(outcome.agreement_set)
    kind = outcome.kind
    if kind not in _KINDS or not a or not (a <= tree1.taxa and a <= tree2.taxa):
        return False
    if len(a) == 1:
        return True  # agrees in every kind, and has no edge to root at
    if kind in _ROOTED_KINDS and isinstance(tree1, UnrootedTree):
        # Isomorphism and shape ignore child order, so none is ranked.
        _pair_sorted_taxa(tree1, tree2)
        r1, r2 = [rooted_restriction(t, canonical_root_edge(t), a)
                  for t in (tree1, tree2)]
    else:
        r1, r2 = tree1.restrict(a), tree2.restrict(a)
    if kind == UNROOTED_CATERPILLAR and isinstance(r1, RootedTree):
        r1, r2 = deroot(r1), deroot(r2)
    if not isomorphic(r1, r2):
        return False
    return kind in (BLOCK_TREE, EXACT) or is_caterpillar(r1)


def certified(tree1: Tree, tree2: Tree, outcome):
    """Return ``outcome`` if :func:`verify_outcome` accepts it on the
    trees, else raise :class:`CertificationError`."""
    if not verify_outcome(tree1, tree2, outcome):
        raise CertificationError(
            f"{outcome.kind} agreement of {len(outcome.agreement_set)} taxa"
            " failed certification")
    return outcome
