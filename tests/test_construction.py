"""Construction pipeline checks, bottom-up: alignment, decomposition,
pair finding, greedy sweeps, splits, then the two full algorithms.

Frozen values were derived by hand on small instances; every larger
assertion leans on the library's own re-verification plus the exact
solver as an independent oracle.
"""

import bisect
import collections
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mastkit import (
    BLOCK_TREE,
    CertificationError,
    ROOTED_CATERPILLAR,
    TaxaMismatch,
    TreeError,
    UNROOTED_CATERPILLAR,
    canonical_root_edge,
    deroot,
    isomorphic,
    parse_newick,
    root_at_edge,
    unrooted_mast,
    verify_outcome,
)
from mastkit.construction import (
    ConstructionOutcome,
    GoodPair,
    IncomparableSplit,
    IterationState,
    PathDecomposition,
    Piece,
    certified,
    check_good_pair,
    common_monotone_subsequence,
    construct,
    find_good_pair_big_subtree,
    find_good_pair_structural,
    greedy_caterpillar,
    main_construct,
    path_decomposition,
    setup,
    strong_split,
    weak_construct,
    _check_split,
    _nested_weak,
    _peel,
)
from mastkit import construction, trees
from mastkit.exact import EXACT, ROOTED_DP_CAP, rooted_agreement_leaves
from mastkit.generators import GenSpec, adversarial_pair, generate
from mastkit.rng import SplitMix64, mix64
from mastkit.trees import is_caterpillar, label_key

from conftest import (
    block_comb_pair,
    leaves_under,
    left_comb,
    left_deep,
    mirror,
    right_comb,
    right_deep,
    rooted,
    unrooted,
)


def whole_state(one, two, n_param):
    """State whose core is every leaf of two trees sharing one leaf order."""
    return IterationState(0, len(one) - 1, one, two, [], n_param)


def make_state(parts1, parts2, n_param):
    """State from comb-assembled rooted trees sharing one leaf order."""
    one = rooted(left_comb(parts1) + ";")
    two = rooted(right_comb(parts2) + ";")
    assert one.seq() == two.seq()
    return whole_state(one, two, n_param)


def identical_state(n, n_param=None):
    labels = [str(i) for i in range(1, n + 1)]
    tree = rooted(left_deep(labels) + ";")
    return whole_state(tree, tree, n_param if n_param else n)


def run_labels(order, run):
    """The taxa of a run of positions in ``order``."""
    return frozenset(order[run.lo - 1:run.hi])


def pair_labels(order, pair):
    return order[pair.pivot - 1], run_labels(order, pair.survivors), pair.tier


# -- alignment ----------------------------------------------------------------


def test_monotone_subsequence_frozen_examples():
    assert common_monotone_subsequence(
        ("4", "3", "1", "2", "5"), ("1", "2", "3", "4", "5")) == \
        (("1", "2", "5"), "increasing")
    assert common_monotone_subsequence(
        ("1", "2", "3"), ("3", "2", "1")) == (("1", "2", "3"), "decreasing")


def test_monotone_subsequence_prefers_increasing_on_ties():
    assert common_monotone_subsequence(
        ("a", "b", "c", "d"), ("b", "a", "d", "c")) == (("b", "d"), "increasing")


def test_monotone_subsequence_rejects_different_labels():
    with pytest.raises(TaxaMismatch):
        common_monotone_subsequence(("1", "2"), ("1", "3"))


@pytest.mark.parametrize("a, b", [(("a", "a"), ("a", "a")),
                                  (("1", "1", "2"), ("1", "2", "2"))])
def test_monotone_subsequence_rejects_repeated_labels(a, b, monkeypatch):
    def no_work(values):
        raise AssertionError("aligned before checking its input")

    monkeypatch.setattr(construction, "_longest_increasing", no_work)
    with pytest.raises(TaxaMismatch, match="distinct"):
        common_monotone_subsequence(a, b)


def preallocated_longest_increasing(values):
    """The patience loop as it stood before it appended ``prev``."""
    tails, tails_idx = [], []
    prev = [-1] * len(values)
    for i, v in enumerate(values):
        j = bisect.bisect_left(tails, v)
        if j == len(tails):
            tails.append(v)
            tails_idx.append(i)
        else:
            tails[j] = v
            tails_idx[j] = i
        prev[i] = tails_idx[j - 1] if j else -1
    out = []
    i = tails_idx[-1] if tails_idx else -1
    while i != -1:
        out.append(i)
        i = prev[i]
    out.reverse()
    return out


# Two permutations whose longest increasing and decreasing runs tie.
@example(perm=[1, 0, 3, 2])
@example(perm=[2, 5, 0, 3, 1, 4])
@settings(max_examples=200, deadline=None)
@given(perm=st.integers(0, 40).flatmap(
    lambda n: st.permutations(list(range(n)))))
def test_longest_increasing_matches_the_preallocated_loop(perm):
    neg = [-v for v in perm]
    inc = construction._longest_increasing(perm)
    dec = construction._longest_increasing(neg)
    assert inc == preallocated_longest_increasing(perm)
    assert dec == preallocated_longest_increasing(neg)
    # A tie goes to the increasing run.
    labels = [str(v) for v in range(len(perm))]
    sub, kind = common_monotone_subsequence([labels[v] for v in perm], labels)
    picked = inc if len(inc) >= len(dec) else dec
    assert sub == tuple(labels[perm[i]] for i in picked)
    assert kind == ("increasing" if len(inc) >= len(dec) else "decreasing")


@settings(max_examples=60, deadline=None)
@given(perm=st.permutations(list("abcdefghijklm")))
def test_monotone_subsequence_meets_the_square_root_floor(perm):
    base = tuple(sorted(perm))
    sub, kind = common_monotone_subsequence(tuple(perm), base)
    assert kind in ("increasing", "decreasing")
    n = len(base)
    assert len(sub) * len(sub) >= n
    # It is a subsequence of the first order...
    it = iter(perm)
    assert all(lab in it for lab in sub)
    # ...and of the second, read forwards or backwards.
    ref = base if kind == "increasing" else tuple(reversed(base))
    it = iter(ref)
    assert all(lab in it for lab in sub)


def test_setup_aligns_and_cuts_to_the_common_core():
    one = unrooted("(1,(2,(3,(4,5))),6);")
    state, order1, order2 = setup(one, one)
    assert set(state.taxa) == one.taxa
    assert state.tree1.seq() == state.tree2.seq() == order1
    assert state.n_param == 6


def test_setup_mirrors_the_second_tree_on_decreasing_alignment():
    one = unrooted("(1,(2,(3,(5,6))),4);")
    two = unrooted("(1,(2,((4,6),5)),3);")
    state, order1, order2 = setup(one, two)
    assert order1 == ("1", "2", "3", "5", "6", "4")
    # The canonical rooting of the second tree reads 1,2,4,6,5,3; the
    # aligned core is decreasing there, so setup hands back its mirror.
    assert order2 == ("3", "5", "6", "4", "2", "1")
    assert state.taxa == ("3", "5", "6", "4")
    assert state.tree1.seq() == state.tree2.seq() == ("3", "5", "6", "4")


def test_setup_rejects_tiny_or_mismatched_inputs():
    with pytest.raises(TreeError):
        setup(unrooted("(1,2,3);"), unrooted("(1,2,3);"))
    with pytest.raises(TaxaMismatch):
        setup(unrooted("(1,2,(3,4));"), unrooted("(1,2,(3,5));"))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=40), seed=st.integers(0, 2**32))
def test_setup_invariants_hold_on_random_pairs(n, seed):
    a = generate(GenSpec("uniform", n, seed))
    b = generate(GenSpec("uniform", n, seed ^ 0xDEADBEEF))
    state, order1, _ = setup(a, b)
    assert state.tree1.seq() == state.tree2.seq()
    # The tracer's core fraction reads the core size as len(state.taxa).
    assert len(state.taxa) == state.size() == len(state.tree1)
    assert len(state.taxa) ** 2 >= n
    assert set(state.taxa) <= a.taxa
    pos = {lab: i for i, lab in enumerate(order1)}
    order = [pos[lab] for lab in state.tree1.seq()]
    assert order == sorted(order)


def test_setup_calls_no_label_key(monkeypatch):
    """Taxa are ranked by whole-list sorts, never by a per-label key call."""
    calls = []
    key = trees.label_key

    def counting_key(label):
        calls.append(label)
        return key(label)

    monkeypatch.setattr(trees, "label_key", counting_key)
    one = generate(GenSpec("uniform", 1024, 1))
    two = generate(GenSpec("uniform", 1024, 2))
    setup(one, two)
    assert calls == []
    trees.label_key("1")  # the patch is in place
    assert calls == ["1"]


def test_a_pair_that_shares_its_taxa_sorts_them_once(monkeypatch):
    calls = []
    sort = trees.sorted_labels

    def counting_sort(labels):
        calls.append(1)
        return sort(labels)

    monkeypatch.setattr(trees, "sorted_labels", counting_sort)
    one = generate(GenSpec("uniform", 1024, 1))
    two = generate(GenSpec("uniform", 1024, 2))
    setup(one, two)
    assert len(calls) == 1
    assert two.sorted_taxa() == tuple(sort(two.taxa))

    calls.clear()
    one = generate(GenSpec("uniform", 128, 3))
    two = generate(GenSpec("uniform", 128, 4))
    unrooted_mast(one, two)
    assert len(calls) == 1
    assert two.sorted_taxa() == tuple(sort(two.taxa))

    # A rooted kind against unrooted trees roots both at their smallest
    # taxon.
    calls.clear()
    one = generate(GenSpec("uniform", 256, 5))
    two = generate(GenSpec("uniform", 256, 6))
    verify_outcome(one, two, claim(sort(one.taxa)[:3], BLOCK_TREE))
    assert len(calls) == 1
    assert two.sorted_taxa() == tuple(sort(two.taxa))


@pytest.mark.parametrize("orient", [False, True])
def test_shared_label_order_gives_the_same_setup(orient):
    """Labels that meet every tie rule of label_key: spellings of one
    number, a non-ASCII digit and a non-decimal label."""
    texts = ("(7,07,(007,(x,٣)));", "(x,(7,٣),(07,007));")
    seed = 5

    def run(own_sort):
        one, two = (unrooted(text) for text in texts)
        if own_sort:
            one.sorted_taxa(), two.sorted_taxa()
        state, order1, order2 = setup(one, two,
                                      SplitMix64(seed) if orient else None)
        assert (two.sorted_taxa() is one.sorted_taxa()) != own_sort
        assert two.sorted_taxa() == tuple(trees.sorted_labels(two.taxa))
        return (arrays(state.tree1), arrays(state.tree2), state.lo, state.hi,
                state.n_param, order1, order2)

    assert run(own_sort=False) == run(own_sort=True)


def full_rooting_setup(one, two, rng=None):
    """setup as it ran before it built only the core pair: both full
    rootings, the alignment on their leaf orders, the second mirrored on a
    decreasing alignment, then both restricted to the core.  Returns the
    core pair, the full rooted pair and the direction."""
    rooted1 = root_at_edge(one, canonical_root_edge(one), rng)
    rooted2 = root_at_edge(two, canonical_root_edge(two), rng)
    common, direction = common_monotone_subsequence(rooted1.seq(),
                                                    rooted2.seq())
    if direction == "decreasing":
        rooted2 = mirror(rooted2)
    keep = frozenset(common)
    return (rooted1.restrict(keep), rooted2.restrict(keep), rooted1, rooted2,
            direction)


def setup_pair(model, size, seed):
    """An adversarial pair, or the models named ``first-second`` (one
    model names both trees); a balanced tree takes the power of two at
    or below ``size``."""
    if model == "adversarial":
        return adversarial_pair(1 << (size.bit_length() - 1))
    first, _, second = model.partition("-")
    if "balanced" in model:
        size = 1 << (size.bit_length() - 1)
    return (generate(GenSpec(first, size, seed)),
            generate(GenSpec(second or first, size, seed ^ 0x5E7)))


def arrays(tree):
    return tree.left, tree.right, tree.labels


# Uniform pairs aligned in each direction, with and without coin flips,
# and one large pair with each orientation.
@example(model="uniform", size=40, seed=1, orient=False)   # increasing
@example(model="uniform", size=40, seed=11, orient=False)  # decreasing
@example(model="uniform", size=40, seed=1, orient=True)    # increasing
@example(model="uniform", size=40, seed=6, orient=True)    # decreasing
@example(model="uniform", size=2048, seed=7, orient=False)
@example(model="uniform", size=2048, seed=7, orient=True)
@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["uniform", "adversarial", "caterpillar-uniform",
                              "uniform-caterpillar", "balanced-uniform"]),
       size=st.integers(4, 300), seed=st.integers(0, 2**32),
       orient=st.booleans())
def test_setup_matches_the_full_rooting_route(model, size, seed, orient):
    a, b = setup_pair(model, size, seed)
    rng = (lambda: SplitMix64(seed)) if orient else (lambda: None)
    core1, core2, rooted1, rooted2, _ = full_rooting_setup(a, b, rng())
    state, order1, order2 = setup(a, b, rng())
    assert arrays(state.tree1) == arrays(core1)
    assert arrays(state.tree2) == arrays(core2)
    assert state == IterationState(0, len(core1) - 1, state.tree1,
                                   state.tree2, [], len(a))
    assert (order1, order2) == (rooted1.seq(), rooted2.seq())


def test_setup_route_examples_take_both_directions():
    seen = set()
    for seed, orient in ((1, False), (11, False), (1, True), (6, True)):
        a, b = setup_pair("uniform", 40, seed)
        rng = SplitMix64(seed) if orient else None
        seen.add((orient, full_rooting_setup(a, b, rng)[-1]))
    assert len(seen) == 4


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["uniform", "adversarial"]),
       size=st.integers(4, 200), seed=st.integers(0, 2**32),
       orient=st.booleans(), data=st.data())
def test_core_pair_certifies_as_the_full_rooted_pair(model, size, seed,
                                                     orient, data):
    """Every outcome is a subset of the core, and on such sets the core
    pair accepts and rejects exactly what the full rooted pair does."""
    a, b = setup_pair(model, size, seed)
    rng = (lambda: SplitMix64(seed)) if orient else (lambda: None)
    _, _, rooted1, rooted2, _ = full_rooting_setup(a, b, rng())
    state, _, _ = setup(a, b, rng())
    order = state.tree1.seq()
    built = main_construct(a, b, 40, rng()).agreement_set
    assert built <= set(order)
    forged = built | {data.draw(st.sampled_from(order))}
    drawn = data.draw(st.sets(st.sampled_from(order), min_size=1))
    for leaves in (built, forged, frozenset(order), drawn):
        for kind in (BLOCK_TREE, ROOTED_CATERPILLAR, UNROOTED_CATERPILLAR,
                     EXACT):
            outcome = claim(leaves, kind)
            assert verify_outcome(state.tree1, state.tree2, outcome) == \
                verify_outcome(rooted1, rooted2, outcome)


def test_setup_builds_only_the_core_pair(monkeypatch):
    """No full-size rooted tree: no rooting, and no built tree larger
    than the core."""
    built = []
    build = trees.rooted_from_arrays

    def counting_build(*args, **kwargs):
        tree = build(*args, **kwargs)
        built.append(len(tree))
        return tree

    def no_rooting(*args, **kwargs):
        raise AssertionError("setup rooted a full tree")

    for module in (trees, construction):
        monkeypatch.setattr(module, "rooted_from_arrays", counting_build)
        monkeypatch.setattr(module, "root_at_edge", no_rooting, raising=False)
    one = generate(GenSpec("uniform", 1024, 1))
    two = generate(GenSpec("uniform", 1024, 2))
    for rng in (None, SplitMix64(3)):
        built.clear()
        state, order1, order2 = setup(one, two, rng)
        assert built == [state.size(), state.size()]
        assert len(order1) == len(order2) == 1024


# -- path decomposition -------------------------------------------------------


def test_path_decomposition_frozen_five_leaf_example():
    tree = rooted("(4,(3,(1,(2,5))));")
    state = whole_state(tree, tree, 5)
    decomp = path_decomposition(state)
    # The left root subtree held one leaf of five, so the state mirrored.
    assert state.flipped
    assert decomp.order == state.taxa == ("5", "2", "1", "3", "4")
    assert [(p.lo, p.hi) for p in decomp.first] == \
        [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
    assert [(p.lo, p.hi) for p in decomp.second] == [(1, 4), (5, 5)]
    assert decomp.order[:4] == ("5", "2", "1", "3")


def test_path_decomposition_normalizes_towards_a_heavy_left():
    tree = rooted("(1,((2,3),(4,5)));")
    state = whole_state(tree, tree, 5)
    decomp = path_decomposition(state)
    assert state.flipped
    assert decomp.order == ("5", "4", "3", "2", "1")
    assert decomp.first[-1].size() <= len(decomp.order) // 2
    # The trees stay as given; a second call keeps the frame.
    assert state.tree1 is tree and state.tree2 is tree
    assert path_decomposition(state) == decomp and state.flipped


def test_path_decomposition_needs_a_run_of_a_common_order():
    tree = rooted("(4,(3,(1,(2,5))));")
    for lo, hi in ((3, 5), (-1, 2), (3, 2)):
        with pytest.raises(TreeError):
            path_decomposition(IterationState(lo, hi, tree, tree, [], 5))
    # A state refuses trees with two orders, and the decomposition
    # checks again after a tree is swapped.
    other = rooted("(3,(4,(1,(2,5))));")
    with pytest.raises(TreeError, match="one order"):
        whole_state(tree, other, 5)
    state = whole_state(tree, tree, 5)
    state.tree2 = other
    with pytest.raises(TreeError, match="common leaf order"):
        path_decomposition(state)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=4, max_value=48), seed=st.integers(0, 2**32))
def test_path_decomposition_tiles_the_order(n, seed):
    a = generate(GenSpec("uniform", n, seed))
    b = generate(GenSpec("uniform", n, seed + 13))
    state, _, _ = setup(a, b)
    decomp = path_decomposition(state)
    total = len(decomp.order)
    for pieces, tree in ((decomp.first, state.tree1),
                         (decomp.second, state.tree2)):
        spans = [(p.lo, p.hi) for p in pieces]
        assert spans[0][0] == 1 and spans[-1][1] == total
        assert all(b_lo == a_hi + 1 for (_, a_hi), (b_lo, _) in
                   zip(spans, spans[1:]))
        for piece in pieces:
            # Every piece is the leaf set of one subtree.
            span = decomp.order[piece.lo - 1:piece.hi]
            assert set(leaves_under(tree, tree.lca(span))) == set(span)
    # Normalization: tree1's right root subtree is the smaller half.
    assert decomp.first[-1].size() <= total // 2


# -- good pairs ---------------------------------------------------------------


def test_structural_pair_frozen_on_identical_caterpillars():
    state = identical_state(4)
    decomp = path_decomposition(state)
    pair = find_good_pair_structural(state, decomp, 4)
    assert pair == GoodPair(4, Piece(1, 3), "large")
    assert pair_labels(decomp.order, pair) == \
        ("4", frozenset({"1", "2", "3"}), "large")


def test_structural_pair_absent_when_all_pieces_are_small():
    labels = [str(i) for i in range(1, 9)]
    state = make_state(labels, labels, 8)
    assert find_good_pair_structural(state, path_decomposition(state), 4) is None


def test_check_good_pair_rejects_each_broken_promise():
    # One caterpillar, so position p holds taxon p in the unflipped frame.
    state = identical_state(8)
    assert state.taxa == tuple(str(i) for i in range(1, 9))
    check_good_pair(state, GoodPair(8, Piece(1, 7), "large"), 4)
    cases = [
        (GoodPair(1, Piece(2, 3), "large"), "strict ancestor"),
        (GoodPair(8, Piece(7, 7), "large"), "size floor"),
        (GoodPair(8, Piece(7, 7), "regular"), "size floor"),
        (GoodPair(3, Piece(3, 6), "large"), "survive itself"),
        (GoodPair(5, Piece(3, 6), "large"), "survive itself"),
        (GoodPair(9, Piece(1, 2), "large"), "pivot in the core"),
        (GoodPair(8, Piece(4, 3), "large"), "non-empty run"),
        (GoodPair(1, Piece(2, 9), "large"), "non-empty run"),
        (GoodPair(8, Piece(1, 3), "mystery"), "tier"),
    ]
    for pair, reason in cases:
        with pytest.raises(TreeError, match=reason):
            check_good_pair(state, pair, 4)
    # Read mirrored, position 8 is taxon 1, the caterpillar's deepest leaf.
    state.flipped = True
    with pytest.raises(TreeError, match="strict ancestor"):
        check_good_pair(state, GoodPair(8, Piece(1, 7), "large"), 4)


def test_check_split_rejects_each_broken_promise():
    # Twenty blocks of ten on two combs; the frame reads taxa 1..200.
    labels = [str(i) for i in range(1, 201)]
    parts = [left_deep(b) for b in blocks_of(labels, 10)]
    state = make_state(parts, parts, 200)
    assert state.taxa == tuple(labels)
    _check_split(state, IncomparableSplit(Piece(11, 20), Piece(81, 90)))
    cases = [
        (IncomparableSplit(Piece(11, 20), Piece(15, 90)), "overlap"),
        (IncomparableSplit(Piece(21, 20), Piece(81, 90)), "non-empty"),
        (IncomparableSplit(Piece(11, 20), Piece(91, 90)), "non-empty"),
        (IncomparableSplit(Piece(11, 11), Piece(81, 90)), "nucleus below"),
        (IncomparableSplit(Piece(11, 20), Piece(81, 81)), "survivors below"),
        (IncomparableSplit(Piece(11, 20), Piece(20, 90)), "overlap"),
        (IncomparableSplit(Piece(11, 15), Piece(16, 30)), "comparable"),
        (IncomparableSplit(Piece(195, 201), Piece(81, 90)), "inside the core"),
        (IncomparableSplit(Piece(11, 20), Piece(0, 9)), "inside the core"),
    ]
    for split, reason in cases:
        with pytest.raises(TreeError, match=reason):
            _check_split(state, split)


def test_check_split_keeps_to_the_core():
    # Both runs lie in the tree, and their ancestors are incomparable, but
    # the nucleus (taxa 35..40) lies past a core of taxa 1..30.
    labels = [str(i) for i in range(1, 41)]
    parts = [left_deep(b) for b in blocks_of(labels[:30], 5)] \
        + [left_deep(labels[30:34]), left_deep(labels[34:])]
    state = make_state(parts, parts, 40)
    split = IncomparableSplit(Piece(35, 40), Piece(1, 5))
    _check_split(state, split)
    state.hi = 29
    with pytest.raises(TreeError, match="inside the core"):
        _check_split(state, split)


def test_regular_pair_frozen_on_singleton_pieces():
    labels = [str(i) for i in range(1, 9)]
    one = rooted(left_deep(labels) + ";")
    two = rooted(right_deep(labels) + ";")
    state = whole_state(one, two, 256)
    decomp = path_decomposition(state)
    pair = find_good_pair_big_subtree(state, decomp)
    assert pair_labels(decomp.order, pair) == ("8", frozenset({"1"}), "regular")


def test_regular_pair_returns_none_below_its_floor():
    labels = [str(i) for i in range(1, 9)]
    one = rooted(left_deep(labels) + ";")
    two = rooted(right_deep(labels) + ";")
    state = whole_state(one, two, 8)
    assert find_good_pair_big_subtree(state, path_decomposition(state)) is None


def test_regular_pair_refuses_a_one_taxon_core():
    state = identical_state(8)
    state.lo = state.hi = 3
    with pytest.raises(TreeError, match="at least two taxa to form a pair"):
        find_good_pair_big_subtree(state, path_decomposition(state))


def rule_case(name, t1, t2, n_param, c, pivot, survivors, tier):
    return pytest.param(t1, t2, n_param, c, (pivot, survivors, tier), id=name)


_L = [str(i) for i in range(1, 51)]

# One state per branch of the two pair finders (C is None for the
# big-subtree finder), with the pair recorded before the finders shared
# their cut rule.  Seeded states are cores met by weak_construct on
# uniform pairs; no seeded instance up to n = 2048 reaches the two comb
# states, which cover the structural top-piece prefix fallback and the
# big-subtree suffix on a later second piece (a tie, which goes to the
# suffix).
PAIR_RULES = [
    rule_case("structural-first-inner-prefix", "((3,(4,2)),1);",
              "((3,(4,2)),1);", 4, 40, "1", ["2", "4"], "large"),
    rule_case("structural-first-inner-suffix", "((4,(5,3)),2);",
              "(4,(5,(3,2)));", 7, 40, "4", ["3", "5"], "large"),
    rule_case("structural-first-top-suffix", "((8,7),(3,2));",
              "((8,(7,3)),2);", 8, 40, "8", ["2"], "large"),
    rule_case("structural-first-top-prefix",
              left_comb(_L[:47] + [left_deep(_L[47:])]) + ";",
              right_comb([left_deep(_L[:49]), "50"]) + ";", 50, 40,
              "50", _L[:47], "large"),
    rule_case("structural-second-0", "((4,2),1);", "((4,2),1);", 4, 4,
              "1", ["2", "4"], "large"),
    rule_case("structural-second-later-prefix", "((((2,4),7),9),15);",
              "(2,((4,(7,9)),15));", 24, 4, "15", ["4", "7", "9"], "large"),
    rule_case("structural-second-later-suffix",
              "((((2,3),34),(((((8,21),30),(49,86)),13),72)),"
              "(((59,20),55),(90,56)));",
              "(2,((((3,34),((((((8,((21,30),49)),86),13),72),59),(20,55))),"
              "90),56));", 96, 4, "2", ["20", "55", "59", "90"], "large"),
    rule_case("big-first-inner-prefix", "(4,2);", "(4,2);", 4, None,
              "2", ["4"], "regular"),
    rule_case("big-first-inner-suffix", "((4,(6,3)),2);",
              "(4,((6,3),2));", 6, None, "4", ["3", "6"], "regular"),
    rule_case("big-first-top", "((5,3),(6,2));", "(5,(3,(6,2)));", 6, None,
              "5", ["2", "6"], "regular"),
    rule_case("big-second-0", "(((7,4),5),2);", "((7,4),(5,2));", 8, None,
              "2", ["4", "7"], "regular"),
    rule_case("big-second-later-prefix", "(((2,3),7),5);",
              "(2,((3,7),5));", 7, None, "5", ["3", "7"], "regular"),
    rule_case("big-second-later-suffix",
              left_comb(_L[:13] + [left_deep(_L[13:16])]) + ";",
              right_comb(_L[:11] + [left_deep(_L[11:15]), "16"]) + ";", 16,
              None, "1", ["14", "15"], "regular"),
]


@pytest.mark.parametrize("t1,t2,n_param,c,expected", PAIR_RULES)
def test_pair_rules_are_frozen(t1, t2, n_param, c, expected):
    one, two = rooted(t1), rooted(t2)
    state = whole_state(one, two, n_param)
    decomp = path_decomposition(state)
    if c is None:
        pair = find_good_pair_big_subtree(state, decomp)
    else:
        pair = find_good_pair_structural(state, decomp, c)
    pivot, survivors, tier = pair_labels(decomp.order, pair)
    assert (pivot, sorted(survivors, key=label_key), tier) == expected


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=4, max_value=48), seed=st.integers(0, 2**32))
def test_structural_pairs_self_verify_on_random_states(n, seed):
    a = generate(GenSpec("uniform", n, seed))
    b = generate(GenSpec("uniform", n, seed + 3))
    state, _, _ = setup(a, b)
    decomp = path_decomposition(state)
    pair = find_good_pair_structural(state, decomp, 4)
    if pair is None:
        threshold = max(2 * len(decomp.order) / 4, 1)
        assert all(p.size() <= threshold
                   for p in decomp.first + decomp.second)
    else:
        # find_good_pair_structural already ran check_good_pair; assert
        # the survivor floor once more from outside.
        assert pair.survivors.size() * 4 >= len(state.taxa)


# -- greedy sweep -------------------------------------------------------------


def synthetic_decomposition():
    order = tuple(str(i) for i in range(1, 9))
    def pieces(spans):
        return tuple(Piece(lo, hi) for lo, hi in spans)
    return PathDecomposition(
        pieces([(1, 2), (3, 4), (5, 6), (7, 8)]),
        pieces([(1, 1), (2, 3), (4, 5), (6, 8)]), order)


def test_greedy_sweep_frozen_picks():
    decomp = synthetic_decomposition()
    assert greedy_caterpillar(decomp) == ("1", "3", "5", "7")
    assert greedy_caterpillar(decomp, 3, 6) == ("3", "5")


def test_greedy_sweep_rejects_bad_windows():
    decomp = synthetic_decomposition()
    with pytest.raises(TreeError):
        greedy_caterpillar(decomp, 0, 8)
    with pytest.raises(TreeError):
        greedy_caterpillar(decomp, 5, 9)
    with pytest.raises(TreeError):
        greedy_caterpillar(decomp, 6, 5)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=4, max_value=64), seed=st.integers(0, 2**32))
def test_greedy_picks_agree_as_unrooted_caterpillars(n, seed):
    # Shuffled spine order, then opposite nesting directions: every piece
    # is a single leaf, so the sweep must take everything and the two
    # restrictions must be caterpillars with one common spine order.
    gen = SplitMix64(seed)
    labels = [str(i) for i in range(1, n + 1)]
    gen.shuffle(labels)
    one = rooted(left_deep(labels) + ";")
    two = rooted(right_deep(labels) + ";")
    state = whole_state(one, two, n)
    decomp = path_decomposition(state)
    picks = greedy_caterpillar(decomp)
    assert len(picks) == n
    keep = frozenset(picks)
    r1 = deroot(state.tree1.restrict(keep))
    r2 = deroot(state.tree2.restrict(keep))
    assert is_caterpillar(r1) and isomorphic(r1, r2)


def test_finders_cover_all_three_weak_steps():
    # The weak loop's three moves: a large pair, else a regular pair, else
    # (both finders empty) a full greedy sweep.
    state = identical_state(8)
    pair = find_good_pair_structural(state, path_decomposition(state), 4)
    assert pair.tier == "large"
    labels = [str(i) for i in range(1, 9)]
    one = rooted(left_deep(labels) + ";")
    two = rooted(right_deep(labels) + ";")
    state = whole_state(one, two, 256)
    decomp = path_decomposition(state)
    assert find_good_pair_structural(state, decomp, 4) is None
    assert find_good_pair_big_subtree(state, decomp).tier == "regular"
    state = whole_state(one, two, 8)
    decomp = path_decomposition(state)
    assert find_good_pair_structural(state, decomp, 4) is None
    assert find_good_pair_big_subtree(state, decomp) is None
    assert len(greedy_caterpillar(decomp)) == 8


# -- weak construction --------------------------------------------------------


def test_weak_pair_chain_on_identical_caterpillars():
    tree = rooted(left_deep([str(i) for i in range(1, 9)]) + ";")
    out = construct(whole_state(tree, tree, 8), "weak")
    assert out.kind == ROOTED_CATERPILLAR
    assert out.branch == "pair-chain(large=6 regular=1)"
    assert out.agreement_set == tree.taxa
    assert out.claimed_bound == pytest.approx(0.5 * 3 / math.log2(6) + 1)


def test_weak_greedy_exit_on_opposed_caterpillars():
    labels = [str(i) for i in range(1, 9)]
    one = rooted(left_deep(labels) + ";")
    two = rooted(right_deep(labels) + ";")
    out = construct(whole_state(one, two, 8), "weak")
    assert out.kind == UNROOTED_CATERPILLAR
    assert out.branch == "greedy-caterpillar(step=1)"
    assert out.agreement_set == one.taxa
    assert out.claimed_bound == pytest.approx(3.0)


def test_weak_loop_sees_every_iteration():
    # weak_construct's loop, driven by hand: the core size and branch of
    # every pair step.
    tree = rooted(left_deep([str(i) for i in range(1, 9)]) + ";")
    state = whole_state(tree, tree, 8)
    seen = []
    while state.size() > 1:
        decomp = path_decomposition(state)
        pair = (find_good_pair_structural(state, decomp, 4)
                or find_good_pair_big_subtree(state, decomp))
        seen.append((len(state.taxa), pair.tier))
        _peel(state, [decomp.order[pair.pivot - 1]], pair.survivors)
    assert seen == [(8, "large"), (7, "large"), (6, "large"), (5, "large"),
                    (4, "large"), (3, "large"), (2, "regular")]
    assert construct(whole_state(tree, tree, 8), "weak").agreement_set == \
        frozenset(state.agreed).union(state.taxa)


def test_weak_rejects_bad_inputs():
    # Each case reaches its own rule: the state's size and leaf-order
    # rules, then setup's taxa and size rules behind weak_construct.
    tree = rooted("((1,2),3);")
    with pytest.raises(TreeError, match="size parameter must be at least 4"):
        whole_state(tree, tree, 3)
    with pytest.raises(TreeError, match="list their leaves in one order"):
        whole_state(tree, rooted("((1,3),2);"), 8)
    with pytest.raises(TaxaMismatch):
        weak_construct(unrooted("(1,2,(3,4));"), unrooted("(1,2,(3,5));"))
    with pytest.raises(TreeError, match="at least 4 taxa"):
        weak_construct(unrooted("(1,2,3);"), unrooted("(1,2,3);"))


@pytest.mark.parametrize("n_param", [-5, 0, 1, 2, 3])
def test_state_refuses_a_size_parameter_below_4(n_param):
    # Before the leaf-order check, so a state that breaks both names size.
    t = rooted(left_deep([str(i) for i in range(1, 9)]) + ";")
    other = rooted(right_deep([str(i) for i in range(8, 0, -1)]) + ";")
    for two in (t, other):
        with pytest.raises(TreeError) as err:
            IterationState(0, 7, t, two, [], n_param)
        assert str(err.value) == "size parameter must be at least 4"
    assert IterationState(0, 7, t, t, [], 4).n_param == 4


def test_construct_owns_the_shrink_constant():
    # None and 0 give the default; below the floor fails in either
    # public construction with the same message.
    a = generate(GenSpec("uniform", 64, 1))
    b = generate(GenSpec("uniform", 64, 2))
    state, _, _ = setup(a, b)
    for algorithm, default, floor in (("weak", 4, 4), ("main", 40, 2)):
        out = construct(state, algorithm, default)
        assert construct(state, algorithm) == out
        assert construct(state, algorithm, 0) == out
        construct(state, algorithm, floor)
        message = f"C must be at least {floor}, got {floor - 1}$"
        with pytest.raises(TreeError, match=message):
            construct(state, algorithm, floor - 1)
    with pytest.raises(TreeError, match="at least 4, got 3$"):
        weak_construct(a, b, 3)
    with pytest.raises(TreeError, match="at least 2, got -1$"):
        main_construct(a, b, -1)


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
@pytest.mark.parametrize("model", ["uniform", "adversarial"])
def test_weak_construct_is_construct_on_setup(model, n):
    if model == "adversarial":
        a, b = adversarial_pair(n)
    else:
        a = generate(GenSpec("uniform", n, mix64(3, 1)))
        b = generate(GenSpec("uniform", n, mix64(3, 2)))
    for c in (None, 0, 4, 8):
        assert weak_construct(a, b, c) == construct(setup(a, b)[0], "weak", c)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([16, 32, 64]), seed=st.integers(0, 2**32))
def test_weak_dichotomy_on_random_pairs(n, seed):
    a = generate(GenSpec("uniform", n, seed))
    b = generate(GenSpec("uniform", n, seed ^ 0xC0FFEE))
    state, _, _ = setup(a, b)
    out = construct(state, "weak")
    assert verify_outcome(a, b, out)
    lg = math.log2(n)
    if out.kind == ROOTED_CATERPILLAR:
        floor = math.ceil(0.5 * lg / math.log2(2 * lg)) + 1
    else:
        floor = math.ceil(lg)
    assert len(out.agreement_set) >= floor


# -- strong split -------------------------------------------------------------


def blocks_of(labels, width):
    return [labels[i:i + width] for i in range(0, len(labels), width)]


def test_strong_split_frozen_incomparable_blocks():
    labels = [str(i) for i in range(1, 201)]
    parts = [left_deep(b) for b in blocks_of(labels, 10)]
    state = make_state(parts, parts, 200)
    decomp = path_decomposition(state)
    split = strong_split(state, decomp, 40)
    assert isinstance(split, IncomparableSplit)
    assert run_labels(decomp.order, split.nucleus) == \
        frozenset(str(i) for i in range(11, 21))
    assert run_labels(decomp.order, split.survivors) == \
        frozenset(str(i) for i in range(81, 91))


def test_strong_split_interval_sweep_when_no_window_anchor():
    labels = [str(i) for i in range(1, 201)]
    state = make_state(labels, labels, 200)
    split = strong_split(state, path_decomposition(state), 40)
    assert isinstance(split, ConstructionOutcome)
    assert split.kind == UNROOTED_CATERPILLAR
    assert split.branch == "interval-sweep(step=1)"
    assert len(split.agreement_set) == 41
    assert verify_outcome(state.tree1, state.tree2, split)


def test_strong_split_side_sweep_when_no_side_landmark():
    labels = [str(i) for i in range(1, 101)]
    parts = labels[:40] + [left_deep(b) for b in blocks_of(labels[40:60], 2)] \
        + labels[60:]
    state = make_state(parts, parts, 100)
    split = strong_split(state, path_decomposition(state), 40)
    assert isinstance(split, ConstructionOutcome)
    assert split.kind == UNROOTED_CATERPILLAR
    assert split.branch == "side-sweep(step=1)"
    assert len(split.agreement_set) == 20
    assert verify_outcome(state.tree1, state.tree2, split)


def test_strong_split_transversal_when_pieces_only_graze():
    labels = [str(i) for i in range(1, 101)]
    window_blocks = [left_deep(b) for b in blocks_of(labels[40:60], 2)]
    parts1 = labels[:16] + [left_deep(labels[16:20])] + labels[20:40] \
        + window_blocks + labels[60:]
    parts2 = labels[:40] + window_blocks + labels[60:]
    state = make_state(parts1, parts2, 100)
    split = strong_split(state, path_decomposition(state), 40)
    assert isinstance(split, ConstructionOutcome)
    assert split.kind == UNROOTED_CATERPILLAR
    assert split.branch == "transversal-exact(step=1 partners=4)"
    # Within the cross-nested four-leaf block the exact rooted answer is
    # an outer pair.
    assert split.agreement_set == frozenset({"17", "20"})
    assert verify_outcome(state.tree1, state.tree2, split)


def test_strong_split_degenerate_windows():
    # The side window is empty.
    state = make_state(["1", "2"], ["1", "2"], 16)
    assert strong_split(state, path_decomposition(state), 40) is None
    # No piece fits the middle window.
    state = make_state(["1", "2", "3"], ["1", "2", "3"], 81)
    assert strong_split(state, path_decomposition(state), 40) is None


def test_strong_split_none_when_window_piece_runs_do_not_meet():
    # With C = 10 a block of 20 may reach into the window 40..60 from
    # either side: tree one's pieces inside it end at 45, tree two's
    # start at 55.
    labels = [str(i) for i in range(1, 101)]
    parts1 = labels[:45] + [left_deep(labels[45:65])] + labels[65:]
    parts2 = labels[:34] + [left_deep(labels[34:54])] + labels[54:]
    state = make_state(parts1, parts2, 100)
    decomp = path_decomposition(state)
    inside = [[p.lo for p in pieces if p.lo >= 40 and p.hi <= 60]
              for pieces in (decomp.first, decomp.second)]
    assert inside == [list(range(40, 46)), list(range(55, 61))]
    assert strong_split(state, decomp, c=10) is None


def test_strong_split_right_side_window_when_the_anchor_is_in_tree_two():
    # Only tree two has blocks in the middle window, so the anchor is
    # found there and the landmark is looked for in the last fifth.
    labels = [str(i) for i in range(1, 201)]
    landmark = [left_deep(labels[170:180])]
    parts1 = labels[:170] + landmark + labels[180:]
    parts2 = labels[:79] + [left_deep(b) for b in blocks_of(labels[79:119], 10)] \
        + labels[119:170] + landmark + labels[180:]
    state = make_state(parts1, parts2, 200)
    decomp = path_decomposition(state)
    split = strong_split(state, decomp, 40)
    assert split == IncomparableSplit(Piece(171, 180), Piece(80, 89))
    assert run_labels(decomp.order, split.nucleus) == \
        frozenset(labels[170:180])
    assert run_labels(decomp.order, split.survivors) == \
        frozenset(labels[79:89])


def test_strong_split_guards_its_preconditions():
    labels = [str(i) for i in range(1, 81)]
    parts = [left_deep(labels[:60])] + labels[60:]
    state = make_state(parts, parts, 80)
    with pytest.raises(TreeError):
        strong_split(state, path_decomposition(state), 40)
    state = make_state(["1", "2", "3", "4"], ["1", "2", "3", "4"], 4096)
    with pytest.raises(TreeError):
        strong_split(state, path_decomposition(state), 40)


# -- main construction --------------------------------------------------------


def test_main_appends_a_nested_block():
    one, two = block_comb_pair(200, 8)
    out = main_construct(one, two)
    assert out.kind == BLOCK_TREE
    assert out.branch == "block-chain(singles=6 blocks=1)"
    expected = {"1"} | {str(i) for i in range(10, 18)} \
        | {str(i) for i in range(82, 90)}
    assert out.agreement_set == frozenset(expected)
    assert verify_outcome(one, two, out)


def _nested_caterpillar_pair():
    blocks = blocks_of([str(i) for i in range(2, 202)], 8)
    one = deroot(rooted(f"(1,{left_comb([left_deep(b) for b in blocks])});"))
    two = deroot(rooted(f"(1,{right_comb([right_deep(b) for b in blocks])});"))
    return one, two


def test_main_returns_a_nested_caterpillar_directly():
    one, two = _nested_caterpillar_pair()
    out = main_construct(one, two)
    assert out.kind == UNROOTED_CATERPILLAR
    assert out.branch == "nested:greedy-caterpillar(step=1)"
    assert out.agreement_set == frozenset(str(i) for i in range(10, 18))
    assert verify_outcome(one, two, out)


def test_main_takes_a_block_in_a_flipped_frame(monkeypatch):
    # Tree one a right comb, tree two a left comb: the loop reads both
    # trees mirrored when it splits, and the nested chain starts there.
    two, one = block_comb_pair(60, 3)
    frames, nested_weak = [], construction._nested_weak

    def spy(state, run):
        frames.append(state.flipped)
        return nested_weak(state, run)

    monkeypatch.setattr(construction, "_nested_weak", spy)
    out = main_construct(one, two, 4)
    assert frames == [True]
    assert out.kind == BLOCK_TREE
    assert out.branch == "block-chain(singles=2 blocks=1)"
    assert out.agreement_set == frozenset(
        {"1", "35", "36", "37", "56", "57", "58"})
    assert verify_outcome(one, two, out)


def test_main_closes_degenerate_cores_exactly():
    cat = generate(GenSpec("caterpillar", 8, 0))
    out = main_construct(cat, cat)
    assert out.kind == BLOCK_TREE
    assert out.branch == "block-chain(singles=6 blocks=0);degenerate-exact"
    assert out.agreement_set == cat.taxa
    assert verify_outcome(cat, cat, out)


def test_main_closes_a_capped_core_with_a_nested_caterpillar(monkeypatch):
    # With the exact table capped at 2 taxa the 5-taxon core left by the
    # loop goes to a weak chain, whose caterpillar exit is returned as is.
    monkeypatch.setattr(construction, "ROOTED_DP_CAP", 2)
    runs, nested_weak = [], construction._nested_weak

    def spy(state, run):
        runs.append((state.size(), run))
        return nested_weak(state, run)

    monkeypatch.setattr(construction, "_nested_weak", spy)
    a = generate(GenSpec("uniform", 1024, mix64(2, 1)))
    b = generate(GenSpec("uniform", 1024, mix64(2, 2)))
    out = construct(setup(a, b)[0], "main", 40)
    assert runs == [(5, Piece(1, 5))]
    assert out.kind == UNROOTED_CATERPILLAR
    assert out.branch == "nested:greedy-caterpillar(step=1)"
    assert out.agreement_set == frozenset({"29", "533", "681", "784", "955"})
    assert verify_outcome(a, b, out)


def test_main_frozen_uniform_instance():
    a = generate(GenSpec("uniform", 64, mix64(21, 1)))
    b = generate(GenSpec("uniform", 64, mix64(21, 2)))
    out = main_construct(a, b)
    assert out.branch == "block-chain(singles=3 blocks=0)"
    assert out.agreement_set == frozenset({"1", "5", "8", "11", "49"})
    assert verify_outcome(a, b, out)


def test_main_rejects_bad_inputs():
    with pytest.raises(TreeError):
        main_construct(unrooted("(1,2,3);"), unrooted("(1,2,3);"))
    with pytest.raises(TaxaMismatch):
        main_construct(unrooted("(1,2,(3,4));"), unrooted("(1,2,(3,5));"))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=4, max_value=96), seed=st.integers(0, 2**32))
def test_main_outcomes_always_verify(n, seed):
    a = generate(GenSpec("uniform", n, seed))
    b = generate(GenSpec("uniform", n, seed ^ 0xBADF00D))
    out = main_construct(a, b)
    assert verify_outcome(a, b, out)
    assert out.kind in (BLOCK_TREE, UNROOTED_CATERPILLAR)
    assert len(out.agreement_set) >= 1


# -- the restricting loop as an oracle ----------------------------------------
#
# The loop once restricted both core trees after every step and mirrored
# them in place to normalize.  These copies of that decomposition and peel
# drive the same pair finders and splits, step by step, beside the loop
# that keeps the trees fixed and only narrows the core.


def _oracle_spine_pieces(tree, along, off, positions):
    nodes = []
    node = tree.root
    while along[node] != -1:
        nodes.append(off[node])
        node = along[node]
    nodes.append(node)
    pieces = []
    for node in nodes:
        leaves = leaves_under(tree, node)
        lo = positions[leaves[0]]
        hi = positions[leaves[-1]]
        assert hi - lo + 1 == len(leaves)
        pieces.append(Piece(lo, hi))
    return pieces


def oracle_path_decomposition(state):
    tree1, tree2 = state.tree1, state.tree2
    if len(tree1) >= 2:
        counts = tree1.leaf_counts()
        root = tree1.root
        if counts[tree1.left[root]] < counts[tree1.right[root]]:
            state.tree1 = mirror(tree1)
            state.tree2 = mirror(tree2)
            tree1, tree2 = state.tree1, state.tree2
    order = tree1.seq()
    assert order == tree2.seq()
    positions = {lab: i + 1 for i, lab in enumerate(order)}
    first = _oracle_spine_pieces(tree1, tree1.left, tree1.right, positions)
    first.reverse()
    second = _oracle_spine_pieces(tree2, tree2.right, tree2.left, positions)
    return PathDecomposition(tuple(first), tuple(second), order)


def oracle_peel(state, peeled, survivors):
    # The oracle's trees hold just its core, read unflipped.
    keep = state.taxa[survivors.lo - 1:survivors.hi]
    state.agreed.extend(peeled)
    state.tree1 = state.tree1.restrict(keep)
    state.tree2 = state.tree2.restrict(keep)
    assert state.tree1.seq() == state.tree2.seq() == keep
    state.lo, state.hi = 0, len(keep) - 1
    state.step += 1


def main_steps(state, c, decompose, peel):
    """main_construct's loop and closing step, run with ``decompose`` and
    ``peel``: every decomposition, then every pair, split and nested
    outcome on labels, then the agreement set."""
    log = []
    while state.size() ** 4 >= state.n_param:
        decomp = decompose(state)
        order = decomp.order
        log.append(decomp)
        pair = find_good_pair_structural(state, decomp, c)
        if pair is not None:
            log.append(pair_labels(order, pair))
            peel(state, [order[pair.pivot - 1]], pair.survivors)
            continue
        split = strong_split(state, decomp, c)
        if isinstance(split, ConstructionOutcome):
            return log + [split], split.agreement_set
        if split is None:
            log.append(None)
            break
        nucleus = order[split.nucleus.lo - 1:split.nucleus.hi]
        log.append((nucleus, run_labels(order, split.survivors)))
        nested = _nested_weak(state, split.nucleus)
        log.append(nested)
        if nested.kind == UNROOTED_CATERPILLAR:
            return log, nested.agreement_set
        peel(state, nested.agreement_set, split.survivors)
    assert state.size() <= ROOTED_DP_CAP
    last = rooted_agreement_leaves(state.tree1.restrict(state.taxa),
                                   state.tree2.restrict(state.taxa))
    return log, frozenset(state.agreed).union(last)


def weak_steps(state, c, decompose, peel):
    """weak_construct's loop, run the same way."""
    log = []
    while state.size() > 1:
        decomp = decompose(state)
        pair = (find_good_pair_structural(state, decomp, c)
                or find_good_pair_big_subtree(state, decomp))
        if pair is None:
            picks = greedy_caterpillar(decomp)
            return log + [decomp, picks], frozenset(picks)
        log += [decomp, pair_labels(decomp.order, pair)]
        peel(state, [decomp.order[pair.pivot - 1]], pair.survivors)
    return log, frozenset(state.agreed).union(state.taxa)


def both_loops(state, steps, c):
    """``steps`` on a copy of ``state`` with the oracle and on ``state``
    itself; asserts both logs agree and returns the agreement set."""
    one, two = state.tree1, state.tree2
    assert (state.lo, state.hi, state.flipped) == (0, len(one) - 1, False)
    oracle = whole_state(one, two, state.n_param)
    expected = steps(oracle, c, oracle_path_decomposition, oracle_peel)
    assert steps(state, c, path_decomposition, _peel) == expected
    assert state.tree1 is one and state.tree2 is two
    return expected[1]


@settings(max_examples=30, deadline=None)
@given(model=st.sampled_from(["uniform", "adversarial"]),
       size=st.integers(16, 400), seed=st.integers(0, 2**32),
       c=st.sampled_from([2, 4, 40]), orient=st.booleans())
def test_fixed_tree_loop_matches_the_restricting_loop(model, size, seed, c,
                                                      orient):
    if model == "adversarial":
        size = 1 << (size.bit_length() - 1)
        a, b = adversarial_pair(size)
    else:
        a = generate(GenSpec("uniform", size, seed))
        b = generate(GenSpec("uniform", size, seed ^ 0x0DDBA11))
    rng = (lambda: SplitMix64(seed)) if orient else (lambda: None)
    state, _, _ = setup(a, b, rng())
    got = both_loops(state, main_steps, c)
    assert main_construct(a, b, c, rng()).agreement_set == got
    if c >= 4:
        state, _, _ = setup(a, b, rng())
        got = both_loops(state, weak_steps, c)
        assert construct(state, "weak", c).agreement_set == got


def oracle_nested_weak(state, run):
    """The nested chain as it once ran: both trees restricted to the run's
    labels, mirrored when the frame is flipped, then the weak chain."""
    taxa = state.taxa[run.lo - 1:run.hi]
    one, two = state.tree1.restrict(taxa), state.tree2.restrict(taxa)
    if state.flipped:
        one, two = mirror(one), mirror(two)
    out = construct(whole_state(one, two, len(taxa) ** 2), "weak")
    return replace(out, branch="nested:" + out.branch)


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(["uniform", "adversarial", "blocks"]),
       size=st.integers(8, 300), seed=st.integers(0, 2**32),
       flipped=st.booleans(), data=st.data())
def test_nested_chain_matches_the_restricting_oracle(model, size, seed,
                                                     flipped, data):
    if model == "blocks":
        a, b = block_comb_pair(size, 2 + seed % 9)
        if seed & 1:
            a, b = b, a
    elif model == "adversarial":
        a, b = adversarial_pair(1 << (size.bit_length() - 1))
    else:
        a = generate(GenSpec("uniform", size, seed))
        b = generate(GenSpec("uniform", size, seed ^ 0x5EED))
    state, _, _ = setup(a, b)
    lo = data.draw(st.integers(0, state.hi - 1))
    hi = data.draw(st.integers(lo + 1, state.hi))
    state.lo, state.hi, state.flipped = lo, hi, flipped
    first = data.draw(st.integers(1, state.size() - 1))
    run = Piece(first, data.draw(st.integers(first + 1, state.size())))
    before = (state.lo, state.hi, state.flipped, state.step, [])
    assert _nested_weak(state, run) == oracle_nested_weak(state, run)
    assert (state.lo, state.hi, state.flipped, state.step, state.agreed) == \
        before


def _fixture_states():
    labels = [str(i) for i in range(1, 201)]
    parts = [left_deep(b) for b in blocks_of(labels, 10)]
    yield make_state(parts, parts, 200)
    yield make_state(labels, labels, 200)
    labels = labels[:100]
    window = [left_deep(b) for b in blocks_of(labels[40:60], 2)]
    yield make_state(labels[:40] + window + labels[60:],
                     labels[:40] + window + labels[60:], 100)
    yield make_state(labels[:16] + [left_deep(labels[16:20])] + labels[20:40]
                     + window + labels[60:],
                     labels[:40] + window + labels[60:], 100)
    # Balanced blocks on a right comb: the loop is flipped when it splits,
    # and the nucleus's root splits evenly, so nested weak must start in
    # the loop's frame.
    parts = ["((({},{}),({},{})),(({},{}),({},{})))".format(*b)
             for b in blocks_of([str(i) for i in range(1, 321)], 8)]
    one, two = rooted(right_comb(parts) + ";"), rooted(left_comb(parts) + ";")
    yield whole_state(one, two, 320)
    for param in PAIR_RULES:
        t1, t2, n_param = param.values[:3]
        yield whole_state(rooted(t1), rooted(t2), n_param)


def test_fixed_tree_loop_matches_on_hand_built_blocks():
    for steps, c in ((main_steps, 40), (main_steps, 4), (weak_steps, 4)):
        for state in _fixture_states():
            both_loops(state, steps, c)
    for one, two in (block_comb_pair(200, 8), _nested_caterpillar_pair()):
        for c in (4, 40):
            state, _, _ = setup(one, two)
            assert both_loops(state, main_steps, c) == \
                main_construct(one, two, c).agreement_set


# -- the rules the one-walk checks replaced, as oracles -----------------------
# check_good_pair once made two lca walks per tree, and the greedy sweep
# once expanded every piece into a per-position array of piece ends.  These
# copies of those rules check the one-walk step test and the sweep on piece
# ends on seeded states in both frames.


def oracle_strict_step(tree, ends, pivot):
    """The two-walk rule: the ancestor of the survivors' ends lies strictly
    below the ancestor of the ends plus the pivot."""
    low = tree.lca(ends)
    high = tree.lca(ends + [pivot])
    return low != high and tree.is_ancestor(high, low)


def oracle_sweep(decomp, lo, hi):
    """The greedy sweep on per-position arrays of piece ends."""
    order = decomp.order
    n = len(order)
    end1 = [0] * (n + 1)
    end2 = [0] * (n + 1)
    for pieces, ends in ((decomp.first, end1), (decomp.second, end2)):
        for piece in pieces:
            for pos in range(piece.lo, piece.hi + 1):
                ends[pos] = piece.hi
    picks = []
    pos = lo
    while pos <= hi:
        picks.append(order[pos - 1])
        e1, e2 = end1[pos], end2[pos]
        pos = (e1 if e1 >= e2 else e2) + 1
    return tuple(picks)


def checked_steps(state, gen, count):
    """``count`` seeded pairs inside the core, each with a pivot outside
    its run and a tier floor the run meets: check_good_pair must raise the
    strict-step error exactly when the two-walk rule fails in a tree.
    Returns a Counter of the rule's (tree1, tree2) verdicts."""
    core, order = state.size(), state.taxa
    seen = collections.Counter()
    for _ in range(count):
        pivot = 1 + gen.randrange(core)
        sides = [(1, pivot - 1)] * (pivot > 1) + [(pivot + 1, core)] * (pivot < core)
        lo, hi = sides[gen.randrange(len(sides))]
        a, b = sorted(lo + gen.randrange(hi - lo + 1) for _ in range(2))
        ends = [order[a - 1], order[b - 1]]
        verdict = tuple(oracle_strict_step(tree, ends, order[pivot - 1])
                        for tree in (state.tree1, state.tree2))
        pair = GoodPair(pivot, Piece(a, b), "large")
        if all(verdict):
            check_good_pair(state, pair, core)
        else:
            with pytest.raises(TreeError, match="strict ancestor step"):
                check_good_pair(state, pair, core)
        seen[verdict] += 1
    return seen


def checked_sweeps(decomp, gen, count):
    """The whole sweep and ``count`` seeded windows against the oracle."""
    n = len(decomp.order)
    assert greedy_caterpillar(decomp) == oracle_sweep(decomp, 1, n)
    for _ in range(count):
        lo, hi = sorted(1 + gen.randrange(n) for _ in range(2))
        assert greedy_caterpillar(decomp, lo, hi) == oracle_sweep(decomp, lo, hi)


def model_state(model, size, seed, swap):
    """The state setup makes for a pair of ``model`` against a uniform
    tree, or for the adversarial pair; ``swap`` exchanges --t1 and --t2."""
    if model in ("balanced", "adversarial"):
        size = 1 << (size.bit_length() - 1)
    if model == "adversarial":
        one, two = adversarial_pair(size)
    else:
        one = generate(GenSpec(model, size, seed))
        two = generate(GenSpec("uniform", size, seed ^ 0xC0FFEE))
    if swap:
        one, two = two, one
    return setup(one, two)[0]


def test_one_walk_checks_match_the_rules_they_replaced_on_fixtures():
    steps = collections.Counter()
    gen = SplitMix64(20)
    for state in _fixture_states():
        for flipped in (False, True):
            state.flipped = flipped
            steps += checked_steps(state, gen, 200)
            checked_sweeps(path_decomposition(state), gen, 100)
    # The rule passed, and failed in each tree alone, so a check of one
    # tree, or of neither, cannot pass.
    assert {(True, True), (True, False), (False, True)} <= set(steps)


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["uniform", "caterpillar", "balanced",
                              "adversarial"]),
       size=st.integers(4, 300), seed=st.integers(0, 2**32),
       swap=st.booleans(), flipped=st.booleans(), data=st.data())
def test_one_walk_checks_match_the_rules_they_replaced(model, size, seed, swap,
                                                       flipped, data):
    state = model_state(model, size, seed, swap)
    lo = data.draw(st.integers(0, state.hi - 1))
    hi = data.draw(st.integers(lo + 1, state.hi))
    state.lo, state.hi, state.flipped = lo, hi, flipped
    gen = SplitMix64(seed)
    checked_steps(state, gen, 40)
    checked_sweeps(path_decomposition(state), gen, 20)


# -- verification -------------------------------------------------------------


def claim(leaves, kind):
    return ConstructionOutcome(frozenset(leaves), kind, "claim", 0.0)


def test_verify_outcome_frozen_examples():
    yes = rooted("((1,2),3);")
    no = rooted("((1,3),2);")
    assert verify_outcome(yes, no, claim({"1", "2", "3"}, BLOCK_TREE)) is False
    assert verify_outcome(yes, no, claim({"1", "2"}, BLOCK_TREE)) is True
    assert verify_outcome(yes, no, claim((), BLOCK_TREE)) is False
    q1 = unrooted("((1,2),(3,4));")
    q2 = unrooted("((1,3),(2,4));")
    assert verify_outcome(q1, q2, claim({"1", "2", "3", "4"},
                                        UNROOTED_CATERPILLAR)) is False
    assert verify_outcome(q1, q2, claim({"1", "2", "3"},
                                        UNROOTED_CATERPILLAR)) is True


def test_verify_outcome_takes_either_rootedness_but_not_a_mix():
    star = unrooted("(1,2,3);")
    cherry = rooted("(1,2);")
    assert verify_outcome(star, star, claim({"1"}, BLOCK_TREE))
    assert verify_outcome(star, star, claim({"1", "2", "3"}, BLOCK_TREE))
    assert verify_outcome(cherry, cherry, claim({"1"}, UNROOTED_CATERPILLAR))
    assert verify_outcome(cherry, cherry,
                          claim({"1", "2"}, UNROOTED_CATERPILLAR))
    with pytest.raises(TypeError):
        verify_outcome(star, cherry, claim({"1"}, BLOCK_TREE))


def test_verify_outcome_rejects_tampering():
    a = generate(GenSpec("uniform", 32, 5))
    b = generate(GenSpec("uniform", 32, 6))
    out = main_construct(a, b)
    assert verify_outcome(a, b, out)
    bigger = out.agreement_set | (a.taxa - out.agreement_set)
    forged = ConstructionOutcome(bigger, out.kind, out.branch,
                                 out.claimed_bound)
    assert not verify_outcome(a, b, forged)
    foreign = ConstructionOutcome(frozenset({"zz"}) | out.agreement_set,
                                  BLOCK_TREE, out.branch, out.claimed_bound)
    assert not verify_outcome(a, b, foreign)
    renamed = ConstructionOutcome(out.agreement_set, "mystery", out.branch,
                                  out.claimed_bound)
    assert not verify_outcome(a, b, renamed)


def test_forged_full_agreement_fails_in_every_kind():
    one = unrooted("((1,2),(3,4),(5,6));")
    two = unrooted("((1,3),(2,5),(4,6));")
    assert unrooted_mast(one, two).size == 4
    for kind in (BLOCK_TREE, ROOTED_CATERPILLAR, UNROOTED_CATERPILLAR, EXACT):
        assert not verify_outcome(one, two, claim(one.taxa, kind))
    with pytest.raises(CertificationError):
        certified(one, two, claim(one.taxa, BLOCK_TREE))


def test_construct_runs_both_public_constructions():
    a = generate(GenSpec("uniform", 64, 1))
    b = generate(GenSpec("uniform", 64, 2))
    state, _, _ = setup(a, b)
    weak = construct(state, "weak", 0)
    assert (state.lo, state.hi, state.agreed) == (0, len(state.tree1) - 1, [])
    assert weak == weak_construct(a, b)
    assert construct(state, "main") == main_construct(a, b)
    assert (state.lo, state.hi, state.agreed) == (0, len(state.tree1) - 1, [])
    with pytest.raises(TreeError, match="unknown construction algorithm"):
        construct(setup(a, b)[0], "exact")


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
@pytest.mark.parametrize("model", ["uniform", "adversarial"])
def test_construct_keeps_its_state_and_repeats_its_outcome(model, n):
    # Each call runs on a fresh copy, so neither loop sees what an earlier
    # call on the same state did, in either order.
    if model == "adversarial":
        a, b = adversarial_pair(n)
    else:
        a = generate(GenSpec("uniform", n, mix64(0, 1)))
        b = generate(GenSpec("uniform", n, mix64(0, 2)))
    state, _, _ = setup(a, b)
    frame = (0, len(state.tree1) - 1, False, 1, [])
    first = {}
    for algorithm in ("main", "weak") * 2 + ("weak", "main") * 2:
        out = construct(state, algorithm)
        assert first.setdefault(algorithm, out) == out
        assert (state.lo, state.hi, state.flipped, state.step,
                state.agreed) == frame


def test_constructions_refuse_a_forged_loop(forge_loop):
    # Each loop returns the whole core of a pair where it does not agree;
    # only the certificate in construct stops it.
    a = generate(GenSpec("uniform", 64, 1))
    b = generate(GenSpec("uniform", 64, 2))
    forge_loop("main")
    forge_loop("weak")
    for algorithm in ("main", "weak"):
        with pytest.raises(CertificationError):
            construct(setup(a, b)[0], algorithm)
    with pytest.raises(CertificationError):
        main_construct(a, b)
    with pytest.raises(CertificationError):
        weak_construct(a, b)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 2**32), data=st.data())
def test_rooted_kinds_check_the_canonically_rooted_restrictions(n, seed, data):
    one = generate(GenSpec("uniform", n, seed))
    two = generate(GenSpec("uniform", n, seed ^ 0x5EED))
    leaves = data.draw(st.sets(st.sampled_from(sorted(one.taxa)), min_size=1))
    kind = data.draw(st.sampled_from([BLOCK_TREE, ROOTED_CATERPILLAR]))
    r1 = root_at_edge(one, canonical_root_edge(one)).restrict(leaves)
    r2 = root_at_edge(two, canonical_root_edge(two)).restrict(leaves)
    expected = isomorphic(r1, r2) and (kind == BLOCK_TREE or is_caterpillar(r1))
    assert verify_outcome(one, two, claim(leaves, kind)) == expected
