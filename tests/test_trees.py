"""Core tree structure checks: restriction, traversal, shape predicates."""

import pytest
from hypothesis import given, settings, strategies as st

from mastkit import (
    RootedTree,
    TreeError,
    UnrootedTree,
    canonical_root_edge,
    deroot,
    isomorphic,
    parse_newick,
    root_at_edge,
    write_newick,
)
from mastkit import trees
from mastkit.rng import SplitMix64
from mastkit.trees import (
    is_caterpillar,
    label_key,
    orient_at_edge,
    preorder,
    rooted_from_arrays,
    rooted_restriction,
    sorted_labels,
)
from mastkit.generators import MODELS, GenSpec, generate

from conftest import leaves_under, mirror, rooted, unrooted


def test_label_ordering_is_numeric_aware():
    labels = ["10", "9", "x2", "x10", "2"]
    assert sorted_labels(labels) == ["2", "9", "10", "x10", "x2"]
    assert label_key("10") > label_key("9")
    # '²' and '①' are digits to str.isdigit but not decimal: int() rejects
    # them, so they sort as text.
    labels += ["\u2460", "\u00b2", "07", "7"]
    assert sorted_labels(labels) == [
        "2", "07", "7", "9", "10", "x10", "x2", "\u00b2", "\u2460"]
    assert label_key("\u2460") > label_key("10")
    # Decimal digits of other scripts count by value: Arabic-Indic
    # three and nine around an ASCII five.
    assert sorted_labels(["\u0669", "5", "\u0663"]) == ["\u0663", "5", "\u0669"]


_LABELS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(0, 999).map(lambda v: f"{v:05d}"),
    st.text("abxyzAB_", min_size=1, max_size=4),
    st.text("0123456789\u00b2\u00b3\u2460\u0663\u096b", min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(_LABELS, max_size=30))
def test_sorted_labels_is_the_label_key_sort(labels):
    assert sorted_labels(labels) == sorted(labels, key=label_key)


def _int_key(label):
    """The label order as it was defined through int()."""
    return (0, int(label), label) if label.isdecimal() else (1, 0, label)


# Decimal digits of several scripts: ASCII, Arabic-Indic, Devanagari,
# fullwidth and mathematical bold.
_DIGITS = ("0123456789\u0660\u0663\u0669\u0966\u096b\uff10\uff17"
           "\U0001d7ce\U0001d7d7")


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.one_of(
    _LABELS,
    st.text(_DIGITS, min_size=1, max_size=40),
    st.integers(0, 10**30).map(lambda v: "0" * (v % 3) + str(v)),
), max_size=30))
def test_label_order_is_the_int_order(labels):
    assert sorted(labels, key=label_key) == sorted(labels, key=_int_key)
    assert sorted_labels(labels) == sorted(labels, key=_int_key)


def test_labels_past_int_digit_limit_sort_by_value():
    big = "1" * 5000
    labels = [big, "0" + big, "9" * 4301, "2", "x", "\uff12" + "0" * 4400]
    want = ["2", "9" * 4301, "\uff12" + "0" * 4400, "0" + big, big, "x"]
    assert sorted_labels(labels) == want
    assert sorted(labels, key=label_key) == want


def test_rooted_restriction_suppresses_pass_through_nodes():
    tree = rooted("(((1,2),3),4);")
    cut = tree.restrict({"2", "3", "4"})
    assert write_newick(cut) == "((2,3),4);"


def test_unrooted_restriction_of_quartet():
    tree = unrooted("((1,2),(3,4));")
    cut = tree.restrict({"1", "2", "3"})
    assert write_newick(cut) == "(1,2,3);"
    assert cut.num_nodes() == 4


def test_restriction_rejects_bad_sets():
    tree = rooted("(((1,2),3),4);")
    with pytest.raises(TreeError):
        tree.restrict({"2", "9"})
    with pytest.raises(TreeError):
        tree.restrict(set())


def test_restriction_to_whole_set_is_identity():
    tree = rooted("(4,(3,(1,(2,5))));")
    assert tree.restrict(tree.taxa).seq() == tree.seq()


def test_seq_is_preorder_leaf_order():
    assert rooted("(4,(3,(1,(2,5))));").seq() == ("4", "3", "1", "2", "5")


def test_lca_and_ancestry():
    tree = rooted("(4,(3,(1,(2,5))));")
    pair = tree.lca({"2", "5"})
    assert sorted(leaves_under(tree, pair)) == ["2", "5"]
    assert tree.is_ancestor(tree.root, pair)
    assert not tree.is_ancestor(pair, tree.root)
    inner = tree.lca({"1", "2"})
    assert sorted(leaves_under(tree, inner)) == ["1", "2", "5"]


def test_mirror_reverses_seq_and_is_an_involution():
    tree = rooted("(4,(3,(1,(2,5))));")
    flipped = mirror(tree)
    assert flipped.seq() == ("5", "2", "1", "3", "4")
    assert mirror(flipped).seq() == tree.seq()
    assert isomorphic(tree, flipped)


def test_caterpillar_predicates():
    assert is_caterpillar(unrooted("(1,2,(3,(4,5)));"))
    assert not is_caterpillar(unrooted("(1,2,((3,4),((5,6),(7,8))));"))
    spine = rooted("(((1,2),3),4);")
    assert is_caterpillar(spine)


def test_isomorphism_ignores_child_order_but_not_labels():
    assert isomorphic(rooted("((1,2),3);"), rooted("((2,1),3);"))
    assert not isomorphic(rooted("((1,2),3);"), rooted("((1,3),2);"))
    assert isomorphic(unrooted("((1,2),(3,4));"), unrooted("((2,1),(4,3));"))
    assert not isomorphic(unrooted("((1,2),(3,4));"), unrooted("((1,3),(2,4));"))


def test_isomorphism_on_different_taxa_is_false():
    assert not isomorphic(rooted("(1,2);"), rooted("(1,3);"))


def test_canonical_root_edge_sits_at_the_smallest_leaf():
    tree = unrooted("(1,2,(3,(4,5)));")
    a, b = canonical_root_edge(tree)
    assert tree.labels[a] == "1"
    assert tree.labels[b] is None


def test_root_at_edge_orients_by_minimum_label():
    tree = unrooted("(1,2,(3,(4,5)));")
    back = root_at_edge(tree, canonical_root_edge(tree))
    assert write_newick(back) == "(1,(2,(3,(4,5))));"
    assert isomorphic(deroot(back), tree)


def test_validate_rejects_degree_two_internal():
    with pytest.raises(TreeError):
        UnrootedTree([[1], [0, 2], [1]], ["1", None, "2"]).validate()


def test_rooted_validate_rejects_ids_out_of_preorder():
    tree = rooted("((1,2),(3,(4,5)));")
    assert (tree.left, tree.right) == ([1, 2, -1, -1, 5, -1, 7, -1, -1],
                                       [4, 3, -1, -1, 6, -1, 8, -1, -1])
    RootedTree(tree.left, tree.right, tree.labels)
    # Swapping every child pair keeps a connected binary tree whose
    # right children now come first in id order.
    with pytest.raises(TreeError, match="preorder"):
        RootedTree(tree.right, tree.left, tree.labels)


def test_rooted_validate_rejects_disconnected_arrays():
    # (1,2) at ids 0-2 and a second cherry (3,4) at ids 3-5 with no parent.
    with pytest.raises(TreeError, match="not connected"):
        RootedTree([1, -1, -1, 4, -1, -1], [2, -1, -1, 5, -1, -1],
                   [None, "1", "2", None, "3", "4"])


@pytest.mark.parametrize("left, right, labels", [
    ([1, -1, -1], [3, -1, -1], [None, "1", "2"]),
    ([1, -1, 3], [2, -1, 4], [None, "1", None]),
], ids=["root", "last-node"])
def test_rooted_validate_rejects_child_ids_past_the_end(left, right, labels):
    with pytest.raises(TreeError, match="child link"):
        RootedTree(left, right, labels)


def _ancestors(tree, v):
    """The nodes from ``v`` up to the root, through a parent map built
    from the child arrays."""
    parent = {c: u for u in range(tree.num_nodes())
              for c in (tree.left[u], tree.right[u]) if c != -1}
    path = [v]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return path


def _rooted_sources(n, seed, pick):
    """Rooted trees from every builder: the Newick reader, root_at_edge
    (min_label and random, at a chosen edge) and restrict and mirror of
    each."""
    base = generate(GenSpec("uniform", n, seed))
    leaf = base.leaf_node(sorted_labels(base.taxa)[pick % n])
    edge = (leaf, base.adj[leaf][0])
    trees = [rooted(write_newick(root_at_edge(base, canonical_root_edge(base)))),
             root_at_edge(base, edge),
             root_at_edge(base, edge, rng=SplitMix64(seed))]
    keep = sorted_labels(base.taxa)[pick % n:] or sorted_labels(base.taxa)
    return trees + [t.restrict(keep) for t in trees] + [mirror(t) for t in trees]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=14), seed=st.integers(0, 2**32),
       pick=st.integers(0, 2**16))
def test_rooted_ids_are_preorder_and_answer_ancestry(n, seed, pick):
    for tree in _rooted_sources(n, seed, pick):
        tree.validate()
        walk, stack = [], [0]
        while stack:
            v = stack.pop()
            walk.append(v)
            if tree.left[v] != -1:
                stack += (tree.right[v], tree.left[v])
        assert walk == list(range(tree.num_nodes()))
        ancestors = [set(_ancestors(tree, v)) for v in range(tree.num_nodes())]
        for a in range(tree.num_nodes()):
            below = [b for b in range(tree.num_nodes()) if a in ancestors[b]]
            for b in range(tree.num_nodes()):
                assert tree.is_ancestor(a, b) == (b in below)
            assert leaves_under(tree, a) == tuple(
                tree.labels[b] for b in below if tree.is_leaf(b))
        order = tree.seq()
        for i in range(len(order)):
            for j in range(i, len(order)):
                group = order[i:j + 1:2] + order[j:j + 1]
                common = set.intersection(
                    *(ancestors[tree.leaf_node(lab)] for lab in group))
                deepest = max(common, key=lambda v: len(ancestors[v]))
                assert tree.lca(group) == deepest


def test_unrooted_node_counts():
    # 2n-2 nodes for n >= 2, a single node for n = 1.
    assert unrooted("1;").num_nodes() == 1
    assert unrooted("(1,2);").num_nodes() == 2
    assert unrooted("(1,2,3);").num_nodes() == 4
    assert unrooted("((1,2),(3,4));").num_nodes() == 6


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=30), seed=st.integers(0, 2**32))
def test_root_then_deroot_round_trip(n, seed):
    tree = generate(GenSpec("uniform", n, seed))
    back = deroot(root_at_edge(tree, canonical_root_edge(tree)))
    assert isomorphic(tree, back)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=4, max_value=24), seed=st.integers(0, 2**32),
       drop=st.integers(0, 2**32))
def test_restriction_drops_exactly_the_asked_taxa(n, seed, drop):
    tree = generate(GenSpec("uniform", n, seed))
    keep = frozenset(lab for lab in tree.taxa if (hash((lab, drop)) & 3) != 0)
    if len(keep) < 1:
        keep = frozenset(sorted_labels(tree.taxa)[:1])
    cut = tree.restrict(keep)
    assert cut.taxa == keep
    cut.validate()


def _splits(tree, keep):
    """Every edge's bipartition of ``keep`` with two or more taxa on
    each side, found by walking the tree from both ends of the edge."""
    out = set()
    for u in range(tree.num_nodes()):
        for v in tree.adj[u]:
            side, stack, seen = set(), [v], {u, v}
            while stack:
                w = stack.pop()
                if tree.is_leaf(w):
                    side.add(tree.labels[w])
                for x in tree.adj[w]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            a = frozenset(side) & keep
            if len(a) >= 2 and len(keep - a) >= 2:
                out.add(frozenset((a, keep - a)))
    return out


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), size=st.integers(1, 24),
       seed=st.integers(0, 2**32), pick=st.integers(0, 2**32))
def test_unrooted_restriction_keeps_exactly_the_cut_splits(model, size, seed,
                                                           pick):
    n = 1 << (size.bit_length() - 1) if model == "balanced" else size
    tree = generate(GenSpec(model, n, seed))
    rng = SplitMix64(pick)
    order = sorted_labels(tree.taxa)
    rng.shuffle(order)
    keep = frozenset(order[:1 + rng.randrange(n)])
    cut = tree.restrict(keep)
    UnrootedTree(cut.adj, cut.labels)
    assert cut.taxa == keep
    assert cut.num_nodes() == (2 * len(keep) - 2 if len(keep) >= 2 else 1)
    assert _splits(cut, keep) == _splits(tree, keep)


# Unrooted restrictions written as Newick, recorded before the unrooted
# restriction went through the rooted one.  Keys: model, n (seed 5), and
# the kept taxa.
FROZEN_RESTRICTIONS = {
    ('uniform', 9, '3'): '3;',
    ('uniform', 9, '1 4'): '(1,4);',
    ('uniform', 9, '3 5 8'): '(3,5,8);',
    ('uniform', 9, '1 4 5 7 8'): '(1,(4,8),(5,7));',
    ('uniform', 9, '1 2 3 4 5 6 7 8'): '(1,((2,5),(3,7)),(4,(6,8)));',
    ('uniform', 24, '1'): '1;',
    ('uniform', 24, '11 14'): '(11,14);',
    ('uniform', 24, '7 9 22'): '(7,9,22);',
    ('uniform', 24, '11 13 15 20 24'): '(11,((13,15),20),24);',
    ('uniform', 24, '1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 21 22 23 24'):
        ('(1,(((((((((((2,(18,24)),5),8),14),12),(((((4,(17,21)),6),(16,23)),'
         '22),19)),(9,11)),15),7),13),3),10);'),
    ('caterpillar', 9, '3'): '3;',
    ('caterpillar', 9, '1 9'): '(1,9);',
    ('caterpillar', 9, '2 5 9'): '(2,5,9);',
    ('caterpillar', 9, '1 2 4 5 8'): '(1,2,(4,(5,8)));',
    ('caterpillar', 9, '1 3 4 5 6 7 8 9'): '(1,3,(4,(5,(6,(7,(8,9))))));',
    ('balanced', 16, '2'): '2;',
    ('balanced', 16, '2 9'): '(2,9);',
    ('balanced', 16, '8 9 16'): '(8,9,16);',
    ('balanced', 16, '4 5 6 9 12'): '(4,(5,6),(9,12));',
    ('balanced', 16, '1 2 3 4 5 6 7 8 9 10 11 12 14 15 16'):
        ('(1,2,((3,4),(((5,6),(7,8)),(((9,10),(11,12)),(14,(15,16))))));'),
}


@pytest.mark.parametrize("model, n, keep", list(FROZEN_RESTRICTIONS))
def test_unrooted_restriction_is_frozen(model, n, keep):
    tree = generate(GenSpec(model, n, 5))
    cut = tree.restrict(keep.split())
    assert write_newick(cut) == FROZEN_RESTRICTIONS[model, n, keep]


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), size=st.integers(2, 40),
       seed=st.integers(0, 2**32), pick=st.integers(0, 2**32))
def test_unranked_rootings_match_the_ranked_route(model, size, seed, pick):
    # Restriction and canonical rooting for verification skip ranking
    # the taxa; the ranked rooting must give the same trees.
    n = 1 << (size.bit_length() - 1) if model == "balanced" else size
    tree = generate(GenSpec(model, n, seed))
    rng = SplitMix64(pick)
    order = sorted_labels(tree.taxa)
    rng.shuffle(order)
    keep = frozenset(order[:2 + rng.randrange(n - 1)])
    leaf = min(tree.leaf_node(x) for x in keep)
    ranked = deroot(root_at_edge(tree, (leaf, tree.adj[leaf][0])).restrict(keep))
    cut = tree.restrict(keep)
    UnrootedTree(cut.adj, cut.labels)
    assert write_newick(cut) == write_newick(ranked)
    assert isomorphic(cut, ranked)
    edge = canonical_root_edge(tree)
    assert isomorphic(unranked_rooting(tree, edge), root_at_edge(tree, edge))
    assert isomorphic(rooted_restriction(tree, edge, keep),
                      root_at_edge(tree, edge).restrict(keep))


def unranked_rooting(tree, edge):
    """The full rooting at ``edge`` with no taxon ranked: the oriented
    arrays, numbered."""
    left, right, labels, order = orient_at_edge(tree, edge, ranked=False)
    return rooted_from_arrays(order[-1], left, right, labels)


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), size=st.integers(2, 60),
       seed=st.integers(0, 2**32), data=st.data())
def test_pruned_rooting_matches_the_restricted_full_rooting(model, size,
                                                            seed, data):
    # rooted_restriction prunes the oriented arrays; the full rooting,
    # restricted, must give the same arrays at any edge and any taxa.
    n = 1 << (size.bit_length() - 1) if model == "balanced" else size
    tree = generate(GenSpec(model, n, seed))
    u = data.draw(st.sampled_from(range(tree.num_nodes())))
    edge = (u, data.draw(st.sampled_from(tree.adj[u])))
    keep = data.draw(st.sets(st.sampled_from(sorted(tree.taxa)), min_size=1))
    full = unranked_rooting(tree, edge).restrict(keep)
    cut = rooted_restriction(tree, edge, keep)
    assert (cut.left, cut.right, cut.labels) == \
        (full.left, full.right, full.labels)
    if 1 < len(keep) < n:  # else restrict builds no rooting
        leaf = min(tree.leaf_node(x) for x in keep)
        old = deroot(unranked_rooting(tree, (leaf, tree.adj[leaf][0]))
                     .restrict(keep))
        new = tree.restrict(keep)
        assert (new.adj, new.labels) == (old.adj, old.labels)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=3, max_value=20), seed=st.integers(0, 2**32))
def test_rooted_restriction_keeps_relative_leaf_order(n, seed):
    base = generate(GenSpec("uniform", n, seed))
    tree = root_at_edge(base, canonical_root_edge(base))
    keep = frozenset(list(sorted_labels(tree.taxa))[::2])
    cut = tree.restrict(keep)
    expected = tuple(lab for lab in tree.seq() if lab in keep)
    assert cut.seq() == expected


# Canonical rootings written as Newick, recorded before the tree builders
# were merged into one.  The random rows pin the draw order: one coin per
# internal node, in the new tree's preorder, on the child pair in
# adjacency order.
FROZEN_ROOTINGS = {
    ('uniform', 2, 'min_label'):
        '(1,2);',
    ('uniform', 2, 'random'):
        '(2,1);',
    ('uniform', 3, 'min_label'):
        '(1,(2,3));',
    ('uniform', 3, 'random'):
        '((3,2),1);',
    ('uniform', 9, 'min_label'):
        '(1,(((2,5),(3,7)),((4,(6,8)),9)));',
    ('uniform', 9, 'random'):
        '(((9,(4,(8,6))),((5,2),(7,3))),1);',
    ('uniform', 40, 'min_label'):
        ('(1,((((((((((((2,19),16),(15,31)),6),18),40),27),(((23,((25,35),'
         '33)),29),24)),11),((((((3,(21,39)),(9,(13,36))),4),((((8,10),(17'
         ',38)),37),(14,((22,26),30)))),(20,(28,34))),12)),(7,32)),5));'),
    ('uniform', 40, 'random'):
        ('((5,((7,32),((((((((17,38),(10,8)),37),(14,(30,(26,22)))),(((3,('
         '39,21)),((36,13),9)),4)),((28,34),20)),12),((((29,(23,((25,35),3'
         '3))),24),(27,(40,((6,(((2,19),16),(31,15))),18)))),11)))),1);'),
    ('caterpillar', 2, 'min_label'):
        '(1,2);',
    ('caterpillar', 2, 'random'):
        '(2,1);',
    ('caterpillar', 3, 'min_label'):
        '(1,(2,3));',
    ('caterpillar', 3, 'random'):
        '((3,2),1);',
    ('caterpillar', 9, 'min_label'):
        '(1,(2,(3,(4,(5,(6,(7,(8,9))))))));',
    ('caterpillar', 9, 'random'):
        '((((4,(5,(6,(7,(9,8))))),3),2),1);',
    ('caterpillar', 40, 'min_label'):
        ('(1,(2,(3,(4,(5,(6,(7,(8,(9,(10,(11,(12,(13,(14,(15,(16,(17,(18,('
         '19,(20,(21,(22,(23,(24,(25,(26,(27,(28,(29,(30,(31,(32,(33,(34,('
         '35,(36,(37,(38,(39,40)))))))))))))))))))))))))))))))))))))));'),
    ('caterpillar', 40, 'random'):
        ('((((4,(5,(6,(7,(8,(9,(10,(11,(((((16,(17,(18,((20,(21,((23,((25,'
         '(26,(27,(28,((30,(31,(32,((34,(35,(((38,(39,40)),37),36))),33)))'
         '),29))))),24)),22))),19)))),15),14),13),12))))))))),3),2),1);'),
    ('balanced', 2, 'min_label'):
        '(1,2);',
    ('balanced', 2, 'random'):
        '(2,1);',
    ('balanced', 4, 'min_label'):
        '(1,(2,(3,4)));',
    ('balanced', 4, 'random'):
        '(((4,3),2),1);',
    ('balanced', 8, 'min_label'):
        '(1,(2,((3,4),((5,6),(7,8)))));',
    ('balanced', 8, 'random'):
        '((2,(((5,6),(7,8)),(3,4))),1);',
    ('balanced', 32, 'min_label'):
        ('(1,(2,((3,4),(((5,6),(7,8)),((((9,10),(11,12)),((13,14),(15,16))'
         '),((((17,18),(19,20)),((21,22),(23,24))),(((25,26),(27,28)),((29'
         ',30),(31,32)))))))));'),
    ('balanced', 32, 'random'):
        ('((2,((3,4),(((((9,10),(11,12)),((14,13),(16,15))),((((29,30),(31'
         ',32)),((27,28),(25,26))),(((22,21),(23,24)),((17,18),(19,20)))))'
         ',((7,8),(5,6))))),1);'),

}


@pytest.mark.parametrize("model, n, orient", list(FROZEN_ROOTINGS))
def test_canonical_rooting_is_frozen(model, n, orient):
    tree = generate(GenSpec(model, n, 5))
    back = root_at_edge(tree, canonical_root_edge(tree),
                        SplitMix64(11) if orient == "random" else None)
    assert write_newick(back) == FROZEN_ROOTINGS[model, n, orient]


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=30), seed=st.integers(0, 2**32),
       shuffle=st.integers(0, 2**32))
def test_unrooted_newick_ignores_node_numbering(n, seed, shuffle):
    tree = generate(GenSpec("uniform", n, seed))
    rng = SplitMix64(shuffle)
    new_id = list(range(tree.num_nodes()))
    rng.shuffle(new_id)
    adj = [[] for _ in new_id]
    labels = [None] * len(new_id)
    for v, nbrs in enumerate(tree.adj):
        adj[new_id[v]] = [new_id[u] for u in nbrs]
        rng.shuffle(adj[new_id[v]])
        labels[new_id[v]] = tree.labels[v]
    assert write_newick(UnrootedTree(adj, labels)) == write_newick(tree)


def _append_and_patch(top, left, right, labels, rng=None):
    """The builder ``rooted_from_arrays`` replaced: number each node as it
    is popped and patch it into its parent's child slot."""
    n_left, n_right, n_labels = [], [], []
    stack = [(top, -1)]
    while stack:
        old, par = stack.pop()
        new = len(n_labels)
        n_left.append(-1)
        n_right.append(-1)
        n_labels.append(labels[old])
        if par != -1:
            if n_left[par] == -1:
                n_left[par] = new
            else:
                n_right[par] = new
        l = left[old]
        if l != -1:
            r = right[old]
            if rng is not None and rng.randrange(2):
                l, r = r, l
            stack.append((r, new))
            stack.append((l, new))
    return n_left, n_right, n_labels


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**32),
       extra=st.integers(0, 5), flips=st.booleans())
def test_rooted_from_arrays_matches_append_and_patch(n, seed, extra, flips):
    """Arrays in a shuffled numbering with unreachable slots, as restrict
    and root_at_edge pass them: same tree, same coin draws (flipped by
    ``preorder`` in copies, as root_at_edge flips its fresh arrays), and
    the caller's arrays left as they were."""
    base = generate(GenSpec("uniform", n, seed))
    tree = root_at_edge(base, canonical_root_edge(base)) if n >= 2 \
        else rooted("1;")
    size = tree.num_nodes() + extra
    ids = list(range(size))
    SplitMix64(seed).shuffle(ids)
    left, right = [-1] * size, [-1] * size
    labels = [None] * size
    for v in range(tree.num_nodes()):
        labels[ids[v]] = tree.labels[v]
        if tree.left[v] != -1:
            left[ids[v]], right[ids[v]] = ids[tree.left[v]], ids[tree.right[v]]
    for slot in ids[tree.num_nodes():]:
        left[slot] = right[slot] = ids[0]  # never read
    before = (left[:], right[:], labels[:])
    rng_new = SplitMix64(seed + 1) if flips else None
    rng_old = SplitMix64(seed + 1) if flips else None
    if flips:
        flipped_left, flipped_right = left[:], right[:]
        preorder(ids[0], flipped_left, flipped_right, rng_new)
        built = rooted_from_arrays(ids[0], flipped_left, flipped_right,
                                   labels)
    else:
        built = rooted_from_arrays(ids[0], left, right, labels)
    assert (built.left, built.right, built.labels) == _append_and_patch(
        ids[0], left, right, labels, rng_old)
    built.validate()
    assert (left, right, labels) == before
    if flips:
        assert rng_new.next_u64() == rng_old.next_u64()
    if n >= 2:  # the random rooting flips its own arrays, not the tree's
        adj = [nbrs[:] for nbrs in base.adj]
        base_labels = base.labels[:]
        root_at_edge(base, canonical_root_edge(base), SplitMix64(seed))
        assert (base.adj, base.labels) == (adj, base_labels)


# -- isomorphism on arrays against the tree-based route ----------------------


def _tree_canon_id(tree, table):
    """The canonical id as it was hashed on a built rooted tree."""
    ids = [0] * tree.num_nodes()
    left, right, labels = tree.left, tree.right, tree.labels
    for v in tree.postorder():
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
    return ids[0]


def tree_isomorphic(a, b):
    """isomorphic as it ran on built trees: each unrooted tree rooted,
    unranked, at its own canonical edge and numbered, then hashed."""
    if a.taxa != b.taxa:
        return False
    if isinstance(a, UnrootedTree):
        if len(a) <= 2:
            return True
        a = unranked_rooting(a, canonical_root_edge(a))
        b = unranked_rooting(b, canonical_root_edge(b))
    table = {}
    return _tree_canon_id(a, table) == _tree_canon_id(b, table)


def _relabeled(tree, rng, rename):
    """``tree`` with two drawn leaves' labels swapped, or with one drawn
    label renamed to a new taxon."""
    labels = tree.labels[:]
    leaves = [v for v, lab in enumerate(labels) if lab is not None]
    i, j = leaves[rng.randrange(len(leaves))], leaves[rng.randrange(len(leaves))]
    if rename:
        labels[i] = "x" + labels[i]
    else:
        labels[i], labels[j] = labels[j], labels[i]
    if isinstance(tree, RootedTree):
        return RootedTree(tree.left, tree.right, labels)
    return UnrootedTree(tree.adj, labels)


def _interchange(tree, rng):
    """One nearest-neighbour interchange across a drawn inner edge (the
    tree itself if it has none)."""
    if isinstance(tree, RootedTree):
        left, right = tree.left[:], tree.right[:]
        inner = [(p, v) for p in range(tree.num_nodes()) if left[p] != -1
                 for v in (left[p], right[p]) if left[v] != -1]
        if not inner:
            return tree
        p, v = inner[rng.randrange(len(inner))]
        # v's left subtree and v's sibling trade places.
        if left[p] == v:
            sibling, right[p] = right[p], left[v]
        else:
            sibling, left[p] = left[p], left[v]
        left[v] = sibling
        return rooted_from_arrays(0, left, right, tree.labels)
    adj, labels = [list(nbrs) for nbrs in tree.adj], tree.labels
    inner = [(u, v) for u in range(len(adj)) for v in adj[u]
             if u < v and labels[u] is None and labels[v] is None]
    if not inner:
        return tree
    u, v = inner[rng.randrange(len(inner))]
    x = next(w for w in adj[u] if w != v)
    y = next(w for w in adj[v] if w != u)
    # x moves from u to v and y from v to u.
    for a, old, new in ((u, x, y), (v, y, x), (x, u, v), (y, v, u)):
        adj[a][adj[a].index(old)] = new
    return UnrootedTree(adj, labels)


ISO_CHANGES = ("round trip", "rerooted", "two labels swapped",
               "interchange", "unequal taxa", "other tree")


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(MODELS), size=st.integers(1, 60),
       seed=st.integers(0, 2**32), is_rooted=st.booleans(),
       change=st.sampled_from(ISO_CHANGES), pick=st.integers(0, 2**32))
def test_isomorphic_matches_the_tree_based_route(model, size, seed, is_rooted,
                                                 change, pick):
    """Equal shapes, near misses and unrelated trees, rooted and
    unrooted: the array-based isomorphism answers as the route that built
    each rooting did."""
    n = 1 << (size.bit_length() - 1) if model == "balanced" else size
    rng = SplitMix64(pick)

    def edge_of(tree):
        u = rng.randrange(tree.num_nodes())
        return u, tree.adj[u][rng.randrange(len(tree.adj[u]))]

    def as_given(tree, edge):
        if not is_rooted:
            return tree
        return root_at_edge(tree, edge) if n > 1 else rooted(write_newick(tree))

    base = generate(GenSpec(model, n, seed))
    edge = edge_of(base) if n > 1 else None
    a = as_given(base, edge)
    if change == "round trip":
        b = parse_newick(write_newick(a), rooted=is_rooted)
    elif change == "rerooted":
        if n == 1:
            b = a
        elif is_rooted:  # the same rooting, each pair flipped at random
            b = root_at_edge(base, edge, rng)
        else:
            b = deroot(root_at_edge(base, edge_of(base), rng))
    elif change in ("two labels swapped", "unequal taxa"):
        b = _relabeled(a, rng, rename=change == "unequal taxa")
    elif change == "interchange":
        b = _interchange(a, rng)
    else:
        other = generate(GenSpec(model, n, seed ^ 0x150))
        b = as_given(other, edge_of(other) if n > 1 else None)
    want = tree_isomorphic(a, b)
    assert isomorphic(a, b) == isomorphic(b, a) == want
    if change in ("round trip", "rerooted"):
        assert want
    if change == "unequal taxa":
        assert not want


def test_unrooted_isomorphism_and_writing_build_no_rooted_tree(monkeypatch):
    """Both read the oriented arrays: no RootedTree is built, and
    isomorphism sorts no taxa."""
    built, sorts = [], []
    init = trees.RootedTree.__init__
    sort = trees.sorted_labels

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_sort(labels):
        sorts.append(labels)
        return sort(labels)

    monkeypatch.setattr(trees.RootedTree, "__init__", counting_init)
    monkeypatch.setattr(trees, "sorted_labels", counting_sort)
    one = generate(GenSpec("uniform", 1024, 1))
    same = generate(GenSpec("uniform", 1024, 1))
    two = generate(GenSpec("uniform", 1024, 2))
    assert isomorphic(one, same) and not isomorphic(one, two)
    assert sorts == [] and built == []
    assert write_newick(one) == write_newick(same) != write_newick(two)
    assert built == []
    rooted("(1,2);")  # both patches are in place
    trees.sorted_labels(["1"])
    assert len(built) == 1 and sorts
