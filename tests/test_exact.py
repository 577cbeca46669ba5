"""Exact solver checks: frozen instances, then brute-force equivalence."""

import gc
import re

import pytest
from hypothesis import given, settings, strategies as st

from mastkit import (
    TaxaMismatch,
    UnrootedTree,
    adversarial_pair,
    canonical_root_edge,
    isomorphic,
    parse_newick,
    root_at_edge,
    sorted_labels,
    write_newick,
)
from mastkit import exact
from mastkit.exact import (
    SizeCapExceeded,
    _backtrack,
    _edge_side,
    _fill_rows,
    _rooted_table,
    _Side,
    brute_force_mast,
    rooted_agreement_leaves,
    rooted_mast,
    unrooted_agreement_leaves,
    unrooted_mast,
)
from mastkit.generators import MODELS, GenSpec, generate
from mastkit.rng import SplitMix64

from conftest import leaves_under, mirror, rooted, unrooted


def test_three_leaf_rooted_disagreement():
    res = rooted_mast(rooted("((1,2),3);"), rooted("((1,3),2);"))
    assert res.size == 2
    assert res.agreement_set == frozenset({"2", "3"})
    assert write_newick(res.witness) == "(2,3);"


def test_tiny_rooted_inputs_always_agree():
    # One leaf: the root is a leaf that no parent updates.  Two leaves:
    # the lighter leaf updates its heavier sibling's row at the root.
    for text1, text2 in [("1;", "1;"), ("(1,2);", "(2,1);")]:
        res = rooted_mast(rooted(text1), rooted(text2))
        assert res.agreement_set == rooted(text1).taxa


def test_reversed_caterpillars_rooted_vs_unrooted():
    # Rooted, reversing the spine breaks every triple; unrooted, the two
    # trees carry the same single quartet split.
    assert rooted_mast(rooted("(((1,2),3),4);"), rooted("(((4,3),2),1);")).size == 2
    assert unrooted_mast(unrooted("((1,2),(3,4));"),
                         unrooted("((4,3),(2,1));")).size == 4


def test_identical_trees_agree_everywhere():
    tree = unrooted("(1,2,((3,4),((5,6),(7,8))));")
    res = unrooted_mast(tree, tree)
    assert res.size == 8
    assert res.agreement_set == tree.taxa


def test_tiny_unrooted_inputs_always_agree():
    for text1, text2 in [("1;", "1;"), ("(1,2);", "(1,2);"),
                         ("(1,2,3);", "(1,2,3);")]:
        res = unrooted_mast(unrooted(text1), unrooted(text2))
        assert res.agreement_set == unrooted(text1).taxa


def test_witness_is_a_real_agreement():
    a = unrooted("(1,2,(3,((4,5),6)));")
    b = unrooted("(6,5,((4,3),(1,2)));")
    res = unrooted_mast(a, b)
    assert isomorphic(a.restrict(res.agreement_set), b.restrict(res.agreement_set))
    assert isomorphic(res.witness, a.restrict(res.agreement_set))


def test_mismatched_taxa_raise():
    with pytest.raises(TaxaMismatch):
        unrooted_mast(unrooted("(1,2,3);"), unrooted("(1,2,4);"))
    with pytest.raises(TaxaMismatch):
        rooted_mast(rooted("(1,2);"), rooted("(1,3);"))


def test_solvers_refuse_the_other_rootedness():
    star, cherry = unrooted("(1,2,3);"), rooted("((1,2),3);")
    with pytest.raises(TypeError, match="expected two RootedTree inputs"):
        rooted_mast(star, star)
    with pytest.raises(TypeError, match="expected two UnrootedTree inputs"):
        unrooted_mast(cherry, cherry)


def test_brute_force_cap():
    big = generate(GenSpec("uniform", 11, 3))
    with pytest.raises(SizeCapExceeded) as err:
        brute_force_mast(big, big)
    assert err.value.size == 11 and err.value.cap == 10
    # A raised cap admits the instance.
    assert brute_force_mast(big, big, cap=11).size == 11


# Witnesses of unrooted_mast recorded before the per-leaf rooted sweep
# gave way to the table over directed edges.  Keys: the first tree's
# model (against a uniform tree; "adversarial" is the balanced tree
# against the caterpillar), n, and whether the pair is passed swapped.
# Each witness also names the agreement set.
FROZEN_UNROOTED = {
    ('uniform', 4, False): '(1,2,(3,4));',
    ('uniform', 4, True): '(1,2,(3,4));',
    ('uniform', 5, False): '(1,2,3);',
    ('uniform', 5, True): '(1,2,3);',
    ('uniform', 6, False): '(1,(3,(4,5)),6);',
    ('uniform', 6, True): '(1,(3,(4,5)),6);',
    ('uniform', 7, False): '(2,((3,6),7),5);',
    ('uniform', 7, True): '(2,((3,6),7),5);',
    ('uniform', 9, False): '(1,(((2,6),3),9),8);',
    ('uniform', 9, True): '(1,(((2,6),3),9),8);',
    ('uniform', 12, False): '(3,(((6,9),(7,10)),8),12);',
    ('uniform', 12, True): '(3,(((6,9),(7,10)),8),12);',
    ('uniform', 16, False): '(1,((2,((10,12),15)),7),3);',
    ('uniform', 16, True): '(1,((2,((10,12),15)),7),3);',
    ('uniform', 23, False): '(1,3,(((5,(7,11)),(16,20)),(6,12)));',
    ('uniform', 23, True): '(1,3,((6,12),(((7,11),19),(16,20))));',
    ('uniform', 32, False): '(1,((2,(((9,(13,26)),21),17)),(5,22)),(10,31));',
    ('uniform', 32, True): '(1,((5,22),(8,(((9,(13,26)),21),17))),(10,31));',
    ('uniform', 47, False):
        '(1,(((((8,32),21),(19,(35,(36,45)))),18),37),(25,29));',
    ('uniform', 47, True):
        '(1,(((((8,32),21),(19,(35,(36,45)))),18),37),(25,29));',
    ('uniform', 64, False):
        '(1,(((2,(17,59)),11),(48,51)),((((9,63),20),33),28));',
    ('uniform', 64, True):
        '(1,(((2,(17,59)),11),(48,51)),((((9,63),41),33),28));',
    ('caterpillar', 4, False): '(1,2,(3,4));',
    ('caterpillar', 4, True): '(1,2,(3,4));',
    ('caterpillar', 5, False): '(1,2,(3,5));',
    ('caterpillar', 5, True): '(1,2,(3,5));',
    ('caterpillar', 6, False): '(1,3,(4,5));',
    ('caterpillar', 6, True): '(1,3,(4,5));',
    ('caterpillar', 7, False): '(1,2,(3,6));',
    ('caterpillar', 7, True): '(1,2,(3,6));',
    ('caterpillar', 9, False): '(2,4,(5,(8,9)));',
    ('caterpillar', 9, True): '(2,4,(5,(8,9)));',
    ('caterpillar', 12, False): '(2,5,(6,(7,(8,12))));',
    ('caterpillar', 12, True): '(2,5,(6,(7,(8,12))));',
    ('caterpillar', 16, False): '(1,3,(7,(8,(9,(11,16)))));',
    ('caterpillar', 16, True): '(1,3,(7,(8,(9,(11,16)))));',
    ('caterpillar', 23, False): '(1,3,(6,(8,(11,(14,(16,18))))));',
    ('caterpillar', 23, True): '(1,3,(6,(8,(11,(14,(16,18))))));',
    ('caterpillar', 32, False): '(4,7,(16,(19,(23,(24,(27,(28,(30,31))))))));',
    ('caterpillar', 32, True): '(4,7,(16,(19,(23,(24,(27,(28,(30,31))))))));',
    ('caterpillar', 47, False): '(1,4,(10,(17,(21,(24,(26,(27,(36,44))))))));',
    ('caterpillar', 47, True): '(1,4,(10,(17,(21,(24,(26,(27,(36,44))))))));',
    ('caterpillar', 64, False):
        '(8,10,(13,(15,(22,(25,(26,(34,(37,(43,(48,(52,62)))))))))));',
    ('caterpillar', 64, True):
        '(8,10,(13,(15,(22,(25,(26,(34,(37,(43,(48,(52,62)))))))))));',
    ('balanced', 4, False): '(1,2,(3,4));',
    ('balanced', 4, True): '(1,2,(3,4));',
    ('balanced', 8, False): '(1,(3,4),(6,8));',
    ('balanced', 8, True): '(1,2,((3,4),7));',
    ('balanced', 16, False): '(1,(3,4),(7,((13,14),(15,16))));',
    ('balanced', 16, True): '(1,(3,4),(7,((13,14),(15,16))));',
    ('balanced', 32, False): '(3,4,(5,((14,15),(20,((26,28),32)))));',
    ('balanced', 32, True): '(3,4,(5,((14,15),(20,((26,28),32)))));',
    ('balanced', 64, False):
        '(1,((5,6),7),(15,((20,(30,32)),((36,(41,44)),(63,64)))));',
    ('balanced', 64, True):
        '(1,((5,6),7),(15,((20,(30,32)),((36,(41,44)),(63,64)))));',
    ('adversarial', 8, False): '(1,2,(3,(5,(7,8))));',
    ('adversarial', 8, True): '(1,2,(3,(5,(7,8))));',
    ('adversarial', 16, False): '(1,2,(3,(5,(9,(13,(15,16))))));',
    ('adversarial', 16, True): '(1,2,(3,(5,(9,(13,(15,16))))));',
    ('adversarial', 32, False): '(1,2,(3,(5,(9,(17,(25,(29,(31,32))))))));',
    ('adversarial', 32, True): '(1,2,(3,(5,(9,(17,(25,(29,(31,32))))))));',
    ('adversarial', 64, False):
        '(1,2,(3,(5,(9,(17,(33,(49,(57,(61,(63,64))))))))));',
    ('adversarial', 64, True):
        '(1,2,(3,(5,(9,(17,(33,(49,(57,(61,(63,64))))))))));',
    ('adversarial', 128, False):
        '(1,2,(3,(5,(9,(17,(33,(65,(97,(113,(121,(125,(127,128))))))))))));',
    ('adversarial', 128, True):
        '(1,2,(3,(5,(9,(17,(33,(65,(97,(113,(121,(125,(127,128))))))))))));',
}


@pytest.mark.parametrize("model, n, swapped", list(FROZEN_UNROOTED))
def test_unrooted_mast_is_frozen(model, n, swapped):
    if model == "adversarial":
        one, two = adversarial_pair(n)
    else:
        one = generate(GenSpec(model, n, 31))
        two = generate(GenSpec("uniform", n, 32))
    if swapped:
        one, two = two, one
    res = unrooted_mast(one, two)
    witness = FROZEN_UNROOTED[model, n, swapped]
    assert write_newick(res.witness) == witness
    assert sorted_labels(res.agreement_set) == sorted_labels(
        re.findall(r"[^(),;]+", witness))


# Witnesses of rooted_mast recorded while every row of the table was
# filled over all of the second tree's nodes, before rows were filled
# only where the two subtrees share a taxon.  Backtracking breaks ties by
# table values, so equal witnesses mean equal tables along the way.
# Keys: the first tree's model (canonically rooted, against a uniform
# tree; "adversarial" is the balanced tree against the caterpillar), n,
# and whether the pair is passed swapped.
FROZEN_ROOTED = {
    ('uniform', 4, False): '(1,(2,3));',
    ('uniform', 4, True): '(1,(2,3));',
    ('uniform', 5, False): '(1,(2,3));',
    ('uniform', 5, True): '(1,(2,3));',
    ('uniform', 7, False): '(1,((2,5),7));',
    ('uniform', 7, True): '(1,((2,5),7));',
    ('uniform', 12, False): '(1,(((((2,8),11),10),9),7));',
    ('uniform', 12, True): '(1,(((((2,8),11),5),9),7));',
    ('uniform', 23, False): '(1,(((((23,21),6),12),(11,20)),16));',
    ('uniform', 23, True): '(1,((((6,(21,23)),12),(11,20)),16));',
    ('uniform', 47, False):
        '(1,(((((((11,32),22),(9,47)),33),35),37),(16,18)));',
    ('uniform', 47, True):
        '(1,((16,18),(((((47,9),((11,32),22)),33),35),37)));',
    ('uniform', 96, False):
        '(1,(((((((81,(51,94)),(29,45)),65),59),75),((76,96),(42,91))),69));',
    ('uniform', 96, True):
        '(1,((((96,76),(42,91)),(((((81,(51,94)),(45,29)),65),59),75)),69));',
    ('uniform', 256, False):
        '(1,((((((186,52),195),((202,218),169)),(((((175,201),125),132),151),'
        '(188,((((29,(243,225)),(227,(159,246))),203),(129,204))))),((121,'
        '177),139)),176));',
    ('uniform', 256, True):
        '(1,(((((((129,204),(((29,(243,225)),((159,246),227)),203)),188),'
        '(151,(((175,201),125),132))),(((202,218),169),((52,186),195))),'
        '((177,121),139)),176));',
    ('caterpillar', 4, False): '(1,(2,(3,4)));',
    ('caterpillar', 4, True): '(1,(2,(3,4)));',
    ('caterpillar', 5, False): '(1,(3,(4,5)));',
    ('caterpillar', 5, True): '(1,((4,5),3));',
    ('caterpillar', 7, False): '(1,(2,(3,4)));',
    ('caterpillar', 7, True): '(1,(2,(3,4)));',
    ('caterpillar', 12, False): '(1,(3,(4,(5,(8,11)))));',
    ('caterpillar', 12, True): '(1,((((8,11),5),4),3));',
    ('caterpillar', 23, False): '(1,(8,(10,(11,(12,(13,(21,23)))))));',
    ('caterpillar', 23, True): '(1,(2,((((13,(21,23)),12),11),7)));',
    ('caterpillar', 47, False):
        '(1,(3,(8,(16,(20,(35,(36,(44,(45,47)))))))));',
    ('caterpillar', 47, True): '(1,(((16,(((((47,45),44),36),35),20)),8),3));',
    ('caterpillar', 96, False):
        '(1,(5,(8,(11,(20,(33,(37,(44,(48,(57,(72,(74,87))))))))))));',
    ('caterpillar', 96, True):
        '(1,((((20,(((44,((57,((87,74),72)),48)),37),33)),11),8),5));',
    ('caterpillar', 256, False):
        '(1,(7,(34,(42,(64,(68,(106,(113,(120,(125,(155,(161,(187,(188,(200,'
        '(203,(219,(227,(233,(235,241))))))))))))))))))));',
    ('caterpillar', 256, True):
        '(1,((((((((((((((((219,(((241,235),233),227)),203),200),188),187),'
        '161),155),125),120),113),106),68),64),42),34),7));',
    ('balanced', 4, False): '(1,(2,(3,4)));',
    ('balanced', 4, True): '(1,(2,(3,4)));',
    ('balanced', 8, False): '(1,(3,(5,7)));',
    ('balanced', 8, True): '(1,((7,5),3));',
    ('balanced', 16, False): '(1,(3,(((5,6),7),(10,12))));',
    ('balanced', 16, True): '(1,((((6,5),7),(10,12)),3));',
    ('balanced', 64, False):
        '(1,((((17,19),22),27),(((35,36),(43,((45,46),47))),(54,64))));',
    ('balanced', 64, True):
        '(1,(((64,54),(((47,(45,46)),43),(35,36))),((22,(19,17)),27)));',
    ('balanced', 256, False):
        '(1,(7,(22,(((50,56),58),((95,((99,(102,103)),(124,128))),(((143,'
        '151),((166,(171,175)),179)),(221,((238,239),(245,((249,252),(253,'
        '255)))))))))));',
    ('balanced', 256, True):
        '(1,((((((((((253,255),(252,249)),245),(239,238)),221),((143,151),'
        '(((175,171),166),179))),(((124,128),((102,103),99)),95)),((56,50),'
        '58)),22),7));',
    ('adversarial', 4, False): '(1,(2,(3,4)));',
    ('adversarial', 4, True): '(1,(2,(3,4)));',
    ('adversarial', 16, False): '(1,(2,(3,(5,(9,(13,(15,16)))))));',
    ('adversarial', 16, True): '(1,(2,(3,(5,(9,(13,(15,16)))))));',
    ('adversarial', 64, False):
        '(1,(2,(3,(5,(9,(17,(33,(49,(57,(61,(63,64)))))))))));',
    ('adversarial', 64, True):
        '(1,(2,(3,(5,(9,(17,(33,(49,(57,(61,(63,64)))))))))));',
    ('adversarial', 256, False):
        '(1,(2,(3,(5,(9,(17,(33,(65,(129,(193,(225,(241,(249,(253,(255,'
        '256)))))))))))))));',
    ('adversarial', 256, True):
        '(1,(2,(3,(5,(9,(17,(33,(65,(129,(193,(225,(241,(249,(253,(255,'
        '256)))))))))))))));',
}


@pytest.mark.parametrize("model, n, swapped", list(FROZEN_ROOTED))
def test_rooted_mast_is_frozen(model, n, swapped):
    if model == "adversarial":
        one, two = adversarial_pair(n)
    else:
        one = generate(GenSpec(model, n, 41))
        two = generate(GenSpec("uniform", n, 42))
    one = root_at_edge(one, canonical_root_edge(one))
    two = root_at_edge(two, canonical_root_edge(two))
    if swapped:
        one, two = two, one
    res = rooted_mast(one, two)
    witness = FROZEN_ROOTED[model, n, swapped]
    assert write_newick(res.witness) == witness
    assert sorted_labels(res.agreement_set) == sorted_labels(
        re.findall(r"[^(),;]+", witness))


def _shaped(model, n, seed):
    """A rooted tree of the model's shape, rooted at an edge the seed
    picks."""
    return _rooted_at(generate(GenSpec(model, n, seed)), seed)


def _rooted_at(tree, seed):
    edges = [(v, w) for v, nbrs in enumerate(tree.adj) for w in nbrs if v < w]
    return root_at_edge(tree, edges[seed % len(edges)])


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(MODELS), n=st.integers(2, 40),
       seed=st.integers(0, 2**32))
def test_rooted_agreement_set_ignores_mirroring(model, n, seed):
    # The construction loop reads its trees mirrored without rebuilding
    # them, and hands the exact step the unmirrored restrictions.  The
    # backtrack's tie order is mirror-symmetric, so the set is the same.
    if model == "balanced":
        n = 1 << (n.bit_length() - 1)
    one, two = _shaped(model, n, seed), _shaped("uniform", n, seed ^ 0xF00D)
    assert set(rooted_agreement_leaves(one, two)) == \
        set(rooted_agreement_leaves(mirror(one), mirror(two)))


def _dense_table(tree1, tree2):
    """The rooted table with every cell filled: leaf rows from the taxa
    below each node, internal rows over every node of ``tree2``."""
    below = [None] * len(tree2.labels)
    for v in tree2.postorder():
        c = tree2.left[v]
        below[v] = ({tree2.labels[v]} if c == -1
                    else below[c] | below[tree2.right[v]])
    table = [None] * len(tree1.labels)
    for u in tree1.postorder():
        a, b = tree1.left[u], tree1.right[u]
        if a == -1:
            table[u] = [int(tree1.labels[u] in s) for s in below]
            continue
        ra, rb, row = table[a], table[b], [0] * len(below)
        for v in tree2.postorder():
            c, d = tree2.left[v], tree2.right[v]
            row[v] = max(ra[v], rb[v]) if c == -1 else max(
                ra[v], rb[v], row[c], row[d], ra[c] + rb[d], ra[d] + rb[c])
        table[u] = row
    return table


@settings(max_examples=60, deadline=None)
@given(model1=st.sampled_from(MODELS), model2=st.sampled_from(MODELS),
       n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 2**32))
def test_rooted_table_equals_dense_fill(model1, model2, n, seed):
    if "balanced" in (model1, model2):
        n = 1 << (n.bit_length() - 1)
    tree1 = _shaped(model1, n, seed)
    tree2 = _shaped(model2, n, seed ^ 0x9E3779B97F4A7C15)
    _assert_same_cells(_rooted_table(tree1, tree2), _dense_table(tree1, tree2))


def _assert_same_cells(chains, dense):
    """Every cell equal, read through the table's cell reader."""
    ns = len(dense[0])
    assert len(chains.heavy) == len(dense)
    for u, want in enumerate(dense):
        assert [chains.cell(u, v) for v in range(ns)] == want


# Every lighter child of a caterpillar is a leaf; those of a balanced
# tree are internal except at its cherries, and hold half their parent's
# taxa, so the stored share of the reached cells is larger.
@pytest.mark.parametrize("model", ["uniform", "caterpillar", "balanced"])
def test_rooted_table_stores_only_cells_its_lighter_child_reaches(model):
    most = {"uniform": 1 / 4, "caterpillar": 1 / 4, "balanced": 2 / 3}[model]
    tree1 = _shaped(model, 256, 5)
    tree2 = _shaped("uniform", 256, 6)
    chains = _rooted_table(tree1, tree2)
    _assert_same_cells(chains, _dense_table(tree1, tree2))
    below2 = [set(leaves_under(tree2, v)) for v in range(tree2.num_nodes())]
    for u, label in enumerate(tree1.labels):
        # A leaf keeps its taxon's ancestors, ascending, for the reader
        # to bisect, whichever way the fill walked them.
        if label is not None:
            assert chains.ids[u] == [v for v, below in enumerate(below2)
                                     if label in below]
            assert set(chains.vals[u][:len(chains.ids[u])]) == {1}

    def support(u):
        # The nodes of tree2 holding a taxon below u: where row u is not 0.
        taxa = set(leaves_under(tree1, u))
        return {v for v, below in enumerate(below2) if taxa & below}

    stored = reach = 0
    for u in range(tree1.num_nodes()):
        a, b = tree1.left[u], tree1.right[u]
        if a == -1:
            continue
        if len(leaves_under(tree1, b)) > len(leaves_under(tree1, a)):
            a, b = b, a
        ids = chains.ids[u]
        assert ids == sorted(ids) and set(ids) <= support(b)
        stored += len(ids)
        reach += len(support(u))
    assert 0 < stored < most * reach


@settings(max_examples=80, deadline=None)
@given(model1=st.sampled_from(MODELS + ("adversarial",)),
       model2=st.sampled_from(MODELS), swapped=st.booleans(),
       n=st.integers(min_value=2, max_value=64), seed=st.integers(0, 2**32))
def test_rooted_backtrack_equals_the_dense_tables(model1, model2, swapped, n, seed):
    # The same table read through the cell reader gives the same tie-breaks,
    # so the very same leaves in the same order, not only as many.
    if "balanced" in (model1, model2) or model1 == "adversarial":
        n = 1 << (n.bit_length() - 1)
    if model1 == "adversarial":
        pair = [_rooted_at(tree, seed + i)
                for i, tree in enumerate(adversarial_pair(max(n, 4)))]
    else:
        pair = [_shaped(model1, n, seed),
                _shaped(model2, n, seed ^ 0x9E3779B97F4A7C15)]
    tree1, tree2 = pair[::-1] if swapped else pair
    dense = _dense_table(tree1, tree2)
    want = _backtrack(tree1, tree2, lambda u, v: dense[u][v], (0, 0))
    assert rooted_agreement_leaves(tree1, tree2) == want


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), n=st.integers(min_value=4, max_value=9),
       seed=st.integers(0, 2**32))
def test_unrooted_dp_equals_brute_force(model, n, seed):
    if model == "balanced":
        n = 1 << (n.bit_length() - 1)
    a = generate(GenSpec(model, n, seed))
    b = generate(GenSpec("uniform", n, seed ^ 0x9E3779B97F4A7C15))
    assert unrooted_mast(a, b).size == brute_force_mast(a, b).size


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), n=st.integers(min_value=3, max_value=9),
       seed=st.integers(0, 2**32))
def test_rooted_dp_equals_brute_force(model, n, seed):
    if model == "balanced":
        n = 1 << (n.bit_length() - 1)
    a = generate(GenSpec(model, n, seed))
    b = generate(GenSpec("uniform", n, seed + 1))
    ra = root_at_edge(a, canonical_root_edge(a))
    rb = root_at_edge(b, canonical_root_edge(b))
    assert rooted_mast(ra, rb).size == brute_force_mast(ra, rb).size


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=4, max_value=16), seed=st.integers(0, 2**32))
def test_unrooted_result_verifies_and_is_deterministic(n, seed):
    a = generate(GenSpec("uniform", n, seed))
    b = generate(GenSpec("uniform", n, seed + 7))
    first = unrooted_mast(a, b)
    second = unrooted_mast(a, b)
    assert first.agreement_set == second.agreement_set
    assert isomorphic(a.restrict(first.agreement_set),
                      b.restrict(first.agreement_set))


def _oracle_edge_side(tree, rank):
    """The directed edges as they were built before they were read off
    the canonical rooting: hung from node 0 by a search of their own,
    each child pair ordered by ``rank`` of the smallest taxon below."""
    adj, labels = tree.adj, tree.labels
    top = len(adj)
    par = [-1] * top
    hung = [0]
    for v in hung:
        for w in adj[v]:
            if w != par[v]:
                par[w] = v
                hung.append(w)

    def edge(p, c):
        return c if par[c] == p else top + p

    left, right = [-1] * (2 * top), [-1] * (2 * top)
    side_labels = [None] * (2 * top)
    reverse = [-1] * (2 * top)
    for p, nbrs in enumerate(adj):
        for c in nbrs:
            e = edge(p, c)
            reverse[e] = edge(c, p)
            if labels[c] is not None:
                side_labels[e] = labels[c]
            else:
                left[e], right[e] = (edge(c, w) for w in adj[c] if w != p)
    order = hung[:0:-1] + [top + v for v in hung[1:]]
    low = [0] * (2 * top)
    for e in order:
        a = left[e]
        if a == -1:
            low[e] = rank[side_labels[e]]
        else:
            b = right[e]
            if low[b] < low[a]:
                left[e], right[e] = b, a
                a = b
            low[e] = low[a]

    def leaf_row(label):
        row = [0] * top + [1] * top
        v = tree.leaf_node(label)
        while v != 0:
            row[v] = 1
            row[top + v] = 0
            v = par[v]
        return row

    outward = {labels[v]: edge(v, adj[v][0]) for v in range(top)
               if labels[v] is not None}
    leaves = [e for e in order if left[e] == -1]
    ids = [e for e in order if left[e] != -1]
    inner = (ids, [left[e] for e in ids], [right[e] for e in ids])
    return _Side(order, left, right, side_labels, leaf_row, reverse, leaves,
                 inner), outward


def _dense_rows(one, two):
    """Every row of the table over two sides' edges, each cell from the
    full recurrence: the best of the two child pairings and the four
    one-sided descents, with no short cut."""
    table = [None] * len(one.left)
    for u in one.order:
        a, b = one.left[u], one.right[u]
        if a == -1:
            table[u] = two.leaf_row(one.labels[u])
            continue
        ra, rb, row = table[a], table[b], [0] * len(two.left)
        for v in two.order:
            c, d = two.left[v], two.right[v]
            row[v] = max(ra[v], rb[v]) if c == -1 else max(
                ra[v], rb[v], row[c], row[d], ra[c] + rb[d], ra[d] + rb[c])
        table[u] = row
    return table


def _full_leaves(side1, side2, taxa):
    """The agreement list with the taxon it is built around last, from
    every row of the dense table over two sides' edges: the pick is the
    smallest taxon whose set is largest."""
    (one, out1), (two, out2) = side1, side2
    table = _dense_rows(one, two)
    size, pick = -1, taxa[0]
    for label in taxa:
        m = table[out1[label]][out2[label]]
        if m > size:
            size, pick = m, label
    return _backtrack(one, two, lambda u, v: table[u][v],
                      (out1[pick], out2[pick])) + [pick]


def _oracle_unrooted(tree1, tree2):
    """The full table's fill, pick and backtrack on the oracle's edges:
    the agreement set and the witness text."""
    taxa = tree1.sorted_taxa()
    rank = {label: i for i, label in enumerate(taxa)}
    leaves = _full_leaves(_oracle_edge_side(tree1, rank),
                          _oracle_edge_side(tree2, rank), taxa)
    return frozenset(leaves), write_newick(tree1.restrict(leaves))


def _far_sides(side, outward):
    """The edges of a side without their ids: each filled edge's far
    side with its children's far sides in order, and each taxon's
    outward edge's far side.  A child filled after its parent, or never,
    raises KeyError.  Each edge's reverse must hold the other taxa."""
    beyond, edges = {}, set()
    for e in side.order:
        a, b = side.left[e], side.right[e]
        if a == -1:
            beyond[e] = frozenset([side.labels[e]])
            edges.add((beyond[e], None))
        else:
            beyond[e] = beyond[a] | beyond[b]
            edges.add((beyond[e], (beyond[a], beyond[b])))
    assert len(edges) == len(side.order)
    taxa = frozenset(outward)
    assert all(beyond[side.reverse[e]] == taxa - beyond[e] for e in side.order)
    assert sum(r != -1 for r in side.reverse) == len(side.order)
    return edges, {label: beyond[e] for label, e in outward.items()}


def _reparsed(tree, seed):
    """``tree`` written from a seeded rooting and read back unrooted: a
    two-child top, suppressed by the reader."""
    edges = [(v, w) for v, nbrs in enumerate(tree.adj) for w in nbrs]
    rooting = root_at_edge(tree, edges[seed % len(edges)], SplitMix64(seed))
    return parse_newick(write_newick(rooting), rooted=False)


def _renamed(tree, name):
    return UnrootedTree(tree.adj, [None if label is None else name[label]
                                   for label in tree.labels])


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(MODELS + ("adversarial",)),
       n=st.integers(min_value=4, max_value=60),
       form=st.sampled_from(["plain", "reparsed", "renamed"]),
       seed=st.integers(0, 2**32))
def test_edge_sides_match_the_node_zero_oracle(model, n, form, seed):
    # The canonical rooting gives the same directed edges, child order
    # included, as hanging the tree from node 0 and ranking every pair,
    # so unrooted_mast's answer is the oracle's.
    if model in ("balanced", "adversarial"):
        n = 1 << (n.bit_length() - 1)
    if model == "adversarial":
        one, two = adversarial_pair(n)
    else:
        one = generate(GenSpec(model, n, seed))
        two = generate(GenSpec("uniform", n, seed ^ 0x9E3779B97F4A7C15))
    if form == "reparsed":
        one, two = _reparsed(one, seed), _reparsed(two, seed + 1)
    elif form == "renamed":
        # Non-decimal names in a seeded order: label order is not the
        # order of the nodes.
        taxa = sorted_labels(one.taxa)
        names = list(taxa)
        SplitMix64(seed).shuffle(names)
        name = {label: "t" + new for label, new in zip(taxa, names)}
        one, two = _renamed(one, name), _renamed(two, name)
    res = unrooted_mast(one, two)
    assert (res.agreement_set, write_newick(res.witness)) == \
        _oracle_unrooted(one, two)
    rank = {label: i for i, label in enumerate(one.sorted_taxa())}
    for tree in (one, two):
        side, outward = _edge_side(tree)
        want, want_outward = _oracle_edge_side(tree, rank)
        assert len(side.left) == len(want.left) == 4 * n - 4
        assert _far_sides(side, outward) == _far_sides(want, want_outward)


def _recording_fill(monkeypatch):
    """Every id the solver fills a row for, in order."""
    filled = []
    fill = exact._fill_rows

    def recording(one, two, table, ids):
        ids = list(ids)
        filled.extend(ids)
        fill(one, two, table, ids)

    monkeypatch.setattr(exact, "_fill_rows", recording)
    return filled


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("model", MODELS)
def test_unrooted_rows_on_demand_equal_the_full_table(model, swapped):
    # Filling only the rows that can be read gives the full table's
    # list, pick included, and witness, also where the smallest taxon
    # is in no maximum set and other taxa's root paths get filled.
    past_smallest = 0
    sample = [n for n in (4, 5, 6, 7, 8, 9, 12, 16, 23, 32, 47, 64)
              if model != "balanced" or n & (n - 1) == 0]
    for n in sample:
        for seed in range(8):
            one = generate(GenSpec(model, n, seed))
            two = generate(GenSpec("uniform", n, seed ^ 0x9E3779B97F4A7C15))
            if swapped:
                one, two = two, one
            want = _full_leaves(_edge_side(one), _edge_side(two),
                                one.sorted_taxa())
            assert unrooted_agreement_leaves(one, two) == want
            assert write_newick(unrooted_mast(one, two).witness) == \
                write_newick(one.restrict(want))
            past_smallest += want[-1] != one.sorted_taxa()[0]
    assert past_smallest >= len(sample)


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("model", MODELS + ("adversarial",))
def test_unrooted_row_fill_equals_the_dense_rows(model, swapped):
    # The fill's short cuts (leaf cells, cells whose one child shares no
    # taxon) give every cell of every row, edges down and up, that the
    # full recurrence gives; ids that stand for no edge stay 0.
    for n in (4, 5, 6, 7, 8, 9, 12, 16, 23, 32, 47, 64):
        if model in ("balanced", "adversarial") and n & (n - 1):
            continue
        for seed in range(1 if model == "adversarial" else 6):
            if model == "adversarial":
                one, two = adversarial_pair(n)
            else:
                one = generate(GenSpec(model, n, seed))
                two = generate(GenSpec("uniform", n, seed ^ 0x9E3779B97F4A7C15))
            if swapped:
                one, two = two, one
            (side1, _), (side2, _) = _edge_side(one), _edge_side(two)
            table = [None] * len(side1.left)
            _fill_rows(side1, side2, table, side1.order)
            assert table == _dense_rows(side1, side2)
            # Leaf rows included: each taxon's row is side2.leaf_row.
            no_edge = [v for v, r in enumerate(side2.reverse) if r == -1]
            assert len(no_edge) == 2
            assert all(table[u][v] == 0 for u in side1.order for v in no_edge)


def test_unrooted_fill_makes_only_the_canonical_rows_when_the_smallest_wins(
        monkeypatch):
    filled = _recording_fill(monkeypatch)
    one, two = adversarial_pair(64)
    leaves = unrooted_agreement_leaves(one, two)
    assert leaves[-1] == "1"
    # The canonical rooting has 2n - 1 nodes; each below its root is the
    # edge down into it, and fills one row.  No edge up fills one.
    assert sorted(filled) == list(range(2 * 64 - 2))


def test_unrooted_fill_walks_long_root_paths_at_the_cap(monkeypatch):
    # A caterpillar with shuffled labels: the taxa tried before the pick
    # sit deep on its spine, so their root paths are hundreds of edges
    # long.  They are filled without recursion, each row once.
    n = 1024
    cat = generate(GenSpec("caterpillar", n, 0))
    taxa = sorted_labels(cat.taxa)
    names = list(taxa)
    SplitMix64(1).shuffle(names)
    cat = _renamed(cat, dict(zip(taxa, names)))
    filled = _recording_fill(monkeypatch)
    res = unrooted_mast(cat, generate(GenSpec("uniform", n, 101)))
    assert res.size == len(res.agreement_set) > 1
    up = [u for u in filled if u >= 2 * n - 2]
    assert len(up) > n // 2 and len(set(filled)) == len(filled)


def test_unrooted_mast_leaves_no_cyclic_garbage():
    # No reference cycle holds the table: it is freed when the call
    # returns, not at the next collection.
    one = generate(GenSpec("uniform", 64, 1))
    two = generate(GenSpec("uniform", 64, 2))
    gc.collect()
    gc.disable()
    try:
        unrooted_mast(one, two)
        cyclic = gc.collect()
    finally:
        gc.enable()
    assert cyclic == 0
