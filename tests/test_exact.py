"""Exact solver checks: frozen instances, then brute-force equivalence."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from mastkit import (
    TaxaMismatch,
    adversarial_pair,
    canonical_root_edge,
    isomorphic,
    parse_newick,
    root_at_edge,
    sorted_labels,
    write_newick,
)
from mastkit.exact import (
    SizeCapExceeded,
    brute_force_mast,
    rooted_mast,
    unrooted_mast,
)
from mastkit.generators import MODELS, GenSpec, generate

from conftest import rooted, unrooted


def test_three_leaf_rooted_disagreement():
    res = rooted_mast(rooted("((1,2),3);"), rooted("((1,3),2);"))
    assert res.size == 2
    assert res.agreement_set == frozenset({"2", "3"})
    assert write_newick(res.witness) == "(2,3);"


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
@given(n=st.integers(min_value=3, max_value=7), seed=st.integers(0, 2**32))
def test_rooted_dp_equals_brute_force(n, seed):
    a = generate(GenSpec("uniform", n, seed))
    b = generate(GenSpec("uniform", n, seed + 1))
    ra = root_at_edge(a, canonical_root_edge(a))
    rb = root_at_edge(b, canonical_root_edge(b))
    dp = rooted_mast(ra, rb)
    best = dp.size
    # Brute force over the rooted restrictions directly.
    from itertools import combinations
    labels = sorted(ra.taxa)
    found = 0
    for k in range(n, 0, -1):
        for sub in combinations(labels, k):
            cut = frozenset(sub)
            if isomorphic(ra.restrict(cut), rb.restrict(cut)):
                found = k
                break
        if found:
            break
    assert best == found


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
