"""Parser and writer checks: frozen strings first, round trips second."""

import pytest
from hypothesis import given, settings, strategies as st

from mastkit import (
    NewickError,
    RootedTree,
    UnrootedTree,
    isomorphic,
    parse_newick,
    write_newick,
)
from mastkit.generators import GenSpec, generate


def test_rooted_parse_preserves_child_order():
    tree = parse_newick("(4,(3,(1,(2,5))));", rooted=True)
    assert isinstance(tree, RootedTree)
    assert tree.seq() == ("4", "3", "1", "2", "5")
    assert write_newick(tree) == "(4,(3,(1,(2,5))));"


def test_unrooted_quartet_parses_to_six_nodes():
    tree = parse_newick("((1,2),(3,4));", rooted=False)
    assert isinstance(tree, UnrootedTree)
    assert len(tree) == 4
    assert tree.num_nodes() == 6
    degrees = sorted(len(tree.adj[v]) for v in range(tree.num_nodes()))
    assert degrees == [1, 1, 1, 1, 3, 3]


def test_unrooted_writer_canonicalizes_two_child_top():
    # A two-child outer group is accepted; the writer re-emits the
    # standard three-child form rooted at an internal node.
    tree = parse_newick("((1,2),(3,4));", rooted=False)
    assert write_newick(tree) == "(1,2,(3,4));"


def test_single_leaf_and_cherry():
    for rooted in (True, False):
        one = parse_newick("1;", rooted=rooted)
        assert len(one) == 1 and write_newick(one) == "1;"
        two = parse_newick("(1,2);", rooted=rooted)
        assert len(two) == 2 and write_newick(two) == "(1,2);"


def test_unrooted_triple():
    tree = parse_newick("(1,2,3);", rooted=False)
    assert len(tree) == 3 and tree.num_nodes() == 4
    assert write_newick(tree) == "(1,2,3);"


def test_rooted_rejects_ternary_group():
    with pytest.raises(NewickError):
        parse_newick("(1,2,3);", rooted=True)


def test_unrooted_rejects_four_child_top():
    with pytest.raises(NewickError):
        parse_newick("(1,(2,3),(4,5),6);", rooted=False)


@pytest.mark.parametrize("text,position", [
    ("((1,2);", 0),
    ("(1,2));", 5),
    ("(1,,2);", 3),
    ("(1,1);", 3),
    ("(1,2)", 5),
    ("(1,2);x", 6),
    ("", 0),
])
def test_error_positions(text, position):
    with pytest.raises(NewickError) as err:
        parse_newick(text, rooted=False)
    assert err.value.position == position


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32))
def test_unrooted_round_trip(n, seed):
    tree = generate(GenSpec("uniform", n, seed))
    back = parse_newick(write_newick(tree), rooted=False)
    assert isomorphic(tree, back)
    assert back.taxa == tree.taxa


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=3, max_value=24), seed=st.integers(0, 2**32))
def test_rooted_round_trip_is_exact(n, seed):
    from mastkit import canonical_root_edge, root_at_edge
    base = generate(GenSpec("uniform", n, seed))
    tree = root_at_edge(base, canonical_root_edge(base))
    back = parse_newick(write_newick(tree), rooted=True)
    # Rooted writing preserves child order, so the string is a fixed point.
    assert back.seq() == tree.seq()
    assert write_newick(back) == write_newick(tree)
