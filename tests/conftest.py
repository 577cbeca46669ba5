"""Shared builders for the test suite.

Newick fragments are assembled textually; every helper returns a parsed
tree so tests stay independent of construction internals.  The one
exception is the ``forge_loop`` fixture, which swaps a construction loop
for one that returns a set that does not agree.
"""

import pytest

from mastkit import (
    BLOCK_TREE,
    ConstructionOutcome,
    UNROOTED_CATERPILLAR,
    construction,
    deroot,
    parse_newick,
    verify_outcome,
)
from mastkit.trees import rooted_from_arrays


def left_deep(labels):
    """Caterpillar nested on the left: (((a,b),c),d)."""
    text = labels[0]
    for label in labels[1:]:
        text = f"({text},{label})"
    return text


def right_deep(labels):
    """Caterpillar nested on the right: (a,(b,(c,d)))."""
    text = labels[-1]
    for label in reversed(labels[:-1]):
        text = f"({label},{text})"
    return text


def left_comb(parts):
    """Nest already-built subtree strings on the left."""
    text = parts[0]
    for part in parts[1:]:
        text = f"({text},{part})"
    return text


def right_comb(parts):
    """Nest already-built subtree strings on the right."""
    text = parts[-1]
    for part in reversed(parts[:-1]):
        text = f"({part},{text})"
    return text


def leaves_under(tree, node):
    """Leaf labels of the subtree at ``node`` of a rooted tree, in seq
    order: its preorder id range."""
    end = node + 2 * tree.leaf_counts()[node] - 1
    return tuple(lab for lab in tree.labels[node:end] if lab is not None)


def mirror(tree):
    """``tree`` with the child order of every internal node swapped."""
    return rooted_from_arrays(0, tree.right, tree.left, tree.labels)


def rooted(text):
    return parse_newick(text, rooted=True)


def unrooted(text):
    return parse_newick(text, rooted=False)


def block_comb_pair(total, block_size, sentinel="1", start=2):
    """An unrooted pair built from one chain of small aligned blocks.

    Tree one hangs the blocks off a left comb, tree two off a right comb,
    and both carry a sentinel leaf so canonical rooting lands on it.  The
    blocks read in the same label order in both trees.
    """
    labels = [str(i) for i in range(start, start + total)]
    blocks = [labels[i:i + block_size] for i in range(0, total, block_size)]
    one = rooted(f"({sentinel},{left_comb([left_deep(b) for b in blocks])});")
    two = rooted(f"({sentinel},{right_comb([left_deep(b) for b in blocks])});")
    return deroot(one), deroot(two)


@pytest.fixture
def forge_loop(monkeypatch):
    """``forge_loop("main")`` or ``forge_loop("weak")`` makes that loop
    return its whole core, main's as a block tree and weak's as an
    unrooted caterpillar, and asserts that the set does not agree, so
    only the certificate stands between the forgery and a report."""
    def forge(algorithm):
        kind = BLOCK_TREE if algorithm == "main" else UNROOTED_CATERPILLAR

        def loop(state, c):
            out = ConstructionOutcome(frozenset(state.taxa), kind, "forged", 0.0)
            assert not verify_outcome(state.tree1, state.tree2, out)
            return out

        monkeypatch.setattr(construction, f"_{algorithm}_loop", loop)
    return forge
