"""Seeded tree generators for tests and experiments.

All generators are deterministic functions of their spec: the same model,
size, and seed always produce the same tree, node ids included.  Labels
are the decimal strings "1".."n".
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import SplitMix64
from .trees import TreeError, UnrootedTree, unrooted_from_edges

MODELS = ("uniform", "caterpillar", "balanced")


@dataclass(frozen=True)
class GenSpec:
    model: str
    n: int
    seed: int = 0


def _labels(n: int) -> list[str]:
    return [str(i) for i in range(1, n + 1)]


def _uniform(n: int, seed: int) -> UnrootedTree:
    # Attaching each new leaf to a uniformly chosen existing edge makes
    # every binary shape on the labels equally likely: a shape on k leaves
    # arises from exactly one shape on k-1 leaves and one of its 2k-5
    # edges, matching the (2n-5)!! count.
    rng = SplitMix64(seed)
    order = _labels(n)
    rng.shuffle(order)
    labels: list = [order[0], order[1]]
    edges: list[tuple[int, int]] = [(0, 1)]
    for i in range(2, n):
        pick = rng.randrange(len(edges))
        u, v = edges[pick]
        mid = len(labels)
        labels.append(None)
        leaf = len(labels)
        labels.append(order[i])
        edges[pick] = (u, mid)
        edges.append((mid, v))
        edges.append((mid, leaf))
    return unrooted_from_edges(len(labels), edges, labels)


def _caterpillar(n: int) -> UnrootedTree:
    # Spine reads the labels in numeric order end to end.
    labels: list = _labels(n)
    if n == 2:
        return unrooted_from_edges(2, [(0, 1)], labels)
    labels += [None] * (n - 2)
    edges = [(0, n), (1, n), (n - 1, 2 * n - 3)]
    for j in range(1, n - 2):
        spine = n + j
        edges.append((spine - 1, spine))
        edges.append((j + 1, spine))
    return unrooted_from_edges(2 * n - 2, edges, labels)


def _balanced(n: int) -> UnrootedTree:
    if n & (n - 1) or n < 1:
        raise TreeError("balanced shape needs a power-of-two leaf count")
    # Heap layout with the root suppressed: node i >= 2 hangs below
    # i // 2 - 1, the root's children 0 and 1 are joined last, and the
    # leaves n-2..2n-3 carry the labels left to right.
    edges = [(i, i // 2 - 1) for i in range(2, 2 * n - 2)] + [(0, 1)]
    return unrooted_from_edges(2 * n - 2, edges, [None] * (n - 2) + _labels(n))


def generate(spec: GenSpec) -> UnrootedTree:
    """Build the tree a spec describes."""
    if spec.n < 1:
        raise TreeError("need at least one taxon")
    if spec.n == 1 and spec.model in MODELS:
        return unrooted_from_edges(1, [], _labels(1))  # the same in every model
    if spec.model == "uniform":
        return _uniform(spec.n, spec.seed)
    if spec.model == "caterpillar":
        return _caterpillar(spec.n)
    if spec.model == "balanced":
        return _balanced(spec.n)
    raise TreeError(f"unknown model {spec.model!r}")


def adversarial_pair(n: int) -> tuple[UnrootedTree, UnrootedTree]:
    """The hard instance: a balanced tree against a caterpillar.

    Their maximum agreement is O(log n), so constructions can be checked
    against a matching upper bound.  ``n`` must be a power of two, at
    least 4.
    """
    if n < 4 or n & (n - 1):
        raise TreeError("adversarial pair needs a power-of-two size, at least 4")
    return _balanced(n), _caterpillar(n)
