"""A fixed reference workload that measures how fast the machine is now.

The benchmark runs on shared machines whose speed drifts by up to half
for seconds to minutes at a time, which moves every wall-clock figure
more than any bound worth having.  So the benchmark times a reference
workload next to each op and set-up step, and reports each of those
times scaled to a machine on which the reference takes
:data:`REFERENCE_S` seconds.  Raw wall-clock figures are printed too
(see ``run.py``).

The reference uses only the standard library and never changes with
mastkit, so a change to mastkit moves the scaled figures and a change in
machine load does not.  It tracks the workloads only as far as it slows
down alike under load, so it does the kind of work they do: it fills a
max-plus table over two random rooted binary trees of 400 leaves row by
row, as the exact agreement DP does, in tight interpreter loops over
lists.  A kernel with a working set of megabytes (say, growing a tree of
16384 leaves by edge insertion) does not do: under cache contention from
other tenants it slows down about twice as much as the workloads do, and
scaling by it adds more noise than it removes.
"""

from __future__ import annotations

import random
from time import perf_counter

# Nominal reference time: the scale of every reported time.  The value is
# arbitrary; it is close to what the workload takes on a quiet 2.1 GHz Xeon
# running Python 3.11.
REFERENCE_S = 0.05

_LEAVES = 400


def _random_rooted(leaves: int, rng: random.Random) -> tuple[list[int], list[int]]:
    """Child arrays of a random rooted binary tree, numbered in postorder
    (leaves first, each internal node after both its children)."""
    left = [-1] * leaves
    right = [-1] * leaves
    roots = list(range(leaves))
    while len(roots) > 1:
        a = roots.pop(rng.randrange(len(roots)))
        b = roots.pop(rng.randrange(len(roots)))
        roots.append(len(left))
        left.append(a)
        right.append(b)
    return left, right


def reference_work() -> int:
    rng = random.Random(11)
    left1, right1 = _random_rooted(_LEAVES, rng)
    left2, right2 = _random_rooted(_LEAVES, rng)
    size = len(left2)
    parent2 = [-1] * size
    for v in range(_LEAVES, size):
        parent2[left2[v]] = parent2[right2[v]] = v
    match = list(range(_LEAVES))
    rng.shuffle(match)
    table: list[list[int]] = []
    for u in range(len(left1)):
        row = [0] * size
        if left1[u] == -1:
            v = match[u]
            while v != -1:
                row[v] = 1
                v = parent2[v]
        else:
            ra, rb = table[left1[u]], table[right1[u]]
            for v in range(size):
                x, y = ra[v], rb[v]
                best = x if x >= y else y
                c = left2[v]
                if c != -1:
                    d = right2[v]
                    z = row[c]
                    if z > best:
                        best = z
                    z = row[d]
                    if z > best:
                        best = z
                    z = ra[c] + rb[d]
                    if z > best:
                        best = z
                    z = ra[d] + rb[c]
                    if z > best:
                        best = z
                row[v] = best
        table.append(row)
    return table[-1][-1]


def reference_seconds() -> float:
    """Wall-clock time of one run of the reference workload."""
    start = perf_counter()
    reference_work()
    return perf_counter() - start
