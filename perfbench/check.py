"""Independent checks of the CLI's outputs against the benchmark's inputs.

Nothing here trusts the CLI's own ``verified`` field: each agreement set
is restricted onto the original trees the benchmark generated (not onto
trees parsed back from the files the CLI read) and the restrictions are
tested for isomorphism.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import io

from mastkit.newick import parse_newick
from mastkit.rng import mix64
from mastkit.trees import isomorphic

# Pinned here rather than imported from the CLI, so a changed CSV layout
# fails the check instead of silently passing it.
GRID_FIELDS = ["n", "seed", "generator", "algorithm", "size", "kind",
               "branch", "verified", "millis"]


class CheckFailed(Exception):
    """An op's output does not hold up against its inputs."""


def parse_report(stdout: str) -> dict[str, str]:
    """The ``key: value`` lines the CLI prints for construct and exact."""
    report = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise CheckFailed(f"unexpected output line {line!r}")
        report[key] = value
    return report


def check_agreement(instance, report: dict[str, str]) -> int:
    """Check a reported agreement set on the instance; returns its size.

    ``instance`` gives the original trees through ``taxa``, ``rooted`` and
    ``restrict(k, leaves)`` for tree ``k`` in 0, 1.  The set must be
    non-empty, duplicate-free and inside the taxa, match the reported
    ``size``, and restrict both originals to isomorphic trees.  A reported
    ``witness`` must be isomorphic to that restriction; a reported
    ``verified`` must read ``true``.
    """
    for key in ("agreement", "size"):
        if key not in report:
            raise CheckFailed(f"report lacks {key!r}")
    leaves = report["agreement"].split()
    agreement = frozenset(leaves)
    if not leaves or len(agreement) != len(leaves):
        raise CheckFailed("agreement set is empty or repeats a taxon")
    if str(len(agreement)) != report["size"]:
        raise CheckFailed(f"size {report['size']} but {len(agreement)} taxa listed")
    if not agreement <= instance.taxa:
        raise CheckFailed("agreement set names taxa outside the inputs")
    restricted = instance.restrict(0, agreement)
    if not isomorphic(restricted, instance.restrict(1, agreement)):
        raise CheckFailed("the two restrictions are not isomorphic")
    if "witness" in report:
        witness = parse_newick(report["witness"], rooted=instance.rooted)
        if not isomorphic(witness, restricted):
            raise CheckFailed("witness differs from the restriction")
    if report.get("verified", "true") != "true":
        raise CheckFailed("the CLI reported verified: false")
    return len(agreement)


def expected_grid(n_min: int, n_max: int, cap: int, seed: int) -> list[tuple]:
    """``(n, seed, generator, algorithm)`` of every row the grid must hold."""
    rows = []
    n = n_min
    while n <= n_max:
        for model_index, model in enumerate(("uniform", "adversarial")):
            pair_seed = mix64(seed, n, model_index, 0)
            for algorithm in ("weak", "main", "exact_dp"):
                if algorithm != "exact_dp" or n <= cap:
                    rows.append((n, pair_seed, model, algorithm))
        n *= 2
    return rows


def check_grid(csv_text: str, expected: list[tuple]) -> list[int]:
    """Check an experiment CSV row by row; returns the ``size`` column.

    Rows must be exactly the expected instances, all ``verified=true``,
    with sizes in ``[1, n]`` and no construction larger than the exact
    optimum on the same instance.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != GRID_FIELDS:
        raise CheckFailed("grid CSV header is wrong")
    rows = rows[1:]
    if len(rows) != len(expected):
        raise CheckFailed(f"grid has {len(rows)} rows, expected {len(expected)}")
    sizes = []
    best: dict[tuple, int] = {}
    for row, (n, seed, model, algorithm) in zip(rows, expected):
        record = dict(zip(GRID_FIELDS, row))
        if (record["n"], record["seed"], record["generator"],
                record["algorithm"]) != (str(n), str(seed), model, algorithm):
            raise CheckFailed(f"unexpected grid row {row}")
        if record["verified"] != "true":
            raise CheckFailed(f"grid row not verified: {row}")
        size = int(record["size"])
        if not 1 <= size <= n:
            raise CheckFailed(f"grid size out of range: {row}")
        if algorithm == "exact_dp":
            best[(n, model)] = size
        sizes.append(size)
    for row, (n, _, model, algorithm) in zip(rows, expected):
        if (n, model) in best and int(row[4]) > best[(n, model)]:
            raise CheckFailed(f"construction beats the exact optimum: {row}")
    return sizes
