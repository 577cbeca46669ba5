"""The benchmark's workloads: inputs made from the seed, CLI argv per op,
and the independent check of each op's output.

Uniform pairs are expensive to generate and write at n = 16384, so each
workload generates one base pair per seed and derives its instances by
relabeling: instance ``i`` applies an independent seeded permutation of
the taxa to each base tree.  A relabeled uniform tree is again uniform,
so every instance is distributed as a fresh independent uniform pair,
while set-up pays for one generation instead of one per instance.  Both
trees are relabeled because the constructions root and order by the
smallest label, so a tree kept as generated would repeat its choices in
every instance.

Each workload has ``count`` instances, cycled in order by op index.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import Optional

from check import check_agreement, check_grid, expected_grid, parse_report
from mastkit.generators import GenSpec, adversarial_pair, generate
from mastkit.newick import parse_newick, write_newick
from mastkit.rng import mix64
from mastkit.trees import RootedTree, canonical_root_edge, root_at_edge

_LABEL = re.compile(r"[^(),;]+")


class NewickTemplate:
    """A Newick string written by ``write_newick``, with its labels cut
    out so that renamed copies are cheap to render."""

    def __init__(self, text: str):
        self.labels = _LABEL.findall(text)
        self.template = _LABEL.sub("{}", text)

    def render(self, mapping: Optional[dict[str, str]]) -> str:
        """The string with every label renamed (``None`` renames none)."""
        if mapping is None:
            return self.template.format(*self.labels)
        return self.template.format(*[mapping[x] for x in self.labels])


def label_map(taxa, seed: int) -> dict[str, str]:
    """A seeded permutation of ``taxa``, as old label -> new label.

    Uses the standard library's generator, which shuffles 16384 labels
    about three times faster than SplitMix64 and so keeps the
    benchmark's own share of set-up small.
    """
    labels = sorted(taxa)
    shuffled = list(labels)
    random.Random(seed).shuffle(shuffled)
    return dict(zip(labels, shuffled))


@dataclass(frozen=True)
class PairInstance:
    """One input pair: the files the CLI reads and how they were made.

    ``base`` holds the generated trees and ``map_seeds`` the seed of the
    relabeling applied to each (``None`` keeps the generated labels).
    Only seeds are kept: a set of label maps at n = 16384 would add tens
    of megabytes to the peak memory the benchmark reports.
    """

    paths: tuple[str, str]
    base: tuple
    map_seeds: tuple[Optional[int], Optional[int]]

    def mapping(self, k: int) -> Optional[dict[str, str]]:
        seed = self.map_seeds[k]
        return None if seed is None else label_map(self.base[k].taxa, seed)

    @property
    def rooted(self) -> bool:
        return isinstance(self.base[0], RootedTree)

    @property
    def taxa(self) -> frozenset[str]:
        return self.base[0].taxa

    def restrict(self, k: int, leaves) -> object:
        """Tree ``k`` of the instance restricted to ``leaves``.

        Restricts the generated tree to the pre-image of ``leaves`` and
        renames the (small) result, so the full relabeled tree is never
        built.
        """
        mapping = self.mapping(k)
        if mapping is None:
            return self.base[k].restrict(leaves)
        inverse = {new: old for old, new in mapping.items()}
        small = self.base[k].restrict(inverse[x] for x in leaves)
        return parse_newick(NewickTemplate(write_newick(small)).render(mapping),
                            rooted=self.rooted)


def uniform_pair(n: int, seed: int) -> tuple:
    return tuple(generate(GenSpec("uniform", n, mix64(seed, k))) for k in (1, 2))


def rooted_uniform_pair(n: int, seed: int) -> tuple:
    return tuple(root_at_edge(t, canonical_root_edge(t)) for t in uniform_pair(n, seed))


class PairWorkload:
    """Ops that run one CLI command on stored pairs.

    ``bases(seed)`` returns ``(pair, relabel)`` entries; instance ``i``
    derives from entry ``i % len(bases)``, relabeled if ``relabel``.
    """

    name = ""
    command: tuple[str, ...] = ()
    count = 12
    smoke_size = 0  # n for a fast smoke run of the workload

    def __init__(self, n: int):
        self.n = n
        self.seed = 0
        self.instances: list[PairInstance] = []
        self._verified: dict[tuple[int, str], int] = {}

    def bases(self, seed: int) -> list[tuple[tuple, bool]]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        bases = [(pair, relabel, [NewickTemplate(write_newick(t)) for t in pair])
                 for pair, relabel in self.bases(seed)]
        self.instances = []
        for i in range(self.count):
            pair, relabel, templates = bases[i % len(bases)]
            instance = PairInstance(
                tuple(os.path.join(workdir, f"{i}-{k}.nwk") for k in (1, 2)),
                pair, tuple(mix64(seed, i, k) if relabel else None for k in (1, 2)))
            for k, template in enumerate(templates):
                with open(instance.paths[k], "w", encoding="utf-8") as fh:
                    fh.write(template.render(instance.mapping(k)))
            self.instances.append(instance)

    def argv(self, op: int) -> list[str]:
        p1, p2 = self.instances[op % self.count].paths
        return [*self.command, "--t1", p1, "--t2", p2]

    def collect(self, op: int) -> None:
        return None

    def check(self, op: int, stdout: str, collected) -> list[int]:
        # Identical output on an instance already checked needs no recheck.
        index = op % self.count
        key = (index, stdout)
        if key not in self._verified:
            self._verified[key] = check_agreement(self.instances[index],
                                                  parse_report(stdout))
        return [self._verified[key]]


class ConstructLarge(PairWorkload):
    name = "construct-large"
    smoke_size = 64
    # Output sizes spread widely between labelings (about 28% standard
    # deviation), so many instances keep the per-seed mean steady; every
    # instance runs in each run, so no more than a loaded machine gets
    # through in a run.
    count = 32

    def __init__(self, n: int = 16384):
        super().__init__(n)

    @property
    def command(self):
        return ("construct", "--seed", str(self.seed))

    def bases(self, seed):
        return [(uniform_pair(self.n, seed), True)]


class ExactUnrooted(PairWorkload):
    name = "exact-unrooted"
    smoke_size = 16
    command = ("exact",)

    def __init__(self, n: int = 128):
        super().__init__(n)

    def bases(self, seed):
        return [(uniform_pair(self.n, seed), True),
                (adversarial_pair(self.n), False)]


class ExactRooted(PairWorkload):
    name = "exact-rooted"
    smoke_size = 64
    command = ("exact", "--rooted")
    count = 8

    def __init__(self, n: int = 2048):
        super().__init__(n)

    def bases(self, seed):
        return [(rooted_uniform_pair(self.n, seed), True)]


class ExperimentGrid:
    """One op is a whole ``experiment`` grid.  Its seed comes from the
    workload seed and the instance index, and the op generates its pairs
    from it."""

    name = "experiment-grid"
    smoke_size = 64
    n_min = 16
    cap = 32
    count = 8

    def __init__(self, n_max: int = 4096):
        self.n_max = n_max
        self.seed = 0
        self.out = ""

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.out = os.path.join(workdir, "grid.csv")

    def op_seed(self, op: int) -> int:
        return mix64(self.seed, op % self.count)

    def argv(self, op: int) -> list[str]:
        return ["experiment", "--n-min", str(self.n_min),
                "--n-max", str(self.n_max), "--trials", "1",
                "--cap", str(self.cap), "--seed", str(self.op_seed(op)),
                "--out", self.out]

    def collect(self, op: int) -> Optional[str]:
        # Removing the file keeps a failed op from showing an earlier CSV.
        try:
            with open(self.out, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            return None
        os.remove(self.out)
        return text

    def check(self, op: int, stdout: str, collected) -> list[int]:
        expected = expected_grid(self.n_min, self.n_max, self.cap,
                                 self.op_seed(op))
        return check_grid(collected or "", expected)


WORKLOADS = {cls.name: cls for cls in
             (ConstructLarge, ExactUnrooted, ExactRooted, ExperimentGrid)}
