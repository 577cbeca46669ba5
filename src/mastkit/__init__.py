"""mastkit: build, verify, and measure agreement subtrees of binary
phylogenetic trees.

The package splits into small layers: :mod:`mastkit.trees` holds the tree
types and their operations, :mod:`mastkit.newick` the serialization,
:mod:`mastkit.exact` the exact solvers, :mod:`mastkit.construction` the
logarithmic lower-bound constructions, :mod:`mastkit.generators` the
seeded instance generators, and :mod:`mastkit.cli` the command-line
harness.
"""

from .construction import (
    BLOCK_TREE,
    CertificationError,
    ConstructionOutcome,
    GoodPair,
    IncomparableSplit,
    IterationState,
    PathDecomposition,
    Piece,
    ROOTED_CATERPILLAR,
    UNROOTED_CATERPILLAR,
    common_monotone_subsequence,
    construct,
    find_good_pair_big_subtree,
    find_good_pair_structural,
    greedy_caterpillar,
    main_construct,
    path_decomposition,
    setup,
    strong_split,
    verify_outcome,
    weak_construct,
)
from .exact import (
    MastResult,
    SizeCapExceeded,
    brute_force_mast,
    rooted_mast,
    unrooted_mast,
)
from .generators import GenSpec, MODELS, adversarial_pair, generate
from .newick import NewickError, parse_newick, write_newick
from .rng import SplitMix64, mix64
from .trees import (
    RootedTree,
    TaxaMismatch,
    TreeError,
    UnrootedTree,
    canonical_root_edge,
    deroot,
    is_caterpillar,
    isomorphic,
    label_key,
    root_at_edge,
    sorted_labels,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_TREE",
    "CertificationError",
    "ConstructionOutcome",
    "GenSpec",
    "GoodPair",
    "IncomparableSplit",
    "IterationState",
    "MODELS",
    "MastResult",
    "NewickError",
    "PathDecomposition",
    "Piece",
    "ROOTED_CATERPILLAR",
    "RootedTree",
    "SizeCapExceeded",
    "SplitMix64",
    "TaxaMismatch",
    "TreeError",
    "UNROOTED_CATERPILLAR",
    "UnrootedTree",
    "adversarial_pair",
    "brute_force_mast",
    "canonical_root_edge",
    "common_monotone_subsequence",
    "construct",
    "deroot",
    "find_good_pair_big_subtree",
    "find_good_pair_structural",
    "generate",
    "greedy_caterpillar",
    "is_caterpillar",
    "isomorphic",
    "label_key",
    "main_construct",
    "mix64",
    "parse_newick",
    "path_decomposition",
    "root_at_edge",
    "rooted_mast",
    "setup",
    "sorted_labels",
    "strong_split",
    "unrooted_mast",
    "verify_outcome",
    "weak_construct",
    "write_newick",
]
