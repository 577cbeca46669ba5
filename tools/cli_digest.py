"""Digest a fixed corpus of CLI commands, one line per command.

    python3 tools/cli_digest.py > digest.txt

Run it from any directory; it imports mastkit from this checkout's
``src/`` and from nowhere else.  It writes fixed-seed input trees to a
temporary directory, runs every command of the corpus through
``mastkit.cli.main`` in-process and prints, per command, the exit code,
the first 16 hex digits of the sha256 of stdout and of stderr, and the
argv (the temporary directory written as ``$DIR``, in outputs too).
The last line counts the commands per exit code.

The corpus covers ``construct`` (main and weak, each ``--C``, both
``--orient`` values, plain and ``--json``, uniform and adversarial pairs
at n = 4..4096, the adversarial pair with its caterpillar first and a
caterpillar against a uniform tree, trees of one to three taxa, block
chains that split and nest, and sentinel combs whose main chain exits
through each ``strong_split`` fallback), ``exact`` (unrooted,
``--rooted`` and brute, unrooted on 400 and ``--rooted`` on 320 small
inline pairs whose text is not in label order, so their tie-breaks show,
and ``--rooted`` on caterpillar-uniform and adversarial pairs at n = 64
and 256, each in both orders), ``exact`` and
``construct`` on texts with branch lengths, internal labels and
whitespace, ``verify`` with true and false claims, two ``experiment``
grids, ``gen`` for every model, and malformed trees and flags that exit
2, 3, 4 and 5.
Two checkouts give the same output exactly when every command gives the
same exit code and bytes, so a refactor is checked with::

    diff <(python3 A/tools/cli_digest.py) <(python3 B/tools/cli_digest.py)

``tests/cli_digest.txt`` pins the output at this checkout, and a tier-1
test reruns the tool in-process against it; a change that alters
outputs on purpose regenerates that file.  Only the standard library is
used.  ``--timing wall`` is left out: its output depends on the machine.
Usage errors are wrapped at 80 columns, whatever the terminal.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import io
import os
import re
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import mastkit  # noqa: E402
from mastkit import cli  # noqa: E402
from mastkit.generators import GenSpec, adversarial_pair, generate  # noqa: E402
from mastkit.newick import parse_newick, write_newick  # noqa: E402
from mastkit.rng import SplitMix64  # noqa: E402
from mastkit.trees import canonical_root_edge, deroot, root_at_edge  # noqa: E402

if os.path.dirname(os.path.abspath(mastkit.__file__)) != os.path.join(SRC, "mastkit"):
    raise ImportError(f"mastkit imported from {mastkit.__file__}, not from {SRC}")

UNIFORM_SIZES = (4, 5, 7, 12, 16, 33, 64, 100, 256, 512, 1024, 4096)
ADVERSARIAL_SIZES = (4, 8, 16, 32, 64, 256, 1024, 4096)
GEN_MODELS = ("uniform", "caterpillar", "balanced", "adversarial")
DECORATED_SIZES = (12, 64)  # uniform pairs also written with lengths and labels
ROOTED_SHAPE_SIZES = (64, 256)  # rooted caterpillar and adversarial pairs

# Malformed trees, each given as --t1 of construct with a good --t2.
BAD_TREES = (
    "(1,2;",
    "(1,2,3));",
    "((1,2),(3,4),(5,6),(7,8));",
    "(1,1,2,3);",
    "(1,2,(3,4)):x;",
    "(1,2,(3,4))",
    "(1,(2),3);",
    "(1,2,('3',4));",
    ";",
    "(1,2,(3,4)); extra",
)


def comb(parts: list[str], left: bool) -> str:
    """Subtree texts nested on the left, (((a,b),c),d), or on the right,
    (a,(b,(c,d)))."""
    if not left:
        parts = parts[::-1]
    text = parts[0]
    for part in parts[1:]:
        text = f"({text},{part})" if left else f"({part},{text})"
    return text


def block_combs(total: int, width: int, right_blocks: bool = False) -> tuple[str, str]:
    """Taxon 1 beside a chain of blocks of taxa 2, 3, ...: the blocks hang
    off a left comb in the first tree and a right comb in the second.
    Each block is a left caterpillar, or in the second tree with
    ``right_blocks`` a right one, so the nested constructions run."""
    labels = [str(i) for i in range(2, 2 + total)]
    blocks = [labels[i:i + width] for i in range(0, total, width)]
    one = comb([comb(b, True) for b in blocks], True)
    two = comb([comb(b, not right_blocks) for b in blocks], False)
    return f"(1,{one});", f"(1,{two});"


def sentinel_combs(parts1: list[str], parts2: list[str]) -> tuple[str, str]:
    """Taxon 0 beside a left comb of ``parts1`` in the first tree and a
    right comb of ``parts2`` in the second, each de-rooted and written as
    Newick.  Rooted at taxon 0, the two combs are the core pair of the
    test suite's hand-built strong_split states, one step in."""
    return tuple(write_newick(deroot(parse_newick(f"(0,{comb(parts, left)});",
                                                  rooted=True)))
                 for parts, left in ((parts1, True), (parts2, False)))


def sentinel_pairs() -> dict:
    """Sentinel combs whose main chain (default and ``--C 4``) exits at its
    second step through ``interval-sweep`` (200 single leaves),
    ``side-sweep`` (2-leaf blocks in the middle window) and
    ``transversal-exact`` (a 4-leaf block grazing the side window)."""
    labels = [str(i) for i in range(1, 201)]
    short = labels[:100]
    window = [comb(short[i:i + 2], True) for i in range(40, 60, 2)]
    side = short[:40] + window + short[60:]
    graze = short[:16] + [comb(short[16:20], True)] + short[20:40] \
        + window + short[60:]
    return {"sc-interval": sentinel_combs(labels, labels),
            "sc-side": sentinel_combs(side, side),
            "sc-graze": sentinel_combs(graze, side)}


def decorated(text: str) -> str:
    """``text`` with a branch length after every leaf, a label and a
    length after every group, and spaces, tabs and newlines between
    tokens: the reader discards all three."""
    out, groups = [], 0
    for i, tok in enumerate(re.findall(r"[(),;]|[^(),;]+", text)):
        if tok == ")":
            groups += 1
            tok = f") n{groups} :{groups}.5e-1"
        elif tok not in ("(", ",", ";"):
            tok = f"{tok}:0.{len(tok)}"
        out.append(("", " ", "\t", "\n ")[i % 4] + tok)
    return "".join(out)


def reordered(tree, seed: int) -> str:
    """``tree`` as the text of its rooting at a seeded edge, each child
    pair flipped on a seeded coin: read unrooted, its neighbor lists are
    not in label order, as those of ``write_newick``'s own form are."""
    edges = [(v, w) for v, nbrs in enumerate(tree.adj) for w in nbrs]
    return write_newick(root_at_edge(tree, edges[seed % len(edges)], SplitMix64(seed)))


def write_inputs(d: str) -> dict:
    """The input trees as files under ``d``; returns name -> path."""
    paths = {}

    def put(name: str, text: str) -> None:
        paths[name] = os.path.join(d, name + ".nwk")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    for n in UNIFORM_SIZES:
        one = generate(GenSpec("uniform", n, 100 + n))
        two = generate(GenSpec("uniform", n, 200 + n))
        put(f"u{n}a", write_newick(one))
        put(f"u{n}b", write_newick(two))
        if n <= 1024:  # a two-child top: the rooted text, read unrooted
            put(f"r{n}a", write_newick(root_at_edge(one, canonical_root_edge(one))))
            put(f"r{n}b", write_newick(root_at_edge(two, canonical_root_edge(two))))
        if n in DECORATED_SIZES:
            for src in ("u", "r"):
                for side in ("a", "b"):
                    with open(paths[f"{src}{n}{side}"], encoding="utf-8") as fh:
                        put(f"d{src}{n}{side}", decorated(fh.read().strip()))
    for n in ADVERSARIAL_SIZES:
        one, two = adversarial_pair(n)
        put(f"a{n}a", write_newick(one))
        put(f"a{n}b", write_newick(two))
    for name, pair in (("bc200", block_combs(200, 8)), ("bc60", block_combs(60, 3)),
                       ("nc200", block_combs(200, 8, right_blocks=True))):
        put(name + "a", pair[0])
        put(name + "b", pair[1])
    for name, pair in sentinel_pairs().items():
        put(name + "a", pair[0])
        put(name + "b", pair[1])
    put("c64", write_newick(generate(GenSpec("caterpillar", 64))))
    for n in ROOTED_SHAPE_SIZES:  # canonically rooted, for exact --rooted
        caterpillar = generate(GenSpec("caterpillar", n))
        put(f"rc{n}", write_newick(root_at_edge(caterpillar,
                                                canonical_root_edge(caterpillar))))
        for side, tree in zip("ab", adversarial_pair(n)):
            put(f"ra{n}{side}", write_newick(root_at_edge(tree, canonical_root_edge(tree))))
    put("x4", "(1,2,(3,5));")
    return paths


def corpus(p: dict, d: str) -> list[list[str]]:
    cmds: list[list[str]] = []
    pairs = [(f"u{n}a", f"u{n}b") for n in UNIFORM_SIZES]
    pairs += [(f"a{n}a", f"a{n}b") for n in ADVERSARIAL_SIZES]
    pairs += [("r64a", "r64b"), ("r1024a", "u1024b")]
    for one, two in pairs:
        for algorithm in ("main", "weak"):
            for c in (None, "2", "4", "40"):
                for orient in ("min_label", "random"):
                    for js in (False, True):
                        cmd = ["construct", "--t1", p[one], "--t2", p[two],
                               "--algorithm", algorithm]
                        if c is not None:
                            cmd += ["--C", c]
                        if orient == "random":
                            cmd += ["--orient", "random", "--seed", "9"]
                        if js:
                            cmd.append("--json")
                        cmds.append(cmd)
    # construct on up to three taxa, and on block chains that split
    # and nest.
    for n in (1, 2, 3):
        text = write_newick(generate(GenSpec("uniform", n, 1)))
        cmds.append(["construct", "--t1", text, "--t2", text])
        cmds.append(["construct", "--t1", text, "--t2", text, "--json"])
    cmds.append(["construct", "--t1", "(1,2,3);", "--t2", "(1,2,4);"])
    for one, two in (("bc200a", "bc200b"), ("bc60b", "bc60a"), ("nc200a", "nc200b")):
        for c in ([], ["--C", "4"]):
            cmds.append(["construct", "--t1", p[one], "--t2", p[two]] + c)
    # Main chains that exit through each strong_split fallback.
    for name in sentinel_pairs():
        for c in ([], ["--C", "4"]):
            for js in ([], ["--json"]):
                cmds.append(["construct", "--t1", p[name + "a"],
                             "--t2", p[name + "b"]] + c + js)
    # The caterpillar as --t1, so the pair finders scan tree2's pieces.
    swapped = [(f"a{n}b", f"a{n}a") for n in ADVERSARIAL_SIZES if 16 <= n <= 1024]
    for one, two in swapped + [("c64", "u64b"), ("u64b", "c64")]:
        for algorithm in ("main", "weak"):
            cmds.append(["construct", "--t1", p[one], "--t2", p[two],
                         "--algorithm", algorithm])
    # Branch lengths, internal labels and whitespace, which the reader drops.
    for n in DECORATED_SIZES:
        cmds.append(["exact", "--t1", p[f"du{n}a"], "--t2", p[f"du{n}b"]])
        cmds.append(["exact", "--rooted", "--t1", p[f"dr{n}a"],
                     "--t2", p[f"dr{n}b"]])
        for algorithm in ("main", "weak"):
            cmds.append(["construct", "--t1", p[f"du{n}a"], "--t2", p[f"dr{n}b"],
                         "--algorithm", algorithm])
    for one, two in (("((1:0.5,2:1e-3)a:2,(3 ,4 )b:0.25, 5);",
                      "(1:1,(2,3)x:0.5,(4,5)y);"),
                     ("((1,2) x :1, 3, (4,(5,6)) inner) top ;",
                      "(1:+1.5E-2,2:-3,((3:.5,4:7.)z,(5,6)w)v);")):
        cmds.append(["exact", "--t1", one, "--t2", two])
        cmds.append(["construct", "--t1", one, "--t2", two, "--json"])
    # exact: unrooted dp, rooted dp and brute force.
    for n in (4, 5, 7, 12, 16, 33, 64, 100, 256):
        for js in ([], ["--json"]):
            cmds.append(["exact", "--t1", p[f"u{n}a"], "--t2", p[f"u{n}b"]] + js)
    for n in (4, 8, 16, 64, 256):
        cmds.append(["exact", "--t1", p[f"a{n}a"], "--t2", p[f"a{n}b"]])
    # Small inline pairs, where the unrooted dp's tie-breaks show.
    for n in range(5, 13):
        caterpillar = generate(GenSpec("caterpillar", n))
        for s in range(1, 26):
            one = reordered(generate(GenSpec("uniform", n, 2 * s + 1)), 2 * s + 1)
            two = reordered(generate(GenSpec("uniform", n, 2 * s + 2)), 2 * s + 2)
            cmds.append(["exact", "--t1", one, "--t2", two])
            cmds.append(["exact", "--t1", one, "--t2", reordered(caterpillar, s)])
    for n in (4, 12, 64, 512, 1024):
        for js in ([], ["--json"]):
            cmds.append(["exact", "--rooted", "--t1", p[f"r{n}a"],
                         "--t2", p[f"r{n}b"]] + js)
    # Small inline rooted pairs, where the rooted dp's tie-breaks show,
    # each in both orders.
    for n in range(5, 13):
        caterpillar = generate(GenSpec("caterpillar", n))
        for s in range(1, 11):
            one = reordered(generate(GenSpec("uniform", n, 2 * s + 1)), 2 * s + 1)
            two = reordered(generate(GenSpec("uniform", n, 2 * s + 2)), 2 * s + 2)
            for pair in ((one, two), (one, reordered(caterpillar, s))):
                for first, second in (pair, pair[::-1]):
                    cmds.append(["exact", "--rooted", "--t1", first, "--t2", second])
    # Rooted caterpillar against uniform, and the adversarial pair, each
    # in both orders.
    for n in ROOTED_SHAPE_SIZES:
        for pair in ((f"rc{n}", f"r{n}b"), (f"ra{n}a", f"ra{n}b")):
            for first, second in (pair, pair[::-1]):
                cmds.append(["exact", "--rooted", "--t1", p[first], "--t2", p[second]])
    for n in (4, 5, 7):
        cmds.append(["exact", "--method", "brute", "--t1", p[f"u{n}a"],
                     "--t2", p[f"u{n}b"]])
        cmds.append(["exact", "--method", "brute", "--rooted",
                     "--t1", p[f"r{n}a"], "--t2", p[f"r{n}b"]])
    # verify: true claims (exit 0) and false ones (exit 5).
    for n in (5, 12, 64):
        for leaves in ("1", "1,2,3", "1,2,3,4", "2,4,6,8,10",
                       ",".join(str(i) for i in range(1, n + 1))):
            for rooted in (False, True):
                src = "r" if rooted else "u"
                cmd = ["verify", "--t1", p[f"{src}{n}a"], "--t2",
                       p[f"{src}{n}b"], "--leaves", leaves]
                cmds.append(cmd + (["--rooted"] if rooted else []))
        cmds.append(["verify", "--t1", p[f"u{n}a"], "--t2", p[f"u{n}a"],
                     "--leaves", ",".join(str(i) for i in range(1, n + 1)),
                     "--json"])
    # experiment grids.
    cmds.append(["experiment", "--n-min", "16", "--n-max", "1024",
                 "--trials", "2", "--seed", "7", "--cap", "64"])
    cmds.append(["experiment", "--n-min", "4", "--n-max", "256",
                 "--trials", "3", "--seed", "3", "--cap", "0",
                 "--models", "uniform", "--json"])
    # gen for every model.
    for model in GEN_MODELS:
        for n in (1, 2, 3, 4, 8, 64):
            for seed in ("1", "5"):
                cmds.append(["gen", "--model", model, "--n", str(n),
                             "--seed", seed])
    # Malformed trees and bad flags.
    good = p["u12b"]
    for text in BAD_TREES:
        cmds.append(["construct", "--t1", text, "--t2", good])
    cmds += [
        [],
        ["construct"],
        ["construct", "--t1", p["u12a"], "--t2", good, "--bogus"],
        ["construct", "--t1", p["u12a"], "--t2", good, "--orient", "up"],
        ["construct", "--t1", p["u12a"], "--t2", good, "--C", "x"],
        ["construct", "--t1", p["u12a"], "--t2", good, "--C", "1"],
        ["construct", "--t1", p["u12a"], "--t2", good, "--C", "-3"],
        ["construct", "--t1", os.path.join(d, "missing.nwk"), "--t2", good],
        ["construct", "--t1", "", "--t2", good],
        ["construct", "--t1", p["u4a"], "--t2", p["x4"]],
        ["construct", "--t1", p["u12a"], "--t2", p["u16b"]],
        ["exact", "--t1", p["u12a"], "--t2", good, "--cap", "3"],
        ["exact", "--t1", p["u12a"], "--t2", good, "--cap", "-1"],
        ["exact", "--method", "brute", "--t1", p["u12a"], "--t2", good],
        ["exact", "--rooted", "--t1", p["u12a"], "--t2", good],
        ["verify", "--t1", p["u12a"], "--t2", good, "--leaves", ","],
        ["verify", "--t1", p["u12a"], "--t2", good, "--leaves", "1,99"],
        ["experiment", "--n-min", "3", "--n-max", "8"],
        ["experiment", "--n-min", "4", "--n-max", "8", "--trials", "0"],
        ["experiment", "--n-min", "4", "--n-max", "8", "--models", ","],
        ["experiment", "--n-min", "4", "--n-max", "8", "--models", "nope"],
        ["experiment", "--n-min", "6", "--n-max", "12"],
        ["experiment", "--n-min", "4", "--n-max", "8", "--step-factor", "1"],
        ["gen", "--model", "uniform", "--n", "0"],
        ["gen", "--model", "balanced", "--n", "6"],
        ["gen", "--model", "adversarial", "--n", "3"],
        ["gen", "--model", "uniform", "--n", "4",
         "--out", os.path.join(d, "no-such-dir", "t.nwk")],
    ]
    return cmds


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse's usage errors
            code = stop.code if isinstance(stop.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    os.environ.pop("MASTKIT_SEED", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps usage errors to the terminal
    codes: collections.Counter = collections.Counter()
    with tempfile.TemporaryDirectory() as d:
        paths = write_inputs(d)
        for argv in corpus(paths, d):
            code, out, err = run(argv)
            codes[code] += 1
            digests = [hashlib.sha256(s.replace(d, "$DIR").encode()).hexdigest()[:16]
                       for s in (out, err)]
            shown = shlex.join(argv).replace(d, "$DIR")
            print(code, *digests, shown)
    print("# commands per exit code:",
          " ".join(f"{code}:{count}" for code, count in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
