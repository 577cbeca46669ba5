"""Command-line harness: construct, exact, verify, gen, experiment.

Inputs are Newick strings (any argument containing ';') or paths to
Newick files.  All randomness flows from --seed (or MASTKIT_SEED), so
identical invocations produce byte-identical output; the experiment
subcommand keeps its millis column at 0 unless --timing wall is given,
for the same reason.  ``main`` reads MASTKIT_SEED on every call, and a
process builds one argument parser, plus one more each time it sees
the variable change.

Exit codes: 0 success, 2 parse or usage failure (an --out file that
cannot be written included), 3 taxon-set mismatch, 4 size cap exceeded,
5 verification failure (a result failing its own certification exits 5:
``construct`` prints no report, ``experiment`` no row for that run but
keeps the verified rows written before it).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time
from typing import Optional

from .construction import (
    CertificationError,
    ConstructionOutcome,
    UNROOTED_CATERPILLAR,
    certified,
    construct,
    setup,
    verify_outcome,
)
from .exact import (
    EXACT,
    ROOTED_DP_CAP,
    UNROOTED_DP_CAP,
    SizeCapExceeded,
    _check_pair,
    brute_force_mast,
    rooted_mast,
    unrooted_mast,
)
from .generators import GenSpec, MODELS, adversarial_pair, generate
from .newick import NewickError, parse_newick, write_newick
from .rng import SplitMix64, mix64
from .trees import TaxaMismatch, TreeError, UnrootedTree, sorted_labels

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TAXA = 3
EXIT_CAP = 4
EXIT_VERIFY = 5

# The exit code of each library error, subclasses before TreeError.
_EXITS = ((TaxaMismatch, EXIT_TAXA), (SizeCapExceeded, EXIT_CAP),
          (CertificationError, EXIT_VERIFY), (TreeError, EXIT_PARSE))

CSV_FIELDS = ("n", "seed", "generator", "algorithm", "size", "kind",
              "branch", "verified", "millis")

PAIR_MODELS = ("uniform", "adversarial")


def _load_tree(value: str, rooted: bool):
    if ";" in value:
        text = value
    else:
        try:
            # "utf-8-sig" drops a leading byte-order mark.
            with open(value, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, ValueError) as err:  # NUL in the path, bad UTF-8
            raise NewickError(f"cannot read tree file {value!r}: {err}")
    return parse_newick(text, rooted=rooted)


def _open_out(path: str, newline: Optional[str] = None):
    # "-" is stdout, left open; any other value is a path.
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except ValueError as err:  # a NUL byte: ValueError, not OSError
        raise OSError(f"{path!r}: {err}") from None


def _emit(args, report: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True))
    else:
        for key in sorted(report):
            value = report[key]
            if isinstance(value, list):
                value = " ".join(value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            print(f"{key}: {value}")


def _tiny_outcome(tree1: UnrootedTree, tree2: UnrootedTree) -> ConstructionOutcome:
    # Up to three taxa admit a single unrooted shape, so everything agrees.
    if tree1.taxa != tree2.taxa:
        raise TaxaMismatch("input trees must share their taxon set")
    return certified(tree1, tree2, ConstructionOutcome(
        frozenset(tree1.taxa), UNROOTED_CATERPILLAR, "tiny", float(len(tree1))))


def _cmd_construct(args) -> int:
    tree1 = _load_tree(args.t1, rooted=False)
    tree2 = _load_tree(args.t2, rooted=False)
    rng = SplitMix64(mix64(args.seed, 1)) if args.orient == "random" else None
    if len(tree1) < 4:
        outcome = _tiny_outcome(tree1, tree2)
    else:
        outcome = construct(setup(tree1, tree2, rng)[0], args.algorithm,
                            args.big_c)
    _emit(args, {
        "n": len(tree1),
        "algorithm": args.algorithm,
        "size": len(outcome.agreement_set),
        "kind": outcome.kind,
        "branch": outcome.branch,
        "claimed_bound": round(outcome.claimed_bound, 6),
        "verified": True,
        "agreement": sorted_labels(outcome.agreement_set),
    })
    return EXIT_OK


def _check_cap(cap: Optional[int]) -> None:
    if cap is not None and cap < 0:
        raise TreeError(f"--cap must be 0 or more, got {cap}")


def _cmd_exact(args) -> int:
    _check_cap(args.cap)
    tree1 = _load_tree(args.t1, rooted=args.rooted)
    tree2 = _load_tree(args.t2, rooted=args.rooted)
    # Taxa before the cap, so a mismatch exits 3 under every method and
    # in either argument order.
    _check_pair(tree1, tree2, args.rooted)
    n = len(tree1)
    if args.method == "brute":
        cap = 10 if args.cap is None else args.cap
        result = brute_force_mast(tree1, tree2, cap=cap)
    else:
        default = ROOTED_DP_CAP if args.rooted else UNROOTED_DP_CAP
        cap = default if args.cap is None else args.cap
        if n > cap:
            raise SizeCapExceeded(n, cap)
        if args.rooted:
            result = rooted_mast(tree1, tree2)
        else:
            result = unrooted_mast(tree1, tree2)
    _emit(args, {
        "n": n,
        "method": args.method,
        "rooted": args.rooted,
        "size": result.size,
        "agreement": sorted_labels(result.agreement_set),
        "witness": write_newick(result.witness),
    })
    return EXIT_OK


def _cmd_verify(args) -> int:
    leaves = frozenset(part.strip() for part in args.leaves.split(",")
                       if part.strip())
    if not leaves:
        raise TreeError("verify needs at least one taxon in --leaves")
    tree1 = _load_tree(args.t1, rooted=args.rooted)
    tree2 = _load_tree(args.t2, rooted=args.rooted)
    claim = ConstructionOutcome(leaves, EXACT, "claim", 0.0)
    ok = verify_outcome(tree1, tree2, claim)
    _emit(args, {"verified": ok, "size": len(leaves)})
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_gen(args) -> int:
    if args.model == "adversarial":
        pair = adversarial_pair(args.n)
        lines = [write_newick(pair[0]), write_newick(pair[1])]
    else:
        lines = [write_newick(generate(GenSpec(args.model, args.n, args.seed)))]
    with _open_out(args.out) as out:
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


def _experiment_grid(args) -> list[int]:
    # Checked before the loop, which never ends for n_min < 1 or a
    # factor below 2.
    if not 4 <= args.n_min <= args.n_max:
        raise TreeError("experiment needs 4 <= n-min <= n-max")
    if args.step_factor < 2:
        raise TreeError("experiment step factor must be 2 or more")
    sizes = []
    n = args.n_min
    while n <= args.n_max:
        sizes.append(n)
        n *= args.step_factor
    return sizes


def _make_pair(model: str, n: int, seed: int):
    if model == "adversarial":
        return adversarial_pair(n)
    return (generate(GenSpec("uniform", n, mix64(seed, 1))),
            generate(GenSpec("uniform", n, mix64(seed, 2))))


def _cmd_experiment(args) -> int:
    _check_cap(args.cap)
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    if not models:
        raise TreeError("experiment needs at least one pair model")
    if args.trials < 1:
        raise TreeError("experiment needs at least one trial")
    for model in models:
        if model not in PAIR_MODELS:
            raise TreeError(f"unknown pair model {model!r}")
    grid = _experiment_grid(args)
    if "adversarial" in models:
        for n in grid:
            if n & (n - 1):
                raise TreeError(
                    f"adversarial model needs power-of-two sizes, got {n}")
    rows: list[dict] = []
    with _open_out(args.out, newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for n in grid:
            for model_index, model in enumerate(models):
                for trial in range(args.trials):
                    seed = mix64(args.seed, n, model_index, trial)
                    for row in _experiment_rows(n, seed, model, args.cap,
                                                args.timing == "wall"):
                        rows.append(row)
                        writer.writerow([row[f] for f in CSV_FIELDS])
    main_sizes = [(r["size"], r["n"]) for r in rows if r["algorithm"] == "main"]
    if main_sizes:
        ratio = min(size / math.log2(n) for size, n in main_sizes)
        print(f"min-main-ratio: {ratio:.6f}")
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    return EXIT_OK


def _experiment_rows(n: int, seed: int, model: str, cap: int,
                     timing: bool):
    # One pair's rows, each yielded as it is done.  The two constructions
    # share one setup (n >= 4 here), timed in the weak row.
    tree1, tree2 = _make_pair(model, n, seed)
    state = None
    for algorithm in ("weak", "main", "exact_dp"):
        if algorithm == "exact_dp" and n > cap:
            continue
        start = time.perf_counter() if timing else 0.0
        # Producers raise CertificationError rather than return an
        # uncertified set, so every row that is written is verified.
        if algorithm == "exact_dp":
            result = unrooted_mast(tree1, tree2)
            size, kind, branch = result.size, result.kind, "dp"
        else:
            if state is None:
                state, _, _ = setup(tree1, tree2)
            outcome = construct(state, algorithm)
            size = len(outcome.agreement_set)
            kind, branch = outcome.kind, outcome.branch
        millis = int((time.perf_counter() - start) * 1000) if timing else 0
        yield {
            "n": n,
            "seed": seed,
            "generator": model,
            "algorithm": algorithm,
            "size": size,
            "kind": kind,
            "branch": branch,
            "verified": "true",
            "millis": millis,
        }


@functools.lru_cache(maxsize=1)
def _build_parser(default_seed: str) -> argparse.ArgumentParser:
    # The string default (MASTKIT_SEED's text) goes through type=int when
    # --seed is absent, so a bad value is a usage error (exit 2).
    parser = argparse.ArgumentParser(
        prog="mastkit",
        description="build, check, and measure agreement subtrees")
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("construct", help="run a construction algorithm")
    p.add_argument("--t1", required=True, help="first tree (Newick or path)")
    p.add_argument("--t2", required=True, help="second tree (Newick or path)")
    p.add_argument("--algorithm", choices=("weak", "main"), default="main")
    p.add_argument("--C", dest="big_c", type=int, default=None,
                   help="shrink-fraction constant, at least 4 for weak and 2 for "
                   "main (default 4 weak, 40 main)")
    p.add_argument("--orient", choices=("min_label", "random"),
                   default="min_label")
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("exact", help="solve maximum agreement exactly")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--method", choices=("dp", "brute"), default="dp")
    p.add_argument("--rooted", action="store_true")
    p.add_argument("--cap", type=int, default=None,
                   help=f"largest n solved (default: dp {UNROOTED_DP_CAP} "
                   f"unrooted / {ROOTED_DP_CAP} rooted, brute 10; 0 solves none)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", help="check a claimed agreement set")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--leaves", required=True,
                   help="comma-separated taxon labels")
    p.add_argument("--rooted", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate seeded trees")
    p.add_argument("--model", choices=MODELS + ("adversarial",),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("experiment", help="run a size/seed grid to CSV")
    p.add_argument("--n-min", dest="n_min", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--step-factor", dest="step_factor", type=int, default=2)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--models", default="uniform,adversarial")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.add_argument("--cap", type=int, default=512,
                   help="largest n solved exactly (0 solves none)")
    p.add_argument("--timing", choices=("off", "wall"), default="off")
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser(os.environ.get("MASTKIT_SEED", "0"))
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help()
        return EXIT_PARSE
    try:
        return args.func(args)
    except TreeError as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXITS if isinstance(err, kind))
    except OSError as err:
        # Tree files are read in _load_tree, so this is an --out file.
        print(f"error: cannot write: {err}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
