"""Scaling report: re-times mastkit's layers across input sizes.

    python3 perfbench/scaling.py > scaling.json

Not part of the gated benchmark runs and not repeated: one pass, one
process, single calls at each size (so figures are orders of magnitude,
not medians).  Sizes follow ROADMAP's baseline:

* construction (``main_construct``, uniform and adversarial pairs) at
  n = 256 ... 65536, with generation, Newick writing and parsing timed
  alongside;
* unrooted exact (``unrooted_mast``) at n = 64 ... 256;
* rooted exact (``rooted_mast``, uniform pairs rooted at the canonical
  edge) at n = 256 ... 2048, the CLI's rooted cap.

Each library call runs under the benchmark's tracer, so every row lists
the total time of each traced function inside it (``self`` for the
called function itself).  ``exponent`` is the log-log slope of the
call's time against the previous size of the same series.  Times are
raw wall clock; ``reference_s`` gives the reference workload's time
(see ``reference.py``) before and after the report, to show how loaded
the machine was.  Unrooted n = 512 is left out: at the cubic growth
measured here one call takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mastkit.construction import main_construct  # noqa: E402
from mastkit.exact import rooted_mast, unrooted_mast  # noqa: E402
from mastkit.generators import adversarial_pair  # noqa: E402
from mastkit.newick import parse_newick, write_newick  # noqa: E402
from reference import reference_seconds  # noqa: E402
from tracer import Tracer, span_totals  # noqa: E402
from workloads import rooted_uniform_pair, uniform_pair  # noqa: E402

SEED = 1
CONSTRUCTION_SIZES = (256, 1024, 4096, 16384, 65536)
UNROOTED_SIZES = (64, 128, 256)
ROOTED_SIZES = (256, 512, 1024, 2048)
OMITTED = ["unrooted exact at n=512: about 60 s per call by the cubic "
           "growth of n=64..256; add it once the sweep is replaced"]


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def traced_call(fn, *args) -> dict:
    """Run one call under the tracer; totals per traced function."""
    tracer = Tracer()
    with tracer.installed():
        module = sys.modules[fn.__module__]
        wrapped = getattr(module, fn.__name__)
        tracer.op = 0
        wrapped(*args)
        tracer.op = None
    calls, total, self_time, _ = span_totals(tracer.spans)
    top = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
    layers = {name: {"calls": calls[name], "total_s": total[name]}
              for name in sorted(calls)}
    layers[top]["self_s"] = self_time[top]
    return {"seconds": total[top], "layers": layers}


def make_pair(model: str, n: int) -> tuple:
    if model == "adversarial":
        return adversarial_pair(n)
    return uniform_pair(n, SEED)


def add_exponents(rows: list[dict]) -> None:
    prev = {}
    for row in rows:
        key = row["series"]
        if key in prev and prev[key]["seconds"] > 0:
            p = prev[key]
            row["exponent"] = (math.log(row["seconds"] / p["seconds"])
                               / math.log(row["n"] / p["n"]))
        prev[key] = row


def construction_rows() -> list[dict]:
    rows = []
    for model in ("uniform", "adversarial"):
        for n in CONSTRUCTION_SIZES:
            pair, gen_s = timed(make_pair, model, n)
            texts, write_s = timed(lambda: [write_newick(t) for t in pair])
            _, parse_s = timed(lambda: [parse_newick(t, rooted=False) for t in texts])
            row = {"series": f"construction/{model}", "n": n,
                   "generate_s": gen_s, "write_newick_s": write_s,
                   "parse_newick_s": parse_s}
            row.update(traced_call(main_construct, *pair))
            print(f"construction {model} n={n}: {row['seconds']:.3f} s",
                  file=sys.stderr)
            rows.append(row)
    return rows


def exact_rows() -> list[dict]:
    rows = []
    for model in ("uniform", "adversarial"):
        for n in UNROOTED_SIZES:
            row = {"series": f"unrooted_exact/{model}", "n": n}
            row.update(traced_call(unrooted_mast, *make_pair(model, n)))
            print(f"unrooted exact {model} n={n}: {row['seconds']:.3f} s",
                  file=sys.stderr)
            rows.append(row)
    for n in ROOTED_SIZES:
        tree1, tree2 = rooted_uniform_pair(n, SEED)
        row = {"series": "rooted_exact/uniform", "n": n,
               "cells": tree1.num_nodes() * tree2.num_nodes()}
        row.update(traced_call(rooted_mast, tree1, tree2))
        print(f"rooted exact n={n}: {row['seconds']:.3f} s", file=sys.stderr)
        rows.append(row)
    return rows


def main() -> int:
    before = reference_seconds()
    rows = construction_rows() + exact_rows()
    add_exponents(rows)
    print(json.dumps({"seed": SEED, "omitted": OMITTED,
                      "reference_s": [before, reference_seconds()],
                      "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
