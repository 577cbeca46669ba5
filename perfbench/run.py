"""mastkit benchmark: one workload run through ``mastkit.cli.main`` in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports mastkit from ``src/`` and
from nowhere else.  Load shape: closed loop, one client, one thread.
Each op is one CLI call (Newick files in, report out) issued when the
previous one returns, for ``--seconds`` seconds.  The inputs come from
``--seed``; every CLI call that takes ``--seed`` gets it explicitly, and
``MASTKIT_SEED`` is removed from the environment.

After the timed loop every op's output is checked independently (see
``check.py``); the checks are not timed.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it records the environment (seed, Python, nproc, git commit),
the raw wall-clock figures and each op's latency.

Every reported time is in reference seconds: the wall-clock time times
``REFERENCE_S`` over the time of the reference workload measured right
before and after it (see ``reference.py``).  On a quiet machine the two
agree; on a loaded one the reference absorbs the machine's slowdown.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: mastkit import time plus the median of three repetitions
  of the workload's set-up (generation, Newick writing, input files);
* ``ops_per_s``: ops per second of op time (one over the mean latency;
  the reference runs between ops are left out);
* ``op_p50_s``: median op latency;
* ``peak_rss_mb``: peak resident set of the process;
* ``agreement_size_mean``: mean size of the checked agreement sets, one
  per instance (for the grid, of the CSV ``size`` column).  The loop
  goes on past ``--seconds`` until every instance has run once, so the
  mean depends on the seed alone, not on the machine's speed.

``--trace 1`` runs half the time untraced, then wraps the public
functions listed in ``tracer.py`` and runs the other half traced, from
the same first instance.  It reports the per-layer metrics as per-op
means over the traced ops, plus ``trace_overhead`` (untraced over
traced ops per second), and writes the spans to
``perfbench/out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import mastkit  # noqa: E402
from mastkit import cli  # noqa: E402

if os.path.dirname(os.path.abspath(mastkit.__file__)) != os.path.join(SRC, "mastkit"):
    raise ImportError(f"mastkit imported from {mastkit.__file__}, not from {SRC}")

from reference import REFERENCE_S, reference_seconds  # noqa: E402
from tracer import Tracer, layer_metrics, metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - PROCESS_START


@dataclass
class Record:
    """One op as it ran: latency, exit code and what it printed or wrote.

    ``scale`` converts this op's wall-clock seconds to reference seconds:
    :data:`REFERENCE_S` over the median of the reference times measured
    around the op (see :func:`run_ops`).
    """

    op: int
    seconds: float
    scale: float
    code: Optional[int]
    stdout: str
    stderr: str
    collected: Optional[str]

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def run_ops(workload, seconds: float, tracer: Optional[Tracer] = None,
            min_ops: int = 0):
    """Closed loop from op 0 until ``seconds`` have passed and at least
    ``min_ops`` ops have run, with the reference workload timed between
    ops (untraced).

    An op's scale uses the median of the four reference times nearest to
    it (two before, two after), since one 50 ms sample is itself noisy.
    Returns the records and the loop's wall-clock duration.
    """
    records = []
    start = time.perf_counter()
    refs = [reference_seconds()]
    op = 0
    while True:
        argv = workload.argv(op)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = op
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that crashes is counted, not fatal
            code = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        refs.append(reference_seconds())
        records.append(Record(op, t1 - t0, 0.0, code, out.getvalue(),
                              err.getvalue(), workload.collect(op)))
        op += 1
        if t1 - start >= seconds and op >= min_ops:
            break
    elapsed = time.perf_counter() - start
    for i, record in enumerate(records):
        # refs[i] ran just before op i and refs[i + 1] just after it.
        window = refs[max(0, i - 1):i + 3]
        record.scale = REFERENCE_S / statistics.median(window)
    return records, elapsed


def check_records(workload, records) -> tuple[int, list[int], list[str]]:
    """Check every op; returns failures, agreement sizes and reasons.

    Sizes are taken once per instance, so their mean does not depend on
    how often each instance ran.
    """
    failed = 0
    sizes: dict[int, list[int]] = {}
    reasons: list[str] = []
    for record in records:
        try:
            if record.code != 0:
                raise RuntimeError(f"exit code {record.code}: "
                                   f"{record.stderr.strip()[-300:]}")
            sizes[record.op % workload.count] = workload.check(
                record.op, record.stdout, record.collected)
        except Exception as exc:  # any check error fails the op, not the run
            failed += 1
            reasons.append(f"op {record.op}: {type(exc).__name__}: {exc}")
    return failed, [s for group in sizes.values() for s in group], reasons


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": nproc,
            "commit": git_commit()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("MASTKIT_SEED", None)
    cls = WORKLOADS[args.workload]
    workload = cls(cls.smoke_size) if args.smoke else cls()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        refs = [reference_seconds()]
        setup_raw, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup_raw.append(time.perf_counter() - t0)
            refs.append(reference_seconds())
            setup_scaled.append(setup_raw[-1] * 2 * REFERENCE_S / (refs[-2] + refs[-1]))
        if args.trace:
            records, _ = run_ops(workload, args.seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                traced, _ = run_ops(workload, args.seconds / 2, tracer)
            overhead = (sum(r.scaled for r in traced) / len(traced)) / (
                sum(r.scaled for r in records) / len(records))
            metrics = layer_metrics(tracer.spans, {r.op: r.scale for r in traced},
                                    overhead)
            tracer.write(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            records += traced
            units = {name: unit for name, unit, _ in metric_specs()}
            raw = {}
        else:
            records, elapsed = run_ops(workload, args.seconds,
                                       min_ops=workload.count)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": IMPORT_S * REFERENCE_S / statistics.median(refs)
                           + statistics.median(setup_scaled),
                "ops_per_s": len(records) / sum(r.scaled for r in records),
                "op_p50_s": statistics.median(r.scaled for r in records),
                "peak_rss_mb": rss_kb / 1024,
            }
            units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                     "peak_rss_mb": "MB", "agreement_size_mean": "count"}
            raw = {"setup_s": IMPORT_S + statistics.median(setup_raw),
                   "ops_per_s": len(records) / elapsed,
                   "op_p50_s": statistics.median(r.seconds for r in records),
                   "reference_s": statistics.median(refs)}
        failed, sizes, reasons = check_records(workload, records)
    if not args.trace:
        metrics["agreement_size_mean"] = statistics.fmean(sizes) if sizes else 0.0
    for reason in reasons[:10]:
        print(f"failed {reason}", file=sys.stderr)
    print(json.dumps({"env": environment(args), "ops": len(records),
                      "ops_failed": failed, "raw_wall_clock": raw,
                      "op_seconds": [round(r.seconds, 4) for r in records],
                      "op_scale": [round(r.scale, 4) for r in records]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
