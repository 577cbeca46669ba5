"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each test also fails loudly through its assertion when a guarantee does
not hold.  All instances are seeded, so the suite is deterministic.
"""

import math
import time

from mastkit import deroot, isomorphic, verify_outcome
from mastkit.cli import CSV_FIELDS, main as cli_main
from mastkit.construction import (
    IterationState,
    common_monotone_subsequence,
    greedy_caterpillar,
    main_construct,
    path_decomposition,
    setup,
    weak_construct,
)
from mastkit.exact import brute_force_mast, rooted_mast, unrooted_mast
from mastkit.generators import GenSpec, adversarial_pair, generate
from mastkit.rng import SplitMix64, mix64
from mastkit.trees import canonical_root_edge, is_caterpillar, root_at_edge

from conftest import left_deep, right_deep, rooted


def record(index, slug, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index} {slug}: {verdict}{suffix}")
    assert ok, f"criterion {index} {slug} failed: {detail}"


def uniform_pair(n, *seed_parts):
    return (generate(GenSpec("uniform", n, mix64(*seed_parts, 1))),
            generate(GenSpec("uniform", n, mix64(*seed_parts, 2))))


def canonical(tree):
    return root_at_edge(tree, canonical_root_edge(tree))


def test_01_exact_solvers_match_brute_force():
    started = time.perf_counter()
    checked = 0
    for i in range(200):
        n = 4 + i % 5
        one, two = uniform_pair(n, 101, i)
        if unrooted_mast(one, two).size != brute_force_mast(one, two).size:
            record(1, "oracle-equivalence", False, f"unrooted pair {i}")
        r1, r2 = canonical(one), canonical(two)
        if rooted_mast(r1, r2).size != brute_force_mast(r1, r2).size:
            record(1, "oracle-equivalence", False, f"rooted pair {i}")
        checked += 1
    elapsed = time.perf_counter() - started
    record(1, "oracle-equivalence", elapsed < 60,
           f"200 pairs, rooted and unrooted, {elapsed:.1f}s")


def test_02_constructions_always_verify():
    started = time.perf_counter()
    sizes = (8, 16, 32, 64, 128, 256)
    pairs = [adversarial_pair(n) for n in sizes]
    pairs += [uniform_pair(n, 102, n, s) for n in sizes for s in range(166)]
    assert len(pairs) >= 1000
    bad = 0
    for one, two in pairs:
        weak = weak_construct(one, two)
        strong = main_construct(one, two)
        if not (verify_outcome(one, two, weak)
                and verify_outcome(one, two, strong)):
            bad += 1
    elapsed = time.perf_counter() - started
    record(2, "end-to-end-validity", bad == 0 and elapsed < 300,
           f"{len(pairs)} pairs, {bad} failures, {elapsed:.1f}s")


def test_03_weak_dichotomy_at_desk_scale():
    started = time.perf_counter()
    failures = 0
    exits = {"rooted_caterpillar": 0, "unrooted_caterpillar": 0}
    for n in (16, 64, 256, 1024, 4096):
        lg = math.log2(n)
        rooted_floor = math.ceil(0.5 * lg / math.log2(2 * lg)) + 1
        unrooted_floor = math.ceil(lg)
        for s in range(50):
            one, two = uniform_pair(n, 103, n, s)
            out = weak_construct(one, two)
            exits[out.kind] += 1
            size = len(out.agreement_set)
            floor = (rooted_floor if out.kind == "rooted_caterpillar"
                     else unrooted_floor)
            if size < floor or not verify_outcome(one, two, out):
                failures += 1
    elapsed = time.perf_counter() - started
    record(3, "weak-dichotomy", failures == 0,
           f"250 runs, exits {exits}, {failures} failures, {elapsed:.1f}s")


def _caterpillar_state(order, n_param):
    one = rooted(left_deep(order) + ";")
    two = rooted(right_deep(order) + ";")
    assert one.seq() == two.seq()
    return IterationState(0, len(one) - 1, one, two, [], n_param)


def _block_state(order, width, n_param):
    from conftest import left_comb, right_comb
    blocks = [list(order[i:i + width]) for i in range(0, len(order), width)]
    parts = [left_deep(b) for b in blocks]
    one = rooted(left_comb(parts) + ";")
    two = rooted(right_comb(parts) + ";")
    assert one.seq() == two.seq()
    return IterationState(0, len(one) - 1, one, two, [], n_param)


def test_04_greedy_guarantee_on_precondition_states():
    # The classifier only sweeps when no piece reaches the pair floors,
    # which seeded runs at these sizes never produce, so the precondition
    # states are built from run-derived leaf orders instead: the aligned
    # core orders of uniform and adversarial runs, laid out as opposed
    # caterpillars (all pieces single leaves) and as combs of small blocks.
    states = []
    for s in range(100):
        n = (16, 24, 32, 48, 64)[s % 5]
        one, two = uniform_pair(n, 104, s)
        state, _, _ = setup(one, two)
        states.append(_caterpillar_state(list(state.tree1.seq()), n))
    gen = SplitMix64(mix64(104, 1))
    for s in range(50):
        n = (16, 64, 256, 1024)[s % 4]
        one, two = adversarial_pair(n)
        state, _, _ = setup(one, two)
        order = list(state.tree1.seq())
        width = max(8, math.ceil(math.log2(n)) + 1)
        if len(order) > width:
            start = gen.randrange(len(order) - width + 1)
            order = order[start:start + width]
        states.append(_caterpillar_state(order, n))
    for s in range(50):
        n = 32 + 4 * (s % 9)
        labels = [str(i) for i in range(1, n + 1)]
        gen.shuffle(labels)
        states.append(_block_state(labels, 2 + s % 3, n))
    assert len(states) == 200
    failures = 0
    for state in states:
        n_param = state.n_param
        decomp = path_decomposition(state)
        floor = len(decomp.order) / math.log2(n_param)
        assert all(p.size() < floor for p in decomp.first + decomp.second), \
            "state fails the sweep precondition"
        picks = greedy_caterpillar(decomp)
        keep = frozenset(picks)
        one = deroot(state.tree1.restrict(keep))
        two = deroot(state.tree2.restrict(keep))
        if (len(picks) < math.ceil(math.log2(n_param))
                or not is_caterpillar(one) or not isomorphic(one, two)):
            failures += 1
    record(4, "greedy-caterpillar-guarantee", failures == 0,
           f"200 states, {failures} failures")


def test_05_adversarial_upper_bound_sandwich():
    started = time.perf_counter()
    rows = []
    ok = True
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        one, two = adversarial_pair(n)
        exact = unrooted_mast(one, two).size
        built = len(main_construct(one, two).agreement_set)
        rows.append(f"n={n}:{built}<={exact}")
        if exact > 2 * math.log2(n) + 2 or built > exact:
            ok = False
    elapsed = time.perf_counter() - started
    record(5, "adversarial-sandwich", ok and elapsed < 120,
           f"{' '.join(rows)}, {elapsed:.1f}s")


def test_06_monotone_subsequence_floor():
    failures = 0
    for n in (10, 100, 1000):
        base = tuple(str(i) for i in range(1, n + 1))
        floor = math.isqrt(n)
        if floor * floor < n:
            floor += 1
        for s in range(1000):
            gen = SplitMix64(mix64(106, n, s))
            perm = list(base)
            gen.shuffle(perm)
            sub, _ = common_monotone_subsequence(tuple(perm), base)
            if len(sub) < floor:
                failures += 1
    record(6, "monotone-floor", failures == 0,
           f"3000 permutations, {failures} failures")


def test_07_random_versus_caterpillar_floor():
    started = time.perf_counter()
    failures = 0
    checked = 0
    for m in (8, 16, 32, 64, 128, 256):
        floor = math.ceil(math.log2(m) / 3)
        spine = canonical(generate(GenSpec("caterpillar", m, 0)))
        for s in range(34):
            tree = canonical(generate(GenSpec("uniform", m, mix64(107, m, s))))
            if rooted_mast(tree, spine).size < floor:
                failures += 1
            checked += 1
    elapsed = time.perf_counter() - started
    record(7, "caterpillar-solver-floor", failures == 0 and checked >= 200,
           f"{checked} pairs, {failures} failures, {elapsed:.1f}s")


def test_08_reported_ratio_and_fallback_tags(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = cli_main([
        "experiment", "--n-min", "16", "--n-max", "4096", "--trials", "2",
        "--cap", "0", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed.startswith("min-main-ratio: ")
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    rows = [dict(zip(CSV_FIELDS, line.split(","))) for line in lines[1:]]
    mains = [r for r in rows if r["algorithm"] == "main"]
    ratio = min(int(r["size"]) / math.log2(int(r["n"])) for r in mains)
    all_verified = all(r["verified"] == "true" for r in rows)
    tagged = all(r["branch"] for r in rows)
    fallbacks = sorted({r["branch"] for r in mains if "-exact" in r["branch"]
                        or r["kind"] == "unrooted_caterpillar"})
    record(8, "main-ratio-reported",
           ratio > 0 and all_verified and tagged,
           f"{len(mains)} main runs, min ratio {ratio:.3f}, "
           f"fallback tags {fallbacks if fallbacks else 'none'}")


def test_09_cli_byte_determinism(tmp_path, capsys):
    argv = ["experiment", "--n-min", "8", "--n-max", "64", "--trials", "2",
            "--cap", "64"]
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert cli_main(argv + ["--out", str(first)]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(argv + ["--out", str(second)]) == 0
    out2 = capsys.readouterr().out
    csv_same = first.read_bytes() == second.read_bytes()
    json_argv = ["construct", "--t1", "(1,2,(3,(4,5)));",
                 "--t2", "((1,2),((3,4),5));", "--json"]
    assert cli_main(json_argv) == 0
    j1 = capsys.readouterr().out
    assert cli_main(json_argv) == 0
    j2 = capsys.readouterr().out
    record(9, "byte-determinism", csv_same and out1 == out2 and j1 == j2,
           "experiment CSV, experiment stdout, construct JSON")
