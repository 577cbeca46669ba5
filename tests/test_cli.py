"""Command-line harness checks, run in process through main(argv).

Inputs that once made the CLI loop forever run in a child process with a
timeout and a memory limit instead, so a regression fails rather than
hangs the suite.
"""

import argparse
import gc
import importlib.util
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mastkit import (
    ConstructionOutcome,
    GenSpec,
    adversarial_pair,
    canonical_root_edge,
    generate,
    parse_newick,
    root_at_edge,
    setup,
    verify_outcome,
    write_newick,
)
from mastkit import cli, construction
from mastkit.cli import (
    CSV_FIELDS,
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TAXA,
    EXIT_VERIFY,
    main,
)

from conftest import left_deep

CAT11 = "(1,2,(3,(4,(5,(6,(7,(8,(9,(10,11)))))))));"

# One uniform 16-taxon pair, written with a three-child top and again
# rooted at other edges (a two-child top).  The two spellings list each
# node's neighbors in different orders, which random orientation sees.
PAIR3 = ("(1,(((((((((((2,7),6),(12,13)),16),15),9),10),14),3),8),4),(5,11));",
         "(1,(((((((2,(3,14)),((4,6),(11,12))),(13,15)),10),9),7),5),(8,16));")
PAIR2 = ("(((1,(((((((((((2,7),6),(12,13)),16),15),9),10),14),3),8),4)),5),11);",
         "(((((((1,(8,16)),5),7),9),10),(13,15)),((2,(3,14)),((4,6),(11,12))));")

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_isolated(argv, memory=512 << 20, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "mastkit", *argv], capture_output=True,
        text=True, timeout=timeout, env=_child_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (memory, memory)))


def test_construct_five_leaf_example(capsys):
    code, out, err = run(capsys, [
        "construct", "--t1", "(1,2,(3,(4,5)));",
        "--t2", "((1,2),((3,4),5));"])
    assert code == EXIT_OK and err == ""
    assert "size: 4" in out
    assert "agreement: 1 2 3 5" in out
    assert "verified: true" in out
    assert "branch: block-chain(singles=2 blocks=0);degenerate-exact" in out


def test_construct_json_is_stable(capsys):
    argv = ["construct", "--t1", "(1,2,(3,(4,5)));",
            "--t2", "((1,2),((3,4),5));", "--json"]
    code, first, _ = run(capsys, argv)
    assert code == EXIT_OK
    payload = json.loads(first)
    assert payload["size"] == 4
    assert payload["agreement"] == ["1", "2", "3", "5"]
    assert payload["verified"] is True
    code, second, _ = run(capsys, argv)
    assert first == second


def test_construct_tiny_inputs_agree_fully(capsys):
    code, out, _ = run(capsys, [
        "construct", "--t1", "(1,2,3);", "--t2", "(1,2,3);"])
    assert code == EXIT_OK
    assert "branch: tiny" in out and "size: 3" in out


def test_construct_weak_algorithm(capsys):
    code, out, _ = run(capsys, [
        "construct", "--t1", "(1,2,(3,(4,5)));",
        "--t2", "((1,2),((3,4),5));", "--algorithm", "weak"])
    assert code == EXIT_OK
    assert "algorithm: weak" in out
    assert "verified: true" in out


def test_exact_rooted_dp(capsys):
    code, out, _ = run(capsys, [
        "exact", "--t1", "((1,2),3);", "--t2", "((1,3),2);", "--rooted"])
    assert code == EXIT_OK
    assert "size: 2" in out
    assert "agreement: 2 3" in out
    assert "witness: (2,3);" in out


def test_exact_brute_force(capsys):
    code, out, _ = run(capsys, [
        "exact", "--t1", "(1,2,(3,(4,5)));", "--t2", "(1,2,(3,(4,5)));",
        "--method", "brute"])
    assert code == EXIT_OK
    assert "size: 5" in out


def test_exact_brute_cap_exit(capsys):
    code, out, err = run(capsys, [
        "exact", "--t1", CAT11, "--t2", CAT11, "--method", "brute"])
    assert code == EXIT_CAP
    assert "cap is 10" in err
    code, out, err = run(capsys, [
        "exact", "--t1", CAT11, "--t2", CAT11, "--method", "brute",
        "--cap", "11"])
    assert code == EXIT_OK


def test_exact_dp_cap_exit(capsys):
    code, _, err = run(capsys, [
        "exact", "--t1", CAT11, "--t2", CAT11, "--cap", "10"])
    assert code == EXIT_CAP and "cap is 10" in err
    # The default caps, one taxon past each.
    unrooted = write_newick(generate(GenSpec("caterpillar", 1025, 0)))
    rooted = left_deep([str(i) for i in range(1, 2050)]) + ";"
    for text, extra, cap in [(unrooted, [], 1024), (rooted, ["--rooted"], 2048)]:
        code, out, err = run(capsys, ["exact", "--t1", text, "--t2", text,
                                      *extra])
        assert code == EXIT_CAP and out == "" and f"cap is {cap}" in err


def test_exact_cap_zero_solves_nothing(capsys):
    for method in ("dp", "brute"):
        code, out, err = run(capsys, [
            "exact", "--t1", "(1,2,3);", "--t2", "(1,2,3);",
            "--method", method, "--cap", "0"])
        assert code == EXIT_CAP and out == "" and "cap is 0" in err


@pytest.mark.parametrize("method", ["dp", "brute"])
@pytest.mark.parametrize("rooted", [False, True])
def test_exact_checks_the_taxa_before_the_cap(capsys, method, rooted):
    # A pair whose taxa differ exits 3 under every method and in either
    # argument order, also when the first tree is above the cap.
    trees = (("(1,2,(3,(4,5)));", "(1,2,(3,(4,6)));", "(1,2,(3,4));")
             if not rooted else
             ("((1,2),(3,(4,5)));", "((1,2),(3,(4,6)));", "((1,2),(3,4));"))
    extra = ["--rooted"] if rooted else []
    for i, j in [(0, 1), (1, 0), (0, 2), (2, 0)]:
        code, out, err = run(capsys, [
            "exact", "--t1", trees[i], "--t2", trees[j], "--method", method,
            "--cap", "4", *extra])
        assert code == EXIT_TAXA and out == ""
        assert "taxon sets differ" in err
    _, _, err = run(capsys, ["exact", "--t1", trees[0], "--t2", trees[1],
                             "--method", method, "--cap", "4", *extra])
    assert "taxon sets differ: ['5', '6'] not shared" in err


@pytest.mark.parametrize("argv", [
    ["exact"],
    ["exact", "--rooted"],
    ["exact", "--method", "brute"],
    ["experiment", "--n-min", "4", "--n-max", "8"],
], ids=["dp", "rooted", "brute", "experiment"])
def test_negative_cap_is_a_usage_error(capsys, tmp_path, argv):
    # The tree paths do not exist: the cap is refused before they are read.
    target = tmp_path / "grid.csv"
    argv = argv + ["--cap", "-1"] + (
        ["--out", str(target)] if argv[0] == "experiment"
        else ["--t1", str(tmp_path / "one.nwk"), "--t2", str(tmp_path / "two.nwk")])
    code, out, err = run(capsys, argv)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error:") and "--cap" in err
    assert not target.exists()


def test_verify_exit_codes(capsys):
    base = ["verify", "--t1", "((1,2),3);", "--t2", "((1,3),2);", "--rooted"]
    code, out, _ = run(capsys, base + ["--leaves", "1,2"])
    assert code == EXIT_OK and "verified: true" in out
    code, out, _ = run(capsys, base + ["--leaves", "1,2,3"])
    assert code == EXIT_VERIFY and "verified: false" in out
    code, out, err = run(capsys, base + ["--leaves", "1,9"])
    assert code == EXIT_VERIFY and err == ""
    assert out == "size: 2\nverified: false\n"


GRID = ["experiment", "--n-min", "4", "--n-max", "4"]


@pytest.mark.parametrize("argv", [
    ["verify", "--t1", "(1,2,3);", "--t2", "(1,2,3);", "--leaves", ","],
    GRID + ["--trials", "0"],
    GRID + ["--trials", "-1"],
    GRID + ["--models", ","],
], ids=["verify-no-leaves", "trials-0", "trials-negative", "no-models"])
def test_empty_claims_and_grids_exit_2(capsys, tmp_path, argv):
    target = tmp_path / "grid.csv"
    if argv[0] == "experiment":
        argv = argv + ["--out", str(target)]
    code, out, err = run(capsys, argv)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def test_parse_and_taxa_failures(capsys):
    code, _, err = run(capsys, [
        "construct", "--t1", "((1,2;", "--t2", "(1,2,3);"])
    assert code == EXIT_PARSE and "error:" in err
    code, _, err = run(capsys, [
        "construct", "--t1", "(1,2,3);", "--t2", "(1,2,4);"])
    assert code == EXIT_TAXA and "taxon set" in err


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys, [])
    assert code == EXIT_PARSE
    assert "usage: mastkit" in out


def test_gen_models_and_file_output(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen", "--model", "caterpillar", "--n", "6"])
    assert code == EXIT_OK and out == "(1,2,(3,(4,(5,6))));\n"
    code, out, _ = run(capsys, ["gen", "--model", "adversarial", "--n", "8"])
    assert code == EXIT_OK
    assert out == ("(1,2,((3,4),((5,6),(7,8))));\n"
                   "(1,2,(3,(4,(5,(6,(7,8))))));\n")
    target = tmp_path / "trees.nwk"
    code, out, _ = run(capsys, [
        "gen", "--model", "uniform", "--n", "6", "--seed", "1",
        "--out", str(target)])
    assert code == EXIT_OK and out == ""
    assert target.read_text() == "(1,(((2,6),4),5),3);\n"


def test_gen_usage_errors_exit_2(capsys, monkeypatch):
    code, _, err = run(capsys, ["gen", "--model", "balanced", "--n", "6"])
    assert code == EXIT_PARSE and "power-of-two" in err
    code, _, err = run(capsys, ["gen", "--model", "uniform", "--n", "-1"])
    assert code == EXIT_PARSE and "at least one taxon" in err
    monkeypatch.setenv("MASTKIT_SEED", "abc")
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--model", "uniform", "--n", "4"])
    assert exit_info.value.code == EXIT_PARSE
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    code, out, _ = run(capsys, ["gen", "--model", "uniform", "--n", "4",
                                "--seed", "1"])
    assert code == EXIT_OK and out


def test_gen_seed_env_default(capsys, monkeypatch):
    code, baseline, _ = run(capsys, ["gen", "--model", "uniform", "--n", "8"])
    monkeypatch.setenv("MASTKIT_SEED", "7")
    code, seeded, _ = run(capsys, ["gen", "--model", "uniform", "--n", "8"])
    code, explicit, _ = run(capsys, [
        "gen", "--model", "uniform", "--n", "8", "--seed", "7"])
    assert seeded == explicit
    assert seeded != baseline


def test_seed_variable_is_read_on_every_call(capsys, monkeypatch):
    # The parser is built once per MASTKIT_SEED value, so the variable
    # must be read at each call, not when the parser is first built.
    argv = ["gen", "--model", "uniform", "--n", "8"]
    for value, seed in (("7", "7"), ("8", "8"), (None, "0"), ("7", "7")):
        if value is None:
            monkeypatch.delenv("MASTKIT_SEED", raising=False)
        else:
            monkeypatch.setenv("MASTKIT_SEED", value)
        got = run(capsys, argv)
        assert got == run(capsys, argv + ["--seed", seed])
        assert got[0] == EXIT_OK
    monkeypatch.setenv("MASTKIT_SEED", "abc")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_PARSE
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


# Calls that succeed or exit through each library error.
LIBRARY_EXITS = [
    (["exact", "--t1", "((1,2),(3,4),5);", "--t2", "((1,3),(2,4),5);"],
     EXIT_OK),
    (["construct", "--t1", PAIR3[0], "--t2", PAIR3[1]], EXIT_OK),
    (["experiment", "--n-min", "4", "--n-max", "8", "--cap", "8"], EXIT_OK),
    (["construct", "--t1", "((1,2;", "--t2", "(1,2,3);"], EXIT_PARSE),
    (["construct", "--t1", "(1,2,3);", "--t2", "(1,2,4);"], EXIT_TAXA),
    (["exact", "--t1", CAT11, "--t2", CAT11, "--cap", "10"], EXIT_CAP),
    (["verify", "--t1", "((1,2),3);", "--t2", "((1,3),2);", "--rooted",
      "--leaves", "1,2,3"], EXIT_VERIFY),
]


def test_main_builds_one_parser_and_leaves_no_cycles(capsys, monkeypatch):
    # After a warm-up call, calls that succeed or exit through a library
    # error build no parser and leave nothing for the cyclic collector.
    # Usage errors are left out: argparse's usage formatter makes cycles.
    monkeypatch.delenv("MASTKIT_SEED", raising=False)
    calls = LIBRARY_EXITS
    run(capsys, calls[0][0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        codes = [main(argv) for argv, _ in calls]
        gc.collect()
        cyclic = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert codes == [code for _, code in calls]
    assert built == [] and cyclic == 0


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["collector-on", "collector-off"])
def test_main_pauses_the_collector_and_leaves_it_as_found(capsys, monkeypatch,
                                                          enabled):
    # Each command runs with the collector paused, whatever its exit, and
    # main leaves the collector on or off as the caller had it: also when
    # the command raises an error main does not handle.
    paused = []
    load = cli._load_tree

    def recording_load(value, rooted):
        paused.append(not gc.isenabled())
        return load(value, rooted)

    def broken_load(value, rooted):
        paused.append(not gc.isenabled())
        raise RuntimeError("not a library error")

    monkeypatch.setattr(cli, "_load_tree", recording_load)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in LIBRARY_EXITS:
            paused.clear()
            got = main(argv)
            assert (got, gc.isenabled()) == (code, enabled)
            assert all(paused)  # experiment reads no tree
        monkeypatch.setattr(cli, "_load_tree", broken_load)
        paused.clear()
        with pytest.raises(RuntimeError, match="not a library error"):
            main(LIBRARY_EXITS[0][0])
        assert gc.isenabled() == enabled and paused == [True]
    finally:
        (gc.enable if was else gc.disable)()
        capsys.readouterr()


def test_experiment_grid_and_determinism(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["experiment", "--n-min", "8", "--n-max", "16", "--trials", "2",
            "--cap", "16"]
    code, out, _ = run(capsys, argv + ["--out", str(first)])
    assert code == EXIT_OK
    assert out.startswith("min-main-ratio: ")
    code, out2, _ = run(capsys, argv + ["--out", str(second)])
    assert code == EXIT_OK and out2 == out
    body = first.read_text()
    assert body == second.read_text()
    lines = body.strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    # 2 sizes x 2 models x 2 trials x 3 algorithms.
    assert len(lines) == 1 + 24
    for line in lines[1:]:
        fields = dict(zip(CSV_FIELDS, line.split(",")))
        assert fields["verified"] == "true"
        assert fields["millis"] == "0"
        assert fields["algorithm"] in ("weak", "main", "exact_dp")
        assert fields["generator"] in ("uniform", "adversarial")


def test_experiment_sets_up_each_pair_once(capsys, monkeypatch):
    """The weak and main rows of a pair share one setup."""
    calls = []

    def counting_setup(tree1, tree2, rng=None):
        calls.append(len(tree1))
        return setup(tree1, tree2, rng)

    for module in (cli, construction):
        monkeypatch.setattr(module, "setup", counting_setup)
    code, _, _ = run(capsys, ["experiment", "--n-min", "4", "--n-max", "64",
                              "--trials", "2", "--cap", "8", "--seed", "3"])
    assert code == EXIT_OK
    # 5 sizes x 2 models x 2 trials.
    assert sorted(calls) == [n for n in (4, 8, 16, 32, 64) for _ in range(4)]


def test_construct_exits_5_on_a_forged_loop(capsys, forge_loop):
    one, two = (write_newick(generate(GenSpec("uniform", 64, seed)))
                for seed in (1, 2))
    for algorithm in ("main", "weak"):
        forge_loop(algorithm)
        code, out, err = run(capsys, ["construct", "--t1", one, "--t2", two,
                                      "--algorithm", algorithm])
        assert code == EXIT_VERIFY and out == ""
        assert "failed certification" in err


def test_experiment_stops_at_a_forged_loop(capsys, forge_loop):
    # The rows written before the forged run stay, each verified; the
    # forged run writes none.
    argv = ["experiment", "--n-min", "64", "--n-max", "64", "--trials", "2",
            "--models", "uniform", "--cap", "0"]
    header = ",".join(CSV_FIELDS)
    for forged, kept in (("main", ["weak"]), ("weak", [])):
        forge_loop(forged)
        code, out, err = run(capsys, argv)
        assert code == EXIT_VERIFY and "failed certification" in err
        lines = out.strip().split("\n")
        assert lines[0] == header
        assert [line.split(",")[3] for line in lines[1:]] == kept
        assert all(line.split(",")[7] == "true" for line in lines[1:])


def test_experiment_cap_skips_exact_rows(capsys, tmp_path):
    target = tmp_path / "capped.csv"
    code, _, _ = run(capsys, [
        "experiment", "--n-min", "8", "--n-max", "16", "--cap", "8",
        "--out", str(target)])
    assert code == EXIT_OK
    lines = target.read_text().strip().split("\n")[1:]
    exact_sizes = {line.split(",")[0] for line in lines
                   if line.split(",")[3] == "exact_dp"}
    assert exact_sizes == {"8"}


def test_experiment_json_echoes_rows(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, [
        "experiment", "--n-min", "8", "--n-max", "8", "--models", "uniform",
        "--cap", "8", "--json", "--out", str(target)])
    assert code == EXIT_OK
    ratio_line, json_line = out.strip().split("\n")
    rows = json.loads(json_line)
    assert len(rows) == 3
    assert {row["algorithm"] for row in rows} == {"weak", "main", "exact_dp"}
    assert all(row["verified"] == "true" for row in rows)


def test_experiment_rejects_bad_grids(capsys, tmp_path):
    # Usage errors, not parse errors: no text offset is reported.
    for extra, message in [
            (["--n-min", "6", "--n-max", "12"], "power-of-two"),
            (["--n-min", "8", "--n-max", "8", "--models", "mystery"],
             "unknown pair model"),
            (["--n-min", "2", "--n-max", "4"], "4 <= n-min <= n-max")]:
        code, out, err = run(capsys, ["experiment", *extra,
                                      "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_PARSE and out == ""
        assert message in err and "offset" not in err


@pytest.mark.parametrize("extra", [["--n-min", "0", "--n-max", "8"],
                                   ["--n-min", "4", "--n-max", "8",
                                    "--step-factor", "1"]])
def test_experiment_grids_that_never_end_exit_2(extra):
    done = run_isolated(["experiment", *extra, "--out", os.devnull])
    assert done.returncode == EXIT_PARSE
    assert done.stdout == "" and "error:" in done.stderr
    assert "offset" not in done.stderr


def test_construct_closes_a_core_past_the_exact_cap(tmp_path):
    # A degenerate window keeps all 8192 taxa of the adversarial pair in
    # the core, whose exact table would not fit in memory.
    paths = []
    for i, tree in enumerate(adversarial_pair(8192)):
        paths.append(str(tmp_path / f"t{i}.nwk"))
        Path(paths[-1]).write_text(write_newick(tree) + "\n")
    done = run_isolated(["construct", "--t1", paths[0], "--t2", paths[1],
                         "--C", "2"], memory=1 << 30, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert "verified: true" in done.stdout
    assert "branch: block-chain(singles=0 blocks=0);degenerate-weak" in done.stdout


def test_rooted_exact_at_the_cap_stays_small(tmp_path):
    # Each node of the rooted table stores only the cells it changed from
    # its heavier child's row: this run peaks near 23 MB, against 46 MB
    # with each row's nonzero cells stored and 150 MB with full rows.
    paths = []
    for i in range(2):
        tree = generate(GenSpec("uniform", 2048, 70 + i))
        paths.append(str(tmp_path / f"t{i}.nwk"))
        Path(paths[-1]).write_text(
            write_newick(root_at_edge(tree, canonical_root_edge(tree))) + "\n")
    # A fresh parent, so that RUSAGE_CHILDREN covers this one run alone.
    probe = ("import resource, subprocess, sys; "
             "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)"
             ".returncode; "
             "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    done = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "mastkit",
         "exact", "--rooted", "--t1", paths[0], "--t2", paths[1]],
        capture_output=True, text=True, timeout=120, env=_child_env())
    code, maxrss_kb = map(int, done.stdout.split())
    assert code == EXIT_OK, done.stderr
    assert maxrss_kb < 40 << 10


def test_file_inputs_are_read_from_disk(capsys, tmp_path):
    one = tmp_path / "one.nwk"
    two = tmp_path / "two.nwk"
    one.write_text("(1,2,(3,(4,5)));\n")
    two.write_text("((1,2),((3,4),5));\n")
    code, out, _ = run(capsys, ["construct", "--t1", str(one),
                                "--t2", str(two)])
    assert code == EXIT_OK and "size: 4" in out
    code, _, err = run(capsys, ["construct", "--t1", str(tmp_path / "no.nwk"),
                                "--t2", str(two)])
    assert code == EXIT_PARSE and "cannot read" in err


@pytest.mark.parametrize("pair, expected", [
    (PAIR3, {"agreement": ["5", "16"],
             "branch": "block-chain(singles=1 blocks=0)"}),
    (PAIR2, {"agreement": ["1", "6", "8", "12", "15"],
             "branch": "block-chain(singles=3 blocks=0);degenerate-exact"}),
])
def test_construct_random_orientation_is_frozen(capsys, pair, expected):
    code, out, _ = run(capsys, [
        "construct", "--t1", pair[0], "--t2", pair[1],
        "--orient", "random", "--seed", "9", "--json"])
    assert code == EXIT_OK
    assert json.loads(out) == {
        "algorithm": "main", "claimed_bound": 0.187902, "kind": "block_tree",
        "n": 16, "size": len(expected["agreement"]), "verified": True,
        **expected}


def test_construct_shrink_constant_range(capsys):
    argv = ["construct", "--t1", PAIR3[0], "--t2", PAIR3[1]]
    for algorithm in ("main", "weak"):
        _, default, _ = run(capsys, argv + ["--algorithm", algorithm])
        code, out, _ = run(capsys, argv + ["--algorithm", algorithm,
                                           "--C", "0"])
        assert code == EXIT_OK and out == default
        floor = "4" if algorithm == "weak" else "2"
        for bad in ("1", "-3"):
            code, out, err = run(capsys, argv + ["--algorithm", algorithm,
                                                 "--C", bad])
            assert code == EXIT_PARSE and out == ""
            assert f"at least {floor}" in err


# Below C = 4 the weak route's big-subtree pair may be handed a piece
# holding more than half the core; on these pairs it used to fail its own
# strict ancestor check.
@pytest.mark.parametrize("c, t1, t2", [
    ("2", "(1,(((2,3),(7,8)),(5,6)),4);", "(1,2,(((3,((4,7),6)),8),5));"),
    ("3", "(1,(((((((2,(5,20)),7),6),24),(3,((9,17),(((((12,16),21),23),"
          "(13,14)),19)))),15),11),(((4,(18,22)),8),10));",
          "(1,((((2,(10,(23,24))),(6,(12,14))),7),(((16,22),17),18)),"
          "(((((3,8),21),(((((4,11),20),9),15),19)),5),13));"),
])
def test_weak_route_needs_shrink_constant_4(capsys, c, t1, t2):
    code, out, err = run(capsys, ["construct", "--algorithm", "weak",
                                  "--C", c, "--t1", t1, "--t2", t2])
    assert code == EXIT_PARSE and out == ""
    assert "at least 4" in err


def test_unwritable_output_exits_2(capsys, tmp_path):
    # open() refuses a NUL byte with ValueError, the others with OSError.
    for bad in (tmp_path / "missing" / "x", tmp_path, f"{tmp_path}/a\x00b"):
        code, out, err = run(capsys, ["gen", "--model", "uniform", "--n", "6",
                                      "--out", str(bad)])
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: cannot write")
        code, out, err = run(capsys, ["experiment", "--n-min", "4",
                                      "--n-max", "4", "--out", str(bad)])
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: cannot write")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_output_device_exits_2(capsys):
    code, out, err = run(capsys, ["gen", "--model", "uniform", "--n", "6",
                                  "--out", "/dev/full"])
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: cannot write")


@pytest.mark.parametrize("argv", [
    ["gen", "--model", "uniform", "--n", "6"],
    ["experiment", "--n-min", "4", "--n-max", "4", "--models", "uniform"],
])
def test_out_dash_is_stdout_and_empty_is_a_bad_path(capsys, monkeypatch,
                                                    tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, default, err = run(capsys, argv)
    assert code == EXIT_OK and default and err == ""
    code, out, err = run(capsys, argv + ["--out", "-"])
    assert code == EXIT_OK and out == default and err == ""
    code, out, err = run(capsys, argv + ["--out", ""])
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: cannot write")
    assert list(tmp_path.iterdir()) == []


def _readme_transcripts():
    # Each "$ mastkit ..." line of a README code block, with the lines
    # after it up to the end of the block.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    runs, expected = [], None
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ mastkit "):
            expected = []
            runs.append((shlex.split(line)[2:], expected))
        elif line.startswith("```"):
            expected = None
        elif expected is not None:
            expected.append(line)
    return runs


def test_cli_digest_matches_the_pinned_file(capsys, monkeypatch):
    # tools/cli_digest.py, run in-process, prints one line per command of
    # its corpus: exit code and hashes of stdout and stderr.  A change
    # that alters outputs on purpose regenerates tests/cli_digest.txt.
    path = ROOT / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("mastkit_cli_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "argv", [str(path)])  # no pytest flags
    monkeypatch.delenv("MASTKIT_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # restored after the tool sets it
    assert tool.main() == 0
    got = capsys.readouterr().out.splitlines()
    pinned = (ROOT / "tests" / "cli_digest.txt").read_text(encoding="utf-8")
    assert got == pinned.splitlines()


def test_readme_transcripts_match_the_cli(capsys):
    runs = _readme_transcripts()
    assert [argv[0] for argv, _ in runs] == ["construct", "exact"]
    for argv, expected in runs:
        code, out, err = run(capsys, argv)
        assert code == EXIT_OK and err == ""
        assert out.splitlines() == expected


def test_non_decimal_digit_labels_run(capsys):
    # str.isdigit holds for '\u00b2' but int() rejects it, so label order
    # must not convert it to a number.
    tree = "(1,2,(\u00b2,(4,5)));"
    for command, line in (("construct", "verified: true"),
                          ("exact", "agreement: 1 2 4 5 \u00b2")):
        done = run_isolated([command, "--t1", tree, "--t2", tree])
        assert done.returncode == EXIT_OK, done.stderr
        assert "Traceback" not in done.stderr
        assert line in done.stdout


def test_labels_past_int_digit_limit_run():
    # int() refuses more than 4300 digits, so label order must not call it.
    big = "1" * 5000
    tree = f"(1,2,({big},(4,5)));"
    for command, line in (("construct", "verified: true"),
                          ("exact", f"agreement: 1 2 4 5 {big}")):
        done = run_isolated([command, "--t1", tree, "--t2", tree])
        assert done.returncode == EXIT_OK, done.stderr
        assert "Traceback" not in done.stderr
        assert line in done.stdout


def test_non_utf8_tree_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.nwk"
    bad.write_bytes(b"\xff\xfe;")
    code, out, err = run(capsys, ["construct", "--t1", str(bad),
                                  "--t2", "(1,2,3);"])
    assert code == EXIT_PARSE and out == ""
    assert "cannot read tree file" in err


def test_tree_file_with_a_byte_order_mark_parses(capsys, tmp_path):
    bom = tmp_path / "bom.nwk"
    bom.write_bytes(b"\xef\xbb\xbf(1,2,(3,4));")
    code, out, err = run(capsys, ["exact", "--t1", str(bom),
                                  "--t2", "(1,2,(3,4));"])
    assert code == EXIT_OK and err == ""
    assert run(capsys, ["exact", "--t1", "(1,2,(3,4));",
                        "--t2", "(1,2,(3,4));"])[1] == out


@pytest.mark.parametrize("command", ["construct", "exact"])
def test_nul_byte_tree_argument_exits_2(capsys, command):
    # No ';', so the value is taken as a path, which open() refuses.
    code, out, err = run(capsys, [command, "--t1", "(1,2,\x00(3,4))",
                                  "--t2", "(1,2,(3,4));"])
    assert code == EXIT_PARSE and out == ""
    assert "cannot read tree file" in err


def test_unreadable_tree_file_reports_no_offset(capsys, tmp_path):
    # Nothing was read, so there is no text for an offset to point into.
    bad = tmp_path / "bad.nwk"
    bad.write_bytes(b"\xff\xfe;")
    for value in (str(tmp_path / "missing.nwk"), str(tmp_path),
                  f"{tmp_path}/a\x00b", str(bad)):
        for command in ("construct", "exact"):
            code, out, err = run(capsys, [command, "--t1", value,
                                          "--t2", "(1,2,(3,4));"])
            assert code == EXIT_PARSE and out == ""
            assert err.startswith("error: cannot read tree file")
            assert "offset" not in err


# -- fuzzing ------------------------------------------------------------------

_SEED_TREES = [CAT11, PAIR3[0], PAIR3[1], PAIR2[0], "(1,2,(3,(4,5)));",
               "((1,2),((3,4),5));", "(a,b,(c,d));", "(1,2,3);"]
_NOISE = st.text("(),;:'[] \t\n\x00_.-0123456789ab\u00b2\u00e9", max_size=4)


@st.composite
def _mutated_newick(draw):
    text = draw(st.sampled_from(_SEED_TREES))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(_NOISE) + text[j:]
    return text


@st.composite
def _cli_calls(draw):
    t1 = draw(_mutated_newick())
    t2 = draw(st.one_of(st.just(t1), _mutated_newick()))
    command = draw(st.sampled_from(["construct", "exact", "verify"]))
    argv = [command, f"--t1={t1}", f"--t2={t2}"]
    if command == "construct":
        argv += ["--json", "--algorithm",
                 draw(st.sampled_from(["main", "weak"]))]
        argv += draw(st.sampled_from([[], ["--C", "2"], ["--C", "4"],
                                      ["--C", "40"], ["--C", "1"]]))
        argv += draw(st.sampled_from([[], ["--orient", "random"]]))
    elif command == "exact":
        argv += draw(st.sampled_from([[], ["--rooted"],
                                      ["--method", "brute"]]))
        argv += draw(st.sampled_from([[], ["--cap", "0"], ["--cap", "6"]]))
    else:
        leaves = draw(st.lists(st.sampled_from(["1", "2", "3", "5", "a", ""]),
                               max_size=4))
        argv += [f"--leaves={','.join(leaves)}"]
        argv += draw(st.sampled_from([[], ["--rooted"]]))
    return argv, t1, t2


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_cli_calls())
def test_mutated_inputs_exit_with_a_documented_code(capsys, monkeypatch,
                                                   tmp_path, call):
    # Values without ';' are paths: an empty working directory keeps them
    # from naming real files.
    monkeypatch.chdir(tmp_path)
    argv, t1, t2 = call
    code, out, _ = run(capsys, argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_TAXA, EXIT_CAP, EXIT_VERIFY)
    if code == EXIT_OK and argv[0] == "construct":
        report = json.loads(out)
        outcome = ConstructionOutcome(frozenset(report["agreement"]),
                                      report["kind"], report["branch"], 0.0)
        assert verify_outcome(parse_newick(t1, rooted=False),
                              parse_newick(t2, rooted=False), outcome)


def _flag(draw, good, bad):
    # Mostly a good value, so that some calls pass validation and run.
    return draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 0 else good))


@st.composite
def _grid_calls(draw):
    """A gen or experiment call with mutated flag values, kept to n <= 64
    and at most two trials."""
    sizes, bad_sizes = ["4", "8", "16", "64"], ["-1", "0", "1", "3", "5", "x"]
    if draw(st.booleans()):
        argv = ["gen", "--model", _flag(
            draw, ["uniform", "caterpillar", "balanced", "adversarial"],
            ["oak", ""]), "--n", _flag(draw, sizes, bad_sizes)]
    else:
        argv = ["experiment", "--n-min", _flag(draw, sizes, bad_sizes),
                "--n-max", _flag(draw, sizes, bad_sizes),
                "--step-factor", _flag(draw, ["2", "4"], ["1", "0", "-2"]),
                "--trials", _flag(draw, ["1", "2"], ["0", "-1", "3.5"]),
                "--models", _flag(draw, ["uniform", "adversarial",
                                         "uniform,adversarial"],
                                  [",", "oak", "adversarial,,uniform"]),
                "--cap", _flag(draw, ["0", "8", "64"], ["-1", "x"]),
                "--timing", _flag(draw, ["off", "wall"], ["cpu"])]
        argv += draw(st.sampled_from([[], ["--json"]]))
    argv += ["--seed", _flag(draw, ["0", "7"], ["y", ""])]
    # Relative to the test's empty working directory: "." is a directory.
    out = _flag(draw, [None, "-", "t.out"],
                ["", ".", "a\x00b", "missing/t.out"])
    return argv if out is None else argv + ["--out", out]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_grid_calls())
def test_mutated_grid_flags_exit_with_a_documented_code(capsys, monkeypatch,
                                                        tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as err:  # argparse rejects the value
        code = err.code
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_TAXA, EXIT_CAP, EXIT_VERIFY)
