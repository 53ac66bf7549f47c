import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import dqcount
from dqcount.applications import estimate_hamming, estimate_inner_product
from dqcount.cli import build_parser, main
from dqcount.diqc import DiqcConfig, run_amplitude, sum_in_order
from dqcount.miqae import MiqaeConfig, run_for_amplitude


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_count_command_outputs_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = [
        "count", "--n", "6", "--marked", "38,8,16", "--k", "1",
        "--epsilon-node", "0.001", "--alpha-node", "0.05",
        "--reps", "3", "--seed", "7", "--trace",
    ]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("runs.csv", "summary.json", "trace.csv"):
        assert read(out_a / name) == read(out_b / name)

    summary = json.loads(read(out_a / "summary.json"))
    assert summary["config"]["epsilon_node"] == 0.001
    assert summary["qubits_per_node"] == 7
    assert summary["per_node"][0]["successes"] == 3
    assert summary["t_prime_counts"] == {"3": 3}

    header, *rows = read(out_a / "runs.csv").decode().splitlines()
    assert header == (
        "rep,node_id,seed,t_prime,count_estimate,amplitude_low,amplitude_high,"
        "oracle_calls,oracle_calls_physical,total_shots,max_big_k,status")
    assert len(rows) == 6  # 3 reps x 2 nodes
    assert read(out_a / "trace.csv").decode().splitlines()[0] == (
        "rep,node_id,round,big_k,quadrant,r_weight,q_stage,shots,pooled_shots,"
        "a_hat,a_min,a_max,theta_min,theta_max")

    # trace.csv numbers each run's rounds by their position in its trace
    trace = defaultdict(list)
    for row in csv.DictReader(io.StringIO(read(out_a / "trace.csv").decode())):
        trace[int(row["rep"]), int(row["node_id"])].append(row)
    assert sorted(trace) == [(rep, j) for rep in range(3) for j in range(2)]
    oracle = dqcount.make_oracle(6, {38, 8, 16})
    for rep in range(3):
        agg = dqcount.run_distributed(oracle, 1, 0.002, 0.1, base_seed=7 + 2 * rep)
        for res in agg.per_node:
            run_rows = trace[rep, res.node_id]
            assert [int(row["round"]) for row in run_rows] == list(
                range(1, len(res.rounds) + 1))


_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_hash_suite():
    spec = importlib.util.spec_from_file_location("hash_suite", _TOOLS / "hash_suite.py")
    hash_suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hash_suite)
    return hash_suite


def test_hash_suite_matches_expected_bytes():
    """The seeded runs of tools/hash_suite.py still write the bytes pinned
    in tools/hash_suite.expected (the determinism contract)."""
    expected = (_TOOLS / "hash_suite.expected").read_text(encoding="ascii").splitlines()
    assert load_hash_suite().hashes() == expected


@pytest.mark.parametrize("name", ["count-failed-reps", "count-stride-sv"])
def test_count_summary_agrees_with_runs_csv(tmp_path, name):
    """Every summary.json tally and mean is read back from runs.csv: a mean
    is the rep-order sum of its node's column over reps, to the last bit."""
    argv, expected = next((argv, code) for run, argv, _, code in load_hash_suite().suite()
                          if run == name)
    assert main(argv + ["--out", str(tmp_path)]) == expected
    summary = json.loads(read(tmp_path / "summary.json"))
    rows = list(csv.DictReader(io.StringIO(read(tmp_path / "runs.csv").decode())))
    reps = summary["config"]["reps"]
    assert len(rows) == reps * len(summary["per_node"])

    def mean(node_rows, value):
        return sum_in_order(value(row) for row in node_rows) / reps

    for j, node in enumerate(summary["per_node"]):
        mine = [row for row in rows if int(row["node_id"]) == j]
        assert [int(row["rep"]) for row in mine] == list(range(reps))
        assert node == {
            "node_id": j,
            **{f"mean_{key}": mean(mine, lambda row: float(row[column]))
               for key, column in (("c", "count_estimate"), ("t_prime", "t_prime"),
                                   ("oracle_calls", "oracle_calls"),
                                   ("max_big_k", "max_big_k"),
                                   ("total_shots", "total_shots"))},
            "mean_depth": mean(mine, lambda row: (int(row["max_big_k"]) - 1) // 2),
            "successes": sum(row["status"] == "success" for row in mine),
        }
    by_rep = defaultdict(list)
    for row in rows:
        by_rep[int(row["rep"])].append(row)
    assert summary["failed_reps"] == sum(
        any(row["status"] != "success" for row in rep_rows) for rep_rows in by_rep.values())
    assert summary["t_prime_counts"] == {
        str(t): c for t, c in sorted(Counter(
            sum(int(row["t_prime"]) for row in rep_rows) for rep_rows in by_rep.values()
        ).items())}
    assert expected == (1 if summary["failed_reps"] else 0)


def test_count_memory_does_not_grow_with_reps(tmp_path):
    """`count` holds no finished rep's results: without --trace, the
    tracemalloc peak grows by under 1 KiB per extra node run, which is the
    runs.csv row it keeps. Measured on a 2-core x86-64 host, Python
    3.11.7: 0.54 KiB per node run, where keeping every rep's
    AggregateResult until the end gave 2.06 KiB. The test takes about 1 s.
    """
    argv = ["count", "--n", "7", "--marked", ",".join(map(str, range(0, 127, 3))),
            "--k", "3", "--epsilon", "0.01", "--out", str(tmp_path)]

    def peak(reps):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + ["--reps", str(reps)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # warm-up: imports, caches and the parser are made once
    per_node_run = (peak(8) - peak(2)) / (6 * 8)
    assert per_node_run < 1024


def test_count_command_statevector_backend(tmp_path):
    out = tmp_path / "sv"
    code = main([
        "count", "--n", "6", "--marked", "38,8,16", "--k", "1",
        "--epsilon-node", "0.005", "--alpha-node", "0.05",
        "--backend", "statevector",
        "--reps", "1", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["t_prime_counts"] == {"3": 1}
    assert summary["per_node"][0]["mean_t_prime"] == 2.0


def test_count_command_oracle_file(tmp_path):
    oracle_file = tmp_path / "marked.txt"
    oracle_file.write_text("100110\n001000\n010000\n")
    out = tmp_path / "out"
    code = main([
        "count", "--oracle-file", str(oracle_file), "--k", "1",
        "--epsilon", "0.002", "--alpha", "0.1", "--reps", "1",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["config"]["n"] == 6
    assert summary["config"]["marked"] == [8, 16, 38]


def test_config_file_merges_with_flag_priority(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 6, "marked": "38,8,16", "reps": 2, "seed": 5}))
    out = tmp_path / "out"
    code = main([
        "count", "--config", str(config), "--reps", "1",
        "--epsilon-node", "0.001", "--alpha-node", "0.05", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["config"]["reps"] == 1  # flag wins
    assert summary["config"]["seed"] == 5  # config fills the gap

    # the config file can set flags that have a non-None default
    config.write_text(json.dumps({
        "n": 6, "marked": "38,8,16", "k": 2, "backend": "statevector",
        "scheme": "stride", "trace": True, "reps": 2,
    }))
    out = tmp_path / "out2"
    code = main([
        "count", "--config", str(config), "--reps", "1",
        "--epsilon-node", "0.0025", "--alpha-node", "0.025", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["config"]["k"] == 2
    assert summary["config"]["backend"] == "statevector"
    assert summary["config"]["scheme"] == "stride"
    assert summary["config"]["reps"] == 1  # flag wins over a non-None default too
    assert "shots_per_batch" not in summary["config"]
    assert (out / "trace.csv").exists()


def written(out):
    """The bytes of a --out file, or of each file in a --out directory."""
    if out.is_dir():
        return {path.name: read(path) for path in sorted(out.iterdir())}
    return read(out)


def test_one_parser_per_process_leaks_no_setting(tmp_path):
    """`main` builds its parser once. A config-file count, a plain count and
    bench, run in turn on that parser, each write the bytes they write on a
    freshly built one."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": 2, "scheme": "stride", "trace": True,
                                  "backend": "statevector", "reps": 2, "seed": 5}))
    count = ["count", "--n", "6", "--marked", "38,8,16",
             "--epsilon-node", "0.0025", "--alpha-node", "0.025"]
    runs = [("config-count", count + ["--config", str(config)]),
            ("count", count),
            ("bench.json", ["bench", "--n", "6", "--k", "2", "--epsilon-node", "0.002"])]
    fresh = {}
    for name, argv in runs:
        build_parser.cache_clear()
        assert main(argv + ["--out", str(tmp_path / "fresh" / name)]) == 0
        fresh[name] = written(tmp_path / "fresh" / name)
    assert "trace.csv" in fresh["config-count"] and "trace.csv" not in fresh["count"]

    build_parser.cache_clear()
    for name, argv in runs:
        assert main(argv + ["--out", str(tmp_path / "shared" / name)]) == 0
        assert written(tmp_path / "shared" / name) == fresh[name]
    assert build_parser.cache_info().misses == 1


def test_inner_product_and_hamming_commands(tmp_path):
    x = "1" * 64
    out = tmp_path / "ip.json"
    code = main([
        "inner-product", "--x", x, "--y", x, "--k", "1",
        "--epsilon", "0.01", "--alpha", "0.05",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(read(out))
    assert payload["exact"] == 1.0
    assert payload["abs_error"] <= payload["error_bound"]
    assert payload["ledger"]["total_qubits"] <= payload["communication_bound"]
    result = estimate_inner_product([1] * 64, [1] * 64, 1, 0.01, 0.05, base_seed=1)
    assert (payload["exact"], payload["communication_bound"]) == (
        result.exact, result.communication_bound)

    vec = tmp_path / "x.txt"
    vec.write_text("01" * 32)
    out2 = tmp_path / "hd.json"
    code = main([
        "hamming", "--x", str(vec), "--y", "10" * 32, "--k", "1",
        "--seed", "2", "--out", str(out2),
    ])
    assert code == 0
    payload = json.loads(read(out2))
    assert payload["exact"] == 1.0
    result = estimate_hamming([0, 1] * 32, [1, 0] * 32, 1, 0.01, 0.05, base_seed=2)
    assert (payload["exact"], payload["communication_bound"]) == (
        result.exact, result.communication_bound)

    # inline vectors longer than a file name may be: 150 of 300 bits differ
    out3 = tmp_path / "long.json"
    code = main([
        "hamming", "--x", "0110" * 75, "--y", "0011" * 75, "--k", "1",
        "--seed", "3", "--out", str(out3),
    ])
    assert code == 0
    payload = json.loads(read(out3))
    assert payload["n"] == 9
    assert payload["exact"] == 150 / 512
    result = estimate_hamming([0, 1, 1, 0] * 75, [0, 0, 1, 1] * 75, 1, 0.01, 0.05, base_seed=3)
    assert (payload["exact"], payload["communication_bound"]) == (
        result.exact, result.communication_bound)


def test_compare_command(tmp_path):
    out = tmp_path / "cmp"
    code = main([
        "compare-miqae", "--epsilons", "0.005", "--reps", "4",
        "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    lines = read(out / "sweep.csv").decode().splitlines()
    assert lines[0] == "epsilon,algorithm,successes,mean_max_big_k,mean_oracle_calls,mean_total_shots"
    assert len(lines) == 3
    assert {ln.split(",")[1] for ln in lines[1:]} == {"diqc", "miqae"}


def test_compare_command_runs_each_estimator_at_its_config_default(tmp_path):
    """Without --shots-per-batch, compare-miqae's rows are those of
    DiqcConfig(eps, alpha) and MiqaeConfig(eps, alpha) at their defaults:
    successes, then the means over the good runs, or over every run when
    none succeeded. The hash suite's two runs at amplitude 0.63 have one
    good DIQC run of two and none of one."""
    suite = {run: argv for run, argv, _, _ in load_hash_suite().suite()}
    for argv, diqc_successes in (
            (["compare-miqae", "--epsilons", "0.005", "--reps", "3", "--seed", "4"], 3),
            (suite["compare-miqae-one-failed"], 1),
            (suite["compare-miqae-all-failed"], 0)):
        out = tmp_path / str(diqc_successes)
        assert main(argv + ["--out", str(out)]) == 0
        args = build_parser().parse_args(argv)
        eps, reps = float(args.epsilons), range(args.reps)
        expected = []
        for name, runs in (
            ("diqc", [run_amplitude(args.amplitude, DiqcConfig(eps, args.alpha),
                                    seed=args.seed + rep) for rep in reps]),
            ("miqae", [run_for_amplitude(args.amplitude, MiqaeConfig(eps, args.alpha),
                                         seed=args.seed + rep) for rep in reps]),
        ):
            good = [res for res in runs if res.succeeded]
            pool = good or runs
            means = [sum(getattr(res, field) for res in pool) / len(pool)
                     for field in ("max_big_k", "oracle_calls", "total_shots")]
            expected.append(",".join([repr(eps), name, str(len(good)), *map(repr, means)]))
        assert read(out / "sweep.csv").decode().splitlines()[1:] == expected
        assert expected[0].split(",")[2] == str(diqc_successes)


def test_compare_command_rejects_empty_sweep(tmp_path, capsys):
    assert main(["compare-miqae", "--epsilons", "", "--reps", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert error_line(capsys) == "error: empty epsilon sweep\n"
    assert not (tmp_path / "out").exists()


def reject_constant(name):
    raise ValueError(f"JSON holds {name}")


def test_bench_command(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["bench", "--n", "6", "--k", "1", "--out", str(out)]) == 0
    payload = json.loads(read(out))
    assert payload["cost_dominance_holds"] is True
    assert payload["per_node"]["qubits"] == 7
    assert payload["communication_bound_hamming"] < payload["communication_bound_inner"]

    # the largest n whose report is finite; n = 1013 exits 2
    out = tmp_path / "top.json"
    assert main(["bench", "--n", "1012", "--k", "1", "--out", str(out)]) == 0
    payload = json.loads(read(out), parse_constant=reject_constant)
    assert payload["per_node"]["query_bound"] < float("inf")


def error_line(capsys):
    """The stderr of the last rejection, which must be one `error: ` line:
    no usage text and no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    return err


_SPLIT = "n=1 cannot be split over nodes: n must be at least 2"
_TOP_N = ("n must be at most 1012 for the counting comparison, "
          "whose node query bound overflows float64 above it, got {}")
_NULL = "config file sets option {!r} to null"
# Every pinned rejection: (command line, config file or None, the message
# after "error: "). A config is JSON-dumped, or written as is when it is a
# string. bits.txt, in the working directory of the test, holds the 2-bit
# strings 10 and 11. A test id is the row's position (argv<i>-<config>),
# so a new row goes at the end.
_REJECTIONS = [
    ("count --n 6 --marked 1 --reps 0", None, "argument --reps: must be at least 1, got 0"),
    ("count --n 6 --marked 1 --reps -1", None, "argument --reps: must be at least 1, got -1"),
    ("compare-miqae --epsilons 0.005 --reps 0", None,
     "argument --reps: must be at least 1, got 0"),
    ("count --n 6 --marked 1 --parallel", None, "unrecognized arguments: --parallel"),
    ("count --n 6 --marked 1", {"workers": 4}, "config file sets unknown option 'workers'"),
    # argparse's own wording, which differs between Python versions
    ("count --n 6 --marked 1", {"scheme": "modulo"}, None),
    ("count --n 6 --marked 1 --k 2000 --epsilon-node 0.001 --alpha-node 0.05", None,
     "k must lie in [1, 5] for n=6, got 2000"),
    ("inner-product --x 0110 --y 0101 --k 2000", None, "k must lie in [1, 1] for n=2, got 2000"),
    ("count --n 2000 --marked 1 --k 1", None, "n must lie in [1, 1023], got 2000"),
    ("bench --n 2000 --k 1", None, "n must be at most 1023, got 2000"),
    ("bench --seed 1", None, "unrecognized arguments: --seed 1"),
    ("count --n 6 --marked 1 --k -1", None, "k must lie in [1, 5] for n=6, got -1"),
    # 2^k nodes at a budget below the epsilon floor
    ("count --n 40 --marked 1 --k 30 --reps 1", None,
     "--epsilon over 2^30 nodes must lie in [1e-07, 0.01], got 1.86265e-12"),
    ("count --n 1000 --marked 1 --k 999 --reps 1", None,
     "--epsilon over 2^999 nodes must lie in [1e-07, 0.01], got 3.73305e-304"),
    ("bench --n 6 --k 1 --epsilon-node 1e-12", None,
     "--epsilon-node must lie in [1e-07, 0.01], got 1e-12"),
    ("bench --epsilon-node 0.5", None, "--epsilon-node must lie in [1e-07, 0.01], got 0.5"),
    ("bench --alpha-node 0.9", None, "--alpha-node must lie in [1e-300, 3/4), got 0.9"),
    ("compare-miqae --epsilons 5e-8", None, "--epsilons must lie in [1e-07, 0.01], got 5e-08"),
    ("compare-miqae --epsilons 0.05", None, "--epsilons must lie in [1e-07, 0.01], got 0.05"),
    ("compare-miqae --alpha 0.8", None, "--alpha must lie in [1e-300, 3/4), got 0.8"),
    ("count --n 1 --marked 0 --k 1", None, _SPLIT),
    ("inner-product --x 01 --y 01", None, _SPLIT),
    ("bench --n 1013 --k 1", None, _TOP_N.format(1013)),
    ("bench --n 1023 --k 1", None, _TOP_N.format(1023)),
    # bench applies count's budget rule: 2^k times each per-node value
    ("bench --n 1012 --k 1011", None,
     "--epsilon-node times 2^1011 nodes must lie in (0, 0.01], got 2.19445e+301"),
    ("bench --n 6 --k 4", None, "--epsilon-node times 2^4 nodes must lie in (0, 0.01], got 0.016"),
    ("bench --n 6 --k 4 --epsilon-node 0.0001", None,
     "--alpha-node times 2^4 nodes must lie in (0, 3/4), got 0.8"),
    ("count --n 6 --marked 1 --k 4 --epsilon-node 0.001", None,
     "--epsilon-node times 2^4 nodes must lie in (0, 0.01], got 0.016"),
    ("count --n 6 --marked 1 --k 4 --alpha-node 0.05", None,
     "--alpha-node times 2^4 nodes must lie in (0, 3/4), got 0.8"),
    ("count --n 6 --marked 1 --epsilon 0.05", None, "--epsilon must lie in (0, 0.01], got 0.05"),
    ("count --n 6 --marked 1 --shots-per-batch 0", None,
     "unrecognized arguments: --shots-per-batch 0"),
    ("compare-miqae --reps 1 --shots-per-batch 0", None,
     "argument --shots-per-batch: must be at least 1, got 0"),
    # a global epsilon counts a 2^k-th on each node, below the node floor here
    ("count --n 6 --marked 1 --k 1 --epsilon 1e-7", None,
     "--epsilon over 2^1 nodes must lie in [1e-07, 0.01], got 5e-08"),
    ("count --n 20 --marked 1 --k 15", None,
     "--epsilon over 2^15 nodes must lie in [1e-07, 0.01], got 6.10352e-08"),
    ("hamming --x 0101 --y 0110 --epsilon 1e-7", None,
     "--epsilon over 2^1 nodes must lie in [1e-07, 0.01], got 5e-08"),
    ("inner-product --x 0101 --y 0110 --epsilon 0.02", None,
     "--epsilon must lie in (0, 0.01], got 0.02"),
    ("count --n 24 --marked 1 --k 1 --backend statevector", None,
     "25 qubits exceeds the statevector limit (22)"),
    ("count --n 6 --marked 1 --seed -1", None, "argument --seed: must be at least 0, got -1"),
    ("hamming --x 0101 --y 0110 --seed -3", None, "argument --seed: must be at least 0, got -3"),
    ("compare-miqae --seed -3", None, "argument --seed: must be at least 0, got -3"),
    # the node estimator's batch is a DiqcConfig field, not a flag
    ("inner-product --x 0101 --y 0110 --shots-per-batch 5", None,
     "unrecognized arguments: --shots-per-batch 5"),
    ("hamming --x 0101 --y 0110 --shots-per-batch 5", None,
     "unrecognized arguments: --shots-per-batch 5"),
    ("count --n 6 --marked 1", {"shots-per-batch": 5},
     "config file sets unknown option 'shots-per-batch'"),
    ("count --n 6 --marked 1,x", None, "--marked must be comma-separated integers, got '1,x'"),
    ("count --n 6 --marked 1.5", None, "--marked must be comma-separated integers, got '1.5'"),
    ("compare-miqae --amplitude 2", None, "--amplitude must lie in [0, 1], got 2"),
    ("compare-miqae --amplitude -0.1", None, "--amplitude must lie in [0, 1], got -0.1"),
    ("compare-miqae --amplitude nan", None, "--amplitude must lie in [0, 1], got nan"),
    ("compare-miqae --epsilons 0.001,x", None,
     "--epsilons must be comma-separated numbers, got '0.001,x'"),
    # below the alpha floor a first round's 2/alpha_i would overflow float64
    ("count --n 6 --marked 1 --k 1 --alpha 1e-320", None,
     "--alpha over 2^1 nodes must lie in [1e-300, 3/4), got 4.99994e-321"),
    ("hamming --x 0110 --y 0101 --alpha 1e-320", None,
     "--alpha over 2^1 nodes must lie in [1e-300, 3/4), got 4.99994e-321"),
    ("compare-miqae --alpha 1e-303 --reps 1 --epsilons 1e-7", None,
     "--alpha must lie in [1e-300, 3/4), got 1e-303"),
    ("count --n 6 --marked 1 --k 1 --alpha-node 5e-324", None,
     "--alpha-node must lie in [1e-300, 3/4), got 4.94066e-324"),
    ("bench --alpha-node 1e-320", None, "--alpha-node must lie in [1e-300, 3/4), got 9.99989e-321"),
    ("hamming --x 2 --y 01", None, "'2' is neither a file nor a 0/1 string"),
    # count checks a per-node flag on its own range as bench does, and a
    # global flag on its own range before its 2^k-th
    ("count --n 6 --marked 1 --epsilon-node 0.5", None,
     "--epsilon-node must lie in [1e-07, 0.01], got 0.5"),
    ("count --n 6 --marked 1 --alpha-node 0.9", None,
     "--alpha-node must lie in [1e-300, 3/4), got 0.9"),
    ("count --n 6 --marked 1 --epsilon-node 0.001 --alpha 5", None,
     "--alpha must lie in (0, 3/4), got 5"),
    # a config file that is not JSON, one that holds a list
    ("count --n 6 --marked 1", "{", "cannot read config file: Expecting property name "
                                    "enclosed in double quotes: line 1 column 2 (char 1)"),
    ("count --n 6 --marked 1", [6, 1], "config file must hold a JSON object"),
    ("count --marked 1", None, "need --n (or a bit-string oracle file that implies it)"),
    ("hamming --x 0101", None, "need --x and --y"),
    ("count --n 6 --oracle-file bits.txt", None,
     "--n 6 differs from the width 2 of the bit strings in bits.txt"),
    # the lengths are compared before x's width is checked against the split
    ("hamming --x 01 --y 0110", None, "vector lengths differ: 2 != 4"),
    ("hamming --x 0110 --y 01", None, "vector lengths differ: 4 != 2"),
    # a JSON null is no value: it would reach argparse as the string "None"
    ("hamming --x 0110 --y 0101", {"out": None}, _NULL.format("out")),
    ("count --n 6 --marked 1", {"out": None}, _NULL.format("out")),
    ("count --n 6 --marked 1", {"k": None}, _NULL.format("k")),
    # an empty vector is no file name, though Path('') is the working directory
    ("hamming --x= --y=", None, "'' is neither a file nor a 0/1 string"),
    ("hamming", {"x": "", "y": ""}, "'' is neither a file nor a 0/1 string"),
    # a removed command; argparse's invalid-choice wording differs between versions
    ("prop-check", None, None),
]
_MESSAGES = {(line, repr(config)): message for line, config, message in _REJECTIONS}


@pytest.mark.parametrize("argv, config", [(line.split(), config)
                                          for line, config, _ in _REJECTIONS])
def test_invalid_inputs_exit_2_without_traceback(tmp_path, capsys, monkeypatch, argv, config):
    message = _MESSAGES[" ".join(argv), repr(config)]
    (tmp_path / "bits.txt").write_text("10\n11\n")
    monkeypatch.chdir(tmp_path)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = error_line(capsys)
    assert not (tmp_path / "out").exists()
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, config, message", [
    (["count", "--n", "6", "--marked", "1", "--seed", "-1"], None, "must be at least 0, got -1"),
    (["hamming", "--x", "0101", "--y", "0110", "--seed", "-3"], None,
     "must be at least 0, got -3"),
    (["compare-miqae", "--seed", "-3"], None, "must be at least 0, got -3"),
    (["inner-product", "--x", "0101", "--y", "0110", "--seed", "-1"], None,
     "must be at least 0, got -1"),
    (["count", "--n", "6", "--marked", "1"], {"seed": -1}, "must be at least 0, got -1"),
    (["compare-miqae"], {"seed": -3}, "must be at least 0, got -3"),
    (["count", "--n", "6", "--marked", "1", "--seed", "abc"], None,
     "must be an integer, got 'abc'"),
])
def test_negative_seed_names_the_flag(tmp_path, capsys, argv, config, message):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert error_line(capsys) == f"error: argument --seed: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("budget, settings", [
    ("epsilon", {"epsilon": 0.002, "epsilon-node": 0.001}),
    ("alpha", {"alpha": 0.1, "alpha-node": 0.05}),
])
def test_global_and_node_budget_are_mutually_exclusive(tmp_path, capsys, budget, settings,
                                                       via_config):
    argv = ["count", "--n", "6", "--marked", "1"]
    if via_config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(settings))
        argv += ["--config", str(path)]
    else:
        argv += [f"--{key}={value}" for key, value in settings.items()]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert error_line(capsys) == f"error: --{budget} and --{budget}-node are mutually exclusive\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, epsilon, alpha", [
    ("count", "0.002", "0.1"), ("hamming", "0.01", "0.05"), ("inner-product", "0.01", "0.05"),
])
def test_help_shows_the_budget_defaults(capsys, command, epsilon, alpha):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"global target half-width (default {epsilon})" in text
    assert f"global significance level (default {alpha})" in text


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert error_line(capsys) == "error: the following arguments are required: command\n"
    assert main(["count", "--k", "1"]) == 2  # no marked set
    assert error_line(capsys) == "error: need --marked or --oracle-file\n"
    # domain error from validation maps to exit code 2
    assert main(["count", "--n", "6", "--marked", "99",
                 "--out", str(tmp_path / "x")]) == 2
    assert error_line(capsys) == "error: marked elements outside [0, 64): [99]\n"


# commands that write their JSON to stdout when --out is omitted
_STDOUT_COMMANDS = [
    ["bench", "--n", "6", "--k", "1"],
    ["hamming", "--x", "0110", "--y", "1010"],
]


@pytest.mark.parametrize("argv", _STDOUT_COMMANDS)
def test_json_goes_to_stdout_without_out(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("ascii") == read(tmp_path / "out.json")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", _STDOUT_COMMANDS)
def test_closed_stdout_pipe_exits_1_quietly(argv, unbuffered):
    # The read end is closed before the child starts, so its first write to
    # stdout (or the flush at the end of main) always fails with EPIPE.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(dqcount.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "dqcount.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
