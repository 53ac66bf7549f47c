import json

import pytest

from dqcount import checks
from dqcount.cli import main


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

    header = read(out_a / "runs.csv").decode().splitlines()[0]
    assert header.startswith("rep,node_id,seed,t_prime,count_estimate")
    rows = read(out_a / "runs.csv").decode().splitlines()[1:]
    assert len(rows) == 6  # 3 reps x 2 nodes


def test_count_command_statevector_backend(tmp_path):
    out = tmp_path / "sv"
    code = main([
        "count", "--n", "6", "--marked", "38,8,16", "--k", "1",
        "--epsilon-node", "0.005", "--alpha-node", "0.05",
        "--backend", "statevector", "--shots-per-batch", "100",
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
        "scheme": "stride", "trace": True, "shots-per-batch": 50,
    }))
    out = tmp_path / "out2"
    code = main([
        "count", "--config", str(config), "--shots-per-batch", "100",
        "--epsilon-node", "0.0025", "--alpha-node", "0.025", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["config"]["k"] == 2
    assert summary["config"]["backend"] == "statevector"
    assert summary["config"]["scheme"] == "stride"
    assert summary["config"]["shots_per_batch"] == 100  # flag wins
    assert (out / "trace.csv").exists()


def test_inner_product_and_hamming_commands(tmp_path):
    x = "1" * 64
    out = tmp_path / "ip.json"
    code = main([
        "inner-product", "--x", x, "--y", x, "--k", "1",
        "--epsilon", "0.01", "--alpha", "0.05",
        "--shots-per-batch", "100", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(read(out))
    assert payload["exact"] == 1.0
    assert payload["abs_error"] <= payload["error_bound"]
    assert payload["ledger"]["total_qubits"] <= payload["communication_bound"]

    vec = tmp_path / "x.txt"
    vec.write_text("01" * 32)
    out2 = tmp_path / "hd.json"
    code = main([
        "hamming", "--x", str(vec), "--y", "10" * 32, "--k", "1",
        "--shots-per-batch", "100", "--seed", "2", "--out", str(out2),
    ])
    assert code == 0
    payload = json.loads(read(out2))
    assert payload["exact"] == 1.0


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


def test_compare_command_rejects_empty_sweep(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare-miqae", "--epsilons", "", "--reps", "1"])
    assert exc.value.code == 2


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


def test_prop_check_command_and_injection(tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.json"
    assert main(["prop-check", "--seed", "0", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 5
    payload = json.loads(read(out))
    assert all(suite["passed"] for suite in payload["suites"])

    failing = [{"name": "injected_failure", "passed": False, "cases": 0}]
    monkeypatch.setattr(checks, "run_all", lambda seed: failing)
    assert main(["prop-check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# the whole stderr of the rows whose message must name a flag or a rule
_SPLIT_ERR = "error: n=1 cannot be split over nodes: n must be at least 2\n"
_TOP_N_ERR = ("error: n must be at most 1012 for the counting comparison, "
              "whose node query bound overflows float64 above it, got {}\n")
_STDERR = {
    "bench --n 6 --k 1 --epsilon-node 1e-12":
        "error: --epsilon-node must lie in [1e-07, 0.01], got 1e-12\n",
    "bench --epsilon-node 0.5": "error: --epsilon-node must lie in [1e-07, 0.01], got 0.5\n",
    "bench --alpha-node 0.9": "error: --alpha-node must lie in (0, 3/4), got 0.9\n",
    "compare-miqae --epsilons 5e-8":
        "error: --epsilons must lie in [1e-07, 0.01], got 5e-08\n",
    "compare-miqae --epsilons 0.05":
        "error: --epsilons must lie in [1e-07, 0.01], got 0.05\n",
    "compare-miqae --alpha 0.8": "error: --alpha must lie in (0, 3/4), got 0.8\n",
    "count --n 1 --marked 0 --k 1": _SPLIT_ERR,
    "inner-product --x 01 --y 01": _SPLIT_ERR,
    "bench --n 1013 --k 1": _TOP_N_ERR.format(1013),
    "bench --n 1023 --k 1": _TOP_N_ERR.format(1023),
    "bench --n 1012 --k 1011":
        "error: the communication bound of 2^1011 nodes overflows float64\n",
}


@pytest.mark.parametrize("argv, config", [
    (["count", "--n", "6", "--marked", "1", "--reps", "0"], None),
    (["count", "--n", "6", "--marked", "1", "--reps", "-1"], None),
    (["compare-miqae", "--epsilons", "0.005", "--reps", "0"], None),
    (["count", "--n", "6", "--marked", "1", "--parallel"], None),
    (["count", "--n", "6", "--marked", "1"], {"workers": 4}),
    (["count", "--n", "6", "--marked", "1"], {"scheme": "modulo"}),
    (["count", "--n", "6", "--marked", "1", "--k", "2000",
      "--epsilon-node", "0.001", "--alpha-node", "0.05"], None),
    (["inner-product", "--x", "0110", "--y", "0101", "--k", "2000"], None),
    (["count", "--n", "2000", "--marked", "1", "--k", "1"], None),
    (["bench", "--n", "2000", "--k", "1"], None),
    (["bench", "--seed", "1"], None),
    (["count", "--n", "6", "--marked", "1", "--k", "-1"], None),
    (["count", "--n", "40", "--marked", "1", "--k", "30", "--reps", "1"], None),
    (["count", "--n", "1000", "--marked", "1", "--k", "999", "--reps", "1"], None),
    *[(line.split(), None) for line in _STDERR],
    (["count", "--n", "6", "--marked", "1", "--shots-per-batch", "0"], None),
    (["compare-miqae", "--reps", "1", "--shots-per-batch", "0"], None),
])
def test_invalid_inputs_exit_2_without_traceback(tmp_path, capsys, argv, config):
    expected_err = _STDERR.get(" ".join(argv))
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    if argv[-2:] == ["--k", "-1"]:
        assert "k must lie in [1, 5]" in err
    if argv[-2:] == ["--reps", "1"]:  # 2^k nodes at a budget below the epsilon floor
        assert err == "error: epsilon_node must lie in [1e-07, 0.01]\n"
    if expected_err is not None:
        assert err == expected_err


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--k", "1"])  # no marked set
    assert exc.value.code == 2
    # domain error from validation maps to exit code 2
    assert main(["count", "--n", "6", "--marked", "99",
                 "--out", str(tmp_path / "x")]) == 2
