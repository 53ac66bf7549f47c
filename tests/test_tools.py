"""Smoke tests: the layer-cost tool runs end to end at a small size."""

import importlib.util
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_layer_cost(monkeypatch, capsys):
    tool = _load_tool("layer_cost")
    monkeypatch.setattr(tool, "REPEATS", 1)
    monkeypatch.setattr(tool, "SHOTS", 200)
    monkeypatch.setattr(tool, "ITERATE_QUBITS", (6,))
    monkeypatch.setattr(tool, "EPSILONS", (1e-3, 1e-7))
    monkeypatch.setattr(tool, "AMPLITUDES", (0.3, 0.9))
    tool.main()
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith("# python ") and header.endswith("best of 1")
    rows = [line.rsplit(None, 2) for line in lines]
    assert all(float(value) > 0 for _, value, _ in rows)
    return tool, rows


def test_shot_cost_prints_one_line_per_case(monkeypatch, capsys):
    _, rows = _run_layer_cost(monkeypatch, capsys)
    assert [(label, unit) for label, _, unit in rows[:7]] == [
        ("sample_round analytic", "ns/shot"),
        ("numpy binomial(1, p), float p", "ns/call"),
        ("numpy binomial(1, p), 0-d array p", "ns/call"),
        ("numpy binomial(1, p, size=n).sum()", "ns/shot"),
        ("apply_Q  6 qubits", "us/iterate"),
        ("hamming_suboracle 2^13 bits, k 1", "us/build"),
        ("fresh statevector 14 qubits, A|0>", "us/build"),
    ]


def test_k_search_cost_prints_one_line_per_group(monkeypatch, capsys):
    # one K-search row per (epsilon, estimator), then the pooled solve rows
    tool, rows = _run_layer_cost(monkeypatch, capsys)
    expected = []
    rounds = runs = 0
    for epsilon in tool.EPSILONS:
        calls, solves = tool.record(epsilon)
        expected += [(f"{name} K search {epsilon:.0e}, {len(calls[name])} searches", "us/search")
                     for name in ("diqc", "miqae")]
        rounds += sum(len(res.rounds) for res in solves)
        runs += len(solves)
    expected += [(f"interval update, {rounds} rounds", "us/round"),
                 (f"post_process, {runs} runs", "us/run")]
    assert [(label, unit) for label, _, unit in rows[7:]] == expected
