"""Smoke tests: the layer-cost tool runs end to end at a small size."""

import importlib.util
from pathlib import Path

import dqcount.diqc as diqc

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
    assert [(label, unit) for label, _, unit in rows[:8]] == [
        ("sample_round analytic", "ns/shot"),
        ("sample_round statevector 14 qubits", "ns/shot"),
        ("numpy binomial(1, p), float p", "ns/call"),
        ("numpy binomial(1, p), 0-d array p", "ns/call"),
        ("numpy binomial(1, p, size=n).sum()", "ns/shot"),
        ("apply_Q  6 qubits", "us/iterate"),
        ("hamming_suboracle 2^13 bits, k 1", "us/build"),
        ("fresh statevector 14 qubits, A|0>", "us/build"),
    ]


def test_k_search_cost_prints_one_line_per_group(monkeypatch, capsys):
    tool, rows = _run_layer_cost(monkeypatch, capsys)
    buckets = [label for label, _ in tool.BUCKETS]
    filled = []
    for epsilon in tool.EPSILONS:
        for name in ("diqc", "miqae"):
            mine = [label.split() for label, _, unit in rows[8:]
                    if label.startswith(f"{name} K search {epsilon:.0e} ") and unit == "us/search"]
            assert all(words[6] == "searches" for words in mine)
            labels = [words[4].rstrip(",") for words in mine]
            searches = [int(words[5]) for words in mine]
            # the buckets that hold searches, in order, then "all" when two or more do
            has_all = labels[-1] == "all"
            if has_all:
                labels.pop()
                assert searches.pop() == sum(searches)
            assert has_all == (len(labels) > 1)
            assert labels == [label for label in buckets if label in labels]
            assert min(searches) > 0
            filled.append(len(labels))
    assert min(filled) == 1 and max(filled) > 1  # both shapes are printed
    solve_rows = []
    for epsilon in tool.EPSILONS:
        solves = [diqc.run_amplitude(a, diqc.DiqcConfig(epsilon, tool.ALPHA), seed=seed)
                  for seed, a in enumerate(tool.AMPLITUDES)]
        rounds = sum(len(res.rounds) for res in solves)
        solve_rows += [(f"interval update {epsilon:.0e}, {rounds} rounds", "us/round"),
                       (f"post_process {epsilon:.0e}, 2 runs", "us/run")]
    assert [(label, unit) for label, _, unit in rows if " K search " not in label][8:] == solve_rows
