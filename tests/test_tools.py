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
    monkeypatch.setattr(tool, "EPSILONS", (1e-3,))
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
    buckets = [label for label, _ in tool.BUCKETS] + ["all"]
    for name in ("diqc", "miqae"):
        mine = [label.split() for label, _, unit in rows[8:]
                if label.startswith(f"{name} K search 1e-03 ") and unit == "us/search"]
        assert [words[4] for words in mine][-1] == "all,"
        assert all(words[4].rstrip(",") in buckets and words[6] == "searches" for words in mine)
        searches = [int(words[5]) for words in mine]
        assert sum(searches[:-1]) == searches[-1] > 0
    solves = [diqc.run_amplitude(a, diqc.DiqcConfig(1e-3, tool.ALPHA), seed=seed)
              for seed, a in enumerate(tool.AMPLITUDES)]
    rounds = sum(len(res.rounds) for res in solves)
    assert [(label, unit) for label, _, unit in rows[-2:]] == [
        (f"interval update 1e-03, {rounds} rounds", "us/round"),
        ("post_process 1e-03, 2 runs", "us/run"),
    ]
    assert len(rows) == 8 + sum(1 for label, _, _ in rows if " K search " in label) + 2
