"""Smoke tests: both timing tools run end to end at a small size."""

import importlib.util
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_k_search_cost_prints_one_line_per_group(monkeypatch, capsys):
    tool = _load_tool("k_search_cost")
    monkeypatch.setattr(tool, "EPSILONS", (1e-3,))
    monkeypatch.setattr(tool, "AMPLITUDES", (0.3, 0.9))
    monkeypatch.setattr(tool, "REPEATS", 1)
    tool.main()
    header, columns, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith("# python ") and header.endswith("best of 1")
    assert columns.split() == ["scan", "epsilon", "K", "visited", "searches", "us/search"]
    rows = [line.split() for line in lines]
    labels = [label for label, _ in tool.BUCKETS] + ["all"]
    for name in ("diqc", "miqae"):
        mine = [row for row in rows if row[0] == name]
        assert [row[2] for row in mine][-1] == "all"
        assert all(row[1] == "1e-03" and row[2] in labels and float(row[4]) > 0 for row in mine)
        searches = [int(row[3]) for row in mine]
        assert sum(searches[:-1]) == searches[-1] > 0
    assert len(rows) == len(lines)
    assert {row[0] for row in rows} == {"diqc", "miqae"}


def test_shot_cost_prints_one_line_per_case(monkeypatch, capsys):
    tool = _load_tool("shot_cost")
    monkeypatch.setattr(tool, "REPEATS", 1)
    monkeypatch.setattr(tool, "SHOTS", 200)
    monkeypatch.setattr(tool, "ITERATE_QUBITS", (6,))
    tool.main()
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith("# python ") and header.endswith("best of 1")
    labels = [line[:36].strip() for line in lines]
    assert labels == [
        "sample_round analytic",
        "sample_round statevector 14 qubits",
        "numpy binomial(1, p), float p",
        "numpy binomial(1, p), 0-d array p",
        "numpy binomial(1, p, size=n).sum()",
        "apply_Q  6 qubits",
        "hamming_suboracle 2^13 bits, k 1",
        "fresh statevector 14 qubits, A|0>",
    ]
    units = ["ns/shot", "ns/shot", "ns/call", "ns/call", "ns/shot",
             "us/iterate", "us/build", "us/build"]
    for line, unit in zip(lines, units):
        value, got_unit = line[36:].split()
        assert got_unit == unit and float(value) > 0
