"""Smoke test: the benchmark's per-layer tracer still sees every shot."""

import csv
import importlib.util
from pathlib import Path

import dqcount.applications
import dqcount.cli
import dqcount.diqc

_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_counts_every_shot_of_a_traced_run():
    tracer = _load_tracer()()
    x = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]
    y = [0, 0, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1]
    tracer.install()
    try:
        # Module attributes, so the calls go through the tracer's wrappers.
        node = dqcount.diqc.run_amplitude(0.3, dqcount.diqc.DiqcConfig(1e-3, 0.05), seed=1)
        pair = dqcount.applications.estimate_hamming(
            x, y, 1, 0.01, 0.05, base_seed=1, backend="statevector"
        )
    finally:
        tracer.uninstall()
    assert tracer.check() == []
    run_shots = node.total_shots + sum(res.total_shots for res in pair.per_node)
    assert tracer.metrics()["qsim.shots"][0] == run_shots


def test_tracer_counts_every_shot_and_row_of_a_traced_count(tmp_path):
    tracer = _load_tracer()()
    out = tmp_path / "count"
    tracer.install()
    try:
        code = dqcount.cli.main([
            "count", "--n", "6", "--marked", "38,8,16", "--k", "1",
            "--epsilon-node", "0.005", "--alpha-node", "0.05", "--reps", "2",
            "--seed", "3", "--trace", "--out", str(out),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.check() == []
    with open(out / "runs.csv", encoding="ascii") as fh:
        runs = list(csv.DictReader(fh))
    with open(out / "trace.csv", encoding="ascii") as fh:
        trace = list(csv.DictReader(fh))
    metrics = tracer.metrics()
    assert metrics["qsim.shots"][0] == sum(int(row["total_shots"]) for row in runs)
    assert metrics["cli.rows_written"][0] == len(runs) + len(trace)
