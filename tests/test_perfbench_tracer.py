"""Smoke test: the benchmark's per-layer tracer still sees every shot."""

import importlib.util
from pathlib import Path

import dqcount.applications
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
