"""Smoke test: the benchmark's per-layer tracer still sees every shot."""

import csv
import importlib.util
from pathlib import Path

import sys

import dqcount.applications
import dqcount.cli
import dqcount.diqc
import dqcount.qsim
from dqcount.oracle import SubOracle

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


class _AlwaysGood(dqcount.qsim.AnalyticSampler):
    """Every shot a good outcome, drawn through the traced `sample`."""

    def _advance(self, grover_power, r):
        return 1.0


def test_tracer_counts_the_clamped_round_of_a_rigged_overshoot(monkeypatch):
    # After the K = 1 round the search answers r = 0.2; every shot of the
    # K = 3 round succeeds, which puts a rescaled bound above r, so that
    # round is clamped and flagged. The tracer binds the rigged search's
    # arguments by name, so it keeps the real parameter names.
    answers = iter([(3, 0.2), (9, 1.0)])

    def find_next_k(theta_min, theta_max, q, big_k_current, rescue, big_k_cap=None):
        return next(answers)

    monkeypatch.setattr(dqcount.diqc, "find_next_k", find_next_k)
    tracer = _load_tracer()()
    tracer.install()
    try:
        node = dqcount.diqc.run_amplitude(
            0.9, dqcount.diqc.DiqcConfig(0.01, 0.05), sampler=_AlwaysGood.from_amplitude(0.9))
    finally:
        tracer.uninstall()
    assert [rd.backtracked for rd in node.rounds] == [False, True, False]
    assert tracer.check() == []
    metrics = tracer.metrics()
    assert metrics["diqc.backtracks"][0] == 1
    assert metrics["qsim.shots"][0] == node.total_shots


def _package_attributes() -> dict:
    """Every attribute of every dqcount module and of every class in one,
    as `getattr` resolves it, keyed by (owner id, name)."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "dqcount" or name.startswith("dqcount.")]
    owners += [value for mod in list(owners) for value in vars(mod).values()
               if isinstance(value, type) and value.__module__.startswith("dqcount")]
    return {(id(owner), attr): getattr(owner, attr) for owner in owners for attr in dir(owner)}


def test_uninstall_restores_every_wrapped_attribute():
    """Each attribute the tracer wraps, the sampler methods that
    `AnalyticSampler` and `StatevectorSampler` inherit from `Sampler`
    included, resolves to its old object after `install()` and
    `uninstall()`, and a sampler drawn from while traced then draws what a
    fresh one draws."""
    qsim = dqcount.qsim
    sub = SubOracle(m=3, node_id=0, marked_local=frozenset({1, 6}))

    def make():
        return [qsim.AnalyticSampler.from_sub_oracle(sub, 5), qsim.StatevectorSampler(sub, 5)]

    requests = [(0, 1.0, 20), (0, 1.0, 20), (2, 0.9, 50), (3, 0.9, 50), (1, 0.9, 10)]
    before = _package_attributes()
    tracer = _load_tracer()()
    traced = make()
    tracer.install()
    try:
        wrapped = [(owner, attr) for owner, attr, _ in tracer._originals]
        drawn = [[s.sample(*req) for req in requests] for s in traced]
    finally:
        tracer.uninstall()
    assert {(qsim.AnalyticSampler, "sample"), (qsim.StatevectorSampler, "sample"),
            (qsim.StatevectorSampler, "probability")} <= set(wrapped)
    for owner, attr in wrapped:
        assert getattr(owner, attr) is before[id(owner), attr], (owner, attr)
    for cls in (qsim.AnalyticSampler, qsim.StatevectorSampler):
        assert cls.sample is qsim.Sampler.sample
        assert cls.probability is qsim.Sampler.probability
    for s, got in zip(traced, drawn):
        got += [s.sample(*req) for req in requests]
    fresh = make()
    assert drawn == [[s.sample(*req) for req in requests * 2] for s in fresh]
