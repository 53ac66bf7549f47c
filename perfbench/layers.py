"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each public function of a dqcount module at
every module attribute the workloads reach it through (a name imported
with ``from .diqc import run_node`` is a separate binding and is wrapped
separately), and `uninstall()` puts the originals back. A wrapped call is a
span: its duration, and its self time (duration minus the spans it
encloses), are folded into per-name counters when it closes. No span list
is kept, so the ~700k per-shot sampler calls of a traced count_desk run
cost counters, not memory.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import dqcount
import dqcount.applications
import dqcount.cli
import dqcount.coordinator
import dqcount.diqc
import dqcount.miqae
import dqcount.qsim


def _diqc_candidates(args, result) -> int:
    """Odd K the downward scan of diqc.find_next_k visits for one call."""
    theta_min, theta_max, q, big_k_current = (args[n] for n in
                                              ("theta_min", "theta_max", "q", "big_k_current"))
    start = 2 * int(math.pi / (4 * (theta_max - theta_min)) - 0.5) + 1
    cap = args["big_k_cap"]
    if cap is not None and start > cap - 2:
        start = cap - 2
    found_k, found_r = result
    stop = found_k if found_r is not None else q * big_k_current
    return max(0, (start - stop) // 2 + 1)


def _miqae_candidates(args, result) -> int:
    """Odd K the downward scan of miqae.find_next_k visits for one call."""
    k_i = args["k_i"]
    start = int(math.pi / (2 * (args["theta_high"] - args["theta_low"])))
    if start % 2 == 0:
        start -= 1
    stop = 2 * result + 1 if result != k_i else 3 * (2 * k_i + 1)
    return max(0, (start - stop) // 2 + 1)


def _stalls(res) -> int:
    """Rounds granted a second budget at the same K, plus a final failed stall."""
    rounds = res.rounds
    repeats = sum(a.big_k == b.big_k for a, b in zip(rounds, rounds[1:]))
    return repeats + (res.status == "failed")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._sample_sums = [0, 0, 0.0, 0]  # calls, shots, seconds, calls from miqae
        self._originals: list[tuple] = []

    def _wrap(self, owner, attr: str, name: str, after=None, bind=False) -> None:
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if bind else None
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    args = bound.arguments
                after(args, result)
            return result

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def _wrap_sample(self, owner) -> None:
        """Lean span for a leaf `sample(power, r, shots)`: it runs once per
        shot on the analytic backend, so it keeps running sums only."""
        fn = owner.sample
        stack, sums = self._stack, self._sample_sums

        @functools.wraps(fn)
        def traced(sampler, power, r, shots):
            start = perf_counter()
            result = fn(sampler, power, r, shots)
            elapsed = perf_counter() - start
            sums[0] += 1
            sums[1] += shots
            sums[2] += elapsed
            if stack:
                parent = stack[-1]
                parent[1] += elapsed
                if parent[0] == "miqae.run":
                    sums[3] += 1
            return result

        self._originals.append((owner, "sample", fn))
        owner.sample = traced

    def _parent(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    # after-hooks: counters that need a call's arguments or result
    def _after_sample(self, args, result) -> None:
        self.counts["shots"] += args[3]
        if self._parent() == "miqae.run":
            self.counts["miqae.sample_calls"] += 1

    def _after_sv_build(self, args, result) -> None:
        sub, _, power = args
        self.counts["sv_bytes"] += 16 * (1 << (sub.m + 2)) * (2 * power + 1)

    def _after_node(self, args, res) -> None:
        c = self.counts
        c["rounds"] += len(res.rounds)
        c["backtracks"] += sum(rd.backtracked for rd in res.rounds)
        c["stalls"] += _stalls(res)
        c["run_shots"] += res.total_shots
        if self._parent() == "applications.solve":
            c["app_node_physical"] += res.oracle_calls_physical

    def _after_miqae(self, args, res) -> None:
        self.counts["run_shots"] += res.total_shots

    def _after_app(self, args, res) -> None:
        self.counts["preparations"] += res.ledger.preparations
        self.counts["total_qubits"] += res.ledger.total_qubits

    def _after_cli(self, args, code) -> None:
        argv = list(args[0])
        out = Path(argv[argv.index("--out") + 1])
        for path in out.iterdir():
            data = path.read_bytes()
            self.counts["cli_bytes"] += len(data)
            if path.suffix == ".csv":
                self.counts["cli_rows"] += data.count(b"\n") - 1

    def _after_find_diqc(self, args, result) -> None:
        self.counts["diqc_candidates"] += _diqc_candidates(args, result)

    def _after_find_miqae(self, args, result) -> None:
        self.counts["miqae_candidates"] += _miqae_candidates(args, result)

    def install(self) -> None:
        dq, cli, coord, diqc, miqae, qsim, apps = (
            dqcount, dqcount.cli, dqcount.coordinator, dqcount.diqc,
            dqcount.miqae, dqcount.qsim, dqcount.applications,
        )
        w = self._wrap
        w(cli, "main", "cli.main", self._after_cli)
        for owner in (dq, cli):
            w(owner, "run_distributed", "coordinator.run_distributed")
        w(coord, "decompose_prefix", "oracle.decompose")
        w(coord, "decompose_stride", "oracle.decompose")
        for owner in (dq, diqc, coord, apps):
            w(owner, "run_node", "diqc.run", self._after_node)
        for owner in (dq, diqc, cli):
            w(owner, "run_amplitude", "diqc.run", self._after_node)
        w(diqc, "find_next_k", "diqc.find_next_k", self._after_find_diqc, bind=True)
        # diqc binds its own names for the interval update; miqae's bindings
        # stay unwrapped so that time counts as miqae's own.
        w(diqc, "chernoff_interval", "diqc.interval_update")
        w(diqc, "gamma_from_interval", "diqc.interval_update")
        w(diqc, "post_process", "diqc.post_process")
        for owner in (dq, miqae):
            w(owner, "run_miqae", "miqae.run", self._after_miqae)
        w(miqae, "find_next_k", "miqae.find_next_k", self._after_find_miqae, bind=True)
        self._wrap_sample(qsim.AnalyticSampler)
        w(qsim.StatevectorSampler, "sample", "qsim.sample", self._after_sample)
        w(qsim.StatevectorSampler, "probability", "qsim.sv_probability")
        w(qsim, "prob11_statevector", "qsim.sv_build", self._after_sv_build)
        w(qsim, "apply_Q", "qsim.apply_Q")
        for owner in (dq, apps, cli):
            w(owner, "estimate_hamming", "applications.solve", self._after_app)
            w(owner, "estimate_inner_product", "applications.solve", self._after_app)
        w(apps, "hamming_suboracle", "oracle.suboracle")
        w(apps, "inner_product_suboracle", "oracle.suboracle")

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)
        calls, shots, seconds, from_miqae = self._sample_sums
        self.calls["qsim.sample"] += calls
        self.self_s["qsim.sample"] += seconds
        self.total_s["qsim.sample"] += seconds
        self.counts["shots"] += shots
        self.counts["miqae.sample_calls"] += from_miqae
        self._sample_sums[:] = [0, 0, 0.0, 0]

    def check(self) -> list[str]:
        """Cross-checks between layer counters and the results they produced."""
        c = self.counts
        errors = []
        if c["shots"] != c["run_shots"]:
            errors.append(f"qsim.shots {c['shots']:.0f} != sum of run total_shots "
                          f"{c['run_shots']:.0f}")
        if c["preparations"] != c["app_node_physical"]:
            errors.append(f"applications.preparations {c['preparations']:.0f} != sum of "
                          f"node oracle_calls_physical {c['app_node_physical']:.0f}")
        return errors

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, by the names BENCHMARK.json lists."""
        calls, total_s, self_s, c = self.calls, self.total_s, self.self_s, self.counts
        samples = calls["qsim.sample"]
        probes = calls["qsim.sv_probability"]
        return {
            "qsim.sample_calls": (samples, "count"),
            "qsim.shots": (c["shots"], "count"),
            "qsim.shots_per_call": (c["shots"] / samples if samples else 0.0, "ratio"),
            "qsim.sample_s": (self_s["qsim.sample"], "s"),
            "qsim.sv_builds": (calls["qsim.sv_build"], "count"),
            "qsim.sv_iterates": (calls["qsim.apply_Q"], "count"),
            "qsim.sv_build_s": (total_s["qsim.sv_build"], "s"),
            "qsim.sv_cache_hit_ratio": (
                1 - calls["qsim.sv_build"] / probes if probes else 0.0, "ratio"),
            "qsim.sv_bytes_computed": (c["sv_bytes"], "B"),
            "diqc.node_runs": (calls["diqc.run"], "count"),
            "diqc.rounds": (c["rounds"], "count"),
            "diqc.self_s": (self_s["diqc.run"], "s"),
            "diqc.backtracks": (c["backtracks"], "count"),
            "diqc.stalls": (c["stalls"], "count"),
            "diqc.interval_update_s": (total_s["diqc.interval_update"], "s"),
            "diqc.post_process_s": (total_s["diqc.post_process"], "s"),
            "diqc.find_next_k_calls": (calls["diqc.find_next_k"], "count"),
            "diqc.find_next_k_s": (total_s["diqc.find_next_k"], "s"),
            "diqc.k_candidates": (c["diqc_candidates"], "count"),
            "miqae.runs": (calls["miqae.run"], "count"),
            "miqae.self_s": (self_s["miqae.run"], "s"),
            "miqae.sample_calls": (c["miqae.sample_calls"], "count"),
            "miqae.find_next_k_calls": (calls["miqae.find_next_k"], "count"),
            "miqae.find_next_k_s": (total_s["miqae.find_next_k"], "s"),
            "miqae.k_candidates": (c["miqae_candidates"], "count"),
            "coordinator.calls": (calls["coordinator.run_distributed"], "count"),
            "coordinator.self_s": (self_s["coordinator.run_distributed"], "s"),
            "oracle.decompose_s": (total_s["oracle.decompose"], "s"),
            "oracle.suboracle_calls": (calls["oracle.suboracle"], "count"),
            "oracle.suboracle_s": (total_s["oracle.suboracle"], "s"),
            "applications.solves": (calls["applications.solve"], "count"),
            "applications.self_s": (self_s["applications.solve"], "s"),
            "applications.preparations": (c["preparations"], "count"),
            "applications.total_qubits": (c["total_qubits"], "qubit"),
            "cli.invocations": (calls["cli.main"], "count"),
            "cli.self_s": (self_s["cli.main"], "s"),
            "cli.rows_written": (c["cli_rows"], "count"),
            "cli.bytes_written": (c["cli_bytes"], "B"),
        }
