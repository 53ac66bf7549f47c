"""The benchmark's workloads: inputs built from a seed, one solve, its checks.

Each workload object is built once (its inputs are part of set-up) and then
solves input i on request. Every call into dqcount goes through a module
attribute (``dqcount.cli.main``, ``dqcount.diqc.run_amplitude``, ...) so the
tracer in ``layers.py`` sees it when it is installed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import dqcount.applications
import dqcount.cli
import dqcount.diqc
import dqcount.miqae


@dataclass
class Outcome:
    """What one solve produced, reduced to what the benchmark reports.

    `succeeded`: every node or estimator status was "success".
    `bound_held`: every result lies within its own stated guarantee.
    `oracle_calls`: logical oracle calls summed over the solve's runs.
    `depths`: deepest iterate count (max_big_k - 1) // 2 of each estimator run.
    `fingerprint`: deterministic digest of the outputs, compared between
    two solves of the same input.
    `nodes`: (node_id, oracle_calls, depth) per DIQC node run, for the
    paper-fidelity report.
    `error`: the first output check that failed, if any.
    """

    succeeded: bool = False
    bound_held: bool = False
    oracle_calls: int = 0
    depths: list = field(default_factory=list)
    fingerprint: str = ""
    nodes: list = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.succeeded and self.error is None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _depth(max_big_k: int) -> int:
    return (max_big_k - 1) // 2


class CountDesk:
    """`dqcount count` in-process with the README flags, 10 reps per call.

    The paper's desk-scale experiment: n=6, marked {38, 8, 16}, two nodes on
    the prefix split, analytic backend, per-node budget (0.001, 0.05), with
    the round trace written. Solve i passes --seed base + 20 i, so the
    repetitions of different solves never share an RNG stream.
    """

    name = "count_desk"
    reference = "scalar"
    deterministic_solves = 40
    reps = 10
    nodes = 2
    true_count = 3
    flags = [
        "count", "--n", "6", "--marked", "38,8,16", "--k", "1",
        "--epsilon-node", "0.001", "--alpha-node", "0.05",
        "--scheme", "prefix", "--backend", "analytic", "--trace",
        "--reps", str(reps),
    ]
    # Mean oracle calls and mean depth per node run reported by the paper
    # for this experiment.
    paper = {0: (59656, 83.63), 1: (43305, 62.95)}

    def __init__(self, seed: int, workdir: Path):
        self.base_seed = int(np.random.default_rng(seed).integers(0, 2**30))
        self.workdir = workdir

    def solve(self, i: int, slot: str = "main") -> Outcome:
        out = self.workdir / slot
        argv = self.flags + [
            "--seed", str(self.base_seed + i * self.reps * self.nodes),
            "--out", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = dqcount.cli.main(argv)
        runs_bytes = (out / "runs.csv").read_bytes()
        summary_bytes = (out / "summary.json").read_bytes()
        trace_bytes = (out / "trace.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(runs_bytes.decode("ascii"))))
        trace = list(csv.DictReader(io.StringIO(trace_bytes.decode("ascii"))))
        summary = json.loads(summary_bytes)

        result = Outcome(fingerprint=_digest(runs_bytes, summary_bytes, trace_bytes))
        statuses_ok = all(row["status"] == "success" for row in rows)
        result.succeeded = code == 0 and statuses_ok and summary["failed_reps"] == 0
        if code not in (0, 1) or (code == 0) != statuses_ok:
            result.error = f"exit code {code} disagrees with the node statuses"
        elif len(rows) != self.reps * self.nodes:
            result.error = f"runs.csv has {len(rows)} rows, expected {self.reps * self.nodes}"
        elif {(r["rep"], r["node_id"]) for r in trace} != {
            (r["rep"], r["node_id"]) for r in rows
        }:
            result.error = "trace.csv does not cover every node run"
        per_rep: dict[str, int] = {}
        for row in rows:
            per_rep[row["rep"]] = per_rep.get(row["rep"], 0) + int(row["t_prime"])
            depth = _depth(int(row["max_big_k"]))
            result.oracle_calls += int(row["oracle_calls"])
            result.depths.append(depth)
            result.nodes.append((int(row["node_id"]), int(row["oracle_calls"]), depth))
        bound = summary["error_bound"]
        result.bound_held = all(abs(t - self.true_count) <= bound for t in per_rep.values())
        return result


class DeepEps:
    """DIQC and MIQAE on one amplitude at epsilon 1e-7, default configs.

    Amplitudes are uniform on [0, 1); K reaches ~1e7, so the downward odd-K
    scans of both estimators carry a large share of each solve. Solve i uses
    seed base + i for both estimators.
    """

    name = "deep_eps"
    reference = "scalar"
    deterministic_solves = 300
    pool = 4096

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.base_seed = int(rng.integers(0, 2**30))
        # Stratified: each block of `deterministic_solves` amplitudes puts one
        # uniform draw in each of that many equal slices of [0, 1), so the
        # mix of cheap and costly amplitudes barely varies between seeds.
        block = self.deterministic_solves
        strata = np.concatenate(
            [rng.permutation(block) for _ in range(-(-self.pool // block))]
        )[: self.pool]
        self.amplitudes = ((strata + rng.random(self.pool)) / block).tolist()
        self.diqc_config = dqcount.diqc.DiqcConfig(1e-7, 0.05)
        self.miqae_config = dqcount.miqae.MiqaeConfig(1e-7, 0.05)

    def solve(self, i: int, slot: str = "main") -> Outcome:
        a = self.amplitudes[i % self.pool]
        seed = self.base_seed + i
        node = dqcount.diqc.run_amplitude(a, self.diqc_config, seed=seed)
        base = dqcount.miqae.run_for_amplitude(a, self.miqae_config, seed=seed)
        result = Outcome(
            succeeded=node.succeeded and base.succeeded,
            bound_held=node.a_low <= a <= node.a_high and base.a_low <= a <= base.a_high,
            oracle_calls=node.oracle_calls + base.oracle_calls,
            depths=[_depth(node.max_big_k), _depth(base.max_big_k)],
            fingerprint=_digest(
                node.status, node.c, node.a_low, node.a_high, node.oracle_calls,
                node.total_shots, node.max_big_k, base.status, base.a_low,
                base.a_high, base.oracle_calls, base.total_shots, base.max_big_k,
            ),
        )
        if not (0 <= node.a_low <= node.a_high <= 1 and 0 <= base.a_low <= base.a_high <= 1):
            result.error = "an amplitude interval lies outside [0, 1]"
        return result


class PairSv:
    """Hamming distance and inner product of one 2^13-bit pair, statevector.

    k=1, epsilon 0.01, alpha 0.05: two 14-qubit nodes per estimate, each
    new (power, r) simulated gate by gate from |0>. Pairs come from a pool
    built at set-up together with their brute-force answers; solve i uses
    pair i mod pool with base seed base + 2 i.
    """

    name = "pair_sv"
    reference = "vector"
    deterministic_solves = 64
    bits = 1 << 13
    pool = 16

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.base_seed = int(rng.integers(0, 2**30))
        self.pairs = []
        for _ in range(self.pool):
            x = rng.integers(0, 2, self.bits).tolist()
            y = rng.integers(0, 2, self.bits).tolist()
            xi = int("".join(map(str, x)), 2)
            yi = int("".join(map(str, y)), 2)
            hamming = (xi ^ yi).bit_count() / self.bits
            inner = (xi & yi).bit_count() / self.bits
            self.pairs.append((x, y, hamming, inner))

    def solve(self, i: int, slot: str = "main") -> Outcome:
        x, y, hamming, inner = self.pairs[i % self.pool]
        seed = self.base_seed + 2 * i
        apps = dqcount.applications
        h = apps.estimate_hamming(x, y, 1, 0.01, 0.05, base_seed=seed, backend="statevector")
        ip = apps.estimate_inner_product(x, y, 1, 0.01, 0.05, base_seed=seed,
                                         backend="statevector")
        nodes = h.per_node + ip.per_node
        result = Outcome(
            succeeded=h.succeeded and ip.succeeded,
            bound_held=abs(h.estimate - hamming) <= h.error_bound
            and abs(ip.estimate - inner) <= ip.error_bound,
            oracle_calls=sum(res.oracle_calls for res in nodes),
            depths=[_depth(res.max_big_k) for res in nodes],
            fingerprint=_digest(
                h.to_dict(include_nodes=True), ip.to_dict(include_nodes=True)
            ),
        )
        if h.n != 13 or ip.n != 13 or len(nodes) != 4:
            result.error = "estimates are not over 2^13 bits on two nodes each"
        return result


WORKLOADS = {cls.name: cls for cls in (CountDesk, DeepEps, PairSv)}
