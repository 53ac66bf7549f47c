"""dqcount benchmark: one workload, one closed-loop client, one JSON result.

    python3 perfbench/run.py --workload count_desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; dqcount is imported from ./src.
With --trace 0 it measures the end-to-end metrics with no tracing; with
--trace 1 it solves the same inputs untraced and then traced, and reports
the per-layer metrics of the traced pass. Human-readable lines go first;
the last line of standard output is the JSON result. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DETERMINISM_REPEATS = 3
# A run in which fewer solves than this keep their error bound is wrong, not
# unlucky: each solve keeps its guarantee with probability well above 0.9.
MIN_BOUND_HOLD = 0.8
_VECTOR = np.zeros(1 << 14, dtype=np.complex128)


def _scalar_kernel() -> int:
    """Per-shot Python arithmetic with a scalar numpy draw, like the sampler."""
    rng = np.random.default_rng(1)
    theta = math.asin(math.sqrt(0.3))
    hits = 0
    for i in range(1500):
        p = math.sin((2 * (i % 50) + 1) * theta) ** 2
        hits += int(rng.binomial(1, p))
    return hits


def _vector_kernel() -> None:
    """Strided complex-vector updates, like one statevector pass."""
    state = _VECTOR.copy()
    state[0] = 1.0
    for _ in range(40):
        pairs = state.reshape(-1, 2)
        lo = pairs[:, 0].copy()
        pairs[:, 0] = (lo + pairs[:, 1]) * 0.7
        pairs[:, 1] = (lo - pairs[:, 1]) * 0.7
        state[3::4] = -state[3::4]


# Reference kernels, each with the seconds it takes at the host speed all
# timings are scaled to (a fast regime of a 2-core x86-64 host). The host
# this benchmark was written on changes speed by up to 2x in regimes lasting
# seconds, which moves every wall-clock figure. So each solve's wall time is
# divided by the time of the kernel shaped like that workload's dominant work,
# run next to it; the kernels run no dqcount code, so a change to dqcount
# cannot move them. Over ten consecutive 30 s stretches of one process, this
# cut the quartile spread of the median latency from 0.32 to 0.03 on
# count_desk and from 0.15 to 0.03 on deep_eps (scalar kernel), and from
# 0.11 to 0.03 on pair_sv (vector kernel); the other kernel did worse on
# count_desk (0.17) and pair_sv (0.11).
REFERENCES = {"scalar": (_scalar_kernel, 0.0016), "vector": (_vector_kernel, 0.003)}


def _reference_seconds(kind: str) -> float:
    kernel, _ = REFERENCES[kind]
    start = perf_counter()
    kernel()
    return perf_counter() - start


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import dqcount and build the inputs (for setup_s)")
    return p.parse_args(argv)


def _solve_loop(workload, seconds: float, at_least: int, between=None):
    """Solve inputs 0, 1, ... until `seconds` have passed and at least
    `at_least` solves are done, timing the workload's reference kernel before
    the first solve and after each one. `between`, if given, is called
    between two solves each time another quarter of `seconds` has passed.

    Returns (outcomes, wall latencies, scaled latencies). A solve's scaled
    latency is its wall time over the mean of the kernel times just before
    and just after it, times the kernel's nominal time.
    """
    from workloads import Outcome

    kind = workload.reference
    nominal = REFERENCES[kind][1]
    outcomes, latencies, refs = [], [], [_reference_seconds(kind)]
    begin = perf_counter()
    deadline = begin + seconds
    ticks = [begin + seconds * q / 4 for q in (1, 2, 3)] if between else []
    i = 0
    while i < at_least or perf_counter() < deadline:
        start = perf_counter()
        try:
            outcome = workload.solve(i)
        except Exception as exc:  # a crashing solve is a failed solve
            outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - start)
        refs.append(_reference_seconds(kind))
        outcomes.append(outcome)
        if ticks and perf_counter() >= ticks[0]:
            ticks.pop(0)
            between()
        i += 1
    scaled = [t * 2 * nominal / (a + b) for t, a, b in zip(latencies, refs, refs[1:])]
    return outcomes, latencies, scaled


def _setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports dqcount, builds the
    workload's inputs and exits. Unscaled: the reference kernels track
    neither a child's start-up nor its imports (scaling widened the spread)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    # No timeout: with one, wait() polls in steps of up to 50 ms and the
    # measured time is rounded up to that grid.
    subprocess.run(cmd, cwd=ROOT, check=True)
    return perf_counter() - start


def _check_determinism(workload, outcomes) -> None:
    for i, first in enumerate(outcomes[:DETERMINISM_REPEATS]):
        again = workload.solve(i, slot="again")
        if again.fingerprint != first.fingerprint and first.error is None:
            first.error = f"solve {i} is not reproducible from its seed"


def _prefix_metrics(outcomes, n: int) -> dict:
    head = outcomes[:n]
    return {
        "success_frac": (sum(o.ok for o in head) / len(head), "ratio"),
        "bound_hold_frac": (sum(o.bound_held for o in head) / len(head), "ratio"),
        "oracle_calls_mean": (statistics.fmean(o.oracle_calls for o in head), "count"),
        "depth_mean": (statistics.fmean(d for o in head for d in o.depths), "count"),
    }


def _paper_fidelity(workload, outcomes) -> dict:
    paper = getattr(workload, "paper", {})
    out = {}
    for node in (0, 1):
        runs = [(c, d) for o in outcomes for (j, c, d) in o.nodes if j == node]
        calls, depth = paper.get(node, (0, 0))
        out[f"diqc.node{node}_calls_vs_paper"] = (
            statistics.fmean(c for c, _ in runs) / calls if runs and calls else 0.0, "ratio")
        out[f"diqc.node{node}_depth_vs_paper"] = (
            statistics.fmean(d for _, d in runs) / depth if runs and depth else 0.0, "ratio")
    return out


def _end_to_end(args, workload) -> tuple[dict, list]:
    # Set-up probes run before, during (between solves, outside their timed
    # spans) and after the timed section, so their median does not rest on
    # one host-speed regime.
    def probe():
        setup.append(_setup_probe(args.workload, args.seed))

    setup: list[float] = []
    for _ in range(2):
        probe()
    workload.solve(0, slot="warmup")
    outcomes, wall, scaled = _solve_loop(
        workload, args.seconds, workload.deterministic_solves, between=probe)
    _check_determinism(workload, outcomes)
    for _ in range(2):
        probe()
    wall_ms = sorted(t * 1e3 for t in wall)
    scaled_ms = [t * 1e3 for t in scaled]
    print(f"{args.workload}: {len(outcomes)} solves in {sum(wall):.2f} s of solving; "
          f"latency samples n={len(scaled_ms)}; count metrics over the first "
          f"{workload.deterministic_solves} solves")
    print(f"{args.workload}: unscaled wall latency p50 {statistics.median(wall_ms):.1f} ms, "
          f"p90 {statistics.quantiles(wall_ms, n=10)[8]:.1f} ms")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solves_per_s": (len(scaled) / sum(scaled), "1/s"),
        "solve_p50_ms": (statistics.median(scaled_ms), "ms"),
        "solve_p90_ms": (statistics.quantiles(scaled_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics.update(_prefix_metrics(outcomes, workload.deterministic_solves))
    return metrics, outcomes


def _per_layer(args, workload) -> tuple[dict, list]:
    from layers import Tracer

    workload.solve(0, slot="warmup")
    plain, _, plain_scaled = _solve_loop(workload, args.seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall, traced_scaled = _solve_loop(workload, 0, len(plain))
    finally:
        tracer.uninstall()
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.fingerprint != b.fingerprint and b.error is None:
            b.error = f"solve {i} differs between the untraced and traced pass"
    errors = tracer.check()
    if errors:
        traced[0].error = traced[0].error or "; ".join(errors)
    overhead = sum(traced_scaled) / sum(plain_scaled) - 1
    traced_s = sum(traced_wall)
    print(f"{args.workload}: {len(traced)} solves traced in {traced_s:.2f} s, "
          f"tracing overhead {overhead:.1%}")
    metrics = tracer.metrics()
    metrics.update(_paper_fidelity(workload, traced))
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.solves"] = (len(traced), "count")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, plain + traced


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dqcount" / "__init__.py").is_file():
        print(f"perfbench: no dqcount package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch_root = ROOT / ".perfbench-out"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            return 0
        measure = _per_layer if args.trace else _end_to_end
        metrics, outcomes = measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:  # another run still uses it
            pass
    errors = [o.error for o in outcomes if o.error]
    for err in errors[:5]:
        print(f"check failed: {err}", file=sys.stderr)
    hold = sum(o.bound_held for o in outcomes) / len(outcomes)
    if hold < MIN_BOUND_HOLD:
        print(f"check failed: only {hold:.1%} of solves kept their error bound",
              file=sys.stderr)
    result = {
        "correct": not errors and hold >= MIN_BOUND_HOLD,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
