"""Time each layer of a run, one line per layer.

    python3 tools/layer_cost.py

Imports dqcount from the `src` directory of the checkout this file sits in
and uses its public API, plus `qsim._prepare` for the A|0> of the iterate
rows. The cases are:

* ns per shot of `sample_round(power, r, shots)`, DIQC's one draw per
  round, at the (power, r) the sampler kept from the call before, for
  `AnalyticSampler`. Both backends inherit this draw, so one row times
  it; the statevector cost by qubit count is the `apply_Q` rows';
* the bare numpy draw a shot ends in, at that round's P[11]. These three
  time numpy, not dqcount: ns per `rng.binomial(1, p)` call with `p` a
  Python float and a 0-d float64 array (as the samplers keep it), and ns
  per shot of one `rng.binomial(1, p, size=shots).sum()`;
* us per `apply_Q` iterate at each width of `ITERATE_QUBITS`, on buffers
  made once; us per `hamming_suboracle` build of node 0 of a 2^13-bit
  pair at k 1; us per fresh `StatevectorSampler` on that sub-oracle, its
  set-up plus one A|0>;
* the layers of seeded `diqc.run_amplitude` and `miqae.run_for_amplitude`
  solves at the amplitudes of `AMPLITUDES` and each epsilon of
  `EPSILONS`. The tool records every odd-K search they make, by rebinding
  `diqc.find_next_k` (DIQC's binding of the scan) and `miqae.next_odd_k`
  (the scan MIQAE's `find_next_k` calls), and replays them against the
  unwrapped scan: us per search, one row per (epsilon, estimator). One
  row replays DIQC's interval update, `chernoff_interval` then
  `gamma_from_interval`, on the rounds of the DIQC solves of every epsilon
  at the run's alpha (us per round), and one row `diqc.post_process` on
  those runs (us per node run).

CSV and JSON writing is not timed. Each figure is the best of `REPEATS`
timed loops, taken in turns with the other cases' loops, each pass
starting one case later. A figure still depends on the case before it,
which the turns do not change. With every K-search row timed twice in one
run (its copy appended to the case list), the widest pair of copies read
5.5-15.2% apart over ten runs, eight times on the row that follows the
fresh-sampler build. So the tool does not tell apart cases that differ by
less than about 15%. The run takes about 4 s. Its figures are wall-clock
times of the host it runs on, so it is no part of `tools/hash_suite.py`.
"""

from __future__ import annotations

import math
import os
import platform
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dqcount.diqc as diqc  # noqa: E402
import dqcount.miqae as miqae  # noqa: E402
import dqcount.qsim as qsim  # noqa: E402
from dqcount.oracle import decompose_prefix, hamming_suboracle, make_oracle  # noqa: E402
from dqcount.qsim import AnalyticSampler, StatevectorSampler, apply_Q  # noqa: E402

REPEATS = 40
SHOTS = 20_000
POWER, R = 5, 0.9  # a mid-run DIQC round: K = 11 at a rescued rotation weight
SAMPLER_QUBITS = 14  # qubits of the sub-oracle whose amplitude the analytic sampler draws at
ITERATE_QUBITS = (6, 10, 14, 18)
PAIR_BITS = 1 << 13  # the benchmark's pair width; k = 1 leaves 14 qubits per node
EPSILONS = (1e-3, 1e-5, 1e-7)
# Mid-points of 32 equal slices of [0, 1), so small and large angles both occur.
AMPLITUDES = tuple((i + 0.5) / 32 for i in range(32))
ALPHA = 0.05


def _sub_oracle(qubits: int):
    """Node 0 of a prefix split whose slice needs `qubits` qubits, with
    every seventh index marked."""
    n = qubits - 1  # m = n - 1 index qubits on node 0, plus flag and rotation
    return decompose_prefix(make_oracle(n, range(0, 1 << n, 7)), 1)[0]


def round_loop(sampler):
    sampler.sample_round(POWER, R, 1)  # the first shot at (POWER, R) computes P[11]
    return lambda count: sampler.sample_round(POWER, R, count)


def numpy_shot_loop(p):
    draw = np.random.default_rng(0).binomial

    def loop(count):
        for _ in range(count):
            draw(1, p)

    return loop


def numpy_round_loop(p: float):
    draw = np.random.default_rng(0).binomial
    return lambda count: int(draw(1, p, size=count).sum())


def iterate_loop(qubits: int):
    sub = _sub_oracle(qubits)
    prepared = qsim._prepare(qsim._marked_mask(sub), R)
    state = prepared.copy()
    scratch = np.empty_like(state)

    def loop(count):
        for _ in range(count):
            apply_Q(state, prepared, scratch)

    return loop


def _pair(seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, PAIR_BITS).tolist(), rng.integers(0, 2, PAIR_BITS).tolist()


def build_loop(x, y):
    def loop(count):
        for _ in range(count):
            hamming_suboracle(x, y, 1, 0)

    return loop


def fresh_sampler_loop(sub):
    def loop(count):
        for _ in range(count):
            StatevectorSampler(sub, 0).probability(0, R)

    return loop


def replay(func, calls: list):
    """A loop that makes the first `count` of the (args, kwargs) calls."""
    def loop(count):
        for args, kwargs in islice(calls, count):
            func(*args, **kwargs)
    return loop


def interval_loop(rounds: list):
    def loop(count):
        for rd in islice(rounds, count):
            a_min, a_max = miqae.chernoff_interval(rd.a_hat, rd.pooled_shots, ALPHA)
            miqae.gamma_from_interval(a_min, a_max, rd.quadrant)
    return loop


def record(epsilon: float) -> tuple[dict[str, list], list]:
    """The (args, kwargs) of every K search of one epsilon's solves, by
    estimator, and the DIQC solves' results."""
    scan, diqc_scan = miqae.next_odd_k, diqc.find_next_k
    calls: dict[str, list] = {"diqc": [], "miqae": []}

    def recorder(name, func):
        def wrapped(*args, **kwargs):
            calls[name].append((args, kwargs))
            return func(*args, **kwargs)
        return wrapped

    diqc.find_next_k = recorder("diqc", diqc_scan)
    miqae.next_odd_k = recorder("miqae", scan)
    solves = []
    try:
        for seed, amplitude in enumerate(AMPLITUDES):
            solves.append(diqc.run_amplitude(amplitude, diqc.DiqcConfig(epsilon, ALPHA),
                                             seed=seed))
            miqae.run_for_amplitude(amplitude, miqae.MiqaeConfig(epsilon, ALPHA), seed=seed)
    finally:
        diqc.find_next_k, miqae.next_odd_k = diqc_scan, scan
    return calls, solves


def solve_cases() -> list:
    """The cases replayed from the solves at every epsilon: one K-search
    case per (epsilon, estimator), then the interval update over all their
    DIQC rounds and `post_process` over all their DIQC runs."""
    cases, rounds, runs = [], [], []
    for epsilon in EPSILONS:
        calls, solves = record(epsilon)
        cases += [(f"{name} K search {epsilon:.0e}, {len(searches)} searches",
                   replay(miqae.next_odd_k, searches), len(searches), "us/search", 1e-6)
                  for name, searches in calls.items()]
        rounds += [rd for res in solves for rd in res.rounds]
        runs += [((res.rounds, epsilon, 0), {}) for res in solves]
    return cases + [
        (f"interval update, {len(rounds)} rounds", interval_loop(rounds),
         len(rounds), "us/round", 1e-6),
        (f"post_process, {len(runs)} runs", replay(diqc.post_process, runs),
         len(runs), "us/run", 1e-6),
    ]


def main() -> None:
    sub = _sub_oracle(SAMPLER_QUBITS)
    x, y = _pair()
    pair_sub = hamming_suboracle(x, y, 1, 0)
    p = AnalyticSampler.from_sub_oracle(sub, 0).probability(POWER, R)
    # (label, loop, steps per timed loop, unit, seconds per unit)
    cases = [
        ("sample_round analytic", round_loop(AnalyticSampler.from_sub_oracle(sub, 0)),
         SHOTS, "ns/shot", 1e-9),
        ("numpy binomial(1, p), float p", numpy_shot_loop(p), SHOTS, "ns/call", 1e-9),
        ("numpy binomial(1, p), 0-d array p", numpy_shot_loop(np.array(p)),
         SHOTS, "ns/call", 1e-9),
        ("numpy binomial(1, p, size=n).sum()", numpy_round_loop(p), SHOTS, "ns/shot", 1e-9),
    ]
    cases += [(f"apply_Q {qubits:2d} qubits", iterate_loop(qubits),
               max(10, (1 << 18) >> qubits), "us/iterate", 1e-6) for qubits in ITERATE_QUBITS]
    cases += [
        ("hamming_suboracle 2^13 bits, k 1", build_loop(x, y), 10, "us/build", 1e-6),
        (f"fresh statevector {pair_sub.m + 2:2d} qubits, A|0>",
         fresh_sampler_loop(pair_sub), 10, "us/build", 1e-6),
    ]
    cases += solve_cases()
    # The cases take turns, so each one's best is drawn from the whole run
    # and a slow stretch of the host does not land on one case alone. Each
    # pass starts one case later, so no case always runs at the same place.
    best = [math.inf] * len(cases)
    for first in range(REPEATS):
        for i in (j % len(cases) for j in range(first, first + len(cases))):
            _, loop, steps, _, _ = cases[i]
            start = perf_counter()
            loop(steps)
            best[i] = min(best[i], (perf_counter() - start) / steps)
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}, {os.cpu_count()} CPUs; best of {REPEATS}")
    for (label, _, _, unit, scale), seconds in zip(cases, best):
        print(f"{label:44s}{seconds / scale:9.2f} {unit}")


if __name__ == "__main__":
    main()
