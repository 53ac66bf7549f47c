"""Time one shot of each sampler and one statevector iterate by width.

    python3 tools/shot_cost.py

Imports dqcount from the `src` directory of the checkout this file sits in
and uses only its public API. It prints:

* ns per shot of `sample_round(power, r, shots)`, the one call DIQC draws
  a round with, at the (power, r) the sampler kept from the call before,
  for `AnalyticSampler` and for `StatevectorSampler` (whose per-shot cost
  does not depend on the width);
* the bare numpy draw a shot ends in, at that round's P[11]. These three
  lines time numpy, not dqcount: ns per `rng.binomial(1, p)` call with `p`
  a Python float, and with `p` a 0-d float64 array, as the samplers keep
  it; and ns per shot of one `rng.binomial(1, p, size=shots).sum()` call,
  a whole round drawn at once;
* us per `apply_Q` iterate at 6, 10, 14 and 18 qubits, on a prepared state
  and a scratch vector made once, as `StatevectorSampler` runs it;
* us per `hamming_suboracle` build of node 0 of a pair of 2^13-bit lists
  split over two nodes, the set-up a pair estimate pays per node;
* us per fresh `StatevectorSampler(sub, 0).probability(0, R)` on that
  14-qubit sub-oracle: the sampler's set-up plus one A|0>.

Each figure is the best of `REPEATS` timed loops, taken in turns with
the other figures' loops. The run takes a few seconds. Its figures are
wall-clock times of the host it runs on, so it is no part of
`tools/hash_suite.py`.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dqcount.oracle import decompose_prefix, hamming_suboracle, make_oracle  # noqa: E402
from dqcount.qsim import (  # noqa: E402
    AnalyticSampler,
    StatevectorSampler,
    StateVector,
    apply_A,
    apply_Q,
)

REPEATS = 40
SHOTS = 20_000
POWER, R = 5, 0.9  # a mid-run DIQC round: K = 11 at a rescued rotation weight
SAMPLER_QUBITS = 14
ITERATE_QUBITS = (6, 10, 14, 18)
PAIR_BITS = 1 << 13  # the benchmark's pair width; k = 1 leaves 14 qubits per node


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
    prepared = apply_A(StateVector.zero(qubits), sub, R)
    state = prepared.copy()
    scratch = np.empty_like(state.amplitudes)

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


def main() -> None:
    sub = _sub_oracle(SAMPLER_QUBITS)
    x, y = _pair()
    pair_sub = hamming_suboracle(x, y, 1, 0)
    # (label, loop, steps per timed loop, unit, seconds per unit)
    cases = [
        ("sample_round analytic", round_loop(AnalyticSampler.from_sub_oracle(sub, 0)),
         SHOTS, "ns/shot", 1e-9),
        (f"sample_round statevector {SAMPLER_QUBITS:2d} qubits",
         round_loop(StatevectorSampler(sub, 0)), SHOTS, "ns/shot", 1e-9),
    ]
    p = AnalyticSampler.from_sub_oracle(sub, 0).probability(POWER, R)
    cases += [
        ("numpy binomial(1, p), float p", numpy_shot_loop(p), SHOTS, "ns/call", 1e-9),
        ("numpy binomial(1, p), 0-d array p", numpy_shot_loop(np.array(p)),
         SHOTS, "ns/call", 1e-9),
        ("numpy binomial(1, p, size=n).sum()", numpy_round_loop(p), SHOTS, "ns/shot", 1e-9),
    ]
    for qubits in ITERATE_QUBITS:
        cases.append((f"apply_Q {qubits:2d} qubits", iterate_loop(qubits),
                      max(10, (1 << 18) >> qubits), "us/iterate", 1e-6))
    cases += [
        ("hamming_suboracle 2^13 bits, k 1", build_loop(x, y), 10, "us/build", 1e-6),
        (f"fresh statevector {pair_sub.m + 2:2d} qubits, A|0>",
         fresh_sampler_loop(pair_sub), 10, "us/build", 1e-6),
    ]
    # The cases take turns, so each one's best is drawn from the whole run
    # and a slow stretch of the host does not land on one case alone.
    best = [float("inf")] * len(cases)
    for _ in range(REPEATS):
        for i, (_, loop, steps, _, _) in enumerate(cases):
            start = perf_counter()
            loop(steps)
            best[i] = min(best[i], (perf_counter() - start) / steps)
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}, {os.cpu_count()} CPUs; best of {REPEATS}")
    for (label, _, _, unit, scale), seconds in zip(cases, best):
        print(f"{label:36s}{seconds / scale:9.2f} {unit}")


if __name__ == "__main__":
    main()
