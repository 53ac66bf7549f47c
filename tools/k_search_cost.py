"""Time the odd-K search by epsilon and by the number of K it scans.

    python3 tools/k_search_cost.py

Imports dqcount from the `src` directory of the checkout this file sits in.
For each epsilon of `EPSILONS` it runs seeded `diqc.run_amplitude` and
`miqae.run_for_amplitude` solves at the amplitudes of `AMPLITUDES` and
records every K search they make, by rebinding `diqc.find_next_k` (DIQC's
binding of the scan) and `miqae.next_odd_k` (the scan MIQAE's
`find_next_k` calls). It then replays the recorded searches against the
unwrapped scan and prints us per search for DIQC and MIQAE, split by how
many odd K the scan visits: from the first K it tries down to the K it
returns, or down to q*K_current when it finds none.

Each figure is the best of `REPEATS` timed replays of its searches, taken
in turns with the other figures' replays. The run takes a few seconds. Its
figures are wall-clock times of the host it runs on, so it is no part of
`tools/hash_suite.py`.
"""

from __future__ import annotations

import math
import os
import platform
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dqcount.diqc as diqc  # noqa: E402
import dqcount.metrics as metrics  # noqa: E402
import dqcount.miqae as miqae  # noqa: E402

EPSILONS = (1e-3, 1e-5, 1e-7)
# Mid-points of 32 equal slices of [0, 1), so small and large angles both occur.
AMPLITUDES = tuple((i + 0.5) / 32 for i in range(32))
ALPHA = 0.05
REPEATS = 5
# Buckets of visited K, as (label, largest count in the bucket).
BUCKETS = (("1-6", 6), ("7-64", 64), ("65-1024", 1024), (">1024", math.inf))


def visited(args: tuple, kwargs: dict, result: tuple) -> int:
    """Odd K the downward scan visits for one search."""
    theta_min, theta_max, q, big_k_current = args[:4]
    start = metrics.k_max_cap((theta_max - theta_min) / 2)
    cap = kwargs.get("big_k_cap")
    if cap is not None:
        start = min(start, cap - 1 - cap % 2)  # the largest odd K below the cap
    found_k, found_r = result
    if found_r is not None:
        return (start - found_k) // 2 + 1
    return max(0, (start - q * big_k_current) // 2 + 1)


def record(epsilon: float) -> dict[str, list]:
    """The (args, kwargs, result) of every search of one epsilon's solves."""
    scan, diqc_scan = miqae.next_odd_k, diqc.find_next_k
    calls: dict[str, list] = {"diqc": [], "miqae": []}

    def recorder(name, func):
        def wrapped(*args, **kwargs):
            result = func(*args, **kwargs)
            calls[name].append((args, kwargs, result))
            return result
        return wrapped

    diqc.find_next_k = recorder("diqc", diqc_scan)
    miqae.next_odd_k = recorder("miqae", scan)
    try:
        for seed, amplitude in enumerate(AMPLITUDES):
            diqc.run_amplitude(amplitude, diqc.DiqcConfig(epsilon, ALPHA), seed=seed)
            miqae.run_for_amplitude(amplitude, miqae.MiqaeConfig(epsilon, ALPHA), seed=seed)
    finally:
        diqc.find_next_k, miqae.next_odd_k = diqc_scan, scan
    return calls


def replay(scan, searches: list):
    def loop():
        for args, kwargs in searches:
            scan(*args, **kwargs)
    return loop


def main() -> None:
    scan = miqae.next_odd_k
    # (estimator, epsilon, bucket label) -> [(args, kwargs)]
    groups: dict[tuple, list] = defaultdict(list)
    for epsilon in EPSILONS:
        for name, calls in record(epsilon).items():
            for args, kwargs, result in calls:
                count = visited(args, kwargs, result)
                label = next(label for label, top in BUCKETS if count <= top)
                groups[name, epsilon, label].append((args, kwargs))
                groups[name, epsilon, "all"].append((args, kwargs))
    order = [(name, eps, label) for name in ("diqc", "miqae") for eps in EPSILONS
             for label in [b[0] for b in BUCKETS] + ["all"] if (name, eps, label) in groups]
    loops = [replay(scan, groups[key]) for key in order]
    # The groups take turns, so each one's best is drawn from the whole run
    # and a slow stretch of the host does not land on one group alone.
    best = [math.inf] * len(order)
    for _ in range(REPEATS):
        for i, loop in enumerate(loops):
            start = perf_counter()
            loop()
            best[i] = min(best[i], perf_counter() - start)
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}, {os.cpu_count()} CPUs; best of {REPEATS}")
    print(f"{'scan':6s}{'epsilon':>8s}{'K visited':>11s}{'searches':>10s}{'us/search':>11s}")
    for (name, eps, label), seconds in zip(order, best):
        n = len(groups[name, eps, label])
        print(f"{name:6s}{eps:8.0e}{label:>11s}{n:10d}{seconds / n * 1e6:11.2f}")


if __name__ == "__main__":
    main()
