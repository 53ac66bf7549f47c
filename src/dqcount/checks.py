"""Self-contained property suites behind the `prop-check` command.

Each check returns a dict with at least `name`, `passed`, and enough detail
to see how close the run came to its tolerance. The suites are pure and
seeded, so a report is reproducible from its configuration.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import metrics
from .diqc import find_next_k
from .oracle import SubOracle
from .qsim import (
    AnalyticSampler,
    StatevectorSampler,
    StateVector,
    _reflect_good,
    _reflect_zero,
    apply_A,
    apply_A_dagger,
)

__all__ = [
    "check_backend_equivalence",
    "check_angle_slack",
    "check_k_growth",
    "check_budget_sums",
    "check_gate_cost_comparison",
    "run_all",
]


def _gate_level_Q(state: StateVector, sub: SubOracle, r: float) -> None:
    """The iterate with A^dagger and A run gate by gate: the reference for
    the reflection about the prepared state that `apply_Q` applies."""
    _reflect_good(state.amplitudes)
    apply_A_dagger(state, sub, r)
    _reflect_zero(state.amplitudes)
    apply_A(state, sub, r)
    np.negative(state.amplitudes, out=state.amplitudes)


def check_backend_equivalence(
    max_m: int = 4,
    r_values: Sequence[float] = (0.25, 0.5, 0.8, 1.0),
    max_power: int = 10,
    tolerance: float = 1e-10,
) -> dict:
    """Exact-circuit P[11] against the analytic sampler on an exhaustive grid.

    Each sub-oracle gets one `StatevectorSampler`, read at rising powers
    for each r as the estimation loops read it (the reflection about the
    prepared state), and each (sub-oracle, r) also steps a copy of A|0>
    with A^dagger and A run gate by gate.
    """
    worst = 0.0
    cases = 0
    for m in range(1, max_m + 1):
        for t in range(0, (1 << m) + 1):
            sub = SubOracle(
                m=m, node_id=0, k=1, scheme="prefix",
                marked_local=frozenset(range(t)),
            )
            analytic = AnalyticSampler.from_sub_oracle(sub)
            sampler = StatevectorSampler(sub)
            for r in r_values:
                gates = apply_A(StateVector.zero(m + 2), sub, r)
                for power in range(max_power + 1):
                    if power:
                        _gate_level_Q(gates, sub, r)
                    expected = analytic.probability(power, r)
                    err = max(abs(sampler.probability(power, r) - expected),
                              abs(gates.prob11() - expected))
                    worst = max(worst, err)
                    cases += 1
    return {
        "name": "backend_equivalence",
        "passed": worst <= tolerance,
        "cases": cases,
        "max_error": worst,
        "tolerance": tolerance,
    }


def check_angle_slack(
    max_big_k: int = 99,
    r_steps: int = 10,
    theta_steps: int = 1000,
) -> dict:
    """Rescaling never moves the scaled angle by a full quadrant.

    For odd K, r above sin^2(pi/2 (1-1/K)) and theta in [0, pi/2):
    0 <= 2K theta/pi - 2K asin(sqrt(r) sin theta)/pi < 1. The lower bound
    is exact monotonicity, so it is allowed the width of rounding noise.
    """
    theta = np.linspace(0.0, math.pi / 2, theta_steps, endpoint=False)
    sin_theta = np.sin(theta)
    worst_low = math.inf
    worst_high = -math.inf
    cases = 0
    for big_k in range(1, max_big_k + 1, 2):
        threshold = math.sin(math.pi / 2 * (1 - 1 / big_k)) ** 2
        for r in np.linspace(threshold + 1e-6, 1.0, r_steps):
            slack = (2 * big_k / math.pi) * (theta - np.arcsin(np.sqrt(r) * sin_theta))
            worst_low = min(worst_low, float(slack.min()))
            worst_high = max(worst_high, float(slack.max()))
            cases += theta_steps
    return {
        "name": "angle_slack",
        "passed": worst_low >= -1e-9 and worst_high < 1.0,
        "cases": cases,
        "min_slack": worst_low,
        "max_slack": worst_high,
    }


def _sample_quadrant_interval(rng: np.random.Generator) -> tuple[float, float, int]:
    """A (theta_min, theta_max, K_current) whose K-scaled interval sits in
    one quadrant with amplitude-scale width safely inside the shot-cap
    regime sin(pi/21) sin(8*pi/21)."""
    cap = math.sin(math.pi / 21) * math.sin(8 * math.pi / 21)
    big_k = 2 * int(rng.integers(0, 25)) + 1
    quadrant = int(rng.integers(0, big_k))
    while True:
        gam = np.sort(rng.uniform(1e-4, math.pi / 2 - 1e-4, size=2))
        if gam[1] - gam[0] < 1e-6:
            continue
        lo = quadrant * math.pi / 2 + float(gam[0])
        hi = quadrant * math.pi / 2 + float(gam[1])
        if abs(math.sin(hi) ** 2 - math.sin(lo) ** 2) <= 0.9 * cap:
            return lo / big_k, hi / big_k, big_k


def check_k_growth(trials: int = 300, seed: int = 0) -> dict:
    """In the shot-cap regime the K search always finds K >= 3*K_current."""
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(trials):
        theta_min, theta_max, big_k = _sample_quadrant_interval(rng)
        q = int(rng.choice((2, 3)))
        found_k, found_r = find_next_k(theta_min, theta_max, q, big_k, False)
        if found_r is None or found_k < 3 * big_k:
            failures.append((theta_min, theta_max, big_k, q, found_k))
    return {
        "name": "k_growth",
        "passed": not failures,
        "cases": trials,
        "failures": failures[:5],
    }


def check_budget_sums(trials: int = 300, seed: int = 0) -> dict:
    """Geometric-growth sums are dominated by the K_max/q^i tail.

    For K_i >= q K_(i-1) with K_t < K_max and f increasing on the range
    (identity, or x ln(C/x) with C large enough):
    sum_{i=ihat}^t f(K_i) <= sum_{i=0}^{t-ihat} f(K_max / q^i).
    """
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        q = int(rng.choice((2, 3)))
        t = int(rng.integers(1, 9))
        ks = [float(2 * rng.integers(1, 4) + 1)]
        for _ in range(t - 1):
            ks.append(ks[-1] * q * rng.uniform(1.0, 1.8))
        k_max = ks[-1] * rng.uniform(1.0001, 3.0)
        big_c = 2 * q * k_max / ((q - 1) * 0.05)
        for f in (lambda x: x, lambda x: x * math.log(big_c / x)):
            for ihat in range(1, t + 1):
                lhs = sum(f(k) for k in ks[ihat - 1 :])
                rhs = sum(f(k_max / q ** i) for i in range(t - ihat + 1))
                if lhs > rhs + 1e-9:
                    failures += 1
    return {
        "name": "budget_sums",
        "passed": failures == 0,
        "cases": trials,
        "failures": failures,
    }


def check_gate_cost_comparison(
    n_range: Sequence[int] = tuple(range(4, 31)),
    k_values: Sequence[int] = (1, 2),
) -> dict:
    """Exact gate-cost dominance of the centralized counter on the grid."""
    failing = [
        (n, k)
        for n in n_range
        for k in k_values
        if not metrics.centralized_cost_dominates(n, k)
    ]
    return {
        "name": "gate_cost_comparison",
        "passed": not failing,
        "cases": len(n_range) * len(k_values),
        "failures": failing,
    }


def run_all(seed: int = 0) -> list[dict]:
    """Run every suite, the equivalence grid at its default size (m <= 4)."""
    return [
        check_backend_equivalence(),
        check_angle_slack(),
        check_k_growth(seed=seed),
        check_budget_sums(seed=seed),
        check_gate_cost_comparison(),
    ]
