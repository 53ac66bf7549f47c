"""The gate-level circuit and the property suites of the acceptance tests.

`apply_A` and `apply_A_dagger` run the preparation A gate by gate
(Hadamards on the index register, an oracle that flips the flag of the
marked rows, the rotation) on an amplitude array in place, and
`_gate_level_Q` runs the iterate with them. They are the reference that
the tests compare `qsim._prepare` and `qsim.apply_Q` against;
`zero_state(qubits)` is the |0> they start from.

Each `check_*` suite returns a dict with at least `name`, `passed` and
`cases`, and enough detail to see how close the run came to its
tolerance. The suites are pure and seeded, so a report is reproducible
from its arguments. Acceptance criteria 1 and 6 run all five.
"""

import math

import numpy as np

from dqcount import metrics
from dqcount.diqc import find_next_k, sum_in_order
from dqcount.oracle import SubOracle
from dqcount.qsim import (
    _INV_SQRT2,
    AnalyticSampler,
    StatevectorSampler,
    _check_r,
    _marked_mask,
    _prob11,
    _reflect_good,
)

# The fixed grids of the suites every caller runs at one size: the weights r
# and the highest power of the backend-equivalence grid and its error bound,
# the odd K, r and theta steps of the angle-slack scan, and the (n, k) of
# the gate-cost comparison.
_EQUIVALENCE_R_VALUES = (0.25, 0.5, 0.8, 1.0)
_EQUIVALENCE_MAX_POWER = 10
_EQUIVALENCE_TOLERANCE = 1e-10
_SLACK_MAX_BIG_K = 99
_SLACK_R_STEPS = 10
_SLACK_THETA_STEPS = 1000
_COST_N_RANGE = range(4, 31)
_COST_K_VALUES = (1, 2)


def _hadamard_index_register(amp: np.ndarray, m: int) -> None:
    for bit in range(m):
        v = amp.reshape(1 << (m - 1 - bit), 2, 1 << (bit + 2))
        lo = v[:, 0, :].copy()
        hi = v[:, 1, :]
        v[:, 0, :] = (lo + hi) * _INV_SQRT2
        v[:, 1, :] = (lo - hi) * _INV_SQRT2


def _oracle_flag(amp: np.ndarray, marked_mask: np.ndarray) -> None:
    # X on the flag qubit, controlled on the index being marked: each marked
    # row's (flag, rot) columns 00, 01 trade places with 10, 11.
    rows = amp.reshape(-1, 4)
    rows[marked_mask] = rows[marked_mask][:, [2, 3, 0, 1]]


def _rotate_q0(amp: np.ndarray, r: float, dagger: bool = False) -> None:
    """(lo, hi) -> (c lo - s hi, s lo + c hi) on the rotation qubit."""
    c = math.sqrt(1.0 - r)
    s = -math.sqrt(r) if dagger else math.sqrt(r)
    v = amp.reshape(-1, 2)
    lo = v[:, 0].copy()
    hi = v[:, 1].copy()
    v[:, 0] = c * lo - s * hi
    v[:, 1] = s * lo + c * hi


def _reflect_zero(amp: np.ndarray) -> None:
    amp[0] = -amp[0]


def zero_state(qubits: int) -> np.ndarray:
    """|0> over `qubits` qubits as float64 amplitudes."""
    amp = np.zeros(1 << qubits)
    amp[0] = 1.0
    return amp


def _check_width(amp: np.ndarray, sub: SubOracle) -> None:
    if amp.size != 4 << sub.m:
        raise ValueError(
            f"state has {amp.size} amplitudes, sub-oracle needs {4 << sub.m}"
        )


def apply_A(amp: np.ndarray, sub: SubOracle, r: float) -> np.ndarray:
    """Hadamards on the index register, oracle into the flag, rotation on q0."""
    _check_width(amp, sub)
    _check_r(r)
    _hadamard_index_register(amp, sub.m)
    _oracle_flag(amp, _marked_mask(sub))
    _rotate_q0(amp, r)
    return amp


def apply_A_dagger(amp: np.ndarray, sub: SubOracle, r: float) -> np.ndarray:
    _check_width(amp, sub)
    _check_r(r)
    _rotate_q0(amp, r, dagger=True)
    _oracle_flag(amp, _marked_mask(sub))
    _hadamard_index_register(amp, sub.m)
    return amp


def _gate_level_Q(amp: np.ndarray, sub: SubOracle, r: float) -> None:
    """The iterate with A^dagger and A run gate by gate: the reference for
    the reflection about the prepared state that `apply_Q` applies."""
    _reflect_good(amp)
    apply_A_dagger(amp, sub, r)
    _reflect_zero(amp)
    apply_A(amp, sub, r)
    np.negative(amp, out=amp)


def check_backend_equivalence(max_m: int = 4) -> dict:
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
            sub = SubOracle(m=m, node_id=0, marked_local=frozenset(range(t)))
            analytic = AnalyticSampler.from_sub_oracle(sub)
            sampler = StatevectorSampler(sub)
            for r in _EQUIVALENCE_R_VALUES:
                gates = apply_A(zero_state(m + 2), sub, r)
                for power in range(_EQUIVALENCE_MAX_POWER + 1):
                    if power:
                        _gate_level_Q(gates, sub, r)
                    expected = analytic.probability(power, r)
                    err = max(abs(sampler.probability(power, r) - expected),
                              abs(_prob11(gates) - expected))
                    worst = max(worst, err)
                    cases += 1
    return {
        "name": "backend_equivalence",
        "passed": worst <= _EQUIVALENCE_TOLERANCE,
        "cases": cases,
        "max_error": worst,
        "tolerance": _EQUIVALENCE_TOLERANCE,
    }


def check_angle_slack() -> dict:
    """Rescaling never moves the scaled angle by a full quadrant.

    For odd K, r above sin^2(pi/2 (1-1/K)) and theta in [0, pi/2):
    0 <= 2K theta/pi - 2K asin(sqrt(r) sin theta)/pi < 1. The lower bound
    is exact monotonicity, so it is allowed the width of rounding noise.
    """
    theta = np.linspace(0.0, math.pi / 2, _SLACK_THETA_STEPS, endpoint=False)
    sin_theta = np.sin(theta)
    worst_low = math.inf
    worst_high = -math.inf
    cases = 0
    for big_k in range(1, _SLACK_MAX_BIG_K + 1, 2):
        threshold = math.sin(math.pi / 2 * (1 - 1 / big_k)) ** 2
        for r in np.linspace(threshold + 1e-6, 1.0, _SLACK_R_STEPS):
            slack = (2 * big_k / math.pi) * (theta - np.arcsin(np.sqrt(r) * sin_theta))
            worst_low = min(worst_low, float(slack.min()))
            worst_high = max(worst_high, float(slack.max()))
            cases += _SLACK_THETA_STEPS
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
    cap = metrics.SIN_PI_21 * metrics.SIN_8PI_21
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
        found_k, found_r = find_next_k(theta_min, theta_max, q, big_k, True)
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
                lhs = sum_in_order(f(k) for k in ks[ihat - 1 :])
                rhs = sum_in_order(f(k_max / q ** i) for i in range(t - ihat + 1))
                if lhs > rhs + 1e-9:
                    failures += 1
    return {
        "name": "budget_sums",
        "passed": failures == 0,
        "cases": trials,
        "failures": failures,
    }


def check_gate_cost_comparison() -> dict:
    """Exact gate-cost dominance of the centralized counter on the grid."""
    failing = [
        (n, k)
        for n in _COST_N_RANGE
        for k in _COST_K_VALUES
        if not metrics.centralized_cost_dominates(n, k)
    ]
    return {
        "name": "gate_cost_comparison",
        "passed": not failing,
        "cases": len(_COST_N_RANGE) * len(_COST_K_VALUES),
        "failures": failing,
    }
