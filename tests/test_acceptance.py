"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line
per criterion. The stochastic criteria use fixed seeds; tolerances follow
the governing error bounds plus three binomial standard deviations where
sampling noise enters.
"""

import math
import time

import numpy as np
import pytest

from dqcount import checks, metrics
from dqcount.applications import (
    HAMMING,
    INNER_PRODUCT,
    communication_bound,
    estimate_hamming,
    estimate_inner_product,
)
from dqcount.coordinator import run_distributed, run_nodes
from dqcount.diqc import DiqcConfig, run_amplitude
from dqcount.miqae import MiqaeConfig, run_for_amplitude
from dqcount.oracle import decompose_prefix, make_oracle
from dqcount.qsim import AnalyticSampler

from vector_rounds import VectorRounds, vector_backends

COVERAGE_AMPLITUDES = (0.0, 1 / 64, 1 / 8, 0.5, 1.0)
COVERAGE_RUNS = 500


def three_sigma_limit(p: float, trials: int) -> float:
    return 3 * math.sqrt(p * (1 - p) / trials)


def depth(result) -> int:
    """Deepest circuit of a run, counted in amplification iterates."""
    return (result.max_big_k - 1) // 2


@pytest.fixture(scope="module")
def table3_runs():
    oracle = make_oracle(6, {38, 8, 16})
    return [
        run_distributed(oracle, 1, epsilon=0.002, alpha=0.1, base_seed=100 + 2 * rep)
        for rep in range(100)
    ]


@pytest.fixture(scope="module")
def coverage_runs():
    config = DiqcConfig(epsilon_node=0.005, alpha_node=0.05)

    def run(amp, seed):
        sampler = VectorRounds(AnalyticSampler.from_amplitude(amp, seed))
        return run_amplitude(amp, config, seed=seed, sampler=sampler)

    return {
        amp: [run(amp, 1000 * idx + rep) for rep in range(COVERAGE_RUNS)]
        for idx, amp in enumerate(COVERAGE_AMPLITUDES, start=1)
    }


@pytest.fixture(scope="module")
def aggregate_trials():
    """1,000 runs of the global budget (0.01, 0.05) over 4 prefix nodes,
    as `run_distributed` splits it. Each round is one numpy draw of the
    count the program's per-shot draws give (`tests/vector_rounds.py`)."""
    rng = np.random.default_rng(2024)
    config = DiqcConfig(epsilon_node=0.01 / 4, alpha_node=0.05 / 4)
    trials = []
    with vector_backends():
        for _ in range(20):
            t = int(rng.integers(0, 257))
            marked = frozenset(map(int, rng.choice(256, size=t, replace=False)))
            subs = decompose_prefix(make_oracle(8, marked), 2)
            for rep in range(50):
                seed = int(rng.integers(0, 2 ** 31))
                trials.append((t, run_nodes(subs, config, base_seed=seed)))
    return trials


def test_criterion_1_backend_equivalence():
    start = time.perf_counter()
    report = checks.check_backend_equivalence(max_m=6)
    elapsed = time.perf_counter() - start
    assert report["passed"], report
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 backend equivalence: PASS "
          f"({report['cases']} cases, max err {report['max_error']:.2e}, {elapsed:.1f}s)")


def test_criterion_2_desk_scale_reproduction(table3_runs):
    per_node = {0: [], 1: []}
    for agg in table3_runs:
        for res in agg.per_node:
            per_node[res.node_id].append(res)
    expectations = {
        0: {"band": (1.95, 2.05), "calls": 59656, "depth": 83.63},
        1: {"band": (0.95, 1.05), "calls": 43305, "depth": 62.95},
    }
    lines = []
    for node_id, expect in expectations.items():
        runs = per_node[node_id]
        mean_c = sum(res.c for res in runs) / len(runs)
        successes = sum(res.succeeded for res in runs)
        mean_calls = sum(res.oracle_calls for res in runs) / len(runs)
        mean_depth = sum(depth(res) for res in runs) / len(runs)
        lo, hi = expect["band"]
        assert lo <= mean_c <= hi, (node_id, mean_c)
        assert successes >= 95, (node_id, successes)
        assert expect["calls"] / 2 <= mean_calls <= expect["calls"] * 2, (node_id, mean_calls)
        assert expect["depth"] / 2 <= mean_depth <= expect["depth"] * 2, (node_id, mean_depth)
        lines.append(f"node {node_id}: c={mean_c:.4f} succ={successes} "
                     f"calls={mean_calls:.0f} depth={mean_depth:.1f}")
    exact_totals = sum(agg.t_prime == 3 for agg in table3_runs)
    assert exact_totals >= 95, exact_totals
    print(f"\nACCEPTANCE 2 desk-scale reproduction: PASS "
          f"({'; '.join(lines)}; t'=3 in {exact_totals}/100)")


def test_criterion_3_coverage(coverage_runs):
    alpha = 0.05
    miss_cap = COVERAGE_RUNS * (4 * alpha / 3 + three_sigma_limit(4 * alpha / 3, COVERAGE_RUNS))
    details = []
    for amp, runs in coverage_runs.items():
        misses = sum(not (res.a_low <= amp <= res.a_high) for res in runs)
        assert misses <= miss_cap, (amp, misses, miss_cap)
        details.append(f"a={amp:.4g}: {misses}")
    baseline_cap = COVERAGE_RUNS * (alpha + three_sigma_limit(alpha, COVERAGE_RUNS))
    config = MiqaeConfig(epsilon=0.005, alpha=alpha, shots_per_batch=100)
    base_details = []
    for idx, amp in enumerate(COVERAGE_AMPLITUDES, start=1):
        misses = 0
        for run in range(COVERAGE_RUNS):
            res = run_for_amplitude(amp, config, seed=90_000 * idx + run)
            misses += not (res.a_low <= amp <= res.a_high)
        assert misses <= baseline_cap, (amp, misses, baseline_cap)
        base_details.append(f"a={amp:.4g}: {misses}")
    print(f"\nACCEPTANCE 3 coverage: PASS "
          f"(node misses {', '.join(details)} of cap {miss_cap:.1f}; "
          f"baseline misses {', '.join(base_details)} of cap {baseline_cap:.1f})")


def test_criterion_4_aggregate_bound(aggregate_trials):
    bound = 2 ** 5 * 3 * 0.01 + 2 ** 3 / 3
    p = 1 - 4 * 0.05 / 3
    needed = (p - three_sigma_limit(p, len(aggregate_trials))) * len(aggregate_trials)
    hits = sum(abs(agg.t_prime - t) <= bound for t, agg in aggregate_trials)
    assert aggregate_trials[0][1].error_bound == pytest.approx(bound)
    assert hits >= needed, (hits, needed)
    print(f"\nACCEPTANCE 4 aggregate bound: PASS "
          f"({hits}/{len(aggregate_trials)} within {bound:.3f}, needed {needed:.1f})")


def test_criterion_5_hard_resource_bounds(table3_runs, coverage_runs):
    node_runs = [res for agg in table3_runs for res in agg.per_node]
    node_runs += [res for runs in coverage_runs.values() for res in runs]
    checked_rounds = 0
    for res in node_runs:
        bound = metrics.query_bound(res.epsilon_node, res.alpha_node)
        cap = metrics.k_max_cap(res.epsilon_node)
        assert res.oracle_calls <= bound, (res.oracle_calls, bound)
        last_cap_per_k = {}
        for rd in res.rounds:
            checked_rounds += 1
            # a round spends exactly the cap of its significance alpha_i
            alpha_i = (rd.q - 1) * res.alpha_node * rd.big_k / (rd.q * cap)
            assert rd.shots == metrics.shots_cap(alpha_i)
            assert rd.big_k < cap
            last_cap_per_k[rd.big_k] = rd.shots
        ks = sorted(last_cap_per_k)
        caps = [last_cap_per_k[k] for k in ks]
        assert all(b <= a for a, b in zip(caps, caps[1:]))
    print(f"\nACCEPTANCE 5 per-run bounds: PASS "
          f"({len(node_runs)} runs, {checked_rounds} rounds)")


def test_criterion_6_analytic_properties():
    start = time.perf_counter()
    reports = [
        checks.check_angle_slack(),
        checks.check_k_growth(trials=400, seed=6),
        checks.check_budget_sums(trials=400, seed=6),
        checks.check_gate_cost_comparison(),
    ]
    elapsed = time.perf_counter() - start
    for report in reports:
        assert report["passed"], report
    print(f"\nACCEPTANCE 6 analytic properties: PASS "
          f"({', '.join(r['name'] for r in reports)}; {elapsed:.1f}s)")


def test_criterion_7_applications():
    rng = np.random.default_rng(77)
    trials = 50
    confidence = 1 - 4 * 0.05 / 3
    needed = (confidence - three_sigma_limit(confidence, trials)) * trials
    results = {}
    for problem, runner, brute in (
        (INNER_PRODUCT, estimate_inner_product, lambda x, y: sum(a & b for a, b in zip(x, y)) / 64),
        (HAMMING, estimate_hamming, lambda x, y: sum(a ^ b for a, b in zip(x, y)) / 64),
    ):
        hits = 0
        for trial in range(trials):
            x = [int(b) for b in rng.integers(0, 2, size=64)]
            y = [int(b) for b in rng.integers(0, 2, size=64)]
            res = runner(x, y, 1, 0.01, 0.05, base_seed=5000 + 10 * trial)
            hits += abs(res.estimate - brute(x, y)) <= res.error_bound
            bound = communication_bound(problem, res.n, 1,
                                        res.per_node[0].epsilon_node,
                                        res.per_node[0].alpha_node)
            assert res.ledger.total_qubits <= bound
        assert hits >= needed, (problem, hits, needed)
        results[problem] = hits
    print(f"\nACCEPTANCE 7 applications: PASS "
          f"(inner {results[INNER_PRODUCT]}/{trials}, "
          f"hamming {results[HAMMING]}/{trials}, needed {needed:.1f})")


def test_criterion_8_depth_and_success_trend():
    amplitude = 1 / 64
    alpha = 0.05
    reps = 100
    lines = []
    for eps in (0.005, 0.002, 0.001):
        node_cfg = DiqcConfig(epsilon_node=eps, alpha_node=alpha)
        base_cfg = MiqaeConfig(epsilon=eps, alpha=alpha, shots_per_batch=100)
        node_runs = [run_amplitude(amplitude, node_cfg, seed=300 + rep) for rep in range(reps)]
        base_runs = [run_for_amplitude(amplitude, base_cfg, seed=300 + rep) for rep in range(reps)]
        node_successes = sum(res.succeeded for res in node_runs)
        base_successes = sum(res.succeeded for res in base_runs)
        node_depth = np.mean([depth(res) for res in node_runs if res.succeeded] or [0.0])
        base_depth = np.mean([depth(res) for res in base_runs if res.succeeded] or [0.0])
        assert node_successes >= base_successes - 5, (eps, node_successes, base_successes)
        assert node_depth <= 1.1 * base_depth, (eps, node_depth, base_depth)
        lines.append(f"eps={eps}: succ {node_successes}v{base_successes}, "
                     f"depth {node_depth:.1f}v{base_depth:.1f}")
    print(f"\nACCEPTANCE 8 depth/success trend: PASS ({'; '.join(lines)})")
