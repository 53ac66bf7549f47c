import math
import warnings

import mpmath
import numpy as np
import pytest

from dqcount import metrics


def test_shot_cap_constant_high_precision():
    mpmath.mp.dps = 50
    exact = 1 / (mpmath.sin(mpmath.pi / 21) ** 2 * mpmath.sin(8 * mpmath.pi / 21) ** 2)
    assert abs(metrics.SHOT_CAP_CONSTANT - float(exact)) < 1e-10
    assert round(float(exact), 2) == 51.95


def test_k_max_cap_values():
    assert metrics.k_max_cap(0.001) == 785
    assert metrics.k_max_cap(math.pi / 8) == 1
    assert metrics.k_max_cap(0.01) == 77
    with pytest.raises(ValueError):
        metrics.k_max_cap(0.0)


def test_shots_cap_values():
    mpmath.mp.dps = 50
    exact = mpmath.ceil(
        2
        / (mpmath.sin(mpmath.pi / 21) ** 2 * mpmath.sin(8 * mpmath.pi / 21) ** 2)
        * mpmath.log(2 / mpmath.mpf("0.025"))
    )
    assert exact == 456
    assert metrics.shots_cap(0.025) == 456
    with pytest.raises(ValueError):
        metrics.shots_cap(2.0)
    with pytest.raises(ValueError):
        metrics.shots_cap(0.0)
    caps = [metrics.shots_cap(a) for a in (0.001, 0.01, 0.1, 0.5)]
    assert caps == sorted(caps, reverse=True)


def test_query_bound_scaling():
    assert metrics.query_bound(0.001, 0.05) > 0
    for eps in (0.004, 0.002, 0.001):
        ratio = metrics.query_bound(eps / 2, 0.05) / metrics.query_bound(eps, 0.05)
        assert 1.9 < ratio < 2.1
    # bracket spot check against direct evaluation
    expected = metrics.SHOT_CAP_CONSTANT * 77 * (
        3 * math.log(4) + 2.25 * math.log(3) + 3.5 * math.log(1 / 0.05)
    )
    assert metrics.query_bound(0.01, 0.05) == pytest.approx(expected, rel=1e-12)


def test_gate_counts():
    assert metrics.gates_controlled_grover(5) == 4 ** 6 + 4 ** 6 - 2 ** 7 == 8064
    assert metrics.gates_node_grover(6, 1) == 2 ** 15 - 2 ** 8 == 32512
    n, m = 5, 6
    assert metrics.gates_counting_circuit(n, m) == (2 ** m - 1) * (
        2 * 4 ** (n + 1) - 2 ** (n + 2)
    ) + n + (m * m + m) // 2
    with pytest.raises(ValueError):
        metrics.gates_node_grover(4, 4)


def test_centralized_gate_total_identity():
    # the counting-circuit components plus the readout-register preparation
    # collapse to the closed form (n^2+7n+4)/2 + 2^(n+2)(4^(n+1)-2^(n+2)+1),
    # the count `counting_comparison` reports and `centralized_cost_dominates` compares
    for n in range(1, 401):
        m = n + 1
        total = metrics.gates_counting_circuit(n, m) + m
        closed = (n * n + 7 * n + 4) // 2 + 2 ** (n + 2) * (4 ** (n + 1) - 2 ** (n + 2) + 1)
        assert total == closed
    for n in range(2, 40):
        assert metrics.counting_comparison(n, 1)[0].gate_count == metrics.gates_counting_circuit(
            n, n + 1) + n + 1


def test_cost_dominance_grid():
    assert all(
        metrics.centralized_cost_dominates(n, k)
        for n in range(4, 31)
        for k in (1, 2)
    )


def test_counting_comparison_report():
    central, node = metrics.counting_comparison(6, 1)
    assert central.qubits == 13
    assert node.qubits == 7
    assert central.gate_count > node.gate_count
    assert central.max_grover_depth == 64
    assert node.max_grover_depth == (metrics.k_max_cap(1 / (3 * 2 ** 6)) - 1) // 2
    assert node.query_bound is not None and node.query_bound > 0


@pytest.mark.parametrize("func, args", [
    (metrics.counting_comparison, (6, 1)),
    (metrics.counting_comparison, (70, 1)),
    (metrics.centralized_cost_dominates, (70, 1)),
    (metrics.gates_controlled_grover, (40,)),
    (metrics.gates_counting_circuit, (30, 31)),
])
def test_numpy_ints_count_as_their_python_ints(func, args):
    """np.int64 register sizes give the Python-int result, in value and
    type: no wrapped shift or power, no numpy warning or overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = func(*map(np.int64, args))
    want = func(*args)

    def types(result):  # a report pair's field types, or a number's type
        values = [v for r in result for v in vars(r).values()] if type(result) is tuple else [result]
        return list(map(type, values))

    assert got == want and types(got) == types(want)
