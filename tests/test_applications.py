import random

import pytest

from dqcount.applications import (
    HAMMING,
    INNER_PRODUCT,
    communication_bound,
    estimate_hamming,
    estimate_inner_product,
)
from dqcount.oracle import hamming_suboracle, inner_product_suboracle


def bits(rng, length):
    return [rng.randint(0, 1) for _ in range(length)]


def chain_inner_product(x, y, k, node_id, m):
    """Basis-state walk through the two-party AND chain.

    Registers (index, x-flag, y-ancilla, target). One party loads x_g, the
    other loads y_g, a doubly controlled NOT writes the AND, then both
    loads are undone. All gates permute basis states, so exact tracking is
    a faithful statevector simulation of the chain.
    """
    out = {}
    for i in range(1 << m):
        g = (i << k) | node_id
        xf = yf = tgt = 0
        xf ^= x[g]              # load x into the flag
        yf ^= y[g]              # load y into the ancilla
        tgt ^= xf & yf          # doubly controlled NOT
        yf ^= y[g]              # unload y
        xf ^= x[g]              # unload x
        out[i] = (xf, yf, tgt)
    return out


def chain_hamming(x, y, k, node_id, m):
    """Basis-state walk through the XOR chain: load x, load y into the last
    qubit, CNOT from it onto the flag, unload y."""
    out = {}
    for i in range(1 << m):
        g = (i << k) | node_id
        flag = aux = 0
        flag ^= x[g]
        aux ^= y[g]
        flag ^= aux             # CNOT, control on the freshly loaded y
        aux ^= y[g]
        out[i] = (flag, aux)
    return out


def test_inner_product_chain_matches_suboracle_exhaustively():
    rng = random.Random(5)
    x, y = bits(rng, 64), bits(rng, 64)
    for k in (1, 2):
        for node_id in range(1 << k):
            m = 6 - k
            sub = inner_product_suboracle(x, y, k, node_id)
            walk = chain_inner_product(x, y, k, node_id, m)
            for i, (xf, yf, tgt) in walk.items():
                assert (xf, yf) == (0, 0)  # ancillas are returned clean
                assert tgt == sub.indicator(i)


def test_hamming_chain_matches_suboracle_exhaustively():
    rng = random.Random(6)
    x, y = bits(rng, 64), bits(rng, 64)
    for k in (1, 2):
        for node_id in range(1 << k):
            m = 6 - k
            sub = hamming_suboracle(x, y, k, node_id)
            walk = chain_hamming(x, y, k, node_id, m)
            for i, (flag, aux) in walk.items():
                assert aux == 0
                assert flag == sub.indicator(i)


def test_inner_product_all_ones():
    ones = [1] * 64
    result = estimate_inner_product(ones, ones, 1, 0.01, 0.05, shots_per_batch=100)
    assert result.succeeded
    assert abs(result.estimate - 1.0) <= result.error_bound
    assert result.error_bound == pytest.approx(3 * 0.01 / 4)


def test_inner_product_disjoint_supports():
    x = [1, 0] * 32
    y = [0, 1] * 32
    result = estimate_inner_product(x, y, 1, 0.01, 0.05, shots_per_batch=100)
    assert abs(result.estimate) <= result.error_bound


def test_hamming_trivial_pairs():
    rng = random.Random(7)
    x = bits(rng, 64)
    same = estimate_hamming(x, x, 1, 0.01, 0.05, shots_per_batch=100)
    assert abs(same.estimate) <= same.error_bound
    flipped = [1 - b for b in x]
    full = estimate_hamming(x, flipped, 1, 0.01, 0.05, shots_per_batch=100)
    assert abs(full.estimate - 1.0) <= full.error_bound


def test_random_pairs_within_bounds():
    rng = random.Random(8)
    hits_ip = hits_hd = 0
    trials = 12
    for trial in range(trials):
        x, y = bits(rng, 64), bits(rng, 64)
        ip = estimate_inner_product(x, y, 1, 0.01, 0.05,
                                    shots_per_batch=100, base_seed=trial * 2)
        exact_ip = sum(a & b for a, b in zip(x, y)) / 64
        hits_ip += abs(ip.estimate - exact_ip) <= ip.error_bound
        hd = estimate_hamming(x, y, 1, 0.01, 0.05,
                              shots_per_batch=100, base_seed=trial * 2 + 1)
        exact_hd = sum(a ^ b for a, b in zip(x, y)) / 64
        hits_hd += abs(hd.estimate - exact_hd) <= hd.error_bound
        # ledger never exceeds the closed-form transfer bound
        for result, problem in ((ip, INNER_PRODUCT), (hd, HAMMING)):
            bound = communication_bound(problem, result.n, 1, 0.005, 0.025)
            assert result.ledger.total_qubits <= bound
    assert hits_ip >= trials - 1
    assert hits_hd >= trials - 1


def test_scaled_estimate_consistency():
    rng = random.Random(9)
    x, y = bits(rng, 64), bits(rng, 64)
    result = estimate_inner_product(x, y, 2, 0.01, 0.05, shots_per_batch=100, base_seed=5)
    assert result.estimate * 64 == sum(res.c for res in result.per_node)
    assert [res.seed for res in result.per_node] == [5 + res.node_id for res in result.per_node]
    assert [res.node_id for res in result.per_node] == [0, 1, 2, 3]
    assert result.ledger.preparations == sum(res.oracle_calls_physical for res in result.per_node)
    assert result.confidence == 1 - 4 * 0.05 / 3


def test_padding_to_power_of_two():
    rng = random.Random(10)
    x, y = bits(rng, 48), bits(rng, 48)
    result = estimate_inner_product(x, y, 1, 0.01, 0.05, shots_per_batch=100)
    assert result.n == 6
    exact = sum(a & b for a, b in zip(x, y)) / 64
    assert abs(result.estimate - exact) <= result.error_bound


def test_ledger_accounting():
    rng = random.Random(13)
    x, y = bits(rng, 64), bits(rng, 64)
    ip = estimate_inner_product(x, y, 1, 0.01, 0.05, shots_per_batch=100)
    assert ip.ledger.qubits_per_preparation == 2 * 6 - 2 * 1 + 3
    assert ip.ledger.preparations == sum(
        res.oracle_calls_physical for res in ip.per_node
    )
    assert ip.ledger.total_qubits == ip.ledger.qubits_per_preparation * ip.ledger.preparations
    assert ip.ledger.classical_bits == 64 * 2
    hd = estimate_hamming(x, y, 1, 0.01, 0.05, shots_per_batch=100)
    assert hd.ledger.qubits_per_preparation == 6 - 1 + 1


def test_communication_bound_shapes():
    bound = communication_bound(INNER_PRODUCT, 6, 1, 0.001, 0.05)
    assert bound > 0
    assert communication_bound(INNER_PRODUCT, 6, 1, 0.002, 0.05) < bound
    assert communication_bound(HAMMING, 6, 1, 0.001, 0.05) < bound
    with pytest.raises(ValueError):
        communication_bound("xor", 6, 1, 0.001, 0.05)
    with pytest.raises(ValueError):
        communication_bound(HAMMING, 6, 6, 0.001, 0.05)


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_inner_product([1, 0], [1], 1, 0.01, 0.05)
    with pytest.raises(ValueError):
        estimate_inner_product([1] * 64, [1] * 64, 1, 0.05, 0.05)
    with pytest.raises(ValueError):
        estimate_hamming("0011", "0a11", 1, 0.01, 0.05)
