import builtins
import importlib
import json
import math
import pkgutil
import random

import numpy as np
import pytest

import dqcount
from dqcount.applications import (
    HAMMING,
    INNER_PRODUCT,
    _pad_to_power_of_two,
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
                assert tgt == (i in sub.marked_local)


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
                assert flag == (i in sub.marked_local)


def test_inner_product_all_ones():
    ones = [1] * 64
    result = estimate_inner_product(ones, ones, 1, 0.01, 0.05)
    assert result.succeeded
    assert abs(result.estimate - 1.0) <= result.error_bound
    assert result.error_bound == pytest.approx(3 * 0.01 / 4)
    assert result.error_bound == 3 * 0.01 / (1 << 2)  # one node's half_width, to the bit


def test_inner_product_disjoint_supports():
    x = [1, 0] * 32
    y = [0, 1] * 32
    result = estimate_inner_product(x, y, 1, 0.01, 0.05)
    assert abs(result.estimate) <= result.error_bound


def test_hamming_trivial_pairs():
    rng = random.Random(7)
    x = bits(rng, 64)
    same = estimate_hamming(x, x, 1, 0.01, 0.05)
    assert abs(same.estimate) <= same.error_bound
    flipped = [1 - b for b in x]
    full = estimate_hamming(x, flipped, 1, 0.01, 0.05)
    assert abs(full.estimate - 1.0) <= full.error_bound


def test_random_pairs_within_bounds():
    rng = random.Random(8)
    hits_ip = hits_hd = 0
    trials = 12
    for trial in range(trials):
        x, y = bits(rng, 64), bits(rng, 64)
        ip = estimate_inner_product(x, y, 1, 0.01, 0.05, base_seed=trial * 2)
        exact_ip = sum(a & b for a, b in zip(x, y)) / 64
        hits_ip += abs(ip.estimate - exact_ip) <= ip.error_bound
        hd = estimate_hamming(x, y, 1, 0.01, 0.05, base_seed=trial * 2 + 1)
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
    result = estimate_inner_product(x, y, 2, 0.01, 0.05, base_seed=5)
    assert result.estimate * 64 == sum(res.c for res in result.per_node)
    assert [res.seed for res in result.per_node] == [5 + res.node_id for res in result.per_node]
    assert [res.node_id for res in result.per_node] == [0, 1, 2, 3]
    assert result.ledger.preparations == sum(res.oracle_calls_physical for res in result.per_node)
    assert result.confidence == 1 - 4 * 0.05 / 3


def test_padding_to_power_of_two():
    rng = random.Random(10)
    x, y = bits(rng, 48), bits(rng, 48)
    result = estimate_inner_product(x, y, 1, 0.01, 0.05)
    assert result.n == 6
    exact = sum(a & b for a, b in zip(x, y)) / 64
    assert abs(result.estimate - exact) <= result.error_bound
    assert _pad_to_power_of_two(x) == (x + [0] * 16, 6)
    # a list already 2^n long is used as it is, not copied; a tuple becomes a list
    full = bits(rng, 64)
    assert _pad_to_power_of_two(full)[0] is full
    assert _pad_to_power_of_two(tuple(full)) == (full, 6)


def test_ledger_accounting():
    rng = random.Random(13)
    x, y = bits(rng, 64), bits(rng, 64)
    ip = estimate_inner_product(x, y, 1, 0.01, 0.05)
    assert ip.ledger.qubits_per_preparation == 2 * 6 - 2 * 1 + 3
    assert ip.ledger.preparations == sum(
        res.oracle_calls_physical for res in ip.per_node
    )
    assert ip.ledger.total_qubits == ip.ledger.qubits_per_preparation * ip.ledger.preparations
    assert ip.ledger.classical_bits == 64 * 2
    hd = estimate_hamming(x, y, 1, 0.01, 0.05)
    assert hd.ledger.qubits_per_preparation == 6 - 1 + 1


def test_a_numpy_k_gives_a_json_serializable_pair_result():
    """The result keeps the Python int k that `check_split` returned, so k
    and the ledger's classical bits serialize."""
    rng = random.Random(8)
    x, y = bits(rng, 64), bits(rng, 64)
    result = estimate_hamming(x, y, np.int64(1), 0.01, 0.05)
    assert type(result.k) is int and type(result.ledger.classical_bits) is int
    assert json.loads(json.dumps(result.to_dict())) == json.loads(
        json.dumps(estimate_hamming(x, y, 1, 0.01, 0.05).to_dict()))


def test_a_numpy_base_seed_gives_a_json_serializable_pair_result():
    """Node seeds are Python ints, so the per-node dump serializes."""
    rng = random.Random(8)
    x, y = bits(rng, 64), bits(rng, 64)
    result = estimate_hamming(x, y, 1, 0.01, 0.05, base_seed=np.int64(3))
    assert [type(res.seed) for res in result.per_node] == [int, int]
    assert json.loads(json.dumps(result.to_dict(include_nodes=True))) == json.loads(
        json.dumps(estimate_hamming(x, y, 1, 0.01, 0.05, base_seed=3).to_dict(True)))


def test_a_float_base_seed_raises_value_error():
    with pytest.raises(ValueError, match=r"^base_seed must be an integer, got 1.5$"):
        estimate_hamming([0, 1, 1, 0], [1, 1, 0, 0], 1, 0.01, 0.05, base_seed=1.5)


def test_communication_bound_shapes():
    bound = communication_bound(INNER_PRODUCT, 6, 1, 0.001, 0.05)
    assert bound > 0
    assert communication_bound(INNER_PRODUCT, 6, 1, 0.002, 0.05) < bound
    assert communication_bound(HAMMING, 6, 1, 0.001, 0.05) < bound
    with pytest.raises(ValueError):
        communication_bound("xor", 6, 1, 0.001, 0.05)
    with pytest.raises(ValueError):
        communication_bound(HAMMING, 6, 6, 0.001, 0.05)
    with pytest.raises(ValueError, match="overflows float64"):
        communication_bound(INNER_PRODUCT, 1012, 1011, 0.001, 0.05)


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_inner_product([1, 0], [1], 1, 0.01, 0.05)
    with pytest.raises(ValueError):
        estimate_inner_product([1] * 64, [1] * 64, 1, 0.05, 0.05)
    with pytest.raises(ValueError):
        estimate_hamming("0011", "0a11", 1, 0.01, 0.05)


def test_float_bits_raise_value_error():
    for runner in (estimate_inner_product, estimate_hamming):
        with pytest.raises(ValueError, match="x and y must contain only integer 0/1"):
            runner([1.0, 0, 1, 0], [1, 0, 1, 0], 1, 0.01, 0.05)


def compensated_sum(values, start=0):
    """builtins.sum as Python 3.12 and later run it: Neumaier-compensated
    over floats, builtins.sum itself over ints."""
    values = list(values)
    if not any(isinstance(value, float) for value in values):
        return builtins.sum(values, start)
    total, comp = float(start), 0.0
    for value in map(float, values):
        step = total + value
        if abs(total) >= abs(value):
            comp += (total - step) + value
        else:
            comp += (value - step) + total
        total = step
    return total + comp if comp and math.isfinite(comp) else total


def test_pair_estimate_bytes_do_not_depend_on_the_python_sum(monkeypatch):
    # at k 2, seed 3 a compensated sum of the node counts moves the last bit
    # of the Hamming estimate (0.5312766948572224 against ...223)
    assert compensated_sum([0.1] * 10) == 1.0  # left to right: 0.9999999999999999
    x, y = bits(random.Random(42), 64), bits(random.Random(43), 64)
    plain = estimate_hamming(x, y, 2, 0.01, 0.05, base_seed=3).estimate
    for info in pkgutil.iter_modules(dqcount.__path__):
        module = importlib.import_module(f"dqcount.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert estimate_hamming(x, y, 2, 0.01, 0.05, base_seed=3).estimate == plain
