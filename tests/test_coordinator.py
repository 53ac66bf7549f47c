import random
import re
from dataclasses import fields
from operator import attrgetter

import pytest

from dqcount.coordinator import AggregateResult, aggregate, node_config, run_distributed, run_nodes
from dqcount.diqc import DiqcConfig, NodeResult, run_node
from dqcount.oracle import SubOracle, decompose_prefix, make_oracle


def node_result(node_id=0, m=5, t_prime=0, eps=0.001, alpha=0.05, status="success"):
    return NodeResult(
        node_id=node_id, m=m, epsilon_node=eps, alpha_node=alpha, seed=0,
        a_low=0.0, a_high=1.0, c=float(t_prime), t_prime=t_prime, status=status,
        oracle_calls=10, oracle_calls_physical=25, total_shots=5, max_big_k=3,
    )


def test_aggregate_sums_and_bound():
    agg = aggregate([node_result(0, t_prime=2), node_result(1, t_prime=1)])
    assert agg.t_prime == 3
    assert [(res.node_id, res.m) for res in agg.per_node] == [(0, 5), (1, 5)]  # n=6, k=1
    assert agg.per_node[0].epsilon_node * 2 == pytest.approx(0.002)
    assert agg.error_bound == pytest.approx(2 ** 4 * 3 * 0.002 + 4 / 3)
    assert agg.confidence == pytest.approx(1 - 4 * 0.1 / 3)
    assert sum(res.oracle_calls for res in agg.per_node) == 20
    assert agg.status == "success"


def test_aggregate_result_fields():
    assert [f.name for f in fields(AggregateResult)] == [
        "t_prime", "error_bound", "confidence", "status", "per_node"]


def test_aggregate_bound_is_the_paper_closed_form_bit_for_bit():
    # 2^k node intervals of 2^m * half_width(eps_node) each, plus rounding,
    # equal 2^(n-k-1) * 3*epsilon + 2^(k+1)/3 to the last bit
    rng = random.Random(0)
    for _ in range(500):
        k, m = rng.randint(1, 4), rng.randint(0, 40)
        eps_node = rng.uniform(1e-7, 0.01) / (1 << k)
        agg = aggregate([node_result(j, m=m, eps=eps_node) for j in range(1 << k)])
        epsilon = eps_node * (1 << k)
        assert agg.error_bound == (1 << m) / 2 * 3 * epsilon + (1 << (k + 1)) / 3


def test_aggregate_rejects_bad_input():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([node_result(0)])  # one node is not a distributed run
    with pytest.raises(ValueError):
        aggregate([node_result(0), node_result(1), node_result(2)])
    with pytest.raises(ValueError):
        aggregate([node_result(0, eps=0.001), node_result(1, eps=0.002)])
    with pytest.raises(ValueError):
        aggregate([node_result(0, t_prime=2), node_result(0, t_prime=2)])  # node 0 twice
    with pytest.raises(ValueError):
        aggregate([node_result(1), node_result(5)])  # ids outside 0..1


def test_aggregate_zero_nodes_and_failure_propagation():
    agg = aggregate([node_result(j) for j in range(4)])
    assert agg.t_prime == 0 and len(agg.per_node) == 4  # k = 2
    agg = aggregate([node_result(0, t_prime=2), node_result(1, t_prime=1, status="failed")])
    assert agg.status == "failed"
    assert agg.t_prime == 3  # best-effort sum is still reported


def test_run_distributed_counts_three():
    oracle = make_oracle(6, {38, 8, 16})
    for seed in range(3):
        agg = run_distributed(oracle, 1, epsilon=0.002, alpha=0.1, base_seed=seed * 2)
        assert agg.succeeded
        assert agg.t_prime == 3
        assert [res.t_prime for res in agg.per_node] == [2, 1]
        assert agg.error_bound == pytest.approx(2 ** 4 * 3 * 0.002 + 4 / 3)


def test_run_distributed_empty_set():
    agg = run_distributed(make_oracle(5, set()), 2, epsilon=0.008, alpha=0.2)
    assert agg.t_prime == 0
    assert agg.succeeded


def test_run_distributed_stride_scheme():
    oracle = make_oracle(6, {38, 8, 16})
    agg = run_distributed(oracle, 1, epsilon=0.002, alpha=0.1, scheme="stride")
    assert agg.t_prime == 3
    assert [res.t_prime for res in agg.per_node] == [3, 0]
    with pytest.raises(ValueError):
        run_distributed(oracle, 1, 0.002, 0.1, scheme="modulo")


def test_run_distributed_validation():
    oracle = make_oracle(6, {38, 8, 16})
    with pytest.raises(ValueError):
        run_distributed(oracle, 1, epsilon=0.02, alpha=0.1)
    with pytest.raises(ValueError):
        run_distributed(oracle, 1, epsilon=0.002, alpha=0.9)
    with pytest.raises(ValueError):
        run_distributed(oracle, 6, epsilon=0.002, alpha=0.1)


def test_node_config_splits_global_budget():
    config = node_config(0.004, 0.1, 6, 2)
    assert config == DiqcConfig(epsilon_node=0.001, alpha_node=0.025)
    with pytest.raises(ValueError):
        node_config(0.02, 0.1, 6, 1)
    with pytest.raises(ValueError):
        node_config(0.002, 0.75, 6, 1)
    with pytest.raises(ValueError):
        node_config(0.002, 0.1, 6, 6)


def test_non_integer_node_counts_raise_value_error():
    """A float k reaches neither `1 << k` nor a node's seed: the budget
    split and the distributed run both reject it in `check_split`."""
    oracle = make_oracle(6, {38, 8, 16})
    with pytest.raises(ValueError, match=r"^k must be an integer, got 1.0$"):
        node_config(0.002, 0.1, 6, 1.0)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 1.0$"):
        run_distributed(oracle, 1.0, 0.002, 0.1)
    with pytest.raises(ValueError, match=r"^n must be an integer, got 6.0$"):
        node_config(0.002, 0.1, 6.0, 1)


def test_aggregate_matches_node_runs():
    oracle = make_oracle(6, {1, 2, 3, 40})
    subs = decompose_prefix(oracle, 1)
    config = DiqcConfig(epsilon_node=0.001, alpha_node=0.05)
    results = [run_node(sub, config, seed=11 + sub.node_id) for sub in subs]
    agg = aggregate(results)
    assert agg.t_prime == sum(res.t_prime for res in results)
    assert agg.per_node == results
    shared = run_nodes(subs, config, base_seed=11)
    assert shared.t_prime == agg.t_prime
    key = attrgetter("seed", "t_prime", "total_shots", "max_big_k")
    assert [key(res) for res in shared.per_node] == [key(res) for res in results]


def test_run_nodes_rejects_node_ids_other_than_0_to_2k_minus_1():
    """A sub-oracle takes any non-negative node id; the run's aggregate is
    what rejects ids 0 and 2 as a two-node split."""
    subs = [SubOracle(m=3, node_id=j, marked_local=frozenset({1})) for j in (0, 2)]
    config = DiqcConfig(epsilon_node=0.001, alpha_node=0.05)
    with pytest.raises(ValueError, match=re.escape("node ids [0, 2] are not 0..1")):
        run_nodes(subs, config)
