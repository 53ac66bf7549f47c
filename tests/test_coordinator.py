import pytest

from dqcount.coordinator import aggregate, node_config, run_distributed, run_nodes
from dqcount.diqc import DiqcConfig, NodeResult, run_node
from dqcount.oracle import decompose_prefix, make_oracle


def node_result(node_id=0, m=5, t_prime=0, eps=0.001, alpha=0.05, status="success"):
    return NodeResult(
        node_id=node_id, m=m, epsilon_node=eps, alpha_node=alpha, seed=0,
        a_low=0.0, a_high=1.0, c=float(t_prime), t_prime=t_prime,
        scaled_low=0.0, scaled_high=float(1 << m), status=status,
        oracle_calls=10, oracle_calls_physical=25, total_shots=5, max_big_k=3,
    )


def test_aggregate_sums_and_bound():
    agg = aggregate([node_result(0, t_prime=2), node_result(1, t_prime=1)])
    assert agg.t_prime == 3
    assert agg.n == 6 and agg.k == 1
    assert agg.epsilon == pytest.approx(0.002)
    assert agg.error_bound == pytest.approx(2 ** 4 * 3 * 0.002 + 4 / 3)
    assert agg.confidence == pytest.approx(1 - 4 * 0.1 / 3)
    assert agg.oracle_calls == 20
    assert agg.status == "success"


def test_aggregate_rejects_bad_input():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([node_result(0)])  # one node is not a distributed run
    with pytest.raises(ValueError):
        aggregate([node_result(0), node_result(1), node_result(2)])
    with pytest.raises(ValueError):
        aggregate([node_result(0, eps=0.001), node_result(1, eps=0.002)])


def test_aggregate_zero_nodes_and_failure_propagation():
    agg = aggregate([node_result(j) for j in range(4)])
    assert agg.t_prime == 0 and agg.k == 2
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
    agg = run_distributed(make_oracle(5, set()), 2, epsilon=0.008, alpha=0.2,
                          shots_per_batch=100)
    assert agg.t_prime == 0
    assert agg.succeeded


def test_run_distributed_stride_scheme():
    oracle = make_oracle(6, {38, 8, 16})
    agg = run_distributed(oracle, 1, epsilon=0.002, alpha=0.1, scheme="stride",
                          shots_per_batch=50)
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
    config = node_config(0.004, 0.1, 6, 2, shots_per_batch=25)
    assert config == DiqcConfig(epsilon_node=0.001, alpha_node=0.025, shots_per_batch=25)
    with pytest.raises(ValueError):
        node_config(0.02, 0.1, 6, 1)
    with pytest.raises(ValueError):
        node_config(0.002, 0.75, 6, 1)
    with pytest.raises(ValueError):
        node_config(0.002, 0.1, 6, 6)


def test_aggregate_matches_node_runs():
    oracle = make_oracle(6, {1, 2, 3, 40})
    subs = decompose_prefix(oracle, 1)
    config = DiqcConfig(epsilon_node=0.001, alpha_node=0.05, shots_per_batch=1)
    results = [run_node(sub, config, seed=11 + sub.node_id) for sub in subs]
    agg = aggregate(results)
    assert agg.t_prime == sum(res.t_prime for res in results)
    assert agg.total_shots == sum(res.total_shots for res in results)
    assert agg.max_big_k == max(res.max_big_k for res in results)
    shared = run_nodes(subs, config, base_seed=11)
    assert (shared.t_prime, shared.total_shots, shared.max_big_k) == (
        agg.t_prime, agg.total_shots, agg.max_big_k)
    assert [res.seed for res in shared.per_node] == [res.seed for res in results]
