"""Splits a counting problem across 2^k virtual nodes and aggregates.

`node_config` checks the (n, k) split and the global budget before it
divides anything by 2^k. `run_nodes` then hands node j its sub-oracle, the
per-node budget (epsilon/2^k, alpha/2^k) and the seed base_seed + j, runs
the nodes in order, and `aggregate` sums the integer estimates. Counting
(`run_distributed`) and both two-party estimates go through `run_nodes`.
Node runs share no state, so a node's result depends only on its
sub-oracle, budget and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diqc import DiqcConfig, NodeResult, run_node
from .oracle import (
    PREFIX,
    STRIDE,
    OracleSpec,
    SubOracle,
    check_split,
    decompose_prefix,
    decompose_stride,
)

__all__ = ["AggregateResult", "node_config", "run_nodes", "run_distributed", "aggregate"]


@dataclass
class AggregateResult:
    """Sum of the node estimates plus the a-priori error guarantee.

    `error_bound` is 2^(n-k-1) * 3*epsilon + 2^(k+1)/3 and holds with
    probability at least `confidence` = 1 - (4/3) alpha.
    """

    t_prime: int
    error_bound: float
    confidence: float
    status: str
    n: int
    k: int
    epsilon: float
    alpha: float
    oracle_calls: int
    oracle_calls_physical: int
    total_shots: int
    max_big_k: int
    per_node: list[NodeResult] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "success"


def aggregate(node_results: list[NodeResult]) -> AggregateResult:
    """Fold node results into the total count and its guarantee.

    All nodes must share the slice width and per-node budget, and the node
    count must be a power of two; the global budget is reconstructed as
    epsilon = 2^k * epsilon_node.
    """
    if not node_results:
        raise ValueError("need at least one node result")
    nodes = len(node_results)
    if nodes & (nodes - 1) or nodes < 2:
        raise ValueError(f"node count {nodes} is not a power of two >= 2")
    k = nodes.bit_length() - 1
    m = node_results[0].m
    eps_node = node_results[0].epsilon_node
    alpha_node = node_results[0].alpha_node
    for res in node_results:
        if res.m != m or res.epsilon_node != eps_node or res.alpha_node != alpha_node:
            raise ValueError("node results come from mixed configurations")
    epsilon = eps_node * nodes
    alpha = alpha_node * nodes
    ordered = sorted(node_results, key=lambda res: res.node_id)
    return AggregateResult(
        t_prime=sum(res.t_prime for res in ordered),
        error_bound=(1 << m) / 2 * 3 * epsilon + (1 << (k + 1)) / 3,
        confidence=1 - 4 * alpha / 3,
        status="success" if all(res.succeeded for res in ordered) else "failed",
        n=m + k,
        k=k,
        epsilon=epsilon,
        alpha=alpha,
        oracle_calls=sum(res.oracle_calls for res in ordered),
        oracle_calls_physical=sum(res.oracle_calls_physical for res in ordered),
        total_shots=sum(res.total_shots for res in ordered),
        max_big_k=max(res.max_big_k for res in ordered),
        per_node=ordered,
    )


def node_config(
    epsilon: float, alpha: float, n: int, k: int, shots_per_batch: int = 1
) -> DiqcConfig:
    """Check the split of n index bits and the global budget, then give
    each of the 2^k nodes a 2^k-th of the budget."""
    check_split(n, k)
    if not 0 < epsilon <= 0.01:
        raise ValueError("epsilon must lie in (0, 0.01]")
    if not 0 < alpha < 0.75:
        raise ValueError("alpha must lie in (0, 3/4)")
    nodes = 1 << k
    return DiqcConfig(
        epsilon_node=epsilon / nodes,
        alpha_node=alpha / nodes,
        shots_per_batch=shots_per_batch,
    )


def run_nodes(
    subs: list[SubOracle],
    config: DiqcConfig,
    base_seed: int = 0,
    backend: str = "analytic",
) -> AggregateResult:
    """Run one node per sub-oracle, node j seeded with base_seed + j, and
    aggregate their results."""
    return aggregate([
        run_node(sub, config, seed=base_seed + sub.node_id, backend=backend)
        for sub in subs
    ])


def run_distributed(
    oracle: OracleSpec,
    k: int,
    epsilon: float,
    alpha: float,
    scheme: str = PREFIX,
    shots_per_batch: int = 1,
    base_seed: int = 0,
    backend: str = "analytic",
) -> AggregateResult:
    """Decompose, then run and aggregate the nodes with `run_nodes`.

    `epsilon`/`alpha` are the global budget; each node gets a 2^k-th of
    both.
    """
    config = node_config(epsilon, alpha, oracle.n, k, shots_per_batch)
    if scheme == PREFIX:
        subs = decompose_prefix(oracle, k)
    elif scheme == STRIDE:
        subs = decompose_stride(oracle, k)
    else:
        raise ValueError(f"unknown partition scheme {scheme!r}")
    return run_nodes(subs, config, base_seed, backend)
