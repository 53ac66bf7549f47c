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

from dataclasses import dataclass, field, replace

from .diqc import DiqcConfig, NodeResult, half_width, run_node
from .oracle import (
    PREFIX,
    STRIDE,
    OracleSpec,
    SubOracle,
    _integer,
    check_split,
    decompose_prefix,
    decompose_stride,
)

__all__ = ["AggregateResult", "node_config", "run_nodes", "run_distributed", "aggregate"]


@dataclass
class AggregateResult:
    """Sum of the node estimates plus the a-priori error guarantee.

    `error_bound` = 2^(n-k-1) * 3*epsilon + 2^(k+1)/3 sums the 2^k node
    intervals, 2^m * `half_width` each, and their rounding. It holds with
    probability at least `confidence` = 1 - (4/3) alpha. Run totals such as
    oracle calls and shots are sums over `per_node`, in node order.
    """

    t_prime: int
    error_bound: float
    confidence: float
    status: str
    per_node: list[NodeResult] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "success"


def aggregate(node_results: list[NodeResult]) -> AggregateResult:
    """Fold node results into the total count and its guarantee.

    The node ids must be exactly 0..2^k-1 for some k >= 1, and all nodes
    must share the slice width and per-node budget; the global alpha is
    2^k * alpha_node.
    """
    nodes = len(node_results)
    if nodes & (nodes - 1) or nodes < 2:
        raise ValueError(f"node count {nodes} is not a power of two >= 2")
    ordered = sorted(node_results, key=lambda res: res.node_id)
    ids = [res.node_id for res in ordered]
    if ids != list(range(nodes)):
        raise ValueError(f"node ids {ids} are not 0..{nodes - 1}")
    m = ordered[0].m
    eps_node = ordered[0].epsilon_node
    alpha_node = ordered[0].alpha_node
    for res in ordered:
        if res.m != m or res.epsilon_node != eps_node or res.alpha_node != alpha_node:
            raise ValueError("node results come from mixed configurations")
    k = nodes.bit_length() - 1
    return AggregateResult(
        t_prime=sum(res.t_prime for res in ordered),
        error_bound=(1 << (m + k)) * half_width(eps_node) + (1 << (k + 1)) / 3,
        confidence=1 - 4 * (alpha_node * nodes) / 3,
        status="success" if all(res.succeeded for res in ordered) else "failed",
        per_node=ordered,
    )


def node_config(epsilon: float, alpha: float, n: int, k: int) -> DiqcConfig:
    """Check the split of n index bits and the global budget, then give
    each of the 2^k nodes a 2^k-th of the budget."""
    _, k = check_split(n, k)
    if not 0 < epsilon <= 0.01:
        raise ValueError("epsilon must lie in (0, 0.01]")
    if not 0 < alpha < 0.75:
        raise ValueError("alpha must lie in (0, 3/4)")
    nodes = 1 << k
    return DiqcConfig(epsilon_node=epsilon / nodes, alpha_node=alpha / nodes)


def run_nodes(
    subs: list[SubOracle],
    config: DiqcConfig,
    base_seed: int = 0,
    backend: str = "analytic",
) -> AggregateResult:
    """Run one node per sub-oracle, node j seeded with base_seed + j, and
    aggregate their results.

    Of the slices with no marked row, only the first of each width m is
    run. Its P[11] is exactly 0.0 on both backends: sin theta = 0 on the
    analytic one, and on the statevector one the flag-1 amplitudes of
    A|0> stay 0.0 through every reflection. numpy's binomial returns 0 at
    p = 0 without drawing, so that run depends only on (m, config,
    backend). Every later empty slice of width m gets a copy with its own
    node id, seed and rounds list.
    """
    base_seed = _integer(base_seed, "base_seed")
    results, empty = [], {}
    for sub in subs:
        seed = base_seed + sub.node_id
        if not sub.marked_local and sub.m in empty:
            first = empty[sub.m]
            res = replace(first, node_id=sub.node_id, seed=seed, rounds=list(first.rounds))
        else:
            res = run_node(sub, config, seed=seed, backend=backend)
            if not sub.marked_local:
                empty[sub.m] = res
        results.append(res)
    return aggregate(results)


def run_distributed(
    oracle: OracleSpec,
    k: int,
    epsilon: float,
    alpha: float,
    scheme: str = PREFIX,
    base_seed: int = 0,
    backend: str = "analytic",
) -> AggregateResult:
    """Decompose, then run and aggregate the nodes with `run_nodes`.

    `epsilon`/`alpha` are the global budget; each node gets a 2^k-th of
    both.
    """
    config = node_config(epsilon, alpha, oracle.n, k)
    if scheme == PREFIX:
        subs = decompose_prefix(oracle, k)
    elif scheme == STRIDE:
        subs = decompose_stride(oracle, k)
    else:
        raise ValueError(f"unknown partition scheme {scheme!r}")
    return run_nodes(subs, config, base_seed, backend)
