"""Inner-product and Hamming-distance estimation on top of the node runs.

Two parties holding bit vectors x and y of length 2^n estimate
(1/2^n) sum x_i y_i or (1/2^n) popcount(x xor y) by counting, striped
across 2^k nodes with the stride partition. The per-node sub-oracles are
the classical shadows of the two-party gate chains (an AND via a doubly
controlled NOT, an XOR via a single one); what travels between the parties
is tracked in a cost ledger rather than simulated as a channel.

Ledger accounting: every state preparation of the inner-product chain
costs one quantum round trip of 2n-2k+3 qubits; the Hamming chain is a
one-way send of n-k+1 qubits per preparation. Each amplification iterate
contains one preparation and one unpreparation, and every shot adds the
initial preparation, so a node's preparation count is its physical
oracle-call counter. Final results return over a classical channel,
modelled as 64 bits per node.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from . import metrics
from .coordinator import node_config, run_nodes
# run_node stays imported because perfbench's tracer wraps applications.run_node.
from .diqc import NodeResult, half_width, run_node, sum_in_order  # noqa: F401
from .oracle import BitVector, check_split, hamming_suboracle, inner_product_suboracle

__all__ = [
    "CommunicationLedger",
    "ApplicationResult",
    "estimate_inner_product",
    "estimate_hamming",
    "communication_bound",
    "padded_width",
    "INNER_PRODUCT",
    "HAMMING",
]

INNER_PRODUCT = "inner"
HAMMING = "hamming"

_CLASSICAL_BITS_PER_NODE = 64

# Qubits that cross between the parties per state preparation, by slice width m.
_QUBITS_PER_PREPARATION = {
    INNER_PRODUCT: lambda m: 2 * m + 3,
    HAMMING: lambda m: m + 1,
}


@dataclass(frozen=True)
class CommunicationLedger:
    qubits_per_preparation: int
    preparations: int
    classical_bits: int

    @property
    def total_qubits(self) -> int:
        return self.qubits_per_preparation * self.preparations


@dataclass
class ApplicationResult:
    """Scaled estimate in [0, 1] with its guarantee and transfer costs. The
    estimate averages the node amplitudes, so its bound is one `half_width`.
    `exact` is the sub-oracles' marked counts over 2^n, the true value, and
    `communication_bound` the function of that name at the per-node budget."""

    estimate: float
    error_bound: float
    confidence: float
    status: str
    n: int
    k: int
    ledger: CommunicationLedger
    exact: float
    communication_bound: float
    per_node: list[NodeResult] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "success"

    def to_dict(self, include_nodes: bool = False) -> dict:
        """Every field, the ledger with its total; `per_node` only if asked."""
        out = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_node"
        }
        out["ledger"] = {**asdict(self.ledger), "total_qubits": self.ledger.total_qubits}
        if include_nodes:
            out["per_node"] = [res.to_dict() for res in self.per_node]
        return out


def padded_width(size: int) -> int:
    """n such that 2^n entries, the next power of two, hold `size` entries."""
    if size < 2:
        raise ValueError("vectors need at least two entries")
    return (size - 1).bit_length()


def _pad_to_power_of_two(bits: BitVector) -> tuple[list[int], int]:
    """Append zeros up to the next power of two; zeros never mark anything.
    A list already 2^n long is returned as it is, not copied."""
    n = padded_width(len(bits))
    if isinstance(bits, list) and len(bits) == 1 << n:
        return bits, n
    return list(bits) + [0] * ((1 << n) - len(bits)), n


def _run_pair(
    problem: str,
    x: BitVector,
    y: BitVector,
    k: int,
    epsilon: float,
    alpha: float,
    base_seed: int,
    backend: str,
) -> ApplicationResult:
    if len(x) != len(y):
        raise ValueError(f"vector lengths differ: {len(x)} != {len(y)}")
    x_bits, n = _pad_to_power_of_two(x)
    y_bits, _ = _pad_to_power_of_two(y)
    m, k = check_split(n, k)
    config = node_config(epsilon, alpha, n, k)
    # Looked up at call time, so a tracer that wraps these module names sees the calls.
    build = inner_product_suboracle if problem == INNER_PRODUCT else hamming_suboracle
    nodes = 1 << k
    subs = [build(x_bits, y_bits, k, j) for j in range(nodes)]
    bound = communication_bound(problem, n, k, config.epsilon_node, config.alpha_node)
    agg = run_nodes(subs, config, base_seed, backend)
    ledger = CommunicationLedger(
        qubits_per_preparation=_QUBITS_PER_PREPARATION[problem](m),
        preparations=sum(res.oracle_calls_physical for res in agg.per_node),
        classical_bits=_CLASSICAL_BITS_PER_NODE * nodes,
    )
    return ApplicationResult(
        estimate=sum_in_order(res.c for res in agg.per_node) / (1 << n),
        error_bound=half_width(config.epsilon_node),
        confidence=agg.confidence,
        status=agg.status,
        n=n,
        k=k,
        ledger=ledger,
        exact=sum(sub.t_local for sub in subs) / (1 << n),
        communication_bound=bound,
        per_node=agg.per_node,
    )


def estimate_inner_product(
    x: BitVector,
    y: BitVector,
    k: int,
    epsilon: float,
    alpha: float,
    base_seed: int = 0,
    backend: str = "analytic",
) -> ApplicationResult:
    """Estimate (1/2^n) sum x_i y_i from the un-rounded node estimates."""
    return _run_pair(INNER_PRODUCT, x, y, k, epsilon, alpha, base_seed, backend)


def estimate_hamming(
    x: BitVector,
    y: BitVector,
    k: int,
    epsilon: float,
    alpha: float,
    base_seed: int = 0,
    backend: str = "analytic",
) -> ApplicationResult:
    """Estimate the Hamming distance divided by 2^n."""
    return _run_pair(HAMMING, x, y, k, epsilon, alpha, base_seed, backend)


def communication_bound(
    problem: str, n: int, k: int, epsilon_node: float, alpha_node: float
) -> float:
    """Worst-case total qubits moved between the parties.

    2^k * 2q * M, with q the qubits of one preparation, M the per-node
    query bound at the given budget, and one preparation plus one
    unpreparation per query: 2^k * (4n-4k+6) * M for the inner product
    (round trips) and 2^k * (2n-2k+2) * M for the Hamming distance
    (one-way sends).
    """
    m, k = check_split(n, k)
    if problem not in _QUBITS_PER_PREPARATION:
        raise ValueError(f"unknown problem {problem!r}")
    per = 2 * _QUBITS_PER_PREPARATION[problem](m)
    # a float 2^k: past float64 the product reads inf instead of raising OverflowError
    bound = 2.0 ** k * per * metrics.query_bound(epsilon_node, alpha_node)
    if math.isinf(bound):
        raise ValueError(f"the communication bound of 2^{k} nodes overflows float64")
    return bound
