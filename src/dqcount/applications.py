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
from dataclasses import dataclass, field

from . import metrics
from .coordinator import node_config, run_nodes
# run_node stays imported because perfbench's tracer wraps applications.run_node.
from .diqc import NodeResult, run_node  # noqa: F401
from .oracle import BitVector, check_split, hamming_suboracle, inner_product_suboracle

__all__ = [
    "CommunicationLedger",
    "ApplicationResult",
    "estimate_inner_product",
    "estimate_hamming",
    "communication_bound",
    "INNER_PRODUCT",
    "HAMMING",
]

INNER_PRODUCT = "inner"
HAMMING = "hamming"

_CLASSICAL_BITS_PER_NODE = 64

# Qubits that cross between the parties per state preparation, by (n, k).
_QUBITS_PER_PREPARATION = {
    INNER_PRODUCT: lambda n, k: 2 * n - 2 * k + 3,
    HAMMING: lambda n, k: n - k + 1,
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
    """Scaled estimate in [0, 1] with its guarantee and transfer costs."""

    estimate: float
    error_bound: float
    confidence: float
    status: str
    n: int
    k: int
    ledger: CommunicationLedger
    per_node: list[NodeResult] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "success"

    def to_dict(self, include_nodes: bool = False) -> dict:
        out = {
            "estimate": self.estimate,
            "error_bound": self.error_bound,
            "confidence": self.confidence,
            "status": self.status,
            "n": self.n,
            "k": self.k,
            "ledger": {
                "qubits_per_preparation": self.ledger.qubits_per_preparation,
                "preparations": self.ledger.preparations,
                "total_qubits": self.ledger.total_qubits,
                "classical_bits": self.ledger.classical_bits,
            },
        }
        if include_nodes:
            out["per_node"] = [res.to_dict() for res in self.per_node]
        return out


def _pad_to_power_of_two(bits: BitVector) -> tuple[list[int], int]:
    """Append zeros up to the next power of two; zeros never mark anything."""
    size = len(bits)
    if size < 2:
        raise ValueError("vectors need at least two entries")
    n = max(1, (size - 1).bit_length())
    return list(bits) + [0] * ((1 << n) - size), n


def _run_pair(
    problem: str,
    x: BitVector,
    y: BitVector,
    k: int,
    epsilon: float,
    alpha: float,
    shots_per_batch: int,
    base_seed: int,
    backend: str,
) -> ApplicationResult:
    if len(x) != len(y):
        raise ValueError(f"vector lengths differ: {len(x)} != {len(y)}")
    x_bits, n = _pad_to_power_of_two(x)
    y_bits, _ = _pad_to_power_of_two(y)
    config = node_config(epsilon, alpha, n, k, shots_per_batch)
    # Looked up at call time, so a tracer that wraps these module names sees the calls.
    build = inner_product_suboracle if problem == INNER_PRODUCT else hamming_suboracle
    nodes = 1 << k
    agg = run_nodes([build(x_bits, y_bits, k, j) for j in range(nodes)],
                    config, base_seed, backend)
    ledger = CommunicationLedger(
        qubits_per_preparation=_QUBITS_PER_PREPARATION[problem](n, k),
        preparations=agg.oracle_calls_physical,
        classical_bits=_CLASSICAL_BITS_PER_NODE * nodes,
    )
    return ApplicationResult(
        estimate=sum(res.c for res in agg.per_node) / (1 << n),
        error_bound=3 * epsilon / (1 << (k + 1)),
        confidence=agg.confidence,
        status=agg.status,
        n=n,
        k=k,
        ledger=ledger,
        per_node=agg.per_node,
    )


def estimate_inner_product(
    x: BitVector,
    y: BitVector,
    k: int,
    epsilon: float,
    alpha: float,
    shots_per_batch: int = 1,
    base_seed: int = 0,
    backend: str = "analytic",
) -> ApplicationResult:
    """Estimate (1/2^n) sum x_i y_i from the un-rounded node estimates."""
    return _run_pair(INNER_PRODUCT, x, y, k, epsilon, alpha,
                     shots_per_batch, base_seed, backend)


def estimate_hamming(
    x: BitVector,
    y: BitVector,
    k: int,
    epsilon: float,
    alpha: float,
    shots_per_batch: int = 1,
    base_seed: int = 0,
    backend: str = "analytic",
) -> ApplicationResult:
    """Estimate the Hamming distance divided by 2^n."""
    return _run_pair(HAMMING, x, y, k, epsilon, alpha,
                     shots_per_batch, base_seed, backend)


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
    check_split(n, k)
    if problem not in _QUBITS_PER_PREPARATION:
        raise ValueError(f"unknown problem {problem!r}")
    per = 2 * _QUBITS_PER_PREPARATION[problem](n, k)
    # a float 2^k: past float64 the product reads inf instead of raising OverflowError
    bound = 2.0 ** k * per * metrics.query_bound(epsilon_node, alpha_node)
    if math.isinf(bound):
        raise ValueError(f"the communication bound of 2^{k} nodes overflows float64")
    return bound
