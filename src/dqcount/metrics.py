"""Closed-form resource arithmetic: shot caps, depth caps, gate and query bounds.

Gate counts use the standard decomposition cost of a dense multi-qubit gate
on n qubits: 4^n single-qubit gates plus 4^n - 2^(n+1) CNOTs. All integer
quantities are exact Python ints; the gate-cost comparison is decided with
rational arithmetic (pi replaced by a rational upper bound), never floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .oracle import check_split

__all__ = [
    "SHOT_CAP_CONSTANT",
    "k_max_cap",
    "shots_cap",
    "query_bound",
    "gates_controlled_grover",
    "gates_node_grover",
    "gates_counting_circuit",
    "centralized_cost_dominates",
    "ResourceReport",
    "counting_comparison",
]

# 1 / (sin^2(pi/21) * sin^2(8*pi/21)); scales every per-round shot cap.
SHOT_CAP_CONSTANT = 1.0 / (math.sin(math.pi / 21) ** 2 * math.sin(8 * math.pi / 21) ** 2)

# pi < 355/113; used to upper-bound depth-dependent costs exactly.
_PI_UPPER = Fraction(355, 113)

# counting_comparison runs the nodes at half-width 1/(3*2^n); their query
# bound, about 2^(n+11), is finite in float64 up to this n.
_COMPARISON_MAX_N = 1012


def k_max_cap(epsilon_node: float) -> int:
    """Largest admissible odd amplification factor, 2*floor(pi/(8e) - 1/2) + 1."""
    if epsilon_node <= 0:
        raise ValueError("epsilon must be positive")
    return 2 * max(0, math.floor(math.pi / (8 * epsilon_node) - 0.5)) + 1


def shots_cap(alpha_round: float) -> int:
    """Per-round measurement budget, ceil(2 * SHOT_CAP_CONSTANT * ln(2/alpha))."""
    if not 0 < alpha_round < 1:
        raise ValueError("round significance must lie in (0, 1)")
    return math.ceil(2 * SHOT_CAP_CONSTANT * math.log(2 / alpha_round))


def query_bound(epsilon_node: float, alpha_node: float) -> float:
    """Worst-case oracle queries of one node run at the given target width.

    Evaluates c*K_max*(3 ln 4 + 9/4 ln 3 + 7/2 ln(1/alpha)) with
    c = SHOT_CAP_CONSTANT and K_max the odd depth cap for epsilon_node.
    """
    if not 0 < alpha_node < 1:
        raise ValueError("alpha must lie in (0, 1)")
    bracket = 3 * math.log(4) + 2.25 * math.log(3) + 3.5 * math.log(1 / alpha_node)
    return SHOT_CAP_CONSTANT * k_max_cap(epsilon_node) * bracket


def gates_controlled_grover(n: int) -> int:
    """Gate count of one controlled Grover iterate on an n-bit search register."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2 * 4 ** (n + 1) - 2 ** (n + 2)


def gates_node_grover(n: int, k: int) -> int:
    """Gate count of one uncontrolled per-node iterate on an (n-k)-bit slice."""
    m = check_split(n, k)
    return 2 ** (2 * m + 5) - 2 ** (m + 3)


def gates_counting_circuit(n: int, m: int) -> int:
    """Gate count of the phase-estimation counting circuit with m readout qubits."""
    if n < 1 or m < 1:
        raise ValueError("register sizes must be positive")
    return (2 ** m - 1) * gates_controlled_grover(n) + n + (m * m + m) // 2


def centralized_cost_dominates(n: int, k: int) -> bool:
    """Exact check that the phase-estimation counter outgates the per-node bound.

    Compares (n^2+7n+4)/2 + 2^(n+2) (4^(n+1) - 2^(n+2) + 1) against
    (2^(2n-2k+5) - 2^(n-k+3)) (3*2^(n-3)*pi + 1/2), the latter evaluated
    with a rational upper bound on pi so `True` is a proof.
    """
    check_split(n, k)
    lhs = Fraction(n * n + 7 * n + 4, 2) + 2 ** (n + 2) * (4 ** (n + 1) - 2 ** (n + 2) + 1)
    rhs = gates_node_grover(n, k) * (Fraction(3 * 2 ** n, 8) * _PI_UPPER + Fraction(1, 2))
    return lhs > rhs


@dataclass(frozen=True)
class ResourceReport:
    """One algorithm's footprint in the counting-cost comparison."""

    context: str
    qubits: int
    gate_count: int
    max_grover_depth: Union[int, float]
    query_bound: Union[float, None] = None


def counting_comparison(n: int, k: int) -> tuple[ResourceReport, ResourceReport]:
    """Cost comparison for pinning an n-bit count to the nearest integer.

    Both algorithms are parameterised to resolve the count within 1/2 at
    constant success probability: the phase-estimation counter reads out
    n+1 qubits, the distributed nodes run at target half-width 1/(3*2^n).
    Node gate cost covers the depth cap plus one state preparation (the
    preparation costs the same as one iterate).
    """
    check_split(n, k)
    if n > _COMPARISON_MAX_N:
        raise ValueError(f"n must be at most {_COMPARISON_MAX_N} for the counting comparison, "
                         f"whose node query bound overflows float64 above it, got {n}")
    m = n + 1
    central = ResourceReport(
        context="counting via controlled iterates + phase readout",
        qubits=2 * n + 1,
        gate_count=gates_counting_circuit(n, m) + m,
        max_grover_depth=2 ** n,
    )
    eps_node = 1.0 / (3 * 2 ** n)
    depth_cap = (k_max_cap(eps_node) - 1) // 2
    per_q = gates_node_grover(n, k)
    node = ResourceReport(
        context="one distributed node, uncontrolled iterates",
        qubits=n - k + 2,
        gate_count=(depth_cap + 1) * per_q,
        max_grover_depth=depth_cap,
        query_bound=query_bound(eps_node, 0.05),
    )
    return central, node
