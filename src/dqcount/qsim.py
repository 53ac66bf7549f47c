"""Measurement backends for the amplified two-qubit good-state statistics.

State preparation loads a sub-oracle's indicator into a flag qubit over a
uniform superposition of the index register and rotates an auxiliary qubit
into sqrt(1-r)|0> + sqrt(r)|1>. One amplification iterate then composes the
reflection about the prepared state with the reflection about the |11>
pattern of the last two qubits. Measuring those two qubits after `power`
iterates yields outcome 11 with probability

    P[11] = sin^2((2*power + 1) * theta_tilde),
    sin(theta_tilde) = sqrt(r * t_local / 2^m).

`prob11` evaluates this closed form; both analytic samplers draw from it,
and it is the default backend for the estimation loops. The dense
statevector backend exists to prove the two agree; it reads a sub-oracle
only through its row mask, one bool per index row, True where the row is
marked. It writes A|0> directly instead of running A gate by gate
(Hadamards, an oracle that flips the flag of the masked rows, rotation):
every index row holds 2^(-m/2) sqrt(1-r) at rotation bit 0 and 2^(-m/2)
sqrt(r) at rotation bit 1, under flag 1 for a marked index and flag 0
otherwise, with 2^(-m/2) multiplied up from 1/sqrt(2) in the order the
Hadamards apply it. The gate-level circuit lives in the test helper
`tests/properties.py`; A|0> equals its `apply_A` on |0> bit for bit, and
the tests compare the two. Because A is unitary, A U_0 A^dagger =
I - 2|psi><psi| with psi = A|0>, so each iterate is the reflection about
|11> followed by the reflection about that prepared state: O(2^(m+2)) per
iterate instead of re-running A^dagger and A gate by gate (Brassard, Hoyer,
Mosca, Tapp, quant-ph/0005055).

Every gate of this circuit is a real matrix: the Hadamards, the oracle's X,
the Ry rotation on the rotation qubit, and both reflections. So from |0>
every amplitude stays real, and the backend steps plain float64 arrays:
that is exact, not an approximation, and an iterate moves half the bytes
of a complex128 one.

`Sampler`, the base class of both backends, holds their per-call rules.
It draws from a `Generator` as given, or from `np.random.default_rng`
of an integer seed that `oracle._integer` checks, so None, a float, a
string or a negative seed is a one-line ValueError. It binds the
generator's `binomial` once, and keeps the (power, r) of its last
accepted request with its P[11]: `probability` and `sample` call the
backend's `_advance(power, r)` only when either changed, and keep the
new pair only once `_advance` returns, so a rejected request changes
nothing. It keeps P[11] as a 0-d float64 array and hands
`binomial` that array: numpy's scalar path reads it as is, where a Python
float would be copied into a new array on every call, and it runs the same
C draw on the same double, so no count moves. `probability` returns a
Python float of it. So one shot is one `sample` call and one scalar draw
(a Python int for a scalar (shots, p)), and a round's shots pay for P[11]
once. DIQC draws each round with one `sample_round(power, r,
shots)`, which makes `shots` calls of `sample(power, r, 1)`; MIQAE calls
`sample`. A backend supplies its constructor and `_advance`; `BACKENDS`
maps each backend name to the builder of its seeded sampler. A stand-in
(the tests' `ExactSampler`, a wrapper that records calls) needs only the
method its estimator calls.

`StatevectorSampler` checks its width against `STATEVECTOR_QUBIT_LIMIT`
before it allocates anything, then keeps one running state: A|0> for the
kept r, the state after the kept power, a scratch array each iterate
writes its multiple of A|0> into, and the row mask; it keeps no
sub-oracle. `_prepare` reads m and A|0> from the mask, copying each index
row's four (flag, rot) amplitudes from a two-row table, the row its mask
entry picks. A request at the same r and a power at or above the kept one
advances the state in place by the difference; a new r rebuilds A|0>, and
a lower power restarts from A|0>. So a live sampler holds three 2^(m+2)
float64 arrays and a 2^m-entry bool mask and shares nothing, and an
iterate allocates nothing.
`prob11_statevector` reads a fresh sampler and is the reference the tests
compare a long-lived one against.

Register convention: m index qubits, then the oracle flag qubit, then the
rotation qubit; a basis index reads (x << 2) | (flag << 1) | rot. The
measurement statistics are invariant to the order of the last two qubits.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .oracle import SubOracle, _integer

__all__ = [
    "STATEVECTOR_QUBIT_LIMIT",
    "prob11",
    "prob11_statevector",
    "apply_Q",
    "Sampler",
    "AnalyticSampler",
    "StatevectorSampler",
    "BACKENDS",
]

STATEVECTOR_QUBIT_LIMIT = 22

_HALF_PI = math.pi / 2

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# OpenBLAS splits a dot product of more than 10,000 entries over its
# threads, so its rounding, and every bit downstream of it, would depend on
# the thread count. Blocks below that size, summed in order, do not. At 14
# qubits (two blocks) the sum equals what two OpenBLAS threads return.
_VDOT_BLOCK = 8192


def _vdot(a: np.ndarray, b: np.ndarray) -> Union[float, complex]:
    """np.vdot(a, b), summed over blocks of `_VDOT_BLOCK` entries."""
    total = np.vdot(a[:_VDOT_BLOCK], b[:_VDOT_BLOCK])
    for start in range(_VDOT_BLOCK, a.size, _VDOT_BLOCK):
        stop = start + _VDOT_BLOCK
        total += np.vdot(a[start:stop], b[start:stop])
    return total


def prob11(sin_theta: float, r: float, grover_power: int) -> float:
    """Closed-form P[11] of a slice with sin(theta) = `sin_theta`."""
    if grover_power < 0:
        raise ValueError("grover_power must be non-negative")
    _check_r(r)
    theta_tilde = math.asin(math.sqrt(r) * sin_theta)
    return math.sin((2 * grover_power + 1) * theta_tilde) ** 2


def _prob11(amp: np.ndarray) -> float:
    """Probability of measuring (flag, rot) = (1, 1)."""
    block = amp[3::4]
    return float(_vdot(block, block).real)


def _reflect_good(amp: np.ndarray) -> None:
    block = amp[3::4]
    np.negative(block, out=block)


def _check_r(r: float) -> None:
    if not 0 < r <= 1:
        raise ValueError("rotation parameter must lie in (0, 1]")


def apply_Q(
    amp: np.ndarray, psi: np.ndarray, scratch: Union[np.ndarray, None] = None
) -> np.ndarray:
    """One amplification iterate -A U_0 A^dagger U_11 on `amp`, in place,
    with `psi` = A|0>; returns `amp`.

    A U_0 A^dagger is applied as the reflection I - 2|psi><psi|.
    `scratch`, an array of the state's size and dtype, receives c psi;
    without one a scratch array is allocated.
    """
    if amp.shape != psi.shape:
        raise ValueError(f"state has shape {amp.shape}, prepared state has {psi.shape}")
    _reflect_good(amp)
    # -(amp - c psi) written as c psi - amp into amp: the same nonzero
    # amplitudes bit for bit (an exact zero may change sign), with no
    # separate negation pass.
    c_psi = np.multiply(2 * _vdot(psi, amp), psi, out=scratch)
    np.subtract(c_psi, amp, out=amp)
    return amp


def _marked_mask(sub: SubOracle) -> np.ndarray:
    """One bool per index row, True where the row is marked."""
    mask = np.zeros(1 << sub.m, dtype=bool)
    mask[np.fromiter(sub.marked_local, dtype=np.int64, count=sub.t_local)] = True
    return mask


def _prepare(marked_mask: np.ndarray, r: float) -> np.ndarray:
    """A|0> as a float64 array, written in closed form from a sub-oracle's
    `_marked_mask`; the same bits as the gate-level
    `apply_A(zero_state(m + 2), sub, r)` of `tests/properties.py`."""
    _check_r(r)
    m = marked_mask.size.bit_length() - 1
    h = 1.0
    for _ in range(m):  # 2^(-m/2), one factor per Hadamard, rounded as the gates round it
        h *= _INV_SQRT2
    w0, w1 = math.sqrt(1.0 - r) * h, math.sqrt(r) * h
    # Columns (flag, rot) = 00, 01, 10, 11; each index row copies the
    # unmarked or the marked one, picked by its mask entry.
    table = np.array(((w0, w1, 0.0, 0.0), (0.0, 0.0, w0, w1)))
    return np.take(table, marked_mask, axis=0).reshape(-1)


def prob11_statevector(sub: SubOracle, r: float, grover_power: int) -> float:
    """P[11] of the circuit backend after `grover_power` iterates, read
    from a fresh `StatevectorSampler`."""
    return StatevectorSampler(sub).probability(grover_power, r)


class Sampler:
    """Measurement source: good-outcome counts `rng.binomial(shots, P[11])`
    for (power, r, shots), with the per-call rules of the module docstring.
    A seed fixes every count. The kept P[11] is a 0-d float64 array, which
    the draw reads as is; a Python float would be copied into a new array
    on every shot. `probability` hands out a Python float of it."""

    def __init__(self, rng: Union[int, np.random.Generator]):
        if not isinstance(rng, np.random.Generator):
            seed = _integer(rng, "seed")
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed}")
            rng = np.random.default_rng(seed)
        self.rng = rng
        self._draw = self.rng.binomial  # scalar (n, p) in, Python int out
        self._r: Union[float, None] = None  # nothing kept yet
        self._power = 0
        self._p11 = np.array(0.0)

    def _advance(self, grover_power: int, r: float) -> float:
        """P[11] at (power, r), computed from the kept (power, r), which
        still hold the last accepted request; raise to reject the request."""
        raise NotImplementedError

    def probability(self, grover_power: int, r: float) -> float:
        if r != self._r or grover_power != self._power:
            self._p11 = np.array(self._advance(grover_power, r))
            self._r, self._power = r, grover_power  # kept only once accepted
        return float(self._p11)

    def sample(self, grover_power: int, r: float, shots: int) -> int:
        if r != self._r or grover_power != self._power:
            self.probability(grover_power, r)
        return self._draw(shots, self._p11)

    def sample_round(self, grover_power: int, r: float, shots: int) -> int:
        """A DIQC round's count: `shots` calls of `sample(power, r, 1)`, summed."""
        sample = self.sample  # one lookup per round, not one per shot
        count = 0
        for _ in range(shots):
            count += sample(grover_power, r, 1)
        return count


class AnalyticSampler(Sampler):
    """Draws from the closed-form distribution of a fixed unrescaled angle."""

    def __init__(self, theta: float, rng: Union[int, np.random.Generator] = 0):
        if not 0 <= theta <= _HALF_PI:
            raise ValueError("theta must lie in [0, pi/2]")
        super().__init__(rng)
        self._sin_theta = math.sin(theta)

    @classmethod
    def from_amplitude(cls, amplitude: float, rng: Union[int, np.random.Generator] = 0):
        if not 0 <= amplitude <= 1:
            raise ValueError("amplitude must lie in [0, 1]")
        return cls(math.asin(math.sqrt(amplitude)), rng)

    @classmethod
    def from_sub_oracle(cls, sub: SubOracle, rng: Union[int, np.random.Generator] = 0):
        return cls.from_amplitude(sub.amplitude, rng)

    def _advance(self, grover_power: int, r: float) -> float:
        return prob11(self._sin_theta, r, grover_power)


class StatevectorSampler(Sampler):
    """Draws from the exact-circuit distribution of a sub-oracle.

    Keeps the state of its last request (see the module docstring), so a
    run whose powers rise at one r pays each iterate once. The sub-oracle's
    marked rows become a bool row mask once, when the sampler is made; it
    keeps the mask, not the sub-oracle, and writes every A|0> from it.
    """

    def __init__(self, sub: SubOracle, rng: Union[int, np.random.Generator] = 0):
        if sub.m + 2 > STATEVECTOR_QUBIT_LIMIT:
            raise ValueError(
                f"{sub.m + 2} qubits exceeds the statevector limit "
                f"({STATEVECTOR_QUBIT_LIMIT})"
            )
        super().__init__(rng)
        self._marked_mask = _marked_mask(sub)
        self._state = np.zeros(4 << sub.m)
        self._scratch = np.empty_like(self._state)
        self._prepared: Union[np.ndarray, None] = None  # A|0> at the kept r

    def _advance(self, grover_power: int, r: float) -> float:
        """Step the state to `grover_power` iterates at `r`: forward from
        the kept power, or from A|0> after a new r or a lower power."""
        if grover_power < 0:
            raise ValueError("grover_power must be non-negative")
        new_r = r != self._r
        if new_r:
            # Looked up per build, so a wrapper on `qsim._prepare` counts builds.
            self._prepared = _prepare(self._marked_mask, r)
        power = self._power
        if new_r or grover_power < power:
            np.copyto(self._state, self._prepared)
            power = 0
        # Looked up per iterate, so a tracer that wraps `qsim.apply_Q` counts them.
        for _ in range(grover_power - power):
            apply_Q(self._state, self._prepared, self._scratch)
        return _prob11(self._state)


# Each backend by name, with the builder of its sampler for a sub-oracle and
# a seed; `diqc.run_node` and the CLI's --backend read the names from here.
BACKENDS = {
    "analytic": AnalyticSampler.from_sub_oracle,
    "statevector": StatevectorSampler,
}
