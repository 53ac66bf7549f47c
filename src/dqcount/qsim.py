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
marked. `apply_A` and `apply_A_dagger` run the preparation A gate by gate
(Hadamards, an oracle that flips the flag of the masked rows, rotation).
The backend writes A|0> directly: every index row holds 2^(-m/2)
sqrt(1-r) at rotation bit 0 and 2^(-m/2) sqrt(r) at rotation bit 1,
under flag 1 for a marked index and flag 0 otherwise, with 2^(-m/2)
multiplied up from 1/sqrt(2) in the order the Hadamards apply it. So A|0>
equals `apply_A` on |0> bit for bit, and the tests compare the two. Because
A is unitary, A U_0 A^dagger = I - 2|psi><psi| with psi = A|0>, so each
iterate is the reflection about |11> followed by the reflection about that
prepared state: O(2^(m+2)) per iterate instead of re-running A^dagger and
A gate by gate (Brassard, Hoyer, Mosca, Tapp, quant-ph/0005055).

Every gate of this circuit is a real matrix: the Hadamards, the oracle's X,
the Ry rotation on the rotation qubit, and both reflections. So from |0>
every amplitude stays real, and the backend stores float64 amplitudes: that
is exact, not an approximation, and an iterate moves half the bytes of a
complex128 one. A `StateVector` built from complex amplitudes stays
complex128, and the gates apply to it unchanged.

`Sampler`, the base class of both backends, holds their per-call rules.
It binds `np.random.default_rng(rng)` and its `binomial` once, and keeps
the (power, r) of its last accepted request with its P[11]: `probability`
and `sample` call the backend's `_advance(power, r)` only when either
changed, and keep the new pair only once `_advance` returns, so a rejected
request changes nothing. It keeps P[11] as a 0-d float64 array and hands
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

`StatevectorSampler` keeps one running state: A|0> for the kept r, the
state after the kept power, a scratch vector each iterate writes its
multiple of A|0> into, and the row mask, built once after the width
check; it keeps no sub-oracle. `_prepare` reads m and A|0> from the mask,
copying each index row's four (flag, rot) amplitudes from a two-row
table, the row its mask entry picks. A request at the same r and a power
at or above the kept one advances the state in place by the difference;
a new r rebuilds A|0>, and a lower power restarts from A|0>. So a live
sampler holds three 2^(m+2) float64 vectors and a 2^m-byte mask and
shares nothing, and an iterate allocates nothing.
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

from .oracle import SubOracle

__all__ = [
    "STATEVECTOR_QUBIT_LIMIT",
    "StateVector",
    "prob11",
    "prob11_statevector",
    "apply_A",
    "apply_A_dagger",
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


class StateVector:
    """Dense amplitudes over an (m+2)-qubit register: float64 from |0> or
    from real input, complex128 from complex input."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: Union[np.ndarray, None] = None):
        if num_qubits < 2:
            raise ValueError("need at least the two measured qubits")
        if num_qubits > STATEVECTOR_QUBIT_LIMIT:
            raise ValueError(
                f"{num_qubits} qubits exceeds the statevector limit "
                f"({STATEVECTOR_QUBIT_LIMIT})"
            )
        self.num_qubits = num_qubits
        if amplitudes is None:
            amp = np.zeros(1 << num_qubits)
            amp[0] = 1.0
        else:
            amp = np.asarray(amplitudes)
            amp = amp.astype(np.result_type(amp, np.float64), copy=False)
            if amp.shape != (1 << num_qubits,):
                raise ValueError("amplitude vector has the wrong length")
        self.amplitudes = amp

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        return cls(num_qubits)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm_squared(self) -> float:
        return float(_vdot(self.amplitudes, self.amplitudes).real)

    def prob11(self) -> float:
        """Probability of measuring (flag, rot) = (1, 1)."""
        block = self.amplitudes[3::4]
        return float(_vdot(block, block).real)


def _hadamard_index_register(amp: np.ndarray, m: int) -> None:
    for bit in range(m):
        v = amp.reshape(1 << (m - 1 - bit), 2, 1 << (bit + 2))
        lo = v[:, 0, :].copy()
        hi = v[:, 1, :]
        v[:, 0, :] = (lo + hi) * _INV_SQRT2
        v[:, 1, :] = (lo - hi) * _INV_SQRT2


def _oracle_flag(amp: np.ndarray, marked_mask: np.ndarray) -> None:
    # X on the flag qubit, controlled on the index being marked: each marked
    # row's (flag, rot) columns 00, 01 trade places with 10, 11.
    rows = amp.reshape(-1, 4)
    rows[marked_mask] = rows[marked_mask][:, [2, 3, 0, 1]]


def _rotate_q0(amp: np.ndarray, r: float, dagger: bool = False) -> None:
    """(lo, hi) -> (c lo - s hi, s lo + c hi) on the rotation qubit."""
    c = math.sqrt(1.0 - r)
    s = -math.sqrt(r) if dagger else math.sqrt(r)
    v = amp.reshape(-1, 2)
    lo = v[:, 0].copy()
    hi = v[:, 1].copy()
    v[:, 0] = c * lo - s * hi
    v[:, 1] = s * lo + c * hi


def _reflect_zero(amp: np.ndarray) -> None:
    amp[0] = -amp[0]


def _reflect_good(amp: np.ndarray) -> None:
    block = amp[3::4]
    np.negative(block, out=block)


def _check_width(state: StateVector, sub: SubOracle) -> None:
    if state.num_qubits != sub.m + 2:
        raise ValueError(
            f"state has {state.num_qubits} qubits, sub-oracle needs {sub.m + 2}"
        )


def _check_r(r: float) -> None:
    if not 0 < r <= 1:
        raise ValueError("rotation parameter must lie in (0, 1]")


def apply_A(state: StateVector, sub: SubOracle, r: float) -> StateVector:
    """Hadamards on the index register, oracle into the flag, rotation on q0."""
    _check_width(state, sub)
    _check_r(r)
    amp = state.amplitudes
    _hadamard_index_register(amp, sub.m)
    _oracle_flag(amp, _marked_mask(sub))
    _rotate_q0(amp, r)
    return state


def apply_A_dagger(state: StateVector, sub: SubOracle, r: float) -> StateVector:
    _check_width(state, sub)
    _check_r(r)
    amp = state.amplitudes
    _rotate_q0(amp, r, dagger=True)
    _oracle_flag(amp, _marked_mask(sub))
    _hadamard_index_register(amp, sub.m)
    return state


def apply_Q(
    state: StateVector, prepared: StateVector, scratch: Union[np.ndarray, None] = None
) -> StateVector:
    """One amplification iterate -A U_0 A^dagger U_11, with `prepared` = A|0>.

    A U_0 A^dagger is applied as the reflection I - 2|prepared><prepared|.
    `scratch`, an array of the state's size and dtype, receives c psi;
    without one a scratch array is allocated.
    """
    if state.num_qubits != prepared.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, prepared state has "
            f"{prepared.num_qubits}"
        )
    amp = state.amplitudes
    psi = prepared.amplitudes
    _reflect_good(amp)
    # -(amp - c psi) written as c psi - amp into amp: the same nonzero
    # amplitudes bit for bit (an exact zero may change sign), with no
    # separate negation pass.
    c_psi = np.multiply(2 * _vdot(psi, amp), psi, out=scratch)
    np.subtract(c_psi, amp, out=amp)
    return state


def _marked_mask(sub: SubOracle) -> np.ndarray:
    """One bool per index row, True where the row is marked."""
    mask = np.zeros(1 << sub.m, dtype=bool)
    mask[np.fromiter(sub.marked_local, dtype=np.int64, count=sub.t_local)] = True
    return mask


def _prepare(marked_mask: np.ndarray, r: float) -> StateVector:
    """A|0> written in closed form from a sub-oracle's `_marked_mask`; the
    same bits as `apply_A(StateVector.zero(m + 2), sub, r)`."""
    _check_r(r)
    m = marked_mask.size.bit_length() - 1
    h = 1.0
    for _ in range(m):  # 2^(-m/2), one factor per Hadamard, rounded as the gates round it
        h *= _INV_SQRT2
    w0, w1 = math.sqrt(1.0 - r) * h, math.sqrt(r) * h
    # Columns (flag, rot) = 00, 01, 10, 11; each index row copies the
    # unmarked or the marked one, picked by its mask entry.
    table = np.array(((w0, w1, 0.0, 0.0), (0.0, 0.0, w0, w1)))
    rows = np.take(table, marked_mask, axis=0)
    return StateVector(m + 2, rows.reshape(-1))


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
        self.rng = np.random.default_rng(rng)  # a Generator passes through
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
        super().__init__(rng)
        self._state = StateVector.zero(sub.m + 2)
        self._scratch = np.empty_like(self._state.amplitudes)
        self._marked_mask = _marked_mask(sub)  # after the width check StateVector.zero makes
        self._prepared: Union[StateVector, None] = None  # A|0> at the kept r

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
            np.copyto(self._state.amplitudes, self._prepared.amplitudes)
            power = 0
        # Looked up per iterate, so a tracer that wraps `qsim.apply_Q` counts them.
        for _ in range(grover_power - power):
            apply_Q(self._state, self._prepared, self._scratch)
        return self._state.prob11()


# Each backend by name, with the builder of its sampler for a sub-oracle and
# a seed; `diqc.run_node` and the CLI's --backend read the names from here.
BACKENDS = {
    "analytic": AnalyticSampler.from_sub_oracle,
    "statevector": StatevectorSampler,
}
