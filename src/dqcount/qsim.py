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
statevector backend exists to prove the two agree. `apply_A` and
`apply_A_dagger` run the preparation A gate by gate (Hadamards, oracle,
rotation). The backend builds A|0> from the same gates, but the Hadamard
layer H^(x)m|0> is built once per width m and kept read-only in one
module slot, which a request for another width refills; each build copies
it, then applies the oracle and the rotation in place. The result equals
`apply_A` on |0> bit for bit, and the tests compare the two. Because A is
unitary, A U_0 A^dagger = I - 2|psi><psi| with psi = A|0>, so each iterate
is the reflection about |11> followed by the reflection about that
prepared state: O(2^(m+2)) per iterate instead of re-running A^dagger
and A gate by gate (Brassard, Hoyer, Mosca, Tapp, quant-ph/0005055).

`StatevectorSampler` keeps one running state: the rotation weight r it
was built for, A|0> for that r, the state after the last requested power,
and a scratch vector each iterate writes its multiple of A|0> into. A
request at the same r and a power at or above the kept one advances the
kept state in place by the difference; a new r rebuilds A|0>, and a lower
power restarts from A|0>. So a live sampler holds three 2^(m+2) complex
vectors, plus the one shared Hadamard-layer vector per width, and an
iterate allocates nothing. `prob11_statevector` builds and steps a fresh
kept state each call and is the reference the tests compare the sampler
against.

Register convention: m index qubits, then the oracle flag qubit, then the
rotation qubit; a basis index reads (x << 2) | (flag << 1) | rot. The
measurement statistics are invariant to the order of the last two qubits.
"""

from __future__ import annotations

import math
from typing import Protocol, Union

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
]

STATEVECTOR_QUBIT_LIMIT = 22

_HALF_PI = math.pi / 2


def _as_generator(rng: Union[int, np.random.Generator]) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def prob11(sin_theta: float, r: float, grover_power: int) -> float:
    """Closed-form P[11] of a slice with sin(theta) = `sin_theta`."""
    if grover_power < 0:
        raise ValueError("grover_power must be non-negative")
    if not 0 < r <= 1:  # _check_r inlined: this runs once per analytic shot
        raise ValueError("rotation parameter must lie in (0, 1]")
    theta_tilde = math.asin(math.sqrt(r) * sin_theta)
    return math.sin((2 * grover_power + 1) * theta_tilde) ** 2


class StateVector:
    """Dense complex amplitudes over an (m+2)-qubit register."""

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
            amp = np.zeros(1 << num_qubits, dtype=np.complex128)
            amp[0] = 1.0
        else:
            amp = np.asarray(amplitudes, dtype=np.complex128)
            if amp.shape != (1 << num_qubits,):
                raise ValueError("amplitude vector has the wrong length")
        self.amplitudes = amp

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        return cls(num_qubits)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def prob_last_two(self, pattern: int) -> float:
        """Probability of measuring (flag, rot) = the given 2-bit pattern."""
        if not 0 <= pattern < 4:
            raise ValueError("pattern must be a 2-bit value")
        block = self.amplitudes[pattern::4]
        return float(np.vdot(block, block).real)

    def prob11(self) -> float:
        return self.prob_last_two(0b11)


def _hadamard_index_register(amp: np.ndarray, m: int) -> None:
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for bit in range(m):
        v = amp.reshape(1 << (m - 1 - bit), 2, 1 << (bit + 2))
        lo = v[:, 0, :].copy()
        hi = v[:, 1, :]
        v[:, 0, :] = (lo + hi) * inv_sqrt2
        v[:, 1, :] = (lo - hi) * inv_sqrt2


def _oracle_flag(amp: np.ndarray, marked_rows: np.ndarray) -> None:
    # X on the flag qubit, controlled on the index being marked.
    if marked_rows.size == 0:
        return
    for rot in (0, 1):
        a = (marked_rows << 2) | rot
        b = a | 2
        amp[a], amp[b] = amp[b].copy(), amp[a].copy()


def _rotate_q0(amp: np.ndarray, r: float, dagger: bool = False) -> None:
    """(lo, hi) -> (c lo - s hi, s lo + c hi) on the rotation qubit, in
    place; one scratch array holds s lo and s hi."""
    c = math.sqrt(1.0 - r)
    s = math.sqrt(r)
    if dagger:
        s = -s
    v = amp.reshape(-1, 2)
    lo = v[:, 0]
    hi = v[:, 1]
    s_lo, s_hi = np.empty_like(amp).reshape(2, -1)
    np.multiply(s, lo, out=s_lo)
    np.multiply(s, hi, out=s_hi)
    np.multiply(c, lo, out=lo)
    np.subtract(lo, s_hi, out=lo)
    np.multiply(c, hi, out=hi)
    np.add(s_lo, hi, out=hi)


def _reflect_zero(amp: np.ndarray) -> None:
    amp[0] = -amp[0]


def _reflect_good(amp: np.ndarray) -> None:
    block = amp[3::4]
    np.negative(block, out=block)


def _marked_rows(sub: SubOracle) -> np.ndarray:
    return np.fromiter(sub.marked_local, dtype=np.int64, count=sub.t_local)


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
    _oracle_flag(amp, _marked_rows(sub))
    _rotate_q0(amp, r)
    return state


def apply_A_dagger(state: StateVector, sub: SubOracle, r: float) -> StateVector:
    _check_width(state, sub)
    _check_r(r)
    amp = state.amplitudes
    _rotate_q0(amp, r, dagger=True)
    _oracle_flag(amp, _marked_rows(sub))
    _hadamard_index_register(amp, sub.m)
    return state


def apply_Q(
    state: StateVector, prepared: StateVector, scratch: Union[np.ndarray, None] = None
) -> StateVector:
    """One amplification iterate -A U_0 A^dagger U_11, with `prepared` = A|0>.

    A U_0 A^dagger is applied as the reflection I - 2|prepared><prepared|.
    `scratch`, an array of the state's size, receives c psi; without one a
    scratch array is allocated.
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
    c_psi = np.multiply(2 * np.vdot(psi, amp), psi, out=scratch)
    np.subtract(c_psi, amp, out=amp)
    return state


def _check_power(grover_power: int) -> None:
    if grover_power < 0:
        raise ValueError("grover_power must be non-negative")


# H^(x)m|0> over m+2 qubits for the last width asked for. One slot, so a
# run over one width builds it once; it is read-only and depends on m
# alone, so every caller in the process can share it.
_uniform: Union[np.ndarray, None] = None


def _uniform_state(m: int) -> np.ndarray:
    """H^(x)m|0> on the index register, built gate by gate on the first
    request for width m and kept read-only until another width is asked for."""
    global _uniform
    amp = _uniform
    if amp is None or amp.size != 1 << (m + 2):
        amp = StateVector.zero(m + 2).amplitudes
        _hadamard_index_register(amp, m)
        amp.flags.writeable = False
        _uniform = amp
    return amp


def _prepare(sub: SubOracle, r: float) -> StateVector:
    """A|0>: a copy of the cached H^(x)m|0>, then the oracle and the
    rotation; the same bits as `apply_A(StateVector.zero(m + 2), sub, r)`."""
    _check_r(r)
    amp = _uniform_state(sub.m).copy()
    _oracle_flag(amp, _marked_rows(sub))
    _rotate_q0(amp, r)
    return StateVector(sub.m + 2, amp)


class _KeptState:
    """A|0> for one (sub-oracle, r), the state after `power` iterates, and
    the scratch vector each iterate writes c A|0> into."""

    __slots__ = ("r", "prepared", "state", "scratch", "power", "p11")

    def __init__(self, sub: SubOracle, r: float):
        self.r = r
        # Looked up per build, so a wrapper on `qsim._prepare` counts builds.
        self.prepared = _prepare(sub, r)
        self.state = self.prepared.copy()
        self.scratch = np.empty_like(self.state.amplitudes)
        self.power = 0
        self.p11 = self.state.prob11()

    def prob11(self, grover_power: int) -> float:
        """P[11] after `grover_power` iterates; steps forward from the kept
        state, or from A|0> when `grover_power` is below it."""
        if grover_power != self.power:
            _check_power(grover_power)
            if grover_power < self.power:
                np.copyto(self.state.amplitudes, self.prepared.amplitudes)
                self.power = 0
            # Looked up per iterate, so a tracer that wraps `qsim.apply_Q`
            # counts them.
            for _ in range(grover_power - self.power):
                apply_Q(self.state, self.prepared, self.scratch)
            self.power = grover_power
            self.p11 = self.state.prob11()
        return self.p11


def prob11_statevector(sub: SubOracle, r: float, grover_power: int) -> float:
    """P[11] of the circuit backend after `grover_power` iterates.

    A|0> is built once, from the cached Hadamard layer; each iterate
    reflects about it.
    """
    _check_power(grover_power)
    return _KeptState(sub, r).prob11(grover_power)


class Sampler(Protocol):
    """Measurement source: good-outcome counts for (power, r, shots).

    `AnalyticSampler` and `StatevectorSampler` draw `rng.binomial(shots,
    probability)` from the generator they were built with, so a seed
    fixes every count.
    """

    def probability(self, grover_power: int, r: float) -> float: ...

    def sample(self, grover_power: int, r: float, shots: int) -> int: ...


class AnalyticSampler:
    """Draws from the closed-form distribution of a fixed unrescaled angle."""

    def __init__(self, theta: float, rng: Union[int, np.random.Generator] = 0):
        if not 0 <= theta <= _HALF_PI:
            raise ValueError("theta must lie in [0, pi/2]")
        self.theta = theta
        self._sin_theta = math.sin(theta)
        self.rng = _as_generator(rng)

    @classmethod
    def from_amplitude(cls, amplitude: float, rng: Union[int, np.random.Generator] = 0):
        if not 0 <= amplitude <= 1:
            raise ValueError("amplitude must lie in [0, 1]")
        return cls(math.asin(math.sqrt(amplitude)), rng)

    @classmethod
    def from_sub_oracle(cls, sub: SubOracle, rng: Union[int, np.random.Generator] = 0):
        return cls.from_amplitude(sub.amplitude, rng)

    def probability(self, grover_power: int, r: float) -> float:
        return prob11(self._sin_theta, r, grover_power)

    def sample(self, grover_power: int, r: float, shots: int) -> int:
        return int(self.rng.binomial(shots, prob11(self._sin_theta, r, grover_power)))


class StatevectorSampler:
    """Draws from the exact-circuit distribution of a sub-oracle.

    Keeps the state of its last request (see the module docstring), so a
    run whose powers rise at one r pays each iterate once. A request that
    raises leaves the kept state as it was.
    """

    def __init__(self, sub: SubOracle, rng: Union[int, np.random.Generator] = 0):
        self.sub = sub
        self.rng = _as_generator(rng)
        self._kept: Union[_KeptState, None] = None

    def probability(self, grover_power: int, r: float) -> float:
        kept = self._kept
        if kept is None or r != kept.r:
            _check_power(grover_power)
            kept = self._kept = _KeptState(self.sub, r)
        return kept.prob11(grover_power)

    def sample(self, grover_power: int, r: float, shots: int) -> int:
        return int(self.rng.binomial(shots, self.probability(grover_power, r)))
