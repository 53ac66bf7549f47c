import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dqcount import qsim
from dqcount.applications import estimate_hamming
from dqcount.coordinator import run_distributed
from dqcount.diqc import DiqcConfig, run_amplitude, run_node
from dqcount.miqae import MiqaeConfig, run_for_amplitude, run_miqae
from dqcount.oracle import SubOracle, decompose_prefix, make_oracle
from dqcount.qsim import (
    AnalyticSampler,
    StatevectorSampler,
    apply_Q,
    prob11,
    prob11_statevector,
)

from exact_sampler import ExactSampler
from properties import _gate_level_Q, apply_A, apply_A_dagger, zero_state


def sub_for(m: int, t: int) -> SubOracle:
    return SubOracle(m=m, node_id=0, marked_local=frozenset(range(t)))


def test_prob11_analytic_examples():
    s = math.sqrt(2 / 32)
    assert prob11(s, 1.0, 0) == pytest.approx(2 / 32, abs=1e-15)
    for power in range(5):
        assert prob11(0.0, 1.0, power) == 0.0
    # independent closed form: sin(3*asin(s)) = 3s - 4s^3 with s = 1/4
    expected = (3 * s - 4 * s ** 3) ** 2
    assert expected == 0.47265625
    assert prob11(s, 1.0, 1) == pytest.approx(expected, abs=1e-14)


def test_model_validation():
    with pytest.raises(ValueError):
        prob11(0.5, 0.0, 0)
    with pytest.raises(ValueError):
        prob11(0.5, 1.0, -1)


def test_apply_A_masses():
    oracle = make_oracle(6, {38, 8, 16})
    sub0 = decompose_prefix(oracle, 1)[0]
    state = apply_A(zero_state(7), sub0, 1.0)
    assert qsim._prob11(state) == pytest.approx(2 / 32, abs=1e-12)
    assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-12)

    empty = sub_for(5, 0)
    assert qsim._prob11(apply_A(zero_state(7), empty, 1.0)) == pytest.approx(0.0, abs=1e-15)

    half = apply_A(zero_state(7), sub_for(5, 2), 0.5)
    assert qsim._prob11(half) == pytest.approx(0.5 * 2 / 32, abs=1e-12)


def test_apply_A_width_mismatch():
    with pytest.raises(ValueError):
        apply_A(zero_state(6), sub_for(5, 1), 1.0)
    with pytest.raises(ValueError):
        apply_A(zero_state(7), sub_for(5, 1), 0.0)


def test_prepared_state_matches_two_component_decomposition():
    """A|0> = sin(theta_tilde)|good> + cos(theta_tilde)|rest> exactly."""
    m, t, r = 4, 3, 0.7
    sub = sub_for(m, t)
    size = 1 << (m + 2)
    good = np.zeros(size, dtype=complex)
    rest = np.zeros(size, dtype=complex)
    for x in range(1 << m):
        if x < t:
            good[(x << 2) | 0b11] = 1 / math.sqrt(t)
            rest[(x << 2) | 0b10] = math.sqrt((1 - r) / (1 << m))
        else:
            rest[(x << 2) | 0b01] = math.sqrt(r / (1 << m))
            rest[(x << 2) | 0b00] = math.sqrt((1 - r) / (1 << m))
    rest *= math.sqrt((1 << m) / ((1 << m) - t * r))
    theta = math.asin(math.sqrt(r * t / (1 << m)))
    expected = math.sin(theta) * good + math.cos(theta) * rest

    state = apply_A(zero_state(m + 2), sub, r)
    assert np.allclose(state, expected, atol=1e-12)

    # two amplification iterates stay inside span{good, rest}
    prepared = state.copy()
    apply_Q(state, prepared)
    apply_Q(state, prepared)
    overlap = abs(np.vdot(good, state)) ** 2 + abs(np.vdot(rest, state)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_apply_Q_matches_analytic_on_small_grid():
    for m in (1, 2, 3):
        for t in range(0, (1 << m) + 1):
            sub = sub_for(m, t)
            analytic = AnalyticSampler.from_sub_oracle(sub)
            for r in (0.25, 0.8, 1.0):
                prepared = apply_A(zero_state(m + 2), sub, r)
                state = prepared.copy()
                for power in range(6):
                    if power:
                        apply_Q(state, prepared)
                    assert qsim._prob11(state) == pytest.approx(
                        analytic.probability(power, r), abs=1e-10
                    )
                assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-10)


def test_apply_Q_matches_gate_level_iterate_on_random_states():
    rng = np.random.default_rng(3)
    for m in range(1, 5):
        for t in (0, 1, (1 << m) - 1, 1 << m):
            sub = sub_for(m, t)
            for r in (0.25, 0.6, 1.0):
                prepared = apply_A(zero_state(m + 2), sub, r)
                size = 1 << (m + 2)
                raw = rng.normal(size=size) + 1j * rng.normal(size=size)
                raw /= np.linalg.norm(raw)
                reflected = apply_Q(raw.copy(), prepared)
                gates = raw.copy()
                _gate_level_Q(gates, sub, r)
                assert np.abs(reflected - gates).max() <= 1e-12


def test_apply_Q_width_mismatch():
    prepared = apply_A(zero_state(6), sub_for(4, 3), 1.0)
    with pytest.raises(ValueError, match=r"^state has shape \(128,\), prepared state has \(64,\)$"):
        apply_Q(zero_state(7), prepared)


def test_prob11_statevector_matches_closed_form_at_depth():
    m = 10
    for t, r in ((1, 1.0), (3, 0.6), (37, 0.25)):
        sin_theta = math.sqrt(t / (1 << m))
        for power in (0, 1, 7, 50, 199, 400):
            assert prob11_statevector(sub_for(m, t), r, power) == pytest.approx(
                prob11(sin_theta, r, power), abs=1e-10
            )


def test_all_marked_is_certain():
    sub = sub_for(3, 8)
    assert prob11_statevector(sub, 1.0, 0) == pytest.approx(1.0, abs=1e-12)


def test_prob11_linear_in_r():
    sub = sub_for(5, 3)
    probs = [prob11_statevector(sub, r, 0) for r in (0.2, 0.4, 0.8)]
    assert probs[0] == pytest.approx(0.2 * 3 / 32, abs=1e-12)
    assert probs[1] == pytest.approx(2 * probs[0], abs=1e-12)
    assert probs[2] == pytest.approx(4 * probs[0], abs=1e-12)


@given(
    m=st.integers(min_value=1, max_value=4),
    r=st.floats(min_value=0.05, max_value=1.0),
    ops=st.lists(st.sampled_from(["A", "Ad", "Q"]), min_size=1, max_size=60),
    t=st.integers(min_value=0, max_value=16),
)
def test_unitarity_under_random_gate_sequences(m, r, ops, t):
    sub = sub_for(m, min(t, 1 << m))
    prepared = apply_A(zero_state(m + 2), sub, r)
    state = prepared.copy()
    for op in ops:
        if op == "A":
            apply_A(state, sub, r)
        elif op == "Ad":
            apply_A_dagger(state, sub, r)
        else:
            apply_Q(state, prepared)
    assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-10)


def test_a_dagger_inverts_a():
    sub = sub_for(4, 5)
    rng = np.random.default_rng(2)
    raw = rng.normal(size=64) + 1j * rng.normal(size=64)
    raw /= np.linalg.norm(raw)
    state = raw.copy()
    apply_A_dagger(apply_A(state, sub, 0.6), sub, 0.6)
    assert np.allclose(state, raw, atol=1e-12)


def test_statevector_limits(monkeypatch):
    """The width check runs before the row mask or any state is made."""
    counts = count_work(monkeypatch)
    with pytest.raises(ValueError, match=r"^23 qubits exceeds the statevector limit \(22\)$"):
        StatevectorSampler(sub_for(21, 1))
    assert counts["_marked_mask"] == 0


def test_sample_shots():
    rng = np.random.default_rng(0)
    # a Generator is drawn from as given, not wrapped or copied
    assert AnalyticSampler(0.3, rng).rng is rng
    assert StatevectorSampler(sub_for(2, 1), rng).rng is rng
    assert AnalyticSampler(0.0, rng).sample(0, 1.0, 1000) == 0  # p = 0
    assert AnalyticSampler(math.pi / 2, rng).sample(0, 1.0, 100) == 100  # p = 1
    assert (AnalyticSampler.from_amplitude(0.5, 123).sample(0, 1.0, 10)
            == AnalyticSampler.from_amplitude(0.5, 123).sample(0, 1.0, 10))


@pytest.mark.parametrize("make", [
    lambda rng: AnalyticSampler.from_amplitude(0.3, rng),
    lambda rng: StatevectorSampler(sub_for(4, 3), rng),
], ids=["analytic", "statevector"])
def test_a_seed_must_be_an_integer(make):
    """None would draw from OS entropy and a float or a string would raise
    numpy's TypeError; each is a one-line ValueError, and a numpy integer
    draws what its int draws."""
    for bad in (None, 1.5, "3", np.float64(3.0)):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(bad))}$"):
            make(bad)
    assert make(np.int64(3)).sample(2, 1.0, 1000) == make(3).sample(2, 1.0, 1000)


@pytest.mark.parametrize("call, seed", [
    (lambda: AnalyticSampler(0.3, -1), -1),
    (lambda: StatevectorSampler(SubOracle(3, 0, {1}), -2), -2),
    (lambda: run_amplitude(0.3, DiqcConfig(0.01, 0.05), seed=-1), -1),
    (lambda: run_for_amplitude(0.3, MiqaeConfig(0.01, 0.05), seed=-1), -1),
    (lambda: run_distributed(make_oracle(6, {1}), 1, 0.002, 0.1, base_seed=-1), -1),
    (lambda: estimate_hamming([0, 1, 1, 0], [1, 1, 0, 0], 1, 0.01, 0.05, base_seed=-5), -5),
], ids=["analytic", "statevector", "run_amplitude", "run_for_amplitude",
        "run_distributed", "estimate_hamming"])
def test_a_negative_seed_is_named(call, seed):
    """A negative seed from the library reaches the one sampler check (node
    0's seed is the base seed) and is a ValueError that names it, not
    numpy's bare "expected non-negative integer"."""
    with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
        call()


def test_sample_shots_binomial_band():
    count = AnalyticSampler.from_amplitude(0.5, 7).sample(0, 1.0, 10 ** 6)
    assert 0.4985 <= count / 10 ** 6 <= 0.5015


def test_analytic_sampler_rejected_request_leaves_no_trace():
    """A `sample` or `probability` request prob11 rejects is rejected again
    when repeated, draws nothing, and leaves the kept (power, r) and the
    next draw equal to a fresh sampler's."""
    kept = AnalyticSampler.from_amplitude(0.3, 11)
    fresh = AnalyticSampler.from_amplitude(0.3, 11)
    assert kept.sample(2, 0.8, 40) == fresh.sample(2, 0.8, 40)
    for power, r in ((2, 0.0), (2, 0.0), (-1, 0.8), (-1, 0.8), (2, float("nan"))):
        with pytest.raises(ValueError):
            kept.sample(power, r, 10)
        with pytest.raises(ValueError):
            kept.probability(power, r)
    assert (kept._power, kept._r) == (2, 0.8)
    assert kept.sample(2, 0.8, 1000) == fresh.sample(2, 0.8, 1000)
    assert kept.sample(0, 0.5, 1000) == fresh.sample(0, 0.5, 1000)


def test_analytic_sampler_interleaved_keys_reproduce_fresh_counts():
    """Switching (power, r) back and forth draws what one prob11 per call
    on the same seeded generator draws."""
    sampler = AnalyticSampler.from_amplitude(0.2, 19)
    rng = np.random.default_rng(19)
    requests = [(0, 1.0), (0, 1.0), (3, 1.0), (3, 0.9), (0, 1.0), (3, 0.9),
                (3, 0.9), (7, 0.5), (3, 1.0), (7, 0.5), (0, 0.9), (0, 1.0)]
    for power, r in requests * 3:
        want = int(rng.binomial(25, prob11(sampler._sin_theta, r, power)))
        assert sampler.sample(power, r, 25) == want
        assert sampler.probability(power, r) == prob11(sampler._sin_theta, r, power)


# (label, sampler of a seed, power, r, bounds on its P[11]) for both
# backends: P[11] of 0, of 1, below 1/2 and above it.
STREAM_CASES = [
    ("analytic p=0", lambda seed: AnalyticSampler(0.0, seed), 3, 0.8, (0.0, 0.0)),
    ("analytic p=1", lambda seed: AnalyticSampler(math.pi / 2, seed), 0, 1.0, (1.0, 1.0)),
    ("analytic p<1/2", lambda seed: AnalyticSampler.from_amplitude(0.05, seed), 1, 0.9,
     (0.0, 0.5)),
    ("analytic p>1/2", lambda seed: AnalyticSampler.from_amplitude(0.05, seed), 3, 1.0,
     (0.5, 1.0)),
    ("statevector p=0", lambda seed: StatevectorSampler(sub_for(4, 0), seed), 3, 0.8,
     (0.0, 0.0)),
    ("statevector p=1", lambda seed: StatevectorSampler(sub_for(1, 1), seed), 1, 0.5,
     (1.0, 1.0)),
    ("statevector p<1/2", lambda seed: StatevectorSampler(sub_for(4, 1), seed), 1, 0.9,
     (0.0, 0.5)),
    ("statevector p>1/2", lambda seed: StatevectorSampler(sub_for(4, 1), seed), 2, 1.0,
     (0.5, 1.0)),
]


@pytest.mark.parametrize("label, make, power, r, band", STREAM_CASES,
                         ids=[case[0] for case in STREAM_CASES])
def test_one_vectorized_draw_reproduces_the_per_shot_stream(label, make, power, r, band):
    """A round's `sample_round(power, r, n)`, made of n one-shot draws, counts
    what one `binomial(1, p, size=n)` call on the same seed sums to, and
    `sample(power, r, 100)` what one scalar `binomial(100, p)` draws. So a
    round can become one vectorized call without moving a seeded byte."""
    seed = 23
    p = make(seed).probability(power, r)
    assert band[0] <= p <= band[1] and p != 0.5
    for n in (1, 7, 1000):
        want = int(np.random.default_rng(seed).binomial(1, p, size=n).sum())
        assert make(seed).sample_round(power, r, n) == want
    p = make(seed).probability(power, 1.0)
    assert make(seed).sample(power, 1.0, 100) == int(np.random.default_rng(seed).binomial(100, p))


def count_work(monkeypatch) -> dict:
    """Count the row-mask builds (`_marked_mask`), A|0> builds
    (`_prepare`) and iterates (`apply_Q`) qsim runs."""
    counts = {"_marked_mask": 0, "_prepare": 0, "apply_Q": 0}
    for name in counts:
        original = getattr(qsim, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(qsim, name, counted)
    return counts


def test_samplers_agree_and_cache(monkeypatch):
    sub = sub_for(4, 3)
    analytic = AnalyticSampler.from_sub_oracle(sub, 5)
    exact = ExactSampler.from_amplitude(3 / 16)
    sv = StatevectorSampler(sub, 5)
    for power in (0, 1, 3):
        for r in (0.5, 1.0):
            p = analytic.probability(power, r)
            assert p == pytest.approx(sv.probability(power, r), abs=1e-10)
            assert p == pytest.approx(exact.probability(power, r), abs=1e-12)
    # a repeated (power, r) does no new work
    counts = count_work(monkeypatch)
    assert sv.probability(3, 1.0) == pytest.approx(analytic.probability(3, 1.0), abs=1e-10)
    assert counts == {"_marked_mask": 0, "_prepare": 0, "apply_Q": 0}
    # and the closed form runs once for a probability and the shots after it
    closed_forms = []
    monkeypatch.setattr(qsim, "prob11", lambda *args: closed_forms.append(args) or prob11(*args))
    fresh = AnalyticSampler.from_sub_oracle(sub, 5)
    assert fresh.probability(2, 0.5) == prob11(fresh._sin_theta, 0.5, 2)
    fresh.sample(2, 0.5, 30)
    fresh.sample(2, 0.5, 30)
    assert len(closed_forms) == 1
    assert exact.sample(0, 1.0, 1600) == round(1600 * 3 / 16)
    # same seed, same stream
    a = AnalyticSampler.from_amplitude(0.3, 42)
    b = AnalyticSampler.from_amplitude(0.3, 42)
    assert [a.sample(1, 1.0, 9) for _ in range(5)] == [b.sample(1, 1.0, 9) for _ in range(5)]


def test_statevector_sampler_steps_match_fresh_builds(monkeypatch):
    requests = [(0, 0.5), (1, 0.5), (4, 0.5), (4, 0.5), (9, 0.5), (2, 1.0),
                (6, 1.0), (7, 0.5), (3, 0.5), (0, 0.5), (5, 0.5)]
    for m in range(1, 5):
        for t in (0, 1, (1 << m) - 1, 1 << m):
            sub = sub_for(m, t)
            sampler = StatevectorSampler(sub)
            for power, r in requests:
                assert sampler.probability(power, r) == prob11_statevector(sub, r, power)

            # rising powers at one r pay each iterate once
            sampler = StatevectorSampler(sub)
            counts = count_work(monkeypatch)
            for power in (1, 3, 7):
                sampler.probability(power, 0.8)
            assert counts == {"_marked_mask": 0, "_prepare": 1, "apply_Q": 7}

            # a failed request raises and leaves the kept state as it was
            for power, r in ((-1, 0.8), (-1, 0.3), (2, 0.0), (2, 1.5), (8, float("nan"))):
                with pytest.raises(ValueError):
                    sampler.probability(power, r)
            expected = [prob11_statevector(sub, 0.8, power) for power in (7, 8)]
            counts.update(_marked_mask=0, _prepare=0, apply_Q=0)
            assert [sampler.probability(power, 0.8) for power in (7, 8)] == expected
            assert counts == {"_marked_mask": 0, "_prepare": 0, "apply_Q": 1}
            monkeypatch.undo()


def test_rejected_statevector_sample_leaves_the_kept_state(monkeypatch):
    """A `sample` or `probability` request the sampler rejects raises
    ValueError each time, draws nothing, and leaves the kept state, so the
    next draws equal a fresh sampler's and a request at the kept
    (power, r) does no work."""
    sub = sub_for(3, 2)
    fresh = StatevectorSampler(sub, 11)
    want = [fresh.sample(power, 0.8, shots) for power, shots in ((2, 40), (2, 1000), (3, 1000))]
    kept = StatevectorSampler(sub, 11)
    assert kept.sample(2, 0.8, 40) == want[0]
    amplitudes = kept._state.tobytes()
    for power, r in ((-1, 0.8), (-1, 0.8), (-1, 0.3), (2, 0.0), (2, 1.5), (2, 1.5),
                     (2, float("nan")), (2, float("nan")), (-1, 0.0)):
        with pytest.raises(ValueError):
            kept.sample(power, r, 10)
        with pytest.raises(ValueError):
            kept.probability(power, r)
    assert (kept._power, kept._r) == (2, 0.8)
    assert kept._state.tobytes() == amplitudes
    counts = count_work(monkeypatch)
    assert kept.sample(2, 0.8, 1000) == want[1]
    assert counts == {"_marked_mask": 0, "_prepare": 0, "apply_Q": 0}
    assert kept.sample(3, 0.8, 1000) == want[2]
    assert counts == {"_marked_mask": 0, "_prepare": 0, "apply_Q": 1}


class CountTypes:
    """A sampler wrapper that records the type of every count it returns."""

    def __init__(self, inner):
        self.inner = inner
        self.types = set()

    def probability(self, grover_power, r):
        return self.inner.probability(grover_power, r)

    def sample(self, grover_power, r, shots):
        count = self.inner.sample(grover_power, r, shots)
        self.types.add(type(count))
        return count


def test_sample_returns_a_python_int():
    """Both samplers' DIQC rounds and MIQAE passes keep a float a_hat, every
    count MIQAE draws is a plain int, as are `sample` and `sample_round` at
    p = 0 and p = 1, and `probability` is a plain float. A numpy integer would make a_hat an np.float64, whose repr would change
    the bytes of runs.csv and trace.csv."""
    sub = sub_for(4, 3)
    for sampler in (AnalyticSampler.from_sub_oracle(sub, 3), StatevectorSampler(sub, 3)):
        node = run_node(sub, DiqcConfig(0.005, 0.05), sampler)
        assert {type(rd.a_hat) for rd in node.rounds} == {float}
        counter = CountTypes(sampler)
        baseline = run_miqae(MiqaeConfig(0.005, 0.05), counter)
        assert {type(rd.a_hat) for rd in baseline.rounds} == {float}
        assert counter.types == {int}
    for sampler in (AnalyticSampler(0.0, 1), AnalyticSampler(math.pi / 2, 1),
                    StatevectorSampler(sub_for(4, 0), 1)):
        assert type(sampler.sample(3, 1.0, 50)) is int
        assert type(sampler.sample_round(3, 1.0, 50)) is int
    # P[11] is kept as a 0-d array for the draw; what leaves is a plain float.
    for sampler in (AnalyticSampler.from_sub_oracle(sub, 3), StatevectorSampler(sub, 3)):
        assert type(sampler.probability(3, 1.0)) is float
        assert type(sampler.probability(3, 1.0)) is float  # the kept value, read again
    assert type(prob11_statevector(sub, 1.0, 3)) is float


def test_prepare_writes_the_gate_level_prepared_state():
    """Every closed-form A|0> equals the gate-level one bit for bit, up to
    the 12-index-qubit width of the benchmark's pair estimates, for runs
    from row 0 and for every third row marked."""
    for m in (3, 4, 3, 1, 2, 1, 5, 2, 4, 5, 8, 12):
        every_third = SubOracle(m=m, node_id=0, marked_local=frozenset(range(0, 1 << m, 3)))
        for sub in (*(sub_for(m, t) for t in (0, 1, 1 << m)), every_third):
            for r in (1.0, 0.8, 0.3):
                gates = apply_A(zero_state(m + 2), sub, r)
                prepared = qsim._prepare(qsim._marked_mask(sub), r)
                assert prepared.tobytes() == gates.tobytes()


def test_statevector_sampler_builds_its_marked_rows_once(monkeypatch):
    """However many r values a sampler reads, its sub-oracle's marked rows
    become a row mask once, when it is made, and the sampler keeps the
    mask, not the sub-oracle."""
    counts = count_work(monkeypatch)
    sampler = StatevectorSampler(sub_for(5, 9))
    assert counts == {"_marked_mask": 1, "_prepare": 0, "apply_Q": 0}
    assert not hasattr(sampler, "sub")
    for r in (0.3, 0.8, 1.0, 0.3, 0.55):
        for power in (0, 2, 1):  # 2 iterates, then a restart and 1
            sampler.probability(power, r)
    assert counts == {"_marked_mask": 1, "_prepare": 5, "apply_Q": 15}


def test_statevector_backend_runs_on_real_amplitudes():
    """The circuit is real, so |0>, A|0> and every buffer a sampler steps
    are plain float64 arrays."""
    sub = sub_for(4, 5)
    assert zero_state(6).dtype == np.float64
    assert qsim._prepare(qsim._marked_mask(sub), 0.7).dtype == np.float64
    sampler = StatevectorSampler(sub)
    sampler.probability(3, 0.7)
    for vec in (sampler._state, sampler._prepared, sampler._scratch):
        assert type(vec) is np.ndarray and vec.dtype == np.float64


def test_complex_state_stays_complex_under_the_real_gates():
    """A complex128 state stays complex128 through apply_A, apply_Q and
    apply_A_dagger, and because every gate is real, the result is the real
    and imaginary parts stepped apart."""
    m, sub, r = 3, sub_for(3, 2), 0.6
    rng = np.random.default_rng(5)
    raw = rng.normal(size=32) + 1j * rng.normal(size=32)
    raw /= np.linalg.norm(raw)
    prepared = apply_A(zero_state(m + 2), sub, r)
    state = raw.copy()
    parts = [raw.real.copy(), raw.imag.copy()]
    for s in (state, *parts):
        apply_A(s, sub, r)
        apply_Q(s, prepared)
        apply_A_dagger(s, sub, r)
    assert state.dtype == np.complex128
    assert [p.dtype for p in parts] == [np.float64, np.float64]
    stepped_apart = parts[0] + 1j * parts[1]
    assert np.abs(state - stepped_apart).max() <= 1e-12


def test_real_sampler_matches_a_complex_gate_level_reference():
    """A complex128 copy of A|0>, stepped by the gate-level iterate, reads
    the float64 sampler's P[11] at every power up to 10."""
    for m in range(1, 6):
        for t in sorted({0, 1, (1 << m) // 3, (1 << m) - 1, 1 << m}):
            sub = sub_for(m, t)
            sampler = StatevectorSampler(sub)
            for r in (0.3, 0.75, 1.0):
                prepared = apply_A(zero_state(m + 2), sub, r)
                reference = prepared.astype(np.complex128)
                for power in range(11):
                    if power:
                        _gate_level_Q(reference, sub, r)
                    assert abs(sampler.probability(power, r) - qsim._prob11(reference)) <= 1e-12
                assert reference.dtype == np.complex128


def test_statevector_sampler_survives_a_width_switch():
    sub = sub_for(3, 2)
    sampler = StatevectorSampler(sub)
    assert sampler.probability(2, 0.8) == prob11_statevector(sub, 0.8, 2)
    prob11_statevector(sub_for(4, 5), 0.6, 3)
    for power, r in ((5, 0.8), (1, 0.3), (4, 0.3)):
        assert sampler.probability(power, r) == prob11_statevector(sub, r, power)


def test_statevector_bits_do_not_depend_on_the_blas_thread_count():
    """A 14-qubit inner product has more entries than OpenBLAS computes on
    one thread; the value must match a run pinned to one thread."""
    value = prob11_statevector(sub_for(12, 37), 0.8, 25)
    code = ("from dqcount.oracle import SubOracle\n"
            "from dqcount.qsim import prob11_statevector\n"
            "sub = SubOracle(m=12, node_id=0, marked_local=frozenset(range(37)))\n"
            "print(repr(prob11_statevector(sub, 0.8, 25)))\n")
    src = Path(qsim.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == repr(value)


def test_analytic_and_exact_samplers_share_one_closed_form():
    for amplitude in (0.0, 3 / 16, 0.7, 1.0):
        analytic = AnalyticSampler.from_amplitude(amplitude)
        exact = ExactSampler.from_amplitude(amplitude)
        for power in (0, 1, 2, 7, 40):
            for r in (0.3, 0.75, 1.0):
                assert exact.probability(power, r) == analytic.probability(power, r)
