import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dqcount import checks, metrics, miqae
from dqcount.coordinator import run_nodes
from dqcount.diqc import (
    DiqcConfig,
    RoundRecord,
    a_width,
    find_next_k,
    post_process,
    run_amplitude,
    run_node,
)
from dqcount.oracle import decompose_prefix, make_oracle
from dqcount.qsim import AnalyticSampler, StatevectorSampler

import scalar_scan
from exact_sampler import ExactSampler
from vector_rounds import VectorRounds, vector_backends


def make_round(a_low_angle, a_high_angle, big_k=1):
    return RoundRecord(
        big_k=big_k, quadrant=0, r=1.0, q=3, shots=10,
        pooled_shots=10, a_hat=0.5, a_min=0.0, a_max=1.0,
        theta_min=a_low_angle, theta_max=a_high_angle, backtracked=False,
    )


def round_from_amplitudes(a_lo, a_hi, **kw):
    return make_round(math.asin(math.sqrt(a_lo)), math.asin(math.sqrt(a_hi)), **kw)


def test_find_next_k_plain_example():
    result = find_next_k(0.1, 0.11, q=2, big_k_current=1, rescue=True)
    assert result == (127, 1.0)
    assert result == scalar_scan.next_odd_k(0.1, 0.11, 2, 1, True)
    # quadrant check at the returned K
    assert math.floor(2 * 127 * 0.1 / math.pi) == 8
    assert math.ceil(2 * 127 * 0.11 / math.pi) - 1 == 8


def test_find_next_k_empty_scan():
    # interval so wide that the scan range is empty
    assert find_next_k(0.1, 0.7, q=3, big_k_current=3, rescue=True) == (3, None)


def test_find_next_k_rescue_branch():
    # Constructed so the scan starts at K = 25 where the plain test fails
    # (theta_max pokes just past the quadrant edge 4*pi/50) but the rescue
    # weight r = sin^2(edge)/sin^2(theta_max) is admissible.
    edge = 4 * math.pi / 50
    theta_max = edge + 1e-4
    theta_min = theta_max - 0.06
    assert math.floor(2 * 25 * theta_min / math.pi) == 3
    big_k, r = find_next_k(theta_min, theta_max, q=2, big_k_current=1, rescue=True)
    assert (big_k, r) == scalar_scan.next_odd_k(theta_min, theta_max, 2, 1, True)
    assert big_k == 25
    assert r is not None and 0.75 < r < 1.0
    expected_r = math.sin(edge) ** 2 / math.sin(theta_max) ** 2
    assert r == pytest.approx(expected_r, rel=1e-12)
    # with rescue off the rescue branch is skipped
    plain = find_next_k(theta_min, theta_max, q=2, big_k_current=1, rescue=False)
    assert plain == scalar_scan.next_odd_k(theta_min, theta_max, 2, 1, False)
    assert plain[1] in (None, 1.0)


def test_find_next_k_validation():
    with pytest.raises(ValueError):
        find_next_k(0.2, 0.2, 2, 1, True)
    with pytest.raises(ValueError):
        find_next_k(0.1, 0.2, 4, 1, True)


def test_find_next_k_respects_cap():
    big_k, _ = find_next_k(0.3, 0.3002, q=2, big_k_current=1, rescue=True,
                           big_k_cap=101)
    assert big_k <= 99
    # an even cap starts the scan at the largest odd K below it
    assert find_next_k(0.3, 0.3002, 2, 1, True, big_k_cap=100) == (99, 1.0)
    assert find_next_k(0.3, 0.3002, 2, 1, True, big_k_cap=2000) == (1997, 1.0)


def test_find_next_k_returns_odd_k_under_every_cap():
    edge = 4 * math.pi / 50  # the rescue case of test_find_next_k_rescue_branch
    intervals = ((0.3, 0.3002), (edge + 1e-4 - 0.06, edge + 1e-4), (0.1, 0.6), (1.5, math.pi / 2))
    for cap in range(1, 301):
        for lo, hi in intervals:
            for rescue in (True, False):
                big_k, r = find_next_k(lo, hi, 2, 1, rescue, big_k_cap=cap)
                assert big_k % 2 == 1, (cap, lo, hi, rescue)
                assert r is None or big_k < cap


def same_scan_result(got, want) -> bool:
    """(K, r) pairs equal, r bit for bit."""
    return got[0] == want[0] and (
        got[1] is want[1] is None
        or None not in (got[1], want[1]) and got[1].hex() == want[1].hex()
    )


def test_find_next_k_matches_scalar_scan_on_recorded_deep_eps_calls(monkeypatch):
    """Every K search of seeded runs at the epsilon floor, replayed against
    the one-K-at-a-time scan: the same K and the same bits of r."""
    import dqcount.diqc as diqc_mod

    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return find_next_k(*args, **kwargs)

    monkeypatch.setattr(diqc_mod, "find_next_k", recorded)
    config = DiqcConfig(epsilon_node=1e-7, alpha_node=0.05)
    # 41 searches: 10 go past the first chunk and 5 past the second; at
    # amplitude 0.5, seed 0, a rescue weight clears its bound by only
    # 5e-14 relative
    for amplitude, seed in ((0.015625, 0), (0.3, 0), (0.5, 0), (0.9, 0), (0.9, 1), (0.9, 2)):
        run_amplitude(amplitude, config, seed=seed)
    rescued = 0
    for args, kwargs in calls:
        got = find_next_k(*args, **kwargs)
        assert same_scan_result(got, scalar_scan.next_odd_k(*args, **kwargs)), (args, kwargs)
        rescued += got[1] is not None and got[1] < 1
    assert len(calls) == 41
    assert rescued == 9  # the rescue branch is among the replayed calls


@given(
    lo=st.floats(min_value=0.0, max_value=1.55),
    width=st.floats(min_value=2e-5, max_value=0.8),
    q=st.sampled_from((2, 3)),
    big_k_current=st.integers(min_value=1, max_value=3000),
    rescue=st.booleans(),
    big_k_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=10 ** 5)),
)
def test_find_next_k_matches_scalar_scan_grid(lo, width, q, big_k_current, rescue, big_k_cap):
    hi = min(lo + width, math.pi / 2)
    if hi <= lo:
        return
    got = find_next_k(lo, hi, q, big_k_current, rescue, big_k_cap=big_k_cap)
    want = scalar_scan.next_odd_k(lo, hi, q, big_k_current, rescue, big_k_cap=big_k_cap)
    assert same_scan_result(got, want)


@given(
    big_k=st.integers(min_value=1, max_value=5000).map(lambda j: 2 * j + 1),
    data=st.data(),
    q=st.sampled_from((2, 3)),
    rescue=st.booleans(),
)
def test_find_next_k_matches_scalar_scan_at_quadrant_edges(big_k, data, q, rescue):
    """theta_max just past a quadrant edge of some K, where the rescue
    branch is most often taken."""
    edge = data.draw(st.integers(min_value=1, max_value=big_k)) * math.pi / (2 * big_k)
    quarter = math.pi / (2 * big_k)
    hi = min(edge + data.draw(st.floats(min_value=0.0, max_value=0.05)) * quarter, math.pi / 2)
    lo = max(0.0, hi - data.draw(st.floats(min_value=0.05, max_value=1.0)) * quarter)
    got = find_next_k(lo, hi, q, 1, rescue)
    assert same_scan_result(got, scalar_scan.next_odd_k(lo, hi, q, 1, rescue))


def rescue_prefilter_admits(big_k, theta_min, theta_max):
    """Whether the scan's trig-free prefilter lets `_rescue_weight` test K,
    with the bound of a chunk holding K alone, the tightest it uses."""
    over = big_k * theta_max * 2 / math.pi - (miqae.quadrant_count(big_k, theta_min) + 1)
    return over < miqae._rescue_reach(math.tan(theta_max), big_k, big_k)


def rescued(big_k, theta_min, theta_max):
    return miqae._rescue_weight(big_k, theta_min, math.sin(theta_min),
                                math.sin(theta_max)) is not None


@given(
    big_k=st.integers(min_value=1, max_value=2 * 10 ** 6).map(lambda j: 2 * j + 1),
    data=st.data(),
)
def test_rescue_prefilter_admits_every_rescued_k(big_k, data):
    """theta_max past a quadrant edge of K by up to 1.5 times the reach the
    prefilter admits, where `_rescue_weight` accepts."""
    quarter = math.pi / (2 * big_k)
    edge = data.draw(st.integers(min_value=1, max_value=big_k)) * quarter
    reach = miqae._rescue_reach(math.tan(edge), big_k, big_k)
    past = data.draw(st.floats(min_value=-0.01, max_value=1.5)) * min(reach, 1.0)
    hi = min(edge + past * quarter, math.pi / 2)
    lo = max(0.0, hi - data.draw(st.floats(min_value=0.01, max_value=1.0)) * quarter)
    if lo < hi and rescued(big_k, lo, hi):
        assert rescue_prefilter_admits(big_k, lo, hi)


def test_rescue_prefilter_admits_every_rescued_k_seeded_sweep():
    """A seeded sweep of theta_max just past the quadrant edges of K nearest
    to 0.3, 1.0 and 1.5, just below and above the theta_max at which the
    bound reaches half a quadrant (tan theta_max = 4K/pi^2; the scan's
    plain test fails only for x_hi - (R+1) under half a quadrant, so from
    there on every K is admitted), and at and a few ulps below pi/2."""
    rng = random.Random(20)
    accepted = 0
    for big_k in (3, 5, 7, 9, 25, 101, 1001, 10001, 100001, 1000001, 3926991):
        quarter = math.pi / (2 * big_k)
        switch = math.atan(4 * big_k / math.pi ** 2)
        targets = (0.3, 1.0, 1.5, switch * (1 - 1e-3), switch * (1 + 1e-3), math.pi / 2)
        edges = {min(round(target / quarter), big_k) * quarter for target in targets}
        highs = {math.pi / 2, math.nextafter(math.pi / 2, 0.0)}
        for edge in edges:
            reach = miqae._rescue_reach(math.tan(edge), big_k, big_k)
            for _ in range(150):
                past = rng.uniform(-0.01, 1.5) * min(reach, 1.0)
                highs.add(min(edge + past * quarter, math.pi / 2))
        for hi in highs:
            for _ in range(10):
                lo = max(0.0, hi - rng.uniform(0.01, 1.0) * quarter)
                if lo < hi and rescued(big_k, lo, hi):
                    accepted += 1
                    assert rescue_prefilter_admits(big_k, lo, hi), (big_k, lo, hi)
    assert accepted > 30_000


def scan_seams():
    """Scan positions (0 for the first K tried) beside each seam of the scan:
    the ends of its first five chunks."""
    seams = range(miqae._SCAN_CHUNK, 6 * miqae._SCAN_CHUNK, miqae._SCAN_CHUNK)
    return [s + d for s in seams for d in (-1, 0, 1)]


# Intervals whose scan from their own start runs past every seam before it
# finds a K: a plain K after 52,360 failing K, and, for theta straddling
# pi/3, a rescue K after 26,881. A depth cap then moves the start so the
# same K sits at any earlier scan position.
SEAM_INTERVALS = ((1e-5, 1.5e-5), (1.04719442750736, 1.0471996914378046))


def test_find_next_k_matches_scalar_scan_at_scan_seams():
    """Scans whose answer sits on either side of a seam, or that find no K
    and end there, with the rescue branch on and off and even and odd
    caps."""
    cases = []
    for lo, hi in SEAM_INTERVALS:
        found, _ = scalar_scan.next_odd_k(lo, hi, 2, 1, True)
        for position in scan_seams():
            start = found + 2 * position
            for rescue in (True, False):
                for cap in (start + 1, start + 2):  # even, then odd
                    cases.append(((lo, hi, 2, 1, rescue), {"big_k_cap": cap}))
                # positions 0..position all fail, and the floor q K_current
                # ends the scan just above `found`
                cases.append(((lo, hi, 2, (found + 1) // 2, rescue),
                              {"big_k_cap": start + 3}))
    rescues = 0
    for args, kwargs in cases:
        want = scalar_scan.next_odd_k(*args, **kwargs)
        assert same_scan_result(find_next_k(*args, **kwargs), want), (args, kwargs)
        rescues += want[1] is not None and want[1] < 1
    assert rescues == 2 * len(scan_seams())


@pytest.mark.parametrize("ulps", [0, 1, 2])
def test_find_next_k_at_theta_max_half_pi(ulps):
    """theta_max = pi/2 is the top of the range; an ulp above it is
    rejected by both scans."""
    hi = math.pi / 2
    for _ in range(ulps):
        hi = math.nextafter(hi, 4.0)
    for lo in (0.0, 1.0, 1.5, 1.5707):
        for rescue in (True, False):
            args = (lo, hi, 2, 1, rescue)
            if ulps:
                with pytest.raises(ValueError):
                    find_next_k(*args)
                with pytest.raises(ValueError):
                    scalar_scan.next_odd_k(*args)
            else:
                assert same_scan_result(find_next_k(*args), scalar_scan.next_odd_k(*args))


def test_post_process_weighted_average():
    rounds = [
        round_from_amplitudes(0.0610, 0.0640),
        round_from_amplitudes(0.0615, 0.0630),
    ]
    # direct arithmetic with weights 1/width
    w1, w2 = 1 / 0.0030, 1 / 0.0015
    expected = (w1 * 0.0625 + w2 * 0.06225) / (w1 + w2)
    c, t_prime, (lo, hi) = post_process(rounds, epsilon_node=0.001, m=5)
    assert c == pytest.approx(32 * expected, abs=1e-9)
    assert c == pytest.approx(1.99467, abs=5e-4)
    assert t_prime == 2
    assert lo == pytest.approx(expected - 0.0015, abs=1e-12)
    assert hi == pytest.approx(expected + 0.0015, abs=1e-12)


def test_post_process_single_and_identical_intervals():
    single = [round_from_amplitudes(0.11, 0.112)]
    c, t_prime, _ = post_process(single, epsilon_node=0.001, m=5)
    assert c == pytest.approx(32 * 0.111, abs=1e-9)
    assert t_prime == round(32 * 0.111)

    same = [round_from_amplitudes(0.2, 0.202) for _ in range(3)]
    c, _, _ = post_process(same, epsilon_node=0.001, m=4)
    assert c == pytest.approx(16 * 0.201, abs=1e-9)


def test_post_process_without_qualifying_round_reports_the_last():
    # a failed run: no round is 3 epsilon wide, so the last round is
    # reported alone, +/- half its own width
    wide = [round_from_amplitudes(0.1, 0.5)]
    rounds = wide + [round_from_amplitudes(0.3, 0.34)]
    c, t_prime, (lo, hi) = post_process(rounds, epsilon_node=0.001, m=5)
    assert c == pytest.approx(32 * 0.32, abs=1e-9)
    assert t_prime == 10
    assert hi - lo == pytest.approx(a_width(rounds[-1].theta_min, rounds[-1].theta_max))
    assert (lo, hi) == (pytest.approx(0.3), pytest.approx(0.34))
    with pytest.raises(ValueError):
        post_process([], epsilon_node=0.001, m=5)
    # the wide round is simply skipped when a narrow one exists
    c, _, _ = post_process(wide + [round_from_amplitudes(0.3, 0.301)], 0.001, 5)
    assert c == pytest.approx(32 * 0.3005, abs=1e-9)


def test_post_process_shifts_a_numpy_width_as_its_int():
    """np.int64(70) is 70, so 1 << m does not wrap to 0."""
    rounds = [round_from_amplitudes(0.3, 0.301)]
    got = post_process(rounds, 0.01, np.int64(70))
    assert got == post_process(rounds, 0.01, 70)
    assert got[0] == pytest.approx(2 ** 70 * 0.3005) and type(got[1]) is int


@pytest.mark.parametrize("seed, a_low, a_high, c", [
    (94, 0.6083641638664946, 0.6714487710651383, 0.6399064674658165),
    (213, 0.6087621260686393, 0.6714487710651384, 0.6401054485668889),
    (268, 0.6087621260686393, 0.6714487710651384, 0.6401054485668889),
])
def test_failed_run_in_the_known_band_keeps_its_report(seed, a_low, a_high, c):
    # node 0 of `count --n 6 --marked 0,...,19 --k 1 --epsilon 0.01
    # --alpha 0.05` at these seeds: no round qualifies, so the report is the
    # last round's interval, pinned here to the bit
    result = run_amplitude(0.625, DiqcConfig(0.005, 0.025), seed=seed)
    assert result.status == "failed"
    assert (result.a_low, result.a_high, result.c) == (a_low, a_high, c)


def test_rounding_stays_within_two_thirds():
    for mid in (0.0, 0.2501, 0.4999, 0.5, 0.7343, 1.0):
        rounds = [round_from_amplitudes(max(0.0, mid - 0.001), min(1.0, mid + 0.001))]
        c, t_prime, _ = post_process(rounds, 0.001, 5)
        assert abs(t_prime - c) <= 2 / 3


def test_run_node_empty_sub_oracle():
    sub = decompose_prefix(make_oracle(4, set()), 1)[0]
    config = DiqcConfig(epsilon_node=0.005, alpha_node=0.05)
    result = run_node(sub, config, sampler=ExactSampler.from_amplitude(0.0))
    assert result.succeeded
    assert result.c == pytest.approx(0.0, abs=0.1)
    assert result.t_prime == 0
    assert result.a_low == 0.0


def test_run_node_single_marked_element():
    oracle = make_oracle(6, {38, 8, 16})
    sub = decompose_prefix(oracle, 1)[1]
    config = DiqcConfig(epsilon_node=0.001, alpha_node=0.05)
    result = run_node(sub, config, seed=42)
    assert result.succeeded
    assert result.t_prime == 1
    assert abs(result.c - 1.0) < 0.1
    assert result.a_low * 2 ** result.m <= 1.0 <= result.a_high * 2 ** result.m
    assert list(result.to_dict()) == [
        "node_id", "m", "epsilon_node", "alpha_node", "seed", "a_low", "a_high",
        "c", "t_prime", "status", "oracle_calls", "oracle_calls_physical",
        "total_shots", "max_big_k",
    ]


def test_a_numpy_seed_runs_as_its_int():
    """The result keeps the Python int seed, so it serializes; a float seed
    is a one-line ValueError."""
    sub = decompose_prefix(make_oracle(6, {38, 8, 16}), 1)[1]
    config = DiqcConfig(0.01, 0.05)
    node = run_node(sub, config, seed=np.int64(3))
    assert node == run_node(sub, config, seed=3) and type(node.seed) is int
    json.dumps(node.to_dict())
    bare = run_amplitude(0.3, config, seed=np.int64(3))
    assert bare == run_amplitude(0.3, config, seed=3) and type(bare.seed) is int
    for run in (lambda seed: run_node(sub, config, seed=seed),
                lambda seed: run_amplitude(0.3, config, seed=seed)):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1.5$"):
            run(1.5)


def test_run_node_statevector_backend_consistent():
    oracle = make_oracle(5, {3, 17})
    sub = decompose_prefix(oracle, 1)[0]
    config = DiqcConfig(epsilon_node=0.01, alpha_node=0.05)
    sv = run_node(sub, config, seed=3, backend="statevector")
    an = run_node(sub, config, seed=3, backend="analytic")
    assert sv.t_prime == an.t_prime == sub.t_local
    with pytest.raises(ValueError, match="^unknown backend 'tensor-network'$"):
        run_node(sub, config, backend="tensor-network")
    # a supplied sampler does not excuse an unknown backend name
    sampler = AnalyticSampler.from_sub_oracle(sub, 3)
    with pytest.raises(ValueError, match="^unknown backend 'tensor-network'$"):
        run_node(sub, config, sampler=sampler, backend="tensor-network")


def test_trace_invariants_and_query_bound():
    oracle = make_oracle(6, {38, 8, 16})
    subs = decompose_prefix(oracle, 1)
    config = DiqcConfig(epsilon_node=0.001, alpha_node=0.05)
    k_cap = metrics.k_max_cap(config.epsilon_node)
    bound = metrics.query_bound(config.epsilon_node, config.alpha_node)
    results = [run_node(sub, config, seed=seed) for seed in range(8) for sub in subs]
    for result in results:
        rounds = result.rounds
        assert result.a_high - result.a_low <= 3 * config.epsilon_node + 1e-12
        assert result.oracle_calls <= bound
        assert result.oracle_calls_physical == sum(rd.big_k * rd.shots for rd in rounds)
        assert result.oracle_calls == sum((rd.big_k - 1) // 2 * rd.shots for rd in rounds)
        assert result.total_shots == sum(rd.shots for rd in rounds)
        assert result.max_big_k == max(rd.big_k for rd in rounds)
        caps = [rd.shots for rd in rounds]  # a round spends its whole cap
        ks = [rd.big_k for rd in rounds]
        assert all(k % 2 == 1 and k < k_cap for k in ks)
        assert caps == [
            metrics.shots_cap((rd.q - 1) * 0.05 * rd.big_k / (rd.q * k_cap))
            for rd in rounds
        ]
        for prev_k, cur_k, prev_cap, cur_cap, rd in zip(
            ks, ks[1:], caps, caps[1:], rounds[1:]
        ):
            assert cur_k == prev_k or cur_k >= rd.q * prev_k
            if cur_k > prev_k:
                assert cur_cap <= prev_cap
        widths = [a_width(rd.theta_min, rd.theta_max) for rd in rounds]
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))


class RecordingSampler(AnalyticSampler):
    """An `AnalyticSampler` that logs each `sample_round` and `sample`
    call's arguments."""

    def __init__(self, amplitude, seed):
        super().__init__(math.asin(math.sqrt(amplitude)), seed)
        self.rounds = []
        self.calls = []

    def sample_round(self, grover_power, r, shots):
        self.rounds.append((grover_power, r, shots))
        return super().sample_round(grover_power, r, shots)

    def sample(self, grover_power, r, shots):
        self.calls.append((grover_power, r, shots))
        return super().sample(grover_power, r, shots)


def test_a_round_is_per_shot_draws_and_vector_rounds_run_as_the_program():
    """A round is one `sample_round(power, r, n_cap)` at its (power, r),
    made of n_cap `sample(power, r, 1)` calls. The acceptance fixtures draw
    each round in one numpy call instead (`tests/vector_rounds.py`), and
    those runs equal the program's own field for field: on the analytic
    backend, on the statevector backend and through `run_nodes`."""
    amplitude, seed = 0.3, 4
    config = DiqcConfig(epsilon_node=0.001, alpha_node=0.05)
    recorder = RecordingSampler(amplitude, seed)
    result = run_amplitude(amplitude, config, seed=seed, sampler=recorder)
    assert result == run_amplitude(amplitude, config, seed=seed)
    assert recorder.rounds == [((rd.big_k - 1) // 2, rd.r, rd.shots) for rd in result.rounds]
    assert recorder.calls == [
        (power, r, 1) for power, r, shots in recorder.rounds for _ in range(shots)
    ]
    config = DiqcConfig(epsilon_node=0.005, alpha_node=0.05)
    for amplitude in (0.0, 1 / 64, 0.3, 0.5, 1.0):
        for seed in range(2):
            vector = VectorRounds(AnalyticSampler.from_amplitude(amplitude, seed))
            assert (run_amplitude(amplitude, config, seed=seed, sampler=vector)
                    == run_amplitude(amplitude, config, seed=seed))
    subs = decompose_prefix(make_oracle(5, {3, 17, 18}), 1)
    for seed in range(2):
        for sub in subs:
            vector = VectorRounds(StatevectorSampler(sub, seed))
            assert (run_node(sub, config, vector, seed)
                    == run_node(sub, config, seed=seed, backend="statevector"))
    subs = decompose_prefix(make_oracle(6, {3, 8, 16, 38, 50}), 2)
    plain = run_nodes(subs, config, base_seed=7)
    with vector_backends():
        assert run_nodes(subs, config, base_seed=7) == plain


def test_stall_grants_one_retry_then_fails(monkeypatch):
    # force the search to come up empty so the stall/retry/fail path runs
    import dqcount.diqc as diqc_mod

    monkeypatch.setattr(
        diqc_mod, "find_next_k", lambda *args, **kw: (args[3], None)
    )
    config = DiqcConfig(epsilon_node=0.01, alpha_node=0.05)
    result = run_amplitude(0.3, config, sampler=ExactSampler.from_amplitude(0.3))
    assert result.status == "failed"
    assert len(result.rounds) == 2
    assert result.rounds[0].big_k == result.rounds[1].big_k == 1
    # retry pools on top of the first budget (its own cap may differ once
    # the narrowed interval switches the growth stage)
    first, second = result.rounds
    k_cap = metrics.k_max_cap(0.01)
    assert second.shots == metrics.shots_cap((second.q - 1) * 0.05 / (second.q * k_cap))
    assert second.pooled_shots == first.shots + second.shots
    # no round reached 3*epsilon, so the node reports the last round's width
    assert 0.0 < result.a_low <= result.a_high < 1.0
    assert result.a_high - result.a_low == pytest.approx(
        a_width(second.theta_min, second.theta_max), rel=1e-12
    )
    assert result.a_high - result.a_low > 3 * 0.01


def test_retry_budget_belongs_to_one_k(monkeypatch):
    # stall at K=1, move to K=3, then stall twice there: the retry granted
    # at K=1 does not count against K=3, whose second stall ends the run
    import dqcount.diqc as diqc_mod

    answers = iter([(1, None), (3, 1.0), (3, None), (3, None)])
    monkeypatch.setattr(diqc_mod, "find_next_k", lambda *args, **kw: next(answers))
    config = DiqcConfig(epsilon_node=0.001, alpha_node=0.05)
    result = run_amplitude(0.3, config, sampler=ExactSampler.from_amplitude(0.3))
    assert [rd.big_k for rd in result.rounds] == [1, 1, 3, 3]
    assert result.status == "failed"


class EverySuccess:
    """A sampler whose every shot is a good outcome."""

    def sample_round(self, grover_power, r, shots):
        return shots


def test_overshooting_round_is_clamped_and_adopted(monkeypatch):
    # Seeded runs never overshoot, so rig one: after the K = 1 round the
    # search answers r = 0.2, but every shot of the K = 3 round succeeds,
    # which puts sin^2 of the rescaled upper angle, sin^2(pi/6), above r.
    # The round clamps that ratio to 1 and keeps its interval.
    import dqcount.diqc as diqc_mod

    answers = iter([(3, 0.2), (9, 1.0)])
    searched = []

    def find_next_k(theta_min, theta_max, q, big_k, rescue, big_k_cap):
        searched.append((theta_min, theta_max, rescue))
        return next(answers)

    monkeypatch.setattr(diqc_mod, "find_next_k", find_next_k)
    result = run_amplitude(0.9, DiqcConfig(0.01, 0.05), sampler=EverySuccess())
    first, second = result.rounds[:2]
    assert not first.backtracked
    assert (second.big_k, second.quadrant, second.r, second.backtracked) == (3, 0, 0.2, True)
    gamma_low, gamma_high = miqae.gamma_from_interval(second.a_min, second.a_max, 0)
    assert math.sin(gamma_high / 3) ** 2 > 0.2  # the overshoot
    sin2_min = math.sin(gamma_low / 3) ** 2
    assert sin2_min < 0.2
    assert second.theta_min == math.asin(math.sqrt(sin2_min / 0.2)) != first.theta_min
    assert second.theta_max == math.pi / 2  # clamped
    # both searches ran with rescue on, the second from the clamped interval
    assert searched == [(first.theta_min, first.theta_max, True),
                        (second.theta_min, second.theta_max, True)]


def test_rescued_rounds_stay_under_the_bound_of_the_round_that_chose_r():
    """A rescued round at (K, r) inverts sin^2/r of its rescaled upper
    angle, which is at most sin^2(theta_max) of the round that chose r (the
    last round at a smaller K), so at most 1: the clamp to 1 before the
    arcsine moves an endpoint by rounding alone. Checked on every rescued
    round of a seeded sweep, within 4 ulps, from each round's own record."""
    amplitudes = [(i + 0.5) / 32 for i in range(32)]
    rescued = 0
    for epsilon, seeds in ((1e-2, 3), (1e-3, 1), (1e-4, 1), (1e-7, 1)):
        config = DiqcConfig(epsilon_node=epsilon, alpha_node=0.05)
        for amplitude in amplitudes:
            for seed in range(seeds):
                rounds = run_amplitude(amplitude, config, seed=seed).rounds
                chooser = rounds[0]
                for prev, rd in zip(rounds, rounds[1:]):
                    if rd.big_k != prev.big_k:
                        chooser = prev
                    if rd.r == 1.0:
                        continue
                    _, gamma_high = miqae.gamma_from_interval(rd.a_min, rd.a_max, rd.quadrant)
                    rescaled_max = (rd.quadrant * math.pi / 2 + gamma_high) / rd.big_k
                    ratio = math.sin(rescaled_max) ** 2 / rd.r
                    bound = math.sin(chooser.theta_max) ** 2
                    assert ratio <= bound + 4 * math.ulp(bound), (amplitude, seed, rd)
                    assert not rd.backtracked
                    rescued += 1
    assert rescued == 88


@pytest.mark.parametrize("amplitude, seed", [
    (0.04368854538304634, 142), (0.05010126827248811, 931), (0.09442854309054267, 103),
])
def test_stalled_run_reports_its_last_round_when_width_over_3_rounds_down(
    monkeypatch, amplitude, seed
):
    # last-round widths w with 3 * (w / 3) < w in float64: the run still
    # returns a failed result over that round's interval instead of raising.
    # The first three such pairs of a scan with the search forced empty:
    # rng = random.Random(0), then per try amplitude = rng.uniform(0, 0.2)
    # and seed = rng.randrange(1000); they are tries 8, 11 and 17.
    import dqcount.diqc as diqc_mod

    monkeypatch.setattr(diqc_mod, "find_next_k", lambda *args, **kw: (args[3], None))
    result = run_amplitude(amplitude, DiqcConfig(0.01, 0.05), seed=seed)
    last = result.rounds[-1]
    width = a_width(last.theta_min, last.theta_max)
    assert 3 * (width / 3) < width
    assert result.status == "failed"
    assert result.a_high - result.a_low == pytest.approx(width, rel=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "round 2 rescues to K = 5 with r = 0.97174; its Chernoff upper end a_max "
    "clamps to 1, so the interval narrows from below only, and the retry at the "
    "same (K, r) clamps again: the run fails at amplitude width 0.0631"))
def test_rescued_round_at_the_top_of_its_quadrant_converges():
    assert run_amplitude(0.63, DiqcConfig(0.01, 0.05), seed=630006).succeeded


def test_config_validation():
    with pytest.raises(ValueError):
        DiqcConfig(epsilon_node=0.02, alpha_node=0.05)
    with pytest.raises(ValueError):
        DiqcConfig(epsilon_node=9.9e-8, alpha_node=0.05)
    DiqcConfig(epsilon_node=1e-7, alpha_node=0.05)  # the floor is inclusive
    with pytest.raises(ValueError):
        DiqcConfig(epsilon_node=0.005, alpha_node=0.8)
    with pytest.raises(ValueError):
        DiqcConfig(epsilon_node=0.005, alpha_node=5e-324)
    DiqcConfig(epsilon_node=0.005, alpha_node=1e-300)  # the alpha floor is inclusive


def test_k_growth_in_budget_regime():
    report = checks.check_k_growth(trials=300, seed=1)
    assert report["passed"], report


@given(
    q=st.sampled_from((2, 3)),
    t=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_budget_sum_inequality(q, t, data):
    ks = [float(data.draw(st.integers(min_value=1, max_value=5)) * 2 + 1)]
    for _ in range(t - 1):
        ks.append(ks[-1] * q * data.draw(st.floats(min_value=1.0, max_value=2.0)))
    k_max = ks[-1] * data.draw(st.floats(min_value=1.001, max_value=3.0))
    big_c = 2 * q * k_max / ((q - 1) * 0.05)
    for f in (lambda x: x, lambda x: x * math.log(big_c / x)):
        for ihat in range(1, t + 1):
            lhs = sum(f(k) for k in ks[ihat - 1:])
            rhs = sum(f(k_max / q ** i) for i in range(t - ihat + 1))
            assert lhs <= rhs + 1e-9


def test_budget_sums_check():
    report = checks.check_budget_sums(trials=200, seed=2)
    assert report["passed"], report
