import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dqcount import metrics
from dqcount.miqae import (
    ALPHA_FLOOR,
    EPSILON_FLOOR,
    QUADRANT_SLACK,
    MiqaeConfig,
    chernoff_interval,
    find_next_k,
    gamma_from_interval,
    run_for_amplitude,
    run_miqae,
)
from dqcount.qsim import AnalyticSampler

import exact_quadrant
import scalar_scan
from exact_sampler import ExactSampler


def scan_oracle(k_i: int, theta_low: float, theta_high: float) -> int:
    """Independent descending scan over odd K for the same-quadrant rule."""
    best = None
    big_k_i = 2 * k_i + 1
    for big_k in range(1, int(math.pi / (2 * (theta_high - theta_low))) + 1, 2):
        if big_k < 3 * big_k_i:
            continue
        lo = int(2 * big_k * theta_low / math.pi)
        hi = math.ceil(2 * big_k * theta_high / math.pi) - 1
        if lo == hi:
            best = big_k
    return (best - 1) // 2 if best is not None else k_i


def test_chernoff_interval_examples():
    lo, hi = chernoff_interval(0.5, 100, 0.05)
    eps = math.sqrt(math.log(40) / 200)
    assert eps == pytest.approx(0.135810, abs=5e-7)
    assert (lo, hi) == (pytest.approx(0.5 - eps), pytest.approx(0.5 + eps))

    lo, hi = chernoff_interval(1.0, 10 ** 8, 0.05)
    assert hi == 1.0 and lo < 1.0

    lo, hi = chernoff_interval(0.0, 50, 0.5)
    assert lo == 0.0
    assert hi == pytest.approx(math.sqrt(math.log(4) / 100), abs=1e-15)

    with pytest.raises(ValueError):
        chernoff_interval(0.5, 0, 0.05)


def test_gamma_from_interval_examples():
    assert gamma_from_interval(0.0, 1.0, 0) == (0.0, pytest.approx(math.pi / 2))
    lo, hi = gamma_from_interval(0.25, 0.5, 1)
    assert lo == pytest.approx(math.pi / 4, abs=1e-12)
    assert hi == pytest.approx(math.pi / 3, abs=1e-12)
    lo, hi = gamma_from_interval(0.1, 0.2, 2)
    assert lo == pytest.approx(math.asin(math.sqrt(0.1)), abs=1e-12)
    assert hi == pytest.approx(math.asin(math.sqrt(0.2)), abs=1e-12)
    assert (lo, hi) == (pytest.approx(0.32175, abs=5e-6), pytest.approx(0.46365, abs=5e-6))


@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    width=st.floats(min_value=0.0, max_value=1.0),
    quadrant=st.integers(min_value=0, max_value=9),
)
def test_gamma_interval_is_ordered_and_in_range(a, width, quadrant):
    lo = max(0.0, min(a, a - width / 2))
    hi = min(1.0, max(a, a + width / 2))
    g_lo, g_hi = gamma_from_interval(lo, hi, quadrant)
    assert 0 <= g_lo <= g_hi <= math.pi / 2


def test_find_next_k_examples():
    assert find_next_k(0, 0.1, 0.5) == 1  # K = 3
    # tight interval, no K >= 3*K_i below the cap
    assert find_next_k(40, 0.30, 0.31) == 40
    assert find_next_k(0, 0.01, 0.02) == scan_oracle(0, 0.01, 0.02) == 38
    # recorded from a run: the interval update put theta_high one ulp above
    # pi/2, which the shared scan's range check would reject unclamped
    assert find_next_k(13, 1.552670445308421, 1.5707963267948968) == 42
    with pytest.raises(ValueError):
        find_next_k(0, 0.2, 0.2)


@given(
    k_i=st.integers(min_value=0, max_value=30),
    lo=st.floats(min_value=0.0, max_value=1.5),
    width=st.floats(min_value=1e-4, max_value=0.5),
)
def test_find_next_k_matches_scan_oracle(k_i, lo, width):
    hi = min(lo + width, math.pi / 2)
    if hi <= lo:
        return
    assert find_next_k(k_i, lo, hi) == scan_oracle(k_i, lo, hi)


def test_find_next_k_matches_scalar_scan_on_recorded_deep_eps_calls(monkeypatch):
    """Every K search of seeded runs at the epsilon floor, replayed against
    the one-K-at-a-time scan, both as `next_odd_k` (the same K, r is 1.0
    or None) and as `find_next_k`."""
    import dqcount.miqae as miqae_mod

    scans, searches = [], []
    next_odd_k, search = miqae_mod.next_odd_k, miqae_mod.find_next_k

    def recorded_scan(*args):
        scans.append(args)
        return next_odd_k(*args)

    def recorded_search(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(miqae_mod, "next_odd_k", recorded_scan)
    monkeypatch.setattr(miqae_mod, "find_next_k", recorded_search)
    config = MiqaeConfig(epsilon=1e-7, alpha=0.05)
    # 107 searches: 11 go past the first chunk, 7 past the second, and 59
    # find no K
    for amplitude, seed in ((0.015625, 0), (0.3, 0), (0.5, 2), (0.9, 0)):
        run_for_amplitude(amplitude, config, seed=seed)
    assert len(scans) == len(searches) == 107
    for args in scans:
        assert next_odd_k(*args) == scalar_scan.next_odd_k(*args), args
    for args in searches:
        assert search(*args) == scalar_scan.miqae_find_next_k(*args), args


def test_quadrant_decisions_of_deep_eps_runs_match_exact_arithmetic(monkeypatch):
    """Every quadrant decision of seeded DIQC and MIQAE runs at the epsilon
    floor, where K reaches the millions and the float error of 2K theta/pi
    nears QUADRANT_SLACK, is the one exact arithmetic makes.

    The scalar `quadrant_count` and `same_quadrant` calls are recorded and
    each is decided exactly. The K scan decides in numpy chunks, so every
    K of every recorded search, from its first K down to the one it
    returns (or to q K_current), is screened in float as the chunks
    compute it: floor(2K theta_min/pi + slack) and
    ceil(2K theta_max/pi - slack). A rounding within `band` of an integer
    is decided exactly, as a count and as a pair; every other one lies
    farther from its edge than the float error can reach."""
    import dqcount.diqc as diqc_mod
    import dqcount.miqae as miqae_mod

    counts, pairs, searches = [], [], []
    quadrant_count, same_quadrant = miqae_mod.quadrant_count, miqae_mod.same_quadrant
    scan, diqc_scan = miqae_mod.next_odd_k, diqc_mod.find_next_k

    def recorded_count(*args):
        counts.append((args, quadrant_count(*args)))
        return counts[-1][1]

    def recorded_pair(*args):
        pairs.append((args, same_quadrant(*args)))
        return pairs[-1][1]

    def recorded_search(func):
        def wrapped(*args, **kwargs):
            searches.append((args, kwargs, func(*args, **kwargs)))
            return searches[-1][2]
        return wrapped

    for module in (miqae_mod, diqc_mod):
        monkeypatch.setattr(module, "quadrant_count", recorded_count)
    monkeypatch.setattr(miqae_mod, "same_quadrant", recorded_pair)
    monkeypatch.setattr(miqae_mod, "next_odd_k", recorded_search(scan))
    monkeypatch.setattr(diqc_mod, "find_next_k", recorded_search(diqc_scan))
    for amplitude in (0.015625, 0.3, 0.5, 0.9):
        for seed in (0, 1, 2):
            diqc_mod.run_amplitude(amplitude, diqc_mod.DiqcConfig(1e-7, 0.05), seed=seed)
            run_for_amplitude(amplitude, MiqaeConfig(1e-7, 0.05), seed=seed)
    assert (len(searches), len(counts), len(pairs)) == (410, 273, 12)

    band = 1e-7
    screened, top_k = 0, 0
    for (theta_min, theta_max, q, big_k_current, *_), kwargs, (found, r) in searches:
        big_k = metrics.k_max_cap((theta_max - theta_min) / 2)
        cap = kwargs.get("big_k_cap")
        if cap is not None:
            big_k = min(big_k, cap - 1 - cap % 2)
        last = found if r is not None else q * big_k_current
        ks = np.arange(big_k, last - 1, -2)
        two_ks = 2.0 * ks
        low = two_ks * theta_min / math.pi + QUADRANT_SLACK
        high = two_ks * theta_max / math.pi - QUADRANT_SLACK
        near_low = abs(low - np.rint(low)) <= band
        near = near_low | (abs(high - np.rint(high)) <= band)
        for i in np.flatnonzero(near).tolist():
            k, floor = int(ks[i]), math.floor(low[i])
            if near_low[i]:
                counts.append(((k, theta_min), floor))
            pairs.append(((k, theta_min, theta_max), floor == math.ceil(high[i]) - 1))
        screened += len(ks)
        top_k = max(top_k, big_k)
    # K reaches 7,424,135. 2,121,869 K are screened, and the roundings of
    # 17 of them lie within the band: 8 counts and 17 pairs join the
    # recorded ones.
    assert (screened, top_k) == (2121869, 7424135)
    assert (len(counts), len(pairs)) == (281, 29)
    # fl(2K theta)/fl(pi) is within 3u x of 2K theta/pi, with u = 2^-53
    # (two roundings, and fl(pi) is within u of pi relative), and adding the
    # slack rounds once more, within u (x + 1); x <= K. A rounding farther
    # than the band from every integer therefore falls as the exact one.
    assert 4 * 2.0 ** -53 * (top_k + 1) < band
    # pi rounds to math.pi from both ends of the reference's bracket
    assert float(exact_quadrant._PI_LOW) == float(exact_quadrant._PI_HIGH) == math.pi
    for args, got in counts:
        assert exact_quadrant.quadrant_count(*args) == got, args
    for args, got in pairs:
        assert exact_quadrant.same_quadrant(*args) == got, args


@given(
    k_i=st.integers(min_value=0, max_value=3000),
    lo=st.floats(min_value=0.0, max_value=1.57),
    width=st.floats(min_value=2e-5, max_value=0.8),
    ulps=st.integers(min_value=0, max_value=2),
)
def test_find_next_k_matches_scalar_scan_grid(k_i, lo, width, ulps):
    """Includes theta_high up to 2 ulps above pi/2, which `find_next_k`
    clamps."""
    hi = lo + width
    if hi >= math.pi / 2:
        hi = math.pi / 2
        for _ in range(ulps):
            hi = math.nextafter(hi, 4.0)
    if hi <= lo:
        return
    assert find_next_k(k_i, lo, hi) == scalar_scan.miqae_find_next_k(k_i, lo, hi)


def test_scan_chunk_steps_are_read_only():
    """The 2K steps every chunk of the scan slices are shared by all calls."""
    import dqcount.miqae as miqae_mod

    assert len(miqae_mod._SCAN_STEPS) == miqae_mod._SCAN_CHUNK
    with pytest.raises(ValueError):
        miqae_mod._SCAN_STEPS[0] = 1.0
    with pytest.raises(ValueError):
        miqae_mod._SCAN_STEPS[:miqae_mod._SCAN_CHUNK // 4] += 1.0


def test_run_with_exact_zero_amplitude():
    config = MiqaeConfig(epsilon=0.005, alpha=0.05, shots_per_batch=100)
    result = run_miqae(config, ExactSampler.from_amplitude(0.0))
    assert result.succeeded
    assert result.a_low == 0.0
    assert result.a_high < 0.02
    assert result.a_low <= 0.0 <= result.a_high


def test_interval_and_growth_properties():
    config = MiqaeConfig(epsilon=0.002, alpha=0.05, shots_per_batch=100)
    k_cap = math.pi / (4 * config.epsilon)
    for seed, amp in enumerate((0.0, 1 / 64, 1 / 8, 0.5, 1.0)):
        result = run_for_amplitude(amp, config, seed=seed)
        assert result.succeeded
        assert 0.0 <= result.a_low <= result.a_high <= 1.0
        assert result.a_high - result.a_low < 2 * config.epsilon
        theta_low = math.asin(math.sqrt(result.a_low))
        theta_high = math.asin(math.sqrt(result.a_high))
        assert theta_high - theta_low < 2 * config.epsilon
        ks = [rd.big_k for rd in result.rounds]
        for prev, cur in zip(ks, ks[1:]):
            assert cur == prev or cur >= 3 * prev
            assert cur % 2 == 1
        assert all(k < k_cap for k in ks)
        assert all(rd.shots <= rd.shots_cap for rd in result.rounds)
        assert result.max_big_k == max(ks)
        assert result.oracle_calls == sum((rd.big_k - 1) // 2 * rd.shots for rd in result.rounds)
        assert result.oracle_calls_physical == sum(rd.big_k * rd.shots for rd in result.rounds)
        assert result.total_shots == sum(rd.shots for rd in result.rounds)


def test_epsilon_above_pi_over_4_runs_no_rounds():
    # the starting interval [0, pi/2] is already narrower than 2 epsilon
    result = run_for_amplitude(0.3, MiqaeConfig(epsilon=1.0, alpha=0.05))
    assert result.rounds == []
    assert result.max_big_k == 1
    assert (result.oracle_calls, result.oracle_calls_physical, result.total_shots) == (0, 0, 0)


def test_amplitude_containment_rate():
    config = MiqaeConfig(epsilon=0.001, alpha=0.05, shots_per_batch=100)
    amp = 1 / 64
    hits = 0
    for seed in range(100):
        result = run_for_amplitude(amp, config, seed=seed)
        hits += result.a_low <= amp <= result.a_high
    assert hits >= 90


def test_query_bound_headroom():
    config = MiqaeConfig(epsilon=0.01, alpha=0.05, shots_per_batch=100)
    result = run_for_amplitude(0.5, config, seed=9)
    assert result.succeeded
    assert result.oracle_calls <= metrics.query_bound(0.01, 0.05)


def test_failure_status_when_search_stalls(monkeypatch):
    # The per-round budget is calibrated so the K search succeeds once it is
    # spent, so the failure branch cannot fire with honest statistics;
    # starve the budget to exercise it.
    import dqcount.miqae as miqae_mod

    monkeypatch.setattr(miqae_mod.metrics, "shots_cap", lambda alpha: 4)
    config = MiqaeConfig(epsilon=0.001, alpha=0.05, shots_per_batch=50)
    result = run_miqae(config, ExactSampler.from_amplitude(0.3))
    assert result.status == "failed"
    assert result.rounds[-1].shots >= result.rounds[-1].shots_cap
    assert 0.0 <= result.a_low <= result.a_high <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        MiqaeConfig(epsilon=0.0, alpha=0.05)
    with pytest.raises(ValueError):
        MiqaeConfig(epsilon=9.9e-8, alpha=0.05)
    MiqaeConfig(epsilon=1e-7, alpha=0.05)  # the floor is inclusive
    with pytest.raises(ValueError):
        MiqaeConfig(epsilon=0.01, alpha=1.5)
    with pytest.raises(ValueError):
        MiqaeConfig(epsilon=0.01, alpha=ALPHA_FLOOR / 2)
    MiqaeConfig(epsilon=0.01, alpha=ALPHA_FLOOR)  # the floor is inclusive
    with pytest.raises(ValueError):
        MiqaeConfig(epsilon=0.01, alpha=0.05, shots_per_batch=0)


def test_fractional_shots_per_batch_raise_value_error():
    with pytest.raises(ValueError, match=r"^shots_per_batch must be an integer, got 2.5$"):
        MiqaeConfig(epsilon=0.01, alpha=0.05, shots_per_batch=2.5)


def test_a_numpy_shots_per_batch_runs_as_its_int():
    """The run's totals are the Python ints of the int batch's run."""
    def run(batch):
        return run_miqae(MiqaeConfig(0.01, 0.05, shots_per_batch=batch),
                         AnalyticSampler.from_amplitude(0.3, 1))
    got, want = run(np.int64(50)), run(50)
    assert got == want
    assert all(type(getattr(got, name)) is int for name in (
        "oracle_calls", "oracle_calls_physical", "total_shots", "max_big_k"))


def test_run_for_amplitude_takes_an_integer_seed():
    """A numpy integer seed runs as its int. None, which would draw from OS
    entropy, and a float or string seed are a one-line ValueError."""
    config = MiqaeConfig(0.01, 0.05)
    assert run_for_amplitude(0.3, config, seed=np.int64(3)) == run_for_amplitude(
        0.3, config, seed=3)
    for seed in (None, 1.5, "3", np.float64(3.0)):
        with pytest.raises(ValueError) as exc:
            run_for_amplitude(0.3, config, seed=seed)
        assert str(exc.value) == f"seed must be an integer, got {seed!r}"


def test_alpha_floor_keeps_first_round_caps_finite():
    # the smallest first-round significance of each estimator, at both floors
    miqae_first = (2 * ALPHA_FLOOR / 3) / (math.pi / (4 * EPSILON_FLOOR))
    diqc_first = ALPHA_FLOOR / (2 * metrics.k_max_cap(EPSILON_FLOOR))
    assert miqae_first > diqc_first > 6e-308
    assert metrics.shots_cap(diqc_first) > 0
    # a tenth of it already overflows 2/alpha_i
    with pytest.raises(OverflowError):
        metrics.shots_cap(diqc_first / 10)
