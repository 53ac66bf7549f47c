"""Baseline iterative amplitude estimation without phase readout.

Maintains a confidence interval [theta_l, theta_u] for the amplitude angle
and repeatedly measures the amplified circuit at an odd factor K chosen so
that the K-scaled interval sits inside a single quadrant, which makes the
measured success probability sin^2(K * theta) invertible. K grows by at
least 3x whenever it changes, shots within a round are pooled into one
Chernoff-Hoeffding interval, and the loop stops once the angle interval is
narrower than 2*epsilon.

The odd-K scan, `next_odd_k`, is shared with the node estimator in `diqc`,
which also uses its rotation-rescue branch; it lives here, beside the
quadrant tests it is built from, because `diqc` imports this module. It
tests odd K in numpy chunks of one size, prefilters the rescue branch
with a bound that needs no trig and re-checks each candidate with the
scalar code, so it returns the (K, r) of a scan over one K at a time,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import metrics
from .oracle import _integer
from .qsim import AnalyticSampler, Sampler

__all__ = [
    "MiqaeConfig",
    "MiqaeRound",
    "MiqaeResult",
    "chernoff_interval",
    "gamma_from_interval",
    "find_next_k",
    "run_miqae",
    "run_for_amplitude",
]

_HALF_PI = math.pi / 2

# Interval endpoints regularly land exactly on quadrant boundaries (clamped
# amplitudes map to gamma = 0 or pi/2, and rescue weights are built to hit
# the edge); the boundaries are inclusive, so give floor/ceil a hair of
# slack against rounding noise.
QUADRANT_SLACK = 1e-9

# Smallest epsilon either estimator accepts (inclusive). The target K grows
# like 1/epsilon, and the rounding error of K theta 2/pi, about K 2^-52,
# reaches QUADRANT_SLACK near K of 4e6 to 8e6, i.e. epsilon near 1e-7; below
# that the quadrant tests are no longer sound in float64. With the global
# budget's epsilon <= 0.01 it also caps the node count 2^k at 1e5.
EPSILON_FLOOR = 1e-7

# Smallest alpha either estimator accepts (inclusive). A round's shot cap
# takes ln(2/alpha_i), and 2/alpha_i overflows float64 once alpha_i drops
# below 2/DBL_MAX, about 1.1e-308. The first round's alpha_i is the
# smallest: alpha/(2 K_cap) in DIQC and (2 alpha/3)/k_max in MIQAE, where
# K_cap and k_max = pi/(4 epsilon) are at most 7.9e6 at EPSILON_FLOOR. So
# alpha_i is at least 6.4e-8 alpha, which at this floor is 6.4e-308.
ALPHA_FLOOR = 1e-300

# `next_odd_k` tests odd K in numpy chunks of _SCAN_CHUNK K, from the
# first K it tries. A chunk holds 2K for its K, its largest 2K plus a
# prefix of these steps. Read-only: the module keeps no mutable state.
_SCAN_CHUNK = 1024
_SCAN_STEPS = np.arange(0.0, -4.0 * _SCAN_CHUNK, -4.0)
_SCAN_STEPS.flags.writeable = False

# Slack of `_rescue_reach`: the relative error allowed between the float
# rescue weight and its float bound (each is within a few ulps of its exact
# value), and the error of the float 2K theta/pi per unit of K (a few ulps
# of a value at most K).
_RESCUE_REL_ERROR = 1e-14
_QUADRANT_ERROR_PER_K = 1e-15
_PI_SQ_8 = math.pi**2 / 8


def quadrant_count(big_k: int, theta: float) -> int:
    """Number of quadrants the amplified angle has passed, floor(2K theta/pi)."""
    return math.floor(big_k * theta * 2 / math.pi + QUADRANT_SLACK)


def same_quadrant(big_k: int, theta_low: float, theta_high: float) -> bool:
    """True iff the amplified interval [K theta_low, K theta_high] fits in
    one quadrant (boundaries inclusive)."""
    return quadrant_count(big_k, theta_low) == math.ceil(
        big_k * theta_high * 2 / math.pi - QUADRANT_SLACK
    ) - 1


def _rescue_weight(
    big_k: int, theta_min: float, sin_lo: float, sin_hi: float
) -> Union[float, None]:
    """The rotation weight r that rescues odd K, or None.

    r = sin^2((R+1)pi/(2K)) / sin^2(theta_max), with R the quadrant count
    of K theta_min, is admitted when it exceeds both sin^2(pi/2 (1-1/K))
    and 3/4 and the angles rescaled by sqrt(r) share a quadrant.
    """
    quadrant = quadrant_count(big_k, theta_min)
    r = math.sin((quadrant + 1) * math.pi / (2 * big_k)) ** 2 / (sin_hi * sin_hi)
    if r > max(math.sin(_HALF_PI * (1 - 1 / big_k)) ** 2, 0.75):
        root_r = math.sqrt(r)
        scaled_lo = math.asin(min(1.0, root_r * sin_lo))
        scaled_hi = math.asin(min(1.0, root_r * sin_hi))
        if same_quadrant(big_k, scaled_lo, scaled_hi):
            return r
    return None


def _rescue_reach(tan_hi: float, k_low: int, k_high: int) -> float:
    """Bound on x_hi - (R+1), the quadrants by which 2K theta_max/pi passes
    the edge above K theta_min, for every odd K in [k_low, k_high] whose
    rotation weight `_rescue_weight` can accept (see `next_odd_k`).

    It is tan(theta_max) pi^2/(8K) at K = k_low plus slack for rounding:
    a relative error _RESCUE_REL_ERROR between the float weight and its
    bound carries through the derivation as tan(theta_max)
    _RESCUE_REL_ERROR K, and x_hi is off by at most _QUADRANT_ERROR_PER_K K.
    """
    return (tan_hi * (_PI_SQ_8 / k_low + _RESCUE_REL_ERROR * k_high)
            + _QUADRANT_ERROR_PER_K * k_high)


def next_odd_k(
    theta_min: float,
    theta_max: float,
    q: int,
    big_k_current: int,
    rescue: bool,
    big_k_cap: Union[int, None] = None,
) -> tuple[int, Union[float, None]]:
    """Search for the next odd amplification factor and rotation weight.

    Scans odd K downward from the largest odd integer <= pi/(2*width)
    while K >= q*K_current. At each K the plain same-quadrant condition is
    tried first and returns (K, 1.0). If it fails and `rescue` is True,
    the weight of `_rescue_weight` is tried and returns (K, r). Returns
    (K_current, None) when no factor qualifies; the caller keeps its r.

    `big_k_cap` optionally starts the scan at the largest odd K strictly
    below it, so the returned K stays under the run's depth cap.

    K are tested in numpy chunks of `_SCAN_CHUNK` K, from the first K
    tried. The plain test computes x = (2K) theta/pi elementwise, which
    for K < 2^53 is the same IEEE value as the scalar K theta 2/pi
    (doubling is exact), so it is exact. The rescue test is prefiltered
    by a necessary condition with no trig: with R the quadrant count of
    K theta_min and x_hi = 2K theta_max/pi, `_rescue_weight` accepts K
    only if x_hi - (R+1) < tan(theta_max) pi^2/(8K), plus
    `_rescue_reach`'s slack.
    For d = theta_max - (R+1)pi/(2K) and theta_max < pi/2, r > cos^2(pi/2K)
    forces sin d < tan(theta_max) (1 - cos(pi/2K)) <= tan(theta_max)
    pi^2/(8K^2); as d <= (pi/2) sin d on [0, pi/2), x_hi - (R+1) = (2K/pi) d
    is below tan(theta_max) pi^2/(8K). Each K that passes is re-checked,
    in scan order, by the scalar `_rescue_weight`. So the result is bit
    for bit that of a scalar scan over one K at a time.

    This is the only odd-K scan: DIQC calls it as `diqc.find_next_k` with
    `rescue=True`, and MIQAE's `find_next_k` passes `rescue=False`.
    """
    if not 0 <= theta_min < theta_max <= _HALF_PI:
        raise ValueError(f"invalid angle interval [{theta_min}, {theta_max}]")
    if q not in (2, 3):
        raise ValueError("growth factor q must be 2 or 3")
    big_k = metrics.k_max_cap((theta_max - theta_min) / 2)
    if big_k_cap is not None:
        big_k = min(big_k, big_k_cap - 1 - big_k_cap % 2)
    k_floor = q * big_k_current
    sin_lo = math.sin(theta_min)
    sin_hi = math.sin(theta_max)
    tan_hi = math.tan(theta_max)
    while big_k >= k_floor:
        count = min(_SCAN_CHUNK, (big_k - k_floor) // 2 + 1)
        two_ks = 2 * big_k + _SCAN_STEPS[:count]
        edges = two_ks * theta_min  # R + 1, the quadrant edge above theta_min
        edges /= math.pi
        edges += QUADRANT_SLACK
        np.floor(edges, out=edges)
        edges += 1
        x_hi = two_ks * theta_max
        x_hi /= math.pi
        top = x_hi - QUADRANT_SLACK
        np.ceil(top, out=top)
        plain = top == edges
        first = int(plain.argmax())
        if not plain[first]:
            first = count
        if first and rescue:
            reach = _rescue_reach(tan_hi, big_k - 2 * (first - 1), big_k)
            over = x_hi[:first]
            over -= edges[:first]
            for i in np.flatnonzero(over < reach).tolist():
                r = _rescue_weight(big_k - 2 * i, theta_min, sin_lo, sin_hi)
                if r is not None:
                    return big_k - 2 * i, r
        if first < count:
            return big_k - 2 * first, 1.0
        big_k -= 2 * count
    return big_k_current, None


@dataclass(frozen=True)
class MiqaeConfig:
    """Baseline estimation parameters.

    `shots_per_batch` is the number of shots MIQAE draws between interval
    updates, so it sets the granularity of MIQAE's early stop and changes
    what the algorithm reads. `compare-miqae --shots-per-batch` sets it
    and takes its default from here.
    """

    epsilon: float
    alpha: float
    shots_per_batch: int = 100

    def __post_init__(self) -> None:
        if not self.epsilon >= EPSILON_FLOOR:
            raise ValueError(f"epsilon must be at least {EPSILON_FLOOR:g}")
        if not ALPHA_FLOOR <= self.alpha < 1:
            raise ValueError(f"alpha must lie in [{ALPHA_FLOOR:g}, 1)")
        object.__setattr__(self, "shots_per_batch",
                           _integer(self.shots_per_batch, "shots_per_batch"))
        if self.shots_per_batch < 1:
            raise ValueError("shots_per_batch must be positive")


@dataclass(frozen=True)
class MiqaeRound:
    """Trace record of one round (one K value)."""

    big_k: int
    quadrant: int
    shots: int
    shots_cap: int
    a_hat: float
    a_min: float
    a_max: float
    theta_low: float
    theta_high: float


@dataclass
class MiqaeResult:
    a_low: float
    a_high: float
    status: str
    oracle_calls: int
    oracle_calls_physical: int
    total_shots: int
    max_big_k: int
    rounds: list[MiqaeRound] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "success"


def run_totals(rounds: list) -> dict:
    """A run's resource counters, read off its round trace.

    Each round of `MiqaeRound` or `diqc.RoundRecord` spent `shots`
    measurements at factor K, i.e. (K-1)/2 oracle queries and K state
    preparations per shot. A run with no rounds reports K = 1.
    """
    return {
        "oracle_calls": sum((rd.big_k - 1) // 2 * rd.shots for rd in rounds),
        "oracle_calls_physical": sum(rd.big_k * rd.shots for rd in rounds),
        "total_shots": sum(rd.shots for rd in rounds),
        "max_big_k": max((rd.big_k for rd in rounds), default=1),
    }


def chernoff_interval(a_hat: float, n_samples: int, alpha_i: float) -> tuple[float, float]:
    """Two-sided Chernoff-Hoeffding interval, half-width sqrt(ln(2/a)/(2N))."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if not 0 <= a_hat <= 1:
        raise ValueError("a_hat must lie in [0, 1]")
    if not 0 < alpha_i < 1:
        raise ValueError("alpha_i must lie in (0, 1)")
    eps_a = math.sqrt(math.log(2 / alpha_i) / (2 * n_samples))
    return max(0.0, a_hat - eps_a), min(1.0, a_hat + eps_a)


def gamma_from_interval(a_min: float, a_max: float, quadrant_count: int) -> tuple[float, float]:
    """Invert sin^2 on one quadrant: bounds for the within-quadrant angle.

    Even quadrant counts map [a_min, a_max] to [asin sqrt(a_min),
    asin sqrt(a_max)]; odd ones mirror the interval to [pi/2 - asin
    sqrt(a_max), pi/2 - asin sqrt(a_min)].
    """
    if not 0 <= a_min <= a_max <= 1:
        raise ValueError(f"invalid amplitude interval [{a_min}, {a_max}]")
    if quadrant_count < 0:
        raise ValueError("quadrant count must be non-negative")
    lo = math.asin(math.sqrt(a_min))
    hi = math.asin(math.sqrt(a_max))
    if quadrant_count % 2 == 0:
        return lo, hi
    return _HALF_PI - hi, _HALF_PI - lo


def find_next_k(k_i: int, theta_low: float, theta_high: float) -> int:
    """Largest odd K <= pi/(2*width) with K >= 3*K_i that keeps the scaled
    interval inside one quadrant, as k = (K-1)/2; returns k_i unchanged if
    none exists.

    This is `next_odd_k` at q = 3 with the rescue branch off. theta_high
    is clamped to pi/2, which the interval update can overshoot by an ulp.
    """
    big_k, r = next_odd_k(theta_low, min(theta_high, _HALF_PI), 3, 2 * k_i + 1, False)
    return k_i if r is None else (big_k - 1) // 2


def run_miqae(
    config: MiqaeConfig,
    sampler: Sampler,
) -> MiqaeResult:
    """Run the estimation loop against a measurement sampler.

    The sampler is queried as sample(power, 1.0, shots); the rotation
    parameter is pinned to 1 so the good-state probability is
    sin^2((2*power+1)*theta). On a round that exhausts its shot budget
    without finding a larger K while still unconverged, the run stops with
    status "failed" and the current interval.
    """
    eps = config.epsilon
    alpha = config.alpha
    batch_size = config.shots_per_batch
    k_max = math.pi / (4 * eps)
    sample = sampler.sample  # one lookup per run, not one per batch

    theta_low, theta_high = 0.0, _HALF_PI
    k_i = 0
    rounds: list[MiqaeRound] = []
    status = "success"

    while theta_high - theta_low > 2 * eps:
        big_k = 2 * k_i + 1
        alpha_i = (2 * alpha / 3) * (big_k / k_max)
        n_cap = metrics.shots_cap(alpha_i)
        quadrant = quadrant_count(big_k, theta_low)
        ones = 0
        n_round = 0
        failed = False
        while True:
            batch = min(batch_size, n_cap - n_round)
            ones += sample(k_i, 1.0, batch)
            n_round += batch
            a_hat = ones / n_round
            a_min, a_max = chernoff_interval(a_hat, n_round, alpha_i)
            gamma_low, gamma_high = gamma_from_interval(a_min, a_max, quadrant)
            theta_low = (quadrant * _HALF_PI + gamma_low) / big_k
            theta_high = (quadrant * _HALF_PI + gamma_high) / big_k
            if theta_high - theta_low < 2 * eps:
                break
            k_next = find_next_k(k_i, theta_low, theta_high)
            if k_next != k_i:
                k_i = k_next
                break
            if n_round >= n_cap:
                failed = True
                break
        rounds.append(
            MiqaeRound(
                big_k=big_k,
                quadrant=quadrant,
                shots=n_round,
                shots_cap=n_cap,
                a_hat=a_hat,
                a_min=a_min,
                a_max=a_max,
                theta_low=theta_low,
                theta_high=theta_high,
            )
        )
        if failed:
            status = "failed"
            break

    return MiqaeResult(
        a_low=math.sin(theta_low) ** 2,
        a_high=math.sin(theta_high) ** 2,
        status=status,
        **run_totals(rounds),
        rounds=rounds,
    )


def run_for_amplitude(
    amplitude: float,
    config: MiqaeConfig,
    seed: int = 0,
) -> MiqaeResult:
    """Convenience wrapper: estimate a known amplitude with a seeded sampler.
    The seed is an integer, as `diqc.run_amplitude`'s is."""
    seed = _integer(seed, "seed")
    return run_miqae(config, AnalyticSampler.from_amplitude(amplitude, seed))
