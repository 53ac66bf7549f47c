"""The odd-K scan one K at a time, as `miqae.next_odd_k` ran before it
tested K in numpy chunks; the tests' differential oracle for it. A depth
cap starts the scan at the largest odd K below it, as in `next_odd_k`."""

import math

from dqcount.miqae import QUADRANT_SLACK

_HALF_PI = math.pi / 2


def quadrant_count(big_k, theta):
    return math.floor(big_k * theta * 2 / math.pi + QUADRANT_SLACK)


def same_quadrant(big_k, theta_low, theta_high):
    return quadrant_count(big_k, theta_low) == math.ceil(
        big_k * theta_high * 2 / math.pi - QUADRANT_SLACK
    ) - 1


def next_odd_k(theta_min, theta_max, q, big_k_current, rescue, big_k_cap=None):
    """(K, r) of the first odd K, scanning down, that passes the plain test
    (r = 1.0) or, if `rescue`, the rescue test; (K_current, None)
    if none does."""
    if not 0 <= theta_min < theta_max <= _HALF_PI:
        raise ValueError(f"invalid angle interval [{theta_min}, {theta_max}]")
    if q not in (2, 3):
        raise ValueError("growth factor q must be 2 or 3")
    big_k = 2 * int(math.pi / (4 * (theta_max - theta_min)) - 0.5) + 1
    if big_k_cap is not None:
        big_k = min(big_k, big_k_cap - 1 - big_k_cap % 2)  # the largest odd K below it
    sin_lo = math.sin(theta_min)
    sin_hi = math.sin(theta_max)
    sin2_hi = sin_hi * sin_hi
    while big_k >= q * big_k_current:
        if same_quadrant(big_k, theta_min, theta_max):
            return big_k, 1.0
        if rescue:
            quadrant = quadrant_count(big_k, theta_min)
            r = math.sin((quadrant + 1) * math.pi / (2 * big_k)) ** 2 / sin2_hi
            if r > max(math.sin(_HALF_PI * (1 - 1 / big_k)) ** 2, 0.75):
                root_r = math.sqrt(r)
                scaled_lo = math.asin(min(1.0, root_r * sin_lo))
                scaled_hi = math.asin(min(1.0, root_r * sin_hi))
                if same_quadrant(big_k, scaled_lo, scaled_hi):
                    return big_k, r
        big_k -= 2
    return big_k_current, None


def miqae_find_next_k(k_i, theta_low, theta_high):
    """MIQAE's k = (K-1)/2 from the scan at q = 3 with the rescue off and
    theta_high clamped to pi/2; k_i if no K qualifies."""
    big_k, r = next_odd_k(theta_low, min(theta_high, _HALF_PI), 3, 2 * k_i + 1, False)
    return k_i if r is None else (big_k - 1) // 2
