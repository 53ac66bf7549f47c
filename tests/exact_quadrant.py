"""`miqae.quadrant_count` and `miqae.same_quadrant` decided in exact
arithmetic; the tests' reference for the float64 decisions.

theta and `QUADRANT_SLACK` enter as the exact rationals of their float
values, and pi as the bracket [_PI_LOW, _PI_HIGH] of its first 50
decimals. Since 2K theta/pi falls as pi rises, floor and ceil of it at
either end of the bracket agree with their value at the real pi whenever
the two ends agree; when they do not, the decision raises ArithmeticError.
"""

import math
from fractions import Fraction

from dqcount.miqae import QUADRANT_SLACK

_PI_LOW = Fraction(314159265358979323846264338327950288419716939937510, 10**50)
_PI_HIGH = _PI_LOW + Fraction(1, 10**50)
_SLACK = Fraction(QUADRANT_SLACK)


def _at_pi(rounding, big_k, theta, shift):
    """rounding(2K theta/pi + shift) at the real pi."""
    scaled = 2 * big_k * Fraction(theta)
    low, high = (rounding(scaled / pi + shift) for pi in (_PI_HIGH, _PI_LOW))
    if low != high:
        raise ArithmeticError(f"50 digits of pi cannot decide K={big_k}, theta={theta!r}")
    return low


def quadrant_count(big_k, theta):
    """floor(2K theta/pi + QUADRANT_SLACK), exactly."""
    return _at_pi(math.floor, big_k, theta, _SLACK)


def same_quadrant(big_k, theta_low, theta_high):
    """Whether the quadrant count of K theta_low equals
    ceil(2K theta_high/pi - QUADRANT_SLACK) - 1, exactly."""
    return quadrant_count(big_k, theta_low) == _at_pi(math.ceil, big_k, theta_high, -_SLACK) - 1
