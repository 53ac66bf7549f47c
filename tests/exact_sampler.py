"""Noise-free sampler for tests: the closed-form P[11] without shot noise."""

import math

from dqcount.qsim import prob11


class ExactSampler:
    """Returns round(p * shots) for the closed-form p of a fixed angle, for a
    MIQAE `sample` and a DIQC `sample_round` alike."""

    def __init__(self, theta: float):
        if not 0 <= theta <= math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")
        self._sin_theta = math.sin(theta)

    @classmethod
    def from_amplitude(cls, amplitude: float):
        return cls(math.asin(math.sqrt(amplitude)))

    def probability(self, grover_power: int, r: float) -> float:
        return prob11(self._sin_theta, r, grover_power)

    def sample(self, grover_power: int, r: float, shots: int) -> int:
        return round(self.probability(grover_power, r) * shots)

    sample_round = sample  # a DIQC round is one draw of all its shots
