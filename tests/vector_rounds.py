"""DIQC rounds in one numpy draw, for the tests that want speed.

`Sampler.sample_round` counts a round as `shots` one-shot draws. numpy
draws each entry of `rng.binomial(1, p, size=shots)` with the same C
routine on the same generator state, so that array sums to the same count
in one call (`test_qsim::test_one_vectorized_draw_reproduces_the_per_shot_stream`).
`VectorRounds` draws a round that way, and `vector_backends` makes every
sampler `run_node` builds do so. Runs through either equal the program's
own runs field for field
(`test_diqc::test_a_round_is_per_shot_draws_and_vector_rounds_run_as_the_program`).
"""

import contextlib

from dqcount.qsim import BACKENDS


class VectorRounds:
    """`sampler`, drawing each DIQC round in one numpy call."""

    def __init__(self, sampler):
        self.sampler = sampler

    def sample_round(self, grover_power, r, shots):
        p = self.sampler.probability(grover_power, r)
        return int(self.sampler.rng.binomial(1, p, size=shots).sum())


@contextlib.contextmanager
def vector_backends():
    """Within the block, each `qsim.BACKENDS` builder returns its sampler
    wrapped in `VectorRounds`."""
    builders = dict(BACKENDS)
    BACKENDS.update({
        name: lambda sub, seed, build=build: VectorRounds(build(sub, seed))
        for name, build in builders.items()
    })
    try:
        yield
    finally:
        BACKENDS.update(builders)
