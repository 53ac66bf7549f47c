"""Batched DIQC rounds for tests that want speed.

A DIQC round spends its whole shot budget before anything reads its
counts, so drawing it in batches changes only how the random stream is
consumed. `Batched` draws a round in calls of `batch` shots, and
`batched_backends` makes every sampler `run_node` builds draw that way.
"""

import contextlib

from dqcount.qsim import BACKENDS


class Batched:
    """`sampler`, drawing a round as full batches of `batch` shots, then one
    partial call for the remainder when `batch` does not divide the round."""

    def __init__(self, sampler, batch):
        self.sampler = sampler
        self.batch = batch

    def sample_round(self, grover_power, r, shots):
        sample = self.sampler.sample
        full, rest = divmod(shots, self.batch)
        count = 0
        for _ in range(full):
            count += sample(grover_power, r, self.batch)
        if rest:
            count += sample(grover_power, r, rest)
        return count


@contextlib.contextmanager
def batched_backends(batch):
    """Within the block, each `qsim.BACKENDS` builder returns its sampler
    wrapped in `Batched(sampler, batch)`."""
    builders = dict(BACKENDS)
    BACKENDS.update({
        name: lambda sub, seed, build=build: Batched(build(sub, seed), batch)
        for name, build in builders.items()
    })
    try:
        yield
    finally:
        BACKENDS.update(builders)
