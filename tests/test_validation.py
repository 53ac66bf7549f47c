"""Each library entry point rejects an out-of-range argument with its
one-line ValueError."""

import re

import pytest

from dqcount import metrics
from dqcount.applications import estimate_hamming
from dqcount.diqc import post_process
from dqcount.miqae import chernoff_interval, gamma_from_interval
from dqcount.oracle import hamming_suboracle
from dqcount.qsim import AnalyticSampler

CASES = [
    (lambda: estimate_hamming([1], [0], 1, 0.01, 0.05), "vectors need at least two entries"),
    (lambda: post_process([], 0.001, -1), "register width must be non-negative"),
    (lambda: metrics.query_bound(0.001, 1.0), "alpha must lie in (0, 1)"),
    (lambda: metrics.gates_controlled_grover(0), "n must be positive"),
    (lambda: metrics.gates_counting_circuit(5, 0), "register sizes must be positive"),
    (lambda: chernoff_interval(1.5, 10, 0.05), "a_hat must lie in [0, 1]"),
    (lambda: chernoff_interval(0.5, 10, 1.0), "alpha_i must lie in (0, 1)"),
    (lambda: gamma_from_interval(0.6, 0.4, 0), "invalid amplitude interval"),
    (lambda: gamma_from_interval(0.1, 0.2, -1), "quadrant count must be non-negative"),
    (lambda: hamming_suboracle([0, 1, 0, 1], [0, 1, 1, 1], 1, 2), "node_id 2 outside [0, 2)"),
    (lambda: AnalyticSampler(2.0), "theta must lie in [0, pi/2]"),
]


@pytest.mark.parametrize("call, message", CASES, ids=[message for _, message in CASES])
def test_an_out_of_range_argument_raises_its_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
