"""Distributed approximate counting by iterative amplitude estimation.

Simulates a counting scheme in which 2^k independent nodes each estimate
the marked fraction of an (n-k)-bit slice of the index space using only
uncontrolled amplification iterates, and a classical coordinator sums the
integer estimates. Includes the single-machine baseline estimator, an
exact statevector backend for validating the closed-form measurement
model, inner-product and Hamming-distance front ends, and closed-form
resource accounting.
"""

from .applications import (
    ApplicationResult,
    CommunicationLedger,
    communication_bound,
    estimate_hamming,
    estimate_inner_product,
)
from .coordinator import AggregateResult, aggregate, run_distributed
from .diqc import (
    DiqcConfig,
    NodeResult,
    RoundRecord,
    post_process,
    run_amplitude,
    run_node,
)
from .miqae import MiqaeConfig, MiqaeResult, run_miqae
from .oracle import (
    OracleSpec,
    SubOracle,
    decompose_prefix,
    decompose_stride,
    hamming_suboracle,
    inner_product_suboracle,
    load_bit_vector,
    load_marked_set,
    make_oracle,
)
from .qsim import (
    AnalyticSampler,
    StatevectorSampler,
    StateVector,
    apply_A,
    apply_A_dagger,
    apply_Q,
    prob11,
    prob11_statevector,
)

__version__ = "0.1.0"
