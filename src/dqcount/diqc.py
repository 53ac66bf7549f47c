"""Per-node distributed counting estimator.

Each node estimates the marked fraction a_j of its index slice by iterative
amplitude estimation with two extensions over the baseline in `miqae`:

* Two-stage amplification: while the amplitude interval is still wide
  (>= 50 epsilon), the next odd factor K only has to grow 2x; once narrow,
  3x. Growing slower early keeps the per-round significance small while
  circuits are cheap, and the significance budget alpha_i proportional to
  K/K_max lets the shot cap shrink as circuits get deep.

* Rotation rescaling: when no larger K keeps the scaled interval inside a
  single quadrant, the auxiliary-qubit weight r < 1 shrinks the effective
  angle arcsin(sqrt(r) sin theta) until some large K does. The round that
  chooses r = sin^2((R+1) pi/2K) / sin^2(theta_max), R the quadrant of K
  theta_min, puts the next round in quadrant R, so each ratio sin^2/r that
  round inverts is at most sin^2((R+1) pi/2K) / r = sin^2(theta_max) <= 1.
  Only float rounding can push it past 1; the round clamps it to 1 before
  the arcsine, which moves an endpoint by that rounding alone.

A round draws its full shot budget N_max, with one `sample_round` call on
the sampler, before anything is decided: the budget is calibrated so that
the pooled Chernoff interval at exhaustion is narrow enough for the K
search to succeed, and only then are the interval update, the convergence
test, and the K search evaluated. A round whose search comes up empty is
granted one more full budget at the same K with its counts carried over;
a second stall ends the run as failed.

Convergence is measured on amplitude scale: the loop stops when
sin^2(theta_max) - sin^2(theta_min) <= 2 epsilon. `post_process` turns
the rounds into the node's report, failed runs included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Union

from . import metrics
from .miqae import (
    ALPHA_FLOOR,
    EPSILON_FLOOR,
    chernoff_interval,
    gamma_from_interval,
    next_odd_k as find_next_k,  # `_estimate` calls this binding, not MIQAE's
    quadrant_count,
    run_totals,
)
from .oracle import SubOracle, _integer
from .qsim import BACKENDS, AnalyticSampler, Sampler

__all__ = [
    "DiqcConfig",
    "RoundRecord",
    "NodeResult",
    "find_next_k",
    "post_process",
    "sum_in_order",
    "run_node",
    "run_amplitude",
]

_HALF_PI = math.pi / 2

# Two-stage rule: an amplitude interval at least this many epsilon_node wide
# selects growth factor q = 2, a narrower one q = 3.
_WIDE_ROUND_FACTOR = 50.0


@dataclass(frozen=True)
class DiqcConfig:
    """Per-node estimation parameters.

    `epsilon_node`/`alpha_node` are the per-node target half-width and
    significance (`coordinator.node_config` builds them from a global
    budget); `epsilon_node` lies in [EPSILON_FLOOR, 0.01] and `alpha_node`
    in [ALPHA_FLOOR, 3/4).
    """

    epsilon_node: float
    alpha_node: float

    def __post_init__(self) -> None:
        if not EPSILON_FLOOR <= self.epsilon_node <= 0.01:
            raise ValueError(f"epsilon_node must lie in [{EPSILON_FLOOR:g}, 0.01]")
        if not ALPHA_FLOOR <= self.alpha_node < 0.75:
            raise ValueError(f"alpha_node must lie in [{ALPHA_FLOOR:g}, 3/4)")


@dataclass(frozen=True)
class RoundRecord:
    """Trace of one round: one (K, r) pair and its pooled measurements.

    `shots` counts this round's measurements, always its whole shot cap;
    `pooled_shots` the total the interval was computed from, which exceeds
    `shots` only when a stalled round was granted a second budget at the
    same K and the counts carried over. So a round that stalls with
    `pooled_shots > shots` is the second stall at its K, and ends the run
    as failed. `backtracked` marks a round with a rescaled bound above r,
    by rounding only, which the round clamped (see the module docstring).
    No output file carries it: it is kept only for the benchmark tracer's
    `diqc.backtracks` count, until the tracer stops reading it.
    """

    big_k: int
    quadrant: int
    r: float
    q: int
    shots: int
    pooled_shots: int
    a_hat: float
    a_min: float
    a_max: float
    theta_min: float
    theta_max: float
    backtracked: bool

    @property
    def a_bounds(self) -> tuple[float, float]:
        return math.sin(self.theta_min) ** 2, math.sin(self.theta_max) ** 2


@dataclass
class NodeResult:
    """One node's estimate plus resource counters.

    `a_low`/`a_high` bound the marked fraction of the slice, +/-
    `half_width(epsilon_node)` around its estimate. `c` is the real-valued
    count estimate 2^m * (weighted amplitude) and `t_prime` its nearest
    integer. `oracle_calls` counts one query per amplification iterate per
    shot (the convention used by the query bound); `oracle_calls_physical`
    counts every state preparation, i.e. (2*power+1) per shot. The four
    counters are read off `rounds` (`miqae.run_totals`), and the last
    round's `pooled_shots` decides whether a stall fails the run.
    """

    node_id: int
    m: int
    epsilon_node: float
    alpha_node: float
    seed: int
    a_low: float
    a_high: float
    c: float
    t_prime: int
    status: str
    oracle_calls: int
    oracle_calls_physical: int
    total_shots: int
    max_big_k: int
    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "success"

    def to_dict(self) -> dict:
        """Every field but the round trace, in field order."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "rounds"
        }


def half_width(epsilon_node: float) -> float:
    """Half-width of a node's reported amplitude interval, 1.5 epsilon_node;
    the coordinator's and both two-party error bounds add it up."""
    return 1.5 * epsilon_node


def a_width(theta_min: float, theta_max: float) -> float:
    """Width of the angle interval [theta_min, theta_max] on amplitude scale."""
    return math.sin(theta_max) ** 2 - math.sin(theta_min) ** 2


def sum_in_order(values: Iterable[float]) -> float:
    """The float sum of `values`, added left to right without compensation.

    Every float sum behind an output byte goes through here: the builtin
    `sum()` compensates floats from Python 3.12 on, so its last bits depend
    on the Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def post_process(
    rounds: list[RoundRecord], epsilon_node: float, m: int
) -> tuple[float, int, tuple[float, float]]:
    """Inverse-width weighted average over the qualifying rounds.

    Uses every round whose amplitude interval is at most 2 * half wide,
    half = half_width(epsilon_node) = 1.5 epsilon; when none is (a failed
    run), the last round alone, with half = half its width. Returns (c,
    t_prime, interval) where c = 2^m * abar, t_prime is c rounded half
    away from zero, and the interval is [abar -/+ half] clamped to [0, 1],
    on amplitude scale. Every node's report is made here.
    """
    m = _integer(m, "m")
    if m < 0:
        raise ValueError("register width must be non-negative")
    if not rounds:
        raise ValueError("no rounds to post-process")
    half = half_width(epsilon_node)
    qualifying = [rd for rd in rounds if a_width(rd.theta_min, rd.theta_max) <= 2 * half]
    if not qualifying:
        qualifying = rounds[-1:]
        half = a_width(qualifying[0].theta_min, qualifying[0].theta_max) / 2
    bounds = [rd.a_bounds for rd in qualifying]
    weights = [1.0 / (hi - lo) for lo, hi in bounds]
    acc = sum_in_order(w * 0.5 * (lo + hi) for w, (lo, hi) in zip(weights, bounds))
    a_bar = acc / sum_in_order(weights)
    c = (1 << m) * a_bar
    t_prime = math.floor(c + 0.5)
    return c, t_prime, (max(0.0, a_bar - half), min(1.0, a_bar + half))


def _estimate(
    sampler: Sampler,
    m: int,
    config: DiqcConfig,
    seed: int,
    node_id: int,
) -> NodeResult:
    eps = config.epsilon_node
    alpha = config.alpha_node
    big_k_cap = metrics.k_max_cap(eps)

    theta_min, theta_max = 0.0, _HALF_PI
    width = a_width(theta_min, theta_max)
    big_k = 1
    r = 1.0
    rounds: list[RoundRecord] = []
    pooled_ones = pooled_shots = 0

    while True:
        q = 2 if width >= _WIDE_ROUND_FACTOR * eps else 3
        alpha_i = (q - 1) * alpha * big_k / (q * big_k_cap)
        n_cap = metrics.shots_cap(alpha_i)
        quadrant = quadrant_count(
            big_k, math.asin(math.sqrt(r) * math.sin(theta_min))
        )
        pooled_ones += sampler.sample_round((big_k - 1) // 2, r, n_cap)
        pooled_shots += n_cap
        a_hat = pooled_ones / pooled_shots
        a_min, a_max = chernoff_interval(a_hat, pooled_shots, alpha_i)
        gamma_low, gamma_high = gamma_from_interval(a_min, a_max, quadrant)
        rescaled_min = (quadrant * _HALF_PI + gamma_low) / big_k
        rescaled_max = (quadrant * _HALF_PI + gamma_high) / big_k
        sin2_min = math.sin(rescaled_min) ** 2
        sin2_max = math.sin(rescaled_max) ** 2
        backtracked = sin2_min > r or sin2_max > r
        theta_min = math.asin(math.sqrt(min(1.0, sin2_min / r)))
        theta_max = math.asin(math.sqrt(min(1.0, sin2_max / r)))
        rounds.append(
            RoundRecord(
                big_k=big_k,
                quadrant=quadrant,
                r=r,
                q=q,
                shots=n_cap,
                pooled_shots=pooled_shots,
                a_hat=a_hat,
                a_min=a_min,
                a_max=a_max,
                theta_min=theta_min,
                theta_max=theta_max,
                backtracked=backtracked,
            )
        )
        width = a_width(theta_min, theta_max)
        if width <= 2 * eps:
            break
        new_k, new_r = find_next_k(theta_min, theta_max, q, big_k, True, big_k_cap=big_k_cap)
        if new_r is not None:
            big_k = new_k
            r = new_r
            pooled_ones = pooled_shots = 0
        elif rounds[-1].pooled_shots > rounds[-1].shots:
            # a second stall at one K ends the run; a first is granted one
            # more full budget there, with the counts carried over
            break

    c, t_prime, (a_low, a_high) = post_process(rounds, eps, m)
    return NodeResult(
        node_id=node_id,
        m=m,
        epsilon_node=eps,
        alpha_node=alpha,
        seed=seed,
        a_low=a_low,
        a_high=a_high,
        c=c,
        t_prime=t_prime,
        status="success" if width <= 2 * eps else "failed",
        **run_totals(rounds),
        rounds=rounds,
    )


def run_node(
    sub: SubOracle,
    config: DiqcConfig,
    sampler: Union[Sampler, None] = None,
    seed: int = 0,
    backend: str = "analytic",
) -> NodeResult:
    """Estimate one sub-oracle's marked count.

    `backend` must name an entry of `qsim.BACKENDS`, even when a sampler
    is supplied. When none is, one is built from the sub-oracle on that
    backend, seeded with `seed`.
    """
    make_sampler = BACKENDS.get(backend)
    if make_sampler is None:
        raise ValueError(f"unknown backend {backend!r}")
    seed = _integer(seed, "seed")
    if sampler is None:
        sampler = make_sampler(sub, seed)
    return _estimate(sampler, sub.m, config, seed, sub.node_id)


def run_amplitude(
    amplitude: float,
    config: DiqcConfig,
    seed: int = 0,
    sampler: Union[Sampler, None] = None,
) -> NodeResult:
    """Single-node estimation of a bare amplitude (m = 0, count scale 1)."""
    seed = _integer(seed, "seed")
    if sampler is None:
        sampler = AnalyticSampler.from_amplitude(amplitude, seed)
    return _estimate(sampler, 0, config, seed, 0)
