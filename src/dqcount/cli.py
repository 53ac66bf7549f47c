"""Batch experiment driver.

Subcommands:

  count          repeated distributed counting runs; per-repetition CSV and
                 an aggregate JSON summary
  inner-product  two-party inner-product estimation with transfer ledger
  hamming        two-party Hamming-distance estimation
  compare-miqae  epsilon sweep comparing the node estimator against the
                 single-machine baseline at a fixed amplitude
  bench          closed-form resource report for a problem size
  prop-check     run the built-in property suites

Every command but bench (which is closed-form) takes --seed, and every
command produces byte-identical output for identical (config, seed). The
(n, k) split is checked before any per-node budget is derived, and the
count summary is read from the per-repetition AggregateResults. Exit
codes: 0 success, 1 estimation failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence, Union

from . import checks, metrics
from .applications import (
    HAMMING,
    INNER_PRODUCT,
    communication_bound,
    estimate_hamming,
    estimate_inner_product,
)
from .coordinator import AggregateResult, run_distributed
from .diqc import DiqcConfig, run_amplitude
from .miqae import MiqaeConfig, run_for_amplitude
from .oracle import check_split, load_bit_vector, load_marked_set, make_oracle

# column meanings: count_estimate is the real-valued 2^m * amplitude;
# amplitude_low/high bound the slice's marked fraction; oracle_calls counts
# one query per amplification iterate per shot, oracle_calls_physical every
# state preparation; max_big_k is the largest odd amplification factor used.
_RUN_COLUMNS = [
    "rep",
    "node_id",
    "seed",
    "t_prime",
    "count_estimate",
    "amplitude_low",
    "amplitude_high",
    "oracle_calls",
    "oracle_calls_physical",
    "total_shots",
    "max_big_k",
    "status",
]

# one row per adaptive round: big_k odd amplification factor, quadrant of the
# amplified angle, r_weight rotation parameter, q_stage growth factor,
# shots taken this round against shots_cap, pooled_shots behind the interval,
# a_* the measured amplified probability and its bounds, theta_* the angle
# interval in radians after the round.
_TRACE_COLUMNS = [
    "rep",
    "node_id",
    "round",
    "big_k",
    "quadrant",
    "r_weight",
    "q_stage",
    "shots",
    "pooled_shots",
    "shots_cap",
    "a_hat",
    "a_min",
    "a_max",
    "theta_min",
    "theta_max",
    "backtracked",
]


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _config_argv(args, parser, argv: list[str]) -> list[str]:
    """Splice the JSON config file's settings in as flags after the command.

    The settings land ahead of the command line's own flags, so they go
    through the same type and choice checks and explicit flags win.
    """
    try:
        with open(args.config, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(payload, dict):
        parser.error("config file must hold a JSON object")
    settable = set(vars(args)) - {"command", "config"}
    tokens = []
    for key, value in payload.items():
        attr = key.replace("-", "_")
        if attr not in settable:
            parser.error(f"config file sets unknown option {key!r}")
        flag = "--" + attr.replace("_", "-")
        if isinstance(getattr(args, attr), bool) and isinstance(value, bool):
            tokens += [flag] if value else []  # on/off switch
        else:
            tokens.append(f"{flag}={value}")
    return argv[:1] + tokens + argv[1:]


def _resolve_marked(args, parser) -> tuple[int, frozenset[int]]:
    if args.marked is None and args.oracle_file is None:
        parser.error("need --marked or --oracle-file")
    if args.marked is not None:
        marked = frozenset(int(tok) for tok in str(args.marked).split(",") if tok != "")
        width = None
    else:
        marked, width = load_marked_set(args.oracle_file)
    n = args.n if args.n is not None else width
    if n is None:
        parser.error("need --n (or a bit-string oracle file that implies it)")
    return int(n), marked


def _node_budget(args, parser, n: int) -> tuple[float, float]:
    """Global (epsilon, alpha) from either global or per-node flags."""
    check_split(n, args.k)
    nodes = 1 << args.k
    if args.epsilon_node is not None:
        if args.epsilon is not None:
            parser.error("--epsilon and --epsilon-node are mutually exclusive")
        epsilon = args.epsilon_node * nodes
    else:
        epsilon = args.epsilon if args.epsilon is not None else 0.002
    if args.alpha_node is not None:
        if args.alpha is not None:
            parser.error("--alpha and --alpha-node are mutually exclusive")
        alpha = args.alpha_node * nodes
    else:
        alpha = args.alpha if args.alpha is not None else 0.1
    return epsilon, alpha


def _node_means(aggs: list[AggregateResult], j: int) -> dict:
    """Node j's means over the repetitions."""
    results = [agg.per_node[j] for agg in aggs]

    def mean(values) -> float:
        total = 0.0
        for value in values:  # in rep order; sum() compensates floats from 3.12 on
            total += value
        return total / len(results)

    return {
        "node_id": j,
        "mean_c": mean(res.c for res in results),
        "mean_t_prime": mean(res.t_prime for res in results),
        "mean_oracle_calls": mean(res.oracle_calls for res in results),
        "mean_max_big_k": mean(res.max_big_k for res in results),
        "mean_depth": mean((res.max_big_k - 1) // 2 for res in results),
        "mean_total_shots": mean(res.total_shots for res in results),
        "successes": sum(res.succeeded for res in results),
    }


def _cmd_count(args, parser) -> int:
    n, marked = _resolve_marked(args, parser)
    oracle = make_oracle(n, marked)
    epsilon, alpha = _node_budget(args, parser, n)
    nodes = 1 << args.k
    out = Path(args.out)

    aggs = [
        run_distributed(
            oracle,
            args.k,
            epsilon,
            alpha,
            scheme=args.scheme,
            shots_per_batch=args.shots_per_batch,
            base_seed=args.seed + rep * nodes,
            backend=args.backend,
        )
        for rep in range(args.reps)
    ]
    rows: list[list] = []
    trace_rows: list[list] = []
    for rep, agg in enumerate(aggs):
        for res in agg.per_node:
            rows.append(
                [
                    rep, res.node_id, res.seed, res.t_prime, repr(res.c),
                    repr(res.a_low), repr(res.a_high), res.oracle_calls,
                    res.oracle_calls_physical, res.total_shots, res.max_big_k,
                    res.status,
                ]
            )
            if args.trace:
                for rd in res.rounds:
                    trace_rows.append(
                        [
                            rep, res.node_id, rd.index, rd.big_k, rd.quadrant,
                            repr(rd.r), rd.q, rd.shots, rd.pooled_shots,
                            rd.shots_cap, repr(rd.a_hat), repr(rd.a_min),
                            repr(rd.a_max), repr(rd.theta_min),
                            repr(rd.theta_max), int(rd.backtracked),
                        ]
                    )
    t_counts = Counter(agg.t_prime for agg in aggs)
    failed_reps = sum(not agg.succeeded for agg in aggs)
    first = aggs[0].per_node[0]
    summary = {
        "config": {
            "n": n,
            "k": args.k,
            "marked": sorted(marked),
            "epsilon": epsilon,
            "alpha": alpha,
            "epsilon_node": first.epsilon_node,
            "alpha_node": first.alpha_node,
            "shots_per_batch": args.shots_per_batch,
            "scheme": args.scheme,
            "backend": args.backend,
            "reps": args.reps,
            "seed": args.seed,
        },
        "qubits_per_node": n - args.k + 2,
        "per_node": [_node_means(aggs, j) for j in range(nodes)],
        "t_prime_counts": {str(t): c for t, c in sorted(t_counts.items())},
        "failed_reps": failed_reps,
        "error_bound": aggs[-1].error_bound,
        "confidence": aggs[-1].confidence,
    }
    _write_csv(out / "runs.csv", _RUN_COLUMNS, rows)
    _write_json(out / "summary.json", summary)
    if args.trace:
        _write_csv(out / "trace.csv", _TRACE_COLUMNS, trace_rows)
    print(f"wrote {out}/runs.csv and {out}/summary.json")
    return 0 if failed_reps == 0 else 1


def _load_vector(arg: str):
    path = Path(arg)
    if path.exists():
        return load_bit_vector(path)
    if set(arg) <= {"0", "1"} and len(arg) >= 2:
        return [int(c) for c in arg]
    raise ValueError(f"{arg!r} is neither a file nor a 0/1 string")


def _cmd_pair(args, parser, which: str) -> int:
    if args.x is None or args.y is None:
        parser.error("need --x and --y")
    x = _load_vector(args.x)
    y = _load_vector(args.y)
    runner = estimate_inner_product if which == INNER_PRODUCT else estimate_hamming
    result = runner(
        x, y, args.k, args.epsilon, args.alpha,
        shots_per_batch=args.shots_per_batch,
        base_seed=args.seed,
        backend=args.backend,
    )
    if which == INNER_PRODUCT:
        exact = sum(a & b for a, b in zip(x, y)) / (1 << result.n)
    else:
        exact = sum(a ^ b for a, b in zip(x, y)) / (1 << result.n)
    payload = result.to_dict()
    payload["exact"] = exact
    payload["abs_error"] = abs(result.estimate - exact)
    node = result.per_node[0]
    payload["communication_bound"] = communication_bound(
        which, result.n, result.k, node.epsilon_node, node.alpha_node
    )
    payload["config"] = {
        "epsilon": args.epsilon,
        "alpha": args.alpha,
        "k": args.k,
        "seed": args.seed,
        "backend": args.backend,
        "shots_per_batch": args.shots_per_batch,
    }
    if args.out is not None:
        _write_json(Path(args.out), payload)
        print(f"wrote {args.out}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0 if result.succeeded else 1


def _diqc_config(flags: dict[str, str], **fields) -> DiqcConfig:
    """DiqcConfig(**fields), with a rejection reworded to name the flag
    (`flags[field]`) that set the rejected value."""
    try:
        return DiqcConfig(**fields)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")  # each message opens with its field
        raise ValueError(f"{flags[field]} {rest}, got {fields[field]:g}") from None


def _compare_configs(args, eps: float) -> tuple[DiqcConfig, MiqaeConfig]:
    """Both estimators' configs for one sweep point. DiqcConfig's ranges
    are the narrower ones, so it is checked first."""
    node_cfg = _diqc_config({"epsilon_node": "--epsilons", "alpha_node": "--alpha"},
                            epsilon_node=eps, alpha_node=args.alpha,
                            shots_per_batch=args.shots_per_batch)
    return node_cfg, MiqaeConfig(epsilon=eps, alpha=args.alpha,
                                 shots_per_batch=args.shots_per_batch)


def _cmd_compare(args, parser) -> int:
    sweep = [float(tok) for tok in args.epsilons.split(",") if tok]
    if not sweep:
        parser.error("empty epsilon sweep")
    configs = [(eps, *_compare_configs(args, eps)) for eps in sweep]
    out = Path(args.out)
    rows = []
    for eps, node_cfg, base_cfg in configs:
        for name, runner in (
            ("diqc", lambda s: run_amplitude(args.amplitude, node_cfg, seed=s)),
            ("miqae", lambda s: run_for_amplitude(args.amplitude, base_cfg, seed=s)),
        ):
            results = [runner(args.seed + rep) for rep in range(args.reps)]
            good = [res for res in results if res.succeeded]
            pool = good if good else results
            rows.append(
                [
                    repr(eps),
                    name,
                    len(good),
                    repr(sum(res.max_big_k for res in pool) / len(pool)),
                    repr(sum(res.oracle_calls for res in pool) / len(pool)),
                    repr(sum(res.total_shots for res in pool) / len(pool)),
                ]
            )
    _write_csv(
        out / "sweep.csv",
        ["epsilon", "algorithm", "successes", "mean_max_big_k",
         "mean_oracle_calls", "mean_total_shots"],
        rows,
    )
    print(f"wrote {out}/sweep.csv")
    return 0


def _cmd_bench(args, parser) -> int:
    n = args.n
    k = args.k
    budget = _diqc_config({"epsilon_node": "--epsilon-node", "alpha_node": "--alpha-node"},
                          epsilon_node=args.epsilon_node, alpha_node=args.alpha_node)
    epsilon_node, alpha_node = budget.epsilon_node, budget.alpha_node
    central, node = metrics.counting_comparison(n, k)
    payload = {
        "n": n,
        "k": k,
        "centralized": vars(central),
        "per_node": vars(node),
        "cost_dominance_holds": metrics.centralized_cost_dominates(n, k),
        "k_max_cap": metrics.k_max_cap(epsilon_node),
        "query_bound": metrics.query_bound(epsilon_node, alpha_node),
        "communication_bound_inner": communication_bound(
            INNER_PRODUCT, n, k, epsilon_node, alpha_node
        ),
        "communication_bound_hamming": communication_bound(
            HAMMING, n, k, epsilon_node, alpha_node
        ),
        "budget": {"epsilon_node": epsilon_node, "alpha_node": alpha_node},
    }
    if args.out is not None:
        _write_json(Path(args.out), payload)
        print(f"wrote {args.out}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_prop_check(args, parser) -> int:
    reports = checks.run_all(seed=args.seed)
    for rep in reports:
        print(f"{'PASS' if rep['passed'] else 'FAIL'}  {rep['name']} ({rep['cases']} cases)")
    if args.out is not None:
        _write_json(Path(args.out), {"suites": reports})
    return 0 if all(rep["passed"] for rep in reports) else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(
    sub: argparse.ArgumentParser, out: Union[str, None] = None, seeded: bool = True
) -> None:
    if seeded:
        sub.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    sub.add_argument("--out", type=str, default=out, help="output path")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file supplying defaults; flags win")


def _add_estimation(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, default=1, help="log2 node count")
    sub.add_argument("--backend", choices=("analytic", "statevector"),
                     default="analytic")
    sub.add_argument("--shots-per-batch", type=_positive_int, default=1)
    sub.add_argument("--epsilon", type=float, default=None,
                     help="global target half-width")
    sub.add_argument("--alpha", type=float, default=None,
                     help="global significance level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqcount",
        description="Distributed approximate-counting experiment driver",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="repeated distributed counting runs")
    _add_common(p, out="count-out")
    _add_estimation(p)
    p.add_argument("--n", type=int, default=None, help="index register width")
    p.add_argument("--marked", type=str, default=None,
                   help="comma-separated marked indices")
    p.add_argument("--oracle-file", type=str, default=None,
                   help="marked-set file (ints or bit strings, one per line)")
    p.add_argument("--epsilon-node", type=float, default=None,
                   help="per-node half-width (alternative to --epsilon)")
    p.add_argument("--alpha-node", type=float, default=None,
                   help="per-node significance (alternative to --alpha)")
    p.add_argument("--scheme", choices=("prefix", "stride"), default="prefix")
    p.add_argument("--reps", type=_positive_int, default=1,
                   help="repetitions (default 1)")
    p.add_argument("--trace", action="store_true", help="also write trace.csv")

    for cmd, blurb in (("inner-product", "inner product"), ("hamming", "Hamming distance")):
        p = subs.add_parser(cmd, help=f"two-party {blurb} estimation")
        _add_common(p)
        _add_estimation(p)
        p.set_defaults(epsilon=0.01, alpha=0.05)
        p.add_argument("--x", type=str, default=None,
                       help="bit vector: 0/1 string or file path (required)")
        p.add_argument("--y", type=str, default=None, help="(required)")

    p = subs.add_parser("compare-miqae",
                        help="sweep epsilon, node estimator vs baseline")
    _add_common(p, out="compare-out")
    p.add_argument("--amplitude", type=float, default=1 / 64,
                   help="true amplitude (default 1/64)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--epsilons", type=str, default="0.005,0.002,0.001",
                   help="comma-separated sweep (default 0.005,0.002,0.001)")
    p.add_argument("--reps", type=_positive_int, default=100,
                   help="runs per point (default 100)")
    p.add_argument("--shots-per-batch", type=_positive_int, default=1)

    p = subs.add_parser("bench", help="closed-form resource report")
    _add_common(p, seeded=False)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--epsilon-node", type=float, default=0.001)
    p.add_argument("--alpha-node", type=float, default=0.05)

    p = subs.add_parser("prop-check", help="run the built-in property suites")
    _add_common(p)

    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        args = parser.parse_args(_config_argv(args, parser, argv))
    try:
        if args.command == "count":
            return _cmd_count(args, parser)
        if args.command == "inner-product":
            return _cmd_pair(args, parser, INNER_PRODUCT)
        if args.command == "hamming":
            return _cmd_pair(args, parser, HAMMING)
        if args.command == "compare-miqae":
            return _cmd_compare(args, parser)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        if args.command == "prop-check":
            return _cmd_prop_check(args, parser)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2

if __name__ == "__main__":
    sys.exit(main())
