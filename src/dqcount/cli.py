"""Batch experiment driver.

Subcommands:

  count          repeated distributed counting runs; per-repetition CSV and
                 an aggregate JSON summary
  inner-product  two-party inner-product estimation with transfer ledger
  hamming        two-party Hamming-distance estimation
  compare-miqae  epsilon sweep comparing the node estimator against the
                 single-machine baseline at a fixed amplitude; its
                 --shots-per-batch sets MIQAE's shots between interval
                 updates (default MiqaeConfig's, 100)
  bench          closed-form resource report for a problem size
  prop-check     run the built-in property suites

Every command but bench (which is closed-form) takes --seed, and every
command produces byte-identical output for identical (config, seed). The
(n, k) split is checked before any per-node budget is derived; count,
bench and the pair commands check each budget flag against its own range,
then the budget with `coordinator.node_config`, and name the flag that set
a rejected value. The node estimator draws each round with one sampler
call, so no command has a batch flag for it. `count` folds each
repetition into its rows and per-node sums as the repetition finishes,
then drops it. `main` parses with one parser per process (`build_parser`
is cached), so in-process calls do not rebuild it. Every rejection,
argparse's own included, is a ValueError or OSError that `main` prints as
one `error: ...` line; usage is under --help. Exit codes: 0 success, 1
estimation failure or a reader that closed stdout early, 2 usage or domain
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
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
    padded_width,
)
from .coordinator import node_config, run_distributed
from .diqc import DiqcConfig, run_amplitude
from .miqae import MiqaeConfig, run_for_amplitude
from .oracle import PREFIX, STRIDE, check_split, load_bit_vector, load_marked_set, make_oracle
from .qsim import BACKENDS, AnalyticSampler

# The global budget when no flag sets it, of `count` and of the pair
# commands. `--help` shows it; the parser default stays None so that
# `count` can tell an unset --epsilon from --epsilon-node.
_COUNT_EPSILON, _COUNT_ALPHA = 0.002, 0.1
_PAIR_EPSILON, _PAIR_ALPHA = 0.01, 0.05

# runs.csv: one row per node run, rep and then (header, NodeResult
# attribute). count_estimate is the real-valued 2^m * amplitude;
# amplitude_low/high bound the slice's marked fraction; oracle_calls counts
# one query per amplification iterate per shot, oracle_calls_physical every
# state preparation; max_big_k is the largest odd amplification factor used.
_RUN_COLUMNS = (
    ("node_id", "node_id"), ("seed", "seed"), ("t_prime", "t_prime"),
    ("count_estimate", "c"), ("amplitude_low", "a_low"), ("amplitude_high", "a_high"),
    ("oracle_calls", "oracle_calls"), ("oracle_calls_physical", "oracle_calls_physical"),
    ("total_shots", "total_shots"), ("max_big_k", "max_big_k"), ("status", "status"),
)

# trace.csv: one row per adaptive round, rep, node_id and the round's
# position from 1, then (header, RoundRecord attribute): big_k odd
# amplification factor, quadrant of the amplified angle, r_weight rotation
# parameter, q_stage growth factor, shots taken this round (its whole cap),
# pooled_shots behind the interval, a_* the measured amplified probability
# and its bounds, theta_* the angle interval in radians after the round.
_TRACE_COLUMNS = (
    ("big_k", "big_k"), ("quadrant", "quadrant"), ("r_weight", "r"), ("q_stage", "q"),
    ("shots", "shots"), ("pooled_shots", "pooled_shots"), ("a_hat", "a_hat"),
    ("a_min", "a_min"), ("a_max", "a_max"), ("theta_min", "theta_min"),
    ("theta_max", "theta_max"),
)


# summary.json: each node's means over the reps, as key: NodeResult -> value.
_NODE_MEANS = {
    "mean_c": lambda res: res.c,
    "mean_t_prime": lambda res: res.t_prime,
    "mean_oracle_calls": lambda res: res.oracle_calls,
    "mean_max_big_k": lambda res: res.max_big_k,
    "mean_depth": lambda res: (res.max_big_k - 1) // 2,
    "mean_total_shots": lambda res: res.total_shots,
}


def _cells(record, columns) -> list:
    """`record`'s attributes in `columns` order. The csv module writes a
    float as its repr."""
    return [getattr(record, attr) for _, attr in columns]


def _write_json(path: Union[str, Path, None], payload) -> None:
    """Write `payload` as sorted, indented JSON to `path` and say so, or
    to stdout when `path` is None."""
    if path is None:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def _config_argv(args, argv: list[str]) -> list[str]:
    """Splice the JSON config file's settings in as flags after the command.

    The settings land ahead of the command line's own flags, so they go
    through the same type and choice checks and explicit flags win.
    """
    try:
        with open(args.config, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a JSON object")
    settable = set(vars(args)) - {"command", "config"}
    tokens = []
    for key, value in payload.items():
        attr = key.replace("-", "_")
        if attr not in settable:
            raise ValueError(f"config file sets unknown option {key!r}")
        if value is None:
            raise ValueError(f"config file sets option {key!r} to null")
        flag = "--" + attr.replace("_", "-")
        if isinstance(getattr(args, attr), bool) and isinstance(value, bool):
            tokens += [flag] if value else []  # on/off switch
        else:
            tokens.append(f"{flag}={value}")
    return argv[:1] + tokens + argv[1:]


def _resolve_marked(args) -> tuple[int, frozenset[int]]:
    if args.marked is None and args.oracle_file is None:
        raise ValueError("need --marked or --oracle-file")
    if args.marked is not None:
        text = str(args.marked)
        try:
            marked = frozenset(int(tok) for tok in text.split(",") if tok != "")
        except ValueError:
            raise ValueError(f"--marked must be comma-separated integers, got {text!r}") from None
        width = None
    else:
        marked, width = load_marked_set(args.oracle_file)
    if width is not None and args.n not in (None, width):
        raise ValueError(f"--n {args.n} differs from the width {width} of "
                         f"the bit strings in {args.oracle_file}")
    n = args.n if args.n is not None else width
    if n is None:
        raise ValueError("need --n (or a bit-string oracle file that implies it)")
    return int(n), marked


def _checked(check, flags: dict[str, tuple[str, float]], **fields):
    """check(**fields), with a rejection of a field in `flags` reworded to
    name the flag that set it and the value it got: flags[field] = (flag,
    value)."""
    try:
        return check(**fields)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")  # each message opens with its field
        if field not in flags:
            raise
        flag, value = flags[field]
        raise ValueError(f"{flag} {rest}, got {value:g}") from None


def _global_budget(
    n: int,
    k: int,
    epsilon: Union[float, None],
    alpha: Union[float, None],
    epsilon_node: Union[float, None] = None,
    alpha_node: Union[float, None] = None,
) -> tuple[int, float, float]:
    """The k that `check_split` hands out, and the global (epsilon, alpha)
    checked by `node_config`, the budget rule the runs apply. A per-node
    value stands for 2^k times itself, and a global one for a 2^k-th of
    itself on each node. Each flag is checked against its own range before
    the value it stands for, and a rejection names the flag that set the
    value."""
    _, k = check_split(n, k)
    nodes = 1 << k
    flags, budget, node_fields = {}, {}, {}
    # per name: global value, per-node value, default, in-range stand-in for the latter
    for name, value, node_value, default, in_range in (
            ("epsilon", epsilon, epsilon_node, _COUNT_EPSILON, 0.01),
            ("alpha", alpha, alpha_node, _COUNT_ALPHA, 0.05)):
        if node_value is not None:
            value = node_value * nodes
            flags[name] = (f"--{name}-node times 2^{k} nodes", value)
            flags[f"{name}_node"] = (f"--{name}-node", node_value)
        else:
            value = default if value is None else value
            flags[name] = (f"--{name}", value)
            flags[f"{name}_node"] = (f"--{name} over 2^{k} nodes", value / nodes)
        budget[name] = value
        node_fields[f"{name}_node"] = in_range if node_value is None else node_value
    # the per-node flags on their own scale, then node_config: the global
    # pair, then its 2^k-th
    _checked(DiqcConfig, flags, **node_fields)
    _checked(node_config, flags, **budget, n=n, k=k)
    return k, budget["epsilon"], budget["alpha"]


def _cmd_count(args) -> int:
    n, marked = _resolve_marked(args)
    oracle = make_oracle(n, marked)
    for name in ("epsilon", "alpha"):
        if getattr(args, name) is not None and getattr(args, f"{name}_node") is not None:
            raise ValueError(f"--{name} and --{name}-node are mutually exclusive")
    k, epsilon, alpha = _global_budget(n, args.k, args.epsilon, args.alpha,
                                       args.epsilon_node, args.alpha_node)
    nodes = 1 << k
    out = Path(args.out)

    # Each rep is folded in as it ends: its rows, and each node's running
    # sums, added in rep order as `sum_in_order` does.
    per_node = [{"node_id": j, "successes": 0, **dict.fromkeys(_NODE_MEANS, 0.0)}
                for j in range(nodes)]
    rows: list[list] = []
    trace_rows: list[list] = []
    t_counts: Counter = Counter()
    failed_reps = 0
    for rep in range(args.reps):
        agg = run_distributed(oracle, k, epsilon, alpha, scheme=args.scheme,
                              base_seed=args.seed + rep * nodes, backend=args.backend)
        for res, sums in zip(agg.per_node, per_node):
            rows.append([rep, *_cells(res, _RUN_COLUMNS)])
            if args.trace:
                trace_rows += ([rep, res.node_id, i, *_cells(rd, _TRACE_COLUMNS)]
                               for i, rd in enumerate(res.rounds, 1))
            for key, read in _NODE_MEANS.items():
                sums[key] += read(res)
            sums["successes"] += res.succeeded
        t_counts[agg.t_prime] += 1
        failed_reps += not agg.succeeded
    for sums in per_node:
        for key in _NODE_MEANS:
            sums[key] /= args.reps
    # the budget and the guarantee are the same in every rep
    last = agg.per_node[0]
    summary = {
        "config": {
            "n": n,
            "k": k,
            "marked": sorted(marked),
            "epsilon": epsilon,
            "alpha": alpha,
            "epsilon_node": last.epsilon_node,
            "alpha_node": last.alpha_node,
            "scheme": args.scheme,
            "backend": args.backend,
            "reps": args.reps,
            "seed": args.seed,
        },
        "qubits_per_node": n - k + 2,
        "per_node": per_node,
        "t_prime_counts": {str(t): c for t, c in sorted(t_counts.items())},
        "failed_reps": failed_reps,
        "error_bound": agg.error_bound,
        "confidence": agg.confidence,
    }
    _write_csv(out / "runs.csv", ["rep", *(name for name, _ in _RUN_COLUMNS)], rows)
    _write_json(out / "summary.json", summary)
    if args.trace:
        _write_csv(out / "trace.csv",
                   ["rep", "node_id", "round", *(name for name, _ in _TRACE_COLUMNS)],
                   trace_rows)
    return 0 if failed_reps == 0 else 1


def _load_vector(arg: str):
    try:
        is_file = Path(arg).is_file()  # '' reads as '.', a directory
    except OSError:  # e.g. an inline vector longer than a file name may be
        is_file = False
    if is_file:
        return load_bit_vector(arg)
    if set(arg) <= {"0", "1"} and len(arg) >= 2:
        return [int(c) for c in arg]
    raise ValueError(f"{arg!r} is neither a file nor a 0/1 string")


def _cmd_pair(args) -> int:
    if args.x is None or args.y is None:
        raise ValueError("need --x and --y")
    which = INNER_PRODUCT if args.command == "inner-product" else HAMMING
    x = _load_vector(args.x)
    y = _load_vector(args.y)
    if len(x) != len(y):  # before the budget, which reads x's width
        raise ValueError(f"vector lengths differ: {len(x)} != {len(y)}")
    # the width the vectors are zero-padded to, so the budget is checked as count's is
    k, _, _ = _global_budget(padded_width(len(x)), args.k, args.epsilon, args.alpha)
    runner = estimate_inner_product if which == INNER_PRODUCT else estimate_hamming
    result = runner(x, y, k, args.epsilon, args.alpha,
                    base_seed=args.seed, backend=args.backend)
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
        "k": k,
        "seed": args.seed,
        "backend": args.backend,
    }
    _write_json(args.out, payload)
    return 0 if result.succeeded else 1


def _compare_configs(args, eps: float) -> tuple[DiqcConfig, MiqaeConfig]:
    """Both estimators' configs for one sweep point. DiqcConfig's ranges
    are the narrower ones, so it is checked first. --shots-per-batch sets
    MIQAE's batch only; DIQC runs at DiqcConfig's default."""
    flags = {"epsilon_node": ("--epsilons", eps), "alpha_node": ("--alpha", args.alpha)}
    node_cfg = _checked(DiqcConfig, flags, epsilon_node=eps, alpha_node=args.alpha)
    return node_cfg, MiqaeConfig(epsilon=eps, alpha=args.alpha,
                                 shots_per_batch=args.shots_per_batch)


def _cmd_compare(args) -> int:
    try:
        sweep = [float(tok) for tok in args.epsilons.split(",") if tok]
    except ValueError:
        raise ValueError(
            f"--epsilons must be comma-separated numbers, got {args.epsilons!r}") from None
    if not sweep:
        raise ValueError("empty epsilon sweep")
    configs = [(eps, *_compare_configs(args, eps)) for eps in sweep]
    _checked(AnalyticSampler.from_amplitude, {"amplitude": ("--amplitude", args.amplitude)},
             amplitude=args.amplitude)
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
            rows.append([eps, name, len(good),
                         sum(res.max_big_k for res in pool) / len(pool),
                         sum(res.oracle_calls for res in pool) / len(pool),
                         sum(res.total_shots for res in pool) / len(pool)])
    _write_csv(
        out / "sweep.csv",
        ["epsilon", "algorithm", "successes", "mean_max_big_k",
         "mean_oracle_calls", "mean_total_shots"],
        rows,
    )
    return 0


def _cmd_bench(args) -> int:
    n = args.n
    epsilon_node, alpha_node = args.epsilon_node, args.alpha_node
    k, _, _ = _global_budget(n, args.k, None, None, epsilon_node, alpha_node)
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
    _write_json(args.out, payload)
    return 0


def _cmd_prop_check(args) -> int:
    reports = checks.run_all(seed=args.seed)
    for rep in reports:
        print(f"{'PASS' if rep['passed'] else 'FAIL'}  {rep['name']} ({rep['cases']} cases)")
    if args.out is not None:
        _write_json(args.out, {"suites": reports})
    return 0 if all(rep["passed"] for rep in reports) else 1


_COMMANDS = {
    "count": _cmd_count,
    "inner-product": _cmd_pair,
    "hamming": _cmd_pair,
    "compare-miqae": _cmd_compare,
    "bench": _cmd_bench,
    "prop-check": _cmd_prop_check,
}


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _add_common(
    sub: argparse.ArgumentParser, out: Union[str, None] = None, seeded: bool = True
) -> None:
    if seeded:
        sub.add_argument("--seed", type=_non_negative_int, default=0,
                         help="base RNG seed (default 0)")
    sub.add_argument("--out", type=str, default=out, help="output path")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file supplying defaults; flags win")


def _add_estimation(sub: argparse.ArgumentParser, epsilon: float, alpha: float) -> None:
    sub.add_argument("--k", type=int, default=1, help="log2 node count")
    sub.add_argument("--backend", choices=tuple(BACKENDS), default="analytic")
    sub.add_argument("--epsilon", type=float, default=None,
                     help=f"global target half-width (default {epsilon:g})")
    sub.add_argument("--alpha", type=float, default=None,
                     help=f"global significance level (default {alpha:g})")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so that `main`
    reports them as it reports every other rejection. Its subparsers are
    made of this class too."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing reads it and changes nothing in it."""
    parser = _Parser(
        prog="dqcount",
        description="Distributed approximate-counting experiment driver",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="repeated distributed counting runs")
    _add_common(p, out="count-out")
    _add_estimation(p, _COUNT_EPSILON, _COUNT_ALPHA)
    p.add_argument("--n", type=int, default=None, help="index register width")
    p.add_argument("--marked", type=str, default=None,
                   help="comma-separated marked indices")
    p.add_argument("--oracle-file", type=str, default=None,
                   help="marked-set file (ints or bit strings, one per line)")
    p.add_argument("--epsilon-node", type=float, default=None,
                   help="per-node half-width (alternative to --epsilon)")
    p.add_argument("--alpha-node", type=float, default=None,
                   help="per-node significance (alternative to --alpha)")
    p.add_argument("--scheme", choices=(PREFIX, STRIDE), default=PREFIX)
    p.add_argument("--reps", type=_positive_int, default=1,
                   help="repetitions (default 1)")
    p.add_argument("--trace", action="store_true", help="also write trace.csv")

    for cmd, blurb in (("inner-product", "inner product"), ("hamming", "Hamming distance")):
        p = subs.add_parser(cmd, help=f"two-party {blurb} estimation")
        _add_common(p)
        _add_estimation(p, _PAIR_EPSILON, _PAIR_ALPHA)
        p.set_defaults(epsilon=_PAIR_EPSILON, alpha=_PAIR_ALPHA)
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
    p.add_argument("--shots-per-batch", type=_positive_int,
                   default=MiqaeConfig.shots_per_batch,
                   help="MIQAE shots between interval updates (default %(default)s)")

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
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(_config_argv(args, argv))
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the flush at
        # shutdown prints nothing, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code

if __name__ == "__main__":
    sys.exit(main())
