"""Hash the outputs of the seeded CLI runs whose bytes must not change.

    python3 tools/hash_suite.py

Runs each command of `suite` in-process through `dqcount.cli.main`, importing
dqcount from the `src` directory of the checkout this file sits in, writes
into a temporary directory, and prints one `name sha256[:16]` line per
output file. Two commits keep the determinism contract on these runs when
their lines are identical. To hash a commit that predates this file, copy
the file into that commit's checkout and run it there.

`hash_suite.expected` beside this file holds the lines of the current
outputs, and a test compares `hashes()` against it. A change that alters
output bytes on purpose re-baselines it in the same commit:

    python3 tools/hash_suite.py > tools/hash_suite.expected
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dqcount.cli import main as cli_main  # noqa: E402


def _bits(seed: int, length: int = 64) -> str:
    """`length` bits, each `random.Random(seed).randint(0, 1)`."""
    rng = random.Random(seed)
    return "".join(str(rng.randint(0, 1)) for _ in range(length))


def suite() -> list[tuple[str, list[str], str, int]]:
    """(run name, argv without --out, output: a directory "" or a file name,
    expected exit code).

    The first run is the README `count` command at 20 repetitions. Every
    run exits 0 but `count-failed-node` and `count-failed-reps`. In the
    first, node 0 (amplitude 20/32 at epsilon_node 0.005) fails before any
    round qualifies, so the command exits 1 and the node reports its last
    round. The second repeats it over three reps.
    """
    x, y = _bits(42), _bits(43)
    runs = [
        ("count-readme", ["count", "--n", "6", "--marked", "38,8,16", "--k", "1",
                          "--epsilon-node", "0.001", "--alpha-node", "0.05",
                          "--reps", "20", "--seed", "0", "--trace"], "", 0),
        ("count-stride-sv", ["count", "--n", "6", "--marked", "38,8,16", "--k", "2",
                             "--scheme", "stride", "--backend", "statevector",
                             "--epsilon", "0.004", "--alpha", "0.1", "--reps", "3",
                             "--seed", "4", "--trace"], "", 0),
    ]
    # both splits of one 51-member set over 8 nodes
    marked = ",".join(map(str, range(3, 256, 5)))
    for scheme in ("prefix", "stride"):
        runs.append((f"count-{scheme}-k3",
                     ["count", "--n", "8", "--marked", marked, "--k", "3", "--scheme", scheme,
                      "--epsilon-node", "0.001", "--alpha-node", "0.01", "--reps", "2",
                      "--seed", "7", "--trace"], "", 0))
    for command, k, seed in (("inner-product", "1", "1"), ("hamming", "2", "2")):
        for backend in ("analytic", "statevector"):
            runs.append((f"{command}-{backend}",
                         [command, "--x", x, "--y", y, "--k", k, "--seed", seed,
                          "--backend", backend],
                         "result.json", 0))
    # a compensated sum of these node counts (Python >= 3.12's sum()) moves
    # the estimate's last bit
    runs.append(("hamming-analytic-seed3",
                 ["hamming", "--x", x, "--y", y, "--k", "2", "--seed", "3"], "result.json", 0))
    # 100-bit vectors, zero-padded to 128 before the stride split
    runs.append(("hamming-statevector-padded",
                 ["hamming", "--x", _bits(44, 100), "--y", _bits(45, 100), "--k", "1",
                  "--seed", "5", "--backend", "statevector"], "result.json", 0))
    runs += [
        ("compare-miqae", ["compare-miqae", "--epsilons", "0.005,0.002", "--reps", "10"], "", 0),
        ("bench", ["bench", "--n", "6", "--k", "1"], "bench.json", 0),
        ("prop-check", ["prop-check", "--seed", "0"], "prop.json", 0),
    ]
    # epsilon at its floor: K reaches millions, and at these amplitudes most
    # DIQC runs take the rotation-rescue branch of the odd-K scan
    for amplitude, reps, batch in (("0.5", "5", "100"), ("0.9", "10", "1")):
        runs.append((f"compare-miqae-deep-a{amplitude}",
                     ["compare-miqae", "--epsilons", "1e-7", "--amplitude", amplitude,
                      "--reps", reps, "--shots-per-batch", batch], "", 0))
    failed_node = ["count", "--n", "6", "--marked", ",".join(map(str, range(20))), "--k", "1",
                   "--epsilon", "0.01", "--alpha", "0.05", "--seed", "94", "--trace"]
    runs.append(("count-failed-node", failed_node, "", 1))
    # three marked indices over 64 nodes: all but two (prefix) or three
    # (stride) slices are empty, on each backend
    runs += [(f"count-empty-{scheme}-{backend}",
              ["count", "--n", "10", "--marked", "3,700,701", "--k", "6", "--reps", "2",
               "--scheme", scheme, "--backend", backend, "--trace"], "", 0)
             for scheme, backend in (("prefix", "analytic"), ("stride", "statevector"))]
    # count-failed-node over three reps: node 0 fails in rep 0 only, so
    # the summary folds a failed rep in with two good ones
    runs.append(("count-failed-reps", failed_node + ["--reps", "3"], "", 1))
    # both ways compare-miqae averages: over DIQC's one good run of two,
    # and over every run when its only run fails
    runs += [(f"compare-miqae-{name}-failed",
              ["compare-miqae", "--amplitude", "0.63", "--epsilons", "0.01",
               "--alpha", "0.05", "--reps", reps, "--seed", seed], "", 0)
             for name, reps, seed in (("one", "2", "630005"), ("all", "1", "630006"))]
    return runs


def hashes() -> list[str]:
    """One `name sha256[:16]` line per output file of the `suite` runs;
    raises RuntimeError naming the first run that does not exit with its
    expected code."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, output, expected in suite():
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv + ["--out", str(out / output)])
            if code != expected:
                raise RuntimeError(f"{name}: exit {code}, expected {expected}")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                lines.append(f"{name}/{path.name} {digest}")
    return lines


def main() -> int:
    try:
        lines = hashes()
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
