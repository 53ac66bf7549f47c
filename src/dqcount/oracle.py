"""Marked-set oracles and their per-node decompositions.

A counting problem is specified by an n-qubit index register and a set of
marked indices. Each of 2^k virtual nodes works on an (n-k)-bit slice of the
index space, obtained either by fixing a k-bit prefix (node j owns the
indices whose top k bits equal j) or by striding (node j owns the indices
congruent to j mod 2^k, so local index i maps to 2^k * i + j).

`check_split` holds the one rule every split obeys: n and k integers, n
at least 2, k at least 1 and below n, and n at most MAX_N. The
decompositions and the two-party builders run it before anything
computes 2^k. A sub-oracle is just its slice: the width m, its node id
and its marked local indices.
Counts are carried as float64 2^m * a, so the index register is capped at
MAX_N = 1023 qubits.

Oracles are plain integer sets; the quantum oracle is realised from this
truth table by the statevector backend.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "OracleSpec",
    "SubOracle",
    "check_split",
    "make_oracle",
    "decompose_prefix",
    "decompose_stride",
    "inner_product_suboracle",
    "hamming_suboracle",
    "load_marked_set",
    "load_bit_vector",
]

PREFIX = "prefix"
STRIDE = "stride"

BitVector = Sequence[int]

# Largest index register whose count scale 2^n is a finite float64.
MAX_N = 1023


def _integer(value, what: str) -> int:
    """`value` as a Python int, for anything `operator.index` takes (an
    int, a bool or a numpy integer); else a one-line ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _check_members(marked: Iterable[int], size: int, what: str) -> None:
    try:
        bad = sorted(x for x in map(operator.index, marked) if not 0 <= x < size)
    except TypeError:  # a float, string, None or other non-integer member
        raise ValueError(f"{what} elements must be integers") from None
    if bad:
        raise ValueError(f"{what} elements outside [0, {size}): {bad[:5]}")


@dataclass(frozen=True)
class OracleSpec:
    """A marked subset of the n-bit index space."""

    n: int
    marked: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in [1, {MAX_N}], got {self.n}")
        object.__setattr__(self, "marked", frozenset(self.marked))
        _check_members(self.marked, 1 << self.n, "marked")

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def t(self) -> int:
        """Ground-truth number of marked elements."""
        return len(self.marked)


@dataclass(frozen=True)
class SubOracle:
    """The restriction of a marked set to one node's m-bit index slice.

    A node run reads these three fields and nothing else. The split that
    produced the slice is checked by `check_split` where it is made, and
    `coordinator.aggregate` checks that the node ids are 0..2^k-1.
    """

    m: int
    node_id: int
    marked_local: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _integer(self.m, "m"))
        object.__setattr__(self, "node_id", _integer(self.node_id, "node_id"))
        if not 1 <= self.m < MAX_N:
            raise ValueError(f"m must lie in [1, {MAX_N - 1}], got {self.m}")
        if self.node_id < 0:
            raise ValueError(f"node_id must be non-negative, got {self.node_id}")
        object.__setattr__(self, "marked_local", frozenset(self.marked_local))
        _check_members(self.marked_local, 1 << self.m, "marked_local")

    @property
    def size(self) -> int:
        return 1 << self.m

    @property
    def t_local(self) -> int:
        return len(self.marked_local)

    @property
    def amplitude(self) -> float:
        """Fraction of the slice that is marked, t_local / 2^m."""
        return self.t_local / self.size


def make_oracle(n: int, marked: Iterable[int]) -> OracleSpec:
    """Build a validated oracle over the n-bit index space."""
    return OracleSpec(n=n, marked=marked)


def check_split(n: int, k: int) -> int:
    """Check a split of n index bits over 2^k nodes; return the slice width n-k."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if n < 2:
        raise ValueError(f"n={n} cannot be split over nodes: n must be at least 2")
    if not 1 <= k < n:
        raise ValueError(f"k must lie in [1, {n - 1}] for n={n}, got {k}")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")
    return n - k


def _decompose(oracle: OracleSpec, k: int, prefix: bool) -> list[SubOracle]:
    """Bucket the marked set by node: node j takes local index i of every
    marked index whose node bits (the top k for a prefix split, the bottom
    k for a stride split) read j and whose other m bits read i."""
    m = check_split(oracle.n, k)
    node_shift, local_shift = (m, 0) if prefix else (0, k)
    node_mask, local_mask = (1 << k) - 1, (1 << m) - 1
    buckets: list[set[int]] = [set() for _ in range(1 << k)]
    for x in oracle.marked:
        buckets[(x >> node_shift) & node_mask].add((x >> local_shift) & local_mask)
    return [SubOracle(m=m, node_id=j, marked_local=b) for j, b in enumerate(buckets)]


def decompose_prefix(oracle: OracleSpec, k: int) -> list[SubOracle]:
    """Split by the top k index bits: node j holds {i | (j << m) | i marked}."""
    return _decompose(oracle, k, prefix=True)


def decompose_stride(oracle: OracleSpec, k: int) -> list[SubOracle]:
    """Split by the bottom k index bits: node j holds {i | 2^k * i + j marked}."""
    return _decompose(oracle, k, prefix=False)


def _check_bits(bits: BitVector, what: str) -> None:
    try:
        ok = set(bits) <= {0, 1}  # the entries == 0 or == 1, as `b in (0, 1)` reads them
    except TypeError:  # an unhashable entry is neither
        ok = False
    if not ok:
        raise ValueError(f"{what} must contain only 0/1 entries")


def _bit_bytes(bits: BitVector) -> Union[np.ndarray, None]:
    """A list or tuple whose entries are all 0 or 1 as one uint8 per entry,
    else None."""
    if not isinstance(bits, (list, tuple)):
        return None  # a numpy array's bytes() is its raw buffer, not its entries
    try:
        packed = bytes(bits)
    except (TypeError, ValueError):  # no __index__ (a numpy bool has none), or outside 0..255
        return None
    if packed.translate(None, b"\x00\x01"):  # some entry is neither 0 nor 1
        return None
    return np.frombuffer(packed, dtype=np.uint8)


def _paired_suboracle(
    x: BitVector, y: BitVector, k: int, node_id: int, pair_bit
) -> SubOracle:
    if len(x) != len(y):
        raise ValueError(f"vector lengths differ: {len(x)} != {len(y)}")
    size = len(x)
    if size < 2 or size & (size - 1):
        raise ValueError(f"vector length {size} is not a power of two >= 2")
    m = check_split(size.bit_length() - 1, k)
    if not 0 <= node_id < (1 << k):
        raise ValueError(f"node_id {node_id} outside [0, {1 << k})")
    # Local index i is global index (i << k) | node_id, so the slice is one
    # stride. Only the slice is checked: the 2^k nodes' builds check each
    # entry once between them.
    stride = 1 << k
    xs, ys = x[node_id::stride], y[node_id::stride]
    # Two list or tuple slices of Python ints, bools or numpy integers, each
    # 0 or 1, take the pair bit on their bytes. Everything else (numpy
    # arrays, numpy bools, floats, other entries) takes the checked path,
    # the one source of the two error messages.
    xb, yb = _bit_bytes(xs), _bit_bytes(ys)
    if xb is not None and yb is not None:
        marked = frozenset(np.flatnonzero(pair_bit(xb, yb)).tolist())
    else:
        _check_bits(xs, "x")
        _check_bits(ys, "y")
        bits = map(pair_bit, xs, ys)
        try:
            marked = frozenset(compress(range(1 << m), bits))
        except TypeError:  # a float such as 1.0 passes the 0/1 check but has no & or ^
            raise ValueError("x and y must contain only integer 0/1 entries") from None
    return SubOracle(m=m, node_id=node_id, marked_local=marked)


def inner_product_suboracle(x: BitVector, y: BitVector, k: int, node_id: int) -> SubOracle:
    """Marked local indices i with x_g AND y_g = 1 for g = 2^k * i + node_id."""
    return _paired_suboracle(x, y, k, node_id, operator.and_)


def hamming_suboracle(x: BitVector, y: BitVector, k: int, node_id: int) -> SubOracle:
    """Marked local indices i with x_g XOR y_g = 1 for g = 2^k * i + node_id."""
    return _paired_suboracle(x, y, k, node_id, operator.xor)


def load_marked_set(path: Union[str, os.PathLike]) -> tuple[frozenset[int], Union[int, None]]:
    """Read a marked set from a text file, one element per line.

    Lines may be decimal integers or 0/1 bit strings. If every non-empty
    line consists solely of 0/1 characters and all lines share a common
    length of at least two, the lines are read as bit strings and that
    common width is returned; otherwise lines are read as integers and the
    width is None. Blank lines and '#' comments are ignored.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError:
        raise ValueError(f"marked-set file {path} is not ASCII text") from None
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        return frozenset(), None
    binary = all(set(ln) <= {"0", "1"} for ln in lines)
    widths = {len(ln) for ln in lines}
    if binary and len(widths) == 1 and (width := widths.pop()) >= 2:
        return frozenset(int(ln, 2) for ln in lines), width
    try:
        return frozenset(int(ln) for ln in lines), None
    except ValueError as exc:
        raise ValueError(f"cannot parse marked-set file {path}: {exc}") from None


def load_bit_vector(path: Union[str, os.PathLike]) -> list[int]:
    """Read a bit vector stored as a single 0/1 string (whitespace ignored)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = "".join(fh.read().split())
    except UnicodeDecodeError:
        raise ValueError(f"bit-vector file {path} is not ASCII text") from None
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"bit-vector file {path} must be a non-empty 0/1 string")
    return [int(c) for c in text]
