import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dqcount.oracle import (
    MAX_N,
    SubOracle,
    check_split,
    decompose_prefix,
    decompose_stride,
    hamming_suboracle,
    inner_product_suboracle,
    load_bit_vector,
    load_marked_set,
    make_oracle,
)


def test_make_oracle_counts():
    assert make_oracle(6, {38, 8, 16}).t == 3
    assert make_oracle(3, set()).t == 0
    assert make_oracle(3, set(range(8))).t == 8


def test_make_oracle_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_oracle(3, {8})
    with pytest.raises(ValueError):
        make_oracle(2, {-1})
    with pytest.raises(ValueError):
        make_oracle(0, set())


def test_decompose_prefix_example():
    oracle = make_oracle(6, {38, 8, 16})
    subs = decompose_prefix(oracle, 1)
    assert subs[0].marked_local == frozenset({0b01000, 0b10000})
    assert subs[1].marked_local == frozenset({0b00110})
    assert [s.m for s in subs] == [5, 5]


def test_decompose_prefix_trivial():
    assert all(
        not s.marked_local for s in decompose_prefix(make_oracle(4, set()), 2)
    )
    subs = decompose_prefix(make_oracle(3, set(range(8))), 1)
    assert [s.t_local for s in subs] == [4, 4]


def test_decompose_stride_examples():
    oracle = make_oracle(6, {38, 8, 16})
    subs = decompose_stride(oracle, 1)
    # brute force over g(i) = 2i + j
    even = {i for i in range(32) if 2 * i in oracle.marked}
    odd = {i for i in range(32) if 2 * i + 1 in oracle.marked}
    assert even == {19, 4, 8}
    assert subs[0].marked_local == frozenset(even)
    assert subs[1].marked_local == frozenset(odd) == frozenset()

    subs = decompose_stride(make_oracle(2, {1, 3}), 1)
    assert subs[0].marked_local == frozenset()
    assert subs[1].marked_local == frozenset({0, 1})


def test_decompose_k_range():
    oracle = make_oracle(3, {1})
    for k in (0, 3, 4):
        with pytest.raises(ValueError):
            decompose_prefix(oracle, k)
        with pytest.raises(ValueError):
            decompose_stride(oracle, k)


def test_inner_product_suboracle():
    ones = [1] * 64
    for j in (0, 1):
        assert inner_product_suboracle(ones, ones, 1, j).t_local == 32
    x = [1, 0] * 32
    y = [0, 1] * 32
    for j in (0, 1):
        assert inner_product_suboracle(x, y, 1, j).t_local == 0


def test_inner_product_suboracle_matches_brute_force():
    import random

    rng = random.Random(11)
    x = [rng.randint(0, 1) for _ in range(64)]
    y = [rng.randint(0, 1) for _ in range(64)]
    sub = inner_product_suboracle(x, y, 1, 0)
    assert sub.marked_local == frozenset(
        i for i in range(32) if x[2 * i] * y[2 * i] == 1
    )
    sub = inner_product_suboracle(x, y, 2, 3)
    assert sub.marked_local == frozenset(
        i for i in range(16) if x[4 * i + 3] * y[4 * i + 3] == 1
    )


def test_paired_suboracles_match_brute_force_on_every_node():
    """Lists, tuples and numpy arrays (whose bytes() is their raw buffer,
    not one byte per entry) all mark the brute-force set."""
    import random

    rng = random.Random(13)
    x = [rng.randint(0, 1) for _ in range(64)]
    y = [rng.randint(0, 1) for _ in range(64)]
    inputs = [(x, y), (tuple(x), tuple(y))]
    inputs += [(np.array(x, dtype=d), np.array(y, dtype=d)) for d in (np.int64, np.uint8, bool)]
    for build, keep in (
        (inner_product_suboracle, lambda a, b: a == b == 1),
        (hamming_suboracle, lambda a, b: a != b),
    ):
        for k in (1, 2, 3):
            for j in range(1 << k):
                expected = frozenset(
                    i for i in range(64 >> k) if keep(x[(i << k) | j], y[(i << k) | j])
                )
                for xv, yv in inputs:
                    assert build(xv, yv, k, j).marked_local == expected


def test_hamming_suboracle():
    import random

    rng = random.Random(12)
    x = [rng.randint(0, 1) for _ in range(64)]
    assert hamming_suboracle(x, x, 1, 0).t_local == 0
    flipped = [1 - b for b in x]
    assert hamming_suboracle(x, flipped, 1, 1).t_local == 32
    y = [rng.randint(0, 1) for _ in range(64)]
    sub = hamming_suboracle(x, y, 1, 0)
    assert sub.marked_local == frozenset(
        i for i in range(32) if x[2 * i] ^ y[2 * i] == 1
    )


def test_paired_suboracle_errors():
    with pytest.raises(ValueError):
        inner_product_suboracle([1, 0], [1], 1, 0)
    with pytest.raises(ValueError):
        inner_product_suboracle([1, 0, 1], [1, 0, 1], 1, 0)
    with pytest.raises(ValueError):
        hamming_suboracle([2, 0], [1, 0], 1, 0)


@pytest.mark.parametrize(
    "entry", [0, 1, True, False, np.int64(1), np.int64(0), np.True_, np.False_, np.uint8(1)]
)
def test_paired_suboracle_accepts_what_equals_a_bit(entry):
    x = [1, 0, 1, 1, 0, 0, 1, 0]
    for position in range(8):
        node = position % 4
        odd = x[:position] + [entry] + x[position + 1:]
        plain = x[:position] + [int(entry)] + x[position + 1:]
        for build in (inner_product_suboracle, hamming_suboracle):
            assert build(odd, x, 2, node) == build(plain, x, 2, node)
            assert build(x, odd, 2, node) == build(x, plain, 2, node)


@pytest.mark.parametrize("entry", [2, -1, 0.5, "1", None, [1], float("nan")])
def test_paired_suboracle_entries_are_checked_once_over_the_nodes(entry):
    """A non-bit entry is rejected by the one node whose stride holds it,
    in either vector; the other nodes never read it."""
    x = [1, 0, 1, 1, 0, 0, 1, 0]
    for position in range(8):
        bad = x[:position] + [entry] + x[position + 1:]
        for build in (inner_product_suboracle, hamming_suboracle):
            for node in range(4):
                for pair in ((bad, x), (x, bad)):
                    if node == position % 4:
                        with pytest.raises(ValueError, match="must contain only 0/1"):
                            build(*pair, 2, node)
                    else:
                        build(*pair, 2, node)


@pytest.mark.parametrize("entry", [1.0, 0.0, np.float64(1.0)])
def test_paired_suboracle_rejects_float_bits(entry):
    """A float equals a bit but has no & or ^: a ValueError, not a TypeError."""
    x = [1, 0, 1, 0]
    bad = [entry, 0, 1, 0]
    for build in (inner_product_suboracle, hamming_suboracle):
        for pair in ((bad, x), (x, bad)):
            with pytest.raises(ValueError, match="x and y must contain only integer 0/1"):
                build(*pair, 1, 0)


@given(
    n=st.integers(min_value=2, max_value=10),
    data=st.data(),
)
def test_partition_soundness(n, data):
    """Index x is marked iff its node's slice marks its local index, where
    a prefix split sends x to node x >> m at local index x & (2^m - 1) and
    a stride split to node x & (2^k - 1) at local index x >> k."""
    marked = data.draw(
        st.frozensets(st.integers(min_value=0, max_value=2 ** n - 1), max_size=40)
    )
    oracle = make_oracle(n, marked)
    for k in range(1, n):
        m = n - k
        splits = (
            (decompose_prefix(oracle, k), lambda x: (x >> m, x & ((1 << m) - 1))),
            (decompose_stride(oracle, k), lambda x: (x & ((1 << k) - 1), x >> k)),
        )
        for subs, place in splits:
            assert [(s.m, s.node_id) for s in subs] == [(m, j) for j in range(1 << k)]
            for x in range(1 << n):
                j, i = place(x)
                assert (i in subs[j].marked_local) == (x in marked)
            assert sum(s.t_local for s in subs) == oracle.t


def test_suboracle_validation():
    """A slice width outside [1, MAX_N) or a negative node id raises one
    ValueError line; any non-negative node id is a valid sub-oracle, and
    `aggregate` is what checks the ids of a run's nodes."""
    for m in (0, MAX_N):
        with pytest.raises(ValueError, match=re.escape(f"m must lie in [1, {MAX_N - 1}], got {m}")):
            SubOracle(m=m, node_id=0, marked_local=frozenset())
    with pytest.raises(ValueError, match=re.escape("node_id must be non-negative, got -1")):
        SubOracle(m=3, node_id=-1, marked_local=frozenset())
    with pytest.raises(ValueError):
        SubOracle(m=3, node_id=0, marked_local=frozenset({8}))
    assert SubOracle(m=1, node_id=5, marked_local=frozenset({1})).amplitude == 0.5
    assert SubOracle(m=MAX_N - 1, node_id=0, marked_local=frozenset()).t_local == 0
    assert [f.name for f in dataclasses.fields(SubOracle)] == ["m", "node_id", "marked_local"]


@pytest.mark.parametrize("value", [3.0, 0.5, "3", None, np.float64(3.0)])
def test_non_integer_widths_and_node_ids_raise_value_error(value):
    """A width, node count or node id that `operator.index` rejects raises
    one ValueError line naming the argument, before anything shifts by it."""
    cases = (
        ("n", lambda: make_oracle(value, {1})),
        ("m", lambda: SubOracle(m=value, node_id=0, marked_local={1})),
        ("node_id", lambda: SubOracle(m=3, node_id=value, marked_local={1})),
        ("n", lambda: check_split(value, 1)),
        ("k", lambda: check_split(6, value)),
    )
    for what, build in cases:
        message = f"{what} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_integer_like_widths_and_node_ids_pass_as_ints():
    """Ints, bools and numpy integers are widths and node ids, kept as
    Python ints; an out-of-range one keeps its range message."""
    oracle = make_oracle(np.int64(3), {1})
    sub = SubOracle(m=np.uint8(3), node_id=True, marked_local={1})
    assert (oracle.n, sub.m, sub.node_id) == (3, 3, 1)
    assert all(type(v) is int for v in (oracle.n, sub.m, sub.node_id))
    assert check_split(np.int64(6), True) == 5
    assert type(check_split(np.int16(6), np.int8(2))) is int
    with pytest.raises(ValueError, match=re.escape("k must lie in [1, 5] for n=6, got 6")):
        check_split(6, np.int64(6))
    with pytest.raises(ValueError, match=re.escape("node_id must be non-negative, got -1")):
        SubOracle(m=3, node_id=np.int64(-1), marked_local=frozenset())


def test_out_of_range_members_name_the_first_five_sorted():
    """A member below 0 or at or above 2^n raises one message listing the
    first five bad members in sorted order; the bounds themselves and an
    empty set pass."""
    cases = (
        ({-1, 0, 7}, "[-1]"),
        ({0, 7, 8}, "[8]"),
        ({3, 9, -1, 20, 8, -3, 100, 5, -7}, "[-7, -3, -1, 8, 9]"),
    )
    for marked, listed in cases:
        with pytest.raises(ValueError, match=re.escape(f"marked elements outside [0, 8): {listed}")):
            make_oracle(3, marked)
        with pytest.raises(ValueError,
                           match=re.escape(f"marked_local elements outside [0, 8): {listed}")):
            SubOracle(m=3, node_id=0, marked_local=frozenset(marked))
    assert make_oracle(3, {0, 7}).t == 2
    assert make_oracle(3, set()).t == 0
    assert SubOracle(m=3, node_id=1, marked_local=frozenset()).t_local == 0


@pytest.mark.parametrize("member", [1.5, 2.0, "3", None, np.float64(1.0)])
def test_non_integer_members_raise_value_error(member):
    """A member that `operator.index` rejects raises one ValueError line
    from both classes, also beside integer members it cannot be sorted
    with."""
    for marked in ({member}, {member, 1, 5}):
        with pytest.raises(ValueError, match=r"^marked elements must be integers$"):
            make_oracle(3, marked)
        with pytest.raises(ValueError, match=r"^marked_local elements must be integers$"):
            SubOracle(m=3, node_id=0, marked_local=frozenset(marked))


def test_integer_like_members_pass():
    """Ints, bools and numpy integers are members; a numpy integer out of
    range is listed as its int value."""
    members = {True, np.int64(2), np.uint8(5), 7}
    assert make_oracle(3, members).t == 4
    assert SubOracle(m=3, node_id=0, marked_local=frozenset(members)).t_local == 4
    assert [s.t_local for s in decompose_prefix(make_oracle(3, members), 1)] == [2, 2]
    with pytest.raises(ValueError, match=re.escape("marked elements outside [0, 8): [9]")):
        make_oracle(3, {np.int64(9)})


def test_load_marked_set(tmp_path):
    ints = tmp_path / "ints.txt"
    ints.write_text("38\n8\n16\n")
    assert load_marked_set(ints) == (frozenset({38, 8, 16}), None)

    bits = tmp_path / "bits.txt"
    bits.write_text("100110\n001000\n# comment\n010000\n")
    assert load_marked_set(bits) == (frozenset({38, 8, 16}), 6)

    single = tmp_path / "single.txt"
    single.write_text("0\n1\n")
    assert load_marked_set(single) == (frozenset({0, 1}), None)

    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    assert load_marked_set(empty) == (frozenset(), None)

    bad = tmp_path / "bad.txt"
    bad.write_text("3x\n")
    with pytest.raises(ValueError):
        load_marked_set(bad)

    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff1\n")
    with pytest.raises(ValueError, match=re.escape(f"marked-set file {binary} is not ASCII text")):
        load_marked_set(binary)


def test_load_bit_vector(tmp_path):
    vec = tmp_path / "vec.txt"
    vec.write_text("0110\n1001\n")
    assert load_bit_vector(vec) == [0, 1, 1, 0, 1, 0, 0, 1]
    bad = tmp_path / "bad.txt"
    bad.write_text("012")
    with pytest.raises(ValueError):
        load_bit_vector(bad)
    binary = tmp_path / "binary.txt"
    binary.write_bytes("01é".encode())
    with pytest.raises(ValueError, match=re.escape(f"bit-vector file {binary} is not ASCII text")):
        load_bit_vector(binary)
