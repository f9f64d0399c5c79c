import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tropwitt.errors import FormatError
from tropwitt.partitions import (
    EMPTY,
    Partition,
    covers,
    hook_dimension,
    partitions_of,
    partitions_up_to,
)

from documents import loaded, near_miss_keys, near_miss_partitions
from oracles import count_syt, partition_count, partitions_brute

small_parts = st.lists(st.integers(min_value=1, max_value=6), max_size=6)


def test_enumerate_zero():
    assert partitions_of(0) == (EMPTY,)


def test_enumerate_three():
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]


@pytest.mark.parametrize("n", range(11))
def test_enumerate_matches_brute_oracle(n):
    assert [p.parts for p in partitions_of(n)] == partitions_brute(n)


@pytest.mark.parametrize("n", range(13))
def test_enumerate_count_matches_recurrence(n):
    assert len(partitions_of(n)) == partition_count(n)


def test_enumerate_six_has_eleven():
    assert len(partitions_of(6)) == 11


def test_order_examples():
    assert Partition([1, 1]) < Partition([2])
    assert Partition([3]) > Partition([2, 1])
    assert Partition([5]) > Partition([1, 1])  # size dominates


def test_order_is_total_on_small_partitions():
    elems = partitions_up_to(8)
    keys = [p.sort_key() for p in elems]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)  # partitions_up_to emits ascending order
    for p in elems:
        for q in elems:
            assert (p < q) == (p.sort_key() < q.sort_key())
            assert p < q or q < p or p == q  # totality
            assert not (p < q and q < p)  # antisymmetry
    # transitivity, exhaustively on the comparison keys
    for a in keys:
        for b in keys:
            if not a < b:
                continue
            for c in keys:
                if b < c:
                    assert a < c


def test_covers_examples():
    assert covers(EMPTY) == (Partition([1]),)
    assert covers(Partition([1])) == (Partition([2]), Partition([1, 1]))
    assert covers(Partition([2, 1])) == (
        Partition([3, 1]),
        Partition([2, 2]),
        Partition([2, 1, 1]),
    )


@pytest.mark.parametrize("n", range(6))
def test_covers_against_brute_filter(n):
    def contains(big, small):
        pad = big.parts + (0,) * (small.length - big.length)
        return all(b >= s for b, s in zip(pad, small.parts))

    for lam in partitions_of(n):
        expected = [mu for mu in partitions_of(n + 1) if contains(mu, lam)]
        assert sorted(covers(lam)) == sorted(expected)


def test_hook_dimension_examples():
    assert hook_dimension(EMPTY) == 1
    assert hook_dimension(Partition([2, 1])) == 2
    for n in range(1, 9):
        assert hook_dimension(Partition([n])) == 1
        assert hook_dimension(Partition([1] * n)) == 1


def test_hook_dimension_matches_tableau_recursion():
    for lam in partitions_up_to(8):
        assert hook_dimension(lam) == count_syt(lam.parts)


def test_branching_identity():
    for lam in partitions_up_to(8):
        total = sum(hook_dimension(mu) for mu in covers(lam))
        assert total == (lam.size + 1) * hook_dimension(lam)


@given(small_parts)
def test_constructor_normalizes(parts):
    p = Partition(parts)
    assert list(p.parts) == sorted(parts, reverse=True)
    assert p.size == sum(parts)


@given(small_parts)
def test_key_round_trip(parts):
    p = Partition(parts)
    assert Partition.from_key(p.key()) == p
    assert Partition.from_json(p.to_json()) == p


def test_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition([0])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_from_json_rejects_bad_shapes():
    with pytest.raises(FormatError):
        Partition.from_json("2,1")
    for data in ([2, "1"], [0], [2, -1], [True], [1.5]):
        with pytest.raises(FormatError):
            Partition.from_json(data)
    for key in ("2,x", "0", "2,0", "-1"):
        with pytest.raises(FormatError):
            Partition.from_key(key)


@given(near_miss_partitions)
def test_partition_loader_on_near_miss_documents(data):
    got = loaded(Partition.from_json, data)
    assert got is FormatError or Partition.from_json(got.to_json()) == got


def _key_oracle(key: str):
    """The partition that a key names, or FormatError.  A key is "" for ∅,
    or positive parts joined by commas, each part one or more ASCII digits
    (leading zeros allowed) and at most the 4300 digits that int() reads."""
    if key == "":
        return Partition()
    if not re.fullmatch(r"[0-9]+(,[0-9]+)*", key):
        return FormatError
    texts = key.split(",")
    if any(len(t) > 4300 or t.strip("0") == "" for t in texts):
        return FormatError
    return Partition(int(t) for t in texts)


@given(near_miss_keys)
@example("9" * 5000)
@example("1,,2")
@example(" 1")
@example("+1")
@example("1_0")
@example("٣")
@example("2, 1")
@example("01")
def test_partition_key_reader_on_near_miss_keys(key):
    want = _key_oracle(key)
    got = loaded(Partition.from_key, key)
    assert got == want
    assert got is FormatError or Partition.from_key(got.key()) == got
