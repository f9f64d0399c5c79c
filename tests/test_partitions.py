import copy
import operator
import pickle
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tropwitt import symfunc
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


@pytest.mark.parametrize("n", range(21))
def test_enumerate_matches_brute_oracle(n):
    assert [p.parts for p in partitions_of(n)] == partitions_brute(n)


def test_enumerate_refuses_a_negative_size():
    with pytest.raises(ValueError) as got:
        partitions_of(-1)
    assert str(got.value) == "n must be nonnegative"


@pytest.mark.parametrize("n", range(13))
def test_partitions_up_to_is_every_size_sorted(n):
    # partitions_up_to reverses each size's list, without sorting
    every = [lam for k in range(n + 1) for lam in partitions_of(k)]
    assert partitions_up_to(n) == tuple(sorted(every))


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


def test_printed_form_names_only_a_part_past_the_digit_limit():
    for p in partitions_up_to(6):
        assert str(p) == f"({','.join(map(str, p))})"
    assert str(Partition([10**1000 - 1, 2])) == f"({'9' * 1000},2)"
    assert str(Partition([10**1000, 2])) == "(<integer of more than 1000 digits>,2)"


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
@example([-(10**5000)])
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


tuple_parts = st.lists(st.integers(min_value=1, max_value=12), max_size=12)


@given(st.lists(tuple_parts, min_size=1, max_size=6))
def test_a_partition_is_the_tuple_of_its_parts(lists):
    symfunc._prefix(6)  # index the basis up to size 6
    ps = [Partition(parts) for parts in lists]
    for parts, p in zip(lists, ps):
        plain = tuple(sorted(parts, reverse=True))
        assert p == plain and plain == p and hash(p) == hash(plain)
        assert Partition.from_key(p.key()) == p
        for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert type(back) is Partition and back == p
        if p.size <= 6:
            assert symfunc._index[tuple(p)] == symfunc._index[p]
    # the size-first order, not the tuple's lexicographic one
    def by_key(p):
        return (sum(p), tuple(p))

    assert sorted(ps) == sorted(ps, key=by_key)
    assert max(ps) == max(ps, key=by_key)


@given(st.one_of(st.tuples(st.integers(1, 3)), st.integers(), st.text(max_size=2), st.none()))
@example((2,))
@example(1)
@example("1")
@example(None)
def test_partitions_are_ordered_only_among_themselves(other):
    # once other < p recursed without end, and p < 1 raised AttributeError
    p = Partition([1])
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(p, other)
        with pytest.raises(TypeError):
            compare(other, p)
    for items in ([p, other], [other, p]):
        with pytest.raises(TypeError):
            sorted(items)
