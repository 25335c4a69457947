"""Associativity by Light's test against the plain triple sweep.

``first_nonassociative_triple`` decides a large table by Light's test over
greedy generators and sweeps the triples only to name a failure's witness.
The row sweep it replaced is kept here as ``reference_first_nonassociative_triple``;
on non-associative loops, on group tables with two entries swapped and on
every builtin group up to S5 both must return the same triple, also with
Light's test forced on the smallest tables, and ``light_associative`` must
agree with it.
``reference_closure`` pins the greedy generators: each is the least element
outside the closure of those before it, and together they generate.
"""

from __future__ import annotations

import itertools
import math
import timeit
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_workbench import groups
from groupoid_workbench.groups import (
    FiniteGroup,
    cyclic_group,
    first_nonassociative_triple,
    greedy_generators,
    light_associative,
    permutations_of,
    symmetric_group,
    trivial_group,
)


def reference_first_nonassociative_triple(table: np.ndarray) -> tuple[int, int, int] | None:
    """The v0.8.0 sweep: one row of the first factor a at a time, (ab)c
    against a(bc) for all b, c, b along rows."""
    for a, row in enumerate(table):
        bad = table[row] != row[table]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return a, int(b), int(c)
    return None


def reference_closure(table: np.ndarray, generators: list[int]) -> set[int]:
    """The closure of ``generators`` under the table's product, by adding
    every product of two members until none is new."""
    members = set(generators)
    while True:
        grown = members | {int(table[x, y]) for x in members for y in members}
        if grown == members:
            return members
        members = grown


def assert_same_verdict(table: np.ndarray) -> None:
    want = reference_first_nonassociative_triple(table)
    assert light_associative(table) == (want is None)
    assert first_nonassociative_triple(table) == want
    # Light's test first on every table, however small
    with mock.patch.object(groups, "SWEEP_ENTRIES", 0):
        assert first_nonassociative_triple(table) == want


def assert_greedy(table: np.ndarray) -> None:
    generators = list(greedy_generators(table))
    for k, s in enumerate(generators):
        assert s == min(set(range(len(table))) - reference_closure(table, generators[:k]))
    assert reference_closure(table, generators) == set(range(len(table)))


@st.composite
def loops(draw) -> np.ndarray:
    """A loop of even order n = 2h: Z/n with intercalates flipped, then
    relabelled.  In Z/n the cells (a, c), (a, c+h), (a+h, c), (a+h, c+h)
    hold two values crosswise; swapping them keeps a Latin square, and
    with a, c off {0, h} the identity 0 stays.  A flip usually breaks
    associativity; a random relabelling moves the identity off index 0."""
    h = draw(st.integers(3, 20))
    n = 2 * h
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    for a, c in draw(st.lists(st.tuples(st.integers(1, h - 1), st.integers(1, h - 1)), min_size=1, max_size=4)):
        rows, cols = np.array([[a], [a + h]]), np.array([c, c + h])
        block = table[rows, cols]
        if block[0, 0] == block[1, 1] and block[0, 1] == block[1, 0]:
            table[rows, cols] = block[::-1]
    perm = np.array(draw(st.permutations(range(n))))
    relabelled = np.empty_like(table)
    relabelled[perm[:, None], perm] = perm[table]
    return relabelled


def builtin_groups() -> list:
    return [trivial_group()] + [cyclic_group(n) for n in range(2, 13)] + [symmetric_group(n) for n in range(1, 6)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(loops())
def test_loops_match_the_sweep(table):
    assert_same_verdict(table)
    assert_greedy(table)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_groups_with_two_entries_swapped_match_the_sweep(data):
    group = data.draw(st.sampled_from(builtin_groups()[1:]))
    table = group.cayley.copy()
    n = group.order
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    (a, b), (c, d) = data.draw(cells), data.draw(cells)
    table[a, b], table[c, d] = table[c, d], table[a, b]
    assert_same_verdict(table)


def test_loop_examples_are_mostly_not_associative():
    """The loop strategy reaches the failing branch: of its first examples,
    most are not associative."""
    verdicts = []

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(loops())
    def collect(table):
        verdicts.append(reference_first_nonassociative_triple(table) is None)

    collect()
    assert verdicts.count(False) > len(verdicts) // 2


@pytest.mark.parametrize("group", builtin_groups(), ids=lambda grp: grp.name)
def test_builtin_groups_are_associative(group):
    table = group.cayley
    assert reference_first_nonassociative_triple(table) is None
    assert_same_verdict(table)
    assert_greedy(table)
    # each generator at least doubles the closure of a group
    assert len(list(greedy_generators(table))) <= math.floor(math.log2(group.order)) + 1


def test_hand_loop_of_order_five():
    """Every element of this loop is its own inverse, which no group of
    order 5 allows; Light's test over its generators must see it."""
    table = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    assert not light_associative(table)
    assert_same_verdict(table)


def test_symmetric_group_6_builds_within_bound():
    """S6 (720 elements) builds, associativity check included, in at most
    0.2 s, best of three; the n^3 sweep alone took 1.3-4.6 s on a shared
    2-vCPU machine."""
    assert min(timeit.repeat(lambda: symmetric_group(6), number=1, repeat=3)) <= 0.2
    s6 = symmetric_group(6)
    perms = permutations_of(6)
    rng = np.random.default_rng(6)
    for p, q in rng.integers(720, size=(50, 2)):
        composed = tuple(perms[p][perms[q][x]] for x in range(6))
        assert perms[s6.mul(int(p), int(q))] == composed
    assert len(list(greedy_generators(s6.cayley))) <= 10


def involution_table(n: int) -> np.ndarray:
    """Identity 0, x x = 0 and x y = 0 for distinct x, y != 0: it passes
    closure, identity and inverses, and its greedy generators are all n
    elements, since the closure of 0..k is itself."""
    table = np.zeros((n, n), dtype=np.intp)
    table[0] = table[:, 0] = np.arange(n)
    return table


def test_many_generators_rejected_at_the_first_failing_one():
    """Light's test stops at the first generator that fails, s = 1, before
    the closure over it is grown; an order-720 table with 720 greedy
    generators is rejected in at most 0.2 s, best of three, where closing
    over every generator first gathers about 2.5e8 entries."""
    table = involution_table(720)
    assert list(greedy_generators(involution_table(8))) == list(range(8))
    assert not light_associative(table)
    rows = table.tolist()

    def reject() -> None:
        with pytest.raises(ValueError, match=r"not associative at triple \(1,1,2\)"):
            FiniteGroup(rows)

    assert min(timeit.repeat(reject, number=1, repeat=3)) <= 0.2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_tables_compose_permutations(n):
    perms = permutations_of(n)
    table = symmetric_group(n).cayley
    for (i, p), (j, q) in itertools.product(enumerate(perms), repeat=2):
        assert perms[table[i, j]] == tuple(p[q[x]] for x in range(n))
