"""Discrete group backends used as grading targets.

Two backends cover the desk-scale needs with exact arithmetic:

* :class:`FiniteGroup` — a Cayley table over elements ``0..n-1``, with the
  identity index and inverse table derived (and checked) at construction.
  Associativity is decided by Light's test over greedy generators
  (:func:`light_associative`), O(n^2 log n) for a group table; the n^3
  sweep of :func:`first_nonassociative_triple` runs only on small tables
  and to name the witness of a failure.
* :class:`FreeAbelianGroup` — rank-``k`` free abelian group; elements are
  integer ``k``-tuples under componentwise addition.

Elements are plain Python values (``int`` or ``tuple[int, ...]``) so they can
serve directly as dictionary keys and serialize canonically.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .validation import ReadOnly


def strict_int(value: Any) -> int:
    """An integer argument, checked rather than cast: ints and numpy integers
    pass; bools, floats and strings raise TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"expected an integer, got {value!r}")


def _index_table(cayley: Sequence[Sequence[int]] | np.ndarray, n: int) -> np.ndarray:
    """The entries of a square table as an (n, n) integer array, each in
    [0, n).  An (n, n) integer ndarray is copied, and rows that are lists
    or tuples of n plain ints take one type scan; either takes one range
    check.  Otherwise, or on a violation, the rows are read one at a time:
    the length, each entry through :func:`strict_int`, then the range, so
    the first violation raises as that row loop finds it."""
    table = None
    if isinstance(cayley, np.ndarray):
        if cayley.dtype.kind in "iu" and cayley.shape == (n, n):
            table = cayley.astype(np.intp)
    elif all(isinstance(row, (list, tuple)) and len(row) == n for row in cayley):
        if set(map(type, itertools.chain.from_iterable(cayley))) <= {int}:
            try:
                table = np.array(cayley, dtype=np.intp)
            except OverflowError:  # an entry past the integer range; the row loop names it
                pass
    if table is not None and ((table >= 0) & (table < n)).all():
        return table
    rows = []
    for i, row in enumerate(cayley):
        if len(row) != n:
            raise ValueError(f"Cayley row {i} has length {len(row)}, expected {n}.")
        rows.append([strict_int(x) for x in row])
        for x in rows[-1]:
            if not 0 <= x < n:
                raise ValueError(f"Cayley entry {x} at row {i} out of range [0,{n - 1}].")
    return np.array(rows, dtype=np.intp)


# a table of at most this many triples is only swept; a larger one is first
# decided by Light's test
SWEEP_ENTRIES = 1 << 14


def greedy_generators(table: np.ndarray) -> Iterator[int]:
    """Elements s_1, s_2, ... of a square table whose entries index its rows,
    each the first element outside the closure under products of those
    before it.  The closure is grown by squaring the member set, C -> C u CC,
    until it stops growing; so the generators generate the whole table under
    its product, associative or not.  In a group each new generator at least
    doubles the closure, so there are at most log2(n) + 1 of them.  Each
    generator is yielded before the closure over it is grown, so a caller
    that stops early pays for no further closure."""
    member = np.zeros(len(table), dtype=bool)
    while not member.all():
        s = int(np.argmin(member))
        yield s
        member[s] = True
        size = 0
        while size != member.sum():
            closure = np.flatnonzero(member)
            size = len(closure)
            member[table[closure[:, None], closure]] = True


def light_associative(table: np.ndarray) -> bool:
    """Whether a square table whose entries index its rows is associative,
    by Light's test (Clifford and Preston, The Algebraic Theory of
    Semigroups I, AMS 1961, section 1.2).  The elements s with
    (xs)y = x(sy) for all x, y are closed under the product in any magma,
    so it suffices to check them on a generating set: one n x n comparison
    per element of :func:`greedy_generators`, (xs)y along rows x against
    x(sy) along columns y, on a copy of the table in the narrowest unsigned
    dtype (a uint16 S6 table gathers about 7x faster than an intp one)."""
    table = table.astype(np.min_scalar_type(len(table) - 1))
    return all(np.array_equal(table[table[:, s]], table[:, table[s]]) for s in greedy_generators(table))


def first_nonassociative_triple(table: np.ndarray) -> tuple[int, int, int] | None:
    """The lexicographically first (a, b, c) with (ab)c != a(bc) in a square
    table whose entries index its rows, or None when the table is
    associative.  A table of more than ``SWEEP_ENTRIES`` triples is first
    decided by :func:`light_associative`; the sweep, which names the
    witness, runs on the others and on a failed test.  It takes one row of
    the first factor a at a time: (ab)c against a(bc) for all b, c at once,
    b along rows."""
    if len(table) ** 3 > SWEEP_ENTRIES and light_associative(table):
        return None
    for a, row in enumerate(table):
        bad = table[row] != row[table]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return a, int(b), int(c)
    return None


class DiscreteGroup(ReadOnly):
    """Shared interface for the two group backends."""

    __slots__ = ()
    name: str

    def mul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def inv(self, a: Any) -> Any:
        raise NotImplementedError

    @property
    def identity(self) -> Any:
        raise NotImplementedError

    def contains(self, el: Any) -> bool:
        raise NotImplementedError

    def canonical(self, el: Any) -> Any:
        """Normalize an element (e.g. list -> tuple); raise ValueError if foreign."""
        raise NotImplementedError

    def element_key(self, el: Any) -> str:
        """Canonical string key for reports and JSON maps."""
        raise NotImplementedError

    def sort_key(self, el: Any) -> tuple:
        """Deterministic ordering key for elements of this group."""
        raise NotImplementedError

    def element_to_json(self, el: Any) -> Any:
        raise NotImplementedError

    def element_array(self, elements: Sequence[Any]) -> np.ndarray | None:
        """Elements that :meth:`contains` accepts as one array, an entry (or
        row) each, on which :meth:`mul_array` computes exactly; read by one
        type scan and one conversion.  A finite group takes plain ints in
        [0, order) as an intp array; Z^k takes tuples of k plain ints as
        (m, k) int64 rows (Python ints past 2**62).  Anything else gives
        None: bools, floats, strings, None, numpy scalars, an index out of
        range, and for Z^k lists, bare ints and vectors of another length.
        The caller's per-entry loop then names the first bad entry."""
        return self.read_elements(elements)

    def read_elements(self, values: Sequence[Any]) -> np.ndarray | None:
        """As :meth:`element_array`, also taking the JSON forms that
        :meth:`canonical` normalizes."""
        raise NotImplementedError

    def elements_of(self, values: np.ndarray) -> list[Any]:
        """The canonical elements of an :meth:`element_array` result."""
        raise NotImplementedError

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class FiniteGroup(DiscreteGroup):
    """Finite group given by a Cayley table over element indices 0..n-1.

    ``cayley`` holds the Cayley table and ``inverse_table`` the inverse of
    each element, as read-only integer arrays.  The constructor checks the
    table axioms (closure, a two-sided identity, two-sided inverses,
    associativity, in that order) and raises ``ValueError`` with a witness
    on the first violation.  The last three are array comparisons on the
    table; associativity is :func:`first_nonassociative_triple`, which
    decides a table of more than ``SWEEP_ENTRIES`` triples by Light's test
    (at most log2(n) + 1 gathers of n x n) and sweeps the triples only when
    the test fails, so the witness (a, b, c) is the lexicographically first
    failing triple.
    """

    __slots__ = ("name", "order", "cayley", "identity_index", "inverse_table")

    def __init__(self, cayley: Sequence[Sequence[int]] | np.ndarray, *, name: str = "finite") -> None:
        n = len(cayley)
        if n == 0:
            raise ValueError("Cayley table must be nonempty.")
        cayley_table = _index_table(cayley, n)
        elements = np.arange(n)
        is_identity = (cayley_table == elements).all(axis=1) & (cayley_table.T == elements).all(axis=1)
        if not is_identity.any():
            raise ValueError("Cayley table has no two-sided identity.")
        identity = int(np.argmax(is_identity))
        inverse_pairs = (cayley_table == identity) & (cayley_table.T == identity)
        has_inverse = inverse_pairs.any(axis=1)
        if not has_inverse.all():
            raise ValueError(f"Element {int(np.argmin(has_inverse))} has no two-sided inverse.")
        triple = first_nonassociative_triple(cayley_table)
        if triple is not None:
            raise ValueError("Cayley table not associative at triple ({},{},{}).".format(*triple))
        inverse_table = inverse_pairs.argmax(axis=1)
        cayley_table.flags.writeable = inverse_table.flags.writeable = False
        self._set(name=name, order=n, cayley=cayley_table, identity_index=identity, inverse_table=inverse_table)

    def _element(self, a: Any) -> int:
        a = strict_int(a)
        if not 0 <= a < self.order:
            raise ValueError(f"Element index {a} out of range [0,{self.order - 1}].")
        return a

    def mul(self, a: int, b: int) -> int:
        return self.cayley.item(self._element(a), self._element(b))

    def inv(self, a: int) -> int:
        return self.inverse_table.item(self._element(a))

    @property
    def identity(self) -> int:
        return self.identity_index

    def elements(self) -> range:
        return range(self.order)

    def contains(self, el: Any) -> bool:
        return isinstance(el, int) and not isinstance(el, bool) and 0 <= el < self.order

    def canonical(self, el: Any) -> int:
        if isinstance(el, bool) or not isinstance(el, int):
            raise ValueError(f"Finite group element must be an integer index, got {el!r}.")
        if not 0 <= el < self.order:
            raise ValueError(f"Element index {el} out of range [0,{self.order - 1}].")
        return int(el)

    def element_key(self, el: int) -> str:
        return str(int(el))

    def sort_key(self, el: int) -> tuple:
        return (int(el),)

    def element_to_json(self, el: int) -> int:
        return int(el)

    def read_elements(self, values: Sequence[Any]) -> np.ndarray | None:
        """An intp array of plain ints in [0, order); bools, floats, numpy
        integers, any other type and an index out of range give None."""
        if set(map(type, values)) <= {int} and 0 <= min(values, default=0) and max(values, default=0) < self.order:
            return np.array(values, dtype=np.intp)
        return None

    def elements_of(self, values: np.ndarray) -> list[int]:
        return values.tolist()

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.cayley[a, b]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


class FreeAbelianGroup(DiscreteGroup):
    """Free abelian group Z^k; elements are integer k-tuples, identity is zero."""

    __slots__ = ("rank", "name")

    def __init__(self, rank: int, *, name: str | None = None) -> None:
        rank = strict_int(rank)
        if rank < 0:
            raise ValueError(f"Rank must be nonnegative, got {rank}.")
        self._set(rank=rank, name=name or f"Z^{rank}")

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(x) + int(y) for x, y in zip(self.canonical(a), self.canonical(b)))

    def inv(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple(-int(x) for x in self.canonical(a))

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def contains(self, el: Any) -> bool:
        return (
            isinstance(el, tuple)
            and len(el) == self.rank
            and all(isinstance(x, int) and not isinstance(x, bool) for x in el)
        )

    def canonical(self, el: Any) -> tuple[int, ...]:
        if isinstance(el, (list, tuple)):
            values = tuple(el)
        elif self.rank == 1 and isinstance(el, int) and not isinstance(el, bool):
            values = (el,)
        else:
            raise ValueError(f"Free abelian element must be a length-{self.rank} integer vector, got {el!r}.")
        if len(values) != self.rank:
            raise ValueError(f"Element {el!r} has length {len(values)}, expected rank {self.rank}.")
        out = []
        for x in values:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"Element {el!r} has non-integer coordinate {x!r}.")
            out.append(int(x))
        return tuple(out)

    def element_key(self, el: Sequence[int]) -> str:
        return ",".join(str(x) for x in self.canonical(el))

    def sort_key(self, el: Sequence[int]) -> tuple:
        return self.canonical(el)

    def element_to_json(self, el: Sequence[int]) -> list[int]:
        return list(self.canonical(el))

    def element_array(self, elements: Sequence[Any]) -> np.ndarray | None:
        """Tuples of ``rank`` plain ints as :meth:`read_elements` reads them;
        lists and bare ints give None here."""
        return self.read_elements(elements) if set(map(type, elements)) <= {tuple} else None

    def read_elements(self, values: Sequence[Any]) -> np.ndarray | None:
        """An (m, rank) array of lists or tuples of ``rank`` plain ints, or
        at rank 1 of bare ints: int64 while every coordinate is below 2**62
        in size, so that a sum of two stays in range, and Python ints
        otherwise.  Bools, floats, strings, None, nested lists and vectors
        of another length give None."""
        kinds = set(map(type, values))
        if self.rank == 1 and kinds == {int}:
            coords = values
        elif kinds <= {list, tuple} and set(map(len, values)) <= {self.rank}:
            coords = list(itertools.chain.from_iterable(values))
            if not set(map(type, coords)) <= {int}:
                return None
        else:
            return None
        small = -(2**62) < min(coords, default=0) and max(coords, default=0) < 2**62
        return np.array(coords, dtype=np.int64 if small else object).reshape(len(values), self.rank)

    def elements_of(self, values: np.ndarray) -> list[tuple[int, ...]]:
        return list(map(tuple, values.tolist()))

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def __repr__(self) -> str:
        return f"FreeAbelianGroup(rank={self.rank})"


def cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group Z/n with additive Cayley table."""
    n = strict_int(n)
    if n <= 0:
        raise ValueError(f"Cyclic group order must be positive, got {n}.")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"Z/{n}")


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], name="trivial")


def permutations_of(n: int) -> list[tuple[int, ...]]:
    """All permutations of range(n) in lexicographic order; fixes element indexing of S_n."""
    return list(itertools.permutations(range(n)))


def permutation_parity(perm: Iterable[int]) -> int:
    """0 for even permutations, 1 for odd."""
    perm = list(perm)
    seen = [False] * len(perm)
    parity = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) % 2
    return parity


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group S_n; element i is permutations_of(n)[i], product is composition (p.q)(x) = p(q(x))."""
    n = strict_int(n)
    if n <= 0:
        raise ValueError(f"Symmetric group degree must be positive, got {n}.")
    perms = np.array(permutations_of(n), dtype=np.intp)
    # a permutation's digits in base n, read as an integer code; the index
    # of a product is its code's entry in the inverse of the code list
    place = n ** np.arange(n - 1, -1, -1)
    index_of_code = np.zeros(n**n, dtype=np.intp)
    index_of_code[perms @ place] = np.arange(len(perms))
    product_codes = np.zeros((len(perms), len(perms)), dtype=np.intp)
    for k in range(n):  # digit k of p.q is p(q(k)), p along rows
        product_codes += perms[:, perms[:, k]] * place[k]
    return FiniteGroup(index_of_code[product_codes], name=f"S{n}")
