"""Finite groupoids with integer composition tables, plus Haar systems.

A groupoid here is a finite set of arrows over a finite unit space.  An
arrow is an id plus two unit numbers, its source ``s(x)`` in ``src_index``
and its range ``r(x)`` in ``dst_index``; ``compose(x, y)`` is defined exactly
when ``s(x) = r(y)`` and then ``r(xy) = r(x)`` and ``s(xy) = s(y)``.  Arrows
and units are numbered in declared order, and the state is read-only
integer tables over those numbers, built at construction: the endpoints,
``invert_index``, ``unit_arrow_index``, ``orbit_base`` and the pair table,
the (x, y, xy) triples of the composable pairs in row-major order.  That
table is the only encoding of composition: a product is read by its
position (:meth:`~FiniteGroupoid.compose_index`), whole rows included, and
no (n, n) table is kept; the :class:`Arrow` records ``arrows`` are a view
built on first read.  Ids are labels only.  The validators are array
reductions in O(composable pairs).

:func:`validate_groupoid` proves associativity with a structure certificate:
by the structure theorem (Renault, LNM 793, ch. I) a groupoid is, orbit by
orbit, pair(orbit) x the isotropy group of a base unit, and checking that
decomposition costs O(composable pairs) plus the isotropy tables instead of
one comparison per composable triple (n^4 for the pair groupoid on n
points).  The triple sweep runs only to name the witness of a failed
certificate.

A Haar system is stored as one positive weight per unit: left invariance on a
finite groupoid forces the arrow weight ``w(y)`` to depend only on ``s(y)``
(put ``y = unit arrow at s(x)`` in the invariance identity), so the per-unit
table ``rho`` determines the measures ``w(y) = rho(s(y))`` and is valid by
construction.

All values are immutable after construction; a table built on first use is
stored by :func:`once`, which assigns it once.  Operations are pure.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .groups import FiniteGroup, first_nonassociative_triple, strict_int
from .validation import ALG_TOL, CheckReport, ReadOnly


# per block size: (units, arrows, products), and (arrows, products) of the orbit rows
RepTables = tuple[tuple[tuple[str, ...], np.ndarray, np.ndarray], ...]
OrbitRepTables = tuple[tuple[np.ndarray, np.ndarray], ...]


class Arrow(NamedTuple):
    """One arrow: ``src`` is the source unit s(x), ``dst`` the range unit r(x)."""

    id: str
    src: str
    dst: str


def once(cache: dict[Any, Any], key: Any, build: Callable[[Any], Any], arg: Any) -> Any:
    """``cache[key]``, stored as ``build(arg)`` on the first call; callers that miss together all get the first one stored."""
    value = cache.get(key)
    return cache.setdefault(key, build(arg)) if value is None else value


def once_property(build: Callable[[Any], Any]) -> property:
    """A read-only property ``build(self)``, built on first read by :func:`once` into ``self._cache``."""
    return property(lambda self: once(self._cache, build.__name__, build, self), doc=build.__doc__)


class FiniteGroupoid(ReadOnly):
    """Arrows over a finite unit space with integer compose/invert tables.

    ``arrow_ids`` names the n arrows and ``src``/``dst`` hold the unit
    numbers of their sources and ranges; ``compose`` is an (m, 3) integer
    array of (x, y, xy) index triples, each pair at most once, in any order;
    ``invert`` the (n,) table of inverses and ``unit_arrow`` the (n_units,)
    table of unit arrows.  The arrays are taken over and made read-only.
    The constructor checks structural well-formedness (nonempty unit space,
    unique ids, integer tables of these shapes with every entry in range, no
    pair twice), raises ``ValueError`` on violations, and records whether
    the pairs are exactly the composable ones.  The groupoid *axioms* are
    checked by :func:`validate_groupoid`, which reports rather than raises,
    so deliberately broken tables can be built and fed to the validator.

    Unit and arrow order is the declared order; matrix bases and reports
    follow it.
    """

    __slots__ = ("units", "index", "_unit_index", "_index", "_ids", "_src_index", "_dst_index", "_row_at", "_col_at")
    __slots__ += ("_lookup", "_defined", "_invert_index", "_unit_arrow_index", "_orbit_base", "_cache")

    def __init__(
        self,
        units: Sequence[str],
        arrow_ids: Sequence[str],
        src: np.ndarray,
        dst: np.ndarray,
        compose: np.ndarray,
        invert: np.ndarray,
        unit_arrow: np.ndarray,
    ) -> None:
        unit_index, index = numbered(units, arrow_ids)
        # index: an arrow id's number, KeyError if unknown; a C-level call
        self._set(_unit_index=unit_index, _index=index, index=index.__getitem__, units=tuple(unit_index), _ids=tuple(index))
        n = len(self._ids)
        src = _read_only(_checked_table("src", src, (n,), len(self.units)))
        dst = _read_only(_checked_table("dst", dst, (n,), len(self.units)))
        # the composable pair (x, y) sits at row_start[x] + rank[y]: row x
        # holds |G^{s(x)}| pairs, and y is ranked among the arrows into r(y).
        # With the unit numbers scaled by a stride past every such sum,
        # row_at[x] + col_at[y] is that position + 1 (the lookup leads with
        # a -1) plus (s(x) - r(y)) stride, in [1, pairs] exactly when s(x) = r(y)
        into = np.bincount(dst, minlength=len(self.units))
        by_dst = dst.argsort(kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[by_dst] = np.arange(n) - (into.cumsum() - into)[dst[by_dst]]
        row = into[src]
        n_pairs = int(row.sum())
        self._set(_src_index=src, _dst_index=dst, _row_at=row.cumsum() - row + 1 + src * (n_pairs + n), _col_at=rank - dst * (n_pairs + n))
        lookup, defined = self._read_compose(compose, n_pairs)
        invert = _read_only(_checked_table("invert", invert, (n,), n))
        unit_arrow = _read_only(_checked_table("unit_arrow", unit_arrow, (len(self.units),), n))
        base = np.full(len(self.units), len(self.units), dtype=np.intp)
        np.minimum.at(base, dst, src)
        self._set(_lookup=lookup, _defined=defined, _invert_index=invert, _unit_arrow_index=unit_arrow, _orbit_base=_read_only(base))
        self._set(_cache={})  # by once(): records, pairs, bins, rep index, isotropy, embedding per parent

    def _read_compose(self, compose: Any, n_pairs: int) -> tuple[np.ndarray | None, tuple[np.ndarray, ...] | None]:
        """When the pairs are exactly the ``n_pairs`` composable ones, the
        products in row-major pair order between a -1 at each end, and None:
        every product is written at its pair's read position, each position
        once.  Otherwise None, and the triples sorted so, where a repeated
        pair is a ValueError."""
        n = self.n_arrows
        rows = compose.shape[:1] if isinstance(compose, np.ndarray) else (0,)
        x, y, z = _checked_table("compose", compose, (*rows, 3), n).T
        at = self._row_at[x]
        at += self._col_at[y]
        if len(x) == n_pairs and (not n_pairs or (at - 1).view(np.uintp).max() < n_pairs):
            lookup = np.full(n_pairs + 2, -1, dtype=np.intp)
            lookup[at] = z
            if not n_pairs or lookup[1:-1].min() >= 0:
                return _read_only(lookup), None
        keys = x * n + y
        order = np.argsort(keys, kind="stable")
        twice = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
        if twice.size:
            k = order[twice[0]]
            raise ValueError(f"The compose table defines the pair ({self._ids[x[k]]!r},{self._ids[y[k]]!r}) more than once.")
        return None, tuple(_read_only(column[order]) for column in (x, y, z))

    # -- basic accessors ---------------------------------------------------

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_arrows(self) -> int:
        return len(self._ids)

    @property
    def arrow_ids(self) -> tuple[str, ...]:
        return self._ids

    @once_property
    def arrows(self) -> tuple[Arrow, ...]:
        """The arrows as records in declared order, built on first read."""
        ends = zip(self._ids, self._src_index.tolist(), self._dst_index.tolist())
        return tuple(Arrow(aid, self.units[s], self.units[r]) for aid, s, r in ends)

    def arrow(self, aid: str) -> Arrow:
        return self.arrows[self._index[aid]]

    def has_unit(self, u: str) -> bool:
        return u in self._unit_index

    def has_arrow(self, aid: str) -> bool:
        return aid in self._index

    def source(self, aid: str) -> str:
        return self.units[self._src_index[self._index[aid]]]

    def target(self, aid: str) -> str:
        return self.units[self._dst_index[self._index[aid]]]

    def compose_ids(self, a: str, b: str) -> str | None:
        """The id of ab, or None where the product is undefined or an id is
        unknown; read by :meth:`compose_index`, so a ValueError on a table
        that is not exact."""
        i, j = self._index.get(a), self._index.get(b)
        if i is None or j is None:
            return None
        k = self.compose_index(i, j)
        return self._ids[k] if k >= 0 else None

    def invert_id(self, aid: str) -> str:
        return self._ids[self._invert_index[self._index[aid]]]

    def arrows_with_src(self, u: str) -> tuple[str, ...]:
        """Arrow ids x with s(x) = u, in declared order (the set Gu)."""
        return tuple(self._ids[i] for i in np.flatnonzero(self._src_index == self._unit_index[u]))

    # -- integer tables for vectorized operations --------------------------

    @property
    def src_index(self) -> np.ndarray:
        return self._src_index

    @property
    def dst_index(self) -> np.ndarray:
        return self._dst_index

    @property
    def unit_arrow_index(self) -> np.ndarray:
        """The unit arrow of every unit, in declared unit order."""
        return self._unit_arrow_index

    @property
    def invert_index(self) -> np.ndarray:
        return self._invert_index

    @property
    def orbit_base(self) -> np.ndarray:
        """The least source of an arrow into each unit, in declared unit
        order.  In a groupoid the sources of the arrows into v are the orbit
        of v, so this is the first unit of the orbit."""
        return self._orbit_base

    @once_property
    def isotropy(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (v, x) with x in the isotropy group G_{s(v)}^{s(v)}, held once per unit s(v):
        the loops s(x) = r(x) grouped by unit, in declared order within one, and every order |G_u^u|."""
        loops = np.flatnonzero(self._src_index == self._dst_index)
        loops = loops[np.argsort(self._src_index[loops], kind="stable")]
        return _read_only(loops), _read_only(np.bincount(self._src_index[loops], minlength=self.n_units))

    def compose_index(self, x: Any, y: Any) -> np.ndarray:
        """xy for arrow index arrays x and y (broadcast together), -1 where
        s(x) != r(y), read from the pair table by position.  Only an exact
        table can be read so; on any other it is a ValueError, and
        :func:`validate_groupoid` names the violation."""
        if self._defined is not None:
            raise ValueError("The compose table is not defined on exactly the composable pairs; groupoid invalid.")
        return self._lookup.take(self._row_at[x] + self._col_at[y], mode="clip")

    def composable_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pair table: index arrays (x, y, xy) over the defined compose
        entries, in row-major order.  On an exact table, as in every
        groupoid, these are the composable pairs s(x) = r(y): each x is
        repeated once per arrow y into s(x), and its x and y columns are
        built on first call."""
        if self._defined is not None:
            return self._defined
        return once(self._cache, "pairs", FiniteGroupoid._pair_table, self)

    def _pair_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (*self._composable(), self._lookup[1:-1])

    def _composable(self) -> tuple[np.ndarray, np.ndarray]:
        """The composable pairs (x, y) in row-major order, read-only."""
        src, dst = self._src_index, self._dst_index
        by_dst = np.argsort(dst, kind="stable")
        starts = np.searchsorted(dst[by_dst], np.arange(self.n_units + 1))
        counts = np.diff(starts)[src]
        xs = np.repeat(np.arange(self.n_arrows), counts)
        # the k-th pair of row x is y = by_dst[starts[s(x)] + k], after
        # ends[x] - counts[x] pairs of earlier rows
        ends = np.cumsum(counts)
        ys = by_dst[np.repeat(starts[src] - ends + counts, counts) + np.arange(len(xs))]
        return _read_only(xs), _read_only(ys)

    def convolution_bins(self) -> np.ndarray:
        """The bins 2xy and 2xy + 1 of every composable pair, interleaved,
        in :meth:`composable_pairs` order: where a complex convolution sums
        the real and imaginary float64 parts of the pair's term."""
        return once(self._cache, "bins", FiniteGroupoid._convolution_bins, self)

    def _convolution_bins(self) -> np.ndarray:
        return _read_only((2 * self.composable_pairs()[2][:, None] + np.arange(2)).ravel())

    def embedding(self, parent: "FiniteGroupoid") -> np.ndarray:
        """The index in ``parent`` of every arrow of this groupoid (declared
        order), matched by arrow id; read-only, built once per parent.
        Subgroupoids made by :meth:`restricted_to` get it at construction."""
        return once(self._cache, parent, self._index_in, parent)

    def _index_in(self, parent: "FiniteGroupoid") -> np.ndarray:
        index = [parent._index.get(aid, -1) for aid in self._ids]
        if -1 in index:
            raise ValueError(f"Arrow {self._ids[index.index(-1)]!r} of the subgroupoid is not an arrow of the ambient groupoid.")
        return _read_only(np.array(index, dtype=np.intp))

    def rep_tables(self) -> RepTables:
        """Index of the regular representation, one entry per block size d,
        ascending: the units u with d = |G_u|, their arrows x with s(x) = u
        as a (k, d) index array (both in declared order), and the products
        x' x^{-1} as a (k, d, d) index array.  Built on first use; the
        arrays are read-only."""
        return once(self._cache, "rep", FiniteGroupoid._rep_index, self)[0]

    def orbit_rep_tables(self) -> OrbitRepTables:
        """The (arrows, products) rows of :meth:`rep_tables` whose unit is
        the first unit of its orbit (:attr:`orbit_base`), for every block
        size that has one.  Right translation by an arrow z: v -> u maps G_u
        onto G_v and permutes the block at u onto the block at v, so these
        rows carry every block up to a permutation."""
        return once(self._cache, "rep", FiniteGroupoid._rep_index, self)[1]

    def _rep_index(self) -> tuple[RepTables, OrbitRepTables]:
        src = self._src_index
        sizes = np.bincount(src, minlength=self.n_units)
        by_src = src.argsort(kind="stable")
        starts = sizes.cumsum() - sizes
        tables, orbit_tables = [], []
        for d in sorted(set(sizes.tolist())):
            (at,) = (sizes == d).nonzero()
            arrows = _read_only(by_src[starts[at][:, None] + np.arange(d)])
            products = self.compose_index(arrows[:, :, None], self._invert_index[arrows][:, None, :])
            bad = np.argwhere(products < 0)
            if bad.size:
                raise ValueError(f"Arrows with source {self.units[at[bad[0][0]]]!r} do not compose; groupoid invalid.")
            tables.append((tuple(self.units[u] for u in at), arrows, _read_only(products)))
            base = self._orbit_base[at] == at
            if base.any():
                orbit_tables.append((_read_only(arrows[base]), _read_only(products[base])))
        return tuple(tables), tuple(orbit_tables)

    # -- derived groupoids --------------------------------------------------

    def restricted_to(self, arrow_ids: Sequence[str]) -> "FiniteGroupoid":
        """Subgroupoid on a subset of arrows (same units, declared order kept),
        with the pairs of kept arrows taken from the pair table and renumbered.

        The subset must contain every unit arrow, be closed under inversion,
        and be closed under composition; otherwise ValueError naming the
        first violation in declared order.
        """
        keep = set(arrow_ids)
        unknown = keep - self._index.keys()
        if unknown:
            raise ValueError(f"Unknown arrows in restriction: {sorted(unknown)[:3]}.")
        mask = np.zeros(self.n_arrows, dtype=bool)
        mask[[self._index[aid] for aid in keep]] = True
        dropped = ~mask[self._unit_arrow_index]
        if dropped.any():
            raise ValueError(f"Restriction drops the unit arrow at {self.units[np.argmax(dropped)]!r}.")
        kept = np.flatnonzero(mask)
        open_at = ~mask[self._invert_index[kept]]
        if open_at.any():
            raise ValueError(f"Restriction not closed under inversion at {self._ids[kept[np.argmax(open_at)]]!r}.")
        xs, ys, zs = self.composable_pairs()
        inside = mask[xs] & mask[ys]
        leaves = inside & ~mask[zs]
        if leaves.any():
            k = np.argmax(leaves)
            raise ValueError(f"Restriction not closed under composition at ({self._ids[xs[k]]!r},{self._ids[ys[k]]!r}).")
        renumber = np.empty(self.n_arrows, dtype=np.intp)
        renumber[kept] = np.arange(len(kept))
        restricted = FiniteGroupoid(
            self.units,
            [self._ids[i] for i in kept.tolist()],
            self._src_index[kept],
            self._dst_index[kept],
            renumber[np.stack((xs[inside], ys[inside], zs[inside]), axis=1)],
            renumber[self._invert_index[kept]],
            renumber[self._unit_arrow_index],
        )
        restricted._cache[self] = _read_only(kept)
        return restricted

    def __repr__(self) -> str:
        return f"FiniteGroupoid(units={self.n_units}, arrows={self.n_arrows})"


def numbered(units: Sequence[str], arrow_ids: Sequence[str]) -> tuple[dict[str, int], dict[str, int]]:
    """The number of each unit (as a string) and each arrow id in declared
    order.  ValueError on an empty unit space or a repeated unit or arrow id."""
    unit_index = {str(u): i for i, u in enumerate(units)}
    if not unit_index:
        raise ValueError("Unit space must be nonempty (norms are undefined on empty algebras).")
    if len(unit_index) != len(units):
        raise ValueError("Unit identifiers must be unique.")
    index = dict(zip(arrow_ids, range(len(arrow_ids))))
    if len(index) != len(arrow_ids):
        raise ValueError("Arrow identifiers must be unique.")
    return unit_index, index


def _checked_table(name: str, table: Any, shape: tuple[int, ...], high: int) -> np.ndarray:
    """``table`` as an intp array, once it is an integer array of ``shape``
    with every entry in [0, high).  The range takes one pass, the maximum
    of the entries read as unsigned, where a negative entry is past any index."""
    if not isinstance(table, np.ndarray) or table.shape != shape or table.dtype.kind not in "iu":
        got = f"{table.dtype} array of shape {table.shape}" if isinstance(table, np.ndarray) else type(table).__name__
        raise ValueError(f"The {name} table must be an integer array of shape {shape}, got {got}.")
    table = table.astype(np.intp, copy=False)
    if table.size and table.view(np.uintp).max() >= high:
        lo, hi = int(table.min()), int(table.max())
        raise ValueError(f"The {name} table has an entry {lo if lo < 0 else hi} outside [0, {high}).")
    return table


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _first_violation(*masks: np.ndarray) -> tuple[int, int] | None:
    """(k, i) for the first index i at which some mask is set, with k the
    first mask set there; None when no mask is set anywhere."""
    bad = np.stack(masks)
    hit = np.flatnonzero(bad.any(axis=0))
    if not hit.size:
        return None
    i = int(hit[0])
    return int(np.argmax(bad[:, i])), i


def validate_groupoid(g: FiniteGroupoid) -> CheckReport:
    """Check the groupoid axioms; pass, or first violation with a witness.

    Check order: compose-domain exactness, endpoints of composites, unit-arrow
    endpoints, identity laws, inverse laws, involution, associativity.  Each
    check is a whole-array comparison on the integer tables; the witness is
    the first violation in declared arrow order (row-major for pairs).

    Exactness (the defined pairs are the composable ones) is recorded by the
    constructor; every later check reads products by position.

    Associativity is proved by a structure certificate instead of a sweep
    over the composable triples.  A groupoid is isomorphic, orbit by orbit,
    to pair(orbit) x isotropy (Renault, LNM 793, ch. I); the certificate
    builds that map and checks it (:func:`_structure_certificate`).  Once
    the earlier axioms hold, the certificate holds exactly when the table
    is associative, so the lexicographic sweep of
    :func:`_associativity_witness` runs only on a failed certificate,
    to name the first failing triple.
    """
    if g._defined is not None:
        return _exactness_failure(g)
    at = g.compose_index
    src = g.src_index
    dst = g.dst_index
    n = g.n_arrows
    xs, ys, zs = g.composable_pairs()
    for cause, bad in (("compose-range-mismatch", dst[zs] != dst[xs]), ("compose-source-mismatch", src[zs] != src[ys])):
        if bad.any():
            k = int(np.argmax(bad))
            return CheckReport.failed(cause, pair=(g.arrow_ids[xs[k]], g.arrow_ids[ys[k]]), product=g.arrow_ids[zs[k]])
    unit_arrow = g.unit_arrow_index
    units = np.arange(g.n_units)
    bad = (src[unit_arrow] != units) | (dst[unit_arrow] != units)
    if bad.any():
        u = np.argmax(bad)
        return CheckReport.failed("unit-arrow-endpoints", unit=g.units[u], arrow=g.arrow_ids[unit_arrow[u]])
    # compose is exact and the unit arrows sit at their units, so every
    # product with a unit arrow is defined and ``got`` is an arrow; one
    # lookup reads e_r(x) x, x e_s(x), x^-1 x and x x^-1
    arrows, inv = np.arange(n), g.invert_index
    left, right, inv_left, inv_right = at(
        np.concatenate([unit_arrow[dst], arrows, inv, arrows]), np.concatenate([arrows, unit_arrow[src], arrows, inv])
    ).reshape(4, n)
    found = _first_violation(left != arrows, right != arrows)
    if found:
        k, i = found
        cause, got = (("unit-not-left-identity", left), ("unit-not-right-identity", right))[k]
        return CheckReport.failed(cause, arrow=g.arrow_ids[i], got=g.arrow_ids[got[i]])
    found = _first_violation(
        (src[inv] != dst) | (dst[inv] != src),
        inv_left != unit_arrow[src],
        inv_right != unit_arrow[dst],
        inv[inv] != arrows,
    )
    if found:
        k, i = found
        if k == 3:
            return CheckReport.failed("inverse-not-involutive", arrow=g.arrow_ids[i])
        cause = ("inverse-endpoints", "inverse-left", "inverse-right")[k]
        return CheckReport.failed(cause, arrow=g.arrow_ids[i], inverse=g.arrow_ids[inv[i]])
    if _structure_certificate(g):
        return CheckReport.passed()
    return CheckReport.failed("associativity", triple=tuple(g.arrow_ids[i] for i in _associativity_witness(g)))


def _exactness_failure(g: FiniteGroupoid) -> CheckReport:
    """The first pair in row-major order, on a table that is not exact,
    that is defined but not composable or composable but not defined (its
    position unfilled), in O(pairs)."""
    src, dst = g.src_index, g.dst_index
    xs, ys, _ = g.composable_pairs()
    loose = src[xs] != dst[ys]
    cx, cy = g._composable()
    filled = np.zeros(len(cx), dtype=bool)
    filled[g._row_at[xs[~loose]] + g._col_at[ys[~loose]] - 1] = True
    first = [(int(x[k[0]]), int(y[k[0]])) for x, y, k in ((xs, ys, np.flatnonzero(loose)), (cx, cy, np.flatnonzero(~filled))) if k.size]
    i, j = min(first)
    cause = "compose-undefined-on-composable-pair" if src[i] == dst[j] else "compose-defined-on-noncomposable-pair"
    return CheckReport.failed(cause, pair=(g.arrow_ids[i], g.arrow_ids[j]))


def _structure_certificate(g: FiniteGroupoid) -> bool:
    """Whether a table that passes every groupoid axiom but associativity
    is associative, by the structure theorem.

    Walk the units in declared order; a unit not yet reached becomes a base
    b, and every unit v = r(x) with s(x) = b gets base b and transport t_v,
    the first such x.  So the base of v is the first unit of its orbit.  Put
    h(x) = (t_{r(x)}^-1 x) t_{s(x)}; by the endpoint checks already passed,
    r(h(x)) = s(t_{r(x)}) = b and s(h(x)) = s(t_{s(x)}) = b, so h(x) lies
    in the isotropy G_b^b of the base.  Check that

    * x -> (r(x), s(x), h(x)) is injective,
    * h(xy) = h(x) h(y) on every composable pair,
    * each base's isotropy table is associative
      (:func:`~groupoid_workbench.groups.first_nonassociative_triple`, which
      decides a table of more than ``SWEEP_ENTRIES`` triples by Light's
      test over greedy generators, O(k^2 log k) for an isotropy group of
      order k, and sweeps the others whole).

    Then (xy)z and x(yz) have the same endpoints and the same image
    (h(x) h(y)) h(z) = h(x) (h(y) h(z)), so they are equal.  In a groupoid
    every check holds, for any choice of transports.
    """
    at = g.compose_index
    src, dst, inv = g.src_index, g.dst_index, g.invert_index
    n = g.n_arrows
    base = g.orbit_base
    into = np.flatnonzero(src == base[dst])
    transport = np.full(g.n_units, n, dtype=np.intp)
    np.minimum.at(transport, dst[into], into)
    h = at(at(inv[transport[dst]], np.arange(n)), transport[src])
    if len(np.unique((dst * g.n_units + src) * n + h)) != n:
        return False
    # where h is the identity, as in a bundle of groups, h(xy) = h(x) h(y) holds trivially
    xs, ys, zs = g.composable_pairs()
    if (h != np.arange(n)).any() and (h[zs] != at(h[xs], h[ys])).any():
        return False
    # a one-arrow isotropy is {unit arrow}, associative by the identity law
    loops = np.flatnonzero((src == dst) & (src == base[src]))
    local = np.empty(n, dtype=np.intp)
    for u in np.flatnonzero(np.bincount(src[loops]) > 1):
        iso = loops[src[loops] == u]
        local[iso] = np.arange(len(iso))
        if first_nonassociative_triple(local[at(iso[:, None], iso)]) is not None:
            return False
    return True


def _associativity_witness(g: FiniteGroupoid) -> tuple[int, int, int]:
    """The lexicographically first composable triple (x, y, z) with
    (xy)z != x(yz), on a table whose compose is exact.

    The composable pair (y, z) -> yz is grouped by r(y); for each unit u, x
    runs over the arrows with s(x) = u as a column in declared order, and
    (xy)z is compared with x(yz) in chunks of at most n^2 triples.
    """
    at = g.compose_index
    src, dst = g.src_index, g.dst_index
    n = g.n_arrows
    xs, ys, zs = g.composable_pairs()
    pairs = np.argsort(dst[xs], kind="stable")
    pair_bounds = np.searchsorted(dst[xs][pairs], np.arange(g.n_units + 1))
    by_src = np.argsort(src, kind="stable")
    src_bounds = np.searchsorted(src[by_src], np.arange(g.n_units + 1))
    witness = None
    for u in range(g.n_units):
        x = by_src[src_bounds[u] : src_bounds[u + 1], None]
        at_u = pairs[pair_bounds[u] : pair_bounds[u + 1]]
        step = n * n // len(x)
        for lo in range(0, len(at_u), step):
            p = at_u[lo : lo + step]
            bad = at(at(x, xs[p]), ys[p]) != at(x, zs[p])
            if bad.any():
                i, k = np.argwhere(bad)[0]
                first = (int(x[i, 0]), int(xs[p[k]]), int(ys[p[k]]))
                witness = first if witness is None else min(witness, first)
    return witness


class HaarSystem(ReadOnly):
    """Per-unit positive weights; arrow y gets measure w(y) = rho(s(y)).

    ``rho`` is held as a read-only copy of the mapping passed in, so the
    weight arrays cached per groupoid cannot go stale."""

    __slots__ = ("rho", "_cache")

    def __init__(self, rho: Mapping[str, float]) -> None:
        self._set(rho=MappingProxyType(dict(rho)), _cache={})  # by once(): the weights per groupoid

    def unit_weight(self, u: str) -> float:
        return self.rho[u]

    def weight(self, g: FiniteGroupoid, aid: str) -> float:
        return self.rho[g.source(aid)]

    def weights(self, g: FiniteGroupoid) -> np.ndarray:
        """w(y) = rho(s(y)) in declared arrow order; read-only, computed
        once per groupoid (:func:`once`)."""
        return once(self._cache, g, self._arrow_weights, g)

    def _arrow_weights(self, g: FiniteGroupoid) -> np.ndarray:
        return _read_only(np.array([self.rho[u] for u in g.units], dtype=float)[g.src_index])


def haar_from_weights(g: FiniteGroupoid, rho: Mapping[str, float]) -> HaarSystem:
    """Build the Haar system with w(y) = rho(s(y)); rho must be positive on every unit."""
    table: dict[str, float] = {}
    for u in g.units:
        if u not in rho:
            raise ValueError(f"Haar weights missing unit {u!r}.")
        value = float(rho[u])
        if not value > 0.0 or not np.isfinite(value):
            raise ValueError(f"Nonpositive Haar weight at unit {u!r}: {rho[u]!r}.")
        table[u] = value
    extra = set(rho) - set(g.units)
    if extra:
        raise ValueError(f"Haar weights name unknown units {sorted(extra)[:3]}.")
    return HaarSystem(rho=table)


def counting_haar(g: FiniteGroupoid) -> HaarSystem:
    return HaarSystem(rho={u: 1.0 for u in g.units})


def validate_left_invariance(g: FiniteGroupoid, w: Mapping[str, float]) -> bool:
    """Check the invariance identity for an arbitrary arrow-weight table.

    True iff for every arrow x and every indicator function f,
    sum over {y : r(y) = s(x)} of f(xy) w(y) equals
    sum over {y : r(y) = r(x)} of f(y) w(y).  See :func:`left_invariance_stack`.
    """
    for aid in g.arrow_ids:
        if aid not in w:
            raise ValueError(f"Weight table missing arrow {aid!r}.")
        if not float(w[aid]) > 0.0:
            raise ValueError(f"Weight table must be positive; got {w[aid]!r} at {aid!r}.")
    vec = np.array([[float(w[aid]) for aid in g.arrow_ids]])
    return bool(left_invariance_stack(g, vec)[0])


def left_invariance_stack(g: FiniteGroupoid, w: np.ndarray) -> np.ndarray:
    """The verdict of :func:`validate_left_invariance` for every row of a
    (T, n) stack of positive arrow-weight tables.

    For f the indicator of t the identity compares, per key (x, t), the sum
    of w(y) over the composable pairs with xy = t against w(t) when
    r(t) = r(x) and 0 otherwise, within ``ALG_TOL * (1 + max w)``.  Only the
    keys that some pair hits are formed; every (x, t) with r(t) = r(x) must
    be among them, since an unhit one compares 0 with a positive weight.
    The keys are formed once and the sums a chunk of rows at a time, in the
    chunks of ``algebra.trial_chunks``.
    """
    from .algebra import chunked  # algebra imports this module
    n = g.n_arrows
    xs, ys, zs = g.composable_pairs()
    keys, at = np.unique(xs * n + zs, return_inverse=True)
    x, t = np.divmod(keys, n)
    dst = g.dst_index
    same = dst[x] == dst[t]
    every_pair_hit = int(same.sum()) == int((np.bincount(dst) ** 2).sum())

    def verdicts(rows: np.ndarray) -> np.ndarray:
        bins = (at + len(keys) * np.arange(len(rows))[:, None]).ravel()
        lhs = np.bincount(bins, rows[:, ys].ravel(), len(rows) * len(keys)).reshape(len(rows), len(keys))
        tol = ALG_TOL * (1.0 + rows.max(axis=1))
        return every_pair_hit & (np.abs(lhs - np.where(same, rows[:, t], 0.0)).max(axis=1) <= tol)

    return chunked(verdicts, len(ys), w)


# -- constructors ----------------------------------------------------------


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Pair groupoid on units 1..n: arrow (i,j) runs j -> i, (i,j)(j,k) = (i,k)."""
    n = strict_int(n)
    if n <= 0:
        raise ValueError(f"Pair groupoid needs at least one point, got {n}.")
    units = [str(i) for i in range(1, n + 1)]
    # arrow (i,j) runs j -> i and has index i*n + j (from 0); indexed
    # [i, j, k] the triples are ((i,j), (j,k), (i,k))
    ids = np.arange(n * n, dtype=np.intp).reshape(n, n)
    compose = _triples(ids[:, :, None], ids[None], ids[:, None, :])
    arrow_ids = [f"({i},{j})" for i in units for j in units]
    return FiniteGroupoid(units, arrow_ids, ids.ravel() % n, ids.ravel() // n, compose, ids.T.ravel(), np.arange(n) * (n + 1))


def _triples(x: np.ndarray, y: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """The (m, 3) compose triples of index arrays x, y and xy, broadcast together."""
    triples = np.empty(np.broadcast_shapes(x.shape, y.shape, xy.shape) + (3,), dtype=np.intp)
    triples[..., 0], triples[..., 1], triples[..., 2] = x, y, xy
    return triples.reshape(-1, 3)


def _group_tables(group: FiniteGroup) -> tuple[np.ndarray, ...]:
    """A group as one-unit groupoid tables: every pair composes, by the Cayley table."""
    elements, at_unit = np.arange(group.order), np.zeros(group.order, dtype=np.intp)
    return at_unit, at_unit, _triples(elements[:, None], elements, group.cayley), group.inverse_table, np.array([group.identity], dtype=np.intp)


def group_groupoid(group: FiniteGroup | Sequence[Sequence[int]], *, unit: str = "u") -> FiniteGroupoid:
    """A finite group as a one-unit groupoid; arrow ids are g0..g{n-1}."""
    if not isinstance(group, FiniteGroup):
        group = FiniteGroup(group)
    return FiniteGroupoid([unit], [f"g{i}" for i in group.elements()], *_group_tables(group))


def action_groupoid(
    points: Sequence[Any],
    group: FiniteGroup,
    action: Callable[[Any, int], Any] | Sequence[Sequence[Any]],
) -> FiniteGroupoid:
    """Transformation groupoid of a right action: arrow (x,h) runs x.h -> x.

    ``action`` is the table of the action, ``action[i][h]`` the point
    ``points[i].h``, with one row per point and one entry per group element,
    or a function ``action(x, h)``, which is tabulated.  It must be a genuine
    right action: ``x.e = x`` and ``(x.h).k = x.(hk)``; violations are
    rejected with a witness: the first failing point, and for it the
    identity law, then for each h in order whether x.h is a point and the
    compatibility with each k.
    """
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("Action points must be distinct.")
    if callable(action):
        action = [[action(x, h) for h in group.elements()] for x in points]
    # number the points in order and every image off the point set after
    # them, so the action laws are integer comparisons on the table
    number = {x: i for i, x in enumerate(points)}
    table = action.tolist() if isinstance(action, np.ndarray) else action
    act = np.array([[number.setdefault(y, len(number)) for y in row] for row in table], dtype=np.intp)
    act = act.reshape(len(points), group.order)
    for i, x in enumerate(points):
        if act[i, group.identity] != i:
            raise ValueError(f"Not an action: point {x!r} moves under the identity.")
        inside = act[i] < len(points)
        # (x.h).k against x.(hk), indexed [h, k]; where x.h is no point that
        # failure comes first, so row 0 stands in for it
        incompatible = act[np.where(inside, act[i], 0)] != act[i][group.cayley]
        bad = ~inside | incompatible.any(axis=1)
        if bad.any():
            h = int(np.argmax(bad))
            if not inside[h]:
                raise ValueError(f"Not an action: {x!r}.{h} leaves the point set.")
            raise ValueError(f"Not an action: compatibility fails at ({x!r},{h},{int(np.argmax(incompatible[h]))}).")
    units = [str(x) for x in points]
    if len(set(units)) != len(units):
        raise ValueError("Action points must stringify to distinct unit ids.")
    # arrow (x,h) runs x.h -> x and has index x*order + h; (x,h)(x.h,k) = (x,hk)
    order, n = group.order, act.size
    arrow_ids = [f"({x},{h})" for x in points for h in group.elements()]
    products = np.arange(len(points))[:, None, None] * order + group.cayley
    compose = _triples(np.arange(n)[:, None], act.reshape(n, 1) * order + np.arange(order), products.reshape(n, order))
    invert = (act * order + group.inverse_table).ravel()
    unit_arrow = np.arange(len(points)) * order + group.identity
    return FiniteGroupoid(units, arrow_ids, act.ravel(), np.arange(n) // order, compose, invert, unit_arrow)


def _direct_sum(parts: Sequence[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """The (src, dst, compose, invert, unit_arrow) tables of a disjoint union
    from those of its parts, arrows and units in part order: each part's
    unit numbers and arrow indices move by its offsets."""
    offsets = np.cumsum([(0, 0)] + [(len(unit_arrow), len(invert)) for *_, invert, unit_arrow in parts], axis=0)
    return tuple(np.concatenate([part[k] + at[int(k > 1)] for part, at in zip(parts, offsets)]) for k in range(5))


def group_bundle(groups: Sequence[FiniteGroup | Sequence[Sequence[int]]]) -> FiniteGroupoid:
    """Disjoint bundle of groups: unit u{j} carries the j-th group as isotropy."""
    if not groups:
        raise ValueError("Group bundle needs at least one fibre.")
    fibres = [h if isinstance(h, FiniteGroup) else FiniteGroup(h) for h in groups]
    units = [f"u{j}" for j in range(1, len(fibres) + 1)]
    arrow_ids = [f"{u}:g{i}" for u, h in zip(units, fibres) for i in h.elements()]
    return FiniteGroupoid(units, arrow_ids, *_direct_sum([_group_tables(h) for h in fibres]))


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union; ids are prefixed L:/R: to keep them unique."""
    relabel = [("L:", g1), ("R:", g2)]
    units = [p + u for p, g in relabel for u in g.units]
    arrow_ids = [p + aid for p, g in relabel for aid in g.arrow_ids]
    parts = [(g.src_index, g.dst_index, np.stack(g.composable_pairs(), axis=1), g.invert_index, g.unit_arrow_index) for g in (g1, g2)]
    return FiniteGroupoid(units, arrow_ids, *_direct_sum(parts))


def product(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    """Direct product groupoid; arrows are pairs composed componentwise."""
    units = [f"{u}|{v}" for u in g1.units for v in g2.units]
    arrow_ids = [f"{a}|{b}" for a in g1.arrow_ids for b in g2.arrow_ids]
    # arrow (a,b) has index a*n2 + b and unit (u,v) index u*m2 + v; (a,b)(c,d)
    # = (ac,bd) is defined where both factors are, one triple per pair of triples
    n2, m2 = g2.n_arrows, g2.n_units
    src, dst = ((e1[:, None] * m2 + e2).ravel() for e1, e2 in ((g1.src_index, g2.src_index), (g1.dst_index, g2.dst_index)))
    t1, t2 = (np.stack(g.composable_pairs(), axis=1) for g in (g1, g2))
    compose = (t1[:, None, :] * n2 + t2[None, :, :]).reshape(-1, 3)
    invert = g1.invert_index[:, None] * n2 + g2.invert_index
    unit_arrow = g1.unit_arrow_index[:, None] * n2 + g2.unit_arrow_index
    return FiniteGroupoid(units, arrow_ids, src, dst, compose, invert.ravel(), unit_arrow.ravel())
