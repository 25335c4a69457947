"""Gradings: cocycles into a discrete group, fibers, and the identity-fiber subgroupoid.

A cocycle labels every arrow with a group element so that composition maps to
the group product.  Its fibers partition the arrow set; the fiber over the
group identity is a subgroupoid carrying the restricted Haar system (same
per-unit weights).  Surjectivity of the cocycle is not required: everything
quantifies over the image.

The labels are read as one array of group elements, the group's
:meth:`~groupoid_workbench.groups.DiscreteGroup.element_array` (a Cayley
index for a finite group, an integer row for Z^k), by one type scan and one
conversion; a label is read on its own only to name the first bad one.  A
:class:`Cocycle` carries that array (``elements``), converted once when it
is constructed, or passed by the parser that read it.
:func:`validate_cocycle` checks membership on that array and the cocycle
identities as array products over the groupoid's integer tables: a Cayley
gather or a coordinate add per composable pair, exact for every label.
:func:`validate_system` is the one validation path of a graded groupoid,
shared by the document parser and :meth:`GradedGroupoid.build`.

The fibers are numbered once per (groupoid, cocycle), whatever the Haar
system: fiber k is the preimage of the k-th image element in the group's
sort order, and ``fiber_index`` holds the fiber number of every arrow in
declared order.  The numbering and G_e are kept in the cocycle's cache, keyed
by the groupoid, and shared by every :class:`GradedGroupoid` on the pair.
Every fiber-aware operation reads that index (as a numpy mask) instead of
the arrow labels.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .groupoid import FiniteGroupoid, HaarSystem, ReadOnly, _read_only, haar_from_weights, once, once_property, validate_groupoid
from .groups import DiscreteGroup
from .validation import CheckReport


class Cocycle(ReadOnly):
    """Arrow labelling c with values in a discrete group.

    ``label`` is a read-only copy of the map passed in, and ``elements``
    holds the labels as the group's element array, read-only, an entry (or
    row) per label in the order of ``label``, or None when a label is not
    an element in the array form.  Given the label map alone, the labels
    are converted once, here.  A parser passes the array it read and, as
    ``label``, the arrow ids alone, in the order of its entries; the label
    map is then built from the array on first read (:func:`once_property`).
    """

    __slots__ = ("group", "elements", "_ids", "_cache")

    def __init__(self, group: DiscreteGroup, label: Mapping[str, Any] | Sequence[str], elements: np.ndarray | None = None) -> None:
        cache: dict[str, Any] = {}  # by once(): the label map
        if isinstance(label, Mapping):
            cache["label"] = MappingProxyType(dict(label))
        elif elements is None:
            raise TypeError("Cocycle takes a label map, or the arrow ids with their element array.")
        # copied, never the caller's array
        values = group.element_array(list(cache["label"].values())) if elements is None else np.array(elements)
        if values is not None:
            values.flags.writeable = False
        self._set(group=group, elements=values, _ids=tuple(label), _cache=cache)

    @once_property
    def label(self) -> Mapping[str, Any]:
        return MappingProxyType(dict(zip(self._ids, self.group.elements_of(self.elements))))

    def of(self, aid: str) -> Any:
        return self.label[aid]

    def elements_on(self, g: FiniteGroupoid) -> np.ndarray | None:
        """The element array of the labels of g's arrows in declared order,
        or None when one is missing or not an element in the array form:
        ``elements`` itself when the labels are in that order."""
        if self._ids == g.arrow_ids:
            return self.elements
        return self.group.element_array(list(map(self.label.get, g.arrow_ids)))


def cocycle_from_map(g: FiniteGroupoid, group: DiscreteGroup, label: Mapping[str, Any]) -> Cocycle:
    """Canonicalize a total arrow -> element map into a Cocycle (totality enforced)."""
    table: dict[str, Any] = {}
    for aid in g.arrow_ids:
        if aid not in label:
            raise ValueError(f"Cocycle missing a label for arrow {aid!r}.")
        table[aid] = group.canonical(label[aid])
    extra = set(label) - set(table)
    if extra:
        raise ValueError(f"Cocycle labels unknown arrows {sorted(extra)[:3]}.")
    return Cocycle(group=group, label=table)


def trivial_cocycle(g: FiniteGroupoid, group: DiscreteGroup) -> Cocycle:
    return Cocycle(group=group, label=dict.fromkeys(g.arrow_ids, group.identity))


def validate_cocycle(g: FiniteGroupoid, c: Cocycle) -> CheckReport:
    """Check the homomorphism identities; pass, or first violation with witness pair.

    Check order: every label present and in the group, multiplicativity,
    units to the identity, inverses to inverses.  The labels are the
    cocycle's element array (:meth:`Cocycle.elements_on`), or, when one is
    missing or no element, a loop over the arrows names the first; each
    identity is one array comparison over the composable pairs, the units
    or the arrows.  The multiplicativity witness is the first failing pair
    in row-major compose order, the others the first failing unit or arrow
    in declared order.
    """
    grp = c.group
    ids = g.arrow_ids
    values = c.elements_on(g)
    if values is None:
        for aid in ids:
            if aid not in c.label:
                return CheckReport.failed("label-missing", arrow=aid)
            if not grp.contains(c.label[aid]):
                return CheckReport.failed("label-not-in-group", arrow=aid, label=repr(c.label[aid]))
        # int and tuple subclasses are members that the type scan declines
        values = grp.element_array([grp.canonical(c.label[aid]) for aid in ids])
    xs, ys, xys = g.composable_pairs()
    # take along rows gathers (n, rank) rows faster than fancy indexing
    bad = _differ(values.take(xys, axis=0), grp.mul_array(values.take(xs, axis=0), values.take(ys, axis=0)))
    if bad.any():
        i = np.argmax(bad)
        x, y = ids[xs[i]], ids[ys[i]]
        return CheckReport.failed(
            "not-multiplicative",
            pair=(x, y),
            got=grp.element_key(c.of(ids[xys[i]])),
            expected=grp.element_key(grp.mul(c.of(x), c.of(y))),
        )
    units = g.unit_arrow_index
    identity = grp.element_array([grp.identity])
    bad = _differ(values[units], identity)
    if bad.any():
        u = np.argmax(bad)
        return CheckReport.failed("unit-not-identity", unit=g.units[u], got=grp.element_key(c.of(ids[units[u]])))
    # in a group, b = a^-1 exactly when ab = e
    bad = _differ(grp.mul_array(values, values[g.invert_index]), identity)
    if bad.any():
        return CheckReport.failed("inverse-not-inverted", arrow=g.arrow_ids[np.argmax(bad)])
    return CheckReport.passed()


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per leading index, whether two element arrays (entries or rows) differ."""
    bad = a != b
    return bad.any(axis=tuple(range(1, bad.ndim)))


class InvalidSystem(ValueError):
    """The first failed check of :func:`validate_system`; ``path`` is the
    document field it concerns: ``groupoid``, ``haar.rho`` or ``cocycle``."""

    SUBJECTS = {"groupoid": "Groupoid", "haar.rho": "Haar system", "cocycle": "Cocycle"}

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{self.SUBJECTS[path]}: {message}")


def validate_system(
    g: FiniteGroupoid, rho: Callable[[], Mapping[str, float]], cocycle: Callable[[], Cocycle]
) -> tuple[HaarSystem, Cocycle]:
    """The validation of a graded groupoid, in order: the groupoid axioms,
    the Haar weights (finite and positive on every unit, no others), the
    cocycle identities.  Per-unit weights are left invariant on a groupoid
    (the identity at (x, t) has the one term w(x^-1 t) = w(t)), so that is
    not checked again.  Returns the Haar system and the cocycle; the first
    failure raises :class:`InvalidSystem`.

    ``rho`` and ``cocycle`` are called for the per-unit weights and the
    cocycle once the checks before them pass, so a parser can read each
    field where it is checked and report the first bad field.
    """
    report = validate_groupoid(g)
    if not report:
        raise InvalidSystem("groupoid", f"axiom violation: {report.cause} {dict(report.witness)}")
    weights = rho()
    try:
        haar = haar_from_weights(g, weights)
    except ValueError as exc:
        raise InvalidSystem("haar.rho", str(exc)) from exc
    c = cocycle()
    report = validate_cocycle(g, c)
    if not report:
        raise InvalidSystem("cocycle", f"identity violation: {report.cause} {dict(report.witness)}")
    return haar, c


def _sortable(values: np.ndarray) -> np.ndarray:
    """An element array as one entry per element, sorting as the group sort
    key does: its entries for a finite group or Z^1, else its rows as tuples."""
    if values.ndim == 2 and values.shape[1] != 1:
        return np.fromiter(map(tuple, values.tolist()), dtype=object, count=len(values))
    return values.reshape(len(values))


def identity_fiber_subgroupoid(g: FiniteGroupoid, c: Cocycle) -> FiniteGroupoid:
    """The subgroupoid over the group identity, with the same unit space; no Haar system enters.

    Arrow ids are shared with the parent, so inclusion and restriction of
    functions are id-based coefficient transfers.
    """
    return _fibers(g, c).identity_fiber


def _fibers(g: FiniteGroupoid, c: Cocycle) -> "_Fibers":
    """The fibers of g under c, built once per groupoid in the cocycle's cache."""
    return once(c._cache, g, lambda g: _Fibers(g, c), g)


class _Fibers(ReadOnly):
    """The part of a grading that no Haar weight enters.  One ``np.unique``
    numbers the cocycle's element array, read as :func:`_sortable` entries:
    ``image`` is the sorted image, fiber k is the preimage of its k-th entry,
    the element ``fiber_elements[k]``, and ``fiber_index`` holds the fiber
    number of every arrow in declared order.  The labels must be elements,
    as :func:`validate_cocycle` requires.  The identity-fiber subgroupoid is
    built on first read."""

    __slots__ = ("groupoid", "fiber_index", "fiber_elements", "fiber_keys", "image", "identity_mask", "_cache")

    def __init__(self, g: FiniteGroupoid, c: Cocycle) -> None:
        values = c.elements_on(g)
        if values is None:
            raise ValueError("Cocycle labels are not canonical group elements.")
        image, index = np.unique(_sortable(values), return_inverse=True)
        elements = tuple(map(c.group.canonical, image.tolist()))
        self._set(groupoid=g, fiber_index=_read_only(index), fiber_elements=elements, fiber_keys=tuple(map(c.group.element_key, elements)))
        self._set(image=image, identity_mask=_read_only(~_differ(values, c.group.element_array([c.group.identity]))), _cache={})

    @once_property
    def identity_fiber(self) -> FiniteGroupoid:
        return self.groupoid.restricted_to([self.groupoid.arrow_ids[i] for i in np.flatnonzero(self.identity_mask)])


class GradedGroupoid(ReadOnly):
    """A groupoid together with a Haar system and a validated grading.

    Bundles the three layers every higher operation needs.  The fibers
    (``fiber_index``, ``fiber_elements``, ``fiber_keys``, ``identity_mask``)
    and the identity-fiber subgroupoid are those of every graded groupoid on
    the same groupoid and cocycle (:class:`_Fibers`).  Use :meth:`build` to
    get construction-time validation of all invariants (:func:`validate_system`).
    """

    __slots__ = ("groupoid", "haar", "cocycle", "fiber_index", "fiber_elements", "fiber_keys", "identity_mask", "_fibers", "_cache")

    def __init__(self, groupoid: FiniteGroupoid, haar: HaarSystem, cocycle: Cocycle) -> None:
        fibers = _fibers(groupoid, cocycle)
        self._set(groupoid=groupoid, haar=haar, cocycle=cocycle, fiber_index=fibers.fiber_index, fiber_elements=fibers.fiber_elements)
        self._set(fiber_keys=fibers.fiber_keys, identity_mask=fibers.identity_mask, _fibers=fibers, _cache={})  # by once(): the induced space

    @classmethod
    def build(cls, groupoid: FiniteGroupoid, haar: HaarSystem, cocycle: Cocycle) -> "GradedGroupoid":
        """The graded groupoid after :func:`validate_system`; raises
        :class:`InvalidSystem` (a ``ValueError``) on the first failed check."""
        validate_system(groupoid, lambda: haar.rho, lambda: cocycle)
        return cls(groupoid, haar, cocycle)

    @property
    def group(self) -> DiscreteGroup:
        return self.cocycle.group

    @property
    def identity_fiber(self) -> FiniteGroupoid:
        return self._fibers.identity_fiber

    def fiber_number(self, gamma: Any) -> int:
        """The number of the fiber over gamma, or -1 off the image: :meth:`fiber_numbers` of one element."""
        return int(self.fiber_numbers(self.group.element_array([self.group.canonical(gamma)]))[0])

    def fiber_numbers(self, values: np.ndarray) -> np.ndarray:
        """The fiber number of every element of an element array (-1 off the image), by one sorted search."""
        image, keys = self._fibers.image, _sortable(values)
        at = np.minimum(np.searchsorted(image, keys), len(image) - 1)
        return np.where(image[at] == keys, at, -1)

    def fiber_mask(self, gamma: Any) -> np.ndarray:
        """The arrows over gamma as a mask in declared order (all False off the image)."""
        return self.fiber_index == self.fiber_number(gamma)

    def fibers(self) -> dict[str, tuple[str, ...]]:
        """Element key -> arrow ids in declared order, ordered by the group sort key."""
        ids = self.groupoid.arrow_ids
        grouped = [ids[i] for i in np.argsort(self.fiber_index, kind="stable").tolist()]
        ends = np.bincount(self.fiber_index, minlength=len(self.fiber_keys)).cumsum().tolist()
        return {key: tuple(grouped[start:end]) for key, start, end in zip(self.fiber_keys, [0, *ends], ends)}

    def __repr__(self) -> str:
        return f"GradedGroupoid({self.groupoid!r}, group={self.group.name})"
