"""Shared fixtures and independent reference implementations.

The naive_* helpers transcribe the defining sums directly (explicit loops
through the compose/invert tables) so the vectorized implementations are
checked against an independent evaluation path.
"""

from __future__ import annotations

import numpy as np
import pytest

from groupoid_workbench.algebra import GroupoidFunction
from groupoid_workbench.groupoid import Arrow, FiniteGroupoid, HaarSystem, counting_haar, haar_from_weights, pair_groupoid
from groupoid_workbench.groups import cyclic_group
from groupoid_workbench.grading import Cocycle, GradedGroupoid, cocycle_from_map
from groupoid_workbench.groups import FreeAbelianGroup


def arrows_into(g: FiniteGroupoid, u: str) -> list[str]:
    """Arrow ids y with r(y) = u in declared order (the set G^u), read off ``dst_index``."""
    return [g.arrow_ids[i] for i in np.flatnonzero(g.dst_index == g.units.index(u))]


def naive_convolve(a: GroupoidFunction, b: GroupoidFunction, haar: HaarSystem) -> dict[str, complex]:
    """(a*b)(x) = sum over {y : r(y) = r(x)} a(y) b(y^{-1}x) w(y), by direct loops."""
    g = a.groupoid
    out = {}
    for x in g.arrows:
        total = 0j
        for y_id in arrows_into(g, x.dst):
            t = g.compose_ids(g.invert_id(y_id), x.id)
            assert t is not None
            total += a.value(y_id) * b.value(t) * haar.weight(g, y_id)
        out[x.id] = total
    return out


def naive_i_norm(a: GroupoidFunction, haar: HaarSystem) -> float:
    g = a.groupoid
    best = 0.0
    for u in g.units:
        direct = sum(abs(a.value(x)) * haar.weight(g, x) for x in arrows_into(g, u))
        inverted = sum(abs(a.value(g.invert_id(x))) * haar.weight(g, x) for x in arrows_into(g, u))
        best = max(best, direct, inverted)
    return best


def as_map(f: GroupoidFunction) -> dict[str, complex]:
    return {a.id: complex(v) for a, v in zip(f.groupoid.arrows, f.coeffs)}


def max_diff(f: GroupoidFunction, expected: dict[str, complex]) -> float:
    actual = as_map(f)
    keys = set(actual) | set(expected)
    return max(abs(actual.get(k, 0j) - expected.get(k, 0j)) for k in keys)


def id_tables(g: FiniteGroupoid) -> tuple[dict[tuple[str, str], str], dict[str, str], dict[str, str]]:
    """The compose, invert and unit-arrow tables of g by id, read from its
    index arrays; compose holds the defined pairs in row-major order."""
    ids = g.arrow_ids
    xs, ys, zs = g.composable_pairs()
    compose = {(ids[x], ids[y]): ids[z] for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist())}
    invert = {aid: ids[k] for aid, k in zip(ids, g.invert_index.tolist())}
    unit_arrow = {u: ids[k] for u, k in zip(g.units, g.unit_arrow_index.tolist())}
    return compose, invert, unit_arrow


def dense_compose(g: FiniteGroupoid) -> np.ndarray:
    """The dense (n, n) compose table of g, -1 where a product is undefined,
    written from its pair table: the oracle for readers of whole rows."""
    xs, ys, zs = g.composable_pairs()
    mat = np.full((g.n_arrows, g.n_arrows), -1, dtype=np.intp)
    mat[xs, ys] = zs
    return mat


def triples_of(mat: np.ndarray) -> np.ndarray:
    """The (m, 3) compose triples (x, y, mat[x, y]) of a dense (n, n) table,
    in row-major order, over every entry but -1 (undefined)."""
    xs, ys = np.nonzero(mat != -1)
    return np.stack([xs, ys, mat[xs, ys]], axis=1)


def from_records(units, arrows: list[Arrow], compose, invert, unit_arrow) -> FiniteGroupoid:
    """The groupoid on ``units`` whose arrows are the given records: their
    ids, and their endpoints as unit numbers, over the given index tables."""
    number = {u: i for i, u in enumerate(units)}
    src = np.array([number[a.src] for a in arrows], dtype=np.intp)
    dst = np.array([number[a.dst] for a in arrows], dtype=np.intp)
    return FiniteGroupoid(units, [a.id for a in arrows], src, dst, compose, invert, unit_arrow)


def with_tables(g: FiniteGroupoid, compose=None, invert=None, unit_arrow=None) -> FiniteGroupoid:
    """g's units and arrows over the given index tables, g's own where None;
    ``compose`` is a dense (n, n) table, -1 where undefined."""
    return from_records(
        g.units,
        g.arrows,
        np.stack(g.composable_pairs(), axis=1) if compose is None else triples_of(compose),
        g.invert_index if invert is None else invert,
        g.unit_arrow_index if unit_arrow is None else unit_arrow,
    )


def redirected(g: FiniteGroupoid, x: str, y: str, xy: str | None) -> FiniteGroupoid:
    """g with the compose entry (x, y) set to xy, or undefined for None."""
    compose = dense_compose(g)
    compose[g.index(x), g.index(y)] = -1 if xy is None else g.index(xy)
    return with_tables(g, compose=compose)


def patch_method(patch: pytest.MonkeyPatch, obj: object, name: str, replacement) -> None:
    """Make ``obj.name(...)`` call ``replacement(...)`` while ``patch`` is
    active.  A read-only instance takes no attribute, so the method is
    patched on its class, for ``obj`` only: every other instance keeps the
    original."""
    original = getattr(type(obj), name)
    patch.setattr(type(obj), name, lambda self, *args: replacement(*args) if self is obj else original(self, *args))


def pair_cocycle(g: FiniteGroupoid) -> Cocycle:
    """The integer grading c((i,j)) = i - j on a pair groupoid."""
    z = FreeAbelianGroup(1)
    label = {}
    for a in g.arrows:
        i, j = a.id.strip("()").split(",")
        label[a.id] = (int(i) - int(j),)
    return cocycle_from_map(g, z, label)


@pytest.fixture
def p2() -> FiniteGroupoid:
    return pair_groupoid(2)


@pytest.fixture
def p2_counting(p2) -> HaarSystem:
    return counting_haar(p2)


@pytest.fixture
def p2_weighted(p2) -> HaarSystem:
    return haar_from_weights(p2, {"1": 1.0, "2": 4.0})


@pytest.fixture
def p2_graded(p2, p2_counting) -> GradedGroupoid:
    return GradedGroupoid.build(p2, p2_counting, pair_cocycle(p2))


@pytest.fixture
def p2_graded_weighted(p2, p2_weighted) -> GradedGroupoid:
    return GradedGroupoid.build(p2, p2_weighted, pair_cocycle(p2))


@pytest.fixture
def z2_groupoid():
    from groupoid_workbench.groupoid import group_groupoid

    return group_groupoid(cyclic_group(2))


@pytest.fixture
def z3_groupoid():
    from groupoid_workbench.groupoid import group_groupoid

    return group_groupoid(cyclic_group(3))


def rng_functions(g: FiniteGroupoid, seed: int, count: int):
    from groupoid_workbench.algebra import random_function

    rng = np.random.default_rng(seed)
    return [random_function(g, rng) for _ in range(count)]
