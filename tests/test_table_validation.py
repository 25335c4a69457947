"""Table validation against scalar reference validators.

``validate_groupoid``, ``validate_cocycle`` and the Cayley checks of
``FiniteGroup`` are whole-array comparisons on the integer tables.  The
loops they replaced are kept below as ``reference_*`` and serve as oracles:
on every corpus instance, and on seeded single-entry corruptions of its
compose, invert, unit-arrow, label and Cayley tables, both sides must give
the same outcome, cause and witness.

The reference walks the id tables of ``conftest.id_tables``, whose compose
table holds the defined pairs in row-major order, so it reports the first
multiplicativity failure in the validator's order and every witness must
agree.  Corrupted groupoids are built from edited copies of the index
arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.grading import Cocycle, validate_cocycle
from groupoid_workbench.groupoid import FiniteGroupoid, validate_groupoid
from groupoid_workbench.groups import FiniteGroup, FreeAbelianGroup
from groupoid_workbench.validation import CheckReport

from conftest import dense_compose, id_tables, redirected, with_tables

CORPUS = builtin_corpus(seed=0)


def reference_validate_groupoid(g: FiniteGroupoid) -> CheckReport:
    """The groupoid axioms, arrow by arrow and one compose row at a time."""
    _, invert, unit_arrow = id_tables(g)
    mat = dense_compose(g)
    src = g.src_index
    dst = g.dst_index
    n = g.n_arrows
    defined = mat >= 0
    composable = src[:, None] == dst[None, :]
    if (defined != composable).any():
        i, j = np.argwhere(defined != composable)[0]
        a, b = g.arrows[i].id, g.arrows[j].id
        if composable[i, j]:
            return CheckReport.failed("compose-undefined-on-composable-pair", pair=(a, b))
        return CheckReport.failed("compose-defined-on-noncomposable-pair", pair=(a, b))
    xs, ys, zs = g.composable_pairs()
    bad = dst[zs] != dst[xs]
    if bad.any():
        k = int(np.nonzero(bad)[0][0])
        return CheckReport.failed(
            "compose-range-mismatch",
            pair=(g.arrows[xs[k]].id, g.arrows[ys[k]].id),
            product=g.arrows[zs[k]].id,
        )
    bad = src[zs] != src[ys]
    if bad.any():
        k = int(np.nonzero(bad)[0][0])
        return CheckReport.failed(
            "compose-source-mismatch",
            pair=(g.arrows[xs[k]].id, g.arrows[ys[k]].id),
            product=g.arrows[zs[k]].id,
        )
    for u in g.units:
        e = g.arrow(unit_arrow[u])
        if e.src != u or e.dst != u:
            return CheckReport.failed("unit-arrow-endpoints", unit=u, arrow=e.id)
    for a in g.arrows:
        left = g.compose_ids(unit_arrow[a.dst], a.id)
        if left != a.id:
            return CheckReport.failed("unit-not-left-identity", arrow=a.id, got=left)
        right = g.compose_ids(a.id, unit_arrow[a.src])
        if right != a.id:
            return CheckReport.failed("unit-not-right-identity", arrow=a.id, got=right)
    for a in g.arrows:
        b = g.arrow(invert[a.id])
        if b.src != a.dst or b.dst != a.src:
            return CheckReport.failed("inverse-endpoints", arrow=a.id, inverse=b.id)
        if g.compose_ids(b.id, a.id) != unit_arrow[a.src]:
            return CheckReport.failed("inverse-left", arrow=a.id, inverse=b.id)
        if g.compose_ids(a.id, b.id) != unit_arrow[a.dst]:
            return CheckReport.failed("inverse-right", arrow=a.id, inverse=b.id)
        if invert[b.id] != a.id:
            return CheckReport.failed("inverse-not-involutive", arrow=a.id)
    for i in range(n):
        row = mat[i]
        ij_ok = row >= 0
        if not ij_ok.any():
            continue
        j_idx = np.nonzero(ij_ok)[0]
        lhs = mat[row[j_idx], :]
        cjk = mat[j_idx, :]
        mask = cjk >= 0
        rhs = np.where(mask, row[np.clip(cjk, 0, None)], -1)
        mismatch = mask & (lhs != rhs)
        if mismatch.any():
            a, b = np.argwhere(mismatch)[0]
            return CheckReport.failed(
                "associativity",
                triple=(g.arrows[i].id, g.arrows[j_idx[a]].id, g.arrows[b].id),
            )
    return CheckReport.passed()


def reference_validate_cocycle(g: FiniteGroupoid, c: Cocycle) -> CheckReport:
    """The homomorphism identities, one compose entry at a time in row-major order."""
    grp = c.group
    compose, invert, unit_arrow = id_tables(g)
    for a in g.arrows:
        if a.id not in c.label:
            return CheckReport.failed("label-missing", arrow=a.id)
        if not grp.contains(c.label[a.id]):
            return CheckReport.failed("label-not-in-group", arrow=a.id, label=repr(c.label[a.id]))
    for (x, y), z in compose.items():
        expected = grp.mul(c.of(x), c.of(y))
        if c.of(z) != expected:
            return CheckReport.failed(
                "not-multiplicative",
                pair=(x, y),
                got=grp.element_key(c.of(z)),
                expected=grp.element_key(expected),
            )
    for u in g.units:
        aid = unit_arrow[u]
        if c.of(aid) != grp.identity:
            return CheckReport.failed("unit-not-identity", unit=u, got=grp.element_key(c.of(aid)))
    for a in g.arrows:
        if c.of(invert[a.id]) != grp.inv(c.of(a.id)):
            return CheckReport.failed("inverse-not-inverted", arrow=a.id)
    return CheckReport.passed()


def reference_cayley_check(table: list[list[int]]) -> tuple[int, list[int]]:
    """Identity and inverse table of an in-range square Cayley table, or the
    ValueError of the first failing axiom: identity, inverses, associativity."""
    n = len(table)
    identity = None
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("Cayley table has no two-sided identity.")
    inverse: list[int] = []
    for a in range(n):
        inv = next((b for b in range(n) if table[a][b] == identity and table[b][a] == identity), None)
        if inv is None:
            raise ValueError(f"Element {a} has no two-sided inverse.")
        inverse.append(inv)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValueError(f"Cayley table not associative at triple ({a},{b},{c}).")
    return identity, inverse


# -- seeded single-entry corruptions ----------------------------------------


def other_arrow(g: FiniteGroupoid, aid: str, rng: np.random.Generator) -> str:
    """Another arrow, half the time one with the same endpoints when there is
    one, so that corruptions also survive the endpoint checks."""
    a = g.arrow(aid)
    twins = [b.id for b in g.arrows if b.id != aid and (b.src, b.dst) == (a.src, a.dst)]
    pool = twins if twins and rng.random() < 0.5 else [b.id for b in g.arrows if b.id != aid]
    return pool[int(rng.integers(len(pool)))]


def corrupted_groupoids(g: FiniteGroupoid, rng: np.random.Generator) -> list[FiniteGroupoid]:
    """Single-entry corruptions: four compose entries redirected, one deleted
    and one added on a noncomposable pair (when there is one), one invert
    entry and one unit arrow redirected."""
    compose, invert, unit_arrow = id_tables(g)
    keys = list(compose)
    out = []
    loose = [(a.id, b.id) for a in g.arrows for b in g.arrows if a.src != b.dst]
    if loose:
        x, y = loose[int(rng.integers(len(loose)))]
        out.append(redirected(g, x, y, g.arrows[int(rng.integers(g.n_arrows))].id))
    for _ in range(4):
        x, y = keys[int(rng.integers(len(keys)))]
        out.append(redirected(g, x, y, other_arrow(g, compose[x, y], rng)))
    out.append(redirected(g, *keys[int(rng.integers(len(keys)))], None))
    a = g.arrows[int(rng.integers(g.n_arrows))].id
    inverse = g.invert_index.copy()
    inverse[g.index(a)] = g.index(other_arrow(g, invert[a], rng))
    out.append(with_tables(g, invert=inverse))
    u = g.units[int(rng.integers(g.n_units))]
    unit_arrows = g.unit_arrow_index.copy()
    unit_arrows[g.units.index(u)] = g.index(other_arrow(g, unit_arrow[u], rng))
    out.append(with_tables(g, unit_arrow=unit_arrows))
    return out


def random_element(group, rng: np.random.Generator):
    if isinstance(group, FreeAbelianGroup):
        return tuple(int(v) for v in rng.integers(-3, 4, size=group.rank))
    return int(rng.integers(group.order))


def corrupted_labels(c: Cocycle, g: FiniteGroupoid, rng: np.random.Generator) -> list[Cocycle]:
    """Four labels moved to another element, one outside the group and one missing."""
    out = []
    for _ in range(4):
        a = g.arrows[int(rng.integers(g.n_arrows))].id
        out.append(Cocycle(c.group, {**c.label, a: random_element(c.group, rng)}))
    a = g.arrows[int(rng.integers(g.n_arrows))].id
    out.append(Cocycle(c.group, {**c.label, a: 1.5}))
    label = dict(c.label)
    del label[g.arrows[int(rng.integers(g.n_arrows))].id]
    out.append(Cocycle(c.group, label))
    return out


def assert_same_cocycle_report(g: FiniteGroupoid, c: Cocycle) -> None:
    got, ref = validate_cocycle(g, c), reference_validate_cocycle(g, c)
    assert (got.ok, got.cause, got.witness) == (ref.ok, ref.cause, ref.witness)


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[doc.name for doc in CORPUS])
def test_groupoid_and_cocycle_validators_match_references(index):
    doc = CORPUS[index]
    sys = doc.system
    rng = np.random.default_rng([5, index])
    for g in (sys.groupoid, sys.identity_fiber):
        assert validate_groupoid(g) == reference_validate_groupoid(g) == CheckReport.passed()
    assert_same_cocycle_report(sys.groupoid, sys.cocycle)
    for g in corrupted_groupoids(sys.groupoid, rng):
        got = validate_groupoid(g)
        assert got == reference_validate_groupoid(g)
        # composition is cancellative and units and inverses are unique, so
        # no single-entry change leaves a groupoid
        assert not got.ok
        assert_same_cocycle_report(g, sys.cocycle)
    for c in corrupted_labels(sys.cocycle, sys.groupoid, rng):
        assert_same_cocycle_report(sys.groupoid, c)


def cayley_outcome(check, table):
    try:
        return check(table)
    except ValueError as exc:
        return str(exc)


def finite_check(table):
    group = FiniteGroup(table)
    return group.identity, group.inverse_table.tolist()


FINITE = [i for i, doc in enumerate(CORPUS) if isinstance(doc.system.group, FiniteGroup) and doc.system.group.order > 1]


@pytest.mark.parametrize("index", FINITE, ids=[CORPUS[i].name for i in FINITE])
def test_cayley_checks_match_reference(index):
    group = CORPUS[index].system.group
    rng = np.random.default_rng([6, index])
    table = group.cayley.tolist()
    assert finite_check(table) == reference_cayley_check(table)
    for _ in range(6):
        a, b = (int(v) for v in rng.integers(group.order, size=2))
        broken = [list(row) for row in table]
        broken[a][b] = int((table[a][b] + rng.integers(1, group.order)) % group.order)
        outcome = cayley_outcome(finite_check, broken)
        assert outcome == cayley_outcome(reference_cayley_check, broken)
        assert isinstance(outcome, str)  # a group table is a Latin square; this one is not


@pytest.mark.parametrize(
    "table",
    [
        [[1, 0], [0, 1]],  # identity at index 1
        [[0, 0], [0, 0]],  # no identity
        [[0, 1], [1, 1]],  # 1 has no inverse
        # a loop of order 5 in which every element is its own inverse: no
        # group of order 5 has that, so it is not associative
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    ],
)
def test_cayley_hand_tables_match_reference(table):
    assert cayley_outcome(finite_check, table) == cayley_outcome(reference_cayley_check, table)
