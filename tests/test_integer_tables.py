"""Integer tables against the dict-walking constructors they replaced.

The builtins write their index tables in closed form, explicit documents map
ids to indices once, and ``restricted_to`` filters the pair table.  The
constructors they replaced built string-keyed dicts and walked them into
index arrays; they are kept below as ``reference_*`` oracles, together with
the former constructor checks (``reference_tables``).  On every corpus
instance, on its identity fiber, and on pair(40), S5, a product and a union,
both sides must give the same units, arrows (ids, endpoints and order), index
tables and id tables (read from the arrays by ``conftest.id_tables``).  Explicit tables with seeded single-entry corruptions
must fail with the same message or build the same tables.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest

from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import DocumentError, build_groupoid, document_from_dict
from groupoid_workbench.groupoid import (
    Arrow,
    FiniteGroupoid,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    product,
)
from groupoid_workbench.groups import FiniteGroup, cyclic_group, permutations_of

from conftest import dense_compose, id_tables

CORPUS = builtin_corpus(seed=0)
BASES = range(0, len(CORPUS), 2)  # the counting variants; each weighted twin has the same groupoid


@dataclass
class RefGroupoid:
    """The id tables of the former constructors."""

    units: list[str]
    arrows: list[Arrow]
    compose: dict[tuple[str, str], str]
    invert: dict[str, str]
    unit_arrow: dict[str, str]


def reference_tables(ref: RefGroupoid) -> tuple:
    """The former ``FiniteGroupoid`` constructor: its checks in order, then
    the index tables walked out of the dicts."""
    units = tuple(str(u) for u in ref.units)
    if not units:
        raise ValueError("Unit space must be nonempty (norms are undefined on empty algebras).")
    if len(set(units)) != len(units):
        raise ValueError("Unit identifiers must be unique.")
    arrows = tuple(ref.arrows)
    ids = [a.id for a in arrows]
    if len(set(ids)) != len(ids):
        raise ValueError("Arrow identifiers must be unique.")
    unit_set = set(units)
    for a in arrows:
        if a.src not in unit_set or a.dst not in unit_set:
            raise ValueError(f"Arrow {a.id!r} references unknown unit {a.src!r} or {a.dst!r}.")
    index = {aid: i for i, aid in enumerate(ids)}
    for (x, y), z in ref.compose.items():
        for aid in (x, y, z):
            if aid not in index:
                raise ValueError(f"Compose entry ({x!r},{y!r})->{z!r} references unknown arrow {aid!r}.")
    for x, y in ref.invert.items():
        if x not in index or y not in index:
            raise ValueError(f"Invert entry {x!r}->{y!r} references an unknown arrow.")
    missing_inv = [aid for aid in ids if aid not in ref.invert]
    if missing_inv:
        raise ValueError(f"Invert table missing arrows {missing_inv[:3]}.")
    for u, aid in ref.unit_arrow.items():
        if u not in unit_set:
            raise ValueError(f"Unit-arrow entry for unknown unit {u!r}.")
        if aid not in index:
            raise ValueError(f"Unit arrow {aid!r} for unit {u!r} is not a declared arrow.")
    missing_units = [u for u in units if u not in ref.unit_arrow]
    if missing_units:
        raise ValueError(f"Unit-arrow table missing units {missing_units[:3]}.")
    unit_index = {u: i for i, u in enumerate(units)}
    mat = np.full((len(ids), len(ids)), -1, dtype=np.intp)
    for (x, y), z in ref.compose.items():
        mat[index[x], index[y]] = index[z]
    return (
        units,
        arrows,
        [unit_index[a.src] for a in arrows],
        [unit_index[a.dst] for a in arrows],
        mat,
        [index[ref.invert[aid]] for aid in ids],
        [index[ref.unit_arrow[u]] for u in units],
    )


def tables_of(g: FiniteGroupoid) -> tuple:
    return (
        g.units,
        g.arrows,
        g.src_index.tolist(),
        g.dst_index.tolist(),
        dense_compose(g),
        g.invert_index.tolist(),
        g.unit_arrow_index.tolist(),
    )


def assert_same_tables(g: FiniteGroupoid, ref: RefGroupoid) -> None:
    got, want = tables_of(g), reference_tables(ref)
    assert got[:4] == want[:4]  # units, arrows, src, dst
    assert np.array_equal(got[4], want[4])
    assert got[5:] == want[5:]
    assert id_tables(g) == (ref.compose, ref.invert, ref.unit_arrow)


# -- the former constructors -------------------------------------------------


def reference_pair(n: int) -> RefGroupoid:
    units = [str(i) for i in range(1, n + 1)]
    aid = lambda i, j: f"({i},{j})"
    arrows = [Arrow(aid(i, j), src=str(j), dst=str(i)) for i in range(1, n + 1) for j in range(1, n + 1)]
    compose = {
        (aid(i, j), aid(j, k)): aid(i, k) for i in range(1, n + 1) for j in range(1, n + 1) for k in range(1, n + 1)
    }
    invert = {aid(i, j): aid(j, i) for i in range(1, n + 1) for j in range(1, n + 1)}
    return RefGroupoid(units, arrows, compose, invert, {str(i): aid(i, i) for i in range(1, n + 1)})


def reference_group(group: FiniteGroup, unit: str = "u") -> RefGroupoid:
    aid = lambda i: f"g{i}"
    arrows = [Arrow(aid(i), src=unit, dst=unit) for i in group.elements()]
    compose = {(aid(i), aid(j)): aid(group.mul(i, j)) for i in group.elements() for j in group.elements()}
    invert = {aid(i): aid(group.inv(i)) for i in group.elements()}
    return RefGroupoid([unit], arrows, compose, invert, {unit: aid(group.identity)})


def reference_symmetric_group(n: int) -> FiniteGroup:
    perms = permutations_of(n)
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms], name=f"S{n}")


def reference_action(points: list[Any], group: FiniteGroup, action) -> RefGroupoid:
    point_set = set(points)
    for x in points:
        if action(x, group.identity) != x:
            raise ValueError(f"Not an action: point {x!r} moves under the identity.")
        for h in group.elements():
            if action(x, h) not in point_set:
                raise ValueError(f"Not an action: {x!r}.{h} leaves the point set.")
            for k in group.elements():
                if action(action(x, h), k) != action(x, group.mul(h, k)):
                    raise ValueError(f"Not an action: compatibility fails at ({x!r},{h},{k}).")
    aid = lambda x, h: f"({x},{h})"
    arrows = [Arrow(aid(x, h), src=str(action(x, h)), dst=str(x)) for x in points for h in group.elements()]
    compose = {}
    for x in points:
        for h in group.elements():
            for k in group.elements():
                compose[(aid(x, h), aid(action(x, h), k))] = aid(x, group.mul(h, k))
    invert = {aid(x, h): aid(action(x, h), group.inv(h)) for x in points for h in group.elements()}
    return RefGroupoid([str(x) for x in points], arrows, compose, invert, {str(x): aid(x, group.identity) for x in points})


def reference_bundle(fibres: list[FiniteGroup]) -> RefGroupoid:
    aid = lambda j, i: f"u{j}:g{i}"
    ref = RefGroupoid([f"u{j}" for j in range(1, len(fibres) + 1)], [], {}, {}, {})
    for j, h in enumerate(fibres, start=1):
        ref.arrows.extend(Arrow(aid(j, i), src=f"u{j}", dst=f"u{j}") for i in h.elements())
        for i in h.elements():
            for k in h.elements():
                ref.compose[(aid(j, i), aid(j, k))] = aid(j, h.mul(i, k))
            ref.invert[aid(j, i)] = aid(j, h.inv(i))
        ref.unit_arrow[f"u{j}"] = aid(j, h.identity)
    return ref


def reference_union(g1: RefGroupoid, g2: RefGroupoid) -> RefGroupoid:
    relabel = [("L:", g1), ("R:", g2)]
    return RefGroupoid(
        [p + u for p, g in relabel for u in g.units],
        [Arrow(p + a.id, src=p + a.src, dst=p + a.dst) for p, g in relabel for a in g.arrows],
        {(p + x, p + y): p + z for p, g in relabel for (x, y), z in g.compose.items()},
        {p + x: p + y for p, g in relabel for x, y in g.invert.items()},
        {p + u: p + a for p, g in relabel for u, a in g.unit_arrow.items()},
    )


def reference_product(g1: RefGroupoid, g2: RefGroupoid) -> RefGroupoid:
    pair = lambda a, b: f"{a}|{b}"
    compose = {}
    for (x1, y1), z1 in g1.compose.items():
        for (x2, y2), z2 in g2.compose.items():
            compose[(pair(x1, x2), pair(y1, y2))] = pair(z1, z2)
    return RefGroupoid(
        [pair(u, v) for u in g1.units for v in g2.units],
        [Arrow(pair(a.id, b.id), src=pair(a.src, b.src), dst=pair(a.dst, b.dst)) for a in g1.arrows for b in g2.arrows],
        compose,
        {pair(a.id, b.id): pair(g1.invert[a.id], g2.invert[b.id]) for a in g1.arrows for b in g2.arrows},
        {pair(u, v): pair(g1.unit_arrow[u], g2.unit_arrow[v]) for u in g1.units for v in g2.units},
    )


def reference_restricted(g: RefGroupoid, arrow_ids: list[str]) -> RefGroupoid:
    keep = set(arrow_ids)
    for u in g.units:
        if g.unit_arrow[u] not in keep:
            raise ValueError(f"Restriction drops the unit arrow at {u!r}.")
    for aid in [a.id for a in g.arrows if a.id in keep]:
        if g.invert[aid] not in keep:
            raise ValueError(f"Restriction not closed under inversion at {aid!r}.")
    compose = {}
    for (x, y), z in g.compose.items():
        if x in keep and y in keep:
            if z not in keep:
                raise ValueError(f"Restriction not closed under composition at ({x!r},{y!r}).")
            compose[(x, y)] = z
    return RefGroupoid(
        g.units, [a for a in g.arrows if a.id in keep], compose, {aid: g.invert[aid] for aid in keep}, g.unit_arrow
    )


def reference_build(spec: dict) -> RefGroupoid:
    """The former builtin dispatch of the document parser."""
    name, params = spec["builtin"], spec.get("params", {})
    if name == "pair":
        return reference_pair(params["n"])
    if name == "cyclic_group":
        return reference_group(cyclic_group(params["n"]))
    if name == "symmetric_group":
        return reference_group(reference_symmetric_group(params["n"]))
    if name == "cyclic_action":
        n = params["points"]
        return reference_action(list(range(n)), cyclic_group(n), lambda x, h: (x + h) % n)
    if name == "symmetric_action":
        n = params["points"]
        grp = reference_symmetric_group(n)
        perms = permutations_of(n)
        inverses = [perms[grp.inv(i)] for i in range(grp.order)]
        return reference_action(list(range(n)), grp, lambda x, h: inverses[h][x])
    if name == "group_bundle_cyclic":
        return reference_bundle([cyclic_group(k) for k in params["orders"]])
    if name == "disjoint_union":
        return reference_union(reference_build(params["left"]), reference_build(params["right"]))
    assert name == "product"
    return reference_product(reference_build(params["left"]), reference_build(params["right"]))


# -- closed-form tables ------------------------------------------------------


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[doc.name for doc in CORPUS])
def test_corpus_tables_match_reference(index):
    doc = CORPUS[index]
    sys = doc.system
    ref = reference_build(doc.raw["groupoid"])
    assert_same_tables(sys.groupoid, ref)
    identity_ids = [a.id for a, keep in zip(sys.groupoid.arrows, sys.identity_mask) if keep]
    assert_same_tables(sys.identity_fiber, reference_restricted(ref, identity_ids))


LARGER = {
    "pair40": (lambda: pair_groupoid(40), lambda: reference_pair(40)),
    "s5": (
        lambda: build_groupoid({"builtin": "symmetric_group", "params": {"n": 5}}),
        lambda: reference_group(reference_symmetric_group(5)),
    ),
    "pair3-x-s3": (
        lambda: product(pair_groupoid(3), group_groupoid(reference_symmetric_group(3))),
        lambda: reference_product(reference_pair(3), reference_group(reference_symmetric_group(3))),
    ),
    "shift4-u-pair3": (
        lambda: disjoint_union(build_groupoid({"builtin": "cyclic_action", "params": {"points": 4}}), pair_groupoid(3)),
        lambda: reference_union(
            reference_action([0, 1, 2, 3], cyclic_group(4), lambda x, h: (x + h) % 4), reference_pair(3)
        ),
    ),
    "s4-action": (
        lambda: build_groupoid({"builtin": "symmetric_action", "params": {"points": 4}}),
        lambda: reference_build({"builtin": "symmetric_action", "params": {"points": 4}}),
    ),
}


@pytest.mark.parametrize("name", list(LARGER))
def test_larger_builtins_match_reference(name):
    build, reference = LARGER[name]
    assert_same_tables(build(), reference())


def test_pair60_builds_in_under_64_bytes_per_pair():
    """The build holds the 216,000 composable pairs, under 64 B each, and
    no n x n table."""
    tracemalloc.start()
    try:
        pair_groupoid(60)
        _, built = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built <= 64 * 60**3


BAD_ACTIONS = {
    "moves-under-identity": lambda x, h: (x + h + (x == 2)) % 4,
    "leaves-point-set": lambda x, h: x + h,
    "incompatible": lambda x, h: (x * (h + 1)) % 4 if h else x,
    "leaves-after-incompatible": lambda x, h: x + 5 if (x, h) == (3, 3) else ((x * (h + 1)) % 4 if h else x),
}


@pytest.mark.parametrize("name", list(BAD_ACTIONS))
def test_action_laws_fail_with_the_reference_witness(name):
    from groupoid_workbench.groupoid import action_groupoid

    action = BAD_ACTIONS[name]
    with pytest.raises(ValueError) as want:
        reference_action([0, 1, 2, 3], cyclic_group(4), action)
    table = [[action(x, h) for h in range(4)] for x in range(4)]
    for given in (action, table, np.array(table)):
        with pytest.raises(ValueError) as got:
            action_groupoid(range(4), cyclic_group(4), given)
        assert str(got.value) == str(want.value)


# -- restriction and explicit tables ----------------------------------------


def restriction_outcome(build, ids):
    try:
        return build(ids)
    except ValueError as exc:
        return str(exc).split(" at ")[0]


@pytest.mark.parametrize("index", BASES, ids=[CORPUS[i].name for i in BASES])
def test_restriction_failures_match_reference(index):
    sys = CORPUS[index].system
    g = sys.groupoid
    ref = reference_build(CORPUS[index].raw["groupoid"])
    rng = np.random.default_rng([7, index])
    identity = [a.id for a, keep in zip(g.arrows, sys.identity_mask) if keep]
    others = [a.id for a, keep in zip(g.arrows, sys.identity_mask) if not keep]
    subsets = [identity[:k] + identity[k + 1 :] for k in rng.permutation(len(identity))[:3]]
    subsets += [identity + [others[k]] for k in rng.permutation(len(others))[:3]]
    for ids in subsets:
        got = restriction_outcome(g.restricted_to, ids)
        want = restriction_outcome(lambda ids: reference_restricted(ref, ids), ids)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_tables(got, want)


def explicit_spec(g: FiniteGroupoid) -> dict:
    compose, invert, unit_arrow = id_tables(g)
    return {
        "units": list(g.units),
        "arrows": [{"id": a.id, "src": a.src, "dst": a.dst} for a in g.arrows],
        "compose": [[x, y, z] for (x, y), z in compose.items()],
        "invert": invert,
        "unit_arrows": unit_arrow,
    }


def reference_explicit(spec: dict) -> RefGroupoid:
    """The former explicit-table reader: compose triples into a dict, a
    repeated pair keeping its last product."""
    compose = {}
    for i, triple in enumerate(spec["compose"]):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise DocumentError(f"groupoid.explicit.compose[{i}]", "expected a [first, second, product] triple")
        compose[(str(triple[0]), str(triple[1]))] = str(triple[2])
    return RefGroupoid(
        [str(u) for u in spec["units"]],
        [Arrow(str(r["id"]), str(r["src"]), str(r["dst"])) for r in spec["arrows"]],
        compose,
        {str(k): str(v) for k, v in spec["invert"].items()},
        {str(k): str(v) for k, v in spec["unit_arrows"].items()},
    )


def corrupted_specs(spec: dict, rng: np.random.Generator) -> dict[str, dict]:
    """Seeded single-entry corruptions of an explicit table."""
    ids = [r["id"] for r in spec["arrows"]]
    triples = spec["compose"]
    pick = lambda seq: seq[int(rng.integers(len(seq)))]
    k = int(rng.integers(len(triples)))
    x, y, z = triples[k]
    other = pick([aid for aid in ids if aid != z])
    other_inverse = pick([aid for aid in ids if aid != spec["invert"][x]])
    unit = spec["units"][0]
    other_unit_arrow = pick([aid for aid in ids if aid != spec["unit_arrows"][unit]])

    def with_compose(compose):
        return dict(spec, compose=compose)

    return {
        "redirected": with_compose(triples[:k] + [[x, y, other]] + triples[k + 1 :]),
        "deleted": with_compose(triples[:k] + triples[k + 1 :]),
        "unknown-first": with_compose(triples[:k] + [["ghost", y, z]] + triples[k + 1 :]),
        "unknown-product": with_compose(triples[:k] + [[x, y, "ghost"]] + triples[k + 1 :]),
        "repeat-redirects": with_compose(triples + [[x, y, other]]),
        "repeat-restores": with_compose(triples[:k] + [[x, y, other]] + triples[k:]),
        "unknown-then-replaced": with_compose(triples[:k] + [[x, y, "ghost"]] + triples[k:]),
        "replaced-by-unknown": with_compose(triples + [[x, y, "ghost"]]),
        "not-a-triple": with_compose(triples[:k] + [[x, y]] + triples[k + 1 :]),
        "string-triple": with_compose(triples[:k] + ["xyz"] + triples[k + 1 :]),
        "numeric-unknown": with_compose(triples[:k] + [[x, y, 7]] + triples[k + 1 :]),
        "two-unknowns": with_compose(triples[:k] + [[x, y, "ghost"]] + triples[k + 1 :] + [["phantom", y, z]]),
        "invert-redirected": dict(spec, invert={**spec["invert"], x: other_inverse}),
        "invert-missing": dict(spec, invert={a: b for a, b in spec["invert"].items() if a != x}),
        "invert-unknown": dict(spec, invert={**spec["invert"], x: "ghost"}),
        "unit-arrow-redirected": dict(spec, unit_arrows={**spec["unit_arrows"], unit: other_unit_arrow}),
        "unit-arrow-unknown-unit": dict(spec, unit_arrows={**spec["unit_arrows"], "nowhere": z}),
        "duplicate-arrow": dict(spec, arrows=spec["arrows"] + [spec["arrows"][0]]),
        "arrow-off-the-units": dict(spec, arrows=[{**spec["arrows"][0], "src": "nowhere"}] + spec["arrows"][1:]),
        "duplicate-unit": dict(spec, units=spec["units"] + spec["units"][:1]),
    }


def explicit_outcome(read, spec: dict):
    try:
        return read(spec)
    except DocumentError as exc:
        return (exc.path, str(exc))
    except ValueError as exc:
        return ("groupoid.explicit", f"groupoid.explicit: {exc}")


@pytest.mark.parametrize("index", BASES, ids=[CORPUS[i].name for i in BASES])
def test_explicit_tables_match_reference_under_corruption(index):
    doc = CORPUS[index]
    spec = explicit_spec(doc.groupoid)
    rng = np.random.default_rng([8, index])
    for name, bad in {"intact": spec, **corrupted_specs(spec, rng)}.items():
        got = explicit_outcome(lambda s: build_groupoid({"explicit": s}), bad)
        want = explicit_outcome(lambda s: reference_tables(reference_explicit(s)), bad)
        if isinstance(want, tuple) and len(want) == 2:
            assert got == want, name
        else:
            assert tables_of(got)[:4] == want[:4], name
            assert np.array_equal(tables_of(got)[4], want[4]), name
            assert tables_of(got)[5:] == want[5:], name


@pytest.mark.parametrize("index", BASES, ids=[CORPUS[i].name for i in BASES])
def test_corrupted_explicit_documents_are_rejected(index):
    doc = CORPUS[index]
    spec = explicit_spec(doc.groupoid)
    twin = document_from_dict(dict(doc.raw, groupoid={"explicit": spec}))
    assert tables_of(twin.groupoid)[:4] == tables_of(doc.groupoid)[:4]
    assert np.array_equal(dense_compose(twin.groupoid), dense_compose(doc.groupoid))
    rng = np.random.default_rng([8, index])
    for name, bad in corrupted_specs(spec, rng).items():
        raw = dict(doc.raw, groupoid={"explicit": bad})
        if name in ("repeat-restores", "unknown-then-replaced"):
            document_from_dict(raw)  # a later triple replaces the bad one
            continue
        with pytest.raises(DocumentError) as err:
            document_from_dict(raw)
        assert err.value.path.startswith("groupoid"), name


# -- one validation path ------------------------------------------------------


def faults(*names: str) -> dict:
    """pair2 Z-graded with the named faults: a redirected compose entry, a
    nonpositive or non-number Haar weight, a non-multiplicative label, a
    group that is not a group."""
    raw = {
        "groupoid": {"explicit": explicit_spec(pair_groupoid(2))},
        "haar": {"rho": {"1": 1.0, "2": 4.0}},
        "group": {"free_abelian": {"rank": 1}},
        "cocycle": {"(1,1)": [0], "(1,2)": [-1], "(2,1)": [1], "(2,2)": [0]},
    }
    if "compose" in names:
        raw["groupoid"]["explicit"]["compose"][0][2] = "(2,1)"
    if "weight" in names:
        raw["haar"]["rho"]["2"] = -4.0
    if "weight-text" in names:
        raw["haar"]["rho"]["2"] = "four"
    if "label" in names:
        raw["cocycle"]["(1,2)"] = [1]
    if "group" in names:
        raw["group"] = {"finite": {"cayley": [[0, 0], [0, 0]]}}
    return raw


@pytest.mark.parametrize(
    "names, path",
    [
        (("compose", "weight"), "groupoid"),
        (("compose", "weight-text"), "groupoid"),
        (("compose", "label"), "groupoid"),
        (("weight", "label"), "haar.rho"),
        (("weight-text", "group"), "haar.rho.2"),
        (("group", "label"), "group.finite.cayley"),
        (("label",), "cocycle"),
    ],
)
def test_document_reports_the_first_failed_stage(names, path):
    with pytest.raises(DocumentError) as err:
        document_from_dict(faults(*names))
    assert err.value.path == path


def test_build_runs_the_document_checks():
    from groupoid_workbench.grading import Cocycle, GradedGroupoid, InvalidSystem
    from groupoid_workbench.groupoid import HaarSystem
    from groupoid_workbench.groups import FreeAbelianGroup

    g = build_groupoid(faults()["groupoid"])
    good = Cocycle(FreeAbelianGroup(1), {"(1,1)": (0,), "(1,2)": (-1,), "(2,1)": (1,), "(2,2)": (0,)})
    bad = Cocycle(FreeAbelianGroup(1), {**good.label, "(1,2)": (1,)})
    assert GradedGroupoid.build(g, HaarSystem({"1": 1.0, "2": 4.0}), good).identity_fiber.n_arrows == 2
    broken = build_groupoid(faults("compose")["groupoid"])
    cases = [
        (broken, {"1": -1.0, "2": 1.0}, bad, "groupoid", "Groupoid: axiom violation: compose-"),
        (g, {"1": -1.0, "2": 1.0}, bad, "haar.rho", "Haar system: Nonpositive Haar weight at unit '1'"),
        (g, {"1": 1.0, "2": 1.0}, bad, "cocycle", "Cocycle: identity violation: not-multiplicative"),
    ]
    for groupoid, rho, cocycle, path, message in cases:
        with pytest.raises(InvalidSystem) as err:
            GradedGroupoid.build(groupoid, HaarSystem(rho), cocycle)
        assert err.value.path == path
        assert str(err.value).startswith(message)
