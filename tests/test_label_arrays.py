"""Cocycle labels and function coefficients read as arrays, against the
per-entry references.

The parser reads a document's labels into the group's element array by
one type scan (``DiscreteGroup.read_elements``), ``validate_cocycle``
checks membership on that array, the fibers are numbered by one
``np.unique`` and grouped by one stable argsort, and a function's
coefficients are one float64 conversion.  The per-entry loops run only to
name the first bad entry.  Here every result is compared with the
dict-based and loop-based forms they replaced: fiber numbering on every
corpus instance and on labels past the int64 range, the cocycle report on
hand-built labels of every wrong kind, coefficient vectors bit for bit,
and a fuzz of one substituted JSON value in a valid document.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from collections import namedtuple
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoid_workbench import document
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import DocumentError, build_group, build_groupoid, document_from_dict, parse_document
from groupoid_workbench.grading import Cocycle, GradedGroupoid, validate_cocycle
from groupoid_workbench.groupoid import FiniteGroupoid, counting_haar, pair_groupoid
from groupoid_workbench.groups import FreeAbelianGroup, cyclic_group, symmetric_group
from test_table_validation import reference_validate_cocycle

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pair_documents import pair_documents  # noqa: E402

# -- references ----------------------------------------------------------


def reference_number_fibers(g: FiniteGroupoid, c: Cocycle) -> tuple[np.ndarray, tuple[Any, ...]]:
    """Fiber numbers by a dict of first appearances, ranked by the sort key."""
    first: dict[Any, int] = {}
    seen = np.array([first.setdefault(c.label[a.id], len(first)) for a in g.arrows], dtype=np.intp)
    elements = tuple(sorted(first, key=c.group.sort_key))
    rank = np.empty(len(elements), dtype=np.intp)
    rank[[first[el] for el in elements]] = np.arange(len(elements))
    return rank[seen], elements


def assert_fibers_match_reference(sys_: GradedGroupoid) -> None:
    g, c = sys_.groupoid, sys_.cocycle
    index, elements = reference_number_fibers(g, c)
    keys = tuple(c.group.element_key(el) for el in elements)
    fibers = {key: tuple(np.array([a.id for a in g.arrows], dtype=object)[index == k]) for k, key in enumerate(keys)}
    assert sys_.fiber_index.dtype == np.intp and sys_.fiber_index.tolist() == index.tolist()
    assert sys_.fiber_elements == elements
    assert [list(map(type, np.atleast_1d(el))) for el in sys_.fiber_elements] == [
        list(map(type, np.atleast_1d(el))) for el in elements
    ]
    assert sys_.fiber_keys == keys
    assert list(sys_.fibers().items()) == list(fibers.items())


def reference_read_cocycle(raw: dict, g: FiniteGroupoid) -> Cocycle:
    """The label loop: each arrow in declared order, missing or through
    ``canonical``, then the unknown arrows."""
    group = build_group(raw["group"])
    spec = raw["cocycle"]
    label = {}
    for aid in g.arrow_ids:
        if aid not in spec:
            raise DocumentError(f"cocycle.{aid}", "missing label for this arrow")
        try:
            label[aid] = group.canonical(spec[aid])
        except ValueError as exc:
            raise DocumentError(f"cocycle.{aid}", str(exc)) from exc
    extra = set(spec) - set(g.arrow_ids)
    if extra:
        raise DocumentError("cocycle", f"labels for unknown arrows {sorted(extra)[:3]}")
    return Cocycle(group=group, label=label)


def reference_coefficients(g: FiniteGroupoid, coeffs: dict, path: str) -> np.ndarray:
    """The coefficient loop: each entry in order, the arrow then the value."""
    vec = np.zeros(g.n_arrows, dtype=np.complex128)
    for aid, value in coeffs.items():
        if not g.has_arrow(aid):
            raise DocumentError(f"{path}.{aid}", "unknown arrow")
        vec[g.index(aid)] = document._parse_complex(value, f"{path}.{aid}")
    return vec


def reference_outcome(raw: dict) -> tuple:
    """What the per-entry readers make of a document whose groupoid and
    weights are valid: the first error as (path, message), or the labels
    and the coefficient bytes."""
    g = build_groupoid(raw["groupoid"])
    try:
        c = reference_read_cocycle(raw, g)
        report = reference_validate_cocycle(g, c)
        if not report:
            raise DocumentError("cocycle", f"identity violation: {report.cause} {dict(report.witness)}")
        vectors = {
            name: reference_coefficients(g, coeffs, f"functions.{name}").tobytes()
            for name, coeffs in raw.get("functions", {}).items()
        }
    except DocumentError as exc:
        return ("reject", exc.path, str(exc))
    return ("accept", c.label, vectors)


def outcome(text: str) -> tuple:
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        return ("reject", exc.path, str(exc))
    return ("accept", doc.system.cocycle.label, {name: f.coeffs.tobytes() for name, f in doc.functions.items()})


# -- fiber numbering -------------------------------------------------------


def s5_document() -> dict:
    """S5 as a one-unit groupoid, graded by the identity map onto its own table."""
    ids = [f"g{i}" for i in range(120)]
    return {
        "groupoid": {"builtin": "symmetric_group", "params": {"n": 5}},
        "haar": {"rho": {"u": 1.0}},
        "group": {"finite": {"cayley": symmetric_group(5).cayley.tolist()}},
        "cocycle": {aid: i for i, aid in enumerate(ids)},
        "functions": {"f": {aid: [i / 7, -i] for i, aid in enumerate(ids[::5])}},
    }


def test_fibers_of_every_corpus_instance_match_reference():
    for doc in builtin_corpus(seed=0):
        assert_fibers_match_reference(doc.system)


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_fibers_of_the_pair_documents_match_reference(n):
    for name, raw in pair_documents(n).items():
        if name.endswith(("builtin", "explicit")):
            assert_fibers_match_reference(document_from_dict(raw).system)


def test_fibers_of_the_s5_document_match_reference():
    sys_ = document_from_dict(s5_document()).system
    assert_fibers_match_reference(sys_)
    assert len(sys_.fibers()) == 120


@pytest.mark.parametrize("value", [2**62 - 1, 2**62, 2**63 - 1, 2**63, -(2**63), 2**70 + 1])
def test_fibers_at_the_int64_edge_match_reference(value):
    g = pair_groupoid(3)
    label = {a.id: ((int(a.dst) - int(a.src)) * value,) for a in g.arrows}
    assert_fibers_match_reference(GradedGroupoid.build(g, counting_haar(g), Cocycle(FreeAbelianGroup(1), label)))
    # the same differences in two coordinates, the second negated
    label = {aid: (x, -x) for aid, (x,) in label.items()}
    assert_fibers_match_reference(GradedGroupoid.build(g, counting_haar(g), Cocycle(FreeAbelianGroup(2), label)))


@pytest.mark.parametrize("rank", [0, 2, 3])
def test_fibers_of_free_abelian_rows_match_reference(rank):
    g = pair_groupoid(4)
    v = {u: tuple((int(u) * (k + 2)) % 5 - 2 for k in range(rank)) for u in g.units}
    label = {a.id: tuple(x - y for x, y in zip(v[a.dst], v[a.src])) for a in g.arrows}
    assert_fibers_match_reference(GradedGroupoid.build(g, counting_haar(g), Cocycle(FreeAbelianGroup(rank), label)))


def test_number_fibers_rejects_labels_that_are_not_elements():
    g = pair_groupoid(2)
    with pytest.raises(ValueError, match="not canonical"):
        GradedGroupoid(g, counting_haar(g), Cocycle(FreeAbelianGroup(1), dict.fromkeys(g.arrow_ids, [0])))


def test_cocycle_labels_are_converted_once(monkeypatch):
    """The parsed cocycle carries the read-only element array the parser
    read, so validation and fiber numbering convert no labels; a label map
    alone is converted when the cocycle is made, to None when a label is no
    element."""
    doc = document_from_dict(pair_documents(5)["pair5-builtin"])
    g, c = doc.system.groupoid, doc.system.cocycle
    assert not c.elements.flags.writeable
    assert c.elements.tolist() == c.group.element_array(list(c.label.values())).tolist()
    assert Cocycle(c.group, dict(c.label)).elements.tolist() == c.elements.tolist()
    assert Cocycle(c.group, {**c.label, "(1,2)": 1.5}).elements is None
    lengths = []
    convert = FreeAbelianGroup.element_array
    monkeypatch.setattr(FreeAbelianGroup, "element_array", lambda self, els: lengths.append(len(els)) or convert(self, els))
    assert validate_cocycle(g, c).ok
    assert_fibers_match_reference(GradedGroupoid(g, doc.system.haar, c))
    assert g.n_arrows not in lengths


# -- the cocycle report -----------------------------------------------------


class Index(enum.IntEnum):
    ZERO = 0
    ONE = 1


Point = namedtuple("Point", "x")


def pair_labels(g: FiniteGroupoid, element: Any) -> dict[str, Any]:
    return {a.id: element(int(a.dst) - int(a.src)) for a in g.arrows}


@pytest.mark.parametrize(
    "group, element",
    [
        (FreeAbelianGroup(1), lambda d: (d,)),
        (cyclic_group(2), lambda d: d % 2),
        (cyclic_group(5), lambda d: d % 5),
    ],
)
@pytest.mark.parametrize(
    "change",
    [
        None,
        ("(2,3)", "missing"),
        ("(1,1)", True),
        ("(3,1)", False),
        ("(2,1)", None),
        ("(2,1)", 1.0),
        ("(1,3)", "1"),
        ("(1,2)", [1]),
        ("(1,2)", [-1]),
        ("(3,3)", (0, 0)),
        ("(3,3)", ()),
        ("(2,2)", 5),
        ("(2,2)", -1),
        ("(2,2)", 2**70),
        ("(1,2)", np.int64(1)),
        ("(1,1)", Index.ZERO),
        ("(1,1)", (Index.ZERO,)),
        ("(1,1)", Point(0)),
        ("(3,2)", (np.int64(1),)),
        ("(3,2)", (1.0,)),
    ],
)
def test_cocycle_report_matches_reference(group, element, change):
    g = pair_groupoid(3)
    label = pair_labels(g, element)
    if change is not None:
        aid, value = change
        if value == "missing":
            del label[aid]
        else:
            label[aid] = value
    c = Cocycle(group, label)
    got, ref = validate_cocycle(g, c), reference_validate_cocycle(g, c)
    assert (got.ok, got.cause, got.witness) == (ref.ok, ref.cause, ref.witness)


def test_list_labels_over_free_abelian_groups_are_not_members():
    g = pair_groupoid(2)
    for rank, element in ((1, lambda d: [d]), (2, lambda d: [d, 0]), (1, lambda d: d)):
        report = validate_cocycle(g, Cocycle(FreeAbelianGroup(rank), pair_labels(g, element)))
        assert report.cause == "label-not-in-group" and report.witness["arrow"] == "(1,1)"


# -- coefficients ------------------------------------------------------------


EDGE_VALUES = [
    0,
    -0.0,
    1,
    2**53 + 1,
    -(2**63) - 1,
    2**64 + 3,
    10**300 + 7,
    5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1 / 3,
]


def test_coefficients_are_bit_identical_to_the_loop():
    g = pair_groupoid(4)
    ids = g.arrow_ids
    coeffs = {aid: [EDGE_VALUES[i % len(EDGE_VALUES)], EDGE_VALUES[(5 * i + 3) % len(EDGE_VALUES)]] for i, aid in enumerate(ids)}
    for sample in (coeffs, dict(reversed(coeffs.items())), {}, {ids[3]: [2**60 + 1, -1]}):
        got = document._read_coefficients(g, sample, "functions.f")
        assert got.tobytes() == reference_coefficients(g, sample, "functions.f").tobytes()


@pytest.mark.parametrize(
    "value",
    [[True, 0], [0, False], [None, 0], [math.nan, 0], [0, math.inf], [-math.inf, 1], [10**400, 0], [0, -(10**400)],
     [1, 2, 3], [1], [], "1", {"re": 1}, [[1], 2], [np.float64(1), 0], (1, 2)],
)
def test_bad_coefficients_are_named_as_the_loop_names_them(value):
    g = pair_groupoid(2)
    coeffs = {"(1,1)": [1, 0], "(2,1)": value, "(1,2)": "later"}
    try:
        expected = reference_coefficients(g, coeffs, "functions.f").tobytes()
    except DocumentError as exc:
        with pytest.raises(DocumentError) as err:
            document._read_coefficients(g, coeffs, "functions.f")
        assert (err.value.path, str(err.value)) == (exc.path, str(exc))
    else:
        assert document._read_coefficients(g, coeffs, "functions.f").tobytes() == expected


def test_document_coefficients_are_bit_identical_to_the_loop():
    valid = {"builtin", "explicit"}
    raws = [s5_document(), *(raw for name, raw in pair_documents(6).items() if name.split("-")[-1] in valid)]
    raws += [doc.raw for doc in builtin_corpus(seed=0)]
    for raw in raws:
        doc = document_from_dict(raw)
        for name, coeffs in raw["functions"].items():
            expected = reference_coefficients(doc.groupoid, coeffs, f"functions.{name}")
            assert doc.functions[name].coeffs.tobytes() == expected.tobytes()


# -- one substituted JSON value ---------------------------------------------


def base_documents() -> dict[str, dict]:
    """Valid pair(3) documents graded by Z, Z^2 and Z/3, with a function on
    every arrow."""
    units = ["1", "2", "3"]
    ids = [f"({i},{j})" for i in units for j in units]
    docs = {}
    for name, group, element in (
        ("z1", {"free_abelian": {"rank": 1}}, lambda d: [d]),
        ("z2", {"free_abelian": {"rank": 2}}, lambda d: [d, -2 * d]),
        ("c3", {"finite": {"cayley": cyclic_group(3).cayley.tolist()}}, lambda d: d % 3),
    ):
        docs[name] = {
            "name": name,
            "groupoid": {"builtin": "pair", "params": {"n": 3}},
            "haar": {"rho": {u: float(u) for u in units}},
            "group": group,
            "cocycle": {f"({i},{j})": element(int(i) - int(j)) for i in units for j in units},
            "functions": {"f": {aid: [k / 4, 1 - k] for k, aid in enumerate(ids)}},
        }
    return docs


BASES = base_documents()
IDS = list(BASES["z1"]["cocycle"])

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([math.nan, math.inf, -math.inf, 2**62, -(2**62), 2**63, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
substitutes = st.one_of(
    json_values,
    st.lists(st.integers(min_value=-3, max_value=3), max_size=4),
    st.lists(json_scalars, min_size=2, max_size=2),
    st.just("missing"),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    base=st.sampled_from(sorted(BASES)),
    field=st.sampled_from(["cocycle", "functions"]),
    aid=st.sampled_from(IDS + ["(4,4)"]),
    value=substitutes,
)
def test_one_substituted_value_reads_as_the_loop(base, field, aid, value):
    raw = json.loads(json.dumps(BASES[base]))
    target = raw["cocycle"] if field == "cocycle" else raw["functions"]["f"]
    if value == "missing":
        target.pop(aid, None)
    else:
        target[aid] = value
    text = json.dumps(raw)  # NaN and Infinity as their literals
    expected = reference_outcome(json.loads(text))
    got = outcome(text)
    assert got == expected
    if got[0] == "accept":
        assert all(type(el) is type(ref) for el, ref in zip(got[1].values(), expected[1].values()))

