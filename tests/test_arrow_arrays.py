"""Arrows as ids plus endpoint arrays.

A groupoid holds its arrows as the tuple of ids and the unit numbers of
their endpoints (``src_index``, ``dst_index``); the tuple of ``Arrow``
records is a view built on first read.  Here:

* the constructor checks the endpoint arrays like its other tables, and the
  records view agrees with the arrays;
* the explicit reader against the record reader it replaced
  (``reference_explicit``), with one field of one arrow record, one
  ``units`` entry or one ``invert``/``unit_arrows`` value replaced by
  arbitrary JSON: a string or number reads as before, and any other value
  is rejected at its own path;
* parse and validate of pair(40), and the ``workbench norms`` path on
  pair(12), build no record view, on G and on G_e.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoid_workbench import document
from groupoid_workbench import groupoid as groupoid_module
from groupoid_workbench.algebra import i_norm, restrict_q
from groupoid_workbench.cli import main
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import DocumentError, _as_object, _require, _require_list, document_from_dict, parse_document
from groupoid_workbench.groupoid import Arrow, FiniteGroupoid, pair_groupoid
from groupoid_workbench.hilbert_module import L_operator_norm, module_norm
from groupoid_workbench.representation import cstar_norm

from conftest import from_records
from pair_documents import pair_documents
from test_label_arrays import json_values

# -- the constructor ---------------------------------------------------------


def pair2_tables() -> dict:
    g = pair_groupoid(2)
    return {
        "units": g.units,
        "arrow_ids": g.arrow_ids,
        "src": g.src_index.copy(),
        "dst": g.dst_index.copy(),
        "compose": np.stack(g.composable_pairs(), axis=1),
        "invert": g.invert_index.copy(),
        "unit_arrow": g.unit_arrow_index.copy(),
    }


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("src", np.array([0, 1, 2, 1]), r"src table has an entry 2 outside \[0, 2\)"),
        ("dst", np.array([0, -1, 1, 1]), r"dst table has an entry -1 outside \[0, 2\)"),
        ("src", np.array([0, 1, 0]), r"src table must be an integer array of shape \(4,\), got int64 array of shape \(3,\)"),
        ("dst", np.array([0.0, 0.0, 1.0, 1.0]), r"dst table must be an integer array of shape \(4,\), got float64"),
        ("src", ["1", "2", "1", "2"], r"src table must be an integer array of shape \(4,\), got list"),
        ("arrow_ids", ("a", "b", "a", "c"), "Arrow identifiers must be unique"),
        ("units", ("1", "1"), "Unit identifiers must be unique"),
    ],
)
def test_malformed_endpoints_and_ids_rejected(name, value, message):
    tables = dict(pair2_tables(), **{name: value})
    with pytest.raises(ValueError, match=message):
        FiniteGroupoid(*tables.values())


CORPUS = builtin_corpus(seed=0)


@pytest.mark.parametrize("index", range(0, len(CORPUS), 2), ids=[doc.name for doc in CORPUS[::2]])
def test_records_view_reads_the_endpoint_arrays(index):
    system = CORPUS[index].system
    for g in (system.groupoid, system.identity_fiber):
        assert "arrows" not in g._cache
        records = g.arrows
        assert g.arrows is records and g._cache["arrows"] is records
        assert [a.id for a in records] == list(g.arrow_ids)
        assert [(a.src, a.dst) for a in records] == [(g.units[s], g.units[r]) for s, r in zip(g.src_index, g.dst_index)]
        assert all(g.arrow(a.id) is a and (g.source(a.id), g.target(a.id)) == (a.src, a.dst) for a in records)
        assert from_records(g.units, list(records), np.stack(g.composable_pairs(), axis=1), g.invert_index, g.unit_arrow_index).arrows == records


# -- the explicit reader against the record reader it replaced -----------------


def reference_numbered(units: list[str], arrows: list[Arrow]) -> tuple[dict[str, int], dict[str, int]]:
    """The former ``groupoid.numbered``, with its endpoint check."""
    unit_index = {str(u): i for i, u in enumerate(units)}
    if not unit_index:
        raise ValueError("Unit space must be nonempty (norms are undefined on empty algebras).")
    if len(unit_index) != len(units):
        raise ValueError("Unit identifiers must be unique.")
    index = {a.id: i for i, a in enumerate(arrows)}
    if len(index) != len(arrows):
        raise ValueError("Arrow identifiers must be unique.")
    for a in arrows:
        if a.src not in unit_index or a.dst not in unit_index:
            raise ValueError(f"Arrow {a.id!r} references unknown unit {a.src!r} or {a.dst!r}.")
    return unit_index, index


def reference_explicit(spec: dict, path: str) -> FiniteGroupoid:
    """The former explicit reader: every id through ``str``, one ``Arrow``
    record per arrow, and the groupoid built from the records."""
    units = [str(u) for u in _require_list(spec, "units", path)]
    arrows = []
    for i, rec in enumerate(_require_list(spec, "arrows", path)):
        at = f"{path}.arrows[{i}]"
        rec = _as_object(rec, at)
        arrows.append(Arrow(id=str(_require(rec, "id", at)), src=str(_require(rec, "src", at)), dst=str(_require(rec, "dst", at))))
    triples = _require_list(spec, "compose", path)
    for i, triple in enumerate(triples):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise DocumentError(f"{path}.compose[{i}]", "expected a [first, second, product] triple")
    invert = {str(k): str(v) for k, v in _as_object(_require(spec, "invert", path), f"{path}.invert").items()}
    unit_arrows = {str(k): str(v) for k, v in _as_object(_require(spec, "unit_arrows", path), f"{path}.unit_arrows").items()}
    try:
        unit_index, index = reference_numbered(units, arrows)
        table = document._compose_table(triples, index, f"{path}.compose")
        for x, y in invert.items():
            if x not in index or y not in index:
                raise ValueError(f"Invert entry {x!r}->{y!r} references an unknown arrow.")
        missing = [a.id for a in arrows if a.id not in invert]
        if missing:
            raise ValueError(f"Invert table missing arrows {missing[:3]}.")
        for u, aid in unit_arrows.items():
            if u not in unit_index:
                raise ValueError(f"Unit-arrow entry for unknown unit {u!r}.")
            if aid not in index:
                raise ValueError(f"Unit arrow {aid!r} for unit {u!r} is not a declared arrow.")
        missing = [u for u in units if u not in unit_arrows]
        if missing:
            raise ValueError(f"Unit-arrow table missing units {missing[:3]}.")
        inverse = np.array([index[invert[a.id]] for a in arrows], dtype=np.intp)
        unit_arrow = np.array([index[unit_arrows[u]] for u in units], dtype=np.intp)
        return from_records(units, arrows, table, inverse, unit_arrow)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from exc


def outcome(raw: dict) -> tuple:
    try:
        g = document_from_dict(raw).groupoid
    except DocumentError as exc:
        return ("reject", exc.path, str(exc))
    tables = (g.src_index, g.dst_index, *g.composable_pairs(), g.invert_index, g.unit_arrow_index)
    return ("accept", g.units, g.arrows, *(t.tolist() for t in tables))


BASE = pair_documents(3)["pair3-explicit"]
EXPLICIT = BASE["groupoid"]["explicit"]
IDS = [rec["id"] for rec in EXPLICIT["arrows"]]
UNITS = EXPLICIT["units"]
MISSING = object()

ids = st.one_of(st.sampled_from(IDS + UNITS + ["ghost", ""]), st.integers(-1, 4), st.sampled_from([1.0, 2.5]), json_values)
edits = st.one_of(
    st.tuples(st.just("arrows"), st.tuples(st.integers(0, len(IDS) - 1), st.sampled_from(["id", "src", "dst"])), st.one_of(ids, st.just(MISSING))),
    st.tuples(st.just("units"), st.integers(0, len(UNITS) - 1), ids),
    st.tuples(st.just("invert"), st.sampled_from(IDS), ids),
    st.tuples(st.just("unit_arrows"), st.sampled_from(UNITS), ids),
)


def is_id(value) -> bool:
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


@settings(max_examples=400, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(edit=edits)
def test_one_substituted_field_reads_as_the_record_reader(edit):
    field, at, value = edit
    explicit = json.loads(json.dumps(EXPLICIT))
    if field == "arrows":
        (i, key), path = at, f"groupoid.explicit.arrows[{at[0]}].{at[1]}"
        if value is MISSING:
            del explicit["arrows"][i][key]
        else:
            explicit["arrows"][i][key] = value
    else:
        explicit[field][at] = value
        path = f"groupoid.explicit.{field}" + (f"[{at}]" if field == "units" else f".{at}")
    raw = json.loads(json.dumps(dict(BASE, groupoid={"explicit": explicit})))
    got = outcome(raw)
    if value is not MISSING and not is_id(value):
        # the record reader read any JSON value through str; the parser rejects it
        assert got[:2] == ("reject", path)
        assert got[2].startswith(f"{path}: an id is a string or a number, got ")
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(document, "_build_explicit", reference_explicit)
        expected = outcome(raw)
    assert got == expected


def test_the_unedited_document_reads_as_the_record_reader(monkeypatch):
    raw = json.loads(json.dumps(BASE))
    got = outcome(raw)
    monkeypatch.setattr(document, "_build_explicit", reference_explicit)
    assert got[0] == "accept" and got == outcome(raw)


def explicit_z2(**changes) -> dict:
    explicit = {
        "units": ["u"],
        "arrows": [{"id": "e", "src": "u", "dst": "u"}, {"id": "g", "src": "u", "dst": "u"}],
        "compose": [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
        "invert": {"e": "e", "g": "g"},
        "unit_arrows": {"u": "e"},
    }
    return {
        "groupoid": {"explicit": dict(explicit, **changes)},
        "haar": {"rho": {"u": 1.0}},
        "group": {"finite": {"cayley": [[0, 1], [1, 0]]}},
        "cocycle": {"e": 0, "g": 1},
    }


COERCED = {
    # a list unit read through str named the unit "['u']"
    "list-unit": (dict(units=[["u"]], arrows=[{"id": "e", "src": "['u']", "dst": "['u']"}], compose=[["e", "e", "e"]], invert={"e": "e"}, unit_arrows={"['u']": "e"}), "units[0]", "list"),
    # a true arrow id read through str named the arrow "True"
    "true-id": (dict(arrows=[{"id": True, "src": "u", "dst": "u"}], compose=[[True, True, True]], invert={"True": "True"}, unit_arrows={"u": "True"}), "arrows[0].id", "bool"),
    "null-src": (dict(arrows=[{"id": "e", "src": None, "dst": "u"}, {"id": "g", "src": "u", "dst": "u"}]), "arrows[0].src", "NoneType"),
    "object-dst": (dict(arrows=[{"id": "e", "src": "u", "dst": {"u": 1}}, {"id": "g", "src": "u", "dst": "u"}]), "arrows[0].dst", "dict"),
    "false-inverse": (dict(invert={"e": "e", "g": False}), "invert.g", "bool"),
    "list-unit-arrow": (dict(unit_arrows={"u": ["e"]}), "unit_arrows.u", "list"),
    # the str fallback of the compose reader; the fast path reads known strings only
    "true-compose-entry": (dict(compose=[["e", "e", "e"], ["e", "g", "g"], ["g", "e", True], ["g", "g", "e"]]), "compose[2][2]", "bool"),
    "null-compose-entry": (dict(compose=[["e", "e", "e"], ["e", None, "g"], ["g", "e", "g"], ["g", "g", "e"]]), "compose[1][1]", "NoneType"),
    "list-compose-entry": (dict(compose=[[["e"], "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]]), "compose[0][0]", "list"),
}


@pytest.mark.parametrize("name", list(COERCED))
def test_ids_that_are_neither_strings_nor_numbers_are_rejected_at_their_path(name, tmp_path, capsys):
    changes, at, kind = COERCED[name]
    raw = explicit_z2(**changes)
    with pytest.raises(DocumentError) as info:
        document_from_dict(raw)
    assert info.value.path == f"groupoid.explicit.{at}"
    assert str(info.value) == f"groupoid.explicit.{at}: an id is a string or a number, got {kind}"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.startswith(f"invalid: groupoid.explicit.{at}: ")


def test_an_unknown_endpoint_keeps_its_message():
    raw = explicit_z2(arrows=[{"id": "e", "src": "u", "dst": "u"}, {"id": "g", "src": "u", "dst": 7}])
    with pytest.raises(DocumentError) as info:
        document_from_dict(raw)
    assert info.value.path == "groupoid.explicit"
    assert str(info.value) == "groupoid.explicit: Arrow 'g' references unknown unit 'u' or '7'."


# -- no records on the hot paths -------------------------------------------------


def never(*args):
    raise AssertionError("an Arrow record was built")


def test_parse_and_validate_build_no_record_view(monkeypatch):
    """What ``workbench validate`` computes on pair(40), on G and G_e."""
    monkeypatch.setattr(groupoid_module, "Arrow", never)
    doc = parse_document(json.dumps(pair_documents(40)["pair40-builtin"]))
    system = doc.system
    assert len(system.fibers()) == 79 and system.identity_fiber.n_arrows == 40
    for g in (doc.groupoid, system.identity_fiber):
        assert "arrows" not in g._cache


def test_the_norms_path_builds_no_record_view(monkeypatch, tmp_path):
    """Parsing, the identity fiber and the five quantities of ``workbench
    norms`` read ids and endpoint arrays only, on G and on G_e."""
    monkeypatch.setattr(groupoid_module, "Arrow", never)
    doc = parse_document(json.dumps(pair_documents(12)["pair12-builtin"]))
    system, a = doc.system, doc.functions["sample"]
    cstar_norm(restrict_q(a, system.identity_fiber), system.haar)
    module_norm(system, a)
    L_operator_norm(system, a)
    i_norm(a, system.haar)
    cstar_norm(a, system.haar)
    for g in (doc.groupoid, system.identity_fiber):
        assert "arrows" not in g._cache
    path = tmp_path / "pair12.json"
    path.write_text(json.dumps(pair_documents(12)["pair12-builtin"]))
    assert main(["norms", str(path), "--fn", "sample"]) == 0
