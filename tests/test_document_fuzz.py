"""Arbitrary JSON at every document field outside the explicit table.

The explicit groupoid spec is fuzzed in ``test_pair_table`` and
``test_arrow_arrays``, and the cocycle labels and function coefficients in
``test_label_arrays``.  Here one field of a valid document, one per builtin
groupoid, is replaced by an arbitrary JSON value or removed: the builtin's
``params`` and each of its parameters, ``haar.rho`` and one weight,
``group``, ``group.free_abelian.rank``, ``name``, ``functions`` and the
top-level ``groupoid``.  Parsing the document's text must give a document
or a ``DocumentError``, never another exception.  The arrow budget
``document.MAX_ARROWS`` is set small, so a parameter past it must be
rejected at its ``params`` before anything is built.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoid_workbench import document
from groupoid_workbench.document import DocumentError, build_groupoid, parse_document

from test_label_arrays import json_values

BUDGET = 30
PAIR2 = {"builtin": "pair", "params": {"n": 2}}
Z2 = {"builtin": "cyclic_group", "params": {"n": 2}}
SPECS = {
    "pair": PAIR2,
    "cyclic_group": {"builtin": "cyclic_group", "params": {"n": 3}},
    "symmetric_group": {"builtin": "symmetric_group", "params": {"n": 3}},
    "cyclic_action": {"builtin": "cyclic_action", "params": {"points": 3}},
    "symmetric_action": {"builtin": "symmetric_action", "params": {"points": 2}},
    "group_bundle_cyclic": {"builtin": "group_bundle_cyclic", "params": {"orders": [2, 3]}},
    "disjoint_union": {"builtin": "disjoint_union", "params": {"left": PAIR2, "right": Z2}},
    "product": {"builtin": "product", "params": {"left": PAIR2, "right": Z2}},
}


def base_document(spec: dict) -> dict:
    """A valid document over the groupoid of ``spec``: Z-graded by zero
    labels, with distinct unit weights and one function."""
    g = build_groupoid(spec)
    return {
        "name": "fuzz",
        "groupoid": spec,
        "haar": {"rho": {u: 1.0 + k for k, u in enumerate(g.units)}},
        "group": {"free_abelian": {"rank": 1}},
        "cocycle": {aid: [0] for aid in g.arrow_ids},
        "functions": {"f": {g.arrow_ids[-1]: [1.0, 0.5]}},
    }


BASES = {name: base_document(spec) for name, spec in SPECS.items()}


def fields(raw: dict) -> list[tuple[str, ...]]:
    """The key paths of the fuzzed fields of a base document."""
    params = raw["groupoid"]["params"]
    return [
        ("groupoid",),
        ("groupoid", "params"),
        *(("groupoid", "params", key) for key in params),
        ("haar", "rho"),
        ("haar", "rho", next(iter(raw["haar"]["rho"]))),
        ("group",),
        ("group", "free_abelian", "rank"),
        ("name",),
        ("functions",),
    ]


MISSING = object()

substitutions = st.sampled_from(sorted(BASES)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.sampled_from(fields(BASES[name])),
        st.one_of(json_values, st.integers(-3, 2 * BUDGET), st.lists(st.integers(-3, 8), max_size=4), st.just(MISSING)),
    )
)


def outcome(text: str) -> tuple:
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        return ("reject", exc.path, str(exc))
    return ("accept", doc.groupoid.n_arrows)


def test_every_base_document_is_accepted():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(document, "MAX_ARROWS", BUDGET)
        for raw in BASES.values():
            assert outcome(json.dumps(raw))[0] == "accept"


@settings(max_examples=600, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(substitutions)
def test_one_substituted_field_gives_a_document_or_a_document_error(substitution):
    name, path, value = substitution
    raw = json.loads(json.dumps(BASES[name]))
    *parents, key = path
    target = raw
    for parent in parents:
        target = target[parent]
    if value is MISSING:
        del target[key]
    else:
        target[key] = value

    def never(*args):
        raise AssertionError("a spec over the arrow budget was built")

    text = json.dumps(raw)  # NaN and Infinity as their literals
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(document, "MAX_ARROWS", BUDGET)
        got = outcome(text)
        if got[0] == "accept":
            assert got[1] <= BUDGET
        elif got[1] == "groupoid.params" and "over the budget" in got[2]:
            patch.setattr(document, "_build_builtin", never)
            assert outcome(text) == got


@pytest.mark.parametrize(
    "text",
    ['{"name": ' + "1" * 5000 + "}", '{"name": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["integer-past-the-digit-limit", "nesting-past-the-stack"],
)
def test_text_the_decoder_cannot_read_is_a_document_error(text):
    """json.loads raises a plain ValueError on an integer of more than 4,300
    digits and a RecursionError on deep nesting, not a JSONDecodeError; the
    parser reports both at the document root."""
    with pytest.raises(DocumentError, match="invalid JSON") as err:
        parse_document(text)
    assert err.value.path == "$"
