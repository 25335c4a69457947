"""The explicit-table reader reads each id column in bulk (one type scan and
one lookup pass) and falls back to reading entry by entry only to name the
first bad entry.  Every corruption below must keep the error path and
message of the entry-by-entry reader, pinned here as they were before the
bulk reads; every accepted variant must give the tables of the
entry-by-entry reader."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from groupoid_workbench.document import DocumentError, build_groupoid

# pair(2) on units 1, 2 with one-letter ids: a = (1,1), b = (1,2), c = (2,1),
# d = (2,2), where (i,j) runs from j to i.
ARROWS = {"a": ("1", "1"), "b": ("2", "1"), "c": ("1", "2"), "d": ("2", "2")}
PRODUCT = {("a", "a"): "a", ("a", "b"): "b", ("b", "c"): "a", ("b", "d"): "b",
           ("c", "a"): "c", ("c", "b"): "d", ("d", "c"): "c", ("d", "d"): "d"}


def explicit() -> dict:
    return {
        "units": ["1", "2"],
        "arrows": [{"id": aid, "src": s, "dst": r} for aid, (s, r) in ARROWS.items()],
        "compose": [[x, y, z] for (x, y), z in PRODUCT.items()],
        "invert": {"a": "a", "b": "c", "c": "b", "d": "d"},
        "unit_arrows": {"1": "a", "2": "d"},
    }


def corrupt(edit):
    spec = explicit()
    edit(spec)
    return spec


def setitem(path, value):
    """An edit that sets spec[path[0]][path[1]]...[path[-1]] = value."""

    def edit(spec):
        target = spec
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


def delete(path):
    def edit(spec):
        target = spec
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return edit


def prepend(key, *entries):
    def edit(spec):
        spec[key][:0] = [list(e) for e in entries]

    return edit


AT = "groupoid.explicit"
REJECTED = {
    "record-not-an-object": (setitem(["arrows", 2], ["c", "1", "2"]), f"{AT}.arrows[2]", "expected an object, got list"),
    "record-missing-id": (delete(["arrows", 1, "id"]), f"{AT}.arrows[1]", "missing required field 'id'"),
    "record-missing-src": (delete(["arrows", 3, "src"]), f"{AT}.arrows[3]", "missing required field 'src'"),
    "record-missing-dst": (delete(["arrows", 0, "dst"]), f"{AT}.arrows[0]", "missing required field 'dst'"),
    "first-bad-record-wins": (
        lambda s: (delete(["arrows", 3, "id"])(s), setitem(["arrows", 1, "dst"], True)(s)),
        f"{AT}.arrows[1].dst",
        "an id is a string or a number, got bool",
    ),
    "bool-id": (setitem(["arrows", 1, "id"], True), f"{AT}.arrows[1].id", "an id is a string or a number, got bool"),
    "list-src": (setitem(["arrows", 2, "src"], ["1"]), f"{AT}.arrows[2].src", "an id is a string or a number, got list"),
    "dict-dst": (setitem(["arrows", 3, "dst"], {}), f"{AT}.arrows[3].dst", "an id is a string or a number, got dict"),
    "null-id": (setitem(["arrows", 0, "id"], None), f"{AT}.arrows[0].id", "an id is a string or a number, got NoneType"),
    "bool-unit": (setitem(["units", 1], False), f"{AT}.units[1]", "an id is a string or a number, got bool"),
    "unknown-src-unit": (setitem(["arrows", 2, "src"], "3"), AT, "Arrow 'c' references unknown unit '3' or '2'."),
    "repeated-arrow-id": (setitem(["arrows", 2, "id"], "b"), AT, "Arrow identifiers must be unique."),
    "three-character-string-triple": (
        setitem(["compose", 4], "abc"),
        f"{AT}.compose[4]",
        "expected a [first, second, product] triple",
    ),
    "short-triple": (setitem(["compose", 6], ["d", "c"]), f"{AT}.compose[6]", "expected a [first, second, product] triple"),
    "long-triple": (setitem(["compose", 0], ["a", "a", "a", "a"]), f"{AT}.compose[0]", "expected a [first, second, product] triple"),
    "triple-not-a-list": (setitem(["compose", 2], {"x": "b"}), f"{AT}.compose[2]", "expected a [first, second, product] triple"),
    "bool-in-triple": (setitem(["compose", 3, 1], True), f"{AT}.compose[3][1]", "an id is a string or a number, got bool"),
    "list-in-triple": (setitem(["compose", 5, 2], ["c"]), f"{AT}.compose[5][2]", "an id is a string or a number, got list"),
    "unknown-last-product": (
        lambda s: s["compose"].append(["a", "a", "zzz"]),
        AT,
        "Compose entry ('a','a')->'zzz' references unknown arrow 'zzz'.",
    ),
    "unknown-pair": (
        prepend("compose", ["e", "a", "a"]),
        AT,
        "Compose entry ('e','a')->'a' references unknown arrow 'e'.",
    ),
    "null-invert-value": (setitem(["invert", "c"], None), f"{AT}.invert.c", "an id is a string or a number, got NoneType"),
    "bool-invert-value": (setitem(["invert", "a"], False), f"{AT}.invert.a", "an id is a string or a number, got bool"),
    "numeric-invert-value-unknown": (setitem(["invert", "b"], 7), AT, "Invert entry 'b'->'7' references an unknown arrow."),
    "unknown-invert-key": (setitem(["invert", "q"], "a"), AT, "Invert entry 'q'->'a' references an unknown arrow."),
    "invert-missing": (delete(["invert", "c"]), AT, "Invert table missing arrows ['c']."),
    "invert-not-an-object": (setitem(["invert"], [["a", "a"]]), f"{AT}.invert", "expected an object, got list"),
    "list-unit-arrow": (setitem(["unit_arrows", "2"], ["d"]), f"{AT}.unit_arrows.2", "an id is a string or a number, got list"),
    "numeric-unit-arrow-unknown": (setitem(["unit_arrows", "1"], 1.5), AT, "Unit arrow '1.5' for unit '1' is not a declared arrow."),
    "unit-arrow-unknown-unit": (setitem(["unit_arrows", "9"], "a"), AT, "Unit-arrow entry for unknown unit '9'."),
    "unit-arrows-missing": (delete(["unit_arrows", "2"]), AT, "Unit-arrow table missing units ['2']."),
    "invert-before-unit-arrows": (
        lambda s: (setitem(["unit_arrows", "1"], True)(s), setitem(["invert", "d"], [])(s)),
        f"{AT}.invert.d",
        "an id is a string or a number, got list",
    ),
}


@pytest.mark.parametrize("name", list(REJECTED))
def test_corruption_keeps_path_and_message(name):
    edit, path, message = REJECTED[name]
    with pytest.raises(DocumentError) as info:
        build_groupoid({"explicit": corrupt(edit)})
    assert (info.value.path, str(info.value)) == (path, f"{path}: {message}")


class Str(str):
    """A string the bulk type scans do not take for ``str``."""


class Obj(dict):
    """An object the bulk type scan of the arrow records does not take for ``dict``."""


def per_entry(spec: dict) -> dict:
    """``spec`` with every record an ``Obj`` and every id a ``Str``: the
    reader then takes its entry-by-entry path for the units, the arrow
    records and the id maps."""
    return {
        "units": [Str(u) for u in spec["units"]],
        "arrows": [Obj({k: Str(v) if isinstance(v, str) else v for k, v in rec.items()}) for rec in spec["arrows"]],
        "compose": [[Str(x) if isinstance(x, str) else x for x in t] for t in spec["compose"]],
        "invert": Obj({Str(k): Str(v) if isinstance(v, str) else v for k, v in spec["invert"].items()}),
        "unit_arrows": Obj({Str(k): Str(v) if isinstance(v, str) else v for k, v in spec["unit_arrows"].items()}),
    }


def tables(g) -> tuple:
    every = np.arange(g.n_arrows)
    products = g.compose_index(every[:, None], every[None, :])
    return (g.units, g.arrow_ids, *(x.tolist() for x in (g.src_index, g.dst_index, g.invert_index, g.unit_arrow_index, products)))


def numeric() -> dict:
    """The table with numbers for every id: units 1, 2 and arrows 11, 21, 12, 22."""
    number = {"1": 1, "2": 2, "a": 11, "b": 21, "c": 12, "d": 22}
    spec = explicit()
    return {
        "units": [number[u] for u in spec["units"]],
        "arrows": [{k: number[v] for k, v in rec.items()} for rec in spec["arrows"]],
        "compose": [[number[x] for x in t] for t in spec["compose"]],
        "invert": {str(number[k]): number[v] for k, v in spec["invert"].items()},
        "unit_arrows": {k: number[v] for k, v in spec["unit_arrows"].items()},
    }


ACCEPTED = {
    "strings": explicit,
    "numbers": lambda: corrupt(lambda s: s.update(numeric())),
    "unknown-product-a-later-triple-overwrites": lambda: corrupt(prepend("compose", ["b", "c", "zzz"])),
    "repeated-pair-keeps-last-product": lambda: corrupt(prepend("compose", ["a", "b", "c"], ["d", "d", "a"])),
    "repeated-pair-last-product-is-wrong": lambda: corrupt(lambda s: s["compose"].append(["a", "b", "c"])),
    "tuple-triples": lambda: corrupt(lambda s: s.update(compose=[tuple(t) for t in s["compose"]])),
    # only a dict built in Python, not JSON, has keys that are not strings
    "integer-keys-string-values": lambda: dict(numeric(), invert={int(k): str(v) for k, v in numeric()["invert"].items()}),
}


@pytest.mark.parametrize("name", list(ACCEPTED))
def test_accepted_tables_match_the_per_entry_reader(name):
    spec = ACCEPTED[name]()
    bulk = build_groupoid({"explicit": copy.deepcopy(spec)})
    assert tables(bulk) == tables(build_groupoid({"explicit": per_entry(spec)}))
    base = tables(build_groupoid({"explicit": explicit()}))
    if name in ("numbers", "integer-keys-string-values"):
        assert bulk.arrow_ids == ("11", "21", "12", "22") and tables(bulk)[2:] == base[2:]
    elif name == "repeated-pair-last-product-is-wrong":  # built as written; the validator rejects it
        assert bulk.compose_index(0, 1) == 2 and tables(bulk)[:-1] == base[:-1]
    else:
        assert tables(bulk) == base


def test_numbers_in_a_unit_arrow_are_read_as_their_string():
    """The float 22.0 names arrow '22.0', not '22'."""
    spec = numeric()
    spec["unit_arrows"]["2"] = 22.0
    with pytest.raises(DocumentError, match=r"Unit arrow '22.0' for unit '2' is not a declared arrow"):
        build_groupoid({"explicit": spec})
