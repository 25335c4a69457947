"""Composition as the composable-pair table.

A groupoid keeps its composition as (x, y, xy) triples in row-major pair
order, one per composable pair, and reads a product by its position in
that order: row x starts after the pairs of the earlier rows, and y sits at
its rank among the arrows into s(x).  The dense (n, n) ``compose_matrix()``
is a view built on first call.  Here:

* the positional lookup ``compose_index`` against the dense view, on every
  corpus groupoid and identity fiber and on drawn twisted tables with
  permuted arrows, over every (x, y), so non-composable pairs read -1;
* a table that is not exact: ``validate_groupoid`` names the violation,
  every other reader raises ``ValueError`` and ``compose_ids`` still
  answers;
* the explicit parser against the dense reader it replaced
  (``reference_compose_table``), with one triple or one entry of a triple
  replaced by arbitrary JSON, or one pair repeated;
* memory: parsing pair(64) stays linear in its composable pairs, and the
  ``workbench norms`` path builds no dense view.
"""

from __future__ import annotations

import itertools
import json
import tracemalloc
from typing import Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoid_workbench import document
from groupoid_workbench.algebra import delta
from groupoid_workbench.cli import main
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import DocumentError, _walk_compose, document_from_dict, parse_document
from groupoid_workbench.grading import GradedGroupoid
from groupoid_workbench.groupoid import FiniteGroupoid, counting_haar, pair_groupoid, validate_groupoid
from groupoid_workbench.hilbert_module import induced_space
from groupoid_workbench.representation import cstar_norm

from conftest import pair_cocycle, redirected, triples_of
from pair_documents import pair_documents
from test_label_arrays import json_values
from test_structure_certificate import twisted_tables
from test_table_validation import reference_validate_groupoid

CORPUS = builtin_corpus(seed=0)


def assert_lookup_matches_dense_view(g: FiniteGroupoid) -> None:
    n = g.n_arrows
    dense = g.compose_matrix()
    got = g.compose_index(np.arange(n)[:, None], np.arange(n))
    assert got.tolist() == dense.tolist()
    composable = g.src_index[:, None] == g.dst_index[None, :]
    assert (got[~composable] == -1).all() and (got[composable] >= 0).all()
    xs, ys, zs = g.composable_pairs()
    assert (np.diff(xs * n + ys) > 0).all()  # row-major, each pair once
    assert [xs.tolist(), ys.tolist()] == [a.tolist() for a in np.nonzero(composable)]
    assert zs.tolist() == dense[xs, ys].tolist()


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[doc.name for doc in CORPUS])
def test_positional_lookup_matches_the_dense_view_on_the_corpus(index):
    sys = CORPUS[index].system
    for g in (sys.groupoid, sys.identity_fiber):
        assert_lookup_matches_dense_view(g)


@settings(max_examples=60, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(twisted_tables())
def test_positional_lookup_matches_the_dense_view_on_twisted_tables(g):
    assert_lookup_matches_dense_view(g)


def not_exact() -> dict[str, FiniteGroupoid]:
    g = pair_groupoid(2)
    return {
        "deleted": redirected(g, "(1,2)", "(2,1)", None),
        "noncomposable": redirected(g, "(1,2)", "(1,1)", "(1,1)"),
    }


@pytest.mark.parametrize("name", sorted(not_exact()))
def test_a_table_that_is_not_exact_is_read_only_by_the_validator(name):
    g = not_exact()[name]
    report = validate_groupoid(g)
    assert report == reference_validate_groupoid(g)
    assert report.cause.startswith("compose-")
    sys = GradedGroupoid(g, counting_haar(g), pair_cocycle(g))
    readers = {
        "compose_index": lambda: g.compose_index(0, 0),
        "rep_tables": g.rep_tables,
        "orbit_rep_tables": g.orbit_rep_tables,
        "cstar_norm": lambda: cstar_norm(delta(g, "(1,1)"), sys.haar),
        "induced_space": lambda: induced_space(sys),
    }
    for read in readers.values():
        with pytest.raises(ValueError, match="groupoid invalid"):
            read()
    dense = g.compose_matrix()
    for x in g.arrow_ids:
        for y in g.arrow_ids:
            k = dense[g.index(x), g.index(y)]
            assert g.compose_ids(x, y) == (g.arrow_ids[k] if k >= 0 else None)
    assert np.stack(g.composable_pairs(), axis=1).tolist() == triples_of(dense).tolist()


# -- the explicit parser against the dense reader it replaced -----------------


def reference_compose_table(triples: list, index: Mapping[str, int]) -> np.ndarray:
    """The former explicit reader: the dense (n, n) compose table of
    [first, second, product] id triples, -1 where no triple names the pair;
    a repeated pair keeps its last product."""
    n = len(index)
    flat = list(itertools.chain.from_iterable(triples))
    try:
        found = list(map(index.__getitem__, flat))
    except (KeyError, TypeError):
        try:
            found = list(map(index.__getitem__, map(str, flat)))
        except KeyError:
            found = _walk_compose(triples, index)
    found = np.fromiter(found, dtype=np.intp, count=len(found)).reshape(-1, 3)
    keys = found[:, 0] * n + found[:, 1]
    _, from_end = np.unique(keys[::-1], return_index=True)
    last = len(keys) - 1 - from_end
    table = np.full(n * n, -1, dtype=np.intp)
    table[keys[last]] = found[last, 2]
    return table.reshape(n, n)


BASE = pair_documents(3)["pair3-explicit"]
TRIPLES = BASE["groupoid"]["explicit"]["compose"]
IDS = [a["id"] for a in BASE["groupoid"]["explicit"]["arrows"]]

ids = st.one_of(st.sampled_from(IDS), st.sampled_from(["(4,4)", "ghost", "", "1"]), json_values)
edits = st.one_of(
    st.tuples(st.just("triple"), st.integers(0, len(TRIPLES) - 1), st.one_of(json_values, st.lists(ids, max_size=4))),
    st.tuples(st.just("entry"), st.tuples(st.integers(0, len(TRIPLES) - 1), st.integers(0, 2)), ids),
    # a triple inserted at a position: on a pair already there, a repeated pair
    st.tuples(st.just("insert"), st.integers(0, len(TRIPLES)), st.tuples(st.sampled_from(IDS), st.sampled_from(IDS), ids)),
)


def first_non_id(triples: list) -> str | None:
    """The path of the first entry that is neither a string nor a number,
    when every triple is a list of three entries; else None."""
    if all(isinstance(triple, list) and len(triple) == 3 for triple in triples):
        for i, triple in enumerate(triples):
            for j, entry in enumerate(triple):
                if not isinstance(entry, (str, int, float)) or isinstance(entry, bool):
                    return f"groupoid.explicit.compose[{i}][{j}]"
    return None


def parse_outcome(raw: dict) -> tuple:
    try:
        doc = document_from_dict(raw)
    except DocumentError as exc:
        return ("reject", exc.path, str(exc))
    return ("accept", doc.groupoid.compose_matrix().tolist())


@settings(max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(edit=edits)
def test_one_substituted_triple_reads_as_the_dense_reader(edit):
    kind, at, value = edit
    triples = json.loads(json.dumps(TRIPLES))
    if kind == "triple":
        triples[at] = value
    elif kind == "entry":
        triples[at[0]][at[1]] = value
    else:
        triples.insert(at, list(value))
    raw = json.loads(json.dumps(dict(BASE, groupoid={"explicit": dict(BASE["groupoid"]["explicit"], compose=triples)})))
    got = parse_outcome(raw)
    non_id = first_non_id(raw["groupoid"]["explicit"]["compose"])
    if non_id is not None:
        # the dense reader read any JSON value through str; the parser rejects it
        assert got[:2] == ("reject", non_id)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(document, "_compose_table", lambda triples, index, path: triples_of(reference_compose_table(triples, index)))
        expected = parse_outcome(raw)
    assert got == expected


def test_the_unedited_document_reads_as_the_dense_reader():
    assert parse_outcome(json.loads(json.dumps(BASE)))[1] == pair_groupoid(3).compose_matrix().tolist()


# -- memory ------------------------------------------------------------------

BYTES_PER_PAIR = 128


def test_parse_at_the_arrow_budget_is_linear_in_the_pairs():
    """pair(64) has 4,096 arrows and 262,144 composable pairs; parsing it
    stays under 128 B per pair (33.5 MB), where the dense table alone
    would take 134 MB."""
    text = json.dumps(pair_documents(64)["pair64-builtin"])
    tracemalloc.start()
    try:
        doc = parse_document(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(doc.groupoid.composable_pairs()[0]) == 64**3
    assert peak <= BYTES_PER_PAIR * 64**3
    assert "dense" not in doc.groupoid._cache


def test_the_norms_path_builds_no_dense_view(monkeypatch, tmp_path):
    """Parsing, the identity fiber and the five quantities of ``workbench
    norms`` read products by position only, on G and on G_e."""

    def never(g):
        raise AssertionError(f"{g} built its dense compose view")

    path = tmp_path / "pair12.json"
    path.write_text(json.dumps(pair_documents(12)["pair12-builtin"]))
    monkeypatch.setattr(FiniteGroupoid, "_dense_view", never)
    assert main(["norms", str(path), "--fn", "sample"]) == 0
