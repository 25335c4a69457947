"""Composition as the composable-pair table.

A groupoid keeps its composition as (x, y, xy) triples in row-major pair
order, one per composable pair, and reads a product by its position in
that order: row x starts after the pairs of the earlier rows, and y sits at
its rank among the arrows into s(x).  No (n, n) table is kept; the dense
table ``conftest.dense_compose``, written from the pair table, is the
oracle.  Here:

* the positional lookup ``compose_index`` against the dense oracle, on every
  corpus groupoid and identity fiber and on drawn twisted tables with
  permuted arrows, over every (x, y), so non-composable pairs read -1;
* ``algebra.delta_products``, the rows sum_y c_y w(x) delta_{xy} that the
  delta-rule and bundle checks compare against, against the same rows
  built from the dense oracle, in the labelled pass over every arrow and
  in the pair sweep, on the corpus and on drawn twisted tables;
* a table that is not exact: ``validate_groupoid`` names the violation,
  every other reader, ``compose_ids`` included, raises ``ValueError``, and
  the pair table still lists the defined pairs;
* the explicit parser against the dense reader it replaced
  (``reference_compose_table``), with one triple or one entry of a triple
  replaced by arbitrary JSON, or one pair repeated;
* memory: parsing pair(64) stays linear in its composable pairs.
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
from groupoid_workbench.algebra import delta, delta_products, unit_labels
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import DocumentError, _walk_compose, document_from_dict, parse_document
from groupoid_workbench.grading import GradedGroupoid
from groupoid_workbench.groupoid import FiniteGroupoid, HaarSystem, counting_haar, haar_from_weights, pair_groupoid, validate_groupoid
from groupoid_workbench.hilbert_module import induced_space
from groupoid_workbench.representation import cstar_norm

from conftest import dense_compose, pair_cocycle, redirected, triples_of
from pair_documents import pair_documents
from test_label_arrays import json_values
from test_structure_certificate import twisted_tables
from test_table_validation import reference_validate_groupoid

CORPUS = builtin_corpus(seed=0)


def assert_lookup_matches_dense_view(g: FiniteGroupoid) -> None:
    n = g.n_arrows
    dense = dense_compose(g)
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


def reference_delta_products(g: FiniteGroupoid, x: np.ndarray, c: np.ndarray, haar: HaarSystem) -> np.ndarray:
    """The rows sum_y c_y w(x) delta_{xy} as the delta-rule and bundle
    checks built them from the dense table: every defined (row, y) added
    into its product's bin."""
    compose, w = dense_compose(g), haar.weights(g)
    (rows, ys), out = np.nonzero(compose[x] >= 0), np.zeros((len(x), g.n_arrows), dtype=np.complex128)
    np.add.at(out, (rows, compose[x[rows], ys]), np.broadcast_to(c, out.shape)[rows, ys] * w[x[rows]])
    return out


def assert_delta_products_match_dense_rows(g: FiniteGroupoid, haar: HaarSystem) -> None:
    """The labelled pass (every arrow x on the ``unit_labels`` row) and the
    pair sweep (every (x, y), y as a delta row), as the checks call them."""
    n = g.n_arrows
    every, eye = np.arange(n), np.eye(n, dtype=np.complex128)
    labels = unit_labels(n)[None]
    assert np.array_equal(delta_products(g, every, labels, haar), reference_delta_products(g, every, labels, haar))
    x, y = np.repeat(every, n), np.tile(every, n)
    assert np.array_equal(delta_products(g, x, eye[y], haar), reference_delta_products(g, x, eye[y], haar))


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[doc.name for doc in CORPUS])
def test_delta_products_match_the_dense_rows_on_the_corpus(index):
    sys = CORPUS[index].system
    assert_delta_products_match_dense_rows(sys.groupoid, sys.haar)


@settings(max_examples=60, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(twisted_tables())
def test_delta_products_match_the_dense_rows_on_twisted_tables(g):
    assert_delta_products_match_dense_rows(g, haar_from_weights(g, {u: 1.0 + k / 3 for k, u in enumerate(g.units)}))


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
        "compose_ids": lambda: g.compose_ids("(1,1)", "(1,1)"),
        "rep_tables": g.rep_tables,
        "orbit_rep_tables": g.orbit_rep_tables,
        "cstar_norm": lambda: cstar_norm(delta(g, "(1,1)"), sys.haar),
        "induced_space": lambda: induced_space(sys),
    }
    for read in readers.values():
        with pytest.raises(ValueError, match="groupoid invalid"):
            read()
    assert np.stack(g.composable_pairs(), axis=1).tolist() == triples_of(dense_compose(g)).tolist()


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
    return ("accept", dense_compose(doc.groupoid).tolist())


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
    assert parse_outcome(json.loads(json.dumps(BASE)))[1] == dense_compose(pair_groupoid(3)).tolist()


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
