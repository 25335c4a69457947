"""Groupoid axioms, Haar systems, and constructor outputs.

Left-invariance expectations were worked out by hand from the invariance
identity before implementation (e.g. the 4 vs 4.5 witness on the perturbed
pair groupoid).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoid_workbench import algebra
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.groupoid import (
    FiniteGroupoid,
    HaarSystem,
    action_groupoid,
    counting_haar,
    disjoint_union,
    group_bundle,
    group_groupoid,
    haar_from_weights,
    left_invariance_stack,
    pair_groupoid,
    product,
    validate_groupoid,
    validate_left_invariance,
)
from groupoid_workbench.groups import cyclic_group

from conftest import dense_compose, from_records, id_tables, redirected, triples_of, with_tables
from test_structure_certificate import twisted_tables


def dense_left_invariance(g: FiniteGroupoid, w, rel_tol: float = 1e-12) -> bool:
    """The invariance identity as two dense (n, n) tables indexed by (x, t):
    sum of w(y) over xy = t, against w(t) where r(t) = r(x) and 0 elsewhere."""
    vec = np.array([float(w[a.id]) for a in g.arrows])
    n = g.n_arrows
    tol = rel_tol * (1.0 + float(vec.max()))
    xs, ys, zs = g.composable_pairs()
    lhs = np.zeros((n, n))
    np.add.at(lhs, (xs, zs), vec[ys])
    dst = g.dst_index
    rhs = np.where(dst[None, :] == dst[:, None], vec[None, :], 0.0)
    return bool(np.abs(lhs - rhs).max() <= tol)


class TestValidateGroupoid:
    def test_pair_groupoid_passes(self):
        assert validate_groupoid(pair_groupoid(2)).ok

    def test_redirected_compose_fails_with_range_witness(self):
        g = redirected(pair_groupoid(2), "(1,2)", "(2,1)", "(2,2)")
        report = validate_groupoid(g)
        assert not report.ok
        assert report.cause == "compose-range-mismatch"
        assert report.witness["pair"] == ("(1,2)", "(2,1)")

    def test_cyclic_group_groupoid_passes(self):
        assert validate_groupoid(group_groupoid(cyclic_group(3))).ok

    def test_dropped_compose_entry_fails(self):
        broken = redirected(pair_groupoid(2), "(1,2)", "(2,1)", None)
        report = validate_groupoid(broken)
        assert report.cause == "compose-undefined-on-composable-pair"

    def test_bad_inverse_fails(self):
        g = pair_groupoid(2)
        invert = g.invert_index.copy()
        invert[g.index("(1,2)")] = g.index("(1,2)")
        assert validate_groupoid(with_tables(g, invert=invert)).cause == "inverse-endpoints"

    def test_associativity_violation_found(self):
        # in a one-unit groupoid endpoints cannot betray a redirect, so
        # g1.g1 -> g0 in Z/3 survives until the associativity sweep:
        # (g1 g1) g2 = g2 while g1 (g1 g2) = g1
        z3 = group_groupoid(cyclic_group(3))
        report = validate_groupoid(redirected(z3, "g1", "g1", "g0"))
        assert not report.ok
        assert report.cause == "associativity"

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError):
            from_records([], [], np.zeros((0, 0), dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=int))


def malformed(table: str, edit) -> tuple:
    """pair(2)'s compose triples, invert and unit-arrow tables with ``edit``
    applied to a copy of the named one; ``edit`` returns the replacement."""
    g = pair_groupoid(2)
    tables = {"compose": triples_of(dense_compose(g)), "invert": g.invert_index.copy(), "unit_arrow": g.unit_arrow_index.copy()}
    tables[table] = edit(tables[table])
    return g.units, g.arrows, tables["compose"], tables["invert"], tables["unit_arrow"]


def set_entry(at, value):
    def edit(table):
        table[at] = value
        return table

    return edit


# pair(2) has 8 composable pairs; its row-major pair 3 is ((1,2), (2,2))
MALFORMED = {
    "compose-entry-past-n": ("compose", set_entry((0, 2), 7), r"compose table has an entry 7 outside \[0, 4\)"),
    "compose-entry-below-undefined": ("compose", set_entry((1, 0), -2), r"compose table has an entry -2 outside \[0, 4\)"),
    "compose-entry-undefined": ("compose", set_entry((2, 2), -1), r"compose table has an entry -1 outside \[0, 4\)"),
    "compose-float": ("compose", lambda t: t.astype(float), r"compose table must be an integer array of shape \(8, 3\), got float64"),
    "compose-wrong-shape": ("compose", lambda t: t[:, :2], r"shape \(8, 3\), got int64 array of shape \(8, 2\)"),
    "compose-dense": ("compose", lambda t: dense_compose(pair_groupoid(2)), r"shape \(4, 3\), got int64 array of shape \(4, 4\)"),
    "compose-repeated-pair": ("compose", lambda t: np.concatenate([t, [[1, 3, 0]]]), r"defines the pair \('\(1,2\)','\(2,2\)'\) more than once"),
    # as many composable triples as pairs, with ((1,1), (1,2)) made a second ((1,1), (1,1))
    "compose-repeated-in-place": ("compose", set_entry((1, 1), 0), r"defines the pair \('\(1,1\)','\(1,1\)'\) more than once"),
    "compose-mapping": ("compose", lambda t: id_tables(pair_groupoid(2))[0], "compose table must be an integer array .* got dict"),
    "compose-triples": ("compose", lambda t: [(x, y, z) for (x, y), z in id_tables(pair_groupoid(2))[0].items()], "got list"),
    "invert-three-entries": ("invert", lambda t: t[:3], r"invert table must be an integer array of shape \(4,\)"),
    "invert-entry-minus-one": ("invert", set_entry(0, -1), r"invert table has an entry -1 outside \[0, 4\)"),
    "invert-entry-past-n": ("invert", set_entry(3, 4), r"invert table has an entry 4 outside \[0, 4\)"),
    "invert-bool": ("invert", lambda t: t.astype(bool), "invert table must be an integer array .* got bool array"),
    "invert-mapping": ("invert", lambda t: id_tables(pair_groupoid(2))[1], "invert table must be an integer array .* got dict"),
    "unit-arrow-past-n": ("unit_arrow", set_entry(1, 4), r"unit_arrow table has an entry 4 outside \[0, 4\)"),
    "unit-arrow-negative": ("unit_arrow", set_entry(0, -1), r"unit_arrow table has an entry -1 outside \[0, 4\)"),
    "unit-arrow-wrong-shape": ("unit_arrow", lambda t: t[:, None], r"unit_arrow table must be an integer array of shape \(2,\)"),
    "unit-arrow-mapping": ("unit_arrow", lambda t: id_tables(pair_groupoid(2))[2], "got dict"),
}


class TestTableChecks:
    """The constructor takes index arrays only, and checks their shape,
    dtype and range, and that no compose pair repeats."""

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_table_rejected(self, name):
        table, edit, message = MALFORMED[name]
        with pytest.raises(ValueError, match=message):
            from_records(*malformed(table, edit))

    def test_other_integer_dtypes_read_as_intp(self):
        g = pair_groupoid(2)
        narrow = from_records(
            g.units, g.arrows, triples_of(dense_compose(g)).astype(np.int8), g.invert_index.astype(np.uint16), g.unit_arrow_index.astype(np.int32)
        )
        for got, want in zip(id_tables(narrow), id_tables(g)):
            assert got == want
        assert {narrow.composable_pairs()[2].dtype, narrow.invert_index.dtype, narrow.unit_arrow_index.dtype} == {np.dtype(np.intp)}


class TestHaar:
    def test_weights_follow_source(self, p2):
        haar = haar_from_weights(p2, {"1": 1.0, "2": 4.0})
        assert haar.weight(p2, "(1,2)") == 4.0
        assert haar.weight(p2, "(2,1)") == 1.0

    def test_counting(self, p2):
        haar = counting_haar(p2)
        assert np.all(haar.weights(p2) == 1.0)

    def test_nonpositive_rejected(self, p2):
        with pytest.raises(ValueError, match="unit '1'"):
            haar_from_weights(p2, {"1": 0.0, "2": 1.0})
        with pytest.raises(ValueError):
            haar_from_weights(p2, {"1": -2.0, "2": 1.0})

    def test_missing_unit_rejected(self, p2):
        with pytest.raises(ValueError, match="missing"):
            haar_from_weights(p2, {"1": 1.0})

    def test_constructed_weights_are_invariant(self, p2):
        haar = haar_from_weights(p2, {"1": 2.0, "2": 3.0})
        w = {a.id: haar.weight(p2, a.id) for a in p2.arrows}
        assert validate_left_invariance(p2, w)

    def test_hand_computed_perturbation_fails(self, p2):
        # with x = (1,2) and f the indicator of (1,2): LHS picks w((2,2)) = 4,
        # RHS picks w((1,2)) = 4.5
        w = {"(1,1)": 1.0, "(1,2)": 4.5, "(2,1)": 1.0, "(2,2)": 4.0}
        assert not validate_left_invariance(p2, w)

    def test_group_invariance_iff_constant(self):
        for n in range(1, 7):
            g = group_groupoid(cyclic_group(n))
            constant = {a.id: 2.5 for a in g.arrows}
            assert validate_left_invariance(g, constant)
            if n > 1:
                skew = {a.id: 1.0 + i for i, a in enumerate(g.arrows)}
                assert not validate_left_invariance(g, skew)

    def test_random_source_breaking_perturbations_fail(self):
        g = pair_groupoid(3)
        unit_arrow = id_tables(g)[2]
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = {u: float(rng.uniform(0.5, 2.0)) for u in g.units}
            w = {a.id: rho[a.src] for a in g.arrows}
            assert validate_left_invariance(g, w)
            victim = g.arrows[int(rng.integers(g.n_arrows))]
            if victim.id == unit_arrow[victim.src]:
                continue  # unit-arrow weight defines rho(s); perturbing it moves rho itself
            w[victim.id] = w[victim.id] * 1.7 + 0.3
            assert not validate_left_invariance(g, w)

    @pytest.mark.parametrize("doc", builtin_corpus(seed=0), ids=lambda doc: doc.name)
    def test_matches_dense_tables_on_corpus_perturbations(self, doc):
        g = doc.groupoid
        rng = np.random.default_rng([8, g.n_arrows, g.n_units])
        base = {a.id: doc.system.haar.weight(g, a.id) for a in g.arrows}
        verdicts = []
        for k in range(30):
            w = dict(base)
            if k % 3 == 0:  # move rho at one unit consistently: stays invariant
                u = g.units[int(rng.integers(g.n_units))]
                factor = float(rng.uniform(0.5, 2.0))
                w.update({aid: w[aid] * factor for aid in g.arrows_with_src(u)})
            else:  # scale one arrow, by a relative step from 1e-14 to 1
                victim = g.arrows[int(rng.integers(g.n_arrows))].id
                w[victim] *= 1.0 + float(10.0 ** rng.uniform(-14, 0))
            verdict = validate_left_invariance(g, w)
            assert verdict == dense_left_invariance(g, w)
            verdicts.append(verdict)
        assert set(verdicts) == {True, False}

    def test_skipped_pair_fails(self):
        # dropping the compose entry (1,2)(2,2) leaves (x, t) = ((1,2), (1,2))
        # unhit: lhs 0 against w((1,2)) > 0 in the dense table
        broken = redirected(pair_groupoid(2), "(1,2)", "(2,2)", None)
        w = {a.id: 1.0 for a in broken.arrows}
        assert not dense_left_invariance(broken, w)
        assert not validate_left_invariance(broken, w)

    @pytest.mark.parametrize("doc", builtin_corpus(seed=0), ids=lambda doc: doc.name)
    def test_per_unit_weights_are_invariant_on_corpus(self, doc):
        assert per_unit_weights_invariant(doc.groupoid, np.random.default_rng([9, doc.groupoid.n_arrows]))


@pytest.mark.parametrize("doc", builtin_corpus(seed=0)[::3], ids=lambda doc: doc.name)
def test_chunked_left_invariance_matches_one_pass(doc, monkeypatch):
    """Rows summed a chunk at a time (two rows per chunk, one at the end)
    give the verdicts of one pass over every row: half the rows keep the
    per-unit weights, the others scale one non-unit arrow's weight."""
    g = doc.groupoid
    rng = np.random.default_rng([3, g.n_arrows])
    w = np.tile(10.0 ** rng.uniform(-3.0, 3.0, g.n_units)[g.src_index], (7, 1))
    non_units = np.setdiff1d(np.arange(g.n_arrows), g.unit_arrow_index)
    if len(non_units):
        w[1::2, rng.choice(non_units)] *= 1.5
    monkeypatch.setattr(algebra, "TRIAL_CHUNK_ENTRIES", 2 * len(g.composable_pairs()[0]))
    assert len(algebra.trial_chunks(len(w), len(g.composable_pairs()[0]))) == 4
    chunked = left_invariance_stack(g, w).tolist()
    monkeypatch.undo()
    assert chunked == left_invariance_stack(g, w).tolist()
    assert chunked == [True, not len(non_units)] * 3 + [True]


def per_unit_weights_invariant(g: FiniteGroupoid, rng: np.random.Generator) -> bool:
    """Whether eight draws of arrow weights w(y) = rho(s(y)), with rho
    log-uniform in [1e-300, 1e300] per unit, all pass left_invariance_stack.
    On a groupoid the identity at (x, t) has the one term w(x^-1 t) = w(t),
    which is why validate_system does not check it."""
    rho = 10.0 ** rng.uniform(-300.0, 300.0, size=(8, g.n_units))
    return bool(left_invariance_stack(g, rho[:, g.src_index]).all())


@settings(max_examples=60, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(twisted_tables(), st.integers(0, 2**32 - 1))
def test_per_unit_weights_are_invariant_on_twisted_tables(g, seed):
    assert per_unit_weights_invariant(g, np.random.default_rng(seed))


class TestConstructors:
    def test_pair_counts(self):
        g = pair_groupoid(3)
        assert g.n_units == 3 and g.n_arrows == 9
        assert validate_groupoid(g).ok

    @pytest.mark.parametrize("value", [True, 2.7, 2.0, "2"])
    def test_pair_rejects_non_integer(self, value):
        # pair_groupoid(2.7) used to build 4 arrows, pair_groupoid(True) one
        with pytest.raises(TypeError, match="expected an integer"):
            pair_groupoid(value)

    def test_action_groupoid_cyclic_shift(self):
        z3 = cyclic_group(3)
        g = action_groupoid([0, 1, 2], z3, lambda x, h: (x + h) % 3)
        assert g.n_units == 3 and g.n_arrows == 9
        assert validate_groupoid(g).ok

    def test_action_rejects_non_action(self):
        z2 = cyclic_group(2)
        with pytest.raises(ValueError, match="Not an action"):
            action_groupoid([0, 1], z2, lambda x, h: 0)

    def test_disjoint_union_counts(self, p2):
        g = disjoint_union(p2, group_groupoid(cyclic_group(2)))
        assert g.n_units == 3 and g.n_arrows == 6
        assert validate_groupoid(g).ok

    def test_product_counts(self, p2):
        g = product(p2, group_groupoid(cyclic_group(2)))
        assert g.n_units == 2 and g.n_arrows == 8
        assert validate_groupoid(g).ok

    def test_group_bundle(self):
        g = group_bundle([cyclic_group(2), cyclic_group(2)])
        assert g.n_units == 2 and g.n_arrows == 4
        assert validate_groupoid(g).ok

    def test_all_constructor_outputs_validate(self):
        z2 = cyclic_group(2)
        corpus = [
            pair_groupoid(2),
            pair_groupoid(4),
            group_groupoid(cyclic_group(5)),
            action_groupoid([0, 1, 2, 3], cyclic_group(4), lambda x, h: (x + h) % 4),
            group_bundle([z2, cyclic_group(3)]),
            disjoint_union(pair_groupoid(2), pair_groupoid(3)),
            product(pair_groupoid(2), group_groupoid(cyclic_group(3))),
        ]
        for g in corpus:
            assert validate_groupoid(g).ok


class TestReadOnlyState:
    """The caches hold arrays derived from these tables; every mutation that
    could make them stale must raise."""

    def test_haar_weights_are_a_read_only_copy(self):
        g = pair_groupoid(2)
        rho = {"1": 1.0, "2": 4.0}
        haar = HaarSystem(rho=rho)
        with pytest.raises(TypeError):
            haar.rho["1"] = -1.0
        rho["1"] = -1.0
        assert haar.rho["1"] == 1.0
        assert haar.weights(g).tolist() == [1.0, 4.0, 1.0, 4.0]

    def test_cached_haar_weights_are_read_only(self):
        g = pair_groupoid(2)
        weights = counting_haar(g).weights(g)
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = -1.0

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["x", "y", "xy"])
    def test_composable_pairs_are_read_only(self, which):
        with pytest.raises(ValueError, match="read-only"):
            pair_groupoid(2).composable_pairs()[which][0] = 3

    @pytest.mark.parametrize("table", ["invert_index", "src_index", "dst_index", "unit_arrow_index"])
    def test_index_tables_are_read_only(self, table):
        with pytest.raises(ValueError, match="read-only"):
            getattr(pair_groupoid(2), table)[0] = 1

    def test_subgroupoid_embedding_is_read_only(self):
        g = pair_groupoid(2)
        sub = g.restricted_to(["(1,1)", "(2,2)"])
        embedding = sub.embedding(g)
        assert embedding.tolist() == [0, 3]
        with pytest.raises(ValueError, match="read-only"):
            embedding[0] = 1

    def test_embedding_by_id_matches_restriction(self):
        g = pair_groupoid(3)
        sub = g.restricted_to(["(3,3)", "(1,1)", "(2,2)", "(1,2)", "(2,1)"])
        rebuilt = with_tables(sub)
        assert rebuilt.embedding(g).tolist() == sub.embedding(g).tolist() == [0, 1, 3, 4, 8]
        with pytest.raises(ValueError, match="not an arrow of the ambient groupoid"):
            g.embedding(sub)
