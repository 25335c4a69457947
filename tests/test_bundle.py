"""Grading subspaces, the topological-grading projection, and fiber representations."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoid_workbench.algebra import convolve, delta, delta_rows, from_map, i_norm, random_stacks, unit_labels
from groupoid_workbench.bundle import (
    _fiber_tables,
    bundle_rep_check,
    check_grading_axioms,
    check_topological_grading,
    graded_subspaces,
    tautological_rep,
)
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.grading import Cocycle, GradedGroupoid, cocycle_from_map
from groupoid_workbench.groupoid import counting_haar, group_groupoid, haar_from_weights
from groupoid_workbench.groups import FreeAbelianGroup, cyclic_group
from groupoid_workbench.document import document_from_dict
from groupoid_workbench.representation import operator_norm, operator_norms
from groupoid_workbench.validation import ALG_TOL

from conftest import dense_compose, max_diff, rng_functions
from pair_documents import pair_documents
from test_reference_suites import (
    _misrouted,
    reference_bundle_rep_check,
    reference_fiber_tables,
    reference_rep_apply_stack,
    reference_tautological_rep,
)
from test_structure_certificate import twisted_tables


@pytest.fixture
def graded_z2():
    g = group_groupoid(cyclic_group(2))
    z2 = cyclic_group(2)
    return GradedGroupoid.build(g, counting_haar(g), cocycle_from_map(g, z2, {"g0": 0, "g1": 1}))


class TestGradingAxioms:
    def test_pair_family(self, p2_graded):
        family = graded_subspaces(p2_graded)
        assert family.keys == ("-1", "0", "1")
        assert sum(family.dimension(k) for k in family.keys) == 4
        assert check_grading_axioms(family).ok

    def test_product_lands_in_sum_fiber(self, p2_graded):
        sys = p2_graded
        prod = convolve(delta(sys.groupoid, "(1,2)"), delta(sys.groupoid, "(2,1)"), sys.haar)
        assert max_diff(prod, {"(1,1)": 1.0}) == 0.0  # (-1) + (+1) = 0 fiber

    def test_weighted_instance(self, p2_graded_weighted):
        assert check_grading_axioms(graded_subspaces(p2_graded_weighted)).ok

    def test_unvalidated_bad_cocycle_reported(self, p2, p2_counting):
        # every arrow labelled 1: the product (1,1)(1,1) = (1,1) would need label 2
        bad = Cocycle(FreeAbelianGroup(1), {a.id: (1,) for a in p2.arrows})
        report = check_grading_axioms(graded_subspaces(GradedGroupoid(p2, p2_counting, bad)))
        assert not report.ok
        assert report.cause == "basis-product-off-fiber"
        assert report.witness["pair"] == ("(1,1)", "(1,1)")

    def test_adjoint_flips_fiber(self, p2_graded):
        family = graded_subspaces(p2_graded)
        assert family.bases["-1"] == ("(1,2)",)
        assert family.bases["1"] == ("(2,1)",)


class TestTopologicalGrading:
    def test_pair_projection(self, p2_graded):
        report = check_topological_grading(graded_subspaces(p2_graded), seed=3, count=50)
        assert report.ok
        assert report.witness["sup_ratio"] <= 1.0 + 1e-9

    def test_projection_basis_values(self, p2_graded):
        from groupoid_workbench.hilbert_module import expectation_P

        sys = p2_graded
        assert np.abs(expectation_P(sys, delta(sys.groupoid, "(1,2)")).coeffs).max() == 0.0
        assert max_diff(expectation_P(sys, delta(sys.groupoid, "(1,1)")), {"(1,1)": 1.0}) == 0.0

    def test_weighted_projection_contractive(self, p2_graded_weighted):
        report = check_topological_grading(graded_subspaces(p2_graded_weighted), seed=5, count=100)
        assert report.ok


class TestBundleRepCheck:
    def test_tautological_rep_passes(self, p2_graded_weighted):
        sys = p2_graded_weighted
        family = graded_subspaces(sys)
        report = bundle_rep_check(family, tautological_rep(sys), seed=1, count=3)
        assert report.ok
        assert report.witness["dimension"] == sys.groupoid.n_arrows

    def test_sign_flip_reported(self, p2_graded):
        sys = p2_graded
        family = graded_subspaces(sys)
        rep = reference_tautological_rep(sys)
        rep["1"]["(2,1)"] = -rep["1"]["(2,1)"]
        report = bundle_rep_check(family, rep, seed=1, count=2)
        assert not report.ok
        assert report.cause == "rep-not-multiplicative-on-basis"

    def test_character_rep_of_graded_z2(self, graded_z2):
        family = graded_subspaces(graded_z2)
        rep = {
            "0": {"g0": np.array([[1.0 + 0j]])},
            "1": {"g1": np.array([[-1.0 + 0j]])},
        }
        report = bundle_rep_check(family, rep, seed=2, count=5)
        assert report.ok
        # the character is dominated by the I-norm on every fiber
        for a in rng_functions(graded_z2.groupoid, seed=6, count=5):
            for key, aid in (("0", "g0"), ("1", "g1")):
                part = from_map(graded_z2.groupoid, {aid: a.value(aid)})
                value = abs(a.value(aid))  # 1x1 character block
                assert value <= i_norm(part, graded_z2.haar) * (1 + 1e-12)

    def test_missing_fiber_reported(self, graded_z2):
        family = graded_subspaces(graded_z2)
        report = bundle_rep_check(family, {"0": {"g0": np.eye(1)}}, seed=0, count=1)
        assert not report.ok
        assert report.cause == "fiber-missing-from-rep"

    def test_dimension_mismatch_reported(self, graded_z2):
        family = graded_subspaces(graded_z2)
        rep = {"0": {"g0": np.eye(2)}, "1": {"g1": np.eye(3)}}
        report = bundle_rep_check(family, rep, seed=0, count=1)
        assert not report.ok
        assert report.cause == "rep-dimension-mismatch"

    @pytest.mark.parametrize(
        "case, cause",
        [
            ("nan", "rep-matrix-not-finite"),
            ("inf", "rep-matrix-not-finite"),
            ("empty", "rep-matrix-empty"),
            ("string", "rep-matrix-not-numeric"),
            ("numeric-string", "rep-matrix-not-numeric"),
            ("ragged", "rep-matrix-not-square"),
        ],
    )
    def test_malformed_matrix_reported(self, case, cause):
        """Each of these used to raise (a NaN or infinite entry in the
        eigensolve, an empty matrix an IndexError, strings in ``complex()``,
        ragged rows in ``np.asarray``) or, as numeric strings, to be read as
        numbers; each is now reported at its arrow before any eigensolve."""
        sys = CORPUS["pair2-zgraded-counting"].system
        family = graded_subspaces(sys)
        rep = reference_tautological_rep(sys)
        mat = rep["1"]["(2,1)"]
        rep["1"]["(2,1)"] = {
            "nan": np.where(mat != 0, np.nan, mat),
            "inf": np.where(mat != 0, np.inf, mat),
            "empty": np.zeros((0, 0)),
            "string": np.full(mat.shape, "x"),
            "numeric-string": mat.astype(str),
            "ragged": [[0.0] * len(mat)] * (len(mat) - 1) + [[0.0]],
        }[case]
        if case == "empty":  # on every arrow, so no dimension mismatch comes first
            rep = {key: {aid: np.zeros((0, 0)) for aid in ids} for key, ids in family.bases.items()}
        report = bundle_rep_check(family, rep, seed=0, count=1)
        assert (report.ok, report.cause) == (False, cause)
        assert report.witness["arrow"] == ("(1,2)" if case == "empty" else "(2,1)")

    def test_tautological_rep_matches_blocks(self, p2_graded):
        sys = p2_graded
        rep = reference_tautological_rep(sys)
        for key, members in sys.fibers().items():
            for aid in members:
                assert operator_norm(rep[key][aid]) == pytest.approx(1.0, abs=1e-12)


# -- the block-stack check against the dense per-pair oracle -------------------
#
# Each corrupted representation is built twice: as a map on the unit-block
# stacks of ``tautological_rep`` and as dense matrices from
# ``reference_tautological_rep``, with the same entries, so the new check and
# the v0.11.0 sweep must name the same (ok, cause, witness).

CORPUS = {doc.name: doc for doc in builtin_corpus(seed=0)}


def _dense_matrices(sys):
    """The dense oracle's matrices as one (n, N, N) array in arrow order."""
    rep = reference_tautological_rep(sys)
    lookup = {aid: rep[key][aid] for key, ids in sys.fibers().items() for aid in ids}
    return np.array([lookup[aid] for aid in sys.groupoid.arrow_ids])


def _as_fiber_rep(sys, mats):
    return {key: {aid: mats[sys.groupoid.index(aid)] for aid in ids} for key, ids in sys.fibers().items()}


def _substituted(sys, s):
    """pi'(d_x) = sum_j s[x, j] pi(d_j), on the blocks and densely."""
    rep = tautological_rep(sys)
    return (lambda a: rep(a @ s)), _as_fiber_rep(sys, np.tensordot(s, _dense_matrices(sys), axes=(1, 0)))


def _conjugated(sys, t):
    """pi'(a) = D pi(a) D^-1 for the diagonal D with t[x] at basis arrow x:
    a homomorphism, and a *-homomorphism only where t is constant."""
    g = sys.groupoid
    rep = tautological_rep(sys)
    ratios = [t[arrows][..., :, None] / t[arrows][..., None, :] for _, arrows, _ in g.rep_tables()]
    order = np.array([g.index(aid) for u in g.units for aid in g.arrows_with_src(u)])
    dense = _dense_matrices(sys) * (t[order][:, None] / t[order][None, :])
    return (lambda a: [m * r for m, r in zip(rep(a), ratios)]), _as_fiber_rep(sys, dense)


def _first_non_unit(g):
    return next(x for x in range(g.n_arrows) if x not in set(g.unit_arrow_index.tolist()))


def _scaled(sys, factor):
    """pi(d_z) scaled by ``factor`` at the first non-unit arrow z.  Every
    earlier arrow is a unit, whose products with pi'(d_z) stay right, so the
    first failing row is z's, with a wrong product for every y composable
    with z: at least two, the unit at s(z) and z^-1."""
    s = np.eye(sys.groupoid.n_arrows)
    z = _first_non_unit(sys.groupoid)
    s[z, z] = factor
    return _substituted(sys, s)


def _position_at_source(g):
    """The place of every arrow in the basis of its unit block."""
    return np.array([g.arrows_with_src(g.source(aid)).index(aid) for aid in g.arrow_ids])


def _corruptions(sys):
    g = sys.groupoid
    n = g.n_arrows
    flip = np.eye(n)  # -pi(d_u) for a unit u: pi(d_u)^2 = w(u) pi(d_u) no longer holds
    u = g.unit_arrow_index[-1]
    flip[u, u] = -1.0
    swap = np.eye(n)
    swap[[0, n - 1]] = swap[[n - 1, 0]]
    return {
        "unmodified": _substituted(sys, np.eye(n)),
        "sign-flip": _substituted(sys, flip),
        "swapped": _substituted(sys, swap),
        "wrong-products-in-one-row": _scaled(sys, 1.0 + 2.0**-20),
        "wrong-adjoint-only": _conjugated(sys, 2.0 ** (_position_at_source(g) % 3)),
    }


def _outcome(report):
    return report.ok, report.cause, dict(report.witness)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_block_check_matches_the_dense_sweep(name):
    sys = CORPUS[name].system
    family = graded_subspaces(sys)
    outcomes = {}
    for case, (blocks, dense) in _corruptions(sys).items():
        want = _outcome(reference_bundle_rep_check(family, dense, seed=4, count=3))
        assert _outcome(bundle_rep_check(family, blocks, seed=4, count=3)) == want, case
        assert _outcome(bundle_rep_check(family, dense, seed=4, count=3)) == want, case
        outcomes[case] = want
    assert outcomes["unmodified"] == (True, None, {"dimension": sys.groupoid.n_arrows, "samples": 3})
    assert outcomes["sign-flip"][1] == "rep-not-multiplicative-on-basis"
    assert outcomes["wrong-products-in-one-row"][1] == "rep-not-multiplicative-on-basis"
    assert outcomes["wrong-adjoint-only"][1] == "rep-not-star-on-basis"
    # the first failing row has several wrong products, and the first is named
    g = sys.groupoid
    z = _first_non_unit(g)
    assert outcomes["wrong-products-in-one-row"][2]["pair"][0] == g.arrow_ids[z]
    assert np.count_nonzero(dense_compose(g)[z] >= 0) >= 2


def _twisted_system(g, graded):
    """``g`` graded by the unit-number difference c(x) = r(x) - s(x) in Z
    (trivially unless ``graded``), with Haar weights that differ from unit
    to unit."""
    haar = haar_from_weights(g, {u: 1.0 + k / 3 for k, u in enumerate(g.units)})
    labels = (g.dst_index - g.src_index) * graded
    return GradedGroupoid(g, haar, cocycle_from_map(g, FreeAbelianGroup(1), {aid: (int(c),) for aid, c in zip(g.arrow_ids, labels)}))


@settings(max_examples=8, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(twisted_tables(), st.booleans())
def test_block_check_matches_the_dense_sweep_on_twisted_tables(g, graded):
    """The corpus test's corruptions, and one misrouted product of the
    convolution, on drawn tables with shuffled arrows: the labelled pass and
    its sweep name the dense per-pair oracle's (ok, cause, witness), also on
    the loop tables, whose regular representation is not multiplicative."""
    sys = _twisted_system(g, graded)
    family = graded_subspaces(sys)
    for case, (blocks, dense) in _corruptions(sys).items():
        want = _outcome(reference_bundle_rep_check(family, dense, seed=4, count=3))
        assert _outcome(bundle_rep_check(family, blocks, seed=4, count=3)) == want, case
        assert _outcome(bundle_rep_check(family, dense, seed=4, count=3)) == want, case
    xs, _, zs = g.composable_pairs()
    with pytest.MonkeyPatch.context() as patch:
        _misrouted(g, patch, [len(xs) // 2], (zs[len(xs) // 2] + 1) % g.n_arrows)
        want = reference_bundle_rep_check(family, reference_tautological_rep(sys), seed=4, count=3)
        got = bundle_rep_check(family, tautological_rep(sys), seed=4, count=3)
    # fails on the random pairs (or first on the basis of a loop table), whose
    # defect is a maximum over blocks here and over the dense matrix there, so
    # the two agree to rounding
    assert (got.ok, got.cause) == (want.ok, want.cause) and not got.ok
    assert got.witness == pytest.approx(want.witness, rel=1e-12)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_a_wrong_pair_just_over_the_tolerance_is_found(name):
    """With labels of modulus one, a row with one wrong pair shows at that
    pair's full defect: scale pi(d_z) so that the largest pair defect of the
    first failing row is 5% over the tolerance, and the check still names
    the reference's pair."""
    sys = CORPUS[name].system
    g = sys.groupoid
    family = graded_subspaces(sys)
    z = _first_non_unit(g)
    mats = _dense_matrices(sys)
    mats[z] *= 1.0 + 2.0**-30
    w, row = sys.haar.weights(g), dense_compose(g)[z]
    defects = [np.abs(mats[z] @ mats[y] - w[z] * mats[row[y]]).max() for y in np.flatnonzero(row >= 0)]
    norm_scale = 1.0 + max(operator_norm(m) for m in mats)
    # the pair defects grow linearly with the scaling's offset from 1
    blocks, dense = _scaled(sys, 1.0 + 2.0**-30 * 1.05 * ALG_TOL * norm_scale**2 / max(defects))
    want = _outcome(reference_bundle_rep_check(family, dense, seed=4, count=3))
    assert want[:2] == (False, "rep-not-multiplicative-on-basis")
    assert _outcome(bundle_rep_check(family, blocks, seed=4, count=3)) == want


def test_labels_have_modulus_one_and_leave_the_seeded_draws_alone():
    """The labelled combination is the same for every seed, every label has
    modulus one, and the random pairs are the seed's first draws."""
    sys = CORPUS["pair3-zgraded-weighted"].system
    g = sys.groupoid
    rep = tautological_rep(sys)
    labels = {}
    for seed in (1, 2):
        seen = []
        assert bundle_rep_check(graded_subspaces(sys), lambda a: seen.append(np.array(a)) or rep(a), seed=seed, count=3).ok
        rows = np.concatenate(seen)
        (labelled,) = np.unique([r for r in rows if np.all(np.abs(np.abs(r) - 1.0) <= 1e-15)], axis=0)
        labels[seed] = labelled
        for draws in random_stacks(np.random.default_rng(seed), 3, g, g):
            assert all((rows == row).all(axis=1).any() for row in draws)
    assert (labels[1] == labels[2]).all()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_block_map_is_the_dense_representation(name):
    """The unit-block stacks, laid out along the diagonal, are the dense
    oracle's matrices summed one arrow at a time."""
    sys = CORPUS[name].system
    g = sys.groupoid
    (a,) = random_stacks(np.random.default_rng(7), 4, g)
    dense = reference_rep_apply_stack(sys, reference_tautological_rep(sys), a, g.n_arrows)
    blocks = tautological_rep(sys)(a)
    order = {aid: i for i, aid in enumerate(aid for u in g.units for aid in g.arrows_with_src(u))}
    for (_, arrows, _), stack in zip(g.rep_tables(), blocks):
        for k, row in enumerate(arrows):
            at = [order[g.arrow_ids[x]] for x in row]
            assert np.array_equal(dense[:, at][:, :, at], stack[:, k])


def _pair_system(k):
    return document_from_dict(pair_documents(k)[f"pair{k}-builtin"]).system


def _traced_peak(check):
    """The value of ``check()`` and its ``tracemalloc`` peak in bytes."""
    tracemalloc.start()
    try:
        value = check()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_quadratic_at_400_arrows():
    """On the Z-graded pair groupoid on 20 points the check holds no more
    than 256 n^2 bytes at a time: its temporaries are chunked over the
    arrows (20 MB); with `algebra.TRIAL_CHUNK_ENTRIES` = 2^40 it peaks at 210 MB."""
    sys = _pair_system(20)
    n = sys.groupoid.n_arrows
    report, peak = _traced_peak(lambda: bundle_rep_check(graded_subspaces(sys), tautological_rep(sys), seed=0, count=3))
    assert report.ok and report.witness["dimension"] == n == 400
    assert peak < 256 * n * n


@pytest.mark.parametrize("name", sorted(CORPUS) + ["pair14-builtin"])
def test_the_tolerance_scale_is_the_closed_form_of_the_basis_norms(name):
    """1 + the largest sqrt(w(x) w(x^-1)), the scale of `bundle_rep_check`'s
    tolerances, is 1 + the largest eigensolved norm of the regular
    representation's pi(d_x)."""
    sys = CORPUS[name].system if name in CORPUS else _pair_system(14)
    g = sys.groupoid
    w = sys.haar.weights(g)
    closed = 1.0 + np.sqrt(w * w[g.invert_index]).max()
    blocks = tautological_rep(sys)(delta_rows(np.arange(g.n_arrows), g.n_arrows))
    eigensolved = 1.0 + max(operator_norms(m).max() for m in blocks)
    assert abs(eigensolved - closed) <= 1e-15 * closed


@pytest.mark.parametrize("name", [name for name in sorted(CORPUS) if len(set(CORPUS[name].system.groupoid.orbit_base)) > 1])
def test_a_rep_that_vanishes_on_one_orbit_passes(name):
    """The regular representation with the blocks of the last unit's orbit
    set to zero is a degenerate *-representation; the closed-form scale
    bounds its basis norms without being attained, and the check passes."""
    sys = CORPUS[name].system
    g = sys.groupoid
    rep = tautological_rep(sys)
    last = g.orbit_base[-1]
    keep = [np.array([g.orbit_base[g.units.index(u)] != last for u in units])[:, None, None] for units, _, _ in g.rep_tables()]
    report = bundle_rep_check(graded_subspaces(sys), lambda a: [m * k for m, k in zip(rep(a), keep)], seed=4, count=3)
    assert _outcome(report) == (True, None, {"dimension": g.n_arrows, "samples": 3})


def test_a_nan_representation_fails_at_its_first_basis_pair():
    """The regular representation scaled by NaN: every defect is NaN and
    fails, so the first pair of the first arrow is named, and no NaN block
    reaches an eigensolve."""
    sys = CORPUS["pair3-zgraded-weighted"].system
    g = sys.groupoid
    rep = tautological_rep(sys)
    report = bundle_rep_check(graded_subspaces(sys), lambda a: [m * np.nan for m in rep(a)], seed=4, count=3)
    assert (report.ok, report.cause, report.witness["pair"]) == (False, "rep-not-multiplicative-on-basis", (g.arrow_ids[0],) * 2)
    assert math.isnan(report.witness["defect"])


def test_a_representation_that_is_nan_off_the_basis_fails_on_its_first_trial():
    """Regular on multiples of basis deltas and on the labelled row, NaN on
    every other row: the basis relations hold, and the first random pair
    fails with a NaN defect before any fiber norm is eigensolved."""
    sys = CORPUS["pair3-zgraded-weighted"].system
    n = sys.groupoid.n_arrows
    rep = tautological_rep(sys)
    labels = unit_labels(n)

    def partly_nan(a):
        regular = (np.count_nonzero(a, axis=-1) <= 1) | (a == labels).all(axis=-1)
        return [np.where(regular[:, None, None, None], m, np.nan) for m in rep(a)]

    report = bundle_rep_check(graded_subspaces(sys), partly_nan, seed=4, count=3)
    assert (report.ok, report.cause) == (False, "rep-not-multiplicative")
    assert math.isnan(report.witness["defect"])


def test_grading_axioms_hold_one_fiber_of_draws_at_a_time():
    """On the 39 fibers of the Z-graded pair groupoid on 20 points the
    axioms draw and convolve one fiber's 79 functions at a time: the
    `tracemalloc` peak stays under 16 MB (56 MB when every fiber's draws
    are held as one block)."""
    sys = _pair_system(20)
    report, peak = _traced_peak(lambda: check_grading_axioms(graded_subspaces(sys), seed=5))
    assert report.ok and len(sys.fiber_keys) == 39
    assert peak < 16e6


def _unvalidated_z2_graded(labels):
    """pair(3) labelled in Z^2 by ``labels(k)`` for the k-th arrow, without
    validation, so that the image need not hold the identity or be closed."""
    sys = _pair_system(3)
    g = sys.groupoid
    return GradedGroupoid(g, sys.haar, Cocycle(FreeAbelianGroup(2), {aid: labels(k) for k, aid in enumerate(g.arrow_ids)}))


@pytest.mark.parametrize(
    "sys",
    [CORPUS[name].system for name in sorted(CORPUS)]
    + [_pair_system(14)]
    + [_unvalidated_z2_graded(lambda k: (k % 3 - 1, -(k % 2))), _unvalidated_z2_graded(lambda k: (k % 3, 1))],
    ids=sorted(CORPUS) + ["pair14-builtin", "z2-labels", "z2-labels-off-identity"],
)
def test_fiber_tables_are_the_reference_loops(sys):
    """The product and inverse tables of `check_grading_axioms`, from one
    `mul_array` and one lookup, are the per-entry `grp.mul` and `grp.inv`
    loops', dtype included; also on unvalidated Z^2 labels whose products
    leave the image, once with the identity off the image."""
    for got, want in zip(_fiber_tables(sys), reference_fiber_tables(sys)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_topological_grading_reads_the_basis_deltas_in_chunks():
    """On the Z-graded pair groupoid on 30 points (900 arrows) the basis
    deltas are read in chunks of `algebra.TRIAL_CHUNK_ENTRIES` entries: the
    `tracemalloc` peak stays under 20 MB (39 MB with every delta held as
    one 900 x 900 array)."""
    sys = _pair_system(30)
    report, peak = _traced_peak(lambda: check_topological_grading(graded_subspaces(sys), seed=5))
    assert report.ok and report.witness["samples"] == 200
    assert peak < 20e6
