"""Grading subspaces, the topological-grading projection, and fiber representations."""

import numpy as np
import pytest

from groupoid_workbench.algebra import convolve, delta, from_map, i_norm
from groupoid_workbench.bundle import (
    bundle_rep_check,
    check_grading_axioms,
    check_topological_grading,
    graded_subspaces,
    tautological_rep,
)
from groupoid_workbench.grading import Cocycle, GradedGroupoid, cocycle_from_map
from groupoid_workbench.groupoid import counting_haar, group_groupoid
from groupoid_workbench.groups import FreeAbelianGroup, cyclic_group
from groupoid_workbench.representation import operator_norm

from conftest import max_diff, rng_functions


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
        rep = tautological_rep(sys)
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

    def test_tautological_rep_matches_blocks(self, p2_graded):
        sys = p2_graded
        rep = tautological_rep(sys)
        for key, members in sys.fibers().items():
            for aid in members:
                assert operator_norm(rep[key][aid]) == pytest.approx(1.0, abs=1e-12)
