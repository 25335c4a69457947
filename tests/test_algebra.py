"""Convolution algebra: delta calculus, unit, I-norm, inclusion/restriction/components.

Expected values below were derived by substituting deltas into the defining
sums before the implementation existed; naive_convolve re-evaluates the sums
with independent loops.
"""

import numpy as np
import pytest

from groupoid_workbench.algebra import (
    TRIAL_CHUNK_ENTRIES,
    GroupoidFunction,
    convolve,
    delta,
    from_map,
    graded_component,
    graded_components,
    i_norm,
    include_i,
    involute,
    labelled_sweep,
    random_function,
    restrict_q,
    unit_function,
    zero,
)
from groupoid_workbench.groupoid import counting_haar, group_groupoid, pair_groupoid
from groupoid_workbench.groups import cyclic_group
from groupoid_workbench.grading import GradedGroupoid, identity_fiber_subgroupoid

from conftest import max_diff, naive_convolve, naive_i_norm, pair_cocycle, rng_functions

REL = 1e-12


class TestDeltaCalculus:
    def test_delta_product_rule(self, p2, p2_weighted):
        # delta_x * delta_y = rho(s(x)) delta_{xy} when composable
        a = convolve(delta(p2, "(1,2)"), delta(p2, "(2,1)"), p2_weighted)
        assert max_diff(a, {"(1,1)": 4.0}) == 0.0

    def test_delta_product_not_composable(self, p2, p2_counting):
        a = convolve(delta(p2, "(1,2)"), delta(p2, "(1,2)"), p2_counting)
        assert np.abs(a.coeffs).max() == 0.0

    def test_delta_rule_randomized_over_all_pairs(self, p2_graded_weighted):
        g = p2_graded_weighted.groupoid
        haar = p2_graded_weighted.haar
        for x in g.arrow_ids:
            for y in g.arrow_ids:
                prod = convolve(delta(g, x), delta(g, y), haar)
                z = g.compose_ids(x, y)
                expected = {z: haar.rho[g.source(x)]} if z is not None else {}
                assert max_diff(prod, expected) == 0.0

    def test_unit_is_two_sided(self, p2, p2_weighted):
        e = unit_function(p2, p2_weighted)
        for f in rng_functions(p2, seed=11, count=5):
            left = convolve(e, f, p2_weighted)
            right = convolve(f, e, p2_weighted)
            assert np.abs(left.coeffs - f.coeffs).max() <= REL
            assert np.abs(right.coeffs - f.coeffs).max() <= REL


class TestConvolutionAgainstNaive:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_defining_sum(self, seed):
        g = pair_groupoid(3)
        from groupoid_workbench.groupoid import haar_from_weights

        haar = haar_from_weights(g, {"1": 0.5, "2": 2.0, "3": 1.25})
        rng = np.random.default_rng(seed)
        a, b = random_function(g, rng), random_function(g, rng)
        expected = naive_convolve(a, b, haar)
        got = convolve(a, b, haar)
        assert max_diff(got, expected) <= 1e-13

    def test_associativity_and_bilinearity(self):
        g = group_groupoid(cyclic_group(3))
        haar = counting_haar(g)
        a, b, c = rng_functions(g, seed=5, count=3)
        left = convolve(convolve(a, b, haar), c, haar)
        right = convolve(a, convolve(b, c, haar), haar)
        assert np.abs(left.coeffs - right.coeffs).max() <= REL
        lin = convolve(a + 2j * b, c, haar)
        split = convolve(a, c, haar) + 2j * convolve(b, c, haar)
        assert np.abs(lin.coeffs - split.coeffs).max() <= REL

    def test_mismatched_groupoids_rejected(self, p2, p2_counting):
        other = pair_groupoid(2)
        with pytest.raises(ValueError, match="different groupoids"):
            convolve(delta(p2, "(1,1)"), delta(other, "(1,1)"), p2_counting)


class TestInvolution:
    def test_delta_support_inverts(self, p2):
        assert max_diff(involute(delta(p2, "(1,2)")), {"(2,1)": 1.0}) == 0.0

    def test_conjugation_on_group(self, z3_groupoid):
        f = involute(delta(z3_groupoid, "g1", value=1j))
        assert max_diff(f, {"g2": -1j}) == 0.0

    def test_involutive_and_antimultiplicative(self, p2, p2_weighted):
        a, b = rng_functions(p2, seed=9, count=2)
        assert np.abs(involute(involute(a)).coeffs - a.coeffs).max() == 0.0
        lhs = involute(convolve(a, b, p2_weighted))
        rhs = convolve(involute(b), involute(a), p2_weighted)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= REL

    def test_conjugate_linear(self, p2):
        a, b = rng_functions(p2, seed=10, count=2)
        lhs = involute(2j * a + b)
        rhs = -2j * involute(a) + involute(b)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() == 0.0


class TestINorm:
    def test_counting_delta(self, p2, p2_counting):
        assert i_norm(delta(p2, "(1,2)"), p2_counting) == 1.0

    def test_weighted_delta(self, p2, p2_weighted):
        # direct side carries w((1,2)) = rho(2) = 4, inverted side rho(1) = 1
        assert i_norm(delta(p2, "(1,2)"), p2_weighted) == 4.0

    def test_zero(self, p2, p2_counting):
        assert i_norm(zero(p2), p2_counting) == 0.0

    def test_matches_naive_and_submultiplicative(self):
        g = pair_groupoid(3)
        from groupoid_workbench.groupoid import haar_from_weights

        haar = haar_from_weights(g, {"1": 1.0, "2": 3.0, "3": 0.5})
        for seed in (1, 2, 3, 4):
            a, b = rng_functions(g, seed=seed, count=2)
            assert i_norm(a, haar) == pytest.approx(naive_i_norm(a, haar), rel=1e-12)
            assert i_norm(convolve(a, b, haar), haar) <= i_norm(a, haar) * i_norm(b, haar) * (1 + 1e-12)
            assert i_norm(involute(a), haar) == pytest.approx(i_norm(a, haar), rel=1e-12)


class TestInclusionRestriction:
    def test_include_delta(self, p2):
        sub = identity_fiber_subgroupoid(p2, pair_cocycle(p2))
        f = include_i(delta(sub, "(1,1)"), p2)
        assert max_diff(f, {"(1,1)": 1.0}) == 0.0

    def test_include_is_star_multiplicative(self, p2, p2_weighted):
        sub = identity_fiber_subgroupoid(p2, pair_cocycle(p2))
        sub_haar = p2_weighted
        for seed in (3, 4):
            f, g_fn = rng_functions(sub, seed=seed, count=2)
            lhs = include_i(convolve(f, g_fn, sub_haar), p2)
            rhs = convolve(include_i(f, p2), include_i(g_fn, p2), p2_weighted)
            assert np.abs(lhs.coeffs - rhs.coeffs).max() <= REL
            assert np.abs(include_i(involute(f), p2).coeffs - involute(include_i(f, p2)).coeffs).max() == 0.0

    def test_restrict_examples(self, p2):
        sub = identity_fiber_subgroupoid(p2, pair_cocycle(p2))
        a = from_map(p2, {"(1,1)": 1.0, "(1,2)": 2.0})
        assert max_diff(restrict_q(a, sub), {"(1,1)": 1.0}) == 0.0
        off_fiber = from_map(p2, {"(1,2)": 3.0, "(2,1)": -1.0})
        assert np.abs(restrict_q(off_fiber, sub).coeffs).max() == 0.0

    def test_restrict_include_roundtrip(self, p2):
        sub = identity_fiber_subgroupoid(p2, pair_cocycle(p2))
        for f in rng_functions(sub, seed=21, count=4):
            back = restrict_q(include_i(f, p2), sub)
            assert np.abs(back.coeffs - f.coeffs).max() == 0.0

    def test_foreign_arrow_rejected(self, p2):
        other = group_groupoid(cyclic_group(2))
        with pytest.raises(ValueError, match="not an arrow"):
            include_i(delta(other, "g0"), p2)


class TestGradedComponents:
    def test_components_of_named_function(self, p2, p2_graded):
        a = from_map(p2, {"(1,1)": 1.0, "(1,2)": 2.0})
        assert max_diff(graded_component(p2_graded, a, (0,)), {"(1,1)": 1.0}) == 0.0
        assert max_diff(graded_component(p2_graded, a, (-1,)), {"(1,2)": 2.0}) == 0.0

    def test_trivial_cocycle_single_component(self, p2):
        from groupoid_workbench.grading import trivial_cocycle
        from groupoid_workbench.groups import FreeAbelianGroup

        sys = GradedGroupoid(p2, counting_haar(p2), trivial_cocycle(p2, FreeAbelianGroup(1)))
        a = rng_functions(p2, seed=2, count=1)[0]
        assert np.abs(graded_component(sys, a, (0,)).coeffs - a.coeffs).max() == 0.0

    def test_components_sum_to_function_exactly(self, p2, p2_graded):
        for a in rng_functions(p2, seed=13, count=5):
            parts = graded_components(p2_graded, a)
            total = zero(p2)
            for part in parts.values():
                total = total + part
            assert np.abs(total.coeffs - a.coeffs).max() == 0.0

    def test_component_product_support(self, p2, p2_counting, p2_graded):
        # component-beta * component-gamma lands in the (beta+gamma)-fiber
        c = p2_graded.cocycle
        grp = c.group
        for a in rng_functions(p2, seed=17, count=3):
            for b in rng_functions(p2, seed=18, count=3):
                for beta in (-1, 0, 1):
                    for gamma in (-1, 0, 1):
                        prod = convolve(
                            graded_component(p2_graded, a, (beta,)),
                            graded_component(p2_graded, b, (gamma,)),
                            p2_counting,
                        )
                        for arrow, v in zip(p2.arrows, prod.coeffs):
                            if v != 0:
                                assert c.of(arrow.id) == grp.canonical((beta + gamma,))


class TestReadOnlyCoefficients:
    def test_function_copies_the_callers_array(self, p2):
        values = np.arange(4, dtype=np.complex128)
        f = GroupoidFunction(p2, values)
        values[0] = 99.0
        assert f.coeffs[0] == 0.0

    def test_coefficients_are_read_only(self, p2):
        f = delta(p2, "(1,2)")
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[0] = 1.0


def test_labelled_sweep_yields_the_flagged_rows_pair_by_pair():
    """On the residual |sum_y E[x, y] c_y|, linear in c, with rows of one
    wrong entry, two, none and a NaN: the rows over the tolerance (the NaN
    one too) are swept, x then y ascending, each pair at its own defect, and
    every call stays within its chunk of two rows."""
    n = 7
    errors = np.zeros((n, n))
    errors[1, 4], errors[3, [0, 6]], errors[5, 2] = 1e-3, 2.0, np.nan

    def residual(x, c):
        assert len(x) <= 2
        return np.abs((errors[x] * c).sum(axis=1))

    swept = list(labelled_sweep(n, TRIAL_CHUNK_ENTRIES // 2, residual, 1e-6))
    assert [(x, y) for x, y, _ in swept] == [(x, y) for x in (1, 3, 5) for y in range(n)]
    want = np.concatenate([np.abs(errors[1]), np.abs(errors[3]), np.full(n, np.nan)])  # NaN * 0 is NaN
    np.testing.assert_array_equal([defect for *_, defect in swept], want)
    assert list(labelled_sweep(n, n, lambda x, c: np.zeros(len(x)), 0.0)) == []
