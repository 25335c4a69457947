"""Regular representation matrices, C*-norm, positivity, and the fiber unitaries.

Oracles used here, all derived before implementation:
  * on a pair groupoid with counting weights the representation at any unit
    is the plain coefficient matrix [a(i,j)], so the algebra is n x n matrices;
  * on Z/2 the characters diagonalize convolution: ||alpha e + beta g|| =
    max(|alpha + beta|, |alpha - beta|);
  * ||delta_x|| = sqrt(rho(s(x)) rho(r(x))) via the C*-identity applied to
    the delta product rule.

The blocks are evaluated as stacks of equal-size unit blocks; the per-unit
builder they replaced (the entry formula through the compose tables, one
unit at a time) is kept below as ``per_unit_block`` and serves as an oracle
on the corpus.
"""

import warnings

import numpy as np
import pytest

from groupoid_workbench.algebra import (
    GroupoidFunction,
    convolve,
    delta,
    from_map,
    include_i,
    involute,
    unit_function,
)
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.grading import GradedGroupoid, cocycle_from_map, trivial_cocycle
from groupoid_workbench.groupoid import (
    action_groupoid,
    counting_haar,
    disjoint_union,
    group_groupoid,
    haar_from_weights,
    pair_groupoid,
)
from groupoid_workbench import representation
from groupoid_workbench.groups import FreeAbelianGroup, cyclic_group
from groupoid_workbench.representation import (
    cstar_norm,
    cstar_norm_stack,
    decompose_rep_U,
    lowest_eigenvalues,
    operator_norm,
    operator_norms,
    positivity_check,
    positivity_stack,
    regular_rep_matrix,
    rep_blocks,
    spectrum,
    translate_rep_V,
)

from conftest import patch_method, rng_functions


def per_unit_block(a, haar, u):
    """The regular block at u, entry by entry over the arrows with source u:
    M[x', x] = a(x' x^{-1}) sqrt(rho(r(x)) rho(r(x')))."""
    g = a.groupoid
    ids = g.arrows_with_src(u)
    m = np.zeros((len(ids), len(ids)), dtype=complex)
    for i, xp in enumerate(ids):
        for j, x in enumerate(ids):
            scale = np.sqrt(haar.unit_weight(g.target(x)) * haar.unit_weight(g.target(xp)))
            m[i, j] = a.coeffs[g.index(g.compose_ids(xp, g.invert_id(x)))] * scale
    return m


def per_block_positive(blocks, tol=1e-9):
    slack = tol * (1.0 + max(operator_norm(m) for m in blocks))
    return all(
        np.abs(m - m.conj().T).max() <= slack and np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -slack
        for m in blocks
    )


class TestRegularRepMatrix:
    def test_pair_counting_gives_matrix_units(self, p2, p2_counting):
        a = from_map(p2, {"(1,1)": 1.0, "(1,2)": 2.0, "(2,1)": 3.0, "(2,2)": 4.0})
        rep = regular_rep_matrix(a, p2_counting, "1")
        assert p2.arrows_with_src("1") == ("(1,1)", "(2,1)")
        expected = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.abs(rep - expected).max() == 0.0

    def test_weighted_delta_entry(self, p2, p2_weighted):
        rep = regular_rep_matrix(delta(p2, "(1,2)"), p2_weighted, "1")
        # sends e_(2,1) to 2 e_(1,1); all other entries vanish
        expected = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert np.abs(rep - expected).max() <= 1e-15

    def test_unit_acts_as_identity(self, p2, p2_weighted):
        e = unit_function(p2, p2_weighted)
        for u in p2.units:
            rep = regular_rep_matrix(e, p2_weighted, u)
            assert np.abs(rep - np.eye(len(rep))).max() <= 1e-15

    def test_representation_is_multiplicative(self):
        g = pair_groupoid(3)
        haar = haar_from_weights(g, {"1": 1.0, "2": 2.0, "3": 0.5})
        a, b = rng_functions(g, seed=3, count=2)
        ab = convolve(a, b, haar)
        for u in g.units:
            ma = regular_rep_matrix(a, haar, u)
            mb = regular_rep_matrix(b, haar, u)
            mab = regular_rep_matrix(ab, haar, u)
            assert np.abs(ma @ mb - mab).max() <= 1e-12

    def test_representation_is_star_preserving(self, p2, p2_weighted):
        a = rng_functions(p2, seed=4, count=1)[0]
        for u in p2.units:
            ma = regular_rep_matrix(a, p2_weighted, u)
            mastar = regular_rep_matrix(involute(a), p2_weighted, u)
            assert np.abs(ma.conj().T - mastar).max() <= 1e-12

    def test_unknown_unit_rejected(self, p2, p2_counting):
        with pytest.raises(ValueError, match="Unknown unit"):
            regular_rep_matrix(delta(p2, "(1,1)"), p2_counting, "9")


class TestStacksAgainstPerUnitBlocks:
    @pytest.mark.parametrize("doc", builtin_corpus(seed=0), ids=lambda d: d.name)
    def test_matches_per_unit_builder_on_corpus(self, doc):
        sys = doc.system
        cases = [
            (sys.groupoid, list(doc.functions.values()) + rng_functions(sys.groupoid, seed=13, count=3)),
            (sys.identity_fiber, rng_functions(sys.identity_fiber, seed=13, count=3)),
        ]
        for g, functions in cases:
            for a in functions:
                reference = [per_unit_block(a, sys.haar, u) for u in g.units]
                blocks = rep_blocks(a, sys.haar)
                assert list(blocks) == list(g.units)
                for got, ref in zip(blocks.values(), reference):
                    assert got.shape == ref.shape
                    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
                norm = max(operator_norm(m) for m in reference)
                assert cstar_norm(a, sys.haar) == pytest.approx(norm, rel=1e-15, abs=1e-300)
                h = a + involute(a)
                h_blocks = [per_unit_block(h, sys.haar, u) for u in g.units]
                expected = np.sort(np.concatenate([np.linalg.eigvalsh(0.5 * (m + m.conj().T)) for m in h_blocks]))
                assert np.abs(spectrum(h, sys.haar) - expected).max() <= 1e-15 * (1.0 + np.abs(expected).max())
                for f in (a, h, convolve(involute(a), a, sys.haar)):
                    blocks = [per_unit_block(f, sys.haar, u) for u in g.units]
                    assert positivity_check(f, sys.haar) == per_block_positive(blocks)

    @pytest.mark.parametrize("doc", builtin_corpus(seed=0), ids=lambda d: d.name)
    def test_regular_rep_matrix_is_its_stacked_block(self, doc):
        # regular_rep_matrix evaluates only u's row of its stack, with the
        # arithmetic of rep_stacks, so the two agree bit for bit
        sys = doc.system
        for g in (sys.groupoid, sys.identity_fiber):
            for a in rng_functions(g, seed=19, count=2):
                blocks = rep_blocks(a, sys.haar)
                for u in g.units:
                    assert np.array_equal(regular_rep_matrix(a, sys.haar, u), blocks[u])

    def test_union_of_groups_has_two_stacks(self):
        doc = next(d for d in builtin_corpus(seed=0) if d.name == "union-z2-z3-counting")
        assert "rep" not in doc.system.groupoid._cache  # parsing and validation do not build the index
        tables = doc.system.groupoid.rep_tables()
        assert [(len(units), arrows.shape[1]) for units, arrows, _ in tables] == [(1, 2), (1, 3)]
        assert all(not arrows.flags.writeable and not products.flags.writeable for _, arrows, products in tables)

    def test_blocks_follow_declared_unit_order_across_sizes(self):
        g = disjoint_union(group_groupoid(cyclic_group(3)), group_groupoid(cyclic_group(2)))
        haar = haar_from_weights(g, {"L:u": 2.0, "R:u": 0.5})
        assert [units for units, _, _ in g.rep_tables()] == [("R:u",), ("L:u",)]
        a = rng_functions(g, seed=17, count=1)[0]
        blocks = rep_blocks(a, haar)
        assert list(blocks) == ["L:u", "R:u"]
        for u in g.units:
            assert np.abs(blocks[u] - per_unit_block(a, haar, u)).max() <= 1e-15 * np.abs(blocks[u]).max()


class TestCstarNorm:
    def test_counting_delta(self, p2, p2_counting):
        assert cstar_norm(delta(p2, "(1,2)"), p2_counting) == pytest.approx(1.0, abs=1e-12)

    def test_weighted_delta_is_geometric_mean(self, p2, p2_weighted):
        a = delta(p2, "(1,2)")
        assert cstar_norm(a, p2_weighted) == pytest.approx(2.0, abs=1e-12)
        # cross-check through the C*-identity
        assert cstar_norm(convolve(involute(a), a, p2_weighted), p2_weighted) == pytest.approx(4.0, abs=1e-12)

    def test_z2_characters(self, z2_groupoid):
        haar = counting_haar(z2_groupoid)
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = from_map(z2_groupoid, {"g0": alpha, "g1": beta})
            expected = max(abs(alpha + beta), abs(alpha - beta))
            assert cstar_norm(a, haar) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_cstar_identity_and_inorm_bound(self):
        from groupoid_workbench.algebra import i_norm

        g = pair_groupoid(3)
        haar = haar_from_weights(g, {"1": 1.0, "2": 2.5, "3": 0.75})
        for a in rng_functions(g, seed=6, count=10):
            n = cstar_norm(a, haar)
            nn = cstar_norm(convolve(involute(a), a, haar), haar)
            assert abs(nn - n * n) <= 1e-9 * (1 + n * n)
            assert n <= i_norm(a, haar) * (1 + 1e-12)
            assert cstar_norm(involute(a), haar) == pytest.approx(n, rel=1e-12)

    def test_unit_has_norm_one(self, p2, p2_weighted):
        assert cstar_norm(unit_function(p2, p2_weighted), p2_weighted) == pytest.approx(1.0, abs=1e-12)

    def test_delta_norm_closed_form(self):
        g = pair_groupoid(3)
        haar = haar_from_weights(g, {"1": 2.0, "2": 5.0, "3": 0.5})
        for a in g.arrows:
            expected = np.sqrt(haar.rho[a.src] * haar.rho[a.dst])
            assert cstar_norm(delta(g, a.id), haar) == pytest.approx(expected, rel=1e-12)


class TestPositivityAndSpectrum:
    def test_star_square_positive(self, p2, p2_weighted):
        for a in rng_functions(p2, seed=12, count=10):
            assert positivity_check(convolve(involute(a), a, p2_weighted), p2_weighted)

    def test_signed_diagonal_not_positive(self, p2, p2_counting):
        a = from_map(p2, {"(1,1)": 1.0, "(2,2)": -1.0})
        assert not positivity_check(a, p2_counting)
        eigs = spectrum(a, p2_counting)
        assert eigs[0] == pytest.approx(-1.0, abs=1e-12)

    def test_non_self_adjoint_rejected_for_spectrum(self, p2, p2_counting):
        with pytest.raises(ValueError, match="self-adjoint"):
            spectrum(delta(p2, "(1,2)"), p2_counting)

    def test_spectrum_of_unit(self, p2, p2_weighted):
        eigs = spectrum(unit_function(p2, p2_weighted), p2_weighted)
        assert eigs.shape == (4,)
        assert np.abs(eigs - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_nan_coefficient_has_no_spectrum(self, n):
        """The unit function with a NaN coefficient at (1,1) is rejected: its
        self-adjointness deviation is NaN, which must fail the test (it read
        [0, -0, 0, -0] on pair(2) when only a deviation above it failed)."""
        g = pair_groupoid(n)
        haar = counting_haar(g)
        unit = unit_function(g, haar)
        coeffs = np.array(unit.coeffs)
        coeffs[g.index("(1,1)")] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="self-adjoint"):
                spectrum(GroupoidFunction(g, coeffs), haar)
        assert spectrum(unit, haar).tolist() == [1.0] * n * n

    def test_non_hermitian_fails_positivity(self, p2, p2_counting):
        assert not positivity_check(delta(p2, "(1,2)"), p2_counting)


EPS = np.finfo(float).eps


def complex_stack(rng: np.random.Generator, count: int, d: int, scale: float = 1.0) -> np.ndarray:
    return (rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))) * scale


def small_block_cases(d: int) -> list[np.ndarray]:
    """Random complex (count, d, d) stacks at the scales 1e-150, 1 and 1e150,
    and stacks with equal, zero and rank-one structure."""
    rng = np.random.default_rng([17, d])
    cases = [complex_stack(rng, 4000, d, scale) for scale in (1e-150, 1.0, 1e150)]
    v, u = complex_stack(rng, 500, d)[..., :1], complex_stack(rng, 500, d)[..., :1]
    cases.append(v @ u.conj().swapaxes(-1, -2))  # rank one
    cases.append(np.eye(d) * rng.normal(size=(500, 1, 1)))  # equal eigenvalues
    cases.append(np.zeros((3, d, d), dtype=complex))
    cases.append(np.exp(2j * np.pi * rng.random((500, 1, 1))) * np.eye(d)[::-1])  # unitary: equal singular values
    return cases


class TestSmallBlockClosedForms:
    """Blocks of size 1 and 2 are reduced in closed form (|m|, and the
    quadratic formula for the eigenvalues of a Hermitian 2 x 2 matrix);
    ``eigvalsh`` stays the oracle.  The scale of the bounds is the squared
    Frobenius norm of the block, at least its squared operator norm."""

    def test_one_by_one_norm_is_eigvalsh_bit_for_bit(self):
        rng = np.random.default_rng(5)
        m = complex_stack(rng, 140_000, 1, 1.0) * 10.0 ** rng.uniform(-150.0, 150.0, size=(140_000, 1, 1))
        top = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)[..., -1]
        assert np.array_equal(operator_norms(m), np.sqrt(np.maximum(top, 0.0)))

    def test_one_by_one_lowest_eigenvalue_is_eigvalsh_bit_for_bit(self):
        h = complex_stack(np.random.default_rng(6), 10_000, 1)
        assert np.array_equal(lowest_eigenvalues(h), np.linalg.eigvalsh(h)[..., 0])

    @pytest.mark.parametrize("case", range(len(small_block_cases(2))))
    def test_two_by_two_norm_matches_eigvalsh(self, case):
        m = small_block_cases(2)[case]
        top = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)[..., -1]
        scale = (np.abs(m) ** 2).sum(axis=(-2, -1))
        norms = operator_norms(m)
        # |n^2 - top| without rounding the square of n
        assert ((norms + np.sqrt(top)) * np.abs(norms - np.sqrt(top)) <= 8 * EPS * scale).all()

    @pytest.mark.parametrize("case", range(len(small_block_cases(2))))
    def test_two_by_two_lowest_eigenvalue_matches_eigvalsh(self, case):
        m = small_block_cases(2)[case]
        h = 0.5 * (m + m.conj().swapaxes(-1, -2))
        scale = np.sqrt((np.abs(m) ** 2).sum(axis=(-2, -1)))
        assert (np.abs(lowest_eigenvalues(h) - np.linalg.eigvalsh(h)[..., 0]) <= 8 * EPS * scale).all()

    def test_lowest_eigenvalue_reads_the_lower_triangle(self):
        h = np.array([[1.0, 5.0 + 1j], [2.0, -1.0]])  # not Hermitian: eigvalsh reads h[1, 0]
        assert lowest_eigenvalues(h) == pytest.approx(np.linalg.eigvalsh(h)[0], abs=8 * EPS * 6)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1j * np.inf])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_non_finite_block_has_a_nan_norm(self, d, value):
        m = np.ones((2, d, d), dtype=complex)
        m[0, -1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = operator_norms(m)
        assert np.isnan(norms[0]) and norms[1] == pytest.approx(d)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_nan_coefficient_is_not_positive(self, n):
        """The unit function is positive; with one NaN coefficient it is not,
        at block size n, and neither the C*-norm nor the verdict raises.  The
        NaN sits off the diagonal of the block where there is an off-diagonal
        entry, where ``eigvalsh`` rejects the block if it gets it."""
        g = pair_groupoid(n)
        haar = counting_haar(g)
        stack = np.tile(unit_function(g, haar).coeffs, (3, 1))
        stack[1, 1 % g.n_arrows] = np.nan  # the arrow (1, 2) when n > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            verdicts = positivity_stack(g, stack, haar)
            norms = cstar_norm_stack(g, stack, haar)
            one = positivity_stack(g, stack[1], haar)
        assert verdicts.tolist() == [True, False, True]
        assert not one
        assert np.isnan(norms[1]) and norms[[0, 2]].tolist() == [1.0, 1.0]


class TestFiberDecomposition:
    def test_hand_worked_pair_blocks(self, p2_graded):
        sys = p2_graded
        sub = sys.identity_fiber
        a_e = from_map(sub, {"(1,1)": 2.0, "(2,2)": 5.0})
        dec = decompose_rep_U(sys, a_e, "1")
        assert dec.block_order == ("0", "1")  # (1,1) in fiber 0, (2,1) in fiber 1
        assert dec.blocks["0"] == pytest.approx(np.array([[2.0]]))
        assert dec.blocks["1"] == pytest.approx(np.array([[5.0]]))
        assert dec.max_abs_error == 0.0

    def test_trivial_cocycle_single_block(self, p2, p2_counting):
        sys = GradedGroupoid.build(p2, p2_counting, trivial_cocycle(p2, FreeAbelianGroup(1)))
        a_e = rng_functions(sys.identity_fiber, seed=3, count=1)[0]
        dec = decompose_rep_U(sys, a_e, "1")
        assert dec.block_order == ("0",)
        full = regular_rep_matrix(include_i(a_e, p2), p2_counting, "1")
        assert np.abs(dec.blocks["0"] - full).max() <= 1e-15

    def test_blocks_match_permuted_full_on_action_groupoid(self):
        z3 = cyclic_group(3)
        g = action_groupoid([0, 1, 2], z3, lambda x, h: (x + h) % 3)
        haar = haar_from_weights(g, {"0": 1.0, "1": 2.0, "2": 0.5})
        label = {a.id: int(a.id.rsplit(",", 1)[1].rstrip(")")) for a in g.arrows}
        sys = GradedGroupoid.build(g, haar, cocycle_from_map(g, z3, label))
        for a_e in rng_functions(sys.identity_fiber, seed=5, count=5):
            for u in g.units:
                dec = decompose_rep_U(sys, a_e, u)
                assert dec.max_abs_error <= 1e-12

    def test_block_norms_bound_by_full_norm(self, p2_graded_weighted):
        sys = p2_graded_weighted
        for a_e in rng_functions(sys.identity_fiber, seed=9, count=5):
            full_norm = cstar_norm(include_i(a_e, sys.groupoid), sys.haar)
            block_max = max(
                operator_norm(block)
                for u in sys.groupoid.units
                for block in decompose_rep_U(sys, a_e, u).blocks.values()
            )
            sub_norm = cstar_norm(a_e, sys.haar)
            assert block_max == pytest.approx(full_norm, rel=1e-9, abs=1e-12)
            assert block_max == pytest.approx(sub_norm, rel=1e-9, abs=1e-12)


class TestTranslationUnitaries:
    def test_hand_worked_pair_translation(self, p2_graded):
        sys = p2_graded
        a_e = from_map(sys.identity_fiber, {"(1,1)": 2.0, "(2,2)": 5.0})
        wit = translate_rep_V(sys, a_e, "1", (1,))
        assert wit.z_arrow == "(2,1)"
        assert wit.target_unit == "2"
        assert wit.translated == pytest.approx(np.array([[5.0]]))
        assert wit.max_abs_error <= 1e-15

    def test_identity_fiber_uses_unit_arrow(self, p2_graded):
        sys = p2_graded
        a_e = rng_functions(sys.identity_fiber, seed=2, count=1)[0]
        wit = translate_rep_V(sys, a_e, "1", (0,))
        assert wit.z_arrow == "(1,1)"
        assert wit.target_unit == "1"
        assert np.abs(wit.v_matrix - np.eye(1)).max() == 0.0

    def test_empty_fiber_rejected(self, p2_graded):
        with pytest.raises(ValueError, match="no arrows with source"):
            translate_rep_V(p2_graded, rng_functions(p2_graded.identity_fiber, 1, 1)[0], "1", (5,))

    def test_identity_holds_for_every_choice_of_z(self):
        z4 = cyclic_group(4)
        g = action_groupoid([0, 1, 2, 3], z4, lambda x, h: (x + h) % 4)
        haar = haar_from_weights(g, {"0": 1.0, "1": 3.0, "2": 0.5, "3": 2.0})
        label = {a.id: int(a.id.rsplit(",", 1)[1].rstrip(")")) for a in g.arrows}
        sys = GradedGroupoid.build(g, haar, cocycle_from_map(g, z4, label))
        a_e = rng_functions(sys.identity_fiber, seed=31, count=1)[0]
        for u in g.units:
            for gamma in range(4):
                fiber_here = [aid for aid in g.arrows_with_src(u) if sys.cocycle.of(aid) == gamma]
                for z in fiber_here:
                    wit = translate_rep_V(sys, a_e, u, gamma, z_arrow=z)
                    assert wit.max_abs_error <= 1e-12
                    unitary_defect = np.abs(wit.v_matrix @ wit.v_matrix.conj().T - np.eye(len(wit.v_matrix)))
                    assert unitary_defect.max() == 0.0

    def test_wrong_z_rejected(self, p2_graded):
        a_e = rng_functions(p2_graded.identity_fiber, 1, 1)[0]
        with pytest.raises(ValueError, match="not in the"):
            translate_rep_V(p2_graded, a_e, "1", (1,), z_arrow="(1,1)")


class TestReportedDeviation:
    """The deviation that the fiber checks report is the largest entry of
    |translated - target| (translation) or of the permuted matrix outside
    the direct sum of its fiber blocks (decomposition).  It is exactly 0 on
    valid input, so these tests feed a deliberately permuted v_matrix, or an
    inclusion that puts an identity-fiber coefficient on an arrow of another
    fiber, which gives a known nonzero deviation, and assert its exact
    maximum.  The all-units kernel of the inclusion suite is checked against
    these functions in ``tests/test_batched_kernels.py``."""

    @staticmethod
    def instance(name):
        sys = next(doc for doc in builtin_corpus(seed=0) if doc.name == name).system
        functions = rng_functions(sys.identity_fiber, seed=41, count=3)
        return sys, functions

    def test_translation_reports_the_largest_deviation(self, monkeypatch):
        # one fiber on pair3 makes every block 3 x 3
        sys, functions = self.instance("pair3-trivial-weighted")
        translation = representation._translation

        def reversed_rows(*args):
            gamma_key, z, v, vmat = translation(*args)
            return gamma_key, z, v, vmat[::-1]

        monkeypatch.setattr(representation, "_translation", reversed_rows)
        gamma = sys.fiber_elements[0]
        singles = [translate_rep_V(sys, f, "1", gamma) for f in functions]
        for wit in singles:
            assert np.array_equal(wit.translated, wit.v_matrix @ wit.fiber_block @ wit.v_matrix.T)
            deviation = np.abs(wit.translated - wit.target_block)
            assert wit.max_abs_error == deviation.max() > deviation.min() >= 0.0

    def test_decomposition_reports_the_largest_deviation(self, monkeypatch):
        # pair3 graded by j - i: the three arrows at a unit lie in three fibers
        sys, functions = self.instance("pair3-zgraded-weighted")
        g, sub = sys.groupoid, sys.identity_fiber
        embedding = sub.embedding(g).copy()
        embedding[-1] = np.flatnonzero(~sys.identity_mask)[0]  # the coefficient of the last identity-fiber arrow
        patch_method(monkeypatch, sub, "embedding", lambda parent: embedding)
        singles = [decompose_rep_U(sys, f, "2") for f in functions]
        for dec in singles:
            assert dec.block_order == sys.fiber_keys[1:4]
            direct_sum = np.zeros_like(dec.permuted_matrix)
            for k, key in enumerate(dec.block_order):
                assert dec.blocks[key].shape == (1, 1)
                direct_sum[k, k] = dec.blocks[key][0, 0]
            deviation = np.abs(dec.permuted_matrix - direct_sum)
            assert dec.max_abs_error == deviation.max() > deviation.min() >= 0.0
