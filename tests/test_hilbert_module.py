"""Module structure, the induced-space operator norm, and the expectation.

The inner product is computed as one convolution, <a, b> = (a^* * b)
restricted to the identity fiber (same-fiber components pair automatically
there); its defining sum over the graded components is kept below as
``fiber_sum_inner_product`` and serves as an oracle on the corpus.  The module operator norm is cross-checked against the C*-norm:
on a finite groupoid the expectation is faithful, so left convolution is an
injective *-homomorphism into the module operators and therefore isometric.

The induced space is built block by block; the dense construction it
replaced (one eigensolve of the whole ambient Gram matrix) is kept below as
``dense_induced_space`` and serves as an oracle on the corpus.  The induced
operator is compressed unit by unit; ``reference_operator_blocks`` is the
compression on every support row at once, whose diagonal blocks the
per-unit blocks must be.
"""

import time
import tracemalloc

import numpy as np
import pytest

from groupoid_workbench import hilbert_module
from groupoid_workbench.algebra import (
    GroupoidFunction,
    convolve,
    delta,
    from_map,
    graded_components,
    i_norm,
    include_i,
    involute,
    random_stacks,
    restrict_q,
    unit_function,
    zero,
)
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import WorkbenchDocument
from groupoid_workbench.grading import GradedGroupoid, cocycle_from_map
from groupoid_workbench.groupoid import (
    action_groupoid,
    counting_haar,
    group_groupoid,
    haar_from_weights,
    pair_groupoid,
    product,
)
from groupoid_workbench.groups import FreeAbelianGroup, cyclic_group
from groupoid_workbench.hilbert_module import (
    L_operator_norm,
    L_operator_norm_stack,
    check_eq_ruy,
    eq_ruy_defect,
    eq_ruy_tolerance,
    expectation_P,
    induced_space,
    kernel_check,
    module_action,
    module_inner_product,
    module_norm,
)
from groupoid_workbench.representation import cstar_norm, operator_norm, positivity_check
from groupoid_workbench.verify import run_document

from conftest import arrows_into, dense_compose, max_diff, pair_cocycle, rng_functions
from test_orbit_blocks import shuffled, weighted


def dense_induced_space(sys, null_threshold=1e-10):
    """The induced space from one dense eigensolve of the whole ambient Gram
    matrix, built entry by entry through the compose tables.  Returns the
    rank, the ascending Gram spectrum, and a function a -> ||L_a||."""
    g, sub, haar = sys.groupoid, sys.identity_fiber, sys.haar
    n_g, n_h = g.n_arrows, sub.n_arrows
    sub_idx = np.full((n_h, n_h), -1, dtype=np.intp)
    for i, x in enumerate(sub.arrows):
        for ip, xp in enumerate(sub.arrows):
            if xp.src == x.src:
                sub_idx[ip, i] = sub.index(sub.compose_ids(xp.id, sub.invert_id(x.id)))
    lam = np.array([haar.unit_weight(x.dst) for x in sub.arrows])
    scale = np.sqrt(np.outer(lam, lam))
    rho_r = np.array([haar.unit_weight(a.dst) for a in g.arrows])
    gram = np.zeros((n_g * n_h, n_g * n_h), dtype=np.complex128)
    for xi, x in enumerate(g.arrows):
        for yi, y in enumerate(g.arrows):
            if x.dst != y.dst or sys.cocycle.of(y.id) != sys.cocycle.of(x.id):
                continue
            m = g.compose_ids(g.invert_id(x.id), y.id)
            gram[xi * n_h : (xi + 1) * n_h, yi * n_h : (yi + 1) * n_h] = (
                (sub_idx == sub.index(m)) * scale * rho_r[xi]
            )
    eigvals, eigvecs = np.linalg.eigh(gram)
    keep = eigvals > null_threshold * eigvals[-1]
    frame = eigvecs[:, keep] / np.sqrt(eigvals[keep])
    conv_idx = np.full((n_g, n_g), -1, dtype=np.intp)
    for i, x in enumerate(g.arrows):
        for ip, xp in enumerate(g.arrows):
            if xp.src == x.src:
                conv_idx[ip, i] = g.index(g.compose_ids(xp.id, g.invert_id(x.id)))

    def l_norm(a):
        conv = np.where(conv_idx >= 0, a.coeffs[conv_idx], 0.0) * rho_r[None, :]
        lifted = np.kron(conv, np.eye(n_h))
        return operator_norm(frame.conj().T @ gram @ lifted @ frame)

    return int(keep.sum()), eigvals, l_norm


def reference_operator_blocks(space, a):
    """The compression F^H G (L_a (x) 1) F of left convolution by one
    function a onto the frame F of ``space``, dense over every support row
    (x, h) with s(x) = r(h) at once, the Gram entries from their formula.
    Returns the (rank, rank) matrix and the unit s(h) of every frame
    column."""
    sys = space.system
    g, sub = sys.groupoid, sys.identity_fiber
    xs, hs = np.nonzero(g.src_index[:, None] == sub.dst_index[None, :])
    frame = space.frame[xs * sub.n_arrows + hs]
    rho = np.array([sys.haar.unit_weight(u) for u in g.units])
    to_sub = np.full(g.n_arrows + 1, -1)  # and -1 (undefined) to -1
    to_sub[sub.embedding(g)] = np.arange(sub.n_arrows)
    compose, inv = dense_compose(g), g.invert_index
    # G[(x, h), (y, h')] = rho(r(x)) sqrt(rho(r(h)) rho(r(h'))) where h h'^{-1} = x^{-1} y
    x_inv_y = to_sub[compose[inv[xs][:, None], xs[None, :]]]
    h_h_inv = dense_compose(sub)[hs[:, None], sub.invert_index[hs][None, :]]
    sqrt_rho_h = np.sqrt(rho[sub.dst_index[hs]])
    gram = ((x_inv_y == h_h_inv) & (h_h_inv >= 0)) * np.outer(rho[g.dst_index[xs]] * sqrt_rho_h, sqrt_rho_h)
    # (L_a (x) 1)[(x', h'), (x, h)] = a(x' x^{-1}) rho(r(x)) where h' = h
    product = compose[xs[:, None], inv[xs][None, :]]
    conv = np.where((hs[:, None] == hs[None, :]) & (product >= 0), a[product] * rho[g.dst_index[xs]][None, :], 0.0)
    column_unit = sub.src_index[hs[np.abs(frame).argmax(axis=0)]]
    return frame.T @ gram @ conv @ frame, column_unit


def fiber_sum_inner_product(sys, a, b):
    """<a, b> = sum over gamma of (a_gamma)^* * b_gamma, restricted to G_e."""
    comps_a = graded_components(sys, a)
    comps_b = graded_components(sys, b)
    acc = np.zeros(sys.groupoid.n_arrows, dtype=np.complex128)
    for key, part_a in comps_a.items():
        if key in comps_b:
            acc += convolve(involute(part_a), comps_b[key], sys.haar).coeffs
    return restrict_q(GroupoidFunction(sys.groupoid, acc), sys.identity_fiber)


def pair_system(n, graded):
    """Pair groupoid on 1..n with seeded weights, graded by i - j in Z or trivially."""
    g = pair_groupoid(n)
    rng = np.random.default_rng(n)
    rho = {u: float(rng.uniform(0.5, 2.5)) for u in g.units}
    cocycle = pair_cocycle(g) if graded else cocycle_from_map(g, FreeAbelianGroup(1), dict.fromkeys(g.arrow_ids, 0))
    return GradedGroupoid.build(g, haar_from_weights(g, rho), cocycle)


def trivially_graded_cyclic(n):
    """cyclic_group(n) as a one-unit groupoid under the zero cocycle, so G_e = G."""
    g = group_groupoid(cyclic_group(n))
    return GradedGroupoid.build(g, counting_haar(g), cocycle_from_map(g, FreeAbelianGroup(1), dict.fromkeys(g.arrow_ids, 0)))


def rank_one_defects(space):
    """Hold every Gram block to its closed form: the rows (x, h) of a block
    share one product z = xh, and the block is rho(r(z)) v v^T with v_h =
    sqrt(rho(r(h))), whose one nonzero eigenvalue is rho(r(z)) times the sum
    of rho(r(h)) over its rows.  Returns the largest relative deviation of a
    block's top eigenvalue from that value and the largest of its other
    eigenvalues relative to it, over all blocks."""
    sys = space.system
    g, sub = sys.groupoid, sys.identity_fiber
    rho = np.array([sys.haar.unit_weight(u) for u in g.units])
    top_gap = rest = 0.0
    for members, gram in space._blocks:
        x, h = np.divmod(space._support[members], sub.n_arrows)
        z = g.compose_index(x[:, 0], sub.embedding(g)[h[:, 0]])
        expected = rho[g.dst_index[z]] * rho[sub.dst_index[h]].sum(axis=1)
        eigvals = np.linalg.eigvalsh(gram)
        top_gap = max(top_gap, float((np.abs(eigvals[:, -1] - expected) / expected).max()))
        rest = max(rest, float((np.abs(eigvals[:, :-1]).max(axis=1, initial=0.0) / expected).max()))
    return top_gap, rest


@pytest.fixture
def graded_action():
    z3 = cyclic_group(3)
    g = action_groupoid([0, 1, 2], z3, lambda x, h: (x + h) % 3)
    haar = haar_from_weights(g, {"0": 1.0, "1": 2.0, "2": 0.5})
    label = {a.id: int(a.id.rsplit(",", 1)[1].rstrip(")")) for a in g.arrows}
    return GradedGroupoid.build(g, haar, cocycle_from_map(g, z3, label))


class TestModuleAction:
    def test_delta_example(self, p2_graded):
        sys = p2_graded
        out = module_action(sys, delta(sys.groupoid, "(1,2)"), delta(sys.identity_fiber, "(2,2)"))
        assert max_diff(out, {"(1,2)": 1.0}) == 0.0

    def test_action_is_associative(self, p2_graded_weighted):
        sys = p2_graded_weighted
        a = rng_functions(sys.groupoid, seed=1, count=1)[0]
        g1, g2 = rng_functions(sys.identity_fiber, seed=2, count=2)
        sub_haar = sys.haar
        lhs = module_action(sys, a, convolve(g1, g2, sub_haar))
        rhs = module_action(sys, module_action(sys, a, g1), g2)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12

    def test_unit_of_subalgebra_acts_trivially(self, p2_graded_weighted):
        sys = p2_graded_weighted
        e_sub = unit_function(sys.identity_fiber, sys.haar)
        for a in rng_functions(sys.groupoid, seed=3, count=5):
            out = module_action(sys, a, e_sub)
            assert np.abs(out.coeffs - a.coeffs).max() <= 1e-12

    def test_wrong_homes_rejected(self, p2_graded):
        sys = p2_graded
        with pytest.raises(ValueError, match="identity fiber"):
            module_action(sys, delta(sys.groupoid, "(1,1)"), delta(sys.groupoid, "(1,1)"))


class TestInnerProduct:
    def test_delta_example(self, p2_graded):
        sys = p2_graded
        a = delta(sys.groupoid, "(1,2)")
        assert max_diff(module_inner_product(sys, a, a), {"(2,2)": 1.0}) == 0.0

    def test_matches_restricted_star_product(self, graded_action):
        # <a, b>(n) = sum over {y : r(y) = r(n)} of conj(a(y^{-1})) b(y^{-1} n) w(y), n in G_e
        sys = graded_action
        g, sub = sys.groupoid, sys.identity_fiber
        for seed in (4, 5, 6):
            a, b = rng_functions(g, seed=seed, count=2)
            direct = module_inner_product(sys, a, b)
            oracle = np.zeros(sub.n_arrows, dtype=complex)
            for i, n in enumerate(sub.arrow_ids):
                for y in arrows_into(g, g.target(n)):
                    y_inv = g.invert_id(y)
                    term = np.conj(a.coeffs[g.index(y_inv)]) * b.coeffs[g.index(g.compose_ids(y_inv, n))]
                    oracle[i] += term * sys.haar.weight(g, y)
            assert np.abs(direct.coeffs - oracle).max() <= 1e-12

    @pytest.mark.parametrize("doc", builtin_corpus(seed=0), ids=lambda d: d.name)
    def test_matches_fiber_sum_on_corpus(self, doc):
        sys = doc.system
        functions = list(doc.functions.values()) + rng_functions(sys.groupoid, seed=7, count=4)
        for a in functions:
            for b in functions:
                oracle = fiber_sum_inner_product(sys, a, b).coeffs
                got = module_inner_product(sys, a, b).coeffs
                assert np.abs(got - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())

    def test_conjugate_symmetry(self, p2_graded_weighted):
        sys = p2_graded_weighted
        a, b = rng_functions(sys.groupoid, seed=7, count=2)
        lhs = involute(module_inner_product(sys, a, b))
        rhs = module_inner_product(sys, b, a)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12

    def test_right_linearity_over_subalgebra(self, p2_graded_weighted):
        sys = p2_graded_weighted
        a, b = rng_functions(sys.groupoid, seed=8, count=2)
        g_e = rng_functions(sys.identity_fiber, seed=9, count=1)[0]
        sub_haar = sys.haar
        lhs = module_inner_product(sys, a, module_action(sys, b, g_e))
        rhs = convolve(module_inner_product(sys, a, b), g_e, sub_haar)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12

    def test_positivity_and_definiteness(self, graded_action):
        sys = graded_action
        sub_haar = sys.haar
        for a in rng_functions(sys.groupoid, seed=10, count=10):
            gram = module_inner_product(sys, a, a)
            assert positivity_check(gram, sub_haar)
            assert module_norm(sys, a) > 1e-6  # random elements are far from zero
        assert module_norm(sys, zero(sys.groupoid)) == 0.0


class TestModuleNorm:
    def test_delta_counting(self, p2_graded):
        assert module_norm(p2_graded, delta(p2_graded.groupoid, "(1,2)")) == pytest.approx(1.0, abs=1e-12)

    def test_included_functions_keep_subalgebra_norm(self, graded_action):
        sys = graded_action
        for f in rng_functions(sys.identity_fiber, seed=11, count=10):
            lifted = include_i(f, sys.groupoid)
            assert module_norm(sys, lifted) == pytest.approx(cstar_norm(f, sys.haar), rel=1e-9, abs=1e-12)

    def test_cauchy_schwarz(self, p2_graded_weighted):
        sys = p2_graded_weighted
        for seed in range(12, 17):
            a, b = rng_functions(sys.groupoid, seed=seed, count=2)
            pairing = cstar_norm(module_inner_product(sys, a, b), sys.haar)
            assert pairing <= module_norm(sys, a) * module_norm(sys, b) * (1 + 1e-9)


class TestInducedSpace:
    def test_gram_is_psd_and_cached(self, p2_graded_weighted):
        sys = p2_graded_weighted
        space = induced_space(sys)
        assert space.gram_min_eig >= -1e-9 * (1 + space.gram_eigenvalues[-1])
        assert induced_space(sys) is space

    def test_frame_is_orthonormal(self, graded_action):
        space = induced_space(graded_action)
        gram_on_frame = space.frame.conj().T @ space.gram @ space.frame
        assert np.abs(gram_on_frame - np.eye(space.rank)).max() <= 1e-9

    def test_group_case_dimensions(self, z2_groupoid):
        z2 = cyclic_group(2)
        sys = GradedGroupoid.build(
            z2_groupoid, counting_haar(z2_groupoid), cocycle_from_map(z2_groupoid, z2, {"g0": 0, "g1": 1})
        )
        space = induced_space(sys)
        # identity fiber is the single unit arrow; Gram is the 2x2 identity
        assert space.dim_ambient == 2
        assert space.rank == 2
        assert np.abs(space.gram - np.eye(2)).max() <= 1e-15

    @pytest.mark.parametrize("doc", builtin_corpus(seed=0), ids=lambda d: d.name)
    def test_matches_dense_construction(self, doc):
        sys = doc.system
        space = induced_space(sys)
        rank, eigvals, l_norm = dense_induced_space(sys)
        assert space.rank == rank
        assert space.gram_eigenvalues.shape == eigvals.shape
        assert np.abs(space.gram_eigenvalues - eigvals).max() <= 1e-12 * (1 + eigvals[-1])
        for a in doc.functions.values():
            dense = l_norm(a)
            assert L_operator_norm(sys, a) == pytest.approx(dense, rel=1e-12, abs=1e-300)

    def test_norm_and_verify_paths_leave_dense_views_unbuilt(self, graded_action):
        sys = graded_action
        doc = WorkbenchDocument(name="graded-action", system=sys, functions={}, raw={})
        records = run_document(doc, suite="module", seed=0, count=5)
        assert all(r.status == "pass" for r in records)
        L_operator_norm(sys, rng_functions(sys.groupoid, seed=26, count=1)[0])
        assert "gram" not in induced_space(sys)._cache and "frame" not in induced_space(sys)._cache

    def test_dense_views_match_blocks(self, graded_action):
        space = induced_space(graded_action)
        eigvals = np.linalg.eigvalsh(space.gram)
        assert np.abs(eigvals - space.gram_eigenvalues).max() <= 1e-12 * (1 + eigvals[-1])
        assert space.frame.shape == (space.dim_ambient, space.rank)

    @pytest.mark.parametrize(
        "system",
        [pytest.param(lambda doc=doc: doc.system, id=doc.name) for doc in builtin_corpus(seed=0)]
        + [pytest.param(lambda: trivially_graded_cyclic(6), id="cyclic6-trivial")],
    )
    def test_gram_blocks_are_rank_one(self, system):
        """Each block has one nonzero eigenvalue, the closed form's: within
        4e-16 relative on these systems (numpy 2.4, OpenBLAS), asserted
        within 1e-15 so that another LAPACK build may round differently.
        Keyed by (r(x), c(x), s(h)), six corpus documents and the cyclic
        group had blocks over several products z, of higher rank."""
        space = induced_space(system())
        top_gap, rest = rank_one_defects(space)
        assert top_gap <= 1e-15
        assert rest <= 1e-15
        assert space.rank == space.system.groupoid.n_arrows

    def test_module_suite_memory_with_identity_fiber_everything(self):
        """On cyclic_group(32) under the zero cocycle (one unit, G_e = G)
        the Gram blocks are 32 blocks of 32 rows, and the module suite's
        `tracemalloc` peak stays under 16 MB (about 7 MB; 43 MB with the one
        block of 1,024 rows of the (r(x), c(x), s(h)) key)."""
        doc = WorkbenchDocument(name="cyclic32-trivial", system=trivially_graded_cyclic(32), functions={}, raw={})
        tracemalloc.start()
        try:
            records = run_document(doc, suite="module", seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.status == "pass" for r in records)
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("n, graded", [(10, False), (20, True)])
    def test_scale(self, n, graded):
        # the dense Gram would be 10,000 x 10,000 (1.6 GB complex) for the
        # trivially graded pair on 10 points
        sys = pair_system(n, graded)
        a = rng_functions(sys.groupoid, seed=n, count=1)[0]
        t0 = time.perf_counter()
        ell = L_operator_norm(sys, a)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert ell == pytest.approx(cstar_norm(a, sys.haar), rel=1e-9)


def product_system(n, order, shuffle_seed=None):
    """pair(n) x Z/order graded by i - j in Z, with unequal weights: the
    identity fiber holds the isotropy, so every unit w has n_h = order
    arrows h with s(h) = w, all with r(h) = w.  With a seed the arrows are
    declared in a random order, out of translation order."""
    g = product(pair_groupoid(n), group_groupoid(cyclic_group(order)))
    if shuffle_seed is not None:
        g = shuffled(g, np.random.default_rng(shuffle_seed))
    ends = {a.id: a.id.split("|")[0].strip("()").split(",") for a in g.arrows}
    label = {aid: (int(i) - int(j),) for aid, (i, j) in ends.items()}
    return GradedGroupoid.build(g, weighted(g), cocycle_from_map(g, FreeAbelianGroup(1), label))


def pair14_system():
    from pair_documents import pair_documents

    from groupoid_workbench.document import document_from_dict

    return document_from_dict(pair_documents(14)["pair14-builtin"]).system


UNIT_BLOCK_SYSTEMS = {
    **{doc.name: (lambda doc=doc: doc.system) for doc in builtin_corpus(seed=0)},
    "pair14-builtin": pair14_system,
    "pair6-trivial": lambda: pair_system(6, graded=False),
    "pair4-x-z3": lambda: product_system(4, 3),
    "pair3-x-z4-shuffled": lambda: product_system(3, 4, shuffle_seed=3),
}


@pytest.mark.parametrize("name", UNIT_BLOCK_SYSTEMS)
def test_unit_blocks_are_the_diagonal_blocks_of_the_dense_compression(name):
    """Every unit s(h) has one block, over its own frame columns; it equals
    the oracle's diagonal block there, nothing lies off the blocks, and the
    norms agree, each within 1e-12 relative."""
    sys = UNIT_BLOCK_SYSTEMS[name]()
    space = induced_space(sys)
    (a,) = random_stacks(np.random.default_rng(11), 3, sys.groupoid)
    batches = space.unit_blocks(a)
    units = np.concatenate([units for units, _, _ in batches])
    assert len(set(units.tolist())) == len(units)
    assert sorted(np.concatenate([cols.ravel() for _, cols, _ in batches]).tolist()) == list(range(space.rank))
    norms = L_operator_norm_stack(sys, a)
    for t, f in enumerate(a):
        full, column_unit = reference_operator_blocks(space, f)
        scale = np.abs(full).max()
        off_blocks = full.copy()
        for batch_units, cols, blocks in batches:
            for w, c, block in zip(batch_units, cols, blocks[t]):
                assert (column_unit[c] == w).all()
                assert np.abs(block - full[np.ix_(c, c)]).max() <= 1e-12 * scale
                off_blocks[np.ix_(c, c)] = 0.0
        assert np.abs(off_blocks).max() <= 1e-12 * scale
        assert norms[t] == pytest.approx(operator_norm(full), rel=1e-12)
        assert float(L_operator_norm_stack(sys, f)) == norms[t]


class TestLOperatorNorm:
    def test_zero(self, p2_graded):
        assert L_operator_norm(p2_graded, zero(p2_graded.groupoid)) == 0.0

    def test_isometric_on_included_functions(self, graded_action):
        sys = graded_action
        for f in rng_functions(sys.identity_fiber, seed=20, count=10):
            lifted = include_i(f, sys.groupoid)
            assert L_operator_norm(sys, lifted) == pytest.approx(
                cstar_norm(f, sys.haar), rel=1e-9, abs=1e-12
            )

    def test_bounded_by_i_norm(self, p2_graded_weighted):
        sys = p2_graded_weighted
        for a in rng_functions(sys.groupoid, seed=21, count=10):
            assert L_operator_norm(sys, a) <= i_norm(a, sys.haar) * (1 + 1e-9)

    def test_norm_sandwich(self, graded_action):
        sys = graded_action
        slack = 1 + 1e-9
        for a in rng_functions(sys.groupoid, seed=22, count=20):
            q_norm = cstar_norm(restrict_q(a, sys.identity_fiber), sys.haar)
            m_norm = module_norm(sys, a)
            l_norm = L_operator_norm(sys, a)
            assert q_norm <= m_norm * slack
            assert m_norm <= l_norm * slack
            assert l_norm <= i_norm(a, sys.haar) * slack

    def test_matches_cstar_norm_at_desk_scale(self, p2_graded_weighted, graded_action):
        # the expectation is faithful on a finite groupoid, so left
        # convolution embeds the algebra in the module operators and the
        # embedding is isometric; this pins the Gram construction to an
        # independently computed value
        for sys in (p2_graded_weighted, graded_action):
            for a in rng_functions(sys.groupoid, seed=23, count=10):
                assert L_operator_norm(sys, a) == pytest.approx(cstar_norm(a, sys.haar), rel=1e-9)

    def test_adjoint_identity(self, p2_graded_weighted):
        # <L_a1 (b), L_a2 (d)> = <b, L_{a1^* a2} (d)>
        sys = p2_graded_weighted
        haar = sys.haar
        a1, a2, b, d = rng_functions(sys.groupoid, seed=24, count=4)
        lhs = module_inner_product(sys, convolve(a1, b, haar), convolve(a2, d, haar))
        rhs = module_inner_product(sys, b, convolve(convolve(involute(a1), a2, haar), d, haar))
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12 * (1 + np.abs(lhs.coeffs).max())


class TestExpectation:
    def test_all_ones_restricts_to_diagonal(self, p2_graded):
        sys = p2_graded
        a = from_map(sys.groupoid, {aid: 1.0 for aid in sys.groupoid.arrow_ids})
        assert max_diff(expectation_P(sys, a), {"(1,1)": 1.0, "(2,2)": 1.0}) == 0.0

    def test_idempotent(self, p2_graded_weighted):
        sys = p2_graded_weighted
        for a in rng_functions(sys.groupoid, seed=30, count=5):
            once = expectation_P(sys, a)
            twice = expectation_P(sys, once)
            assert np.abs(once.coeffs - twice.coeffs).max() == 0.0

    def test_bimodule_identity(self, graded_action):
        # P(b^* a c) = b^* P(a) c for b, c supported in the identity fiber
        sys = graded_action
        haar = sys.haar
        a = rng_functions(sys.groupoid, seed=31, count=1)[0]
        b = include_i(rng_functions(sys.identity_fiber, seed=32, count=1)[0], sys.groupoid)
        c = include_i(rng_functions(sys.identity_fiber, seed=33, count=1)[0], sys.groupoid)
        lhs = expectation_P(sys, convolve(convolve(involute(b), a, haar), c, haar))
        rhs = convolve(convolve(involute(b), expectation_P(sys, a), haar), c, haar)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12 * (1 + np.abs(rhs.coeffs).max())

    def test_contractive_and_positive(self, graded_action):
        sys = graded_action
        for a in rng_functions(sys.groupoid, seed=34, count=10):
            assert cstar_norm(expectation_P(sys, a), sys.haar) <= cstar_norm(a, sys.haar) * (1 + 1e-9)
            square = convolve(involute(a), a, sys.haar)
            assert positivity_check(expectation_P(sys, square), sys.haar)


class TestEqRuy:
    def test_single_fiber_delta(self, p2_graded):
        sys = p2_graded
        for a in rng_functions(sys.groupoid, seed=40, count=10):
            assert check_eq_ruy(sys, a, delta(sys.groupoid, "(1,2)"))

    def test_every_fiber_supported_basis_element(self, graded_action):
        sys = graded_action
        a = rng_functions(sys.groupoid, seed=41, count=1)[0]
        for aid in sys.groupoid.arrow_ids:
            assert check_eq_ruy(sys, a, delta(sys.groupoid, aid))

    def test_off_identity_function_with_vanishing_sandwich(self, p2_graded):
        sys = p2_graded
        a = delta(sys.groupoid, "(1,2)")  # P(a) = 0
        b = delta(sys.groupoid, "(2,1)")
        assert eq_ruy_defect(sys, a, b) == 0.0
        rhs = convolve(convolve(involute(b), expectation_P(sys, a), sys.haar), b, sys.haar)
        assert np.abs(rhs.coeffs).max() == 0.0

    def test_two_fiber_support_rejected(self, p2_graded):
        sys = p2_graded
        b = from_map(sys.groupoid, {"(1,2)": 1.0, "(1,1)": 1.0})
        with pytest.raises(ValueError, match="more than one fiber"):
            check_eq_ruy(sys, rng_functions(sys.groupoid, 42, 1)[0], b)

    def test_tolerance_scales_with_both_functions(self):
        # the verdict bound is ALG_TOL * (1 + max|a|) * (1 + max|b|)^2, trial by trial
        a = np.array([[3.0, -4.0j], [0.5, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, -2.0]])
        assert eq_ruy_tolerance(a, b).tolist() == [1e-12 * 5.0 * 4.0, 1e-12 * 1.5 * 9.0]


class TestKernelCheck:
    def test_zero_and_random(self, p2_graded_weighted):
        sys = p2_graded_weighted
        functions = [zero(sys.groupoid)] + rng_functions(sys.groupoid, seed=50, count=5)
        records = kernel_check(sys, functions)
        assert records[0].l_zero and records[0].p_zero and records[0].a_zero
        for rec in records[1:]:
            assert not (rec.l_zero or rec.p_zero or rec.a_zero)
        assert all(rec.consistent for rec in records)

    def test_delta_example(self, p2_graded_weighted):
        sys = p2_graded_weighted
        rec = kernel_check(sys, [delta(sys.groupoid, "(1,2)")])[0]
        # a^* a = rho(1) delta_(2,2) and the unit-arrow delta has norm rho(2)
        assert rec.p_norm == pytest.approx(4.0, rel=1e-12)
        assert rec.consistent and not rec.a_zero

    def test_thresholds_disagree_near_sqrt_tol(self, p2_graded_weighted):
        # ||a|| and ||L_a|| are about 1e-5, above EIG_TOL; ||P(a^* a)|| is
        # about 4e-10, below it: the verdicts disagree and the record says so
        sys = p2_graded_weighted
        rec = kernel_check(sys, [delta(sys.groupoid, "(1,2)", 1e-5)])[0]
        assert (rec.l_zero, rec.p_zero, rec.a_zero, rec.consistent) == (False, True, False, False)

    def test_zero_threshold_is_inclusive(self, p2_graded_weighted, monkeypatch):
        monkeypatch.setattr(hilbert_module, "EIG_TOL", 0.0)
        rec = kernel_check(p2_graded_weighted, [zero(p2_graded_weighted.groupoid)])[0]
        assert rec.l_zero and rec.p_zero and rec.a_zero and rec.consistent
