"""The inner-product module over the identity-fiber algebra.

The whole convolution algebra becomes a right module over the identity-fiber
subalgebra: the action is a . g = a * i(g) and the algebra-valued inner
product is

    <a, b> = sum over gamma of (a_gamma)^* * b_gamma, restricted to G_e,

which is conjugate-symmetric, right-linear, and positive definite.  It is
computed with one convolution, as (a^* * b) restricted to G_e: the cross term
(a_gamma)^* * b_beta lives on the fiber over gamma^{-1} beta, which is G_e
only when gamma = beta, so restriction drops exactly the cross terms.  Left
convolution L_a is an adjointable module operator; its operator norm is
computed concretely by inducing through the faithful identity-fiber
representation: form the Gram matrix of the elementary tensors
(delta_x (x) basis vector), quotient the null directions, and express L_a on
the surviving orthonormal frame.  The Gram matrix is block-diagonal over the
products z = xh, so each block is eigendecomposed on its own.  The frame
columns of a unit w = s(h) vanish off w's own rows (those with s(h) = w),
and L_a keeps h, so the compression is block-diagonal over the units and
each unit's block is formed on its own rows only.  At this scale completion
is trivial and the null-space quotient is the only degeneracy to handle, so a deterministic
relative eigenvalue cutoff keeps reports stable.  Inducing the regular
representation of G_e up to G gives a multiple of the regular representation
of G, so ||L_a|| equals the C*-norm of a; the verify suites assert this
against the independently computed C*-norm.

The conditional expectation P = include after restrict projects onto the
identity-fiber subalgebra; the fiberwise identity linking it to the module
structure and the kernel characterization of L both live here.  Against
deltas the identity is evaluated by gathers, since convolution with a delta
is a weighted permutation (:func:`eq_ruy_delta_defect_stack`).

Every operation also takes a (T, n) stack of trials (the ``*_stack``
functions, ``InducedSpace.operator_norms``, :func:`kernel_verdicts`), and
the one-function forms pass their 1-D coefficients to the same kernels.
The induced operator takes its trials in chunks, so that its per-unit
gathers, images and blocks stay within ``algebra.TRIAL_CHUNK_ENTRIES``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .algebra import (
    GroupoidFunction,
    chunked,
    convolve_stack,
    include_stack,
    involute_stack,
    restrict_stack,
)
from .grading import GradedGroupoid
from .groupoid import _read_only, once, once_property
from .representation import _equal_size_groups, _norm_of_trials, _range_weights, cstar_norm_stack
from .validation import ALG_TOL, EIG_TOL, NULL_THRESHOLD, ReadOnly


def _on(sys: GradedGroupoid, *functions: GroupoidFunction) -> list[np.ndarray]:
    """The coefficients of functions on the graded groupoid."""
    if any(f.groupoid is not sys.groupoid for f in functions):
        raise ValueError("Function does not live on the graded groupoid.")
    return [f.coeffs for f in functions]


def action_stack(sys: GradedGroupoid, a: np.ndarray, g_e: np.ndarray) -> np.ndarray:
    """a . g = a * i(g) for stacks on G and on the identity fiber."""
    return convolve_stack(sys.groupoid, a, include_stack(sys.identity_fiber, g_e, sys.groupoid), sys.haar)


def module_action(sys: GradedGroupoid, a: GroupoidFunction, g_e: GroupoidFunction) -> GroupoidFunction:
    """a . g = a * i(g)."""
    if a.groupoid is not sys.groupoid or g_e.groupoid is not sys.identity_fiber:
        raise ValueError("module_action expects (function on G, function on the identity fiber).")
    return GroupoidFunction(sys.groupoid, action_stack(sys, a.coeffs, g_e.coeffs))


def inner_product_stack(sys: GradedGroupoid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> = (a^* * b) restricted to G_e, trial by trial."""
    g = sys.groupoid
    return restrict_stack(g, convolve_stack(g, involute_stack(g, a), b, sys.haar), sys.identity_fiber)


def module_inner_product(sys: GradedGroupoid, a: GroupoidFunction, b: GroupoidFunction) -> GroupoidFunction:
    """<a, b> = (a^* * b) restricted to G_e, as a function on G_e."""
    return GroupoidFunction(sys.identity_fiber, inner_product_stack(sys, *_on(sys, a, b)))


def module_norm_stack(sys: GradedGroupoid, a: np.ndarray) -> np.ndarray:
    """||a|| = sqrt of the identity-fiber C*-norm of <a, a>, trial by trial."""
    return np.sqrt(cstar_norm_stack(sys.identity_fiber, inner_product_stack(sys, a, a), sys.haar))


def module_norm(sys: GradedGroupoid, a: GroupoidFunction) -> float:
    """||a|| = sqrt of the identity-fiber C*-norm of <a, a>."""
    return float(module_norm_stack(sys, *_on(sys, a)))


def expectation_stack(sys: GradedGroupoid, a: np.ndarray) -> np.ndarray:
    """P(a) trial by trial: keep the coefficients on G_e, zero elsewhere."""
    return include_stack(sys.identity_fiber, restrict_stack(sys.groupoid, a, sys.identity_fiber), sys.groupoid)


def expectation_P(sys: GradedGroupoid, a: GroupoidFunction) -> GroupoidFunction:
    """Conditional expectation onto the identity-fiber subalgebra: keep the
    coefficients on G_e, zero elsewhere."""
    return GroupoidFunction(sys.groupoid, expectation_stack(sys, *_on(sys, a)))


class InducedSpace(ReadOnly):
    """Orthonormal frame for the module tensored with the identity-fiber
    regular representation.

    Basis of the ambient coefficient space: delta_x (x) h for x over the
    groupoid arrows and h over the identity-fiber arrows (flat index
    x * dim_H + h).  The Gram entry between (x, h) and (y, h') is
    rho(r(x)) sqrt(rho(r(h)) rho(r(h'))) when h h'^{-1} = x^{-1} y, and zero
    otherwise.  Two consequences are used:

    * rows with r(h) != s(x) vanish, so only the support pairs with
      r(h) = s(x) are kept (the dropped rows count as exact zero eigenvalues);
    * h h'^{-1} = x^{-1} y holds exactly when xh = yh', so the Gram is
      block-diagonal over the products z = xh.  A block's rows are the
      (z h^{-1}, h) over the h of G_e with s(h) = s(z), and every entry of
      it is nonzero: the block is rho(r(z)) v v^T with v_h = sqrt(rho(r(h))),
      of rank one.

    Each block is eigendecomposed on its own; eigendirections below
    ``NULL_THRESHOLD`` times the top eigenvalue of the whole Gram are
    discarded, and left convolution is compressed onto the surviving frame,
    where its largest singular value is the module operator norm.

    The frame columns F_w of a unit w come from the blocks with s(h) = w,
    so they vanish off w's support rows (h, x) with s(h) = w.  Left
    convolution acts on x and keeps h, so it maps F_w into those rows, and
    the compression is block-diagonal over w, with blocks F_w^H G_w L_a F_w.
    The rows of w are the n_h arrows h of G_e with s(h) = w, each with the
    n_x = |G_w| arrows x with s(x) = r(h) (r(h) lies in the orbit of w),
    and on them L_a is, per h, the n_x x n_x matrix a(x' x^{-1}) rho(r(x)).
    Units with equal (n_h, n_x, c), c their number of frame columns, form
    one batch: one gather, one matmul over x per h and one over the n_h n_x
    rows.  Every unit keeps its block, so the L norm stays independent of
    the one-block-per-orbit C*-norm it is checked against.  The dense
    ambient ``gram`` and ``frame`` are assembled only when read; the Gram
    spectrum ``gram_eigenvalues`` is a read-only array.
    """

    __slots__ = ("system", "dim_ambient", "rank", "gram_eigenvalues", "gram_min_eig")
    __slots__ += ("_first_row", "_support", "_blocks", "_batches", "_per_trial", "_cache")

    def __init__(self, sys: GradedGroupoid) -> None:
        g = sys.groupoid
        sub = sys.identity_fiber
        dim_ambient = g.n_arrows * sub.n_arrows
        rho_r = _range_weights(g, sys.haar)

        # Support pairs, ordered by (s(h), r(h), h, x): the rows of a unit w
        # are the run first_row[w] onward, n_h runs of n_x arrows x each
        n_h = np.bincount(sub.src_index, minlength=g.n_units)
        n_x = np.bincount(g.src_index, minlength=g.n_units)
        first_row = np.cumsum(n_h * n_x) - n_h * n_x
        xs, hs = np.nonzero(g.src_index[:, None] == sub.dst_index[None, :])
        order = np.lexsort((xs, hs, sub.dst_index[hs], sub.src_index[hs]))
        xs, hs = xs[order], hs[order]
        support = xs * sub.n_arrows + hs

        # Gram blocks, batched by size: members[b] lists the support rows of
        # block b, those with one product z = xh, and the entry test compares
        # x^{-1} y with h h'^{-1} in G
        invert, sub_invert, embedding = g.invert_index, sub.invert_index, sub.embedding(g)
        key = g.compose_index(xs, embedding[hs])
        sqrt_rho_h = np.sqrt(_range_weights(sub, sys.haar))
        blocks = []  # (support rows, Gram) per batch of equal-size blocks
        solved = []
        for members in _equal_size_groups(key):
            x, h = xs[members], hs[members]
            x_inv_y = g.compose_index(invert[x][:, :, None], x[:, None, :])
            h_h_inv = embedding[sub.compose_index(h[:, :, None], sub_invert[h][:, None, :])]
            scale = sqrt_rho_h[h][:, :, None] * sqrt_rho_h[h][:, None, :] * rho_r[x][:, :, None]
            gram = (x_inv_y == h_h_inv) * scale
            blocks.append((members, gram))
            solved.append((members, *np.linalg.eigh(gram)))

        spectra = [eigvals.ravel() for _, eigvals, _ in solved] + [np.zeros(dim_ambient - len(support))]
        gram_eigenvalues = _read_only(np.sort(np.concatenate(spectra)))
        cutoff = NULL_THRESHOLD * float(gram_eigenvalues[-1])
        kept = []
        for members, eigvals, eigvecs in solved:
            b, j = np.nonzero(eigvals > cutoff)
            kept.append((members[b], eigvecs[b, :, j], eigvals[b, j]))

        # frame columns, numbered unit by unit (the unit s(h) of their
        # block), in kept order within a unit
        column_unit = np.concatenate([sub.src_index[hs[rows[:, 0]]] for rows, _, _ in kept])
        by_unit = np.argsort(column_unit, kind="stable")
        values = np.concatenate([v for _, _, v in kept])[by_unit]
        n_c = np.bincount(column_unit, minlength=g.n_units)
        first_col = np.cumsum(n_c) - n_c

        # F_w of every unit w: its (n_h n_x, c) block of the frame, row-major,
        # at offset[w] of one flat array
        sizes = n_h * n_x * n_c
        offset = np.cumsum(sizes) - sizes
        flat = np.zeros(sizes.sum())
        unit_of = np.repeat(np.arange(g.n_units), n_c)
        numbers = np.split(np.argsort(by_unit), np.cumsum([len(v) for _, _, v in kept])[:-1])
        for (rows, vectors, eigvals), cols in zip(kept, numbers):  # columns v / sqrt(lambda)
            w = unit_of[cols][:, None]
            flat[offset[w] + (rows - first_row[w]) * n_c[w] + cols[:, None] - first_col[w]] = vectors / np.sqrt(eigvals)[:, None]

        # per batch of units with equal (n_h, n_x, c): the units, their frame
        # columns, the gather index of x' x^{-1} with the weights rho(r(x)),
        # F_w and F_w^H G_w (since G v = lambda v, F^H G = lambda F^H)
        batches = []
        per_trial = 0
        shape = np.stack([n_h, n_x, n_c], axis=1)
        for nh, nx, c in sorted(set(map(tuple, shape[n_c > 0].tolist()))):
            units = np.flatnonzero((shape == (nh, nx, c)).all(axis=1))
            cols = first_col[units][:, None] + np.arange(c)
            frame = flat[offset[units][:, None] + np.arange(nh * nx * c)].reshape(-1, nh, nx, c)
            frame_gram = np.ascontiguousarray((frame.reshape(-1, nh * nx, c) * values[cols][:, None, :]).swapaxes(1, 2))
            x = xs[first_row[units][:, None] + np.arange(nh * nx)].reshape(-1, nh, nx)
            index = g.compose_index(x[..., :, None], invert[x][..., None, :])  # s(x') = s(x) = r(h): all defined
            batches.append((units, cols, index, rho_r[x][..., None, :], frame, frame_gram))
            per_trial += index.size + frame.size + len(units) * c * c
        self._set(
            system=sys, dim_ambient=dim_ambient, rank=len(values), gram_eigenvalues=gram_eigenvalues, gram_min_eig=float(gram_eigenvalues[0]),
            _first_row=first_row, _support=support, _blocks=blocks, _batches=batches, _per_trial=per_trial, _cache={},  # by once(): gram, frame
        )

    @once_property
    def gram(self) -> np.ndarray:
        """The dense ambient Gram matrix, assembled from its blocks."""
        gram = np.zeros((self.dim_ambient, self.dim_ambient))
        for members, block in self._blocks:
            rows = self._support[members]
            gram[rows[:, :, None], rows[:, None, :]] = block
        return gram

    @once_property
    def frame(self) -> np.ndarray:
        """The orthonormal frame as ambient vectors (zero off the support),
        assembled from every unit's F_w."""
        frame = np.zeros((self.dim_ambient, self.rank))
        for units, cols, _, _, f_w, _ in self._batches:
            rows = self._support[self._first_row[units][:, None] + np.arange(f_w.shape[1] * f_w.shape[2])]
            frame[rows[:, :, None], cols[:, None, :]] = f_w.reshape(rows.shape + cols.shape[-1:])
        return frame

    def unit_blocks(self, a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The diagonal blocks of the compression of left convolution by
        every trial of a (..., n) stack, one per unit s(h); everything off
        them is zero.  Per batch of units: the units (k,), their frame
        columns (k, c) and the blocks (..., k, c, c)."""
        out = []
        for units, cols, index, weight, frame, frame_gram in self._batches:
            image = (a.take(index, axis=-1) * weight) @ frame  # (..., k, n_h, n_x, c)
            rows = image.reshape(*image.shape[:-3], frame_gram.shape[-1], image.shape[-1])
            out.append((units, cols, frame_gram @ rows))
        return out

    def operator_norms(self, a: np.ndarray) -> np.ndarray:
        """The operator norm of left convolution by every trial of a (..., n)
        stack, one batched eigensolve per block size and chunk."""

        def norms(x: np.ndarray) -> np.ndarray:
            by_size: dict[int, list[np.ndarray]] = {}
            for _, cols, blocks in self.unit_blocks(x):
                by_size.setdefault(cols.shape[-1], []).append(blocks)
            return _norm_of_trials([np.concatenate(s, axis=-3) if len(s) > 1 else s[0] for s in by_size.values()])

        return chunked(norms, self._per_trial, a)


def induced_space(sys: GradedGroupoid) -> InducedSpace:
    """The induced space of a graded system, built once in its cache."""
    return once(sys._cache, "induced_space", InducedSpace, sys)


def L_operator_norm_stack(sys: GradedGroupoid, a: np.ndarray) -> np.ndarray:
    """Module operator norm of left convolution by every trial of a (..., n) stack."""
    return induced_space(sys).operator_norms(a)


def L_operator_norm(sys: GradedGroupoid, a: GroupoidFunction) -> float:
    """Module operator norm of left convolution by a."""
    return float(L_operator_norm_stack(sys, *_on(sys, a)))


def _single_fiber_support(sys: GradedGroupoid, b: np.ndarray) -> None:
    """Raise unless every trial of a (T, n) stack lives in one fiber."""
    nonzero = b != 0
    lowest = np.where(nonzero, sys.fiber_index, len(sys.fiber_keys)).min(axis=1)
    spread = np.flatnonzero(np.where(nonzero, sys.fiber_index, -1).max(axis=1) > lowest)
    if len(spread):
        support = np.flatnonzero(b[spread[0]])
        keys: dict[str, list[str]] = {}
        for i in support:
            keys.setdefault(sys.fiber_keys[sys.fiber_index[i]], []).append(sys.groupoid.arrow_ids[i])
        detail = "; ".join(f"{k}: {ids[:2]}" for k, ids in sorted(keys.items()))
        raise ValueError(f"Function is supported in more than one fiber ({detail}).")


def eq_ruy_defect_stack(sys: GradedGroupoid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max coefficient deviation between i(<b, a*b>) and b^* P(a) b, trial
    by trial, for stacks whose every b is single-fiber-supported."""
    _single_fiber_support(sys, b)
    g = sys.groupoid
    haar = sys.haar
    lhs = include_stack(sys.identity_fiber, inner_product_stack(sys, b, convolve_stack(g, a, b, haar)), g)
    rhs = convolve_stack(g, convolve_stack(g, involute_stack(g, b), expectation_stack(sys, a), haar), b, haar)
    return np.abs(lhs - rhs).max(axis=1)


def eq_ruy_delta_defect_stack(sys: GradedGroupoid, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`eq_ruy_defect_stack` of trials a (T, n) against the deltas at v (R,), as (T, R), by
    gathers: (a * delta_v)(x) = a(x v^{-1}) w(x v^{-1}) where s(x) = s(v), and (delta_v^* * h)(x)
    = h(v x) w(v^{-1}) where r(x) = s(v), else entry 0 times 0.  Each is the one nonzero term of its
    convolution bin, with the delta's factor 1 left out, so only the sign of a zero can differ.
    The (R, n) tables are built once for every chunk of trials (:func:`chunked`)."""
    g, sub = sys.groupoid, sys.identity_fiber
    every, inv, w = np.arange(g.n_arrows), g.invert_index, sys.haar.weights(g)
    right, left = g.compose_index(every, inv[v][:, None]), g.compose_index(v[:, None], every)  # x v^{-1} and v x, at [row, x]
    w_right, w_left = np.where(right >= 0, w[right], 0.0), np.where(left >= 0, w[inv[v]][:, None], 0.0)
    right, left = np.clip(right, 0, None)[None], np.clip(left, 0, None)[None]

    def gather(h: np.ndarray, index: np.ndarray, weight: np.ndarray) -> np.ndarray:
        return np.take_along_axis(h, index, axis=-1) * weight  # h is (T, 1, n) or (T, R, n)

    def defects(a: np.ndarray) -> np.ndarray:
        lhs = include_stack(sub, restrict_stack(g, gather(gather(a[:, None], right, w_right), left, w_left), sub), g)
        rhs = gather(gather(expectation_stack(sys, a[:, None]), left, w_left), right, w_right)
        return np.abs(lhs - rhs).max(axis=-1)

    return chunked(defects, len(v) * g.n_arrows, a)


def eq_ruy_tolerance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The bound ``ALG_TOL * (1 + max|a|) * (1 + max|b|)^2`` on the defect, trial by trial."""
    return ALG_TOL * ((1.0 + np.abs(a).max(axis=1)) * (1.0 + np.abs(b).max(axis=1)) ** 2)


def eq_ruy_defect(sys: GradedGroupoid, a: GroupoidFunction, b: GroupoidFunction) -> float:
    """Max coefficient deviation between i(<b, a*b>) and b^* P(a) b for a
    single-fiber-supported b."""
    return float(eq_ruy_defect_stack(sys, *(x[None] for x in _on(sys, a, b)))[0])


def check_eq_ruy(sys: GradedGroupoid, a: GroupoidFunction, b: GroupoidFunction) -> bool:
    """True iff i(<b, a*b>) equals b^* P(a) b within :func:`eq_ruy_tolerance`."""
    a_, b_ = (x[None] for x in _on(sys, a, b))
    return bool(eq_ruy_defect_stack(sys, a_, b_)[0] <= eq_ruy_tolerance(a_, b_)[0])


class KernelCheckRecord(NamedTuple):
    """Norm triple for one function: left-convolution operator, expectation
    of the star-square, and the C*-norm, with their zero-verdicts and
    whether the verdicts agree."""

    l_norm: float
    p_norm: float
    a_norm: float
    l_zero: bool
    p_zero: bool
    a_zero: bool
    consistent: bool


def kernel_verdicts(sys: GradedGroupoid, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every trial of a (T, n) stack: the norm triple (||L_a||,
    ||P(a^* a)||, ||a||) as a (3, T) array, its zero verdicts
    ``norm <= EIG_TOL`` and whether the three verdicts agree."""
    g = sys.groupoid
    star_square = convolve_stack(g, involute_stack(g, a), a, sys.haar)
    norms = np.array([
        L_operator_norm_stack(sys, a),
        cstar_norm_stack(g, expectation_stack(sys, star_square), sys.haar),
        cstar_norm_stack(g, a, sys.haar),
    ])
    zeros = norms <= EIG_TOL
    return norms, zeros, (zeros == zeros[0]).all(axis=0)


def kernel_check(sys: GradedGroupoid, functions: Sequence[GroupoidFunction]) -> list[KernelCheckRecord]:
    """For each function, test the three-way equivalence

        L_a = 0  <=>  P(a^* a) = 0  <=>  a = 0

    with absolute zero-thresholds ``EIG_TOL``.  P(a^* a) scales quadratically
    in a, so the thresholds agree only away from norms near sqrt(EIG_TOL); feed
    order-one functions (or exact zeros), as the verification suites do.
    """
    stack = np.array(_on(sys, *functions), dtype=np.complex128).reshape(len(functions), sys.groupoid.n_arrows)
    norms, zeros, consistent = kernel_verdicts(sys, stack)
    return [
        KernelCheckRecord(*n, *z, c)
        for n, z, c in zip(norms.T.tolist(), zeros.T.tolist(), consistent.tolist())
    ]
