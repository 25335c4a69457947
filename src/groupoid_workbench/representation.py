"""Regular representations on weighted L2 spaces and the C*-norm.

For a unit u, the space is spanned by the arrows with source u; the measure
assigns x the weight rho(r(x)) (the range-fiber measure pushed forward
through inversion).  In the orthonormalized basis e_x = delta_x / sqrt(w(x)),
left convolution by a acts with entries

    M[x', x] = a(x' x^{-1}) * sqrt(rho(r(x)) * rho(r(x'))),

derived by evaluating the convolution sum on basis deltas.  The C*-norm is
the norm of the direct sum of these blocks over the units; the direct sum
is faithful on a finite groupoid, so full and reduced norms coincide and one
norm is computed (the degenerate full/reduced distinction is noted in
reports, not modelled).

Units of one orbit have unitarily equivalent blocks.  For an arrow z: v -> u,
right translation x -> xz maps G_u onto G_v; it keeps r(x), hence the weight,
and (x' z)(x z)^{-1} = x' x^{-1}, so it conjugates the block at u into the
block at v by a permutation (Renault, *A Groupoid Approach to C*-Algebras*,
LNM 793, ch. II; the inclusion suite checks the same translation as
``fiber-translation-unitaries``).  So the C*-norm is the max over orbits of
the largest singular value of one block per orbit, and a is positive iff
that block is positive semidefinite on every orbit.  :func:`cstar_norm_stack`
and :func:`positivity_stack` evaluate only the block of the first unit of
each orbit (``FiniteGroupoid.orbit_rep_tables``).

The blocks of units with the same number d = |G_u| of arrows are stacked
into one (k, d, d) array.  The groupoid indexes these stacks once
(``FiniteGroupoid.rep_tables``, every unit, and its orbit rows), one helper
evaluates the entry formula on them (whole stacks for :func:`rep_stacks`,
one unit's row for :func:`regular_rep_matrix`), and norms, positivity and
spectra are reductions over the stacks, one batched eigensolve per block
size.  The ``*_stack`` functions evaluate a (T, n) stack of trials the same
way, with the trial axis in front of the unit axis, so one eigensolve per
block size covers every trial of a chunk; the one-function forms pass their
1-D coefficients to the same kernels.  The inclusion suite's fiber checks
(:func:`fiber_block_stacks`) evaluate the entry formula on the included
function i(f) a chunk of trials at a time: every unit's block for the
entries between fibers, and each fiber block on its own arrows, translated
by index gathers, reduced to three numbers per trial;
:func:`decompose_rep_U` and :func:`translate_rep_V` cut the same fiber
blocks out of the block of i(f) at one unit.

Blocks of size 1 and 2 are reduced in closed form: the norm of a 1 x 1
block is |m|, and a Hermitian 2 x 2 matrix [[a, conj(b)], [b, c]] has the
eigenvalues (a + c)/2 +- hypot((a - c)/2, |b|), taken of M^H M (from its
entries, without the product) for the norm and of the Hermitian part for
positivity (:func:`operator_norms`, :func:`lowest_eigenvalues`).  Larger
blocks use a full dense Hermitian eigendecomposition, of M^H M for norms.
Neither is an iteration, so repeated runs give bit-stable reports.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from .algebra import GroupoidFunction, chunked, include_stack, involute
from .grading import GradedGroupoid
from .groupoid import FiniteGroupoid, HaarSystem, ReadOnly, _read_only
from .validation import EIG_TOL


def _square(z: np.ndarray) -> np.ndarray:
    """|z|^2 of complex entries, as the diagonal of a Gram matrix holds it."""
    return z.real**2 + z.imag**2


def _eigenvalue_2x2(a: np.ndarray, c: np.ndarray, b: np.ndarray, sign: float) -> np.ndarray:
    """The larger (sign +1) or smaller (sign -1) eigenvalue of the Hermitian
    matrix [[a, conj(b)], [b, c]]: (a + c)/2 +- hypot((a - c)/2, |b|)."""
    return 0.5 * (a + c) + sign * np.hypot(0.5 * (a - c), np.abs(b))


def operator_norms(matrices: np.ndarray) -> np.ndarray:
    """The largest singular value of every matrix of a stack (..., d, d):
    |m| for d = 1, the square root of the larger eigenvalue of M^H M in
    closed form for d = 2, and by ``eigvalsh`` of M^H M for larger d.  A
    matrix with a non-finite entry has norm NaN and is not eigensolved."""
    if not np.isfinite(matrices).all():
        finite = np.isfinite(matrices).all(axis=(-2, -1))
        return np.where(finite, operator_norms(np.where(finite[..., None, None], matrices, 0.0)), np.nan)
    d = matrices.shape[-1]
    if d == 1:
        return np.sqrt(_square(matrices[..., 0, 0]))
    if d == 2:  # M^H M = [[a, conj(b)], [b, c]], a and c the squared column norms
        columns = _square(matrices).sum(axis=-2)
        b = (matrices[..., 0].conj() * matrices[..., 1]).sum(axis=-1)
        return np.sqrt(_eigenvalue_2x2(columns[..., 0], columns[..., 1], b, 1.0))
    top = np.linalg.eigvalsh(matrices.conj().swapaxes(-1, -2) @ matrices)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def lowest_eigenvalues(hermitian: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of every matrix of a stack (..., d, d) of
    Hermitian matrices, read from the lower triangle as ``eigvalsh`` reads
    it: the real diagonal entry for d = 1, the closed form for d = 2, and
    ``eigvalsh`` for larger d; the entries must be finite."""
    d = hermitian.shape[-1]
    if d == 1:
        return hermitian[..., 0, 0].real
    if d == 2:
        return _eigenvalue_2x2(hermitian[..., 0, 0].real, hermitian[..., 1, 1].real, hermitian[..., 1, 0], -1.0)
    return np.linalg.eigvalsh(hermitian)[..., 0]


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value (:func:`operator_norms`); for a stack of
    matrices, the largest over the stack."""
    m = np.asarray(matrix, dtype=np.complex128)
    return float(operator_norms(m).max()) if m.size else 0.0


def _range_weights(g: FiniteGroupoid, haar: HaarSystem) -> np.ndarray:
    """rho(r(x)) = rho(s(x^{-1})) for every arrow x of g."""
    return haar.weights(g)[g.invert_index]


def _rep_entries(coeffs: np.ndarray, w: np.ndarray, arrows: np.ndarray, products: np.ndarray) -> np.ndarray:
    """The entry formula on rows of a ``rep_tables`` stack, with ``w`` from
    :func:`_range_weights`: coefficients (..., n), ``arrows`` (k, d) and
    ``products`` (k, d, d) give blocks (..., k, d, d)."""
    wx = w[arrows]
    return coeffs.take(products, axis=-1) * np.sqrt(wx[..., :, None] * wx[..., None, :])


def _stacks_of(g: FiniteGroupoid, a: np.ndarray, haar: HaarSystem, tables: tuple) -> list[np.ndarray]:
    """The blocks of the rows of ``tables`` (``g.rep_tables()`` or
    ``g.orbit_rep_tables()``) for every trial of a (..., n) stack, one
    (..., k, d, d) array per block size."""
    w = _range_weights(g, haar)
    return [_rep_entries(a, w, arrows, products) for *_, arrows, products in tables]


def rep_stacks(a: GroupoidFunction, haar: HaarSystem) -> list[np.ndarray]:
    """The regular representation of a as one (k, d, d) stack per block
    size, in the order of ``a.groupoid.rep_tables()``."""
    return _stacks_of(a.groupoid, a.coeffs, haar, a.groupoid.rep_tables())


def _orbit_size(g: FiniteGroupoid) -> int:
    """Entries of the orbit blocks of one function."""
    return sum(products.size for _, products in g.orbit_rep_tables())


def rep_blocks(a: GroupoidFunction, haar: HaarSystem) -> dict[str, np.ndarray]:
    """The regular representation blocks, unit -> matrix in the basis
    ``arrows_with_src(unit)``, in declared unit order (views into the stacks)."""
    blocks = {u: m for (units, _, _), stack in zip(a.groupoid.rep_tables(), rep_stacks(a, haar)) for u, m in zip(units, stack)}
    return {u: blocks[u] for u in a.groupoid.units}


def _rep_matrix_stack(g: FiniteGroupoid, a: np.ndarray, haar: HaarSystem, u: str) -> np.ndarray:
    """The regular representation at u of every trial of a (..., n) stack."""
    if not g.has_unit(u):
        raise ValueError(f"Unknown unit {u!r}.")
    for units, arrows, products in g.rep_tables():
        if u in units:
            k = units.index(u)
            return _rep_entries(a, _range_weights(g, haar), arrows[k], products[k])


def regular_rep_matrix(a: GroupoidFunction, haar: HaarSystem, u: str) -> np.ndarray:
    """Matrix of h -> a * h on the weighted L2 space at u, orthonormalized basis."""
    return _rep_matrix_stack(a.groupoid, a.coeffs, haar, u)


def _norm_of_trials(stacks: list[np.ndarray]) -> np.ndarray:
    """The largest singular value over all blocks of each trial, for (...,
    k, d, d) stacks."""
    return functools.reduce(np.maximum, [operator_norms(stack).max(axis=-1) for stack in stacks])


def cstar_norm_stack(g: FiniteGroupoid, a: np.ndarray, haar: HaarSystem) -> np.ndarray:
    """The C*-norm of every trial of a (..., n) stack: one batched
    eigensolve per block size and chunk, over one block per orbit."""
    return chunked(lambda x: _norm_of_trials(_stacks_of(g, x, haar, g.orbit_rep_tables())), _orbit_size(g), a)


def cstar_norm(a: GroupoidFunction, haar: HaarSystem) -> float:
    """max over orbits of the largest singular value of the regular block."""
    return float(cstar_norm_stack(a.groupoid, a.coeffs, haar))


def positivity_stack(g: FiniteGroupoid, a: np.ndarray, haar: HaarSystem) -> np.ndarray:
    """:func:`positivity_check` for every trial of a (..., n) stack.  A
    trial with a non-finite coefficient is not positive; its blocks are
    zeroed before the eigensolve."""

    def kernel(x: np.ndarray) -> np.ndarray:
        ok = np.isfinite(x).all(axis=-1)
        if not ok.all():
            x = np.where(ok[..., None], x, 0.0)
        stacks = _stacks_of(g, x, haar, g.orbit_rep_tables())
        slack = EIG_TOL * (1.0 + _norm_of_trials(stacks))
        for m in stacks:
            adjoint = m.conj().swapaxes(-1, -2)
            ok &= np.abs(m - adjoint).max(axis=(-3, -2, -1)) <= slack
            if not ok.any():  # no trial left to decide
                break
            ok &= lowest_eigenvalues(0.5 * (m + adjoint)).min(axis=-1) >= -slack
        return ok

    return chunked(kernel, _orbit_size(g), a)


def positivity_check(a: GroupoidFunction, haar: HaarSystem) -> bool:
    """True iff a is positive: blocks Hermitian and spectra >= -EIG_TOL*(1 + ||a||)."""
    return bool(positivity_stack(a.groupoid, a.coeffs, haar))


def spectrum(a: GroupoidFunction, haar: HaarSystem) -> np.ndarray:
    """Sorted real eigenvalues of the regular blocks; requires a self-adjoint."""
    deviation = cstar_norm(a - involute(a), haar)
    if not deviation <= EIG_TOL * (1.0 + cstar_norm(a, haar)):  # NaN fails
        raise ValueError(f"Function is not self-adjoint (deviation {deviation:.3e}).")
    values = [np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2))).ravel() for m in rep_stacks(a, haar)]
    return np.sort(np.concatenate(values))


# -- fiberwise decomposition of the representation of the identity component


class FiberBlockDecomposition(ReadOnly):
    """Fiber blocks of the regular representation of an included function at
    a unit, with the largest entry of the permuted full matrix outside them.
    ``block_order`` lists the element keys with a nonempty fiber at the unit.
    ``blocks`` is a read-only mapping of read-only copies of the blocks
    passed in, and ``permuted_matrix`` a read-only copy."""

    __slots__ = ("unit", "block_order", "blocks", "permuted_matrix", "max_abs_error")

    def __init__(
        self,
        unit: str,
        block_order: tuple[str, ...],
        blocks: Mapping[str, np.ndarray],
        permuted_matrix: np.ndarray,
        max_abs_error: float,
    ) -> None:
        blocks = MappingProxyType({key: _read_only(np.array(block)) for key, block in blocks.items()})
        permuted_matrix = _read_only(np.array(permuted_matrix))
        self._set(unit=unit, block_order=block_order, blocks=blocks, permuted_matrix=permuted_matrix, max_abs_error=max_abs_error)


def _equal_size_groups(key: np.ndarray) -> list[np.ndarray]:
    """Positions grouped by equal (nonnegative) key: one (groups, size) array
    per group size, groups in key order and members in position order."""
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    sizes = np.diff(first, append=len(key))
    return [order[first[sizes == size][:, None] + np.arange(size)] for size in np.unique(sizes)]


def _cross_fiber_max(fiber: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The largest entry of (..., d, d) blocks whose basis arrows, of fiber
    numbers (..., d), lie in different fibers."""
    cross = fiber[..., :, None] != fiber[..., None, :]
    return np.abs(np.where(cross, blocks, 0.0)).max(axis=(-2, -1))


def fiber_block_stacks(sys: GradedGroupoid, f: np.ndarray) -> np.ndarray:
    """:func:`decompose_rep_U` and :func:`translate_rep_V` (default z) at
    every unit and fiber, for a (T, n_e) stack f of identity-fiber functions,
    reduced to a (T, 3) array: per trial, the largest cross-fiber entry of
    the blocks of i(f), the largest operator norm of a fiber block, and the
    largest deviation of a translated fiber block from the identity-fiber
    block at r(z).  The arrows of one source and fiber form a segment;
    segments are grouped by size L into (S, L) arrays in (unit, fiber)
    order, whose products, translation gathers and target tables are built
    once.  The trials are taken in chunks (:func:`chunked`), so no (T, S, L,
    L) block stack outlives its chunk."""
    g, sub, haar, fiber = sys.groupoid, sys.identity_fiber, sys.haar, sys.fiber_index
    w, w_sub, tables = _range_weights(g, haar), _range_weights(sub, haar), g.rep_tables()
    key = g.src_index * len(sys.fiber_keys) + fiber
    # the identity-fiber tables, by block size, with their units
    targets = {a.shape[1]: (units, a, products) for units, a, products in sub.rep_tables()}
    position = np.empty(g.n_arrows, dtype=np.intp)  # of every arrow in its segment
    identity, segments = sys.fiber_number(sys.group.identity), []
    for seg in _equal_size_groups(key):
        position[seg] = np.arange(seg.shape[1])
        first = seg[:, 0]
        z = np.where(fiber[first] == identity, g.unit_arrow_index[g.src_index[first]], first)
        # the identity-fiber arrows with source r(z): the segment keyed (r(z), e), of size L
        codomain = seg[np.searchsorted(key[first], key[g.unit_arrow_index[g.dst_index[z]]])]
        shift = position[g.compose_index(codomain, z[:, None])]
        units, arrows, products = targets[seg.shape[1]]
        at = [units.index(g.units[v]) for v in g.dst_index[z]]
        translation = (np.arange(len(seg))[:, None, None], shift[:, :, None], shift[:, None, :])
        segments.append((seg, g.compose_index(seg[:, :, None], g.invert_index[seg][:, None, :]), translation, arrows[at], products[at]))

    def kernel(x: np.ndarray) -> np.ndarray:
        lifted = include_stack(sub, x, g)
        cross = [_cross_fiber_max(fiber[a], m).max(axis=-1) for (_, a, _), m in zip(tables, _stacks_of(g, lifted, haar, tables))]
        norms, moved = [], []
        for seg, products, translation, arrows, target in segments:
            blocks = _rep_entries(lifted, w, seg, products)
            norms.append(operator_norms(blocks).max(axis=-1))
            deviation = blocks[(..., *translation)] - _rep_entries(x, w_sub, arrows, target)
            moved.append(np.abs(deviation).max(axis=(-3, -2, -1)))
        return np.stack([functools.reduce(np.maximum, r) for r in (cross, norms, moved)], axis=-1)

    return chunked(kernel, sum(products.size for *_, products in tables), f)


def _included_block(sys: GradedGroupoid, a_e: GroupoidFunction, u: str) -> tuple[np.ndarray, np.ndarray]:
    """The block at u of the included function i(a_e), and the fiber number
    of each of its basis arrows ``arrows_with_src(u)``."""
    if a_e.groupoid is not sys.identity_fiber:
        raise ValueError("Function must live on the identity-fiber subgroupoid.")
    g = sys.groupoid
    block = _rep_matrix_stack(g, include_stack(a_e.groupoid, a_e.coeffs, g), sys.haar, u)
    return block, sys.fiber_index[g.src_index == g.units.index(u)]


def decompose_rep_U(sys: GradedGroupoid, a_e: GroupoidFunction, u: str) -> FiberBlockDecomposition:
    """Sort the basis at u into fiber blocks, the diagonal blocks of the
    permuted representation of the included function.  Empty fibers
    contribute no block; the fiber subspaces partition the space, so the
    permuted matrix must be exactly their direct sum: the reported deviation
    is its largest entry between two fibers."""
    full, fiber = _included_block(sys, a_e, u)
    perm = np.argsort(fiber, kind="stable")
    permuted = full[perm[:, None], perm[None, :]]
    blocks = {sys.fiber_keys[k]: full[np.ix_(fiber == k, fiber == k)] for k in np.unique(fiber)}
    return FiberBlockDecomposition(u, tuple(blocks), blocks, permuted, float(_cross_fiber_max(fiber, full)))


class TranslationWitness(ReadOnly):
    """Conjugation of a fiber block to the identity-fiber representation at
    the range of the chosen translating arrow; the four matrices are held as
    read-only copies."""

    __slots__ = (
        "source_unit", "target_unit", "gamma_key", "z_arrow", "v_matrix", "fiber_block", "translated", "target_block", "max_abs_error"
    )

    def __init__(
        self,
        source_unit: str,
        target_unit: str,
        gamma_key: str,
        z_arrow: str,
        v_matrix: np.ndarray,
        fiber_block: np.ndarray,
        translated: np.ndarray,
        target_block: np.ndarray,
        max_abs_error: float,
    ) -> None:
        self._set(
            source_unit=source_unit,
            target_unit=target_unit,
            gamma_key=gamma_key,
            z_arrow=z_arrow,
            v_matrix=_read_only(np.array(v_matrix)),
            fiber_block=_read_only(np.array(fiber_block)),
            translated=_read_only(np.array(translated)),
            target_block=_read_only(np.array(target_block)),
            max_abs_error=max_abs_error,
        )


def _translation(sys: GradedGroupoid, u: str, gamma: Any, z_arrow: str | None) -> tuple[str, str, str, np.ndarray]:
    """The element key of gamma, the translating arrow z, its range v and
    the permutation matrix of x -> x.z from the gamma-fiber arrows at u
    (declared order) onto the identity-fiber arrows at v.

    z defaults to the unit arrow when gamma is the identity, else to the first
    arrow of the fiber in declared order; any member of the fiber may be
    passed explicitly.
    """
    g, grp = sys.groupoid, sys.group
    gamma = grp.canonical(gamma)
    gamma_key = grp.element_key(gamma)
    unit = g.units.index(u)
    domain = np.flatnonzero((g.src_index == unit) & sys.fiber_mask(gamma))
    if not len(domain):
        raise ValueError(f"Fiber over {gamma_key} has no arrows with source {u!r}.")
    if z_arrow is None:
        z = g.unit_arrow_index[unit] if gamma == grp.identity else domain[0]
    else:
        z = g.index(z_arrow) if g.has_arrow(z_arrow) else -1
        if z not in domain:
            raise ValueError(f"Arrow {z_arrow!r} is not in the {gamma_key}-fiber at {u!r}.")
    codomain = np.flatnonzero((g.src_index == g.dst_index[z]) & sys.identity_mask)
    if len(codomain) != len(domain):
        raise ValueError("Translation is not bijective; groupoid or grading invalid.")
    vmat = (g.compose_index(codomain, z)[:, None] == domain).astype(float)
    if not vmat.any(axis=1).all():
        raise ValueError("Translation leaves the fiber; groupoid or grading invalid.")
    return gamma_key, g.arrow_ids[z], g.units[g.dst_index[z]], vmat


def translate_rep_V(
    sys: GradedGroupoid,
    a_e: GroupoidFunction,
    u: str,
    gamma: Any,
    z_arrow: str | None = None,
) -> TranslationWitness:
    """Conjugate the gamma-fiber block at u by right translation x -> x.z
    (see :func:`_translation` for the choice of z).  In the orthonormalized
    bases the translation is a permutation matrix, hence exactly unitary."""
    gamma_key, z, v, vmat = _translation(sys, u, gamma, z_arrow)
    full, fiber = _included_block(sys, a_e, u)
    at = np.flatnonzero(fiber == sys.fiber_number(gamma))
    block = full[at[:, None], at[None, :]]
    target = _rep_matrix_stack(sys.identity_fiber, a_e.coeffs, sys.haar, v)  # on the identity-fiber subgroupoid
    translated = vmat @ block @ vmat.conj().T
    return TranslationWitness(u, v, gamma_key, z, vmat, block, translated, target, float(np.abs(translated - target).max()))
