"""Regular representations on weighted L2 spaces and the C*-norm.

For a unit u, the space is spanned by the arrows with source u; the measure
assigns x the weight rho(r(x)) (the range-fiber measure pushed forward
through inversion).  In the orthonormalized basis e_x = delta_x / sqrt(w(x)),
left convolution by a acts with entries

    M[x', x] = a(x' x^{-1}) * sqrt(rho(r(x)) * rho(r(x'))),

derived by evaluating the convolution sum on basis deltas.  The C*-norm is
the max over units of the largest singular value; the direct sum of these
blocks is faithful on a finite groupoid, so full and reduced norms coincide
and one norm is computed (the degenerate full/reduced distinction is noted in
reports, not modelled).

The blocks of units with the same number d = |G_u| of arrows are stacked
into one (k, d, d) array.  The groupoid indexes these stacks once
(``FiniteGroupoid.rep_tables``), one helper evaluates the entry formula on
them (whole stacks for :func:`rep_stacks`, one unit's row for
:func:`regular_rep_matrix`), and norms, positivity and spectra are
reductions over the stacks, one batched eigensolve per block size.

Operator norms use a full dense Hermitian eigendecomposition of M^H M, never
power iteration, so repeated runs give bit-stable reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .algebra import GroupoidFunction, include_i, involute
from .grading import GradedGroupoid
from .groupoid import HaarSystem


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value via the eigendecomposition of M^H M; for a
    stack of matrices, the largest over the stack."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)
    return float(np.sqrt(max(float(eigs[..., -1].max()), 0.0)))


def _range_weights(a: GroupoidFunction, haar: HaarSystem) -> np.ndarray:
    """rho(r(x)) = rho(s(x^{-1})) for every arrow x of a's groupoid."""
    g = a.groupoid
    return haar.weights(g)[g.invert_index]


def _rep_entries(a: GroupoidFunction, w: np.ndarray, arrows: np.ndarray, products: np.ndarray) -> np.ndarray:
    """The entry formula on rows of a ``rep_tables`` stack, with ``w`` from
    :func:`_range_weights`: ``arrows`` (..., d) and ``products`` (..., d, d)
    give blocks (..., d, d)."""
    wx = w[arrows]
    return a.coeffs[products] * np.sqrt(wx[..., :, None] * wx[..., None, :])


def rep_stacks(a: GroupoidFunction, haar: HaarSystem) -> list[np.ndarray]:
    """The regular representation of a as one (k, d, d) stack per block
    size, in the order of ``a.groupoid.rep_tables()``."""
    w = _range_weights(a, haar)
    return [_rep_entries(a, w, arrows, products) for _, arrows, products in a.groupoid.rep_tables()]


def rep_blocks(a: GroupoidFunction, haar: HaarSystem) -> dict[str, np.ndarray]:
    """The regular representation blocks, unit -> matrix in the basis
    ``arrows_with_src(unit)``, in declared unit order (views into the stacks)."""
    blocks: dict[str, np.ndarray] = {}
    for (units, _, _), stack in zip(a.groupoid.rep_tables(), rep_stacks(a, haar)):
        blocks.update(zip(units, stack))
    return {u: blocks[u] for u in a.groupoid.units}


def regular_rep_matrix(a: GroupoidFunction, haar: HaarSystem, u: str) -> np.ndarray:
    """Matrix of h -> a * h on the weighted L2 space at u, orthonormalized basis."""
    if not a.groupoid.has_unit(u):
        raise ValueError(f"Unknown unit {u!r}.")
    for units, arrows, products in a.groupoid.rep_tables():
        if u in units:
            k = units.index(u)
            return _rep_entries(a, _range_weights(a, haar), arrows[k], products[k])


def cstar_norm(a: GroupoidFunction, haar: HaarSystem) -> float:
    """max over units of the largest singular value of the regular block."""
    return max(operator_norm(stack) for stack in rep_stacks(a, haar))


def positivity_check(a: GroupoidFunction, haar: HaarSystem, tol: float = 1e-9) -> bool:
    """True iff a is positive: blocks Hermitian and spectra >= -tol*(1 + ||a||)."""
    stacks = rep_stacks(a, haar)
    slack = tol * (1.0 + max(operator_norm(m) for m in stacks))
    for m in stacks:
        adjoint = m.conj().swapaxes(-1, -2)
        if np.abs(m - adjoint).max() > slack:
            return False
        if float(np.linalg.eigvalsh(0.5 * (m + adjoint))[:, 0].min()) < -slack:
            return False
    return True


def spectrum(a: GroupoidFunction, haar: HaarSystem, tol: float = 1e-9) -> np.ndarray:
    """Sorted real eigenvalues of the regular blocks; requires a self-adjoint."""
    deviation = cstar_norm(a - involute(a), haar)
    if deviation > tol * (1.0 + cstar_norm(a, haar)):
        raise ValueError(f"Function is not self-adjoint (deviation {deviation:.3e}).")
    values = [np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2))).ravel() for m in rep_stacks(a, haar)]
    return np.sort(np.concatenate(values))


# -- fiberwise decomposition of the representation of the identity component


@dataclass(frozen=True, eq=False)
class FiberBlockDecomposition:
    """Fiber blocks of the regular representation at a unit, with the
    deviation between the directly built blocks and the permuted full matrix."""

    unit: str
    block_order: tuple[str, ...]  # element keys with nonempty fiber at the unit
    blocks: dict[str, np.ndarray]
    permuted_matrix: np.ndarray
    max_abs_error: float


def _fiber_partition_at(sys: GradedGroupoid, u: str) -> dict[str, list[str]]:
    """Element key -> arrows of Gu in that fiber (declared order), sorted by group order."""
    g = sys.groupoid
    gidx = np.flatnonzero(g.src_index == g.units.index(u))
    fiber = sys.fiber_index[gidx]
    return {sys.fiber_keys[k]: [g.arrows[i].id for i in gidx[fiber == k]] for k in np.unique(fiber)}


def parent_to_sub_index(sys: GradedGroupoid) -> np.ndarray:
    """Map from parent arrow index to identity-fiber arrow index (-1 outside)."""
    mask = sys.identity_mask
    return np.where(mask, np.cumsum(mask) - 1, -1)


def fiber_rep_block(sys: GradedGroupoid, a_e: GroupoidFunction, arrow_ids: tuple[str, ...]) -> np.ndarray:
    """Block of the representation of an identity-fiber function on a set of
    same-source, same-fiber arrows, built directly from the entry formula."""
    g = sys.groupoid
    if a_e.groupoid is not sys.identity_fiber:
        raise ValueError("Function must live on the identity-fiber subgroupoid.")
    gidx = np.array([g.index(aid) for aid in arrow_ids], dtype=np.intp)
    table = g.compose_matrix()[np.ix_(gidx, g.invert_index[gidx])]
    if (table < 0).any():
        raise ValueError("Block arrows do not share a source; groupoid invalid.")
    sub_idx = parent_to_sub_index(sys)[table]
    vals = np.where(sub_idx >= 0, a_e.coeffs[np.clip(sub_idx, 0, None)], 0.0)
    rho_per_unit = np.array([sys.haar.unit_weight(v) for v in g.units])
    weights = rho_per_unit[g.dst_index[gidx]]
    return vals * np.sqrt(np.outer(weights, weights))


def decompose_rep_U(sys: GradedGroupoid, a_e: GroupoidFunction, u: str) -> FiberBlockDecomposition:
    """Sort the basis at u into fiber blocks and compare the directly built
    blocks against the permuted full representation of the included function.

    Empty fibers contribute no block; the fiber subspaces partition the space,
    so the permuted matrix must be exactly the direct sum.
    """
    g = sys.groupoid
    full = regular_rep_matrix(include_i(a_e, g), sys.haar, u)
    partition = _fiber_partition_at(sys, u)
    order = {aid: i for i, aid in enumerate(g.arrows_with_src(u))}
    perm = [order[aid] for ids in partition.values() for aid in ids]
    permuted = full[np.ix_(perm, perm)]
    blocks = {key: fiber_rep_block(sys, a_e, tuple(ids)) for key, ids in partition.items()}
    direct_sum = np.zeros_like(permuted)
    offset = 0
    for key in partition:
        d = len(blocks[key])
        direct_sum[offset : offset + d, offset : offset + d] = blocks[key]
        offset += d
    err = float(np.abs(permuted - direct_sum).max()) if permuted.size else 0.0
    return FiberBlockDecomposition(
        unit=u,
        block_order=tuple(partition),
        blocks=blocks,
        permuted_matrix=permuted,
        max_abs_error=err,
    )


@dataclass(frozen=True, eq=False)
class TranslationWitness:
    """Conjugation of a fiber block to the identity-fiber representation at
    the range of the chosen translating arrow."""

    source_unit: str
    target_unit: str
    gamma_key: str
    z_arrow: str
    v_matrix: np.ndarray
    fiber_block: np.ndarray
    translated: np.ndarray
    target_block: np.ndarray
    max_abs_error: float


def translate_rep_V(
    sys: GradedGroupoid,
    a_e: GroupoidFunction,
    u: str,
    gamma: Any,
    z_arrow: str | None = None,
) -> TranslationWitness:
    """Conjugate the gamma-fiber block at u by right translation x -> x.z.

    z defaults to the unit arrow when gamma is the identity, else to the first
    arrow of the fiber in declared order; any member of the fiber may be
    passed explicitly.  In the orthonormalized bases the translation is a
    permutation matrix, hence exactly unitary.
    """
    g = sys.groupoid
    grp = sys.group
    gamma = grp.canonical(gamma)
    gamma_key = grp.element_key(gamma)
    at_u = (g.src_index == g.units.index(u)) & sys.fiber_mask(gamma)
    fiber_at_u = [g.arrows[i].id for i in np.flatnonzero(at_u)]
    if not fiber_at_u:
        raise ValueError(f"Fiber over {gamma_key} has no arrows with source {u!r}.")
    if z_arrow is None:
        z = g.unit_arrow[u] if gamma == grp.identity else fiber_at_u[0]
    else:
        if z_arrow not in fiber_at_u:
            raise ValueError(f"Arrow {z_arrow!r} is not in the {gamma_key}-fiber at {u!r}.")
        z = z_arrow
    v = g.target(z)
    sub = sys.identity_fiber
    domain = tuple(fiber_at_u)
    codomain = sub.arrows_with_src(v)
    if len(codomain) != len(domain):
        raise ValueError("Translation is not bijective; groupoid or grading invalid.")
    col = {aid: j for j, aid in enumerate(domain)}
    vmat = np.zeros((len(codomain), len(domain)))
    for i, x in enumerate(codomain):
        y = g.compose_ids(x, z)
        if y is None or y not in col:
            raise ValueError("Translation leaves the fiber; groupoid or grading invalid.")
        vmat[i, col[y]] = 1.0
    block = fiber_rep_block(sys, a_e, domain)
    target = regular_rep_matrix(a_e, sys.haar, v)  # on the identity-fiber subgroupoid
    translated = vmat @ block @ vmat.conj().T
    err = float(np.abs(translated - target).max()) if translated.size else 0.0
    return TranslationWitness(
        source_unit=u,
        target_unit=v,
        gamma_key=gamma_key,
        z_arrow=z,
        v_matrix=vmat,
        fiber_block=block,
        translated=translated,
        target_block=target,
        max_abs_error=err,
    )
