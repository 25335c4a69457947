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

Operator norms use a full dense Hermitian eigendecomposition of M^H M, never
power iteration, so repeated runs give bit-stable reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .algebra import GroupoidFunction, include_i, involute
from .grading import GradedGroupoid
from .groupoid import FiniteGroupoid, HaarSystem


@dataclass(frozen=True, eq=False)
class WeightedL2Basis:
    """Orthonormalized basis data for the arrows with source ``unit``."""

    unit: str
    arrow_ids: tuple[str, ...]
    weights: np.ndarray  # measure of each basis arrow: rho(r(x))

    @property
    def dim(self) -> int:
        return len(self.arrow_ids)


@dataclass(frozen=True, eq=False)
class RepMatrix:
    """A dense complex matrix together with the basis it is written in."""

    matrix: np.ndarray
    basis: WeightedL2Basis

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value via the eigendecomposition of M^H M; for a
    stack of matrices, the largest over the stack."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    eigs = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)
    # a single matrix skips the reduction: cstar_norm calls this per unit block
    top = eigs[-1] if m.ndim == 2 else eigs[:, -1].max()
    return float(np.sqrt(max(float(top), 0.0)))


def weighted_l2_basis(g: FiniteGroupoid, haar: HaarSystem, u: str) -> WeightedL2Basis:
    if not g.has_unit(u):
        raise ValueError(f"Unknown unit {u!r}.")
    ids = g.arrows_with_src(u)
    rho_per_unit = np.array([haar.unit_weight(v) for v in g.units])
    gidx = np.array([g.index(aid) for aid in ids], dtype=np.intp)
    weights = rho_per_unit[g.dst_index[gidx]]
    return WeightedL2Basis(unit=u, arrow_ids=ids, weights=weights)


def regular_rep_matrix(a: GroupoidFunction, haar: HaarSystem, u: str) -> RepMatrix:
    """Matrix of h -> a * h on the weighted L2 space at u, orthonormalized basis."""
    g = a.groupoid
    basis = weighted_l2_basis(g, haar, u)
    _, table = g.source_fiber_rep_index(u)
    scale = np.sqrt(np.outer(basis.weights, basis.weights))
    return RepMatrix(matrix=a.coeffs[table] * scale, basis=basis)


def rep_blocks(a: GroupoidFunction, haar: HaarSystem) -> list[RepMatrix]:
    """The regular representation blocks, one per unit in declared order."""
    return [regular_rep_matrix(a, haar, u) for u in a.groupoid.units]


def cstar_norm(a: GroupoidFunction, haar: HaarSystem) -> float:
    """max over units of the largest singular value of the regular block."""
    return max(operator_norm(block.matrix) for block in rep_blocks(a, haar))


def positivity_check(a: GroupoidFunction, haar: HaarSystem, tol: float = 1e-9) -> bool:
    """True iff a is positive: blocks Hermitian and spectra >= -tol*(1 + ||a||)."""
    blocks = rep_blocks(a, haar)
    norm = max(operator_norm(b.matrix) for b in blocks)
    slack = tol * (1.0 + norm)
    for block in blocks:
        m = block.matrix
        if m.size == 0:
            continue
        if np.abs(m - m.conj().T).max() > slack:
            return False
        if float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]) < -slack:
            return False
    return True


def spectrum(a: GroupoidFunction, haar: HaarSystem, tol: float = 1e-9) -> np.ndarray:
    """Sorted real eigenvalues of the regular blocks; requires a self-adjoint."""
    deviation = cstar_norm(a - involute(a), haar)
    if deviation > tol * (1.0 + cstar_norm(a, haar)):
        raise ValueError(f"Function is not self-adjoint (deviation {deviation:.3e}).")
    values: list[np.ndarray] = []
    for block in rep_blocks(a, haar):
        m = block.matrix
        values.append(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
    return np.sort(np.concatenate(values))


# -- fiberwise decomposition of the representation of the identity component


@dataclass(frozen=True, eq=False)
class FiberBlockDecomposition:
    """Fiber blocks of the regular representation at a unit, with the
    deviation between the directly built blocks and the permuted full matrix."""

    unit: str
    block_order: tuple[str, ...]  # element keys with nonempty fiber at the unit
    blocks: dict[str, RepMatrix]
    permuted_matrix: np.ndarray
    max_abs_error: float


def _fiber_partition_at(sys: GradedGroupoid, u: str) -> dict[str, list[str]]:
    """Element key -> arrows of Gu in that fiber (declared order), sorted by group order."""
    gidx, _ = sys.groupoid.source_fiber_rep_index(u)
    fiber = sys.fiber_index[gidx]
    ids = sys.groupoid.arrows_with_src(u)
    return {sys.fiber_keys[k]: [ids[i] for i in np.flatnonzero(fiber == k)] for k in np.unique(fiber)}


def parent_to_sub_index(sys: GradedGroupoid) -> np.ndarray:
    """Map from parent arrow index to identity-fiber arrow index (-1 outside)."""
    mask = sys.identity_mask
    return np.where(mask, np.cumsum(mask) - 1, -1)


def fiber_rep_block(sys: GradedGroupoid, a_e: GroupoidFunction, arrow_ids: tuple[str, ...]) -> RepMatrix:
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
    matrix = vals * np.sqrt(np.outer(weights, weights))
    unit = g.source(arrow_ids[0]) if arrow_ids else "?"
    return RepMatrix(matrix=matrix, basis=WeightedL2Basis(unit=unit, arrow_ids=tuple(arrow_ids), weights=weights))


def decompose_rep_U(sys: GradedGroupoid, a_e: GroupoidFunction, u: str) -> FiberBlockDecomposition:
    """Sort the basis at u into fiber blocks and compare the directly built
    blocks against the permuted full representation of the included function.

    Empty fibers contribute no block; the fiber subspaces partition the space,
    so the permuted matrix must be exactly the direct sum.
    """
    g = sys.groupoid
    partition = _fiber_partition_at(sys, u)
    full = regular_rep_matrix(include_i(a_e, g), sys.haar, u)
    order = {aid: i for i, aid in enumerate(full.basis.arrow_ids)}
    perm = [order[aid] for ids in partition.values() for aid in ids]
    permuted = full.matrix[np.ix_(perm, perm)]
    blocks = {key: fiber_rep_block(sys, a_e, tuple(ids)) for key, ids in partition.items()}
    direct_sum = np.zeros_like(permuted)
    offset = 0
    for key in partition:
        d = blocks[key].dim
        direct_sum[offset : offset + d, offset : offset + d] = blocks[key].matrix
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
    fiber_block: RepMatrix
    translated: np.ndarray
    target_block: RepMatrix
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
    gidx, _ = g.source_fiber_rep_index(u)
    fiber_at_u = [g.arrows[i].id for i in gidx[sys.fiber_mask(gamma)[gidx]]]
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
    translated = vmat @ block.matrix @ vmat.conj().T
    err = float(np.abs(translated - target.matrix).max()) if translated.size else 0.0
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
