"""Grading subspaces of the convolution algebra and bundle-style checks.

The span of the delta functions over one cocycle fiber is a grading subspace;
the family over all fiber labels multiplies into the product label, is stable
under adjoints into the inverse label, spans the whole algebra, and has
pairwise disjoint supports.  The expectation onto the identity component is
the bounded projection that makes the grading topological (norm one, identity
on the identity component, zero on the others).

A fiberwise representation, given by one matrix per fiber basis element or
as a linear map onto block stacks, is checked for the multiplication and
adjoint relations on basis elements, for being a *-homomorphism on random
elements, and for the I-norm bound on each fiber.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .algebra import (
    chunked,
    convolve_stack,
    delta_products,
    delta_rows,
    graded_component_stack,
    i_norm_stack,
    involute_stack,
    labelled_sweep,
    random_stacks,
    row_chunks,
    unit_function,
    unit_labels,
)
from .grading import GradedGroupoid
from .groupoid import ReadOnly
from .hilbert_module import expectation_stack
from .representation import _norm_of_trials, _stacks_of, cstar_norm_stack
from .validation import ALG_TOL, EIG_TOL, CheckReport, norm_chain


class GradedSubspaceFamily(ReadOnly):
    """Delta-function bases of the fiber subspaces, keyed by element key,
    held as a read-only copy of the mapping passed in."""

    __slots__ = ("system", "bases")

    def __init__(self, system: GradedGroupoid, bases: Mapping[str, tuple[str, ...]]) -> None:
        self._set(system=system, bases=MappingProxyType(dict(bases)))

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(self.bases)

    def dimension(self, key: str) -> int:
        return len(self.bases[key])


def graded_subspaces(sys: GradedGroupoid) -> GradedSubspaceFamily:
    return GradedSubspaceFamily(system=sys, bases=sys.fibers())


def _fiber_tables(sys: GradedGroupoid) -> tuple[np.ndarray, np.ndarray]:
    """The fiber numbers (-1 off the image) of the products (m, m) and the
    inverses (m,) of the m image elements, by one ``mul_array`` over all
    pairs; the inverse of b is the image element c with bc = e."""
    grp, m = sys.group, len(sys.fiber_elements)
    values = grp.element_array(list(sys.fiber_elements))
    b, c = np.divmod(np.arange(m * m), m)
    products = grp.mul_array(values[b], values[c])
    inverts = (products == grp.element_array([grp.identity])).reshape(m, m, -1).all(axis=-1)
    return sys.fiber_numbers(products).reshape(m, m), np.where(inverts.any(axis=1), inverts.argmax(axis=1), -1)


def check_grading_axioms(family: GradedSubspaceFamily, seed: int = 0) -> CheckReport:
    """Product/adjoint support containment (exact), spanning, independence.

    Basis products are checked through the composition table; random
    fiber-supported elements are convolved and must vanish identically off
    the product fiber (every contributing term lands there, so the zeros are
    exact, not approximate).  Per fiber beta, 2m + 1 draws from one generator
    give a on beta and b on gamma for each of the m fibers gamma, then one
    adjoint trial on beta; the first failing beta is named, products first.
    """
    sys = family.system
    g = sys.groupoid
    fiber = sys.fiber_index
    elements = sys.fiber_elements
    product, inverse = _fiber_tables(sys)
    xs, ys, zs = g.composable_pairs()
    bad = np.flatnonzero(product[fiber[xs], fiber[ys]] != fiber[zs])
    if len(bad):
        k = bad[0]
        return CheckReport.failed(
            "basis-product-off-fiber", pair=(g.arrow_ids[xs[k]], g.arrow_ids[ys[k]]), product=g.arrow_ids[zs[k]]
        )
    bad = np.flatnonzero(fiber[g.invert_index] != inverse[fiber])
    if len(bad):
        return CheckReport.failed("basis-adjoint-off-fiber", arrow=g.arrow_ids[bad[0]])
    masks = fiber == np.arange(len(elements))[:, None]
    rng = np.random.default_rng(seed)
    for beta in range(len(elements)):
        (draws,) = random_stacks(rng, 2 * len(elements) + 1, g)
        prod = convolve_stack(g, np.where(masks[beta], draws[0:-1:2], 0.0), np.where(masks, draws[1:-1:2], 0.0), sys.haar)
        prod_off = (prod != 0) & (fiber != product[beta][:, None])
        if prod_off.any():
            gamma, arrow = np.argwhere(prod_off)[0]
            return CheckReport.failed(
                "random-product-off-fiber", fibers=(sys.fiber_keys[beta], sys.fiber_keys[gamma]), arrow=g.arrow_ids[arrow]
            )
        adj_off = (involute_stack(g, np.where(masks[beta], draws[-1], 0.0)) != 0) & (fiber != inverse[beta])
        if adj_off.any():
            return CheckReport.failed("random-adjoint-off-fiber", fiber=sys.fiber_keys[beta], arrow=g.arrow_ids[np.argmax(adj_off)])
    total = sum(family.dimension(key) for key in family.keys)
    if total != g.n_arrows:
        return CheckReport.failed("fibers-do-not-span", total=total, arrows=g.n_arrows)
    seen: dict[str, str] = {}
    for key, ids in family.bases.items():
        for aid in ids:
            if aid in seen:
                return CheckReport.failed("fibers-overlap", arrow=aid, fibers=(seen[aid], key))
            seen[aid] = key
    return CheckReport.passed()


def check_topological_grading(family: GradedSubspaceFamily, seed: int = 0, count: int = 200) -> CheckReport:
    """The expectation is the grading projection: identity on the identity
    component, zero on the rest, bounded with norm one (sup ratio over seeded
    random elements, witnessed in the report)."""
    sys = family.system
    g = sys.groupoid
    e = unit_function(g, sys.haar).coeffs
    if float(np.abs(expectation_stack(sys, e[None]) - e).max()) != 0.0:
        return CheckReport.failed("projection-moves-unit")
    # every listed basis delta, expected to stay when listed under the
    # identity key and to vanish otherwise, in chunks of deltas
    identity_key = sys.group.element_key(sys.group.identity)
    listed = [(key, aid) for key, ids in family.bases.items() for aid in ids]
    index = np.array([g.index(aid) for _, aid in listed], dtype=np.intp)
    kept = np.array([key == identity_key for key, _ in listed], dtype=bool).reshape(-1, 1)
    for rows in row_chunks(len(listed), g.n_arrows):
        deltas = delta_rows(index[rows], g.n_arrows)
        wrong = np.flatnonzero(np.abs(expectation_stack(sys, deltas) - np.where(kept[rows], deltas, 0.0)).max(axis=1) != 0.0)
        if len(wrong):
            key, aid = listed[rows[wrong[0]]]
            return CheckReport.failed("projection-wrong-on-basis", fiber=key, arrow=aid)
    (a,) = random_stacks(np.random.default_rng(seed), count, g)
    denom = cstar_norm_stack(g, a, sys.haar)
    numer = cstar_norm_stack(g, expectation_stack(sys, a), sys.haar)
    sup_ratio = max([0.0, *(numer[denom != 0.0] / denom[denom != 0.0]).tolist()])
    if sup_ratio > 1.0 + EIG_TOL:
        return CheckReport.failed("projection-not-contractive", sup_ratio=sup_ratio)
    return CheckReport(ok=True, witness={"sup_ratio": sup_ratio, "samples": count})


FiberRep = Mapping[str, Mapping[str, np.ndarray]]
"""Per-fiber linear maps, given by one square matrix per fiber basis arrow."""

StackRep = Callable[[np.ndarray], list]
"""A direct sum of blocks: a linear map from (T, n) stacks to (T, k, d, d) stacks."""


def tautological_rep(sys: GradedGroupoid) -> StackRep:
    """The direct sum of the regular representations, on the blocks of ``rep_tables()``."""
    return lambda a: _stacks_of(sys.groupoid, a, sys.haar, sys.groupoid.rep_tables())


def _one_block(family: GradedSubspaceFamily, rep: FiberRep) -> StackRep | CheckReport:
    """A :data:`FiberRep` checked for coverage, shape and finite numeric
    entries, acting as one block."""
    dim: int | None = None
    for key, ids in family.bases.items():
        if key not in rep:
            return CheckReport.failed("fiber-missing-from-rep", fiber=key)
        for aid in ids:
            if aid not in rep[key]:
                return CheckReport.failed("basis-element-missing-from-rep", fiber=key, arrow=aid)
            try:
                mat = np.asarray(rep[key][aid])
            except ValueError:  # ragged rows
                mat = np.empty(0)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                return CheckReport.failed("rep-matrix-not-square", arrow=aid)
            if mat.size == 0:
                return CheckReport.failed("rep-matrix-empty", arrow=aid)
            if mat.dtype.kind not in "biufc":
                return CheckReport.failed("rep-matrix-not-numeric", arrow=aid)
            if not np.isfinite(mat).all():
                return CheckReport.failed("rep-matrix-not-finite", arrow=aid)
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                return CheckReport.failed("rep-dimension-mismatch", arrow=aid)
    lookup = {aid: rep[key][aid] for key, ids in family.bases.items() for aid in ids}
    mats = np.array([lookup[aid] for aid in family.system.groupoid.arrow_ids], dtype=np.complex128)
    return lambda a: [np.tensordot(a, mats, axes=(-1, 0))[..., None, :, :]]


def bundle_rep_check(
    family: GradedSubspaceFamily,
    rep: FiberRep | StackRep,
    seed: int = 0,
    count: int = 5,
) -> CheckReport:
    """Verify a fiberwise representation and its summed *-homomorphism.

    Checks, in order, on block stacks in chunks of arrows: coverage, shape
    and entries of a :data:`FiberRep`; pi(d_x) pi(d_y) = w(x) pi(d_{xy})
    (zero when non-composable) and pi(d_x)^H = pi(d_{x^{-1}}); the summed map
    on seeded random pairs; the I-norm bound on each fiber (:func:`norm_chain`).
    The relations hold within ``ALG_TOL`` times s = 1 + the largest
    sqrt(w(x) w(x^{-1})) (s^2 for products), n times that on the random
    pairs: pi(d_x)^H pi(d_x) = pi(d_x^* d_x) is w(x) w(x^{-1}) times a
    projection, so s - 1 bounds every basis block norm, attained by the
    regular representation.  The product relation is linear in d_y, so it
    goes through :func:`labelled_sweep`; the first failing x names its first
    failing pair, or the arrow itself where only its adjoint fails.  NaN
    passes no bound, and a non-finite block is not eigensolved.
    """
    sys = family.system
    g, haar, n = sys.groupoid, sys.haar, sys.groupoid.n_arrows
    rep = _one_block(family, rep) if isinstance(rep, Mapping) else rep
    if isinstance(rep, CheckReport):
        return rep

    def largest(diffs: list[np.ndarray]) -> np.ndarray:
        return functools.reduce(np.maximum, [np.abs(m).max(axis=(-3, -2, -1)) for m in diffs])

    def product(pa: list[np.ndarray], b: np.ndarray, ab: np.ndarray) -> np.ndarray:
        """|pi(a) pi(b) - pi(ab)| for each trial, given pi(a)."""
        return largest([p @ q - m for p, q, m in zip(pa, rep(b), rep(ab))])

    def adjoint(pa: list[np.ndarray], a_star: np.ndarray) -> np.ndarray:
        """|pi(a)^H - pi(a^*)| for each trial, given pi(a)."""
        return largest([p.conj().swapaxes(-1, -2) - m for p, m in zip(pa, rep(a_star))])

    def basis_products(x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """:func:`product` of d_x, c (R, n) or (1, n) and sum_y c_y w(x) d_{xy}."""
        return product(rep(delta_rows(x, n)), c, delta_products(g, x, c, haar))

    def pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:func:`product` and :func:`adjoint` of random pairs, (T, 2)."""
        pa = rep(a)
        return np.stack([product(pa, b, convolve_stack(g, a, b, haar)), adjoint(pa, involute_stack(g, a))], axis=-1)

    blocks = rep(unit_labels(n)[None])
    size = sum(m.size for m in blocks)  # block entries of one function
    norm_scale = 1.0 + float(np.sqrt(haar.weights(g) * haar.weights(g)[g.invert_index]).max())
    stars = np.concatenate([adjoint(rep(delta_rows(x, n)), delta_rows(g.invert_index[x], n)) for x in row_chunks(n, size)])
    star_failed = np.append(np.flatnonzero(~(stars <= ALG_TOL * norm_scale)), n)[0]  # n when none fails
    for x, y, defect in labelled_sweep(n, size, basis_products, ALG_TOL * norm_scale**2):
        if x > star_failed:
            break
        if not defect <= ALG_TOL * norm_scale**2:
            return CheckReport.failed("rep-not-multiplicative-on-basis", pair=(g.arrow_ids[x], g.arrow_ids[y]), defect=defect)
    if star_failed < n:
        return CheckReport.failed("rep-not-star-on-basis", arrow=g.arrow_ids[star_failed], defect=float(stars[star_failed]))

    a, b = random_stacks(np.random.default_rng(seed), count, g, g)
    mult, star = chunked(pairs, size, a, b).T
    parts = graded_component_stack(sys, a)
    bounds = np.array([i_norm_stack(g, part, haar) for part in parts])
    norms = chunked(lambda p: _norm_of_trials(rep(p)), size, parts.reshape(-1, n)).reshape(bounds.shape)
    # per trial, in order: multiplicativity, adjoints, the norm of each fiber
    failed = np.column_stack([~(mult <= ALG_TOL * norm_scale**2 * n), ~(star <= ALG_TOL * norm_scale * n), ~norm_chain(norms, bounds).T])
    if failed.any():
        trial, check = np.argwhere(failed)[0]
        if check == 0:
            return CheckReport.failed("rep-not-multiplicative", defect=float(mult[trial]))
        if check == 1:
            return CheckReport.failed("rep-not-star")
        k = check - 2
        return CheckReport.failed(
            "fiber-norm-exceeds-i-norm", fiber=sys.fiber_keys[k], norm=float(norms[k, trial]), bound=float(bounds[k, trial])
        )
    return CheckReport(ok=True, witness={"dimension": sum(m.shape[-3] * m.shape[-1] for m in blocks), "samples": count})
