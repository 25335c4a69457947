"""Grading subspaces of the convolution algebra and bundle-style checks.

The span of the delta functions over one cocycle fiber is a grading subspace;
the family over all fiber labels multiplies into the product label, is stable
under adjoints into the inverse label, spans the whole algebra, and has
pairwise disjoint supports.  The expectation onto the identity component is
the bounded projection that makes the grading topological (norm one, identity
on the identity component, zero on the others).

A fiberwise representation assigns a matrix to every fiber basis element; the
checks here verify the multiplication/adjoint relations on basis elements,
that the summed map is a *-homomorphism on random elements, and the I-norm
bound on each fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .algebra import (
    convolve_stack,
    delta,
    graded_component_stack,
    i_norm_stack,
    involute_stack,
    random_stacks,
    unit_function,
)
from .grading import GradedGroupoid
from .hilbert_module import expectation_stack
from .representation import cstar_norm_stack, operator_norms, rep_blocks
from .validation import CheckReport


@dataclass(frozen=True, eq=False)
class GradedSubspaceFamily:
    """Delta-function bases of the fiber subspaces, keyed by element key."""

    system: GradedGroupoid
    bases: Mapping[str, tuple[str, ...]]

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(self.bases)

    def dimension(self, key: str) -> int:
        return len(self.bases[key])


def graded_subspaces(sys: GradedGroupoid) -> GradedSubspaceFamily:
    return GradedSubspaceFamily(system=sys, bases=sys.fibers())


def check_grading_axioms(family: GradedSubspaceFamily, seed: int = 0) -> CheckReport:
    """Product/adjoint support containment (exact), spanning, independence.

    Basis products are checked through the composition table; random
    fiber-supported elements are convolved and must vanish identically off
    the product fiber (every contributing term lands there, so the zeros are
    exact, not approximate).
    """
    sys = family.system
    g = sys.groupoid
    grp = sys.group
    fiber = sys.fiber_index
    elements = sys.fiber_elements
    # fiber numbers of the products and inverses of image elements (-1 off the image)
    product = np.array([[sys.fiber_number(grp.mul(b, c)) for c in elements] for b in elements], dtype=np.intp)
    inverse = np.array([sys.fiber_number(grp.inv(b)) for b in elements], dtype=np.intp)
    xs, ys, zs = g.composable_pairs()
    bad = np.flatnonzero(product[fiber[xs], fiber[ys]] != fiber[zs])
    if len(bad):
        k = bad[0]
        return CheckReport.failed(
            "basis-product-off-fiber", pair=(g.arrows[xs[k]].id, g.arrows[ys[k]].id), product=g.arrows[zs[k]].id
        )
    bad = np.flatnonzero(fiber[g.invert_index] != inverse[fiber])
    if len(bad):
        return CheckReport.failed("basis-adjoint-off-fiber", arrow=g.arrows[bad[0]].id)
    # per fiber beta: a random pair (a, b) for every fiber gamma, then one
    # more function for the adjoint, drawn in that order
    rng = np.random.default_rng(seed)
    masks = fiber == np.arange(len(elements))[:, None]
    for beta, beta_key in enumerate(sys.fiber_keys):
        (draws,) = random_stacks(rng, 2 * len(elements) + 1, g)
        a = np.where(masks[beta], draws[0:-1:2], 0.0)
        b = np.where(masks, draws[1:-1:2], 0.0)
        prod = convolve_stack(g, a, b, sys.haar)
        off = np.argwhere((prod != 0) & (fiber != product[beta][:, None]))
        if len(off):
            gamma, arrow = off[0]
            return CheckReport.failed(
                "random-product-off-fiber", fibers=(beta_key, sys.fiber_keys[gamma]), arrow=g.arrows[arrow].id
            )
        adj = involute_stack(g, np.where(masks[beta], draws[-1:], 0.0))[0]
        off = np.flatnonzero((adj != 0) & (fiber != inverse[beta]))
        if len(off):
            return CheckReport.failed("random-adjoint-off-fiber", fiber=beta_key, arrow=g.arrows[off[0]].id)
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
    # identity key and to vanish otherwise
    identity_key = sys.group.element_key(sys.group.identity)
    listed = [(key, aid) for key, ids in family.bases.items() for aid in ids]
    deltas = np.eye(g.n_arrows, dtype=np.complex128)[[g.index(aid) for _, aid in listed]]
    kept = np.array([key == identity_key for key, _ in listed], dtype=bool).reshape(-1, 1)
    wrong = np.flatnonzero(np.abs(expectation_stack(sys, deltas) - np.where(kept, deltas, 0.0)).max(axis=1) != 0.0)
    if len(wrong):
        key, aid = listed[wrong[0]]
        return CheckReport.failed("projection-wrong-on-basis", fiber=key, arrow=aid)
    (a,) = random_stacks(np.random.default_rng(seed), count, g)
    denom = cstar_norm_stack(g, a, sys.haar)
    numer = cstar_norm_stack(g, expectation_stack(sys, a), sys.haar)
    sup_ratio = max([0.0, *(numer[denom != 0.0] / denom[denom != 0.0]).tolist()])
    if sup_ratio > 1.0 + 1e-9:
        return CheckReport.failed("projection-not-contractive", sup_ratio=sup_ratio)
    return CheckReport(ok=True, witness={"sup_ratio": sup_ratio, "samples": count})


FiberRep = Mapping[str, Mapping[str, np.ndarray]]
"""Per-fiber linear maps, given by one square matrix per fiber basis arrow."""


def tautological_rep(sys: GradedGroupoid) -> dict[str, dict[str, np.ndarray]]:
    """Restrict the direct sum of the regular representations to the fibers."""
    g = sys.groupoid
    dims = [len(g.arrows_with_src(u)) for u in g.units]
    total = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)])
    rep: dict[str, dict[str, np.ndarray]] = {}
    for key, ids in sys.fibers().items():
        rep[key] = {}
        for aid in ids:
            mat = np.zeros((total, total), dtype=np.complex128)
            for k, block in enumerate(rep_blocks(delta(g, aid), sys.haar).values()):
                lo, hi = offsets[k], offsets[k + 1]
                mat[lo:hi, lo:hi] = block
            rep[key][aid] = mat
    return rep


def _rep_apply(sys: GradedGroupoid, rep: FiberRep, a: np.ndarray, dim: int) -> np.ndarray:
    """The summed representation of every trial of a (T, n) stack."""
    out = np.zeros((len(a), dim, dim), dtype=np.complex128)
    arrows = sys.groupoid.arrows
    for i in np.flatnonzero(a.any(axis=0)):
        out += a[:, i, None, None] * rep[sys.fiber_keys[sys.fiber_index[i]]][arrows[i].id]
    return out


def bundle_rep_check(
    family: GradedSubspaceFamily,
    rep: FiberRep,
    seed: int = 0,
    count: int = 5,
    tol: float = 1e-12,
) -> CheckReport:
    """Verify a fiberwise representation and its summed *-homomorphism.

    Checks, in order: coverage and shape of the matrices; the basis relations
    pi(d_x) pi(d_y) = w(x) pi(d_{xy}) (zero when non-composable) and
    pi(d_x)^H = pi(d_{x^{-1}}); multiplicativity and adjoints of the summed
    map on seeded random pairs; and the I-norm bound on each fiber.
    """
    sys = family.system
    g = sys.groupoid
    haar = sys.haar
    dim: int | None = None
    for key, ids in family.bases.items():
        if key not in rep:
            return CheckReport.failed("fiber-missing-from-rep", fiber=key)
        for aid in ids:
            if aid not in rep[key]:
                return CheckReport.failed("basis-element-missing-from-rep", fiber=key, arrow=aid)
            mat = np.asarray(rep[key][aid])
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                return CheckReport.failed("rep-matrix-not-square", arrow=aid)
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                return CheckReport.failed("rep-dimension-mismatch", arrow=aid)
    assert dim is not None
    lookup = {aid: np.asarray(rep[key][aid], dtype=np.complex128) for key, ids in family.bases.items() for aid in ids}
    norm_scale = 1.0 + float(operator_norms(np.stack(list(lookup.values()))).max())
    for x in g.arrow_ids:
        for y in g.arrow_ids:
            z = g.compose_ids(x, y)
            expected = haar.weight(g, x) * lookup[z] if z is not None else np.zeros((dim, dim))
            defect = float(np.abs(lookup[x] @ lookup[y] - expected).max())
            if defect > tol * norm_scale**2:
                return CheckReport.failed("rep-not-multiplicative-on-basis", pair=(x, y), defect=defect)
        defect = float(np.abs(lookup[x].conj().T - lookup[g.invert_id(x)]).max())
        if defect > tol * norm_scale:
            return CheckReport.failed("rep-not-star-on-basis", arrow=x, defect=defect)
    a, b = random_stacks(np.random.default_rng(seed), count, g, g)
    pa = _rep_apply(sys, rep, a, dim)
    mult = np.abs(pa @ _rep_apply(sys, rep, b, dim) - _rep_apply(sys, rep, convolve_stack(g, a, b, haar), dim))
    mult = mult.max(axis=(1, 2), initial=0.0)
    star = np.abs(pa.conj().swapaxes(1, 2) - _rep_apply(sys, rep, involute_stack(g, a), dim)).max(axis=(1, 2), initial=0.0)
    parts = graded_component_stack(sys, a)
    bounds = np.array([i_norm_stack(g, part, haar) for part in parts])
    norms = np.array([operator_norms(_rep_apply(sys, rep, part, dim)) for part in parts])
    # per trial, in order: multiplicativity, adjoints, the norm of each fiber
    failed = np.column_stack(
        [mult > tol * norm_scale**2 * g.n_arrows, star > tol * norm_scale * g.n_arrows, (norms > bounds * (1.0 + 1e-9)).T]
    )
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
    return CheckReport(ok=True, witness={"dimension": dim, "samples": count})
