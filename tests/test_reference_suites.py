"""The trial-by-trial suite loops, kept as oracles for the batched suites.

Before the suites evaluated their trials as (T, n) stacks, each trial was a
round of one-function calls.  Those loops are kept here verbatim as
``reference_suite_*`` (with the bundle checks' own trial loops as
``reference_check_*`` and ``reference_bundle_rep_check``), and each batched
suite must give records identical to its reference, witnesses bit for bit,
on four corpus instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from groupoid_workbench.algebra import (
    GroupoidFunction,
    convolve,
    delta,
    graded_component,
    graded_components,
    i_norm,
    include_i,
    involute,
    random_function,
    restrict_q,
    unit_function,
    zero,
)
from groupoid_workbench import algebra, bundle
from groupoid_workbench.bundle import (
    FiberRep,
    GradedSubspaceFamily,
    check_grading_axioms,
    check_topological_grading,
    graded_subspaces,
)
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import WorkbenchDocument
from groupoid_workbench.grading import Cocycle, GradedGroupoid, validate_cocycle
from groupoid_workbench.groupoid import FiniteGroupoid, HaarSystem, haar_from_weights, validate_groupoid, validate_left_invariance
from groupoid_workbench.hilbert_module import (
    L_operator_norm,
    check_eq_ruy,
    eq_ruy_defect,
    expectation_P,
    induced_space,
    kernel_check,
    module_action,
    module_inner_product,
    module_norm,
)
from groupoid_workbench.representation import (
    cstar_norm,
    decompose_rep_U,
    operator_norm,
    positivity_check,
    rep_blocks,
    spectrum,
    translate_rep_V,
)
from groupoid_workbench.validation import CheckReport

from conftest import dense_compose, id_tables, patch_method
from groupoid_workbench.verify import (
    _SUITE_FN,
    ALG_TOL,
    EIG_TOL,
    SMALL_TRIALS,
    SUITES,
    UNITARY_TRIALS,
    CheckRecord,
    _instance_key,
    _jsonable,
    _Recorder,
    _delta_rule_defect,
)
from test_structure_certificate import twisted_tables

INSTANCES = ("pair3-zgraded-weighted", "s3-sign-weighted", "union-z2-z3-weighted", "product-pair2-z2-counting")


class _ReferenceRecorder:
    """The records of a suite, each with the verdict its loop computed."""

    def __init__(self, suite: str, instance: str, seed: int) -> None:
        self.suite, self.instance, self.seed = suite, instance, seed
        self.records: list[CheckRecord] = []

    def add(self, check: str, prop: str, ok: bool, tolerance: float, **witness) -> None:
        witness = {k: _jsonable(v) for k, v in witness.items()}
        status = "pass" if ok else "fail"
        self.records.append(CheckRecord(self.suite, check, prop, self.instance, status, tolerance, self.seed, witness))


def _rel(defect: float, scale: float) -> float:
    return float(defect) / (1.0 + float(scale))


def _max_abs(x: np.ndarray) -> float:
    return float(np.abs(x).max()) if x.size else 0.0


# -- the bundle checks' trial loops --------------------------------------------


def reference_fiber_tables(sys: GradedGroupoid) -> tuple[np.ndarray, np.ndarray]:
    """The fiber numbers of the products and inverses of image elements
    (-1 off the image), one group operation and lookup per entry."""
    grp, elements = sys.group, sys.fiber_elements
    product = np.array([[sys.fiber_number(grp.mul(b, c)) for c in elements] for b in elements], dtype=np.intp)
    inverse = np.array([sys.fiber_number(grp.inv(b)) for b in elements], dtype=np.intp)
    return product, inverse


def reference_check_grading_axioms(family: GradedSubspaceFamily, seed: int = 0) -> CheckReport:
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
    product, inverse = reference_fiber_tables(sys)
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
    rng = np.random.default_rng(seed)
    for beta_key, beta in zip(sys.fiber_keys, elements):
        for gamma_key, gamma in zip(sys.fiber_keys, elements):
            a = graded_component(sys, random_function(g, rng), beta)
            b = graded_component(sys, random_function(g, rng), gamma)
            prod = convolve(a, b, sys.haar)
            off = np.flatnonzero((prod.coeffs != 0) & ~sys.fiber_mask(grp.mul(beta, gamma)))
            if len(off):
                return CheckReport.failed(
                    "random-product-off-fiber", fibers=(beta_key, gamma_key), arrow=g.arrows[off[0]].id
                )
        adj = involute(graded_component(sys, random_function(g, rng), beta))
        off = np.flatnonzero((adj.coeffs != 0) & ~sys.fiber_mask(grp.inv(beta)))
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



def reference_check_topological_grading(family: GradedSubspaceFamily, seed: int = 0, count: int = 200) -> CheckReport:
    """The expectation is the grading projection: identity on the identity
    component, zero on the rest, bounded with norm one (sup ratio over seeded
    random elements, witnessed in the report)."""
    sys = family.system
    g = sys.groupoid
    identity_key = sys.group.element_key(sys.group.identity)
    e = unit_function(g, sys.haar)
    image = expectation_P(sys, e)
    if float(np.abs(image.coeffs - e.coeffs).max()) != 0.0:
        return CheckReport.failed("projection-moves-unit")
    for key, ids in family.bases.items():
        for aid in ids:
            image = expectation_P(sys, delta(g, aid))
            expected = delta(g, aid).coeffs if key == identity_key else 0.0
            if float(np.abs(image.coeffs - expected).max()) != 0.0:
                return CheckReport.failed("projection-wrong-on-basis", fiber=key, arrow=aid)
    rng = np.random.default_rng(seed)
    sup_ratio = 0.0
    for _ in range(count):
        a = random_function(g, rng)
        denom = cstar_norm(a, sys.haar)
        if denom == 0.0:
            continue
        sup_ratio = max(sup_ratio, cstar_norm(expectation_P(sys, a), sys.haar) / denom)
    if sup_ratio > 1.0 + 1e-9:
        return CheckReport.failed("projection-not-contractive", sup_ratio=sup_ratio)
    return CheckReport(ok=True, witness={"sup_ratio": sup_ratio, "samples": count})


def reference_tautological_rep(sys: GradedGroupoid) -> dict[str, dict[str, np.ndarray]]:
    """Restrict the direct sum of the regular representations to the fibers,
    as one dense matrix per arrow (the v0.11.0 ``bundle.tautological_rep``)."""
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


def reference_rep_apply_stack(sys: GradedGroupoid, rep: FiberRep, a: np.ndarray, dim: int) -> np.ndarray:
    """The summed representation of every trial of a (T, n) stack, one
    arrow's matrix at a time (the v0.11.0 ``bundle._rep_apply``)."""
    out = np.zeros((len(a), dim, dim), dtype=np.complex128)
    arrows = sys.groupoid.arrows
    for i in np.flatnonzero(a.any(axis=0)):
        out += a[:, i, None, None] * rep[sys.fiber_keys[sys.fiber_index[i]]][arrows[i].id]
    return out


def reference_rep_apply(sys: GradedGroupoid, rep: FiberRep, a: GroupoidFunction, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.complex128)
    arrows = sys.groupoid.arrows
    for i in np.flatnonzero(a.coeffs):
        out += a.coeffs[i] * rep[sys.fiber_keys[sys.fiber_index[i]]][arrows[i].id]
    return out



def reference_bundle_rep_check(
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
    norm_scale = 1.0 + max(operator_norm(m) for m in lookup.values())
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
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = random_function(g, rng)
        b = random_function(g, rng)
        pa = reference_rep_apply(sys, rep, a, dim)
        pb = reference_rep_apply(sys, rep, b, dim)
        pab = reference_rep_apply(sys, rep, convolve(a, b, haar), dim)
        if float(np.abs(pa @ pb - pab).max()) > tol * norm_scale**2 * g.n_arrows:
            return CheckReport.failed("rep-not-multiplicative", defect=float(np.abs(pa @ pb - pab).max()))
        pastar = reference_rep_apply(sys, rep, involute(a), dim)
        if float(np.abs(pa.conj().T - pastar).max()) > tol * norm_scale * g.n_arrows:
            return CheckReport.failed("rep-not-star")
        for key, gamma in zip(sys.fiber_keys, sys.fiber_elements):
            part = graded_component(sys, a, gamma)
            bound = i_norm(part, haar)
            got = operator_norm(reference_rep_apply(sys, rep, part, dim))
            if got > bound * (1.0 + 1e-9):
                return CheckReport.failed("fiber-norm-exceeds-i-norm", fiber=key, norm=got, bound=bound)
    return CheckReport(ok=True, witness={"dimension": dim, "samples": count})


# -- the suites ---------------------------------------------------------------


def reference_suite_haar(doc: WorkbenchDocument, rec: _ReferenceRecorder, rng: np.random.Generator, count: int) -> None:
    sys = doc.system
    g = sys.groupoid
    report = validate_groupoid(g)
    rec.add(
        "groupoid-axioms",
        "compose/invert/unit tables satisfy the groupoid axioms",
        report.ok,
        0.0,
        cause=report.cause,
    )
    creport = validate_cocycle(g, sys.cocycle)
    rec.add(
        "cocycle-identities",
        "arrow labels form a homomorphism into the grading group",
        creport.ok,
        0.0,
        cause=creport.cause,
    )
    w = {aid: sys.haar.weight(g, aid) for aid in g.arrow_ids}
    rec.add(
        "haar-left-invariance",
        "source-determined weights satisfy the left-invariance identity",
        validate_left_invariance(g, w),
        ALG_TOL,
    )
    unit_arrows = set(id_tables(g)[2].values())
    non_units = [aid for aid in g.arrow_ids if aid not in unit_arrows]
    detected = 0
    trials = 0
    for _ in range(count):
        if not non_units:
            break
        victim = non_units[int(rng.integers(len(non_units)))]
        perturbed = dict(w)
        perturbed[victim] *= float(rng.uniform(1.3, 2.0))
        trials += 1
        if not validate_left_invariance(g, perturbed):
            detected += 1
    rec.add(
        "haar-perturbation-detected",
        "breaking the source-dependence of a weight breaks invariance",
        detected == trials,
        ALG_TOL,
        trials=trials,
        detected=detected,
    )
    e = unit_function(g, sys.haar)
    worst = 0.0
    for _ in range(count):
        f = random_function(g, rng)
        left = convolve(e, f, sys.haar)
        right = convolve(f, e, sys.haar)
        worst = max(
            worst,
            _rel(_max_abs(left.coeffs - f.coeffs), _max_abs(f.coeffs)),
            _rel(_max_abs(right.coeffs - f.coeffs), _max_abs(f.coeffs)),
        )
    rec.add(
        "convolution-unit",
        "the weighted sum of unit-arrow deltas is a two-sided unit",
        worst <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=worst,
        trials=count,
    )
    sub = sys.identity_fiber
    sub_ok = validate_groupoid(sub).ok
    wsub = {aid: sys.haar.weight(sub, aid) for aid in sub.arrow_ids}
    rec.add(
        "identity-fiber-subgroupoid",
        "the identity fiber is a subgroupoid carrying the restricted weights",
        sub_ok and validate_left_invariance(sub, wsub),
        0.0,
        arrows=sub.n_arrows,
    )


def reference_suite_algebra(doc: WorkbenchDocument, rec: _ReferenceRecorder, rng: np.random.Generator, count: int) -> None:
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    sub = sys.identity_fiber
    assoc = bilin = star = inorm_star = comp_sum = include_hom = 0.0
    for _ in range(count):
        a = random_function(g, rng)
        b = random_function(g, rng)
        c = random_function(g, rng)
        lhs = convolve(convolve(a, b, haar), c, haar)
        rhs = convolve(a, convolve(b, c, haar), haar)
        assoc = max(assoc, _rel(_max_abs(lhs.coeffs - rhs.coeffs), _max_abs(lhs.coeffs)))
        lin = convolve(a + 2j * b, c, haar)
        split = convolve(a, c, haar) + 2j * convolve(b, c, haar)
        bilin = max(bilin, _rel(_max_abs(lin.coeffs - split.coeffs), _max_abs(lin.coeffs)))
        anti = involute(convolve(a, b, haar))
        flip = convolve(involute(b), involute(a), haar)
        star = max(
            star,
            _rel(_max_abs(anti.coeffs - flip.coeffs), _max_abs(anti.coeffs)),
            _max_abs(involute(involute(a)).coeffs - a.coeffs),
            _max_abs(
                involute(1j * a + b).coeffs - (-1j * involute(a) + involute(b)).coeffs
            ),
        )
        inorm_star = max(inorm_star, _rel(abs(i_norm(involute(a), haar) - i_norm(a, haar)), i_norm(a, haar)))
        parts = graded_components(sys, a)
        total = np.zeros_like(a.coeffs)
        for part in parts.values():
            total = total + part.coeffs
        comp_sum = max(comp_sum, _max_abs(total - a.coeffs))
        f1 = random_function(sub, rng)
        f2 = random_function(sub, rng)
        lift = convolve(include_i(f1, g), include_i(f2, g), haar)
        lifted_prod = include_i(convolve(f1, f2, haar), g)
        include_hom = max(
            include_hom,
            _rel(_max_abs(lift.coeffs - lifted_prod.coeffs), _max_abs(lift.coeffs)),
            _max_abs(restrict_q(include_i(f1, g), sub).coeffs - f1.coeffs),
            _max_abs(include_i(involute(f1), g).coeffs - involute(include_i(f1, g)).coeffs),
        )
    rec.add("convolution-associativity", "convolution is associative", assoc <= ALG_TOL, ALG_TOL, max_rel_defect=assoc, trials=count)
    rec.add("convolution-bilinear", "convolution is bilinear", bilin <= ALG_TOL, ALG_TOL, max_rel_defect=bilin, trials=count)
    rec.add(
        "involution-star-algebra",
        "the involution is involutive and anti-multiplicative",
        star <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=star,
        trials=count,
    )
    rec.add(
        "i-norm-star-invariant",
        "the I-norm is invariant under the involution",
        inorm_star <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=inorm_star,
        trials=count,
    )
    rec.add(
        "graded-components-sum",
        "the fiber components sum back to the function exactly",
        comp_sum == 0.0,
        0.0,
        max_abs_defect=comp_sum,
        trials=count,
    )
    rec.add(
        "inclusion-star-homomorphism",
        "extension by zero is a *-homomorphism split by restriction",
        include_hom <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=include_hom,
        trials=count,
    )


def reference_delta_rule_defect(g: FiniteGroupoid, haar: HaarSystem) -> float:
    """max over all pairs (x, y) of |delta_x * delta_y - w(x) delta_{xy}|, one pair at a time."""
    delta_rule = 0.0
    for x in g.arrow_ids:
        dx = delta(g, x)
        for y in g.arrow_ids:
            prod = convolve(dx, delta(g, y), haar)
            z = g.compose_ids(x, y)
            expected_vec = np.zeros(g.n_arrows, dtype=np.complex128)
            if z is not None:
                expected_vec[g.index(z)] = haar.weight(g, x)
            delta_rule = max(delta_rule, _max_abs(prod.coeffs - expected_vec))
    return delta_rule


def reference_suite_norms(doc: WorkbenchDocument, rec: _ReferenceRecorder, rng: np.random.Generator, count: int) -> None:
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    cident = dominated = submult = star = 0.0
    positive = True
    for _ in range(count):
        a = random_function(g, rng)
        b = random_function(g, rng)
        n = cstar_norm(a, haar)
        nn = cstar_norm(convolve(involute(a), a, haar), haar)
        cident = max(cident, abs(nn - n * n) / (1.0 + n * n))
        ia = i_norm(a, haar)
        dominated = max(dominated, _rel(max(0.0, n - ia), ia))
        iab = i_norm(convolve(a, b, haar), haar)
        submult = max(submult, _rel(max(0.0, iab - ia * i_norm(b, haar)), ia * i_norm(b, haar)))
        star = max(star, _rel(abs(cstar_norm(involute(a), haar) - n), n))
        if not positivity_check(convolve(involute(a), a, haar), haar):
            positive = False
    rec.add("cstar-identity", "the C*-identity ||a^* a|| = ||a||^2", cident <= EIG_TOL, EIG_TOL, max_rel_defect=cident, trials=count)
    rec.add(
        "i-norm-dominates-cstar",
        "the C*-norm is bounded by the I-norm",
        dominated <= EIG_TOL,
        EIG_TOL,
        max_rel_defect=dominated,
        trials=count,
    )
    rec.add(
        "i-norm-submultiplicative",
        "the I-norm is submultiplicative",
        submult <= EIG_TOL,
        EIG_TOL,
        max_rel_defect=submult,
        trials=count,
    )
    rec.add("cstar-star-invariant", "the C*-norm is invariant under the involution", star <= EIG_TOL, EIG_TOL, max_rel_defect=star, trials=count)
    rec.add(
        "positivity-of-star-squares",
        "a^* a is positive in the regular representation",
        positive,
        EIG_TOL,
        trials=count,
    )
    e = unit_function(g, haar)
    unit_norm = abs(cstar_norm(e, haar) - 1.0)
    unit_spec = _max_abs(spectrum(e, haar) - 1.0)
    rec.add(
        "unit-norm-and-spectrum",
        "the convolution unit has norm one and spectrum {1}",
        max(unit_norm, unit_spec) <= EIG_TOL,
        EIG_TOL,
        norm_defect=unit_norm,
        spectrum_defect=unit_spec,
    )
    delta_norm = 0.0
    for x in g.arrows:
        expected = float(np.sqrt(haar.rho[x.src] * haar.rho[x.dst]))
        delta_norm = max(delta_norm, _rel(abs(cstar_norm(delta(g, x.id), haar) - expected), expected))
    delta_rule = reference_delta_rule_defect(g, haar)
    rec.add(
        "delta-norm-closed-form",
        "||delta_x|| is the geometric mean of the endpoint weights",
        delta_norm <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=delta_norm,
    )
    rec.add(
        "delta-convolution-rule",
        "delta_x * delta_y = w(x) delta_{xy} (zero when non-composable)",
        delta_rule <= ALG_TOL,
        ALG_TOL,
        max_abs_defect=delta_rule,
    )


def reference_suite_inclusion(doc: WorkbenchDocument, rec: _ReferenceRecorder, rng: np.random.Generator, count: int) -> None:
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    sub = sys.identity_fiber
    iso = 0.0
    for _ in range(count):
        f = random_function(sub, rng)
        inner = cstar_norm(f, haar)
        outer = cstar_norm(include_i(f, g), haar)
        iso = max(iso, _rel(abs(outer - inner), inner))
    rec.add(
        "inclusion-isometric",
        "extension by zero preserves the C*-norm of identity-fiber functions",
        iso <= EIG_TOL,
        EIG_TOL,
        max_rel_defect=iso,
        trials=count,
    )
    chain = u_defect = v_defect = 0.0
    checked = 0
    for _ in range(UNITARY_TRIALS):
        f = random_function(sub, rng)
        ambient = cstar_norm(include_i(f, g), haar)
        block_max = 0.0
        for ui, u in enumerate(g.units):
            dec = decompose_rep_U(sys, f, u)
            u_defect = max(u_defect, dec.max_abs_error)
            for block in dec.blocks.values():
                block_max = max(block_max, operator_norm(block))
            for k in np.unique(sys.fiber_index[g.src_index == ui]):
                wit = translate_rep_V(sys, f, u, sys.fiber_elements[k])
                v_defect = max(v_defect, wit.max_abs_error)
                checked += 1
        fiber_max = cstar_norm(f, haar)
        chain = max(chain, _rel(abs(block_max - ambient), ambient), _rel(abs(fiber_max - ambient), ambient))
    rec.add(
        "fiber-block-decomposition",
        "the representation of an included function is the direct sum of its fiber blocks",
        u_defect <= ALG_TOL,
        ALG_TOL,
        max_abs_defect=u_defect,
        trials=UNITARY_TRIALS,
    )
    rec.add(
        "included-norm-chain",
        "ambient norm = max fiber-block norm = identity-fiber norm",
        chain <= EIG_TOL,
        EIG_TOL,
        max_rel_defect=chain,
        trials=UNITARY_TRIALS,
    )
    rec.add(
        "fiber-translation-unitaries",
        "right translation by a fiber arrow conjugates blocks to the identity-fiber representation",
        v_defect <= ALG_TOL,
        ALG_TOL,
        max_abs_defect=v_defect,
        conjugations=checked,
    )


def reference_action_by_fiber_sum(sys: GradedGroupoid, a: GroupoidFunction, g_e: GroupoidFunction) -> np.ndarray:
    """The module action by its fiber-sum formula, a cross-check of a * i(g):
    (a.g)(x) = sum over {n in G_e : r(n) = s(x)} of a(xn) g(n^{-1}) w(n)."""
    g, sub = sys.groupoid, sys.identity_fiber
    xn = dense_compose(g)[:, [g.index(aid) for aid in sub.arrow_ids]]
    terms = a.coeffs[xn] * (g_e.coeffs[sub.invert_index] * sys.haar.weights(sub))
    return np.where(xn >= 0, terms, 0.0).sum(axis=1)


def reference_suite_module(doc: WorkbenchDocument, rec: _ReferenceRecorder, rng: np.random.Generator, count: int) -> None:
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    sub = sys.identity_fiber
    space = induced_space(sys)
    rec.add(
        "induced-gram-positive",
        "the induced-space Gram matrix is positive semidefinite",
        space.gram_min_eig >= -EIG_TOL * (1.0 + float(space.gram_eigenvalues[-1])),
        EIG_TOL,
        min_eigenvalue=space.gram_min_eig,
        rank=space.rank,
        dimension=space.dim_ambient,
    )
    slack = 1.0 + EIG_TOL
    sandwich_ok = True
    contraction = cauchy = 0.0
    positive = definite = True
    gap = 0.0
    worst_chain = None
    for _ in range(count):
        a = random_function(g, rng)
        q = cstar_norm(restrict_q(a, sub), haar)
        m = module_norm(sys, a)
        ell = L_operator_norm(sys, a)
        ia = i_norm(a, haar)
        n = cstar_norm(a, haar)
        if not (q <= m * slack + 1e-15 and m <= ell * slack + 1e-15 and ell <= ia * slack + 1e-15):
            sandwich_ok = False
            worst_chain = {"restriction": q, "module": m, "operator": ell, "i_norm": ia}
        contraction = max(contraction, _rel(max(0.0, q - n), n))
        gram = module_inner_product(sys, a, a)
        if not positivity_check(gram, haar):
            positive = False
        if m <= 1e-9 and n > 1e-6:
            definite = False
        b = random_function(g, rng)
        pairing = cstar_norm(module_inner_product(sys, a, b), haar)
        cauchy = max(cauchy, _rel(max(0.0, pairing - m * module_norm(sys, b)), pairing))
        gap = max(gap, _rel(abs(ell - n), n))
    rec.add(
        "norm-sandwich",
        "restriction norm <= module norm <= operator norm <= I-norm",
        sandwich_ok,
        EIG_TOL,
        trials=count,
        **({"worst": worst_chain} if worst_chain else {}),
    )
    rec.add(
        "restriction-contractive",
        "restriction to the identity fiber does not increase the C*-norm",
        contraction <= EIG_TOL,
        EIG_TOL,
        max_rel_defect=contraction,
        trials=count,
    )
    rec.add(
        "inner-product-positive",
        "<a, a> is positive in the identity-fiber representation, and zero only at zero",
        positive and definite,
        EIG_TOL,
        trials=count,
    )
    rec.add(
        "cauchy-schwarz",
        "||<a, b>|| <= ||a|| ||b|| for the module norm",
        cauchy <= EIG_TOL,
        EIG_TOL,
        max_rel_defect=cauchy,
        trials=count,
    )
    rec.add(
        "l-norm-equals-cstar",
        "the module operator norm of left convolution equals the C*-norm (induced regular representation)",
        gap <= EIG_TOL,
        EIG_TOL,
        max_rel_gap=gap,
        trials=count,
    )
    symmetry = linearity = action = path_gap = adjoint = isometry = 0.0
    for _ in range(SMALL_TRIALS):
        a = random_function(g, rng)
        b = random_function(g, rng)
        ge = random_function(sub, rng)
        he = random_function(sub, rng)
        lhs = involute(module_inner_product(sys, a, b))
        rhs = module_inner_product(sys, b, a)
        symmetry = max(symmetry, _rel(_max_abs(lhs.coeffs - rhs.coeffs), _max_abs(rhs.coeffs)))
        b_ge = module_action(sys, b, ge)
        lin_lhs = module_inner_product(sys, a, b_ge)
        lin_rhs = convolve(module_inner_product(sys, a, b), ge, haar)
        linearity = max(linearity, _rel(_max_abs(lin_lhs.coeffs - lin_rhs.coeffs), _max_abs(lin_rhs.coeffs)))
        a_ge = module_action(sys, a, ge)
        act_lhs = module_action(sys, a, convolve(ge, he, haar))
        act_rhs = module_action(sys, a_ge, he)
        action = max(action, _rel(_max_abs(act_lhs.coeffs - act_rhs.coeffs), _max_abs(act_rhs.coeffs)))
        e_sub = unit_function(sub, haar)
        action = max(action, _rel(_max_abs(module_action(sys, a, e_sub).coeffs - a.coeffs), _max_abs(a.coeffs)))
        for f, f_ge in ((a, a_ge), (b, b_ge)):
            path_gap = max(path_gap, _rel(_max_abs(reference_action_by_fiber_sum(sys, f, ge) - f_ge.coeffs), _max_abs(f_ge.coeffs)))
        a2 = random_function(g, rng)
        d = random_function(g, rng)
        adj_lhs = module_inner_product(sys, convolve(a, b, haar), convolve(a2, d, haar))
        adj_rhs = module_inner_product(sys, b, convolve(convolve(involute(a), a2, haar), d, haar))
        adjoint = max(adjoint, _rel(_max_abs(adj_lhs.coeffs - adj_rhs.coeffs), _max_abs(adj_rhs.coeffs)))
        f = random_function(sub, rng)
        lifted = include_i(f, g)
        target = cstar_norm(f, haar)
        isometry = max(
            isometry,
            _rel(abs(module_norm(sys, lifted) - target), target),
            _rel(abs(L_operator_norm(sys, lifted) - target), target),
        )
    rec.add(
        "inner-product-symmetry",
        "<a, b>^* = <b, a>",
        symmetry <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=symmetry,
        trials=SMALL_TRIALS,
    )
    rec.add(
        "inner-product-right-linear",
        "<a, b.g> = <a, b> * g over the identity-fiber algebra",
        linearity <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=linearity,
        trials=SMALL_TRIALS,
    )
    rec.add(
        "module-action-associative",
        "the action is associative and unital, and its two evaluation paths agree",
        action <= ALG_TOL and path_gap <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=action,
        max_path_gap=path_gap,
        trials=SMALL_TRIALS,
    )
    rec.add(
        "module-adjoint-identity",
        "<L_a b, L_c d> = <b, L_{a^* c} d>",
        adjoint <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=adjoint,
        trials=SMALL_TRIALS,
    )
    rec.add(
        "module-isometry-on-included",
        "module and operator norms of included functions equal the identity-fiber norm",
        isometry <= EIG_TOL,
        EIG_TOL,
        max_rel_defect=isometry,
        trials=SMALL_TRIALS,
    )


def reference_suite_expectation(doc: WorkbenchDocument, rec: _ReferenceRecorder, rng: np.random.Generator, count: int) -> None:
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    sub = sys.identity_fiber
    basis_defect = 0.0
    for aid, in_identity_fiber in zip(g.arrow_ids, sys.identity_mask):
        image = expectation_P(sys, delta(g, aid))
        expected = delta(g, aid).coeffs if in_identity_fiber else np.zeros(g.n_arrows)
        basis_defect = max(basis_defect, _max_abs(image.coeffs - expected))
    rec.add(
        "expectation-projection",
        "the expectation is the identity on the identity component and zero on the others",
        basis_defect == 0.0,
        0.0,
        max_abs_defect=basis_defect,
    )
    idem = bimodule = 0.0
    contraction = 0.0
    positive = True
    for _ in range(count):
        a = random_function(g, rng)
        once = expectation_P(sys, a)
        idem = max(idem, _max_abs(expectation_P(sys, once).coeffs - once.coeffs))
        contraction = max(contraction, _rel(max(0.0, cstar_norm(once, haar) - cstar_norm(a, haar)), cstar_norm(a, haar)))
        square = convolve(involute(a), a, haar)
        if not positivity_check(expectation_P(sys, square), haar):
            positive = False
        b = include_i(random_function(sub, rng), g)
        c = include_i(random_function(sub, rng), g)
        lhs = expectation_P(sys, convolve(convolve(involute(b), a, haar), c, haar))
        rhs = convolve(convolve(involute(b), expectation_P(sys, a), haar), c, haar)
        bimodule = max(bimodule, _rel(_max_abs(lhs.coeffs - rhs.coeffs), _max_abs(rhs.coeffs)))
    rec.add("expectation-idempotent", "applying the expectation twice changes nothing", idem == 0.0, 0.0, max_abs_defect=idem, trials=count)
    rec.add(
        "expectation-contractive",
        "the expectation does not increase the C*-norm",
        contraction <= EIG_TOL,
        EIG_TOL,
        max_rel_defect=contraction,
        trials=count,
    )
    rec.add(
        "expectation-positive",
        "the expectation of a^* a is positive",
        positive,
        EIG_TOL,
        trials=count,
    )
    rec.add(
        "expectation-bimodule",
        "P(b^* a c) = b^* P(a) c for identity-fiber b, c",
        bimodule <= ALG_TOL,
        ALG_TOL,
        max_rel_defect=bimodule,
        trials=count,
    )
    ruy_defect = 0.0
    ruy_ok = True
    for _ in range(SMALL_TRIALS):
        a = random_function(g, rng)
        for aid in g.arrow_ids:
            b = delta(g, aid)
            ruy_defect = max(ruy_defect, eq_ruy_defect(sys, a, b))
            if not check_eq_ruy(sys, a, b):
                ruy_ok = False
    rec.add(
        "fiber-sandwich-identity",
        "i(<b, a*b>) = b^* P(a) b for fiber-supported b",
        ruy_ok,
        ALG_TOL,
        max_abs_defect=ruy_defect,
        trials=SMALL_TRIALS * g.n_arrows,
    )
    functions = [zero(g)] + [random_function(g, rng) for _ in range(count)]
    records = kernel_check(sys, functions)
    kernel_ok = all(r.consistent for r in records)
    kernel_ok = kernel_ok and records[0].l_zero and records[0].p_zero and records[0].a_zero
    kernel_ok = kernel_ok and all(not (r.l_zero or r.p_zero or r.a_zero) for r in records[1:])
    rec.add(
        "kernel-characterization",
        "L_a vanishes iff P(a^* a) vanishes iff a vanishes",
        kernel_ok,
        EIG_TOL,
        functions=len(functions),
    )


def reference_suite_bundle(doc: WorkbenchDocument, rec: _ReferenceRecorder, rng: np.random.Generator, count: int) -> None:
    sys = doc.system
    family = graded_subspaces(sys)
    axioms = reference_check_grading_axioms(family, seed=int(rng.integers(2**31)))
    rec.add(
        "grading-axioms",
        "fiber subspaces multiply and adjoint into the right fibers, span, and are independent",
        axioms.ok,
        0.0,
        cause=axioms.cause,
        fibers=len(family.keys),
    )
    topo = reference_check_topological_grading(family, seed=int(rng.integers(2**31)), count=count)
    rec.add(
        "topological-grading",
        "the expectation is the norm-one projection singling out the identity component",
        topo.ok,
        EIG_TOL,
        cause=topo.cause,
        **dict(topo.witness),
    )
    taut = reference_bundle_rep_check(family, reference_tautological_rep(sys), seed=int(rng.integers(2**31)), count=3)
    rec.add(
        "bundle-representation",
        "the fiberwise regular representation is a *-representation bounded by the I-norm",
        taut.ok,
        ALG_TOL,
        cause=taut.cause,
        **dict(taut.witness),
    )


REFERENCE = {name: globals()[f"reference_suite_{name}"] for name in SUITES}


@pytest.fixture(scope="module")
def docs():
    return {d.name: d for d in builtin_corpus(seed=0) if d.name in INSTANCES}


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("suite", SUITES)
def test_batched_suite_matches_reference(docs, name, suite):
    doc = docs[name]
    records = []
    rec = _Recorder(suite=suite, instance=doc.name, seed=7)
    _SUITE_FN[suite](doc, rec, 5)
    records.append([r.to_json() for r in rec.records])
    rec = _ReferenceRecorder(suite=suite, instance=doc.name, seed=7)
    REFERENCE[suite](doc, rec, np.random.default_rng([7, _instance_key(doc.name), SUITES.index(suite)]), 5)
    records.append([r.to_json() for r in rec.records])
    batched, reference = records
    assert batched == reference


def _relabelled(family: GradedSubspaceFamily, moves: dict[str, str]) -> GradedSubspaceFamily:
    """The family with each arrow of ``moves`` listed under its new key."""
    bases: dict[str, list[str]] = {key: [a for a in ids if a not in moves] for key, ids in family.bases.items()}
    for aid, key in moves.items():
        bases[key].append(aid)
    return GradedSubspaceFamily(family.system, {key: tuple(ids) for key, ids in bases.items()})


@pytest.mark.parametrize("name", INSTANCES)
def test_topological_grading_reads_the_family_labels(docs, name):
    """An arrow listed under the wrong key fails the projection check the
    way the reference reports it, whichever way it is mislabelled."""
    sys = docs[name].system
    family = graded_subspaces(sys)
    identity_key = sys.group.element_key(sys.group.identity)
    other_key = next(key for key in family.keys if key != identity_key)
    identity_arrow = family.bases[identity_key][-1]
    other_arrow = family.bases[other_key][0]
    families = [
        family,
        _relabelled(family, {identity_arrow: other_key}),
        _relabelled(family, {other_arrow: identity_key}),
        _relabelled(family, {identity_arrow: other_key, other_arrow: identity_key}),
    ]
    for fam in families:
        got = check_topological_grading(fam, seed=3, count=5)
        want = reference_check_topological_grading(fam, seed=3, count=5)
        assert (got.ok, got.cause, dict(got.witness)) == (want.ok, want.cause, dict(want.witness))
    assert [check_topological_grading(fam, seed=3, count=5).ok for fam in families] == [True, False, False, False]


def _misrouted(g: FiniteGroupoid, monkeypatch: pytest.MonkeyPatch, pairs: list[int], to: int) -> None:
    """Send the convolution terms of the given composable pairs to bin ``to``,
    in the pair table and in its interleaved convolution bins, while
    ``compose_index``, which reads the products by position, keeps the
    unpatched ones."""
    xs, ys, zs = g.composable_pairs()
    zs = zs.copy()
    zs[pairs] = to
    bins = np.stack([2 * zs, 2 * zs + 1], axis=-1).ravel()
    patch_method(monkeypatch, g, "composable_pairs", lambda: (xs, ys, zs))
    patch_method(monkeypatch, g, "convolution_bins", lambda: bins)


@pytest.mark.parametrize("name", sorted(d.name for d in builtin_corpus(seed=0)))
def test_delta_rule_names_the_reference_defect(name, monkeypatch):
    """The labelled check of ``delta-convolution-rule`` reads exactly 0.0 on
    the corpus and, with one misrouted product, or two of one row sent to the
    same wrong bin, the reference's largest pair defect."""
    doc = next(d for d in builtin_corpus(seed=0) if d.name == name)
    g, haar = doc.system.groupoid, doc.system.haar
    assert _delta_rule_defect(g, haar) == reference_delta_rule_defect(g, haar) == 0.0
    xs, _, zs = g.composable_pairs()
    last = len(xs) - 1
    row = np.flatnonzero(xs == xs[last])
    for pairs in ([last], row[-2:].tolist()):
        with monkeypatch.context() as patch:
            _misrouted(g, patch, pairs, (zs[last] + 1) % g.n_arrows)
            want = reference_delta_rule_defect(g, haar)
            assert want > ALG_TOL
            assert _delta_rule_defect(g, haar) == want


@settings(max_examples=12, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(twisted_tables())
def test_delta_rule_names_the_reference_defect_on_twisted_tables(g):
    """As on the corpus, on drawn tables with shuffled arrows (so the swept
    rows and pairs come in an order no corpus layout has) and Haar weights
    that differ from unit to unit: 0.0 unmodified (the convolution sums the
    pair table's terms, so the rule holds exactly even on a loop table), the
    reference's largest pair defect with one misrouted product or two of one
    row."""
    haar = haar_from_weights(g, {u: 1.0 + k / 3 for k, u in enumerate(g.units)})
    assert _delta_rule_defect(g, haar) == 0.0
    xs, _, zs = g.composable_pairs()
    at = len(xs) // 2
    row = np.flatnonzero(xs == xs[at])
    for pairs in ([at], row[-2:].tolist()):
        with pytest.MonkeyPatch.context() as patch:
            _misrouted(g, patch, pairs, (zs[at] + 1) % g.n_arrows)
            want = reference_delta_rule_defect(g, haar)
            assert want > ALG_TOL
            assert _delta_rule_defect(g, haar) == want


def _report(report: CheckReport) -> tuple:
    return report.ok, report.cause, dict(report.witness)


@pytest.mark.parametrize("name", sorted(d.name for d in builtin_corpus(seed=0)))
def test_grading_axioms_in_one_convolution_name_the_reference_witness(name, monkeypatch):
    """All fibers' random products in one convolution report what the
    per-fiber loop reports: unmodified, with a unit arrow labelled off the
    identity (the basis check fails first), and with a convolution that leaks into one arrow of
    a fiber where the product cannot live, for the first such (beta, gamma)
    pair and for the adjoint alone."""
    doc = next(d for d in builtin_corpus(seed=0) if d.name == name)
    sys = doc.system
    family = graded_subspaces(sys)
    for seed in (0, 5):
        assert _report(check_grading_axioms(family, seed)) == _report(reference_check_grading_axioms(family, seed)) == (True, None, {})
    if len(sys.fiber_keys) == 1:
        return
    g = sys.groupoid
    labels = dict(zip(g.arrow_ids, (sys.fiber_elements[k] for k in sys.fiber_index)))
    unit = g.unit_arrow_index[-1]  # labelled off the identity, so that c(u) c(u) != c(u)
    labels[g.arrow_ids[unit]] = sys.fiber_elements[sys.fiber_index[~sys.identity_mask][0]]
    corrupted = graded_subspaces(GradedGroupoid(g, sys.haar, Cocycle(sys.group, labels)))
    got = check_grading_axioms(corrupted)
    assert not got.ok and _report(got) == _report(reference_check_grading_axioms(corrupted))
    convolve_stack, involute_stack = algebra.convolve_stack, algebra.involute_stack
    leak = int(np.flatnonzero(sys.fiber_index != sys.fiber_index[0])[-1])  # off the fiber of arrow 0

    def leaky(g_, a, b, haar):
        out = convolve_stack(g_, a, b, haar)
        return out + np.where(np.arange(g_.n_arrows) == leak, (np.abs(a).sum(axis=-1) > 0)[..., None] * 1e-3, 0.0)

    def leaky_star(g_, a):
        return np.where(np.arange(g_.n_arrows) == leak, 1.0, involute_stack(g_, a))

    for patches in ({"convolve_stack": leaky}, {"involute_stack": leaky_star}):
        with monkeypatch.context() as patch:
            for attr, fn in patches.items():
                patch.setattr(algebra, attr, fn)
                patch.setattr(bundle, attr, fn)
            got, want = check_grading_axioms(family, 3), reference_check_grading_axioms(family, 3)
            assert not got.ok and _report(got) == _report(want)
