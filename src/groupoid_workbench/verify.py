"""Property verification suites and the machine-readable report.

Each suite drives one cluster of verified properties over a parsed document
with seeded random functions (coefficients drawn uniformly from [-1, 1],
real vector first, then imaginary).  A check produces one record aggregating
all its trials: the worst observed defect, the tolerance it was compared
against, and the seed, so a failure reproduces from the report alone.

Records are sorted by (suite, instance, check) before emission and all
numbers come from deterministic dense eigendecompositions, so the JSON
report is byte-identical for a fixed (document, seed, version).

Tolerances are those of :mod:`validation`: ``ALG_TOL`` relative for exact
algebraic identities, ``EIG_TOL`` relative for anything passing through an
eigensolve.  A check passes iff every defect it records is at most the
tolerance it records (and its verdict, where it has one, holds).
"""

from __future__ import annotations

import itertools
import json
import math
import zlib
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .algebra import (
    chunked,
    convolve_stack,
    delta_products,
    delta_rows,
    graded_component_stack,
    i_norm_stack,
    include_stack,
    involute_stack,
    labelled_sweep,
    random_stacks,
    restrict_stack,
    row_chunks,
    unit_function,
)
from .bundle import (
    bundle_rep_check,
    check_grading_axioms,
    check_topological_grading,
    graded_subspaces,
    tautological_rep,
)
from .document import WorkbenchDocument
from .grading import GradedGroupoid, validate_cocycle
from .groupoid import left_invariance_stack, validate_groupoid
from .hilbert_module import (
    L_operator_norm_stack,
    action_stack,
    eq_ruy_delta_defect_stack,
    eq_ruy_tolerance,
    expectation_stack,
    induced_space,
    inner_product_stack,
    kernel_verdicts,
    module_norm_stack,
)
from .representation import (
    cstar_norm,
    cstar_norm_stack,
    fiber_block_stacks,
    positivity_stack,
    spectrum,
)
from .validation import ALG_TOL, EIG_TOL, NONZERO_NORM, norm_chain

UNITARY_TRIALS = 20
SMALL_TRIALS = 20

DEFAULT_COUNTS = {
    "haar": 20,
    "algebra": 50,
    "norms": 100,
    "inclusion": 100,
    "module": 100,
    "expectation": 20,
    "bundle": 200,
}
SUITES = tuple(DEFAULT_COUNTS)


class CheckRecord(NamedTuple):
    """One verified property on one instance, with its worst-case witness."""

    suite: str
    check: str
    prop: str
    instance: str
    status: str
    tolerance: float
    seed: int
    witness: Mapping[str, Any] = MappingProxyType({})

    def to_json(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "check": self.check,
            "property": self.prop,
            "instance": self.instance,
            "status": self.status,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "witness": self.witness or {},  # a dict for JSON in place of the read-only default
        }


class _Recorder:
    def __init__(self, suite: str, instance: str, seed: int) -> None:
        self.suite = suite
        self.instance = instance
        self.seed = seed
        self.records: list[CheckRecord] = []

    def rng(self) -> np.random.Generator:
        """The suite's own generator, seeded by (seed, instance, suite)."""
        return np.random.default_rng([self.seed, _instance_key(self.instance), SUITES.index(self.suite)])

    def add(
        self, check: str, prop: str, tolerance: float, ok: bool = True, defects: dict[str, float] | None = None, **witness: Any
    ) -> None:
        """Record a check that passes iff ``ok`` holds and every one of its
        ``defects`` is at most ``tolerance``; the defects join the witness."""
        defects = defects or {}
        ok = ok and all(d <= tolerance for d in defects.values())
        witness = {k: _jsonable(v) for k, v in {**defects, **witness}.items()}
        status = "pass" if ok else "fail"
        self.records.append(CheckRecord(self.suite, check, prop, self.instance, status, tolerance, self.seed, witness))


def _jsonable(v: Any) -> Any:
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


def _rel(defect: Any, scale: Any) -> Any:
    return defect / (1.0 + scale)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """The largest modulus in every row of a (T, n) stack."""
    return np.abs(x).max(axis=1)


def _worst(*defects: Any) -> float:
    """The largest of zero and every given defect (numbers or trial arrays);
    NaN when any defect is NaN, so that no comparison with a tolerance passes."""
    values = [float(np.max(d, initial=0.0)) for d in defects]
    return math.nan if any(math.isnan(v) for v in values) else max(0.0, *values)


# -- suites -----------------------------------------------------------------
#
# Each suite draws its trials in one block per loop (``random_stacks``), in
# the order a trial-by-trial loop would draw them, and evaluates every trial
# at once on the (T, n) coefficient stacks.


def _suite_haar(doc: WorkbenchDocument, rec: _Recorder, count: int) -> None:
    rng = rec.rng()
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    report = validate_groupoid(g)
    rec.add(
        "groupoid-axioms",
        "compose/invert/unit tables satisfy the groupoid axioms",
        0.0,
        ok=report.ok,
        cause=report.cause,
    )
    creport = validate_cocycle(g, sys.cocycle)
    rec.add(
        "cocycle-identities",
        "arrow labels form a homomorphism into the grading group",
        0.0,
        ok=creport.ok,
        cause=creport.cause,
    )
    w = haar.weights(g)
    rec.add(
        "haar-left-invariance",
        "source-determined weights satisfy the left-invariance identity",
        ALG_TOL,
        ok=bool(left_invariance_stack(g, w[None])[0]),
    )
    non_units = np.flatnonzero(~np.isin(np.arange(g.n_arrows), g.unit_arrow_index))
    # an integer and a uniform per trial: drawn one after the other, as the
    # generator interleaves them
    trials = count if len(non_units) else 0
    draws = np.array([(rng.integers(len(non_units)), rng.uniform(1.3, 2.0)) for _ in range(trials)]).reshape(trials, 2)
    perturbed = np.tile(w, (trials, 1))
    perturbed[np.arange(trials), non_units[draws[:, 0].astype(np.intp)]] *= draws[:, 1]
    detected = int((~left_invariance_stack(g, perturbed)).sum())
    rec.add(
        "haar-perturbation-detected",
        "breaking the source-dependence of a weight breaks invariance",
        ALG_TOL,
        ok=detected == trials,
        trials=trials,
        detected=detected,
    )
    e = unit_function(g, haar).coeffs[None]
    (f,) = random_stacks(rng, count, g)
    scale = _max_abs(f)
    left = convolve_stack(g, e, f, haar)
    right = convolve_stack(g, f, e, haar)
    worst = _worst(_rel(_max_abs(left - f), scale), _rel(_max_abs(right - f), scale))
    rec.add(
        "convolution-unit",
        "the weighted sum of unit-arrow deltas is a two-sided unit",
        ALG_TOL,
        defects={"max_rel_defect": worst},
        trials=count,
    )
    sub = sys.identity_fiber
    rec.add(
        "identity-fiber-subgroupoid",
        "the identity fiber is a subgroupoid carrying the restricted weights",
        0.0,
        ok=validate_groupoid(sub).ok and bool(left_invariance_stack(sub, haar.weights(sub)[None])[0]),
        arrows=sub.n_arrows,
    )


def _suite_algebra(doc: WorkbenchDocument, rec: _Recorder, count: int) -> None:
    rng = rec.rng()
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    sub = sys.identity_fiber

    def conv(x: np.ndarray, y: np.ndarray, on: Any = g) -> np.ndarray:
        return convolve_stack(on, x, y, haar)

    def star(x: np.ndarray, on: Any = g) -> np.ndarray:
        return involute_stack(on, x)

    def include(x: np.ndarray) -> np.ndarray:
        return include_stack(sub, x, g)

    a, b, c, f1, f2 = random_stacks(rng, count, g, g, g, sub, sub)
    lhs = conv(conv(a, b), c)
    rhs = conv(a, conv(b, c))
    assoc = _worst(_rel(_max_abs(lhs - rhs), _max_abs(lhs)))
    lin = conv(a + b * 2j, c)
    split = conv(a, c) + conv(b, c) * 2j
    bilin = _worst(_rel(_max_abs(lin - split), _max_abs(lin)))
    anti = star(conv(a, b))
    flip = conv(star(b), star(a))
    star_defect = _worst(
        _rel(_max_abs(anti - flip), _max_abs(anti)),
        _max_abs(star(star(a)) - a),
        _max_abs(star(a * 1j + b) - (star(a) * -1j + star(b))),
    )
    ia = i_norm_stack(g, a, haar)
    inorm_star = _worst(_rel(np.abs(i_norm_stack(g, star(a), haar) - ia), ia))
    comp_sum = _worst(chunked(lambda x: _max_abs(graded_component_stack(sys, x).sum(axis=0) - x), len(sys.fiber_keys) * g.n_arrows, a))
    lift = conv(include(f1), include(f2))
    lifted_prod = include(conv(f1, f2, sub))
    include_hom = _worst(
        _rel(_max_abs(lift - lifted_prod), _max_abs(lift)),
        _max_abs(restrict_stack(g, include(f1), sub) - f1),
        _max_abs(include(star(f1, sub)) - star(include(f1))),
    )
    rec.add("convolution-associativity", "convolution is associative", ALG_TOL, defects={"max_rel_defect": assoc}, trials=count)
    rec.add("convolution-bilinear", "convolution is bilinear", ALG_TOL, defects={"max_rel_defect": bilin}, trials=count)
    rec.add(
        "involution-star-algebra",
        "the involution is involutive and anti-multiplicative",
        ALG_TOL,
        defects={"max_rel_defect": star_defect},
        trials=count,
    )
    rec.add(
        "i-norm-star-invariant",
        "the I-norm is invariant under the involution",
        ALG_TOL,
        defects={"max_rel_defect": inorm_star},
        trials=count,
    )
    rec.add(
        "graded-components-sum",
        "the fiber components sum back to the function exactly",
        0.0,
        defects={"max_abs_defect": comp_sum},
        trials=count,
    )
    rec.add(
        "inclusion-star-homomorphism",
        "extension by zero is a *-homomorphism split by restriction",
        ALG_TOL,
        defects={"max_rel_defect": include_hom},
        trials=count,
    )


def _delta_rule_defect(g: Any, haar: Any) -> float:
    """max over all pairs (x, y) of |delta_x * delta_y - w(x) delta_{xy}|, by
    :func:`labelled_sweep` on delta_x * c against :func:`delta_products`."""

    def residual(x: np.ndarray, c: np.ndarray) -> np.ndarray:
        return _max_abs(convolve_stack(g, delta_rows(x, g.n_arrows), c, haar) - delta_products(g, x, c, haar))

    return _worst(np.fromiter((defect for *_, defect in labelled_sweep(g.n_arrows, g.n_arrows, residual, 0.0)), float))


def _suite_norms(doc: WorkbenchDocument, rec: _Recorder, count: int) -> None:
    rng = rec.rng()
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    a, b = random_stacks(rng, count, g, g)
    n = cstar_norm_stack(g, a, haar)
    star_square = convolve_stack(g, involute_stack(g, a), a, haar)
    nn = cstar_norm_stack(g, star_square, haar)
    cident = _worst(np.abs(nn - n * n) / (1.0 + n * n))
    ia = i_norm_stack(g, a, haar)
    dominated = _worst(_rel(np.maximum(0.0, n - ia), ia))
    iab = i_norm_stack(g, convolve_stack(g, a, b, haar), haar)
    iaib = ia * i_norm_stack(g, b, haar)
    submult = _worst(_rel(np.maximum(0.0, iab - iaib), iaib))
    star = _worst(_rel(np.abs(cstar_norm_stack(g, involute_stack(g, a), haar) - n), n))
    positive = bool(positivity_stack(g, star_square, haar).all())
    rec.add("cstar-identity", "the C*-identity ||a^* a|| = ||a||^2", EIG_TOL, defects={"max_rel_defect": cident}, trials=count)
    rec.add(
        "i-norm-dominates-cstar",
        "the C*-norm is bounded by the I-norm",
        EIG_TOL,
        defects={"max_rel_defect": dominated},
        trials=count,
    )
    rec.add(
        "i-norm-submultiplicative",
        "the I-norm is submultiplicative",
        EIG_TOL,
        defects={"max_rel_defect": submult},
        trials=count,
    )
    rec.add("cstar-star-invariant", "the C*-norm is invariant under the involution", EIG_TOL, defects={"max_rel_defect": star}, trials=count)
    rec.add(
        "positivity-of-star-squares",
        "a^* a is positive in the regular representation",
        EIG_TOL,
        ok=positive,
        trials=count,
    )
    e = unit_function(g, haar)
    unit_norm = abs(cstar_norm(e, haar) - 1.0)
    unit_spec = float(np.abs(spectrum(e, haar) - 1.0).max())
    rec.add(
        "unit-norm-and-spectrum",
        "the convolution unit has norm one and spectrum {1}",
        EIG_TOL,
        defects={"norm_defect": unit_norm, "spectrum_defect": unit_spec},
    )
    w = haar.weights(g)
    expected = np.sqrt(w * w[g.invert_index])
    norms = np.concatenate([cstar_norm_stack(g, delta_rows(x, g.n_arrows), haar) for x in row_chunks(g.n_arrows, g.n_arrows)])
    delta_norm = _worst(_rel(np.abs(norms - expected), expected))
    delta_rule = _delta_rule_defect(g, haar)
    rec.add(
        "delta-norm-closed-form",
        "||delta_x|| is the geometric mean of the endpoint weights",
        ALG_TOL,
        defects={"max_rel_defect": delta_norm},
    )
    rec.add(
        "delta-convolution-rule",
        "delta_x * delta_y = w(x) delta_{xy} (zero when non-composable)",
        ALG_TOL,
        defects={"max_abs_defect": delta_rule},
    )


def _suite_inclusion(doc: WorkbenchDocument, rec: _Recorder, count: int) -> None:
    rng = rec.rng()
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    sub = sys.identity_fiber
    (f,) = random_stacks(rng, count, sub)
    inner = cstar_norm_stack(sub, f, haar)
    outer = cstar_norm_stack(g, include_stack(sub, f, g), haar)
    iso = _worst(_rel(np.abs(outer - inner), inner))
    rec.add(
        "inclusion-isometric",
        "extension by zero preserves the C*-norm of identity-fiber functions",
        EIG_TOL,
        defects={"max_rel_defect": iso},
        trials=count,
    )
    (f,) = random_stacks(rng, UNITARY_TRIALS, sub)
    u_defect, block_max, v_defect = fiber_block_stacks(sys, f).T
    ambient = cstar_norm_stack(g, include_stack(sub, f, g), haar)
    fiber_max = cstar_norm_stack(sub, f, haar)
    chain = _worst(_rel(np.abs(block_max - ambient), ambient), _rel(np.abs(fiber_max - ambient), ambient))
    rec.add(
        "fiber-block-decomposition",
        "the representation of an included function is the direct sum of its fiber blocks",
        ALG_TOL,
        defects={"max_abs_defect": _worst(u_defect)},
        trials=UNITARY_TRIALS,
    )
    rec.add(
        "included-norm-chain",
        "ambient norm = max fiber-block norm = identity-fiber norm",
        EIG_TOL,
        defects={"max_rel_defect": chain},
        trials=UNITARY_TRIALS,
    )
    unit_fibers = len(np.unique(g.src_index * len(sys.fiber_keys) + sys.fiber_index))  # nonempty (unit, fiber) pairs
    rec.add(
        "fiber-translation-unitaries",
        "right translation by a fiber arrow conjugates blocks to the identity-fiber representation",
        ALG_TOL,
        defects={"max_abs_defect": _worst(v_defect)},
        conjugations=UNITARY_TRIALS * unit_fibers,
    )


def _action_by_fiber_sum(sys: GradedGroupoid, a: np.ndarray, g_e: np.ndarray) -> np.ndarray:
    """The module action by its fiber-sum formula, a cross-check of a * i(g),
    trial by trial: (a.g)(x) = sum over {n in G_e : r(n) = s(x)} of
    a(xn) g(n^{-1}) w(n)."""
    g, sub = sys.groupoid, sys.identity_fiber
    xn = g.compose_index(np.arange(g.n_arrows)[:, None], sub.embedding(g))
    weighted = g_e[:, sub.invert_index] * sys.haar.weights(sub)
    return chunked(lambda x, y: np.where(xn >= 0, x[:, xn] * y[:, None, :], 0.0).sum(axis=2), xn.size, a, weighted)


def _suite_module(doc: WorkbenchDocument, rec: _Recorder, count: int) -> None:
    rng = rec.rng()
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    sub = sys.identity_fiber
    space = induced_space(sys)
    rec.add(
        "induced-gram-positive",
        "the induced-space Gram matrix is positive semidefinite",
        EIG_TOL,
        ok=space.gram_min_eig >= -EIG_TOL * (1.0 + float(space.gram_eigenvalues[-1])),
        min_eigenvalue=space.gram_min_eig,
        rank=space.rank,
        dimension=space.dim_ambient,
    )

    def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return inner_product_stack(sys, x, y)

    a, b = random_stacks(rng, count, g, g)
    q = cstar_norm_stack(sub, restrict_stack(g, a, sub), haar)
    m = module_norm_stack(sys, a)
    ell = L_operator_norm_stack(sys, a)
    ia = i_norm_stack(g, a, haar)
    n = cstar_norm_stack(g, a, haar)
    broken = np.flatnonzero(~norm_chain(q, m, ell, ia))
    worst_chain = None
    if len(broken):
        last = broken[-1]
        worst_chain = {"restriction": q[last], "module": m[last], "operator": ell[last], "i_norm": ia[last]}
    contraction = _worst(_rel(np.maximum(0.0, q - n), n))
    positive = bool(positivity_stack(sub, inner(a, a), haar).all())
    definite = not ((m <= EIG_TOL) & (n > NONZERO_NORM)).any()
    pairing = cstar_norm_stack(sub, inner(a, b), haar)
    cauchy = _worst(_rel(np.maximum(0.0, pairing - m * module_norm_stack(sys, b)), pairing))
    gap = _worst(_rel(np.abs(ell - n), n))
    rec.add(
        "norm-sandwich",
        "restriction norm <= module norm <= operator norm <= I-norm",
        EIG_TOL,
        ok=not len(broken),
        trials=count,
        **({"worst": worst_chain} if worst_chain else {}),
    )
    rec.add(
        "restriction-contractive",
        "restriction to the identity fiber does not increase the C*-norm",
        EIG_TOL,
        defects={"max_rel_defect": contraction},
        trials=count,
    )
    rec.add(
        "inner-product-positive",
        "<a, a> is positive in the identity-fiber representation, and zero only at zero",
        EIG_TOL,
        ok=positive and definite,
        trials=count,
    )
    rec.add(
        "cauchy-schwarz",
        "||<a, b>|| <= ||a|| ||b|| for the module norm",
        EIG_TOL,
        defects={"max_rel_defect": cauchy},
        trials=count,
    )
    rec.add(
        "l-norm-equals-cstar",
        "the module operator norm of left convolution equals the C*-norm (induced regular representation)",
        EIG_TOL,
        defects={"max_rel_gap": gap},
        trials=count,
    )
    a, b, ge, he, a2, d, f = random_stacks(rng, SMALL_TRIALS, g, g, sub, sub, g, g, sub)
    lhs = involute_stack(sub, inner(a, b))
    rhs = inner(b, a)
    symmetry = _worst(_rel(_max_abs(lhs - rhs), _max_abs(rhs)))
    b_ge = action_stack(sys, b, ge)
    lin_lhs = inner(a, b_ge)
    lin_rhs = convolve_stack(sub, inner(a, b), ge, haar)
    linearity = _worst(_rel(_max_abs(lin_lhs - lin_rhs), _max_abs(lin_rhs)))
    a_ge = action_stack(sys, a, ge)
    act_lhs = action_stack(sys, a, convolve_stack(sub, ge, he, haar))
    act_rhs = action_stack(sys, a_ge, he)
    e_sub = unit_function(sub, haar).coeffs[None]
    action = _worst(
        _rel(_max_abs(act_lhs - act_rhs), _max_abs(act_rhs)),
        _rel(_max_abs(action_stack(sys, a, e_sub) - a), _max_abs(a)),
    )
    path_gap = _worst(
        *(_rel(_max_abs(_action_by_fiber_sum(sys, x, ge) - x_ge), _max_abs(x_ge)) for x, x_ge in ((a, a_ge), (b, b_ge)))
    )
    adj_lhs = inner(convolve_stack(g, a, b, haar), convolve_stack(g, a2, d, haar))
    adj_rhs = inner(b, convolve_stack(g, convolve_stack(g, involute_stack(g, a), a2, haar), d, haar))
    adjoint = _worst(_rel(_max_abs(adj_lhs - adj_rhs), _max_abs(adj_rhs)))
    lifted = include_stack(sub, f, g)
    target = cstar_norm_stack(sub, f, haar)
    isometry = _worst(
        _rel(np.abs(module_norm_stack(sys, lifted) - target), target),
        _rel(np.abs(L_operator_norm_stack(sys, lifted) - target), target),
    )
    rec.add(
        "inner-product-symmetry",
        "<a, b>^* = <b, a>",
        ALG_TOL,
        defects={"max_rel_defect": symmetry},
        trials=SMALL_TRIALS,
    )
    rec.add(
        "inner-product-right-linear",
        "<a, b.g> = <a, b> * g over the identity-fiber algebra",
        ALG_TOL,
        defects={"max_rel_defect": linearity},
        trials=SMALL_TRIALS,
    )
    rec.add(
        "module-action-associative",
        "the action is associative and unital, and its two evaluation paths agree",
        ALG_TOL,
        defects={"max_rel_defect": action, "max_path_gap": path_gap},
        trials=SMALL_TRIALS,
    )
    rec.add(
        "module-adjoint-identity",
        "<L_a b, L_c d> = <b, L_{a^* c} d>",
        ALG_TOL,
        defects={"max_rel_defect": adjoint},
        trials=SMALL_TRIALS,
    )
    rec.add(
        "module-isometry-on-included",
        "module and operator norms of included functions equal the identity-fiber norm",
        EIG_TOL,
        defects={"max_rel_defect": isometry},
        trials=SMALL_TRIALS,
    )


def _suite_expectation(doc: WorkbenchDocument, rec: _Recorder, count: int) -> None:
    rng = rec.rng()
    sys = doc.system
    g = sys.groupoid
    haar = sys.haar
    sub = sys.identity_fiber

    def expect(x: np.ndarray) -> np.ndarray:
        return expectation_stack(sys, x)

    def conv(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return convolve_stack(g, x, y, haar)

    def moved(x: np.ndarray) -> np.ndarray:
        deltas = delta_rows(x, g.n_arrows)
        return _max_abs(expect(deltas) - np.where(sys.identity_mask[x, None], deltas, 0.0))

    basis_defect = _worst(*(moved(x) for x in row_chunks(g.n_arrows, g.n_arrows)))
    rec.add(
        "expectation-projection",
        "the expectation is the identity on the identity component and zero on the others",
        0.0,
        defects={"max_abs_defect": basis_defect},
    )
    a, b, c = random_stacks(rng, count, g, sub, sub)
    b, c = include_stack(sub, b, g), include_stack(sub, c, g)
    once = expect(a)
    idem = _worst(_max_abs(expect(once) - once))
    norm_a = cstar_norm_stack(g, a, haar)
    contraction = _worst(_rel(np.maximum(0.0, cstar_norm_stack(g, once, haar) - norm_a), norm_a))
    positive = bool(positivity_stack(g, expect(conv(involute_stack(g, a), a)), haar).all())
    b_star = involute_stack(g, b)
    lhs = expect(conv(conv(b_star, a), c))
    rhs = conv(conv(b_star, once), c)
    bimodule = _worst(_rel(_max_abs(lhs - rhs), _max_abs(rhs)))
    rec.add("expectation-idempotent", "applying the expectation twice changes nothing", 0.0, defects={"max_abs_defect": idem}, trials=count)
    rec.add(
        "expectation-contractive",
        "the expectation does not increase the C*-norm",
        EIG_TOL,
        defects={"max_rel_defect": contraction},
        trials=count,
    )
    rec.add("expectation-positive", "the expectation of a^* a is positive", EIG_TOL, ok=positive, trials=count)
    rec.add(
        "expectation-bimodule",
        "P(b^* a c) = b^* P(a) c for identity-fiber b, c",
        ALG_TOL,
        defects={"max_rel_defect": bimodule},
        trials=count,
    )
    # every trial's a against every delta b, chunked over the deltas; every delta has largest modulus 1
    (a,) = random_stacks(rng, SMALL_TRIALS, g)
    defects = np.hstack([eq_ruy_delta_defect_stack(sys, a, v) for v in row_chunks(g.n_arrows, g.n_arrows)])
    ruy_defect = _worst(defects)
    ruy_ok = bool((defects <= eq_ruy_tolerance(a, np.ones((1, 1)))[:, None]).all())
    rec.add(
        "fiber-sandwich-identity",
        "i(<b, a*b>) = b^* P(a) b for fiber-supported b",
        ALG_TOL,
        ok=ruy_ok,
        max_abs_defect=ruy_defect,
        trials=SMALL_TRIALS * g.n_arrows,
    )
    (functions,) = random_stacks(rng, count, g)
    functions = np.concatenate([np.zeros((1, g.n_arrows)), functions])
    _, zeros, consistent = kernel_verdicts(sys, functions)
    kernel_ok = bool(consistent.all() and zeros[:, 0].all() and not zeros[:, 1:].any())
    rec.add(
        "kernel-characterization",
        "L_a vanishes iff P(a^* a) vanishes iff a vanishes",
        EIG_TOL,
        ok=kernel_ok,
        functions=len(functions),
    )


def _suite_bundle(doc: WorkbenchDocument, rec: _Recorder, count: int) -> None:
    rng = rec.rng()
    sys = doc.system
    family = graded_subspaces(sys)
    axioms = check_grading_axioms(family, seed=int(rng.integers(2**31)))
    rec.add(
        "grading-axioms",
        "fiber subspaces multiply and adjoint into the right fibers, span, and are independent",
        0.0,
        ok=axioms.ok,
        cause=axioms.cause,
        fibers=len(family.keys),
    )
    topo = check_topological_grading(family, seed=int(rng.integers(2**31)), count=count)
    rec.add(
        "topological-grading",
        "the expectation is the norm-one projection singling out the identity component",
        EIG_TOL,
        ok=topo.ok,
        cause=topo.cause,
        **dict(topo.witness),
    )
    taut = bundle_rep_check(family, tautological_rep(sys), seed=int(rng.integers(2**31)), count=3)
    rec.add(
        "bundle-representation",
        "the fiberwise regular representation is a *-representation bounded by the I-norm",
        ALG_TOL,
        ok=taut.ok,
        cause=taut.cause,
        **dict(taut.witness),
    )


_SUITE_FN: dict[str, Callable[[WorkbenchDocument, _Recorder, int], None]] = {
    "haar": _suite_haar,
    "algebra": _suite_algebra,
    "norms": _suite_norms,
    "inclusion": _suite_inclusion,
    "module": _suite_module,
    "expectation": _suite_expectation,
    "bundle": _suite_bundle,
}


def _instance_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def run_document(
    doc: WorkbenchDocument, suite: str = "all", seed: int = 0, count: int | None = None
) -> list[CheckRecord]:
    """Run one suite (or all) on one document; records carry worst-case witnesses."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"Unknown suite {suite!r}; choose from {('all',) + SUITES}.")
    names = SUITES if suite == "all" else (suite,)
    records: list[CheckRecord] = []
    for name in names:
        rec = _Recorder(suite=name, instance=doc.name, seed=seed)
        _SUITE_FN[name](doc, rec, count if count is not None else DEFAULT_COUNTS[name])
        records.extend(rec.records)
    return records


def run_verification(
    docs: Sequence[WorkbenchDocument], suite: str = "all", seed: int = 0, count: int | None = None
) -> dict[str, Any]:
    """Run suites over many documents and assemble the machine-readable report."""
    records: list[CheckRecord] = []
    for doc in docs:
        records.extend(run_document(doc, suite=suite, seed=seed, count=count))
    records.sort(key=lambda r: (r.suite, r.instance, r.check))
    passed = sum(1 for r in records if r.status == "pass")
    return {
        "format_version": "1",
        "tool": {"name": "groupoid-workbench", "version": __version__},
        "suite": suite,
        "seed": seed,
        "count": count,
        "instances": sorted(doc.name for doc in docs),
        "notes": [
            "full and reduced C*-norms coincide at this scale (the direct sum of "
            "regular representations is faithful), so a single C*-norm is computed",
            "module completions are trivial here; the only degeneracy handled is the "
            "null-space quotient of the induced Gram matrix",
            "one family of grading subspaces is reported; its closures in the full "
            "and reduced completions agree at this scale",
        ],
        "summary": {"total": len(records), "passed": passed, "failed": len(records) - passed},
        "checks": [r.to_json() for r in records],
    }


def report_to_json(report: dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline,
    i.e. ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``.

    That indenting encoder runs in Python, node by node.  When every check
    is a record from :meth:`CheckRecord.to_json` whose fields and witness
    values are all scalars, the checks are written instead from two runs of
    the compact C encoder, one over all field values and one over the
    witnesses; the text is the same.
    """
    checks = report.get("checks")
    flat = type(checks) is list and bool(checks) and all(type(c) is dict and c.keys() == _CHECK_KEYS for c in checks)
    if flat:
        values = [c[k] for c in checks for k in _CHECK_FIELDS]
        witnesses = [c["witness"] for c in checks]
        flat = all(type(w) is dict for w in witnesses) and _SCALAR_TYPES.issuperset(
            map(type, itertools.chain(values, *map(dict.values, witnesses)))
        )
    if not flat:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    # the C encoder escapes every newline inside a string, so splitting at
    # newlines splits the text into the values
    texts = json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")
    width = len(_CHECK_FIELDS)
    entries = [
        _CHECK_ENTRY % (*texts[i * width : (i + 1) * width], "{\n        " + w + "\n      }" if w else "{}")
        for i, w in enumerate(_flat_dict_items(witnesses, "\n        "))
    ]
    head = json.dumps({**report, "checks": []}, indent=2, sort_keys=True)
    # a newline and two spaces open the lines of top-level keys only
    return head.replace('\n  "checks": []', '\n  "checks": [\n    ' + ",\n    ".join(entries) + "\n  ]", 1) + "\n"


_CHECK_FIELDS = ("check", "instance", "property", "seed", "status", "suite", "tolerance")  # sorted, all before "witness"
_CHECK_KEYS = frozenset(_CHECK_FIELDS + ("witness",))
_CHECK_ENTRY = "{" + "".join(f'\n      "{k}": %s,' for k in _CHECK_FIELDS) + '\n      "witness": %s\n    }'
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _flat_dict_items(dicts: list[dict[str, Any]], pad: str) -> list[str]:
    """The items of each of a list of dicts of scalars, sorted, one per line
    at indentation ``pad``, as the indenting encoder writes them between the
    braces (empty for an empty dict).  Newlines inside strings are escaped
    and no dict item starts with a brace, so the separator between two dicts
    of the list, a closing brace, the item separator and an opening brace,
    occurs nowhere else."""
    sep = "," + pad
    return json.dumps(dicts, sort_keys=True, separators=(sep, ": "))[2:-2].split("}" + sep + "{")
