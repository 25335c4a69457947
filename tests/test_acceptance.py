"""Acceptance gate: the ten exit criteria, each at its stated tolerance.

Every criterion runs over the full built-in corpus (32 graded instances,
counting and non-counting Haar weights) with fixed seeds, implemented
directly against the library API rather than through the verification
suites, and prints one PASS/FAIL line.  Tolerances: 1e-9 relative for
eigenvalue-derived quantities, 1e-12 for exact algebraic identities.
"""

import time

import numpy as np

from groupoid_workbench.algebra import (
    convolve,
    delta,
    from_map,
    i_norm,
    include_i,
    involute,
    random_function,
    restrict_q,
    zero,
)
from groupoid_workbench.bundle import (
    check_grading_axioms,
    check_topological_grading,
    graded_subspaces,
)
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.hilbert_module import (
    L_operator_norm,
    check_eq_ruy,
    kernel_check,
    module_inner_product,
    module_norm,
)
from groupoid_workbench.representation import (
    cstar_norm,
    decompose_rep_U,
    rep_blocks,
    translate_rep_V,
)
from groupoid_workbench.verify import run_verification

EIG = 1e-9
EXACT = 1e-12

CORPUS = builtin_corpus(seed=0)


def _line(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} acceptance {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_corpus_preconditions():
    ok = len(CORPUS) >= 12 and all(doc.groupoid.n_arrows <= 500 for doc in CORPUS)
    weighted = sum(1 for doc in CORPUS if any(v != 1.0 for v in doc.raw["haar"]["rho"].values()))
    _line("corpus shape: >=12 graded instances at desk scale", ok and weighted >= 1, f"{len(CORPUS)} instances, {weighted} weighted")


def test_criterion_1_isometric_inclusion():
    worst = 0.0
    for idx, doc in enumerate(CORPUS):
        sys = doc.system
        rng = np.random.default_rng([101, idx])
        for _ in range(100):
            f = random_function(sys.identity_fiber, rng)
            inner = cstar_norm(f, sys.haar)
            outer = cstar_norm(include_i(f, sys.groupoid), sys.haar)
            worst = max(worst, abs(outer - inner) / (1.0 + inner))
    _line("1: isometric inclusion", worst <= EIG, f"worst rel defect {worst:.2e}")


def test_criterion_2_norm_sandwich():
    slack = 1.0 + EIG
    ok = True
    for idx, doc in enumerate(CORPUS):
        sys = doc.system
        rng = np.random.default_rng([102, idx])
        for _ in range(100):
            a = random_function(sys.groupoid, rng)
            q = cstar_norm(restrict_q(a, sys.identity_fiber), sys.haar)
            m = module_norm(sys, a)
            ell = L_operator_norm(sys, a)
            ia = i_norm(a, sys.haar)
            if not (q <= m * slack + 1e-15 and m <= ell * slack + 1e-15 and ell <= ia * slack + 1e-15):
                ok = False
    _line("2: norm sandwich restriction <= module <= operator <= I-norm", ok)


def test_criterion_3_restriction_contraction():
    worst = 0.0
    for idx, doc in enumerate(CORPUS):
        sys = doc.system
        rng = np.random.default_rng([103, idx])
        for _ in range(100):
            a = random_function(sys.groupoid, rng)
            q = cstar_norm(restrict_q(a, sys.identity_fiber), sys.haar)
            n = cstar_norm(a, sys.haar)
            worst = max(worst, (q - n) / (1.0 + n))
    _line("3: restriction is a contraction", worst <= EIG, f"worst margin {worst:.2e}")


def test_criterion_4_cstar_identity_and_submultiplicative_i_norm():
    worst_c = worst_i = 0.0
    for idx, doc in enumerate(CORPUS):
        sys = doc.system
        rng = np.random.default_rng([104, idx])
        for _ in range(100):
            a = random_function(sys.groupoid, rng)
            b = random_function(sys.groupoid, rng)
            n = cstar_norm(a, sys.haar)
            nn = cstar_norm(convolve(involute(a), a, sys.haar), sys.haar)
            worst_c = max(worst_c, abs(nn - n * n) / (1.0 + n * n))
            bound = i_norm(a, sys.haar) * i_norm(b, sys.haar)
            worst_i = max(worst_i, (i_norm(convolve(a, b, sys.haar), sys.haar) - bound) / (1.0 + bound))
    _line(
        "4: C*-identity and submultiplicative I-norm",
        worst_c <= EIG and worst_i <= EIG,
        f"identity {worst_c:.2e}, submult margin {worst_i:.2e}",
    )


def test_criterion_5_decomposition_unitaries():
    worst = 0.0
    weighted_covered = False
    for idx, doc in enumerate(CORPUS):
        sys = doc.system
        g = sys.groupoid
        if any(v != 1.0 for v in doc.raw["haar"]["rho"].values()):
            weighted_covered = True
        rng = np.random.default_rng([105, idx])
        for _ in range(20):
            a_e = random_function(sys.identity_fiber, rng)
            for u in g.units:
                dec = decompose_rep_U(sys, a_e, u)
                worst = max(worst, dec.max_abs_error)
                present = {}
                for aid in g.arrows_with_src(u):
                    el = sys.cocycle.of(aid)
                    present.setdefault(sys.group.element_key(el), el)
                for el in present.values():
                    wit = translate_rep_V(sys, a_e, u, el)
                    worst = max(worst, wit.max_abs_error)
    _line(
        "5: block and translation unitary identities",
        worst <= EXACT and weighted_covered,
        f"worst entry defect {worst:.2e}, non-counting instances covered: {weighted_covered}",
    )


def test_criterion_6_fiber_sandwich_identity():
    ok = True
    for idx, doc in enumerate(CORPUS):
        sys = doc.system
        rng = np.random.default_rng([106, idx])
        for _ in range(20):
            a = random_function(sys.groupoid, rng)
            for aid in sys.groupoid.arrow_ids:
                if not check_eq_ruy(sys, a, delta(sys.groupoid, aid)):
                    ok = False
    _line("6: i(<b, a*b>) = b* P(a) b on fiber-supported basis elements", ok)


def test_criterion_7_kernel_lemma():
    ok = True
    for idx, doc in enumerate(CORPUS):
        sys = doc.system
        rng = np.random.default_rng([107, idx])
        functions = [zero(sys.groupoid)] + [random_function(sys.groupoid, rng) for _ in range(20)]
        records = kernel_check(sys, functions)
        ok = ok and all(r.consistent for r in records)
        ok = ok and records[0].l_zero and records[0].p_zero and records[0].a_zero
        ok = ok and all(not r.a_zero for r in records[1:])
    _line("7: kernel equivalence L_a = 0 <=> P(a*a) = 0 <=> a = 0", ok)


def test_criterion_8_grading_axioms_and_projection():
    ok = True
    worst_ratio = 0.0
    for idx, doc in enumerate(CORPUS):
        family = graded_subspaces(doc.system)
        axioms = check_grading_axioms(family, seed=idx)
        topo = check_topological_grading(family, seed=idx, count=200)
        ok = ok and axioms.ok and topo.ok
        worst_ratio = max(worst_ratio, float(topo.witness.get("sup_ratio", 0.0)))
    _line(
        "8: grading axioms and norm-one projection",
        ok and worst_ratio <= 1.0 + EIG,
        f"sup contraction ratio {worst_ratio:.12f}",
    )


def test_criterion_9_inner_product_positivity():
    ok = True
    worst = 0.0
    for idx, doc in enumerate(CORPUS):
        sys = doc.system
        rng = np.random.default_rng([109, idx])
        for _ in range(100):
            a = random_function(sys.groupoid, rng)
            gram = module_inner_product(sys, a, a)
            norm = cstar_norm(gram, sys.haar)
            min_eig = min(
                float(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0])
                for b in rep_blocks(gram, sys.haar).values()
                if b.size
            )
            worst = max(worst, -min_eig - EIG * (1.0 + norm))
            if min_eig < -EIG * (1.0 + norm):
                ok = False
            if module_norm(sys, a) <= EIG and cstar_norm(a, sys.haar) > 1e-6:
                ok = False
    _line("9: positivity and definiteness of <a, a>", ok, f"worst eigenvalue margin {worst:.2e}")


def test_criterion_10_closed_form_oracles():
    worst_rule = worst_norm = 0.0
    for doc in CORPUS:
        sys = doc.system
        g = sys.groupoid
        for x in g.arrows:
            expected = float(np.sqrt(sys.haar.rho[x.src] * sys.haar.rho[x.dst]))
            worst_norm = max(worst_norm, abs(cstar_norm(delta(g, x.id), sys.haar) - expected) / (1.0 + expected))
        for x in g.arrow_ids:
            dx = delta(g, x)
            for y in g.arrow_ids:
                prod = convolve(dx, delta(g, y), sys.haar)
                expected_vec = np.zeros(g.n_arrows, dtype=np.complex128)
                z = g.compose_ids(x, y)
                if z is not None:
                    expected_vec[g.index(z)] = sys.haar.weight(g, x)
                worst_rule = max(worst_rule, float(np.abs(prod.coeffs - expected_vec).max()))
    # character oracle on the two-element group instances
    by_name = {doc.name: doc for doc in CORPUS}
    worst_char = 0.0
    for name in ("cyclic2-identity-counting", "cyclic2-identity-weighted"):
        sys = by_name[name].system
        rho = sys.haar.rho["u"]
        rng = np.random.default_rng(110)
        for _ in range(50):
            alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = from_map(sys.groupoid, {"g0": alpha, "g1": beta})
            expected = rho * max(abs(alpha + beta), abs(alpha - beta))
            worst_char = max(worst_char, abs(cstar_norm(a, sys.haar) - expected) / (1.0 + expected))
    _line(
        "10: closed-form delta and character oracles",
        worst_rule <= EXACT and worst_norm <= EXACT and worst_char <= EXACT,
        f"delta rule {worst_rule:.2e}, delta norm {worst_norm:.2e}, characters {worst_char:.2e}",
    )


def test_full_verification_under_time_budget():
    start = time.time()
    report = run_verification(CORPUS, suite="all", seed=0)
    elapsed = time.time() - start
    ok = report["summary"]["failed"] == 0 and report["summary"]["total"] > 0 and elapsed < 60.0
    _line(
        "full verify --suite all on the corpus",
        ok,
        f"{report['summary']['passed']}/{report['summary']['total']} checks in {elapsed:.1f}s",
    )
