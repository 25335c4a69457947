"""Trial stacks against one-function calls, bit for bit.

Every suite evaluates its seeded trials as (T, n) coefficient stacks.  The
one-function API calls the same kernels with T = 1, so a stack must give
exactly the values of T separate calls, whatever T is and however the trial
axis is chunked; and the block draw must reproduce the sequential draws.
The convolution kernel sums with one ``bincount`` over interleaved (real,
imaginary) bins; ``reference_convolve`` is the ``np.add.at`` sum it replaced
first, and ``reference_convolve_stack`` and ``reference_i_norm_stack`` the
two-``bincount`` kernels (real and imaginary parts, direct and inverted
fiber sums apart) it replaced next.  All must agree bitwise (as uint64
views, so the signs of zeros count too).  The inclusion suite's all-units
kernel ``fiber_block_stacks`` must give, bit for bit, the largest
deviations of the one-function ``decompose_rep_U`` and ``translate_rep_V``
and the largest ``operator_norm`` of a fiber block over every unit and
fiber, on the corpus and on drawn twisted pair groupoids with shuffled
arrows, and the expectation suite's delta gathers the four-convolution
``eq_ruy_defect_stack``.

The memory test runs the module suite on the Z-graded pair groupoid with
n = 10 (100 arrows) under ``tracemalloc``: without the chunk budget, one
chunk of left-convolution matrices alone would hold 100 x 100 x 100 complex
entries (16 MB).
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from groupoid_workbench import algebra, hilbert_module
from groupoid_workbench.algebra import (
    GroupoidFunction,
    convolve,
    convolve_stack,
    i_norm,
    i_norm_stack,
    include_i,
    include_stack,
    involute,
    involute_stack,
    random_function,
    random_stacks,
    restrict_q,
    restrict_stack,
)
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import parse_document
from groupoid_workbench.groupoid import validate_groupoid
from groupoid_workbench.hilbert_module import (
    L_operator_norm,
    L_operator_norm_stack,
    eq_ruy_defect_stack,
    eq_ruy_delta_defect_stack,
    inner_product_stack,
    module_inner_product,
    module_norm,
    module_norm_stack,
)
from groupoid_workbench.representation import (
    cstar_norm,
    cstar_norm_stack,
    decompose_rep_U,
    fiber_block_stacks,
    operator_norm,
    positivity_check,
    positivity_stack,
    translate_rep_V,
)
from groupoid_workbench.verify import _Recorder, _suite_module

from conftest import patch_method
from test_bundle import _twisted_system
from test_hilbert_module import pair_system, trivially_graded_cyclic
from test_structure_certificate import twisted_tables

CORPUS = builtin_corpus(seed=0)
TRIALS = (1, 3, 100)


def reference_convolve(a: GroupoidFunction, b: GroupoidFunction, haar) -> np.ndarray:
    """The convolution sum as ``np.add.at`` over the composable pairs."""
    g = a.groupoid
    ys, ts, zs = g.composable_pairs()
    out = np.zeros(g.n_arrows, dtype=np.complex128)
    np.add.at(out, zs, a.coeffs[ys] * b.coeffs[ts] * haar.weights(g)[ys])
    return out


def _bin_rows(values: np.ndarray, index: np.ndarray, width: int) -> np.ndarray:
    """Row by row, ``out[..., index[j]] += values[..., j]`` in the order of
    j, by ``bincount``, for real values (..., m) with at most one leading axis."""
    lead = values.shape[:-1]
    bins = (index + width * np.arange(lead[0])[:, None]).ravel() if lead else index
    return np.bincount(bins, values.ravel(), width * (lead[0] if lead else 1)).reshape(lead + (width,))


def reference_convolve_stack(g, a: np.ndarray, b: np.ndarray, haar) -> np.ndarray:
    """The convolution with the real and imaginary parts summed by two
    ``bincount`` calls."""
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    ys, ts, zs = g.composable_pairs()
    w = haar.weights(g)[ys]

    def kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        terms = x.take(ys, axis=-1) * y.take(ts, axis=-1) * w
        out = np.empty(x.shape, dtype=np.complex128)
        out.real = _bin_rows(terms.real, zs, g.n_arrows)
        out.imag = _bin_rows(terms.imag, zs, g.n_arrows)
        return out

    return algebra.chunked(kernel, len(zs), a, b)


def reference_i_norm_stack(g, a: np.ndarray, haar) -> np.ndarray:
    """The I-norm with the direct and inverted fiber sums apart."""
    w = haar.weights(g)
    mags = np.abs(a)
    direct = _bin_rows(mags * w, g.dst_index, g.n_units)
    inverted = _bin_rows(mags.take(g.invert_index, axis=-1) * w, g.dst_index, g.n_units)
    return np.maximum(direct.max(axis=-1), inverted.max(axis=-1))


def bitwise(x, y) -> bool:
    """Equal shapes, dtypes and bits, the signs of zeros included."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and bool((x.view(np.uint64) == y.view(np.uint64)).all())


def draws(g, seed: int, count: int) -> tuple[np.ndarray, list[GroupoidFunction]]:
    """The same trials as one block and as sequential draws."""
    (stack,) = random_stacks(np.random.default_rng(seed), count, g)
    rng = np.random.default_rng(seed)
    return stack, [random_function(g, rng) for _ in range(count)]


def identical(stack: np.ndarray, values) -> bool:
    """Bitwise equality (NaN-free data), shapes included."""
    expected = np.array([v.coeffs if isinstance(v, GroupoidFunction) else v for v in values])
    return stack.shape == expected.shape and bool((stack == expected).all())


@pytest.mark.parametrize("doc", CORPUS, ids=lambda d: d.name)
@pytest.mark.parametrize("on_identity_fiber", [False, True], ids=["G", "G_e"])
def test_algebra_and_norm_kernels_match_scalar_calls(doc, on_identity_fiber):
    sys = doc.system
    g = sys.identity_fiber if on_identity_fiber else sys.groupoid
    haar = sys.haar
    for count in TRIALS:
        a, fa = draws(g, 1000 + count, count)
        b, fb = draws(g, 2000 + count, count)
        assert identical(a, fa), "block draw differs from sequential random_function draws"
        product = convolve_stack(g, a, b, haar)
        assert identical(product, [convolve(x, y, haar) for x, y in zip(fa, fb)])
        assert identical(product, [reference_convolve(x, y, haar) for x, y in zip(fa, fb)])
        assert identical(convolve_stack(g, a[:1], b, haar), [convolve(fa[0], y, haar) for y in fb])
        assert identical(involute_stack(g, a), [involute(x) for x in fa])
        assert identical(i_norm_stack(g, a, haar), [i_norm(x, haar) for x in fa])
        assert identical(cstar_norm_stack(g, a, haar), [cstar_norm(x, haar) for x in fa])
        square = convolve_stack(g, involute_stack(g, a), a, haar)
        squares = [GroupoidFunction(g, row) for row in square]
        assert identical(positivity_stack(g, square, haar), [positivity_check(x, haar) for x in squares])
        assert identical(positivity_stack(g, a, haar), [positivity_check(x, haar) for x in fa])


@pytest.mark.parametrize("doc", CORPUS, ids=lambda d: d.name)
def test_module_kernels_match_scalar_calls(doc):
    sys = doc.system
    g, sub = sys.groupoid, sys.identity_fiber
    for count in TRIALS:
        a, fa = draws(g, 3000 + count, count)
        b, fb = draws(g, 4000 + count, count)
        f, ff = draws(sub, 5000 + count, count)
        assert identical(inner_product_stack(sys, a, b), [module_inner_product(sys, x, y) for x, y in zip(fa, fb)])
        assert identical(module_norm_stack(sys, a), [module_norm(sys, x) for x in fa])
        assert identical(L_operator_norm_stack(sys, a), [L_operator_norm(sys, x) for x in fa])
        assert identical(include_stack(sub, f, g), [include_i(x, g) for x in ff])
        assert identical(restrict_stack(g, a, sub), [restrict_q(x, sub) for x in fa])


@pytest.mark.parametrize("doc", CORPUS, ids=lambda d: d.name)
@pytest.mark.parametrize("on_identity_fiber", [False, True], ids=["G", "G_e"])
def test_one_bincount_matches_two(doc, on_identity_fiber, monkeypatch):
    sys = doc.system
    g = sys.identity_fiber if on_identity_fiber else sys.groupoid
    haar = sys.haar
    a, _ = draws(g, 8000, 37)
    b, _ = draws(g, 8001, 37)
    deltas = np.eye(g.n_arrows, dtype=np.complex128)
    pairs = [
        (a[0], b[0]),  # one function
        (a[:1], b[:1]),
        (a, b),
        (a.real.copy(), b.real.copy()),  # real-valued
        (a[:1], b),  # broadcast
        (a, b[:1]),
        (deltas, np.resize(b, deltas.shape)),
        (deltas, deltas.real),
    ]
    bins = []
    kernel = algebra._bin_rows
    monkeypatch.setattr(algebra, "_bin_rows", lambda values, b, width: bins.append(b) or kernel(values, b, width))
    for x, y in pairs:
        assert bitwise(convolve_stack(g, x, y, haar), reference_convolve_stack(g, x, y, haar))
    assert all(b is g.convolution_bins() for b in bins)  # built once, with the pair table
    for x in (a[0], a[:1], a, a.real.copy()):
        assert bitwise(np.asarray(i_norm_stack(g, x, haar)), np.asarray(reference_i_norm_stack(g, x, haar)))


def misincluded(sys, patch) -> bool:
    """Make extension by zero write the last identity-fiber coefficient onto
    the first arrow outside the identity fiber (when the grading is trivial,
    write the coefficients onto the identity-fiber arrows in reverse order),
    by patching the inclusion map that ``include_stack`` reads.  Whether an
    arrow outside the identity fiber took the coefficient."""
    sub, g = sys.identity_fiber, sys.groupoid
    embedding = sub.embedding(g).copy()
    outside = np.flatnonzero(~sys.identity_mask)
    if len(outside):
        embedding[-1] = outside[0]
    else:
        embedding = embedding[::-1]
    patch_method(patch, sub, "embedding", lambda parent: embedding)
    return bool(len(outside))


def assert_fiber_blocks_match(sys, f, ff) -> np.ndarray:
    """The three reductions of ``fiber_block_stacks`` on the stack f against
    the one-function references over every unit and fiber of its trials ff,
    bit for bit: the largest ``decompose_rep_U`` deviation, the largest
    ``operator_norm`` of its blocks and the largest ``translate_rep_V``
    deviation; returns the stack's (T, 3) reductions."""
    g = sys.groupoid
    got = fiber_block_stacks(sys, f)
    fibers = [(u, sys.fiber_elements[k]) for i, u in enumerate(g.units) for k in np.unique(sys.fiber_index[g.src_index == i])]
    want = []
    for x in ff:
        decompositions = [decompose_rep_U(sys, x, u) for u in g.units]
        want.append(
            [
                max(dec.max_abs_error for dec in decompositions),
                max(operator_norm(block) for dec in decompositions for block in dec.blocks.values()),
                max(translate_rep_V(sys, x, u, gamma).max_abs_error for u, gamma in fibers),
            ]
        )
    assert bitwise(got, np.array(want))
    return got


@pytest.mark.parametrize("doc", CORPUS, ids=lambda d: d.name)
@pytest.mark.parametrize("corrupted", [False, True], ids=["", "misincluded"])
def test_fiber_blocks_match_scalar_calls(doc, corrupted, monkeypatch):
    """The reductions of the all-units kernel against the one-function
    decomposition, block norms and translation, bit for bit.  The
    deviations are exactly zero on a graded groupoid, so they are also
    compared under an inclusion that puts an identity-fiber coefficient on
    an arrow outside the identity fiber, where they are not."""
    sys = doc.system
    outside = corrupted and misincluded(sys, monkeypatch)
    f, ff = draws(sys.identity_fiber, 6000, 3)
    errors, _, translations = assert_fiber_blocks_match(sys, f, ff).T
    if not corrupted:
        assert errors.max() == 0.0 and translations.max() == 0.0
    elif sys.identity_fiber.n_arrows > 1:
        assert (errors.min() > 0.0) == outside and translations.max() > 0.0


@settings(max_examples=12, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(twisted_tables())
def test_fiber_blocks_match_scalar_calls_on_twisted_tables(g):
    """As on the corpus, on drawn twisted pair groupoids with shuffled
    arrows that are groupoids, graded by r(x) - s(x): each segment holds
    the arrows of one isotropy group, and a translation by an arrow between
    two units is no identity.  The trials are taken a trial or a few at a
    time here."""
    assume(validate_groupoid(g).ok)
    sys = _twisted_system(g, True)
    f, ff = draws(sys.identity_fiber, 6001, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "TRIAL_CHUNK_ENTRIES", 64)
        errors, _, translations = assert_fiber_blocks_match(sys, f, ff).T
        assert errors.max() == 0.0 and translations.max() == 0.0
        if sys.identity_mask.all():
            return
        assert misincluded(sys, patch)
        errors, _, translations = assert_fiber_blocks_match(sys, f, ff).T
    assert errors.min() > 0.0 and translations.max() > 0.0


def pair14_system():
    from pair_documents import pair_documents

    from groupoid_workbench.document import document_from_dict

    return document_from_dict(pair_documents(14)["pair14-builtin"]).system


DELTA_SYSTEMS = [pytest.param(lambda doc=doc: doc.system, id=doc.name) for doc in CORPUS] + [
    pytest.param(pair14_system, id="pair14-builtin"),
    pytest.param(lambda: pair_system(6, False), id="pair6-one-fiber"),
    pytest.param(lambda: trivially_graded_cyclic(6), id="cyclic6-trivial"),
]


@pytest.mark.parametrize("system", DELTA_SYSTEMS)
@pytest.mark.parametrize("leaky", [False, True], ids=["P", "P-keeps-one-more-fiber"])
def test_delta_gathers_match_four_convolutions(system, leaky, monkeypatch):
    """``fiber-sandwich-identity`` on the isotropy support against the same
    identity by convolutions, on every (trial, delta) row, bit for bit, on
    the corpus, the Z-graded pair(14), a one-fiber pair groupoid and a
    trivially graded group (G_e = G; there every delta has |G| pairs).  The
    identity holds exactly on a groupoid, so the defects are also compared
    with an expectation that keeps one more fiber; where that fiber has an
    isotropy arrow x, so that v x v^{-1} is defined for the deltas v into
    s(x), the defects are not zero."""
    sys = system()
    n = sys.groupoid.n_arrows
    g = sys.groupoid
    isotropy = np.flatnonzero(~sys.identity_mask & (g.src_index == g.dst_index))
    if leaky:
        other = np.concatenate([isotropy, np.flatnonzero(~sys.identity_mask), [0]])[0]
        keep = sys.identity_mask | (sys.fiber_index == sys.fiber_index[other])
        monkeypatch.setattr(hilbert_module, "expectation_stack", lambda _, x: np.where(keep, x, 0.0))
    count = 3 if n <= 25 else 1
    a, _ = draws(sys.groupoid, 9000, count)
    want = eq_ruy_defect_stack(sys, np.repeat(a, n, axis=0), np.tile(np.eye(n, dtype=np.complex128), (count, 1)))
    assert bitwise(eq_ruy_delta_defect_stack(sys, a, np.arange(n)).ravel(), want)
    assert (want > 0).any() == (leaky and len(isotropy) > 0)


@pytest.mark.parametrize("name", ["s3-sign-weighted", "s3-action-weighted", "product-pair2-z2-weighted"])
def test_delta_gathers_chunked_over_deltas_and_trials(name, monkeypatch):
    """The deltas taken in chunks sized by their isotropy pairs, and each
    chunk's trials in chunks, give the defects of one whole (T, n) pass, bit
    for bit; an expectation that keeps every fiber makes them nonzero on
    these groupoids, which have isotropy arrows outside the identity fiber."""
    sys = next(d for d in CORPUS if d.name == name).system
    n = sys.groupoid.n_arrows
    per_delta = int(sys.groupoid.isotropy[1].max())
    monkeypatch.setattr(hilbert_module, "expectation_stack", lambda _, x: x)
    a, _ = draws(sys.groupoid, 9100, 7)
    whole = eq_ruy_delta_defect_stack(sys, a, np.arange(n))
    monkeypatch.setattr(algebra, "TRIAL_CHUNK_ENTRIES", 2 * per_delta)  # two deltas per chunk, one trial at a time
    chunks = algebra.trial_chunks(n, per_delta)
    parts = np.hstack([eq_ruy_delta_defect_stack(sys, a, np.arange(n)[s]) for s in chunks])
    assert len(chunks) > 1 and bitwise(parts, whole) and whole.shape == (7, n) and whole.max() > 0


@pytest.mark.parametrize("name", ["pair5-zgraded-weighted", "s3-action-weighted", "union-z2-z3-counting"])
def test_chunked_trial_axis_changes_nothing(name, monkeypatch):
    sys = next(d for d in CORPUS if d.name == name).system
    g = sys.groupoid
    a, _ = draws(g, 7000, 40)
    b, _ = draws(g, 7001, 40)
    whole = [
        convolve_stack(g, a, b, sys.haar),
        cstar_norm_stack(g, a, sys.haar),
        positivity_stack(g, a, sys.haar),
        L_operator_norm_stack(sys, a),
    ]
    monkeypatch.setattr(algebra, "TRIAL_CHUNK_ENTRIES", 64)  # a few trials per chunk, or one
    chunked = [
        convolve_stack(g, a, b, sys.haar),
        cstar_norm_stack(g, a, sys.haar),
        positivity_stack(g, a, sys.haar),
        L_operator_norm_stack(sys, a),
    ]
    for x, y in zip(whole, chunked):
        assert x.shape == y.shape and (x == y).all()


def test_empty_trial_stacks():
    sys = CORPUS[0].system
    g = sys.groupoid
    (a,) = random_stacks(np.random.default_rng(0), 0, g)
    assert a.shape == (0, g.n_arrows)
    assert convolve_stack(g, a, a, sys.haar).shape == (0, g.n_arrows)
    assert cstar_norm_stack(g, a, sys.haar).shape == (0,)
    assert L_operator_norm_stack(sys, a).shape == (0,)


def zgraded_pair_document(n: int) -> str:
    points = range(1, n + 1)
    return json.dumps(
        {
            "name": f"pair{n}-zgraded",
            "groupoid": {"builtin": "pair", "params": {"n": n}},
            "haar": {"rho": {str(u): 1.0 for u in points}},
            "group": {"free_abelian": {"rank": 1}},
            "cocycle": {f"({i},{j})": [i - j] for i in points for j in points},
        }
    )


PEAK_BYTES = 16 * 2**20


def test_module_suite_memory_stays_within_the_chunk_budget():
    """The whole module suite at its default 100 trials on 100 arrows peaks
    under 16 MB of traced allocations (about 10 MB measured; about 62 MB
    with the trial axis in one chunk): one (T, n, n) stack of convolution
    matrices for all trials would need 16 MB by itself."""
    doc = parse_document(zgraded_pair_document(10))
    rec = _Recorder("module", doc.name, 0)
    tracemalloc.start()
    try:
        _suite_module(doc, rec, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.status == "pass" for r in rec.records)
    assert peak < PEAK_BYTES
