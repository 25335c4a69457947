"""Trial stacks against one-function calls, bit for bit.

Every suite evaluates its seeded trials as (T, n) coefficient stacks.  The
one-function API calls the same kernels with T = 1, so a stack must give
exactly the values of T separate calls, whatever T is and however the trial
axis is chunked; and the block draw must reproduce the sequential draws.
The convolution kernel sums with ``bincount``; ``reference_convolve`` is the
``np.add.at`` sum it replaced, and must agree bitwise too.

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

from groupoid_workbench import algebra
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
from groupoid_workbench.hilbert_module import (
    L_operator_norm,
    L_operator_norm_stack,
    inner_product_stack,
    module_inner_product,
    module_norm,
    module_norm_stack,
)
from groupoid_workbench.representation import (
    cstar_norm,
    cstar_norm_stack,
    decompose_rep_U,
    decompose_rep_U_stack,
    positivity_check,
    positivity_stack,
    translate_rep_V,
    translate_rep_V_stack,
)
from groupoid_workbench.verify import _Recorder, _suite_module

CORPUS = builtin_corpus(seed=0)
TRIALS = (1, 3, 100)


def reference_convolve(a: GroupoidFunction, b: GroupoidFunction, haar) -> np.ndarray:
    """The convolution sum as ``np.add.at`` over the composable pairs."""
    g = a.groupoid
    ys, ts, zs = g.composable_pairs()
    out = np.zeros(g.n_arrows, dtype=np.complex128)
    np.add.at(out, zs, a.coeffs[ys] * b.coeffs[ts] * haar.weights(g)[ys])
    return out


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


@pytest.mark.parametrize("doc", CORPUS[::3], ids=lambda d: d.name)
def test_fiber_blocks_match_scalar_calls(doc):
    sys = doc.system
    g = sys.groupoid
    f, ff = draws(sys.identity_fiber, 6000, 3)
    for ui, u in enumerate(g.units):
        blocks, error = decompose_rep_U_stack(sys, f, u)
        singles = [decompose_rep_U(sys, x, u) for x in ff]
        assert identical(error, [s.max_abs_error for s in singles])
        assert all(tuple(blocks) == s.block_order for s in singles)
        for key, block in blocks.items():
            assert identical(block, [s.blocks[key] for s in singles])
        for k in np.unique(sys.fiber_index[g.src_index == ui]):
            gamma = sys.fiber_elements[k]
            error = translate_rep_V_stack(sys, f, u, gamma)
            assert identical(error, [translate_rep_V(sys, x, u, gamma).max_abs_error for x in ff])


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
