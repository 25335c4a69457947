"""One regular-representation block per orbit, against every unit's block.

For an arrow z: v -> u, right translation x -> xz maps G_u onto G_v, keeps
r(x) and with it the weight, and conjugates the block at u into the block
at v by a permutation (Renault, LNM 793, ch. II).  So ``cstar_norm_stack``
and ``positivity_stack`` evaluate only the block of the first unit of each
orbit.  ``reference_cstar_norm_stack`` and ``reference_positivity_stack``
are the all-units reductions they replaced, kept here as oracles.

How close the two must be: where the groupoid lists the arrows of every
unit of an orbit in the same order as its translates, as every builtin does
(the block at (1, u) of a pair groupoid is a((i, j)) whatever u is), the
blocks of one orbit are equal entry for entry and the kernels agree bit for
bit; that holds on the whole corpus and on the multi-orbit groupoids below.
Where arrows are declared in another order the blocks are true
permutations of each other, their eigensolves differ in rounding, and the
orbit norm stays within ``PERMUTED_REL_BOUND`` of the all-units one
(measured: 6.5 eps at block size 12).
"""

from __future__ import annotations

import numpy as np
import pytest

from groupoid_workbench import algebra
from groupoid_workbench.algebra import chunked, convolve_stack, involute_stack, random_stacks
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.groupoid import (
    FiniteGroupoid,
    disjoint_union,
    group_bundle,
    group_groupoid,
    haar_from_weights,
    pair_groupoid,
    product,
)
from groupoid_workbench.groups import cyclic_group
from groupoid_workbench.representation import (
    _norm_of_trials,
    _range_weights,
    _rep_entries,
    cstar_norm_stack,
    positivity_stack,
)

from conftest import dense_compose, from_records, triples_of

CORPUS = builtin_corpus(seed=0)
TRIALS = (1, 3, 100)
PERMUTED_REL_BOUND = 32 * np.finfo(float).eps


def _all_unit_stacks(g: FiniteGroupoid, a: np.ndarray, haar) -> list[np.ndarray]:
    w = _range_weights(g, haar)
    return [_rep_entries(a, w, arrows, products) for _, arrows, products in g.rep_tables()]


def _all_unit_size(g: FiniteGroupoid) -> int:
    return sum(products.size for _, _, products in g.rep_tables())


def reference_cstar_norm_stack(g: FiniteGroupoid, a: np.ndarray, haar) -> np.ndarray:
    """The C*-norm as the max over the blocks of every unit."""
    return chunked(lambda x: _norm_of_trials(_all_unit_stacks(g, x, haar)), _all_unit_size(g), a)


def reference_positivity_stack(g: FiniteGroupoid, a: np.ndarray, haar, tol: float = 1e-9) -> np.ndarray:
    """Positivity as every unit's block Hermitian and positive semidefinite."""

    def kernel(x: np.ndarray) -> np.ndarray:
        stacks = _all_unit_stacks(g, x, haar)
        slack = tol * (1.0 + _norm_of_trials(stacks))
        ok = np.ones(x.shape[:-1], dtype=bool)
        for m in stacks:
            adjoint = m.conj().swapaxes(-1, -2)
            ok &= ~(np.abs(m - adjoint).max(axis=(-3, -2, -1)) > slack)
            if not ok.any():
                break
            ok &= ~(np.linalg.eigvalsh(0.5 * (m + adjoint))[..., 0].min(axis=-1) < -slack)
        return ok

    return chunked(kernel, _all_unit_size(g), a)


def orbits(g: FiniteGroupoid) -> list[list[int]]:
    """The orbits as unit indices, grown from the arrows one by one, in
    order of their first unit."""
    label = list(range(g.n_units))
    changed = True
    while changed:
        changed = False
        for a in g.arrows:
            s, r = g.units.index(a.src), g.units.index(a.dst)
            low = min(label[s], label[r])
            if label[s] != low or label[r] != low:
                label[s] = label[r] = low
                changed = True
    return [[u for u in range(g.n_units) if label[u] == k] for k in sorted(set(label))]


def assert_same(g: FiniteGroupoid, haar, stacks: list[np.ndarray]) -> None:
    for x in stacks:
        norm = cstar_norm_stack(g, x, haar)
        expected = reference_cstar_norm_stack(g, x, haar)
        assert norm.shape == expected.shape and (norm == expected).all()
        positive = positivity_stack(g, x, haar)
        assert positive.shape == expected.shape and (positive == reference_positivity_stack(g, x, haar)).all()


def star_square(g: FiniteGroupoid, a: np.ndarray, haar) -> np.ndarray:
    return convolve_stack(g, involute_stack(g, a), a, haar)


@pytest.mark.parametrize("chunk", [None, 64], ids=["whole", "chunk64"])
@pytest.mark.parametrize("doc", CORPUS, ids=lambda d: d.name)
@pytest.mark.parametrize("on_identity_fiber", [False, True], ids=["G", "G_e"])
def test_corpus_orbit_kernels_match_all_units_bitwise(doc, on_identity_fiber, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(algebra, "TRIAL_CHUNK_ENTRIES", chunk)
    sys = doc.system
    g = sys.identity_fiber if on_identity_fiber else sys.groupoid
    for count in TRIALS:
        (a,) = random_stacks(np.random.default_rng(8000 + count), count, g)
        square = star_square(g, a, sys.haar)
        assert_same(g, sys.haar, [a, square, -square])


def several_orbits() -> FiniteGroupoid:
    """pair(3) (one orbit, blocks of 3), a Z/4 bundle over two units (two
    orbits, blocks of 4) and pair(2) x Z/3 (one orbit, blocks of 6)."""
    z4 = cyclic_group(4)
    bundle = disjoint_union(pair_groupoid(3), group_bundle([z4, z4]))
    return disjoint_union(bundle, product(pair_groupoid(2), group_groupoid(cyclic_group(3))))


def interleaved_orbits() -> FiniteGroupoid:
    """pair(2) x (Z/4 bundle over two units): two orbits of one block size,
    whose units alternate in declared order."""
    z4 = cyclic_group(4)
    return product(pair_groupoid(2), group_bundle([z4, z4]))


def weighted(g: FiniteGroupoid):
    return haar_from_weights(g, {u: 0.5 + 0.75 * i for i, u in enumerate(g.units)})


def per_orbit_trials(g: FiniteGroupoid, a: np.ndarray) -> list[np.ndarray]:
    """a restricted to the arrows of each orbit in turn; the algebra is the
    direct sum over orbits, so each is nonzero on one orbit's blocks only."""
    return [np.where(np.isin(g.src_index, orbit), a, 0.0) for orbit in orbits(g)]


@pytest.mark.parametrize("chunk", [None, 64], ids=["whole", "chunk64"])
@pytest.mark.parametrize("build", [several_orbits, interleaved_orbits])
def test_several_orbits_weighted_match_all_units_bitwise(build, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(algebra, "TRIAL_CHUNK_ENTRIES", chunk)
    g = build()
    haar = weighted(g)
    for count in TRIALS:
        (a,) = random_stacks(np.random.default_rng(9000 + count), count, g)
        parts = per_orbit_trials(g, a)
        squares = [star_square(g, x, haar) for x in [a, *parts]]
        assert_same(g, haar, [a, a + involute_stack(g, a), *parts, *squares, *(-s for s in squares)])
        for square in squares:
            assert positivity_stack(g, square, haar).all()
            assert not positivity_stack(g, -square, haar).any()
        for part in parts:
            assert (cstar_norm_stack(g, part, haar) > 0).all()


def test_one_block_per_orbit():
    for g in (several_orbits(), interleaved_orbits(), *(d.system.groupoid for d in CORPUS)):
        found = orbits(g)
        assert g.orbit_base.tolist() == [next(o[0] for o in found if u in o) for u in range(g.n_units)]
        orbit_of = {u: k for k, orbit in enumerate(found) for u in orbit}
        rows = [orbit_of[u] for arrows, _ in g.orbit_rep_tables() for u in g.src_index[arrows[:, 0]].tolist()]
        assert sorted(rows) == list(range(len(found)))  # one block per orbit


def shuffled(g: FiniteGroupoid, rng: np.random.Generator) -> FiniteGroupoid:
    """g with its arrows declared in a random order."""
    perm = rng.permutation(g.n_arrows)
    new = np.empty_like(perm)
    new[perm] = np.arange(g.n_arrows)
    renumber = np.append(new, -1)  # keeps -1 (undefined) at -1
    compose = renumber[dense_compose(g)[np.ix_(perm, perm)]]
    return from_records(g.units, [g.arrows[i] for i in perm], triples_of(compose), new[g.invert_index[perm]], new[g.unit_arrow_index])


def test_permuted_blocks_within_bound():
    rng = np.random.default_rng(0)
    for base in (pair_groupoid(5), product(pair_groupoid(3), group_groupoid(cyclic_group(4)))):
        for _ in range(5):
            g = shuffled(base, rng)
            haar = weighted(g)
            (a,) = random_stacks(rng, 100, g)
            square = star_square(g, a, haar)
            for x in (a, square):
                norm = cstar_norm_stack(g, x, haar)
                expected = reference_cstar_norm_stack(g, x, haar)
                assert (np.abs(norm - expected) <= PERMUTED_REL_BOUND * expected).all()
            assert positivity_stack(g, square, haar).all() and reference_positivity_stack(g, square, haar).all()
            assert not positivity_stack(g, -square, haar).any()
