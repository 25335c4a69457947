"""The structure certificate of ``validate_groupoid`` and the array form of
``validate_cocycle``, against the scalar reference validators.

``validate_groupoid`` proves associativity with a certificate (a homomorphism
into the isotropy of each orbit's base, injective on (r, s, h), and an
associative isotropy table) and sweeps the composable triples only to name
the witness of a failed certificate.  The oracle tables here reach the
associativity stage on purpose:

* twisted products pair(n) x H, with (i,j,g)(j,k,h) = (i,k, (gh) c(i,j,k))
  for H = Z/2, Z/3 or a non-associative loop of order 5, and a twist c that
  is a coboundary (associative for the groups) or one changed on a few
  triples of distinct units; also such a table next to an untwisted one in
  a disjoint union;
* random tables that obey the identity and inverse laws but whose blocks
  G_i^j have sizes that need not agree along an orbit, where the
  injectivity check is what catches non-associativity.

The mutation tests drop one check from a copy of the certificate and
require the oracle to notice.
"""

from __future__ import annotations

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoid_workbench import groupoid as groupoid_module
from groupoid_workbench.grading import Cocycle, validate_cocycle
from groupoid_workbench.groupoid import Arrow, FiniteGroupoid, disjoint_union, group_groupoid, pair_groupoid, validate_groupoid
from groupoid_workbench.groups import FiniteGroup, FreeAbelianGroup, cyclic_group, strict_int, symmetric_group
from conftest import from_records, redirected, triples_of
from test_table_validation import reference_validate_cocycle, reference_validate_groupoid

# every element of this loop is its own inverse, which no group of order 5
# allows, so it is not associative
LOOP5 = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
FIBRES = {"Z/2": cyclic_group(2).cayley, "Z/3": cyclic_group(3).cayley, "loop5": LOOP5}


def shuffled(
    units: list[str], src: np.ndarray, dst: np.ndarray, mat: np.ndarray, inv: np.ndarray, unit: np.ndarray, order: np.ndarray
) -> FiniteGroupoid:
    """The groupoid with arrows declared in ``order`` (old index per new
    position); arrow ids keep the old index."""
    n = len(src)
    new = np.empty(n, dtype=np.intp)
    new[order] = np.arange(n)
    compose = np.full((n, n), -1, dtype=np.intp)
    compose[np.ix_(new, new)] = np.where(mat >= 0, new[np.maximum(mat, 0)], -1)
    arrows = [Arrow(f"a{k}", src=units[src[k]], dst=units[dst[k]]) for k in order.tolist()]
    return from_records(units, arrows, triples_of(compose), new[inv[order]], new[unit])


def inverses(mat: np.ndarray, src: np.ndarray, dst: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """The two-sided inverse of every arrow, found by search."""
    out = np.empty(len(src), dtype=np.intp)
    for x in range(len(src)):
        ys = np.flatnonzero((src == dst[x]) & (dst == src[x]))
        ok = (mat[x, ys] == unit[dst[x]]) & (mat[ys, x] == unit[src[x]])
        out[x] = ys[np.argmax(ok)]
    return out


def twisted_pair(n: int, fibre: str, b: np.ndarray, changes, order: np.ndarray) -> FiniteGroupoid:
    """pair(n) x H with the twist c = coboundary of b (b zero on the
    diagonal; for the loop b is ignored), then c(i,j,k) = v for each (i, j,
    k, v) in ``changes`` with i, j, k distinct.  Arrow (i,j,g) runs j -> i
    and has index (i n + j) m + g."""
    table = FIBRES[fibre]
    m = len(table)
    b = np.array(b).reshape(n, n) % m
    np.fill_diagonal(b, 0)
    if fibre == "loop5":
        c = np.zeros((n, n, n), dtype=np.intp)
    else:  # Z/m is additive
        c = (b[:, :, None] + b[None, :, :] - b[:, None, :]) % m
    for i, j, k, v in changes:
        if len({i, j, k}) == 3:
            c[i, j, k] = v % m
    ijg = np.indices((n, n, m)).reshape(3, -1)
    i, j, g = ijg
    arrows = np.arange(n * n * m)
    mat = np.full((len(arrows), len(arrows)), -1, dtype=np.intp)
    for k in range(n):
        for h in range(m):
            y = (j * n + k) * m + h  # (j,k,h) for every x = (i,j,g)
            mat[arrows, y] = (i * n + k) * m + table[table[g, h], c[i, j, k]]
    unit = np.arange(n) * (n + 1) * m
    inv = inverses(mat, j, i, unit)
    return shuffled([f"p{u}" for u in range(n)], j, i, mat, inv, unit, order)


def random_blocks(rng: np.random.Generator, n_units: int, sizes: np.ndarray) -> FiniteGroupoid:
    """A table on ``n_units`` units with sizes[i, j] = sizes[j, i] arrows
    j -> i, whose composition obeys the identity and inverse laws (a random
    involutive pairing of inverses) and is random elsewhere."""
    blocks, at = {}, 0
    for i in range(n_units):
        for j in range(n_units):
            blocks[i, j] = np.arange(at, at + sizes[i, j])
            at += sizes[i, j]
    src = np.empty(at, dtype=np.intp)
    dst = np.empty(at, dtype=np.intp)
    for (i, j), block in blocks.items():
        src[block], dst[block] = j, i
    unit = np.array([blocks[i, i][0] for i in range(n_units)])
    inv = np.arange(at)
    for i in range(n_units):
        for j in range(i, n_units):
            if i == j:
                loops = rng.permutation(blocks[i, i][1:])
                pairs = loops[: 2 * int(rng.integers(len(loops) // 2 + 1))].reshape(-1, 2)
            else:
                pairs = np.stack([blocks[i, j], rng.permutation(blocks[j, i])], axis=1)
            inv[pairs[:, 0]], inv[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    mat = np.full((at, at), -1, dtype=np.intp)
    for x in range(at):
        for y in np.flatnonzero(dst == src[x]):
            if x == unit[dst[x]]:
                mat[x, y] = y
            elif y == unit[src[y]]:
                mat[x, y] = x
            elif inv[x] == y:
                mat[x, y] = unit[dst[x]]
            else:
                mat[x, y] = rng.choice(blocks[dst[x], src[y]])
    return shuffled([f"u{u}" for u in range(n_units)], src, dst, mat, inv, unit, rng.permutation(at))


def seeded_twisted(seed: int) -> FiniteGroupoid:
    rng = np.random.default_rng([11, seed])
    n = int(rng.integers(1, 5))
    fibre = ("Z/2", "Z/3", "loop5")[seed % 3]
    changes = [tuple(int(v) for v in rng.integers(n, size=3)) + (int(rng.integers(5)),) for _ in range(int(rng.integers(3)))]
    g = twisted_pair(n, fibre, rng.integers(5, size=n * n), changes, rng.permutation(n * n * len(FIBRES[fibre])))
    if seed % 4 == 0:
        plain = twisted_pair(2, "Z/2", np.zeros(4, dtype=int), [], np.arange(8))
        g = disjoint_union(plain, g) if seed % 8 else disjoint_union(g, plain)
    return g


def seeded_blocks(seed: int) -> FiniteGroupoid:
    rng = np.random.default_rng([12, seed])
    n_units = int(rng.integers(1, 4))
    sizes = rng.integers(1, 4, size=(n_units, n_units))
    return random_blocks(rng, n_units, np.triu(sizes) + np.triu(sizes, 1).T)


def collapsed_isotropy() -> FiniteGroupoid:
    """Units b, u with one arrow t: b -> u and its inverse s, trivial
    isotropy at b and Z/2 = {eu, a} at u.  Every identity and inverse law
    holds, h sends a and eu alike to eb, yet (a t) s = eu while a (t s) = a."""
    arrows = [Arrow("eb", "b", "b"), Arrow("t", "b", "u"), Arrow("s", "u", "b"), Arrow("eu", "u", "u"), Arrow("a", "u", "u")]
    eb, t, s, eu, a = range(5)
    compose = np.array([
        # y = eb  t   s   eu  a
        [eb, -1, s, -1, -1],  # x = eb
        [t, -1, eu, -1, -1],  # x = t
        [-1, eb, -1, s, s],  # x = s
        [-1, t, -1, eu, a],  # x = eu
        [-1, t, -1, a, eu],  # x = a
    ])  # fmt: skip
    return from_records(["b", "u"], arrows, triples_of(compose), np.array([eb, s, t, eu, a]), np.array([eb, eu]))


def assert_matches_reference(g: FiniteGroupoid) -> str | None:
    got, ref = validate_groupoid(g), reference_validate_groupoid(g)
    assert (got.ok, got.cause, got.witness) == (ref.ok, ref.cause, ref.witness)
    return ref.cause


SEEDS = range(48)


def test_seeded_twisted_pairs_match_reference():
    causes = [assert_matches_reference(seeded_twisted(seed)) for seed in SEEDS]
    # the oracle is not vacuous: both verdicts occur at the associativity stage
    assert set(causes) == {None, "associativity"}


def test_seeded_block_tables_match_reference():
    causes = [assert_matches_reference(seeded_blocks(seed)) for seed in SEEDS]
    assert set(causes) == {None, "associativity"}


@pytest.mark.parametrize(
    "g, ok",
    [
        (redirected(group_groupoid(cyclic_group(3)), "g1", "g1", "g0"), False),
        (collapsed_isotropy(), False),
        (group_groupoid(FiniteGroup(cyclic_group(6).cayley.tolist())), True),
        (disjoint_union(pair_groupoid(3), group_groupoid(cyclic_group(4))), True),
    ],
    ids=["z3-redirect", "collapsed-isotropy", "z6", "pair3-plus-z4"],
)
def test_hand_tables_match_reference(g, ok):
    assert (assert_matches_reference(g) is None) == ok


@st.composite
def twisted_tables(draw) -> FiniteGroupoid:
    n = draw(st.integers(1, 4))
    fibre = draw(st.sampled_from(sorted(FIBRES)))
    b = draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    changes = draw(st.lists(st.tuples(*(st.integers(0, n - 1),) * 3, st.integers(0, 4)), max_size=3))
    order = np.array(draw(st.permutations(range(n * n * len(FIBRES[fibre])))))
    g = twisted_pair(n, fibre, b, changes, order)
    union = draw(st.sampled_from(["none", "left", "right"]))
    plain = twisted_pair(2, "Z/3", np.zeros(4, dtype=int), [], np.arange(12))
    return {"none": g, "left": disjoint_union(g, plain), "right": disjoint_union(plain, g)}[union]


@settings(max_examples=80, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(twisted_tables())
def test_twisted_pairs_match_reference(g):
    assert_matches_reference(g)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_block_tables_match_reference(seed):
    rng = np.random.default_rng(seed)
    n_units = int(rng.integers(1, 4))
    sizes = rng.integers(1, 4, size=(n_units, n_units))
    assert_matches_reference(random_blocks(rng, n_units, np.triu(sizes) + np.triu(sizes, 1).T))


# -- mutation: each certificate check is needed ---------------------------

INJECTIVITY = "if len(np.unique((dst * g.n_units + src) * n + h)) != n:"
ISOTROPY = "if first_nonassociative_triple(local[at(iso[:, None], iso)]) is not None:"


def mutated_certificate(line: str):
    """A copy of the certificate with the check on ``line`` never failing."""
    source = inspect.getsource(groupoid_module._structure_certificate)
    assert line in source
    namespace = dict(vars(groupoid_module))
    exec(textwrap.dedent(source.replace(line, "if False:")), namespace)
    return namespace["_structure_certificate"]


@pytest.mark.parametrize("line", [INJECTIVITY, ISOTROPY], ids=["injectivity", "isotropy"])
def test_dropping_a_certificate_check_fails_the_oracle(line, monkeypatch):
    tables = [collapsed_isotropy()] + [seeded_twisted(seed) for seed in SEEDS] + [seeded_blocks(seed) for seed in SEEDS]
    for g in tables:
        assert_matches_reference(g)
    monkeypatch.setattr(groupoid_module, "_structure_certificate", mutated_certificate(line))
    missed = [g for g in tables if validate_groupoid(g).ok and not reference_validate_groupoid(g).ok]
    assert missed


# -- exact cocycle arithmetic ---------------------------------------------


BIG = 2**70


def big_cocycle(g: FiniteGroupoid, offsets: dict[str, tuple[int, int]]) -> Cocycle:
    """c(i,j) = v_i - v_j on pair(n) with v_i in Z^2 near 2**70, each label
    then moved by ``offsets``."""
    v = {u: (BIG + 3 * int(u), -BIG - 5 * int(u) ** 2) for u in g.units}
    label = {a.id: (v[a.dst][0] - v[a.src][0], v[a.dst][1] - v[a.src][1]) for a in g.arrows}
    for aid, (dx, dy) in offsets.items():
        label[aid] = (label[aid][0] + dx, label[aid][1] + dy)
    return Cocycle(FreeAbelianGroup(2), label)


def assert_same_cocycle_report(g: FiniteGroupoid, c: Cocycle) -> str | None:
    got, ref = validate_cocycle(g, c), reference_validate_cocycle(g, c)
    assert (got.ok, got.cause, got.witness) == (ref.ok, ref.cause, ref.witness)
    return ref.cause


@pytest.mark.parametrize(
    "offsets, cause",
    [
        ({}, None),
        ({"(2,3)": (1, 0)}, "not-multiplicative"),
        ({"(4,1)": (0, -1)}, "not-multiplicative"),
        ({"(2,2)": (0, 1)}, "not-multiplicative"),
        # (1,2) + (2,1) = (1,1) stays true, (1,2) + (2,3) = (1,3) does not
        ({"(1,2)": (BIG, 0), "(2,1)": (-BIG, 0)}, "not-multiplicative"),
    ],
)
def test_big_free_abelian_labels_match_reference(offsets, cause):
    g = pair_groupoid(4)
    assert assert_same_cocycle_report(g, big_cocycle(g, offsets)) == cause


@pytest.mark.parametrize("value", [2**62 - 1, 2**62, 2**63 - 1, 2**63, -(2**63), 2**70 + 1])
def test_labels_at_the_int64_edge_match_reference(value):
    # a one-unit Z-graded groupoid: the unit is labelled 0, the Z/2 arrow
    # g1 with g1 g1 = g0 needs 2 c(g1) = 0, so any nonzero label fails
    g = group_groupoid(cyclic_group(2))
    for label in ({"g0": (0,), "g1": (value,)}, {"g0": (value,), "g1": (0,)}, {"g0": (value,), "g1": (-value,)}):
        assert assert_same_cocycle_report(g, Cocycle(FreeAbelianGroup(1), label)) is not None
    # on a pair groupoid c(i,j) = v_i - v_j is a cocycle for any v
    g = pair_groupoid(3)
    label = {a.id: ((int(a.dst) - int(a.src)) * value,) for a in g.arrows}
    assert assert_same_cocycle_report(g, Cocycle(FreeAbelianGroup(1), label)) is None
    label["(3,1)"] = (label["(3,1)"][0] + 1,)
    assert assert_same_cocycle_report(g, Cocycle(FreeAbelianGroup(1), label)) == "not-multiplicative"


def test_finite_labels_match_reference():
    g = pair_groupoid(3)
    c = Cocycle(cyclic_group(3), {a.id: (int(a.dst) - int(a.src)) % 3 for a in g.arrows})
    assert assert_same_cocycle_report(g, c) is None
    for aid, cause in (("(1,2)", "not-multiplicative"), ("(2,2)", "not-multiplicative")):
        assert assert_same_cocycle_report(g, Cocycle(c.group, {**c.label, aid: (c.label[aid] + 1) % 3})) == cause


# -- reading a Cayley table -------------------------------------------------


def reference_cayley_entries(cayley) -> list[list[int]]:
    """The rows one at a time: length, every entry through strict_int, then range."""
    n = len(cayley)
    table = []
    for i, row in enumerate(cayley):
        if len(row) != n:
            raise ValueError(f"Cayley row {i} has length {len(row)}, expected {n}.")
        row_int = [strict_int(x) for x in row]
        for x in row_int:
            if x < 0 or x >= n:
                raise ValueError(f"Cayley entry {x} at row {i} out of range [0,{n - 1}].")
        table.append(row_int)
    return table


def outcome(read, cayley):
    try:
        return read(cayley)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "cayley",
    [
        [[0, True], [1, 0]],
        [[0, 1], [1.0, 0]],
        [[0, "1"], [1, 0]],
        [[0, 1], [1, 2]],
        [[0, -1], [1, 0]],
        [[0, 2**70], [1, 0]],
        [[0, 1, 5], [1, 0, 2], [2, 1, 0.5]],  # range in row 0 before a float in row 2
        [[0, 7, 1.5], [1, 0, 2], [2, 1, 0]],  # a float after an out-of-range entry in its row
        [[0, 1.5], [1, 0, 0]],  # a float in row 0 before a long row 1
        [[0, 1], [1, 0, 0]],
        [[0, 1], 5],
        [(0, np.int64(1)), (np.int64(1), 0)],
        [[False, 1], [1, 0]],
        # integer arrays are read whole; any other array goes to the row loop
        np.array([[0, 1], [1, 0]], dtype=np.int32),
        np.array([[0, 1], [1, 0]], dtype=np.uint8),
        np.array([[0, 1, 0], [1, 0, 1]]),
        np.array([[0, 1], [1, 0], [0, 1]]),
        np.array([0]),
        np.zeros((1, 1, 1), dtype=np.intp),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[True, False], [False, True]]),
        np.array([[0, 2], [1, 0]]),
        np.array([[0, 1], [-1, 0]], dtype=np.int8),
        np.array([[0, 2**64 - 1], [1, 0]], dtype=np.uint64),
    ],
)
def test_cayley_entries_read_as_the_row_loop(cayley):
    expected = outcome(reference_cayley_entries, cayley)
    if isinstance(expected, tuple):
        assert outcome(FiniteGroup, cayley) == expected
    else:
        assert FiniteGroup(cayley).cayley.tolist() == expected


def test_cayley_array_is_copied():
    table = symmetric_group(3).cayley.copy()
    group = FiniteGroup(table)
    table[0, 0] = 5
    assert table.flags.writeable and group.cayley[0, 0] == 0 and group.cayley.dtype == np.intp
