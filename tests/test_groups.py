"""Group backend checks: Cayley validation, Z^k arithmetic, S_n construction."""

import numpy as np
import pytest

from groupoid_workbench.groups import (
    FiniteGroup,
    FreeAbelianGroup,
    cyclic_group,
    permutation_parity,
    permutations_of,
    symmetric_group,
    trivial_group,
)


class TestFiniteGroup:
    def test_cyclic_tables(self):
        z3 = cyclic_group(3)
        assert z3.order == 3
        assert z3.identity == 0
        assert z3.mul(1, 2) == 0
        assert z3.inv(1) == 2

    def test_rejects_non_associative(self):
        # 2-element table with broken associativity / inverses
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 1]])

    def test_rejects_no_identity(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup([[0, 0], [0, 0]])

    def test_identity_need_not_be_index_zero(self):
        g = FiniteGroup([[1, 0], [0, 1]])
        assert g.identity == 1

    def test_rejects_ragged_or_out_of_range(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1]])
        with pytest.raises(ValueError):
            FiniteGroup([[0, 2], [2, 0]])

    def test_element_serialization(self):
        z2 = cyclic_group(2)
        assert z2.element_key(1) == "1"
        assert z2.element_to_json(1) == 1
        assert z2.canonical(1) == 1
        with pytest.raises(ValueError):
            z2.canonical(5)

    def test_trivial_group(self):
        t = trivial_group()
        assert t.order == 1 and t.identity == 0


class TestSymmetricGroup:
    def test_s3_order_and_identity(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        perms = permutations_of(3)
        assert perms[s3.identity] == (0, 1, 2)

    def test_composition_convention(self):
        # product (p.q)(x) = p(q(x))
        s3 = symmetric_group(3)
        perms = permutations_of(3)
        idx = {p: i for i, p in enumerate(perms)}
        p = (1, 2, 0)
        q = (0, 2, 1)
        expected = tuple(p[q[x]] for x in range(3))
        assert s3.mul(idx[p], idx[q]) == idx[expected]

    def test_parity_is_homomorphism(self):
        perms = permutations_of(3)
        for p in perms:
            for q in perms:
                pq = tuple(p[q[x]] for x in range(3))
                assert permutation_parity(pq) == (permutation_parity(p) + permutation_parity(q)) % 2
        assert sum(permutation_parity(p) for p in perms) == 3


class TestFreeAbelian:
    def test_arithmetic(self):
        z2 = FreeAbelianGroup(2)
        assert z2.mul((1, 2), (3, -5)) == (4, -3)
        assert z2.inv((1, -2)) == (-1, 2)
        assert z2.identity == (0, 0)

    def test_canonical_and_keys(self):
        z1 = FreeAbelianGroup(1)
        assert z1.canonical([3]) == (3,)
        assert z1.canonical(3) == (3,)  # rank-1 convenience
        assert z1.element_key((-1,)) == "-1"
        assert z1.element_to_json((2,)) == [2]
        with pytest.raises(ValueError):
            z1.canonical((1, 2))
        with pytest.raises(ValueError):
            z1.canonical(("a",))

    def test_sort_key_orders_integers(self):
        z1 = FreeAbelianGroup(1)
        els = [(1,), (-1,), (0,)]
        assert sorted(els, key=z1.sort_key) == [(-1,), (0,), (1,)]


class TestStrictIntegers:
    """Integer arguments are checked, never cast."""

    @pytest.mark.parametrize("cayley", [[[0, 1.9], [1, 0]], [[0, True], [True, 0]], [[0, "1"], ["1", 0]]])
    def test_cayley_entries(self, cayley):
        with pytest.raises(TypeError, match="expected an integer"):
            FiniteGroup(cayley)

    @pytest.mark.parametrize("make", [cyclic_group, symmetric_group, FreeAbelianGroup])
    @pytest.mark.parametrize("value", [True, 3.9, 2.0, "3"])
    def test_constructors_reject_non_integers(self, make, value):
        with pytest.raises(TypeError, match="expected an integer"):
            make(value)

    @pytest.mark.parametrize("call", [lambda z3: z3.mul(1.9, True), lambda z3: z3.mul(1, True), lambda z3: z3.inv(2.5)])
    def test_arithmetic_rejects_non_integers(self, call):
        with pytest.raises(TypeError, match="expected an integer"):
            call(cyclic_group(3))

    @pytest.mark.parametrize("call", [lambda z3: z3.mul(-1, 0), lambda z3: z3.mul(0, 3), lambda z3: z3.inv(-1)])
    def test_arithmetic_rejects_out_of_range(self, call):
        with pytest.raises(ValueError, match="out of range"):
            call(cyclic_group(3))

    def test_numpy_integers_accepted(self):
        z3 = cyclic_group(3)
        assert z3.mul(np.int64(1), np.int64(2)) == 0
        assert z3.inv(np.int64(1)) == 2

        assert cyclic_group(np.int64(3)).order == 3
        assert symmetric_group(np.int64(3)).order == 6
        assert FreeAbelianGroup(np.int64(2)).rank == 2
        assert FiniteGroup([[np.int64(0), np.int64(1)], [np.int64(1), np.int64(0)]]).cayley.tolist() == [[0, 1], [1, 0]]
