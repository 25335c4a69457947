"""Cocycle validation, fibers, and the identity-fiber subgroupoid."""

import math

import pytest

from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.grading import (
    Cocycle,
    GradedGroupoid,
    cocycle_from_map,
    identity_fiber_subgroupoid,
    trivial_cocycle,
    validate_cocycle,
)
from groupoid_workbench.groupoid import (
    HaarSystem,
    action_groupoid,
    counting_haar,
    group_groupoid,
    validate_groupoid,
    validate_left_invariance,
)
from groupoid_workbench.groups import FreeAbelianGroup, cyclic_group

from conftest import id_tables, pair_cocycle


class TestValidateCocycle:
    def test_pair_difference_grading_passes(self, p2):
        assert validate_cocycle(p2, pair_cocycle(p2)).ok

    def test_hand_computed_violation(self, p2):
        # c((1,2)) = c((2,1)) = 1 gives c((1,2)(2,1)) = 0 != 2
        z = FreeAbelianGroup(1)
        label = {"(1,1)": (0,), "(2,2)": (0,), "(1,2)": (1,), "(2,1)": (1,)}
        report = validate_cocycle(p2, cocycle_from_map(p2, z, label))
        assert not report.ok
        assert report.cause == "not-multiplicative"
        assert report.witness["pair"] == ("(1,2)", "(2,1)")
        assert report.witness["got"] == "0" and report.witness["expected"] == "2"

    def test_identity_cocycle_on_group(self, z2_groupoid):
        z2 = cyclic_group(2)
        c = cocycle_from_map(z2_groupoid, z2, {"g0": 0, "g1": 1})
        assert validate_cocycle(z2_groupoid, c).ok

    def test_missing_label_rejected(self, p2):
        z = FreeAbelianGroup(1)
        with pytest.raises(ValueError, match="missing"):
            cocycle_from_map(p2, z, {"(1,1)": (0,)})

    def test_labels_are_a_read_only_copy(self, p2):
        # the labels and the element array they were read into cannot drift
        # apart through the caller's dict
        label = {"(1,1)": (0,), "(1,2)": (-1,), "(2,1)": (1,), "(2,2)": (0,)}
        c = Cocycle(FreeAbelianGroup(1), label)
        label["(1,2)"] = (5,)
        assert c.of("(1,2)") == (-1,)
        assert c.elements[:, 0].tolist() == [0, -1, 1, 0]
        with pytest.raises(TypeError):
            c.label["(1,2)"] = (5,)
        assert validate_cocycle(p2, c).ok


def fiber_ids(sys, gamma):
    """Arrow ids over gamma in declared order, read from the fiber mask."""
    return tuple(a.id for a, inside in zip(sys.groupoid.arrows, sys.fiber_mask(gamma)) if inside)


class TestFibers:
    def test_preimages(self, p2_graded):
        assert fiber_ids(p2_graded, (0,)) == ("(1,1)", "(2,2)")
        assert fiber_ids(p2_graded, (-1,)) == ("(1,2)",)
        assert fiber_ids(p2_graded, (5,)) == ()

    def test_partition(self, p2, p2_graded):
        seen = []
        for gamma in p2_graded.fiber_elements:
            seen.extend(fiber_ids(p2_graded, gamma))
        assert sorted(seen) == sorted(p2.arrow_ids)
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("doc", builtin_corpus(seed=0), ids=lambda doc: doc.name)
    def test_fiber_index_matches_labels_on_corpus(self, doc):
        sys = doc.system
        g, c, grp = sys.groupoid, sys.cocycle, sys.group
        assert len(sys.fiber_index) == g.n_arrows
        for i, arrow in enumerate(g.arrows):
            assert sys.fiber_elements[sys.fiber_index[i]] == c.of(arrow.id)
        keys = [grp.element_key(el) for el in sys.fiber_elements]
        assert len(set(keys)) == len(keys) == len(sys.fiber_elements)
        assert list(sys.fiber_elements) == sorted(sys.fiber_elements, key=grp.sort_key)
        assert list(sys.fiber_keys) == keys
        expected: dict[str, list[str]] = {}
        for arrow in g.arrows:
            expected.setdefault(grp.element_key(c.of(arrow.id)), []).append(arrow.id)
        ordered = sorted(expected, key=lambda key: grp.sort_key(c.of(expected[key][0])))
        assert list(sys.fibers().items()) == [(key, tuple(expected[key])) for key in ordered]
        assert [a.id for a in sys.identity_fiber.arrows] == expected[grp.element_key(grp.identity)]

    def test_product_and_inverse_support_calculus(self, p2):
        c = pair_cocycle(p2)
        grp = c.group
        compose, invert, _ = id_tables(p2)
        for (x, y), z in compose.items():
            assert c.of(z) == grp.mul(c.of(x), c.of(y))
        for x, xinv in invert.items():
            assert c.of(xinv) == grp.inv(c.of(x))


class TestIdentityFiber:
    def test_pair_diagonal(self, p2):
        sub = identity_fiber_subgroupoid(p2, pair_cocycle(p2))
        assert sub.arrow_ids == ("(1,1)", "(2,2)")
        assert sub.units == p2.units
        assert validate_groupoid(sub).ok

    def test_trivial_cocycle_gives_everything(self, p2):
        c = trivial_cocycle(p2, FreeAbelianGroup(1))
        sub = identity_fiber_subgroupoid(p2, c)
        assert sub.arrow_ids == p2.arrow_ids

    def test_action_groupoid_identity_fiber_is_unit_space(self):
        z3 = cyclic_group(3)
        g = action_groupoid([0, 1, 2], z3, lambda x, h: (x + h) % 3)
        label = {a.id: int(a.id.rsplit(",", 1)[1].rstrip(")")) for a in g.arrows}
        c = cocycle_from_map(g, z3, label)
        assert validate_cocycle(g, c).ok
        sub = identity_fiber_subgroupoid(g, c)
        assert sub.n_arrows == g.n_units
        assert set(sub.arrow_ids) == set(id_tables(g)[2].values())

    def test_restricted_haar_still_invariant(self, p2):
        sub = identity_fiber_subgroupoid(p2, pair_cocycle(p2))
        haar = counting_haar(p2)
        w = {aid: haar.weight(sub, aid) for aid in sub.arrow_ids}
        assert validate_left_invariance(sub, w)


class TestGradedGroupoid:
    def test_build_validates(self, p2, p2_counting):
        sys = GradedGroupoid.build(p2, p2_counting, pair_cocycle(p2))
        assert sys.identity_fiber.n_arrows == 2
        assert list(sys.fibers()) == ["-1", "0", "1"]

    def test_build_rejects_bad_cocycle(self, p2, p2_counting):
        z = FreeAbelianGroup(1)
        bad = Cocycle(z, {a.id: (1,) for a in p2.arrows})
        with pytest.raises(ValueError, match="Cocycle"):
            GradedGroupoid.build(p2, p2_counting, bad)

    @pytest.mark.parametrize(
        "rho", [{"1": math.inf, "2": 1.0}, {"1": 1.0, "2": 1.0, "3": 1.0}], ids=["infinite-weight", "unknown-unit"]
    )
    def test_build_rejects_bad_haar(self, p2, rho):
        with pytest.raises(ValueError, match="Haar"):
            GradedGroupoid.build(p2, HaarSystem(rho), pair_cocycle(p2))

    def test_sign_cocycle_on_s3_identity_fiber_is_a3(self):
        from groupoid_workbench.groups import permutation_parity, permutations_of, symmetric_group

        s3 = symmetric_group(3)
        g = group_groupoid(s3)
        z2 = cyclic_group(2)
        perms = permutations_of(3)
        c = cocycle_from_map(g, z2, {f"g{i}": permutation_parity(p) for i, p in enumerate(perms)})
        assert validate_cocycle(g, c).ok
        sub = identity_fiber_subgroupoid(g, c)
        assert sub.n_arrows == 3  # A3 inside S3
        assert validate_groupoid(sub).ok
