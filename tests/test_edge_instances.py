"""Edge instances outside the built-in corpus: rank-2 gradings, isolated
units, and explicit-table documents driven end to end."""

import json

import numpy as np

from groupoid_workbench.algebra import include_i, random_function
from groupoid_workbench.cli import main
from groupoid_workbench.grading import GradedGroupoid, cocycle_from_map
from groupoid_workbench.groupoid import counting_haar, group_bundle, pair_groupoid, product
from groupoid_workbench.groups import FreeAbelianGroup, cyclic_group
from groupoid_workbench.hilbert_module import L_operator_norm, module_norm
from groupoid_workbench.representation import cstar_norm, decompose_rep_U, translate_rep_V
from groupoid_workbench.verify import run_document


def rank2_graded_product() -> GradedGroupoid:
    """Product of two pair groupoids, graded into Z^2 coordinatewise."""
    g = product(pair_groupoid(2), pair_groupoid(3))
    z2 = FreeAbelianGroup(2)
    label = {}
    for a in g.arrows:
        left, right = a.id.split("|")
        i1, j1 = left.strip("()").split(",")
        i2, j2 = right.strip("()").split(",")
        label[a.id] = (int(i1) - int(j1), int(i2) - int(j2))
    return GradedGroupoid.build(g, counting_haar(g), cocycle_from_map(g, z2, label))


class TestRankTwoGrading:
    def test_fiber_keys_are_vectors(self):
        sys = rank2_graded_product()
        keys = set(sys.fibers())
        assert "0,0" in keys and "-1,2" in keys
        assert sys.identity_fiber.n_arrows == 6  # diagonal x diagonal

    def test_inclusion_isometric_and_sandwich(self):
        sys = rank2_graded_product()
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_function(sys.identity_fiber, rng)
            inner = cstar_norm(f, sys.haar)
            outer = cstar_norm(include_i(f, sys.groupoid), sys.haar)
            assert abs(outer - inner) <= 1e-9 * (1 + inner)
            a = random_function(sys.groupoid, rng)
            assert module_norm(sys, a) <= L_operator_norm(sys, a) * (1 + 1e-9)

    def test_unitaries_hold(self):
        sys = rank2_graded_product()
        rng = np.random.default_rng(6)
        a_e = random_function(sys.identity_fiber, rng)
        for u in sys.groupoid.units:
            dec = decompose_rep_U(sys, a_e, u)
            assert dec.max_abs_error <= 1e-12
            present = {}
            for aid in sys.groupoid.arrows_with_src(u):
                el = sys.cocycle.of(aid)
                present.setdefault(sys.group.element_key(el), el)
            for el in present.values():
                assert translate_rep_V(sys, a_e, u, el).max_abs_error <= 1e-12


class TestIsolatedUnit:
    def test_all_suites_pass_with_trivial_isotropy_fiber(self):
        # first unit carries only its unit arrow; the Z/2 fiber is empty there
        g = group_bundle([cyclic_group(1), cyclic_group(2)])
        z2 = cyclic_group(2)
        label = {"u1:g0": 0, "u2:g0": 0, "u2:g1": 1}
        sys = GradedGroupoid.build(g, counting_haar(g), cocycle_from_map(g, z2, label))
        from groupoid_workbench.document import WorkbenchDocument

        doc = WorkbenchDocument(name="isolated-unit", system=sys, functions={}, raw={})
        records = run_document(doc, suite="all", seed=0, count=10)
        failures = [r for r in records if r.status != "pass"]
        assert not failures, failures

    def test_gram_null_directions_are_quotiented(self):
        # cross-unit elementary tensors are null directions of the induced
        # Gram matrix; the frame must drop them and keep an orthonormal rest
        from groupoid_workbench.hilbert_module import induced_space

        g = group_bundle([cyclic_group(1), cyclic_group(2)])
        z2 = cyclic_group(2)
        sys = GradedGroupoid.build(
            g, counting_haar(g), cocycle_from_map(g, z2, {"u1:g0": 0, "u2:g0": 0, "u2:g1": 1})
        )
        space = induced_space(sys)
        assert space.rank < space.dim_ambient
        residual = space.frame.conj().T @ space.gram @ space.frame
        assert np.abs(residual - np.eye(space.rank)).max() <= 1e-12


class TestLargerInstance:
    def test_pair8_holds_the_key_properties(self):
        # 64 arrows, 8 identity-fiber arrows, 512-dimensional induced space
        from groupoid_workbench.algebra import i_norm, restrict_q
        from groupoid_workbench.groupoid import haar_from_weights

        g = pair_groupoid(8)
        rng = np.random.default_rng(17)
        rho = {u: float(rng.uniform(0.5, 2.5)) for u in g.units}
        z1 = FreeAbelianGroup(1)
        label = {}
        for a in g.arrows:
            i, j = a.id.strip("()").split(",")
            label[a.id] = (int(i) - int(j),)
        sys = GradedGroupoid.build(g, haar_from_weights(g, rho), cocycle_from_map(g, z1, label))
        slack = 1 + 1e-9
        for _ in range(3):
            f = random_function(sys.identity_fiber, rng)
            inner = cstar_norm(f, sys.haar)
            assert abs(cstar_norm(include_i(f, g), sys.haar) - inner) <= 1e-9 * (1 + inner)
            a = random_function(g, rng)
            q = cstar_norm(restrict_q(a, sys.identity_fiber), sys.haar)
            m = module_norm(sys, a)
            ell = L_operator_norm(sys, a)
            assert q <= m * slack and m <= ell * slack and ell <= i_norm(a, sys.haar) * slack
        a_e = random_function(sys.identity_fiber, rng)
        assert decompose_rep_U(sys, a_e, "3").max_abs_error <= 1e-12


class TestExplicitDocumentEndToEnd:
    def test_cli_verify_on_explicit_tables(self, tmp_path, capsys):
        raw = {
            "name": "explicit-z2",
            "groupoid": {
                "explicit": {
                    "units": ["u"],
                    "arrows": [
                        {"id": "e", "src": "u", "dst": "u"},
                        {"id": "g", "src": "u", "dst": "u"},
                    ],
                    "compose": [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
                    "invert": {"e": "e", "g": "g"},
                    "unit_arrows": {"u": "e"},
                }
            },
            "haar": {"rho": {"u": 2.0}},
            "group": {"finite": {"cayley": [[0, 1], [1, 0]]}},
            "cocycle": {"e": 0, "g": 1},
            "functions": {"f": {"e": [1.0, 0.0], "g": [0.5, -0.5]}},
        }
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["verify", str(path), "--suite", "all", "--seed", "2", "--count", "10"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert main(["norms", str(path), "--fn", "f"]) == 0
