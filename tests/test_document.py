"""Document parsing: formats, validation errors with paths, round-trips."""

import json
import time

import pytest

from groupoid_workbench import document
from groupoid_workbench.cli import main
from groupoid_workbench.document import (
    DocumentError,
    build_groupoid,
    document_from_dict,
    parse_document,
)

from conftest import dense_compose


def minimal_pair_doc() -> dict:
    return {
        "name": "minimal",
        "groupoid": {"builtin": "pair", "params": {"n": 2}},
        "haar": {"rho": {"1": 1.0, "2": 4.0}},
        "group": {"free_abelian": {"rank": 1}},
        "cocycle": {"(1,1)": [0], "(1,2)": [-1], "(2,1)": [1], "(2,2)": [0]},
        "functions": {"f": {"(1,2)": [2.0, 0.5]}},
    }


class TestParse:
    def test_minimal_document(self):
        doc = parse_document(json.dumps(minimal_pair_doc()))
        assert doc.name == "minimal"
        assert doc.groupoid.n_arrows == 4
        assert doc.functions["f"].value("(1,2)") == 2.0 + 0.5j
        assert doc.system.identity_fiber.n_arrows == 2

    def test_invalid_json(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            parse_document("{not json")

    def test_unknown_top_level_field(self):
        raw = minimal_pair_doc()
        raw["extra"] = 1
        with pytest.raises(DocumentError, match="unknown fields"):
            document_from_dict(raw)

    def test_negative_haar_weight(self):
        raw = minimal_pair_doc()
        raw["haar"]["rho"]["1"] = -1.0
        with pytest.raises(DocumentError, match="Nonpositive Haar weight at unit '1'"):
            document_from_dict(raw)

    def test_missing_cocycle_label_names_arrow(self):
        raw = minimal_pair_doc()
        del raw["cocycle"]["(2,1)"]
        with pytest.raises(DocumentError, match=r"cocycle.\(2,1\)"):
            document_from_dict(raw)

    def test_cocycle_identity_violation(self):
        raw = minimal_pair_doc()
        raw["cocycle"]["(1,2)"] = [1]  # same label as (2,1): product rule breaks
        with pytest.raises(DocumentError, match="identity violation"):
            document_from_dict(raw)

    def test_function_on_unknown_arrow(self):
        raw = minimal_pair_doc()
        raw["functions"]["f"]["(9,9)"] = [1.0, 0.0]
        with pytest.raises(DocumentError, match=r"functions.f.\(9,9\)"):
            document_from_dict(raw)

    def test_complex_values_must_be_pairs(self):
        raw = minimal_pair_doc()
        raw["functions"]["f"]["(1,2)"] = 2.0
        with pytest.raises(DocumentError, match="re, im"):
            document_from_dict(raw)

    @pytest.mark.parametrize(
        "text", ["[NaN, 0]", "[0, Infinity]", "[-Infinity, 1]", "[1" + "0" * 400 + ", 0]"],
        ids=["nan", "plus-inf", "minus-inf", "int-past-float-range"],
    )
    def test_non_finite_coefficients_rejected(self, text):
        # json.loads reads NaN and Infinity; accepted, they made cstar_norm nan
        raw = json.dumps(minimal_pair_doc()).replace("[2.0, 0.5]", text)
        with pytest.raises(DocumentError, match="finite") as err:
            parse_document(raw)
        assert err.value.path == "functions.f.(1,2)"

    @pytest.mark.parametrize(
        "text", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "plus-inf", "minus-inf", "int-past-float-range"],
    )
    def test_non_finite_haar_weights_rejected(self, text):
        # the integer overflowed float() and escaped as OverflowError
        raw = json.dumps(minimal_pair_doc()).replace('"2": 4.0', f'"2": {text}')
        with pytest.raises(DocumentError, match="finite") as err:
            parse_document(raw)
        assert err.value.path == "haar.rho.2"

    def test_finite_group_backend(self):
        raw = minimal_pair_doc()
        raw["group"] = {"finite": {"cayley": [[0, 1], [1, 0]]}}
        raw["cocycle"] = {"(1,1)": 0, "(1,2)": 1, "(2,1)": 1, "(2,2)": 0}
        doc = document_from_dict(raw)
        assert len(doc.system.fibers()) == 2

    def test_bad_cayley_reported_with_path(self):
        raw = minimal_pair_doc()
        raw["group"] = {"finite": {"cayley": [[0, 0], [0, 0]]}}
        with pytest.raises(DocumentError, match="group.finite.cayley"):
            document_from_dict(raw)


class TestExplicitGroupoid:
    def explicit_z2(self) -> dict:
        return {
            "explicit": {
                "units": ["u"],
                "arrows": [{"id": "e", "src": "u", "dst": "u"}, {"id": "g", "src": "u", "dst": "u"}],
                "compose": [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
                "invert": {"e": "e", "g": "g"},
                "unit_arrows": {"u": "e"},
            }
        }

    def test_explicit_document(self):
        raw = {
            "groupoid": self.explicit_z2(),
            "haar": {"rho": {"u": 2.0}},
            "group": {"finite": {"cayley": [[0, 1], [1, 0]]}},
            "cocycle": {"e": 0, "g": 1},
        }
        doc = document_from_dict(raw)
        assert doc.groupoid.n_arrows == 2

    def test_axiom_violation_reported(self):
        spec = self.explicit_z2()
        spec["explicit"]["compose"][3] = ["g", "g", "g"]  # g.g = g breaks the inverse law
        raw = {
            "groupoid": spec,
            "haar": {"rho": {"u": 1.0}},
            "group": {"finite": {"cayley": [[0]]}},
            "cocycle": {"e": 0, "g": 0},
        }
        with pytest.raises(DocumentError, match="axiom violation"):
            document_from_dict(raw)

    @pytest.mark.parametrize("field", ["units", "arrows", "compose"])
    @pytest.mark.parametrize("value", [5, "u", {"u": "u"}, None])
    def test_table_fields_must_be_lists(self, field, value):
        spec = self.explicit_z2()
        spec["explicit"][field] = value
        with pytest.raises(DocumentError, match="expected a list") as info:
            build_groupoid(spec)
        assert info.value.path == f"groupoid.explicit.{field}"

    @staticmethod
    def numeric_pair2(first_product: int = 1) -> str:
        """pair(2) with every unit, arrow id and compose entry a JSON number:
        arrows 1 = (1,1), 2 = (1,2), 3 = (2,1), 4 = (2,2), where (i,j) runs
        j -> i; the product of the first triple, 1.1, is ``first_product``."""
        triples = [[1, 1, first_product], [1, 2, 2], [2, 3, 1], [2, 4, 2], [3, 1, 3], [3, 2, 4], [4, 3, 3], [4, 4, 4]]
        explicit = {
            "units": [1, 2],
            "arrows": [{"id": k, "src": src, "dst": dst} for k, src, dst in [(1, 1, 1), (2, 2, 1), (3, 1, 2), (4, 2, 2)]],
            "compose": triples,
            "invert": {"1": 1, "2": 3, "3": 2, "4": 4},
            "unit_arrows": {"1": 1, "2": 4},
        }
        return json.dumps(
            {
                "groupoid": {"explicit": explicit},
                "haar": {"rho": {"1": 1.0, "2": 4.0}},
                "group": {"free_abelian": {"rank": 1}},
                "cocycle": {"1": [0], "2": [-1], "3": [1], "4": [0]},
            }
        )

    def test_numeric_ids_parse_as_their_string_twin(self):
        text = self.numeric_pair2()
        assert '"units": [1, 2]' in text and '"compose": [[1, 1, 1],' in text
        raw = json.loads(text)
        explicit = raw["groupoid"]["explicit"]
        twin = {
            "units": [str(u) for u in explicit["units"]],
            "arrows": [{key: str(value) for key, value in rec.items()} for rec in explicit["arrows"]],
            "compose": [[str(aid) for aid in triple] for triple in explicit["compose"]],
            "invert": {key: str(value) for key, value in explicit["invert"].items()},
            "unit_arrows": {key: str(value) for key, value in explicit["unit_arrows"].items()},
        }
        numeric = parse_document(text).groupoid
        strings = document_from_dict(dict(raw, groupoid={"explicit": twin})).groupoid
        assert numeric.units == strings.units == ("1", "2")
        assert numeric.arrows == strings.arrows
        assert dense_compose(numeric).tolist() == dense_compose(strings).tolist()
        assert numeric.invert_index.tolist() == strings.invert_index.tolist() == [0, 2, 1, 3]
        assert numeric.unit_arrow_index.tolist() == strings.unit_arrow_index.tolist() == [0, 3]

    def test_unknown_numeric_id_rejected(self):
        with pytest.raises(DocumentError) as info:
            parse_document(self.numeric_pair2(first_product=9))
        assert info.value.path == "groupoid.explicit"
        assert str(info.value) == "groupoid.explicit: Compose entry ('1','1')->'9' references unknown arrow '9'."

    def test_repeated_pair_keeps_its_last_product(self):
        spec = self.explicit_z2()
        compose = spec["explicit"]["compose"]
        spec["explicit"]["compose"] = compose + [["g", "g", "g"]]
        assert dense_compose(build_groupoid(spec)).tolist() == [[0, 1], [1, 1]]
        spec["explicit"]["compose"] = [["g", "g", "g"]] + compose
        assert dense_compose(build_groupoid(spec)).tolist() == [[0, 1], [1, 0]]

    def test_unknown_id_only_in_an_overwritten_triple_is_not_reported(self):
        spec = self.explicit_z2()
        compose = spec["explicit"]["compose"]
        spec["explicit"]["compose"] = [["g", "g", "ghost"], ["phantom", "e", "e"]] + compose + [["phantom", "e", "g"]]
        with pytest.raises(DocumentError) as info:
            build_groupoid(spec)
        assert str(info.value) == "groupoid.explicit: Compose entry ('phantom','e')->'g' references unknown arrow 'phantom'."
        spec["explicit"]["compose"] = [["g", "g", "ghost"]] + compose
        assert dense_compose(build_groupoid(spec)).tolist() == [[0, 1], [1, 0]]

    def test_unknown_ids_are_reported_in_the_order_of_first_declaration(self):
        """A repeated pair keeps the place of its first triple: the product
        of (g, g) is unknown and is reported before the earlier-listed, but
        later-declared, pair of 'phantom'."""
        spec = self.explicit_z2()
        spec["explicit"]["compose"] = [["g", "g", "e"], ["phantom", "e", "g"], ["g", "g", "ghost"]]
        with pytest.raises(DocumentError) as info:
            build_groupoid(spec)
        assert info.value.path == "groupoid.explicit"
        assert str(info.value) == "groupoid.explicit: Compose entry ('g','g')->'ghost' references unknown arrow 'ghost'."

    @pytest.mark.parametrize("triple", ["egg", 7, None, {"e": "g"}, ["e", "g"], ["e", "g", "g", "e"]])
    def test_malformed_triple_rejected_at_its_index(self, triple):
        spec = self.explicit_z2()
        spec["explicit"]["compose"][2] = triple
        spec["explicit"]["compose"].append(5)  # a later malformed entry is not the one named
        with pytest.raises(DocumentError, match=r"expected a \[first, second, product\] triple") as info:
            build_groupoid(spec)
        assert info.value.path == "groupoid.explicit.compose[2]"

    def test_tuple_triples_accepted(self):
        spec = self.explicit_z2()
        spec["explicit"]["compose"] = [tuple(triple) for triple in spec["explicit"]["compose"]]
        assert dense_compose(build_groupoid(spec)).tolist() == [[0, 1], [1, 0]]

    def test_mixed_numeric_and_string_ids_map_like_their_strings(self):
        raw = json.loads(self.numeric_pair2())
        explicit = raw["groupoid"]["explicit"]
        explicit["compose"] = [[str(x), y, str(z)] if k % 2 else [x, y, z] for k, (x, y, z) in enumerate(explicit["compose"])]
        mixed = document_from_dict(raw).groupoid
        numeric = parse_document(self.numeric_pair2()).groupoid
        assert dense_compose(mixed).tolist() == dense_compose(numeric).tolist()

    def test_unknown_builtin(self):
        with pytest.raises(DocumentError, match="unknown builtin"):
            build_groupoid({"builtin": "torus", "params": {}})

    def test_recursive_builtins(self):
        g = build_groupoid(
            {
                "builtin": "product",
                "params": {
                    "left": {"builtin": "pair", "params": {"n": 2}},
                    "right": {"builtin": "cyclic_group", "params": {"n": 3}},
                },
            }
        )
        assert g.n_arrows == 12


class TestStrictIntegers:
    """Integer parameters are checked, never cast: a bool, float or string
    is rejected at its own path instead of building a different groupoid."""

    @pytest.mark.parametrize("value", [True, 2.7, 2.0, "2"])
    def test_pair_n(self, value):
        raw = minimal_pair_doc()
        raw["groupoid"]["params"]["n"] = value
        with pytest.raises(DocumentError) as err:
            document_from_dict(raw)
        assert err.value.path == "groupoid.params.n"

    def test_coerce_n_true(self):
        # {"n": true} used to build the pair groupoid on one point
        with pytest.raises(DocumentError) as err:
            build_groupoid({"builtin": "pair", "params": {"n": True}})
        assert err.value.path == "groupoid.params.n"

    def test_coerce_n_float(self):
        # {"n": 2.7} used to build the pair groupoid on two points
        with pytest.raises(DocumentError) as err:
            build_groupoid({"builtin": "pair", "params": {"n": 2.7}})
        assert err.value.path == "groupoid.params.n"

    def test_coerce_points_string(self):
        # {"points": "3"} used to build the 3-point cyclic action
        with pytest.raises(DocumentError) as err:
            build_groupoid({"builtin": "cyclic_action", "params": {"points": "3"}})
        assert err.value.path == "groupoid.params.points"

    def test_nested_path(self):
        spec = {
            "builtin": "product",
            "params": {
                "left": {"builtin": "pair", "params": {"n": 2}},
                "right": {"builtin": "cyclic_group", "params": {"n": 3.0}},
            },
        }
        with pytest.raises(DocumentError) as err:
            build_groupoid(spec)
        assert err.value.path == "groupoid.params.right.params.n"

    def test_bundle_orders(self):
        with pytest.raises(DocumentError) as err:
            build_groupoid({"builtin": "group_bundle_cyclic", "params": {"orders": [2, False]}})
        assert err.value.path == "groupoid.params.orders[1]"
        with pytest.raises(DocumentError) as err:
            build_groupoid({"builtin": "group_bundle_cyclic", "params": {"orders": "23"}})
        assert err.value.path == "groupoid.params.orders"
        assert build_groupoid({"builtin": "group_bundle_cyclic", "params": {"orders": [2, 3]}}).n_arrows == 5

    @pytest.mark.parametrize(
        "cayley",
        [[[0, 1.9], [1, 0]], [[0, True], [True, 0]], [[0, "1"], ["1", 0]]],
        ids=["coerce-cayley-float", "coerce-cayley-bool", "coerce-cayley-string"],
    )
    def test_finite_cayley_entries(self, cayley):
        # each of these tables used to be accepted as Z/2
        raw = minimal_pair_doc()
        raw["group"] = {"finite": {"cayley": cayley}}
        with pytest.raises(DocumentError) as err:
            document_from_dict(raw)
        assert err.value.path == "group.finite.cayley"

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_free_abelian_rank(self, value):
        raw = minimal_pair_doc()
        raw["group"]["free_abelian"]["rank"] = value
        with pytest.raises(DocumentError) as err:
            document_from_dict(raw)
        assert err.value.path == "group.free_abelian.rank"


class TestSizeBudget:
    """A builtin spec is sized from its parameters by closed forms, and one
    over ``MAX_ARROWS`` is rejected at its ``params`` before anything
    is built.  The budget is patched small here; the oversize specs run with
    ``_build_builtin`` replaced by a failure, so a missing check cannot build them."""

    SMALL = {
        "pair": ({"n": 3}, 9),
        "cyclic_group": ({"n": 5}, 5),
        "symmetric_group": ({"n": 3}, 6),
        "cyclic_action": ({"points": 3}, 9),
        "symmetric_action": ({"points": 3}, 18),
        "group_bundle_cyclic": ({"orders": [2, 3, 4]}, 9),
    }

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_closed_forms_match_the_builds(self, name, monkeypatch):
        params, arrows = self.SMALL[name]
        spec = {"builtin": name, "params": params}
        assert build_groupoid(spec).n_arrows == arrows
        monkeypatch.setattr(document, "MAX_ARROWS", arrows)
        assert build_groupoid(spec).n_arrows == arrows
        monkeypatch.setattr(document, "MAX_ARROWS", arrows - 1)
        with pytest.raises(DocumentError, match=f"{name} describes {arrows} arrows") as err:
            build_groupoid(spec)
        assert err.value.path == "groupoid.params"

    @pytest.mark.parametrize("combinator, arrows", [("disjoint_union", (1 + 4) + 5), ("product", (1 + 4) * 5)])
    def test_combinators_add_and_multiply(self, combinator, arrows, monkeypatch):
        explicit = {
            "explicit": {
                "units": ["u"],
                "arrows": [{"id": "u", "src": "u", "dst": "u"}],
                "compose": [["u", "u", "u"]],
                "invert": {"u": "u"},
                "unit_arrows": {"u": "u"},
            }
        }
        inner = {"builtin": "disjoint_union", "params": {"left": explicit, "right": {"builtin": "pair", "params": {"n": 2}}}}
        spec = {"builtin": combinator, "params": {"left": inner, "right": {"builtin": "cyclic_group", "params": {"n": 5}}}}
        assert build_groupoid(spec).n_arrows == arrows
        monkeypatch.setattr(document, "MAX_ARROWS", arrows - 1)
        with pytest.raises(DocumentError, match=f"{combinator} describes {arrows} arrows") as err:
            build_groupoid(spec)
        assert err.value.path == "groupoid.params"

    @pytest.mark.parametrize(
        "name, params",
        [
            ("pair", {"n": 100_000}),
            ("pair", {"n": 10**400}),
            ("symmetric_group", {"n": 12}),
            ("cyclic_group", {"n": 10**6}),
            ("symmetric_action", {"points": 10**9}),
            ("group_bundle_cyclic", {"orders": [4096, 1]}),
        ],
    )
    def test_oversize_specs_rejected_before_building(self, name, params, monkeypatch, tmp_path):
        def never(*args):
            raise AssertionError("an oversize spec was built")

        monkeypatch.setattr(document, "_build_builtin", never)
        raw = minimal_pair_doc()
        raw["groupoid"] = {"builtin": name, "params": params}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        started = time.perf_counter()
        assert main(["validate", str(path)]) == 2
        assert time.perf_counter() - started < 1.0
        with pytest.raises(DocumentError) as err:
            parse_document(path.read_text())
        assert err.value.path == "groupoid.params" and "over the budget of 4096" in str(err.value)

    @pytest.mark.parametrize(
        "params",
        [{"n": -5}, {"n": True}, {"n": "100000"}, {}, {"m": 10**6}],
    )
    def test_invalid_parameters_keep_their_own_errors(self, params, monkeypatch):
        monkeypatch.setattr(document, "MAX_ARROWS", 0)
        with pytest.raises(DocumentError) as err:
            build_groupoid({"builtin": "pair", "params": params})
        assert "budget" not in str(err.value)

    @staticmethod
    def loops(k: int) -> dict:
        """An explicit table of k arrows on one unit with an empty compose
        list: within the budget it fails the groupoid axioms, not the budget."""
        arrows = [{"id": f"a{i}", "src": "u", "dst": "u"} for i in range(k)]
        return {
            "explicit": {
                "units": ["u"],
                "arrows": arrows,
                "compose": [],
                "invert": {a["id"]: a["id"] for a in arrows},
                "unit_arrows": {"u": "a0"},
            }
        }

    def test_explicit_tables_are_counted(self, monkeypatch, tmp_path, capsys):
        spec = self.loops(5)
        monkeypatch.setattr(document, "MAX_ARROWS", 5)
        assert build_groupoid(spec).n_arrows == 5
        monkeypatch.setattr(document, "MAX_ARROWS", 4)

        def never(*args):
            raise AssertionError("an oversize explicit table was built")

        monkeypatch.setattr(document, "_build_explicit", never)
        with pytest.raises(DocumentError, match="describes 5 arrows, over the budget of 4") as err:
            build_groupoid(spec)
        assert err.value.path == "groupoid.explicit.arrows"
        raw = minimal_pair_doc()
        raw["groupoid"] = spec
        path = tmp_path / "loops.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.startswith("invalid: groupoid.explicit.arrows: ")

    @pytest.mark.parametrize("arrows", [{"a": {}}, "a" * 10, 7])
    def test_explicit_arrows_that_are_no_list_keep_their_error(self, arrows, monkeypatch):
        monkeypatch.setattr(document, "MAX_ARROWS", 0)
        spec = self.loops(1)
        spec["explicit"]["arrows"] = arrows
        with pytest.raises(DocumentError, match="expected a list") as err:
            build_groupoid(spec)
        assert err.value.path == "groupoid.explicit.arrows"

    @staticmethod
    def z3_graded() -> dict:
        """The one-arrow groupoid graded by Z/3, with its 3 x 3 Cayley table:
        the Cayley budget, not the arrow budget, decides it."""
        return {
            "groupoid": {"builtin": "cyclic_group", "params": {"n": 1}},
            "haar": {"rho": {"u": 1.0}},
            "group": {"finite": {"cayley": [[(a + b) % 3 for b in range(3)] for a in range(3)]}},
            "cocycle": {"g0": 0},
        }

    def test_cayley_tables_are_counted_by_their_rows(self, monkeypatch, tmp_path, capsys):
        raw = self.z3_graded()
        monkeypatch.setattr(document, "MAX_ARROWS", 3)
        assert document_from_dict(raw).system.group.order == 3

        def never(*args):
            raise AssertionError("an oversize Cayley table was read")

        monkeypatch.setattr(document, "MAX_ARROWS", 2)
        monkeypatch.setattr(document, "FiniteGroup", never)
        # rows that are no rows: reading any entry would fail otherwise
        for cayley in (raw["group"]["finite"]["cayley"], [None, "x", {}]):
            raw["group"]["finite"]["cayley"] = cayley
            with pytest.raises(DocumentError, match="the Cayley table has 3 rows, over the budget of 2") as err:
                document_from_dict(raw)
            assert err.value.path == "group.finite.cayley"
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.startswith("invalid: group.finite.cayley: ")

    @pytest.mark.parametrize("cayley", [{"a": [0]}, "abc", 7])
    def test_cayley_tables_that_are_no_list_keep_their_error(self, cayley, monkeypatch):
        raw = self.z3_graded()
        raw["group"]["finite"]["cayley"] = cayley
        monkeypatch.setattr(document, "MAX_ARROWS", 1)
        with pytest.raises(DocumentError) as err:
            document_from_dict(raw)
        assert err.value.path == "group.finite.cayley" and "budget" not in str(err.value)
