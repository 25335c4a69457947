"""The package's record types: plain classes, read-only, with their equality.

Four records compare by value (``typing.NamedTuple``) and seven by identity
(``__slots__`` classes on ``ReadOnly``).  Each rejects assignment
and deletion with ``AttributeError``, keeps its constructor's parameters and
defaults, and none is a dataclass, whose methods are generated and compiled
at every import.  Every class the package exports is a named tuple or
rejects assignment in the same way, and no instance has a ``__dict__``.
"""

import dataclasses
import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest

import groupoid_workbench
from groupoid_workbench.algebra import GroupoidFunction, from_map
from groupoid_workbench.bundle import GradedSubspaceFamily, graded_subspaces
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import WorkbenchDocument, parse_document
from groupoid_workbench.grading import Cocycle
from groupoid_workbench.groupoid import Arrow, HaarSystem, pair_groupoid
from groupoid_workbench.groups import DiscreteGroup, FreeAbelianGroup, cyclic_group
from groupoid_workbench.hilbert_module import KernelCheckRecord, induced_space
from groupoid_workbench.representation import (
    FiberBlockDecomposition,
    TranslationWitness,
    decompose_rep_U,
    translate_rep_V,
)
from groupoid_workbench.validation import CheckReport
from groupoid_workbench.verify import CheckRecord

from conftest import pair_cocycle


def package_classes():
    for info in pkgutil.iter_modules(groupoid_workbench.__path__):
        module = importlib.import_module(f"groupoid_workbench.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def test_no_class_is_a_dataclass():
    classes = list(package_classes())
    assert len(classes) >= 11
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []


DOC = builtin_corpus(seed=0)[0]  # pair2-zgraded-counting
SYS = DOC.system
A_E = from_map(SYS.identity_fiber, {"(1,1)": 2.0, "(2,2)": 5.0})
P2 = pair_groupoid(2)
LABEL = {"(1,1)": (0,), "(1,2)": (-1,), "(2,1)": (1,), "(2,2)": (0,)}

# per type: a build of one instance (each call a new object from equal
# arguments), the name of a field, and the constructor's (name, default) pairs
VALUE_RECORDS = {
    Arrow: (lambda: Arrow("(1,2)", "2", "1"), "id", [("id", None), ("src", None), ("dst", None)]),
    CheckReport: (
        lambda: CheckReport.failed("not-multiplicative", pair=("(1,2)", "(2,1)")),
        "ok",
        [("ok", None), ("cause", None), ("witness", {})],
    ),
    CheckRecord: (
        lambda: CheckRecord("haar", "haar-left-invariance", "p", "pair2", "pass", 1e-12, 0, {"max_abs_defect": 0.0}),
        "status",
        [(n, None) for n in ("suite", "check", "prop", "instance", "status", "tolerance", "seed")] + [("witness", {})],
    ),
    KernelCheckRecord: (
        lambda: KernelCheckRecord(1.0, 2.0, 1.0, False, False, False, True),
        "consistent",
        [(n, None) for n in ("l_norm", "p_norm", "a_norm", "l_zero", "p_zero", "a_zero", "consistent")],
    ),
}
IDENTITY_RECORDS = {
    GroupoidFunction: (lambda: GroupoidFunction(P2, np.arange(4)), "coeffs", [("groupoid", None), ("coeffs", None)]),
    Cocycle: (lambda: Cocycle(FreeAbelianGroup(1), LABEL), "group", [("group", None), ("label", None), ("elements", None)]),
    HaarSystem: (lambda: HaarSystem({"1": 1.0, "2": 4.0}), "rho", [("rho", None)]),
    WorkbenchDocument: (
        lambda: WorkbenchDocument(DOC.name, SYS, DOC.functions, DOC.raw),
        "name",
        [("name", None), ("system", None), ("functions", None), ("raw", None)],
    ),
    GradedSubspaceFamily: (lambda: graded_subspaces(SYS), "bases", [("system", None), ("bases", None)]),
    FiberBlockDecomposition: (
        lambda: decompose_rep_U(SYS, A_E, "1"),
        "blocks",
        [(n, None) for n in ("unit", "block_order", "blocks", "permuted_matrix", "max_abs_error")],
    ),
    TranslationWitness: (
        lambda: translate_rep_V(SYS, A_E, "1", (1,)),
        "v_matrix",
        [(n, None) for n in "source_unit target_unit gamma_key z_arrow v_matrix fiber_block translated target_block max_abs_error".split()],
    ),
}
RECORDS = {**VALUE_RECORDS, **IDENTITY_RECORDS}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_record_is_read_only(kind):
    build, field, parameters = RECORDS[kind]
    record = build()
    assert type(record) is kind
    before = getattr(record, field)
    for change in (lambda: setattr(record, field, 0), lambda: delattr(record, field), lambda: setattr(record, "extra", 0)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(record, field) is before
    got = [(p.name, None if p.default is p.empty else p.default) for p in inspect.signature(kind).parameters.values()]
    assert got == parameters


@pytest.mark.parametrize("kind", VALUE_RECORDS, ids=lambda kind: kind.__name__)
def test_value_records_compare_by_value(kind):
    build = VALUE_RECORDS[kind][0]
    first, second = build(), build()
    assert first is not second and first == second
    assert first != first._replace(**{first._fields[0]: "other"})


@pytest.mark.parametrize("kind", IDENTITY_RECORDS, ids=lambda kind: kind.__name__)
def test_identity_records_compare_by_identity(kind):
    build = IDENTITY_RECORDS[kind][0]
    first, second = build(), build()
    assert first == first and first != second
    assert hash(first) == object.__hash__(first) and len({first, second}) == 2


EXPORTED = [value for value in map(vars(groupoid_workbench).get, groupoid_workbench.__all__) if inspect.isclass(value)]

# per exported class that is no named tuple: an instance, and the name of an
# attribute it has
INSTANCES = {
    "GroupoidFunction": (lambda: A_E, "coeffs"),
    "Cocycle": (lambda: SYS.cocycle, "group"),
    "GradedGroupoid": (lambda: SYS, "haar"),
    "FiniteGroupoid": (lambda: P2, "units"),
    "HaarSystem": (lambda: SYS.haar, "rho"),
    "DiscreteGroup": (DiscreteGroup, "__slots__"),  # the interface has no field of its own
    "FiniteGroup": (lambda: cyclic_group(3), "order"),
    "FreeAbelianGroup": (lambda: FreeAbelianGroup(2), "rank"),
    "InducedSpace": (lambda: induced_space(SYS), "rank"),
}


@pytest.mark.parametrize("kind", EXPORTED, ids=lambda kind: kind.__name__)
def test_no_exported_type_can_be_written(kind):
    if issubclass(kind, tuple) and hasattr(kind, "_fields"):
        return
    build, field = INSTANCES[kind.__name__]
    instance = build()
    assert isinstance(instance, kind) and not hasattr(instance, "__dict__")
    before = getattr(instance, field)
    for change in (lambda: setattr(instance, field, 0), lambda: setattr(instance, "extra", 0)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(instance, field) is before and not hasattr(instance, "extra")


def test_every_exported_type_is_covered():
    assert {kind.__name__ for kind in EXPORTED if not issubclass(kind, tuple)} == set(INSTANCES)


def test_induced_spectrum_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        induced_space(SYS).gram_eigenvalues[0] = 1.0


def test_defaults_are_not_shared_mutable_dicts():
    report, record = CheckReport.passed(), CheckRecord("s", "c", "p", "i", "pass", 0.0, 0)
    for witness in (report.witness, record.witness):
        assert witness == {}
        with pytest.raises(TypeError):
            witness["k"] = 1
    assert record.to_json()["witness"] == {} and type(record.to_json()["witness"]) is dict
    assert not CheckReport.failed("x") and CheckReport.passed()


def test_document_is_read_only():
    doc = builtin_corpus(seed=0)[0]
    with pytest.raises(AttributeError):
        doc.name = "x"
    with pytest.raises(TypeError):
        doc.functions["other"] = doc.functions["sample"]
    functions = {"f": doc.functions["sample"]}
    copy = WorkbenchDocument(doc.name, doc.system, functions, doc.raw)
    functions.clear()
    assert list(copy.functions) == ["f"]


def test_haar_weights_are_cached_per_instance(p2):
    haar = HaarSystem({"1": 1.0, "2": 4.0})
    assert haar.weights(p2) is haar.weights(p2)
    assert HaarSystem({"1": 1.0, "2": 4.0}).weights(p2) is not haar.weights(p2)


def test_parsed_cocycle_builds_its_labels_on_first_read():
    """A parse keeps the element array and the arrow ids; the label map is
    built from them on first read, once, equal to the labels of the document."""
    doc = parse_document(json.dumps(DOC.raw))
    c = doc.system.cocycle
    assert "label" not in c._cache  # parsing, validating and fibering never read it
    assert c.elements_on(doc.groupoid) is c.elements
    assert c.label == {aid: tuple(v) for aid, v in DOC.raw["cocycle"].items()} and c.label is c.label
    assert c.of("(1,2)") == (-1,)
    with pytest.raises(TypeError):
        c.label["(1,2)"] = (5,)


def test_cocycle_from_arrow_ids_needs_elements(p2):
    c = Cocycle(FreeAbelianGroup(1), p2.arrow_ids, pair_cocycle(p2).elements)
    assert dict(c.label) == dict(pair_cocycle(p2).label)
    with pytest.raises(TypeError, match="arrow ids"):
        Cocycle(FreeAbelianGroup(1), p2.arrow_ids)


def test_subspace_bases_are_a_read_only_copy():
    family = graded_subspaces(SYS)
    keys = family.keys
    with pytest.raises(TypeError):
        family.bases["zz"] = ("(1,2)",)
    assert family.keys == keys
    bases = dict(family.bases)
    copy = GradedSubspaceFamily(SYS, bases)
    bases.clear()
    assert copy.keys == keys


def test_witness_matrices_are_read_only_copies():
    dec = decompose_rep_U(SYS, A_E, "1")
    with pytest.raises(TypeError):
        dec.blocks["zz"] = dec.permuted_matrix
    witness = translate_rep_V(SYS, A_E, "1", (1,))
    held = [dec.permuted_matrix, *dec.blocks.values()]
    held += [getattr(witness, name) for name in ("v_matrix", "fiber_block", "translated", "target_block")]
    for matrix in held:
        with pytest.raises(ValueError):
            matrix[0, 0] = 99.0
    block, permuted = np.ones((1, 1)), np.ones((1, 1))
    copy = FiberBlockDecomposition("1", ("0",), {"0": block}, permuted, 0.0)
    block[0, 0] = permuted[0, 0] = 7.0  # the caller's arrays stay writable
    assert copy.blocks["0"][0, 0] == copy.permuted_matrix[0, 0] == 1.0
