"""Built-in corpus: size, shapes, determinism, and the advertised members."""

import operator
import os
import subprocess
import sys

import numpy as np

from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import document_from_dict
from groupoid_workbench.grading import GradedGroupoid, identity_fiber_subgroupoid
from groupoid_workbench.groupoid import validate_groupoid
from groupoid_workbench.hilbert_module import InducedSpace, induced_space


def test_corpus_size_and_validity():
    docs = builtin_corpus(seed=0)
    assert len(docs) >= 12
    for doc in docs:
        assert validate_groupoid(doc.groupoid).ok
        assert doc.groupoid.n_arrows <= 500


def test_corpus_equals_what_the_parser_makes():
    """Each twin equals the parse of its own JSON object, though the twins
    of a base share one groupoid, group, cocycle and function set."""
    docs = builtin_corpus(seed=0)
    for doc in docs:
        parsed = document_from_dict(doc.raw)
        g, h = doc.groupoid, parsed.groupoid
        assert parsed.name == doc.name and g.units == h.units and g.arrow_ids == h.arrow_ids
        tables = ("src_index", "dst_index", "invert_index", "unit_arrow_index")
        assert all(np.array_equal(getattr(g, t), getattr(h, t)) for t in tables)
        assert all(map(np.array_equal, g.composable_pairs(), h.composable_pairs()))
        assert doc.system.haar.rho == parsed.system.haar.rho
        assert doc.system.group.name == parsed.system.group.name
        assert np.array_equal(doc.system.cocycle.elements, parsed.system.cocycle.elements)
        assert list(doc.functions) == list(parsed.functions)
        for name, f in doc.functions.items():
            assert f.groupoid is g and np.array_equal(f.coeffs, parsed.functions[name].coeffs)
    for counting, weighted in zip(docs[::2], docs[1::2]):
        assert weighted.name == counting.name.replace("-counting", "-weighted")
        assert weighted.groupoid is counting.groupoid
        assert weighted.system.cocycle is counting.system.cocycle
        assert dict(weighted.functions) == dict(counting.functions)


def test_twins_share_their_fibers_and_not_their_weights():
    """The fibers, the identity mask and G_e depend on the groupoid and the
    cocycle alone, so each weighted twin reads its counting twin's, down to
    G_e's pair table.  The induced space depends on the weights: each twin
    has its own, and the weighted twin's, built after the counting twin's,
    equals one built from a fresh parse of its JSON object."""
    docs = builtin_corpus(seed=0)
    for counting, weighted in zip(docs[::2], docs[1::2]):
        c, w = counting.system, weighted.system
        assert w.fiber_index is c.fiber_index and w.identity_mask is c.identity_mask
        assert w.identity_fiber is c.identity_fiber
        assert all(map(operator.is_, w.identity_fiber.composable_pairs(), c.identity_fiber.composable_pairs()))
        assert identity_fiber_subgroupoid(c.groupoid, c.cocycle) is GradedGroupoid(c.groupoid, w.haar, c.cocycle).identity_fiber
        first, second = induced_space(c), induced_space(w)
        assert first is not second and second.system is w
        fresh = InducedSpace(document_from_dict(weighted.raw).system)
        assert np.array_equal(second.gram, fresh.gram) and np.array_equal(second.gram_eigenvalues, fresh.gram_eigenvalues)


def test_each_call_builds_fresh_objects():
    a, b = builtin_corpus(seed=0)[0], builtin_corpus(seed=0)[0]
    assert a.groupoid is not b.groupoid and a.system.cocycle is not b.system.cocycle


def test_documents_are_deterministic():
    a = builtin_corpus(seed=3)
    b = builtin_corpus(seed=3)
    assert [d.name for d in a] == [d.name for d in b]
    assert [d.raw for d in a] == [d.raw for d in b]


def test_seed_changes_weighted_instances():
    a = {d.name: d.raw for d in builtin_corpus(seed=1)}
    b = {d.name: d.raw for d in builtin_corpus(seed=2)}
    assert a["pair2-zgraded-weighted"]["haar"] != b["pair2-zgraded-weighted"]["haar"]
    assert a["pair2-zgraded-counting"]["haar"] == b["pair2-zgraded-counting"]["haar"]


def test_sign_graded_s3_has_alternating_identity_fiber():
    docs = {d.name: d for d in builtin_corpus(seed=0)}
    sub = docs["s3-sign-counting"].system.identity_fiber
    assert sub.n_arrows == 3  # even permutations
    assert validate_groupoid(sub).ok


def test_every_shape_is_present():
    names = {d.name for d in builtin_corpus(seed=0)}
    for expected in (
        "pair5-zgraded-weighted",
        "pair3-trivial-counting",
        "cyclic3-identity-weighted",
        "s3-identity-counting",
        "shift4-action-weighted",
        "s3-action-counting",
        "bundle-z2z2-counting",
        "union-pair2-z2-weighted",
        "union-z2-z3-counting",
        "product-pair2-z2-counting",
    ):
        assert expected in names


def test_weighted_variants_are_not_counting():
    for doc in builtin_corpus(seed=0):
        rho = doc.raw["haar"]["rho"]
        if doc.name.endswith("-weighted"):
            assert any(v != 1.0 for v in rho.values())
        else:
            assert all(v == 1.0 for v in rho.values())


def test_union_and_product_sizes():
    docs = {d.name: d for d in builtin_corpus(seed=0)}
    assert docs["union-pair2-z2-counting"].groupoid.n_arrows == 6
    assert docs["union-pair2-z2-counting"].groupoid.n_units == 3
    assert docs["product-pair2-z2-counting"].groupoid.n_arrows == 8


def test_reimported_package_frees_the_previous_import():
    # a benchmark re-imports the package before every pass; a module-level
    # typing alias naming FiniteGroupoid kept each old copy alive through
    # typing's subscription cache, and resident memory grew with every import
    script = """
import gc, sys, weakref
import groupoid_workbench.corpus
old = weakref.ref(sys.modules["groupoid_workbench.groupoid"].FiniteGroupoid)
for key in [k for k in sys.modules if k.startswith("groupoid_workbench")]:
    del sys.modules[key]
import groupoid_workbench.corpus
gc.collect()
sys.exit(0 if old() is None else 1)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", script], env=env, timeout=60).returncode == 0
