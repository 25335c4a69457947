"""Built-in corpus: size, shapes, determinism, and the advertised members."""

import os
import subprocess
import sys

from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.groupoid import validate_groupoid


def test_corpus_size_and_validity():
    docs = builtin_corpus(seed=0)
    assert len(docs) >= 12
    for doc in docs:
        assert validate_groupoid(doc.groupoid).ok
        assert doc.groupoid.n_arrows <= 500


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
