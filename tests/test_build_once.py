"""Every lazily built value is assigned once, so concurrent readers share it.

The workbench builds some values on first use: a groupoid's arrow records,
pair table columns, dense compose view, convolution bins, rep index and embeddings, a
Haar system's weight arrays, a parsed cocycle's label map, the fibers and
identity fiber that every graded groupoid on one groupoid and cocycle
shares, a graded groupoid's induced space, and an induced space's dense
Gram and frame.  Each goes through ``groupoid.once``: two
callers that miss together may both build, but both get the first value
stored.  :func:`race` makes that interleaving happen on purpose: the second
caller is held inside its build until the first caller has returned.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from groupoid_workbench import grading as grading_module
from groupoid_workbench import groupoid as groupoid_module
from groupoid_workbench import hilbert_module
from groupoid_workbench.algebra import GroupoidFunction
from groupoid_workbench.document import parse_document
from groupoid_workbench.grading import Cocycle, GradedGroupoid
from groupoid_workbench.groupoid import FiniteGroupoid, haar_from_weights, pair_groupoid
from groupoid_workbench.groups import FreeAbelianGroup
from groupoid_workbench.hilbert_module import L_operator_norm, induced_space, module_action, module_norm

from conftest import pair_cocycle
from pair_documents import pair_documents

TIMEOUT = 10.0


def race(monkeypatch, owner, name: str, read):
    """(first, second): the results of ``read()`` for two callers, where the
    second caller, in its own thread, is held at its first call of
    ``owner.name`` until the first caller's ``read()`` has returned."""
    original = getattr(owner, name)
    entered, first_returned = threading.Event(), threading.Event()
    second = {}

    def hold(*args, **kwargs):
        if threading.current_thread() is thread and not entered.is_set():
            entered.set()
            second["held"] = first_returned.wait(TIMEOUT)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, hold)
    thread = threading.Thread(target=lambda: second.setdefault("value", read()))
    thread.start()
    assert entered.wait(TIMEOUT), "the second caller never started a build"
    first = read()
    first_returned.set()
    thread.join(TIMEOUT)
    assert not thread.is_alive() and second.get("held"), "the first caller could not return while the second one built"
    return first, second["value"]


def graded_pair(n: int = 3) -> GradedGroupoid:
    g = pair_groupoid(n)
    return GradedGroupoid.build(g, haar_from_weights(g, {u: float(u) for u in g.units}), pair_cocycle(g))


def _embedding():
    parent, twin = pair_groupoid(3), pair_groupoid(3)
    sub = parent.restricted_to([a for a in parent.arrow_ids if a[1] == a[3]])
    return lambda: sub.embedding(twin)  # a parent other than the one it was cut from


def _weights():
    g = pair_groupoid(3)
    haar = haar_from_weights(g, {u: float(u) for u in g.units})
    return lambda: haar.weights(g)


def _label():
    g = pair_groupoid(3)
    c = Cocycle(FreeAbelianGroup(1), g.arrow_ids, pair_cocycle(g).elements)  # as a parser passes it
    return lambda: c.label


def _twins():
    g = pair_groupoid(3)
    c = pair_cocycle(g)
    # each read is a new twin: one groupoid and cocycle, a Haar system of its own
    return lambda: GradedGroupoid(g, haar_from_weights(g, {u: float(u) for u in g.units}), c).identity_fiber


def _space(attr: str):
    space = induced_space(graded_pair())
    return lambda: getattr(space, attr)


# value -> (reader, and the (owner, name) of a call its build makes)
CASES = {
    "arrows": (lambda: lambda g=pair_groupoid(3): g.arrows, (groupoid_module, "Arrow")),
    "composable_pairs": (lambda: pair_groupoid(3).composable_pairs, (groupoid_module, "_read_only")),
    "convolution_bins": (lambda: pair_groupoid(3).convolution_bins, (groupoid_module, "_read_only")),
    "rep_tables": (lambda: pair_groupoid(3).rep_tables, (groupoid_module, "_read_only")),
    "orbit_rep_tables": (lambda: pair_groupoid(3).orbit_rep_tables, (groupoid_module, "_read_only")),
    "embedding": (_embedding, (groupoid_module, "_read_only")),
    "weights": (_weights, (groupoid_module, "_read_only")),
    "label": (_label, (FreeAbelianGroup, "elements_of")),
    "identity_fiber": (lambda: lambda sys=graded_pair(): sys.identity_fiber, (groupoid_module, "_read_only")),
    "twin_identity_fiber": (_twins, (grading_module, "_Fibers")),
    "induced_space": (lambda: lambda sys=graded_pair(): induced_space(sys), (hilbert_module, "InducedSpace")),
    "gram": (lambda: _space("gram"), (np, "zeros")),
    "frame": (lambda: _space("frame"), (np, "zeros")),
}


@pytest.mark.parametrize("value", sorted(CASES))
def test_callers_that_miss_together_get_the_first_value(value, monkeypatch):
    reader, (owner, name) = CASES[value]
    read = reader()
    first, second = race(monkeypatch, owner, name, read)
    assert first is not None and second is first
    assert read() is first


def test_module_action_accepts_a_function_made_on_either_callers_identity_fiber(monkeypatch):
    sys = graded_pair()
    first, second = race(monkeypatch, groupoid_module, "_read_only", lambda: sys.identity_fiber)
    a = GroupoidFunction(sys.groupoid, np.ones(sys.groupoid.n_arrows, dtype=complex))
    for sub in (first, second):
        module_action(sys, a, GroupoidFunction(sub, np.ones(sub.n_arrows, dtype=complex)))


def test_bins_are_built_on_the_first_convolution_only(monkeypatch):
    builds = []
    build = FiniteGroupoid._convolution_bins
    monkeypatch.setattr(FiniteGroupoid, "_convolution_bins", lambda g: builds.append(g) or build(g))
    doc = parse_document(json.dumps(pair_documents(40)["pair40-builtin"]))
    g, a = doc.system.groupoid, doc.functions["sample"]
    assert builds == [] and "bins" not in g._cache  # validation reads the pair table only
    L_operator_norm(doc.system, a)  # the induced space does not convolve
    assert builds == []
    module_norm(doc.system, a)
    module_norm(doc.system, a)
    assert builds == [g]


def test_many_threads_reading_every_value_share_each_one():
    # more threads than cores, switching as often as the interpreter allows,
    # all released at once on fresh instances: a value assigned twice would
    # reach two threads as two objects
    graded = graded_pair(4)
    g, haar = graded.groupoid, graded.haar
    c = Cocycle(graded.group, g.arrow_ids, graded.cocycle.elements)  # its fibers are built by the threads

    def read_all():
        space = induced_space(graded)
        twin = GradedGroupoid(g, haar_from_weights(g, dict.fromkeys(g.units, 2.0)), c)
        values = (g.arrows, g.composable_pairs(), g.convolution_bins(), g.rep_tables(), haar.weights(g), graded.identity_fiber)
        return (*values, space, space.gram, space.frame, twin.identity_fiber)

    barrier, seen = threading.Barrier(8), []
    threads = [threading.Thread(target=lambda: (barrier.wait(TIMEOUT), seen.append(read_all()))) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == 8
    assert all(value is first for values in seen for value, first in zip(values, seen[0]))
