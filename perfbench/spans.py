"""Layer spans for the traced benchmark run, recorded from outside the program.

``install`` wraps the program's public functions, a few methods, the verify
suite table and ``numpy.linalg.eigvalsh``/``eigh`` in timing wrappers, and
returns a function that puts the originals back.  Nothing in the program is
edited; a wrapper replaces every module attribute that holds the original
function, so ``from .x import f`` bindings are covered too.

A corpus pass makes about a million calls into these layers, so spans are
folded into per-name totals as they close instead of being kept one by one:
a span's self time is its duration minus the durations of the spans that
opened and closed inside it.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

PACKAGE = "groupoid_workbench"

# (module, attribute, span name).  The builtin constructors share one name.
FUNCTIONS = [
    ("hilbert_module", "module_inner_product", "hilbert_module.module_inner_product"),
    ("hilbert_module", "module_action", "hilbert_module.module_action"),
    ("hilbert_module", "module_norm", "hilbert_module.module_norm"),
    ("hilbert_module", "L_operator_norm", "hilbert_module.L_operator_norm"),
    ("hilbert_module", "kernel_check", "hilbert_module.kernel_check"),
    ("hilbert_module", "eq_ruy_defect", "hilbert_module.eq_ruy_defect"),
    ("hilbert_module", "expectation_P", "hilbert_module.expectation_P"),
    ("representation", "cstar_norm", "representation.cstar_norm"),
    ("representation", "positivity_check", "representation.positivity_check"),
    ("representation", "operator_norm", "representation.operator_norm"),
    ("representation", "spectrum", "representation.spectrum"),
    ("representation", "decompose_rep_U", "representation.decompose_rep_U"),
    ("representation", "translate_rep_V", "representation.translate_rep_V"),
    ("algebra", "convolve", "algebra.convolve"),
    ("algebra", "involute", "algebra.involute"),
    ("algebra", "graded_components", "algebra.graded_components"),
    ("algebra", "include_i", "algebra.include_i"),
    ("algebra", "restrict_q", "algebra.restrict_q"),
    ("algebra", "i_norm", "algebra.i_norm"),
    ("bundle", "check_grading_axioms", "bundle.check_grading_axioms"),
    ("bundle", "check_topological_grading", "bundle.check_topological_grading"),
    ("bundle", "bundle_rep_check", "bundle.bundle_rep_check"),
    ("bundle", "tautological_rep", "bundle.tautological_rep"),
    ("document", "parse_document", "document.parse_document"),
    ("document", "build_groupoid", "document.build_groupoid"),
    ("corpus", "builtin_corpus", "corpus.builtin_corpus"),
    ("groupoid", "validate_groupoid", "groupoid.validate_groupoid"),
    ("groupoid", "validate_left_invariance", "groupoid.validate_left_invariance"),
    ("groupoid", "pair_groupoid", "groupoid.constructors"),
    ("groupoid", "group_groupoid", "groupoid.constructors"),
    ("groupoid", "action_groupoid", "groupoid.constructors"),
    ("groupoid", "group_bundle", "groupoid.constructors"),
    ("groupoid", "disjoint_union", "groupoid.constructors"),
    ("groupoid", "product", "groupoid.constructors"),
    ("grading", "validate_cocycle", "grading.validate_cocycle"),
    ("grading", "identity_fiber_subgroupoid", "grading.identity_fiber_subgroupoid"),
]

# (module, class, method, span name)
METHODS = [
    ("hilbert_module", "InducedSpace", "__init__", "hilbert_module.InducedSpace"),
    ("grading", "GradedGroupoid", "fibers", "grading.GradedGroupoid.fibers"),
    ("groups", "FiniteGroup", "__init__", "groups.FiniteGroup"),
]

KERNELS = ("eigvalsh", "eigh")


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0


class Tracer:
    """Nested spans folded into per-name totals, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, Layer] = {}
        self.counters: dict[str, float] = {}
        self._open: list[list[Any]] = []  # [name, start, time inside child spans]

    def begin(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def end(self, raised: bool = False) -> None:
        name, start, inside_children = self._open.pop()
        duration = self.clock() - start
        layer = self.layers.setdefault(name, Layer())
        layer.calls += 1
        layer.total_s += duration
        layer.self_s += duration - inside_children
        layer.raised += raised
        if self._open:
            self._open[-1][2] += duration

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span.  ``after(args, result)`` reads counters once
        the span has closed; its own time goes to an unreported span, so it is
        not charged to the caller's self time."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(raised=True)
                raise
            self.end()
            if after is not None:
                self.begin("trace.counters")
                after(args, result)
                self.end()
            return result

        return wrapper

    def stats(self, name: str) -> Layer:
        return self.layers.get(name, Layer())


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer; return a function that restores the originals."""
    import numpy as np

    undo: list[tuple[Any, str, Any]] = []
    modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
    counters = {
        "representation.operator_norm": _operator_norm_dim(tracer),
        "hilbert_module.InducedSpace": _induced_space_counters(tracer),
    }

    def replace_everywhere(original: Any, wrapper: Any) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, value))
                    setattr(module, key, wrapper)

    for mod_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
        replace_everywhere(original, tracer.wrap(span, original, counters.get(span)))

    for mod_name, cls_name, method, span in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
        original = cls.__dict__[method]
        undo.append((cls, method, original))
        setattr(cls, method, tracer.wrap(span, original, counters.get(span)))

    for kernel in KERNELS:
        original = getattr(np.linalg, kernel)
        undo.append((np.linalg, kernel, original))
        setattr(np.linalg, kernel, tracer.wrap(f"kernel.{kernel}", original, _eig_counters(tracer)))

    # run_document looks suites up in this table at call time.
    suites = sys.modules[f"{PACKAGE}.verify"]._SUITE_FN
    for suite, original in list(suites.items()):
        undo.append((suites, suite, original))
        suites[suite] = tracer.wrap(f"verify.{suite}", original)

    def restore() -> None:
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    return restore


def _eig_counters(tracer: Tracer) -> Callable:
    import numpy as np

    def after(args: tuple, result: Any) -> None:
        *batch, _, n = np.shape(args[0])
        tracer.peak("kernel.eig.max_dim", n)
        tracer.add("kernel.eig.flops_computed", math.prod(batch) * n**3)

    return after


def _operator_norm_dim(tracer: Tracer) -> Callable:
    import numpy as np

    def after(args: tuple, result: Any) -> None:
        tracer.peak("representation.operator_norm.max_dim", max(np.shape(args[0]), default=0))

    return after


def _induced_space_counters(tracer: Tracer) -> Callable:
    import numpy as np

    def after(args: tuple, result: Any) -> None:
        space = args[0]
        tracer.peak("hilbert_module.InducedSpace.max_dim", space.dim_ambient)
        tracer.add("induced.rank", space.rank)
        tracer.add("induced.dim", space.dim_ambient)
        tracer.add("induced.gram_nonzero", int(np.count_nonzero(space.gram)))
        tracer.add("induced.gram_entries", space.gram.size)

    return after
