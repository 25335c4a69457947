"""Benchmark of groupoid-workbench, driven from outside the program.

    python3 perfbench/run.py --workload corpus-verify --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``
there and fails without printing a result if that source is missing.

Workloads (see BENCHMARK.json for why each was chosen):
  corpus-verify    ``workbench verify --corpus --suite all --seed S``: an item
                   is one (instance, suite) pair, 238 per pass.
  scale-norms      ``workbench norms`` on 8 generated documents, each on a
                   fresh parse: an item is one request.
  ingest-validate  ``workbench validate`` on 5 large valid and 6 invalid
                   generated documents: an item is one document.

A run sets up (imports the program, and on corpus-verify builds the corpus),
warms up, then times whole passes while the next one is expected to end
within ``--seconds`` of the start, and at least ``min_passes`` passes.
Set-up is timed ``SETUP_REPEATS`` times at the start and again before each
pass, and ``setup_s`` is the median: samples spread over the run keep one
moment from setting the figure.  Every pass goes through the oracles.  Like
the CLI, each corpus-verify pass runs on a corpus built for it (outside the
timed region), so the caches on the instances start cold and stay hot across
the suites of the pass.  BLAS runs one thread.

Times are reported in reference seconds (see ``speed.py``): after every item
and set-up the run times a fixed calibration kernel, leaves that time out of
the pass, and scales the pass's timings by the reference kernel time over the
pass's mean kernel time; scale-norms items use a dense eigensolve as their
kernel, all other items and every set-up an interpreter-bound one.  A shared machine's speed drifts by up
to 1.7x over minutes, for whole runs at a time, and the scale takes most of
that drift out.  The ``detail`` line gives the clock's own pass times and each pass's
scale.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the run warms up, makes one untraced pass and one pass with the
layer spans of ``spans.py`` installed, and the result holds the per-layer
metrics.  The line before the result (``detail ...``) carries the
environment stamp, per-pass times, the tail percentile with its item count,
and the error counts.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Any

# One BLAS thread: the machines this runs on have two or so shared vCPUs, and
# a second BLAS thread there times the scheduler more than the eigensolve.
# Set before numpy is first imported, which reads it once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = spans.PACKAGE
SETUP_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)
SUITE_SUM_TOLERANCE = 0.05
# Calibration samples after each set-up, so that each batch of set-ups has a
# scale of its own.
SETUP_SAMPLES = 10
PROBE = speed.Probe()  # ``main`` sets the workload's kernel
SETUP_PROBE = speed.Probe("interpreter")  # set-up is imports and parsing


@dataclass(frozen=True)
class Item:
    key: str
    latency_s: float
    ok: bool
    known_defect: bool = False


def fresh_import() -> SimpleNamespace:
    """Import the program from this checkout as a new process would, the
    modules the CLI loads included."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    importlib.import_module(f"{PACKAGE}.cli")
    names = ("algebra", "corpus", "document", "hilbert_module", "representation", "verify")
    return SimpleNamespace(**{name: sys.modules[f"{PACKAGE}.{name}"] for name in names})


class Workload:
    name = ""
    min_passes = 1
    calibration = "interpreter"  # the kind of ``speed`` kernel

    def setup(self, lib: SimpleNamespace) -> None:
        """Work the program must do before a pass; timed as set-up."""

    def warm_up(self, lib: SimpleNamespace) -> list[Item]:
        """Runs once, untimed, after set-up; by default a pass whose items
        are checked too."""
        return self.run_pass(lib)

    def before_pass(self, lib: SimpleNamespace) -> None:
        """Untimed work that gives each pass the same starting state."""

    def run_pass(self, lib: SimpleNamespace) -> list[Item]:
        raise NotImplementedError


class CorpusVerify(Workload):
    name = "corpus-verify"
    min_passes = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.docs: list[Any] = []
        self.reference: dict[tuple[str, str], str] | None = None
        self.reference_text: str | None = None
        self._latency: dict[tuple[str, str], float] = {}

    def setup(self, lib: SimpleNamespace) -> None:
        self.docs = lib.corpus.builtin_corpus(seed=self.seed)

    def _timed(self, suite: str, fn: Any) -> Any:
        def timed(doc: Any, *args: Any) -> None:
            t0 = time.perf_counter()
            fn(doc, *args)
            latency = time.perf_counter() - t0
            self._latency[(doc.name, suite)] = latency
            PROBE.follow(latency)

        return timed

    def warm_up(self, lib: SimpleNamespace) -> list[Item]:
        # An item is one suite on one instance; run_document calls each
        # suite through this table, so timing its entries times the items.
        suites = lib.verify._SUITE_FN
        for suite, fn in list(suites.items()):
            suites[suite] = self._timed(suite, fn)
        # The first calls in a process run slower; two instances reach every
        # suite without the cost of a whole pass.
        lib.verify.run_verification(lib.corpus.builtin_corpus(seed=self.seed)[:2], seed=self.seed)
        return []

    def before_pass(self, lib: SimpleNamespace) -> None:
        self.docs = lib.corpus.builtin_corpus(seed=self.seed)

    def run_pass(self, lib: SimpleNamespace) -> list[Item]:
        self._latency = {}
        report = lib.verify.run_verification(self.docs, suite="all", seed=self.seed)
        text = lib.verify.report_to_json(report)
        if self.reference is None:
            self.reference = workloads.corpus_items(report["checks"])
            self.reference_text = text
        ok = workloads.corpus_items_ok(report["checks"], self.reference)
        if text != self.reference_text or report["summary"]["failed"] != 0:
            # A difference outside the items still makes this pass's report wrong.
            if all(ok.values()):
                ok = dict.fromkeys(ok, False)
        return [
            Item(f"{instance}/{suite}", self._latency.get((instance, suite), math.nan), good)
            for (instance, suite), good in sorted(ok.items())
        ]


class ScaleNorms(Workload):
    name = "scale-norms"
    # 56 latencies put the tail at p80, inside one request's samples rather
    # than on the edge between two (p75 of 8 requests).
    min_passes = 7
    calibration = "dense"  # nine tenths of a pass is one large ``eigh`` each

    def __init__(self, seed: int) -> None:
        self.docs = workloads.scale_documents(seed)

    @staticmethod
    def request(lib: SimpleNamespace, text: str) -> dict[str, float]:
        """What ``workbench norms FILE --fn sample`` computes."""
        doc = lib.document.parse_document(text)
        system = doc.system
        a = doc.functions["sample"]
        return {
            "restriction": lib.representation.cstar_norm(lib.algebra.restrict_q(a, system.identity_fiber), system.haar),
            "module": lib.hilbert_module.module_norm(system, a),
            "operator": lib.hilbert_module.L_operator_norm(system, a),
            "i_norm": lib.algebra.i_norm(a, system.haar),
            "cstar": lib.representation.cstar_norm(a, system.haar),
        }

    def warm_up(self, lib: SimpleNamespace) -> list[Item]:
        # The two smallest eigensolves reach every call a request makes; a
        # whole pass would take a sixth of a run.
        return self.requests(lib, sorted(self.docs, key=lambda d: d.n_arrows * d.identity_arrows)[:2])

    def run_pass(self, lib: SimpleNamespace) -> list[Item]:
        return self.requests(lib, self.docs)

    def requests(self, lib: SimpleNamespace, docs: list[workloads.Document]) -> list[Item]:
        items = []
        for doc in docs:
            t0 = time.perf_counter()
            try:
                norms = self.request(lib, doc.text)
            except Exception as exc:  # a failed request is a wrong outcome, not the end of the run
                print(f"error: {doc.name}: {exc!r}", file=sys.stderr)
                norms = None
            latency = time.perf_counter() - t0
            PROBE.follow(latency)
            items.append(Item(doc.name, latency, norms is not None and workloads.norms_ok(norms)))
        return items


class IngestValidate(Workload):
    name = "ingest-validate"
    min_passes = 5

    def __init__(self, seed: int) -> None:
        self.docs = workloads.ingest_documents(seed)

    @staticmethod
    def validate(lib: SimpleNamespace, text: str) -> tuple:
        """What ``workbench validate FILE`` computes, as an oracle outcome."""
        try:
            doc = lib.document.parse_document(text)
        except lib.document.DocumentError as exc:
            return ("reject", exc.path)
        except Exception as exc:  # any other exception is a wrong outcome
            return ("raised", repr(exc))
        system = doc.system
        return ("accept", doc.groupoid.n_arrows, len(system.fibers()), system.identity_fiber.n_arrows)

    def run_pass(self, lib: SimpleNamespace) -> list[Item]:
        items = []
        for doc in self.docs:
            t0 = time.perf_counter()
            outcome = self.validate(lib, doc.text)
            latency = time.perf_counter() - t0
            PROBE.follow(latency)
            items.append(Item(doc.name, latency, workloads.ingest_ok(doc, outcome), doc.known_defect))
        return items


WORKLOADS = {w.name: w for w in (CorpusVerify, ScaleNorms, IngestValidate)}


# -- statistics ----------------------------------------------------------


def tail_percentile(n_items: int) -> float:
    """The highest ladder percentile with at least ten items beyond it."""
    return max((p for p in TAIL_LADDER if n_items - math.ceil(p / 100 * n_items) >= 10), default=TAIL_LADDER[0])


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def environment(seed: int) -> dict[str, Any]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {
        var: os.environ.get(var, "default")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


# -- runs ----------------------------------------------------------------


def load_program() -> None:
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: program source {src / PACKAGE} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))


def measure_setup(workload: Workload) -> tuple[list[float], SimpleNamespace]:
    """Time ``SETUP_REPEATS`` set-ups in reference seconds; the last one's
    program is returned."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        lib = fresh_import()
        workload.setup(lib)
        times.append(time.perf_counter() - t0)
        SETUP_PROBE.follow(times[-1], at_least=SETUP_SAMPLES)
    scale = SETUP_PROBE.take()[0]
    times = [t * scale for t in times]
    origin = Path(sys.modules[PACKAGE].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"error: imported {origin}, not the program under {ROOT / 'src'}")
    return times, lib


@dataclass(frozen=True)
class Pass:
    """One timed pass; ``wall_s`` and the item latencies are in reference
    seconds, ``raw_wall_s`` as the clock read them."""

    wall_s: float
    items: list[Item]
    raw_wall_s: float
    scale: float
    samples: int


def timed_pass(workload: Workload, lib: SimpleNamespace) -> Pass:
    workload.before_pass(lib)
    gc.collect()  # each pass starts from the same collector state
    PROBE.take()  # samples from before the pass belong to no pass
    t0 = time.perf_counter()
    items = workload.run_pass(lib)
    wall = time.perf_counter() - t0
    scale, sampling_s, samples = PROBE.take()
    raw = wall - sampling_s
    scaled = [replace(i, latency_s=i.latency_s * scale) for i in items]
    return Pass(raw * scale, scaled, raw, scale, samples)


def run_untraced(
    workload: Workload, lib: SimpleNamespace, seconds: float, setup_times: list[float]
) -> tuple[list[Item], dict, dict]:
    deadline = time.perf_counter() + seconds
    checked = workload.warm_up(lib)
    runs: list[Pass] = []
    last_s = 0.0  # the last pass with its set-ups and sampling, by the clock
    while len(runs) < workload.min_passes or time.perf_counter() + last_s <= deadline:
        t0 = time.perf_counter()
        setup_times += measure_setup(workload)[0]  # the passes keep using ``lib``
        runs.append(timed_pass(workload, lib))
        checked += runs[-1].items
        last_s = time.perf_counter() - t0
    walls = [r.wall_s for r in runs]
    passes = [r.items for r in runs]
    latencies = [i.latency_s for items in passes for i in items]
    # Fixed per workload by the item count every run reaches, so that all
    # runs report the same percentile however many passes fit in the time.
    pct = tail_percentile(len(passes[0]) * workload.min_passes)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "item_p50_ms": metric(1e3 * statistics.median(statistics.median(i.latency_s for i in items) for items in passes), "ms"),
        "item_tail_ms": metric(1e3 * nearest_rank(latencies, pct), "ms"),
    }
    detail = {
        "pass_wall_s": walls,
        "pass_raw_wall_s": [r.raw_wall_s for r in runs],
        "pass_scale": [r.scale for r in runs],
        "pass_calibration_samples": [r.samples for r in runs],
        "item_tail_percentile": pct,
        "item_tail_items": len(latencies),
        "item_median_ms": {
            key: 1e3 * statistics.median(i.latency_s for items in passes for i in items if i.key == key)
            for key in sorted({i.key for i in passes[0]})
        },
    }
    return checked, metrics, detail


def run_traced(workload: Workload, lib: SimpleNamespace) -> tuple[list[Item], dict, dict]:
    checked = workload.warm_up(lib)
    untraced = timed_pass(workload, lib)
    checked += untraced.items
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = timed_pass(workload, lib)
    finally:
        restore()
    checked += traced.items
    traced_wall, untraced_wall = traced.wall_s, untraced.wall_s
    metrics = layer_metrics(tracer, traced_wall, untraced_wall)
    detail = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}
    return checked, metrics, detail


LAYER_CALLS_AND_SELF = [
    "hilbert_module." + f
    for f in ("module_inner_product", "module_action", "module_norm", "L_operator_norm", "kernel_check",
              "eq_ruy_defect", "expectation_P", "InducedSpace")
] + [
    "representation." + f
    for f in ("cstar_norm", "positivity_check", "operator_norm", "spectrum", "decompose_rep_U", "translate_rep_V")
] + [
    "algebra." + f for f in ("convolve", "involute", "graded_components", "include_i", "restrict_q", "i_norm")
] + [
    "document.parse_document",
    "document.build_groupoid",
    "groupoid.validate_groupoid",
    "groupoid.validate_left_invariance",
    "groupoid.constructors",
    "grading.validate_cocycle",
    "grading.identity_fiber_subgroupoid",
    "grading.GradedGroupoid.fibers",
    "groups.FiniteGroup",
]
LAYER_SELF_ONLY = [
    "bundle." + f for f in ("check_grading_axioms", "check_topological_grading", "bundle_rep_check", "tautological_rep")
]
SUITES = ("haar", "algebra", "norms", "inclusion", "module", "expectation", "bundle")


def layer_metrics(tracer: spans.Tracer, traced_wall: float, untraced_wall: float) -> dict[str, dict]:
    out: dict[str, dict] = {}
    eig = [tracer.stats(f"kernel.{k}") for k in spans.KERNELS]
    out["kernel.eigvalsh.calls"] = metric(eig[0].calls, "count")
    out["kernel.eigh.calls"] = metric(eig[1].calls, "count")
    out["kernel.eig.max_dim"] = metric(tracer.counters.get("kernel.eig.max_dim", 0), "count")
    out["kernel.eig.flops_computed"] = metric(tracer.counters.get("kernel.eig.flops_computed", 0), "flop")
    out["kernel.eig.self_s"] = metric(sum(s.self_s for s in eig), "s")
    for name in LAYER_CALLS_AND_SELF:
        out[f"{name}.calls"] = metric(tracer.stats(name).calls, "count")
        out[f"{name}.self_s"] = metric(tracer.stats(name).self_s, "s")
    for name in LAYER_SELF_ONLY:
        out[f"{name}.self_s"] = metric(tracer.stats(name).self_s, "s")
    c = tracer.counters
    out["hilbert_module.InducedSpace.max_dim"] = metric(c.get("hilbert_module.InducedSpace.max_dim", 0), "count")
    out["hilbert_module.InducedSpace.rank_ratio"] = metric(
        c.get("induced.rank", 0) / c["induced.dim"] if c.get("induced.dim") else 0.0, "ratio")
    out["hilbert_module.InducedSpace.gram_nonzero_ratio"] = metric(
        c.get("induced.gram_nonzero", 0) / c["induced.gram_entries"] if c.get("induced.gram_entries") else 0.0,
        "ratio")
    out["representation.operator_norm.max_dim"] = metric(c.get("representation.operator_norm.max_dim", 0), "count")
    out["document.parse_document.rejected"] = metric(tracer.stats("document.parse_document").raised, "count")
    out["corpus.builtin_corpus.total_s"] = metric(tracer.stats("corpus.builtin_corpus").total_s, "s")
    suite_sum = 0.0
    for suite in SUITES:
        total = tracer.stats(f"verify.{suite}").total_s
        suite_sum += total
        out[f"verify.{suite}.total_s"] = metric(total, "s")
    induced_kernel = tracer.stats("hilbert_module.InducedSpace").self_s + out["kernel.eig.self_s"]["value"]
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    out["trace.suite_sum_ratio"] = metric(suite_sum / traced_wall, "ratio")
    out["trace.induced_kernel_share"] = metric(induced_kernel / traced_wall, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import numpy  # noqa: F401  (a dependency; kept out of the program's set-up time)

    workload = WORKLOADS[args.workload](args.seed)
    PROBE.kernel, PROBE.reference_s = speed.KERNELS[workload.calibration]
    # Per-layer figures are raw clock readings of passes without calibration.
    PROBE.enabled = SETUP_PROBE.enabled = not args.trace
    setup_times, lib = measure_setup(workload)
    if args.trace:
        checked, metrics, detail = run_traced(workload, lib)
    else:
        checked, metrics, detail = run_untraced(workload, lib, args.seconds, setup_times)
        metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    wrong = [i for i in checked if not i.ok]
    failed = [i for i in wrong if not i.known_defect]
    error_ratio = len(wrong) / len(checked)
    correct = not failed
    if args.trace:
        metrics["oracle.error_ratio"] = metric(error_ratio, "ratio")
        if isinstance(workload, CorpusVerify):
            correct = correct and abs(metrics["trace.suite_sum_ratio"]["value"] - 1.0) <= SUITE_SUM_TOLERANCE

    detail.update(
        workload=workload.name,
        environment=environment(args.seed),
        setup_times_s=setup_times,
        items_checked=len(checked),
        items_wrong=len(wrong),
        error_ratio=error_ratio,
        known_defects_wrong=sorted({i.key for i in wrong if i.known_defect}),
        unexpected_wrong=sorted({i.key for i in failed}),
    )
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(checked), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
