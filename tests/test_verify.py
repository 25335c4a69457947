"""Verification harness: record structure, determinism, forced failures."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.document import WorkbenchDocument
from groupoid_workbench.grading import GradedGroupoid, trivial_cocycle
from groupoid_workbench.groupoid import HaarSystem, counting_haar, pair_groupoid
from groupoid_workbench.groups import FreeAbelianGroup
from groupoid_workbench.verify import (
    DEFAULT_COUNTS,
    SUITES,
    report_to_json,
    run_document,
    run_verification,
)

from conftest import redirected


@pytest.fixture(scope="module")
def two_docs():
    docs = builtin_corpus(seed=0)
    by_name = {d.name: d for d in docs}
    return [by_name["pair2-zgraded-weighted"], by_name["s3-sign-counting"]]


class TestRecords:
    def test_single_suite_records(self, two_docs):
        records = run_document(two_docs[0], suite="haar", seed=5)
        assert all(r.suite == "haar" for r in records)
        assert all(r.status == "pass" for r in records)
        checks = {r.check for r in records}
        assert "haar-left-invariance" in checks
        assert "haar-perturbation-detected" in checks

    def test_every_record_carries_property_and_tolerance(self, two_docs):
        records = run_document(two_docs[0], suite="norms", seed=5)
        for r in records:
            payload = r.to_json()
            assert payload["property"]
            assert "tolerance" in payload
            assert payload["seed"] == 5

    def test_unknown_suite_rejected(self, two_docs):
        with pytest.raises(ValueError, match="Unknown suite"):
            run_document(two_docs[0], suite="nope")

    def test_all_suites_have_defaults(self):
        assert set(DEFAULT_COUNTS) == set(SUITES)


class TestReport:
    def test_report_structure_and_sorting(self, two_docs):
        report = run_verification(two_docs, suite="haar", seed=1)
        assert report["format_version"] == "1"
        assert report["summary"]["failed"] == 0
        keys = [(c["suite"], c["instance"], c["check"]) for c in report["checks"]]
        assert keys == sorted(keys)

    def test_byte_identical_reports(self, two_docs):
        first = report_to_json(run_verification(two_docs, suite="norms", seed=9))
        second = report_to_json(run_verification(two_docs, suite="norms", seed=9))
        assert first == second

    def test_seed_changes_witnesses(self, two_docs):
        a = run_verification(two_docs, suite="norms", seed=1)
        b = run_verification(two_docs, suite="norms", seed=2)
        assert report_to_json(a) != report_to_json(b)


AWKWARD_STRINGS = ["", "plain", 'quote " and \\ backslash', "brace }, {", "}\n{", "tab\tnew\nline", "caf\u00e9 \u2203", "\x00\x1f", '"check": []']
AWKWARD_SCALARS = [0, -1, 2**70, True, False, None, 0.1, -0.0, 1e-300, float("nan"), float("inf"), float("-inf"), *AWKWARD_STRINGS]


def _check(rng: np.random.Generator, witness: dict) -> dict:
    pick = lambda: AWKWARD_SCALARS[rng.integers(len(AWKWARD_SCALARS))]
    fields = {k: pick() for k in ("suite", "check", "property", "instance", "status", "tolerance", "seed")}
    return {**fields, "witness": witness}


class TestReportSerialization:
    """``report_to_json`` is ``json.dumps(report, indent=2, sort_keys=True)``
    plus a newline, whether its checks take the C-encoder path or not."""

    @staticmethod
    def expected(report: dict) -> str:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_corpus_report(self):
        report = run_verification(builtin_corpus(seed=0)[:3], seed=0)
        assert report_to_json(report) == self.expected(report)

    def test_awkward_scalars(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            checks = [
                _check(rng, {s: AWKWARD_SCALARS[rng.integers(len(AWKWARD_SCALARS))] for s in AWKWARD_STRINGS[: rng.integers(4)]})
                for _ in range(rng.integers(1, 6))
            ]
            report = {"checks": checks, "notes": ["x"], "summary": {"checks": []}, "z": 1}
            assert report_to_json(report) == self.expected(report)

    @pytest.mark.parametrize(
        "checks",
        [
            [],
            [{"witness": {}}],
            [{"suite": "s", "check": "c", "property": "p", "instance": "i", "status": "pass", "tolerance": 0.0, "seed": 0, "witness": {"worst": {"a": [1, {"b": None}]}}}],
            [{"suite": ["s"], "check": "c", "property": "p", "instance": "i", "status": "pass", "tolerance": 0.0, "seed": 0, "witness": {}}],
            [{"suite": "s", "check": "c", "property": "p", "instance": "i", "status": "pass", "tolerance": 0.0, "seed": 0, "witness": [1]}],
            [{"suite": "s", "check": "c", "property": "p", "instance": "i", "status": "pass", "tolerance": np.float64(0.5), "seed": 0, "witness": {}}],
            [{"suite": "s", "check": "c", "property": "p", "instance": "i", "status": "pass", "tolerance": 0.5, "seed": 0, "witness": {3: 1, 1: 2}}],
            ["not a record"],
        ],
    )
    def test_other_shapes(self, checks):
        report = {"checks": checks, "seed": 0}
        assert report_to_json(report) == self.expected(report)


class TestForcedFailure:
    def test_broken_groupoid_fails_haar_suite(self):
        broken = redirected(pair_groupoid(2), "(1,2)", "(2,1)", "(2,2)")
        system = GradedGroupoid(broken, counting_haar(broken), trivial_cocycle(broken, FreeAbelianGroup(1)))
        doc = WorkbenchDocument(name="broken", system=system, functions={}, raw={})
        report = run_verification([doc], suite="haar", seed=0)
        failures = [c for c in report["checks"] if c["status"] != "pass"]
        assert failures
        axioms = [f for f in failures if f["check"] == "groupoid-axioms"]
        assert axioms and axioms[0]["witness"]["cause"] == "compose-range-mismatch"

    def test_nan_defect_fails_its_check(self):
        # weights near the float limit overflow (a*b)*c to inf, and the
        # associativity defect to NaN; a NaN trial used to be skipped
        g = pair_groupoid(2)
        system = GradedGroupoid(g, HaarSystem(rho={"1": 1e300, "2": 1e300}), trivial_cocycle(g, FreeAbelianGroup(1)))
        doc = WorkbenchDocument(name="huge", system=system, functions={}, raw={})
        with np.errstate(all="ignore"):
            report = run_verification([doc], suite="algebra", seed=0, count=3)
        (assoc,) = [c for c in report["checks"] if c["check"] == "convolution-associativity"]
        assert assoc["status"] == "fail"
        assert np.isnan(assoc["witness"]["max_rel_defect"])


class TestDistribution:
    def test_random_function_distribution_is_as_documented(self):
        # real vector first, then imaginary, both uniform in [-1, 1]
        from groupoid_workbench.algebra import random_function

        g = pair_groupoid(2)
        rng = np.random.default_rng(123)
        f = random_function(g, rng)
        check = np.random.default_rng(123)
        re = check.uniform(-1, 1, 4)
        im = check.uniform(-1, 1, 4)
        assert np.array_equal(f.coeffs, re + 1j * im)


class TestPastTheCorpus:
    """The all-pairs checks on the Z-graded pair groupoids on 14 points (196
    arrows) and 20 points (400 arrows), at default counts.  Checked one pair
    at a time, the bundle suite took 66 s on 196 arrows and the norms suite
    3.4 s, on a shared 2-vCPU machine; with ``fiber-sandwich-identity`` as
    four convolutions per (trial, delta), all seven suites took 1.6-1.7 s on
    196 arrows and 5.1-5.2 s on 400."""

    @pytest.fixture(scope="class")
    def pair14(self):
        from pair_documents import pair_documents

        from groupoid_workbench.document import document_from_dict

        return document_from_dict(pair_documents(14)["pair14-builtin"])

    @pytest.mark.parametrize("suite", ["bundle", "norms"])
    def test_suite_within_budget(self, pair14, suite):
        """0.08-0.11 s for the bundle suite and 0.03-0.05 s for the norms suite."""
        started = time.perf_counter()
        records = run_document(pair14, suite=suite, seed=0)
        assert time.perf_counter() - started <= 2.0
        assert [r.check for r in records if r.status != "pass"] == []

    def test_every_suite_within_budget(self, pair14):
        """All seven suites take 0.35-0.56 s here; ``fiber-sandwich-identity``
        (20 trials x 196 deltas) is one gather per chunk of (trial, delta)
        rows instead of four convolutions each."""
        started = time.perf_counter()
        records = run_document(pair14, suite="all", seed=0)
        assert time.perf_counter() - started <= 3.0
        assert [r.check for r in records if r.status != "pass"] == []

    @staticmethod
    def pair20():
        """A fresh parse, so that no test finds the induced space built."""
        from pair_documents import pair_documents

        from groupoid_workbench.document import document_from_dict

        return document_from_dict(pair_documents(20)["pair20-builtin"])

    def test_every_suite_on_400_arrows_within_budget(self):
        """All seven suites take 0.8-1.4 s on 400 arrows: the bundle suite
        about 0.45 s, the expectation suite 0.3-0.6 s and the module suite
        0.2-0.25 s."""
        pair20 = self.pair20()
        started = time.perf_counter()
        records = run_document(pair20, suite="all", seed=0)
        assert time.perf_counter() - started <= 8.0
        assert [r.check for r in records if r.status != "pass"] == []

    def test_module_suite_on_400_arrows_within_budget(self):
        """0.22-0.26 s with the induced operator compressed unit by unit;
        1.0-1.3 s over the whole frame."""
        pair20 = self.pair20()
        started = time.perf_counter()
        records = run_document(pair20, suite="module", seed=0)
        assert time.perf_counter() - started <= 1.0
        assert [r.check for r in records if r.status != "pass"] == []

    def test_induced_operator_memory_on_400_arrows(self):
        """The induced space and 100 trials of its operator norm peak at
        about 4 MB of traced allocations (15 MB over the whole frame), under
        256 n^2 bytes for n = 400 arrows."""
        from groupoid_workbench.algebra import random_stacks
        from groupoid_workbench.hilbert_module import L_operator_norm_stack

        sys = self.pair20().system
        (a,) = random_stacks(np.random.default_rng(0), 100, sys.groupoid)
        tracemalloc.start()
        try:
            norms = L_operator_norm_stack(sys, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert norms.shape == (100,)
        assert peak <= 256 * sys.groupoid.n_arrows**2

    def test_inclusion_suite_memory_on_one_fiber(self):
        """Under the zero cocycle on the pair groupoid on 30 points (900
        arrows) every unit block is one fiber block, 30 x 30 x 30 complex
        entries per trial: the inclusion suite reduces its fiber blocks a
        chunk of trials at a time, and its `tracemalloc` peak stays under 32
        MB (93-98 MB with every fiber block of 40 trials held at once)."""
        from pair_documents import pair_documents

        from groupoid_workbench.document import document_from_dict

        raw = pair_documents(30)["pair30-builtin"]
        raw["cocycle"] = {aid: [0] for aid in raw["cocycle"]}
        doc = document_from_dict(raw)
        tracemalloc.start()
        try:
            records = run_document(doc, suite="inclusion", seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(doc.system.fiber_keys) == 1
        assert [r.status for r in records] == ["pass"] * 4
        assert peak < 32e6

    def test_haar_suite_memory_at_the_arrow_budget(self):
        """On the pair groupoid on 64 points (4,096 arrows, 262,144
        composable pairs) haar-perturbation-detected sums the weight rows of
        its 20 trials a chunk of rows at a time, so the haar suite's
        `tracemalloc` peak stays under 32 MB (22 MB; 178 MB with every
        trial's sums held at once)."""
        from pair_documents import pair_documents

        from groupoid_workbench.document import document_from_dict

        doc = document_from_dict(pair_documents(64)["pair64-builtin"])
        tracemalloc.start()
        try:
            records = run_document(doc, suite="haar", seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        detected = next(r for r in records if r.check == "haar-perturbation-detected")
        assert detected.witness == {"trials": 20, "detected": 20}
        assert [r.status for r in records] == ["pass"] * 6
        assert peak < 32e6
