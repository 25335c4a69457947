"""Tests of the benchmark's own code: input generation, span arithmetic and
the oracles.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import pytest

import run
import spans
import speed
import workloads


def test_generator_is_deterministic_per_seed():
    for generate in (workloads.scale_documents, workloads.ingest_documents):
        first = [(d.name, d.text) for d in generate(7)]
        assert first == [(d.name, d.text) for d in generate(7)]
        assert first != [(d.name, d.text) for d in generate(8)]


def test_ingest_documents_declare_the_coercion_cases_as_known_defects():
    docs = workloads.ingest_documents(0)
    assert len(docs) == 11
    assert {d.name for d in docs if d.known_defect} == {"coerce-n-true", "coerce-n-float", "coerce-points-string"}
    assert all(d.expect == "reject" for d in docs if d.known_defect)


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9].
    tracer = spans.Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.begin("a")
    tracer.begin("b")
    tracer.begin("c")
    tracer.end()
    tracer.end()
    tracer.begin("d")
    tracer.end()
    tracer.end()
    got = {name: (layer.calls, layer.total_s, layer.self_s) for name, layer in tracer.layers.items()}
    assert got == {"a": (1, 10, 3), "b": (1, 3, 2), "c": (1, 1, 1), "d": (1, 4, 4)}


def test_recursive_spans_keep_self_time_exact():
    # f [0, 8] calls f [2, 5]; self time sums to the outer duration.
    tracer = spans.Tracer(clock=ScriptedClock([0, 2, 5, 8]))
    tracer.begin("f")
    tracer.begin("f")
    tracer.end()
    tracer.end()
    layer = tracer.stats("f")
    assert (layer.calls, layer.self_s) == (2, 8)


def test_wrap_counts_raised_calls_and_charges_counter_reads_to_no_layer():
    tracer = spans.Tracer(clock=ScriptedClock(range(100)))
    seen = []

    def fail():
        raise ValueError("no")

    wrapped = tracer.wrap("f", fail)
    with pytest.raises(ValueError):
        wrapped()
    outer = tracer.wrap("outer", tracer.wrap("g", lambda: 1, after=lambda args, result: seen.append(result)))
    assert outer() == 1 and seen == [1]
    assert tracer.stats("f").raised == 1
    # outer [2, 7]: g [3, 4], counters [5, 6]; outer keeps only its own time.
    assert tracer.stats("outer").self_s == 5 - 1 - 1


def test_norms_oracle_flags_a_broken_sandwich_and_a_norm_gap():
    good = {"restriction": 1.0, "module": 2.0, "operator": 3.0, "i_norm": 4.0, "cstar": 3.0}
    assert workloads.norms_ok(good)
    assert not workloads.norms_ok(dict(good, module=3.5))
    assert not workloads.norms_ok(dict(good, operator=4.5, i_norm=5.0, cstar=4.5 * (1 - 1e-6)))
    assert not workloads.norms_ok(dict(good, cstar=3.0 + 1e-8))


def test_ingest_oracle_flags_wrong_outcomes():
    valid = workloads.Document("v", "{}", n_arrows=4, fibers=3, identity_arrows=2)
    invalid = workloads.Document("i", "{}", expect="reject", reject_path="haar.rho")
    assert workloads.ingest_ok(valid, ("accept", 4, 3, 2))
    assert not workloads.ingest_ok(valid, ("accept", 4, 2, 2))
    assert not workloads.ingest_ok(valid, ("reject", "groupoid"))
    assert workloads.ingest_ok(invalid, ("reject", "haar.rho"))
    assert not workloads.ingest_ok(invalid, ("reject", "cocycle"))
    assert not workloads.ingest_ok(invalid, ("accept", 4, 3, 2))
    assert not workloads.ingest_ok(invalid, ("raised", "KeyError('x')"))


def test_corpus_oracle_flags_failed_changed_and_missing_items():
    def check(instance, suite, status="pass", witness=0.0):
        return {"instance": instance, "suite": suite, "check": "c", "status": status, "witness": witness}

    checks = [check("a", "haar"), check("a", "norms"), check("b", "haar")]
    reference = workloads.corpus_items(checks)
    assert all(workloads.corpus_items_ok(checks, reference).values())
    failed = [check("a", "haar", status="fail")] + checks[1:]
    assert workloads.corpus_items_ok(failed, reference) == {("a", "haar"): False, ("a", "norms"): True, ("b", "haar"): True}
    drifted = checks[:2] + [check("b", "haar", witness=1e-17)]
    assert not workloads.corpus_items_ok(drifted, reference)[("b", "haar")]
    assert not workloads.corpus_items_ok(checks[:2], reference)[("b", "haar")]


def test_tail_percentile_keeps_ten_items_beyond():
    assert run.tail_percentile(238) == 95.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(55) == 80.0
    assert run.tail_percentile(56) == 80.0
    assert run.tail_percentile(100) == 90.0
    assert run.nearest_rank([4.0, 1.0, 3.0, 2.0], 75.0) == 3.0


def test_probe_scales_to_reference_seconds_and_reports_its_own_time():
    probe = speed.Probe()
    probe.samples, probe.spent_s = [3e-3, 1e-3, 2e-3], 0.5
    assert probe.take() == (probe.reference_s / 2e-3, 0.5, 3)
    assert probe.take() == (1.0, 0.0, 0)
    probe.enabled = False
    probe.follow(10.0)
    assert probe.samples == []
