"""The pinned tolerances have one home, and one rule turns each suite's
recorded defects and tolerance into its verdict."""

import ast
import math
from pathlib import Path

import pytest

from groupoid_workbench import validation
from groupoid_workbench.corpus import builtin_corpus
from groupoid_workbench.verify import _Recorder, run_verification

PINNED = {validation.ALG_TOL, validation.EIG_TOL, validation.NORM_FLOOR, validation.NONZERO_NORM, validation.NULL_THRESHOLD}


def test_pinned_tolerances_are_written_only_in_validation():
    assert PINNED == {1e-12, 1e-9, 1e-15, 1e-6, 1e-10}
    found = []
    for path in sorted(Path(validation.__file__).parent.rglob("*.py")):
        if path.name == "validation.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value in PINNED:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_one_rule_decides_the_status():
    rec = _Recorder("haar", "instance", 0)
    rec.add("at", "a defect equal to the tolerance", 0.5, defects={"max_rel_defect": 0.5})
    rec.add("over", "one defect over the tolerance", 0.5, defects={"max_rel_defect": 0.25, "max_path_gap": 0.75})
    rec.add("nan", "a NaN defect", 0.5, defects={"max_abs_defect": math.nan})
    rec.add("exact", "a positive defect at tolerance zero", 0.0, defects={"max_abs_defect": 5e-324})
    rec.add("verdict", "a failed verdict with no defect", 0.5, ok=False, defects={"max_rel_defect": 0.0})
    rec.add("plain", "a verdict alone", 0.0, cause=None)
    assert [r.status for r in rec.records] == ["pass", "fail", "fail", "fail", "fail", "pass"]
    assert rec.records[1].witness == {"max_rel_defect": 0.25, "max_path_gap": 0.75}
    assert rec.records[5].witness == {"cause": None}


@pytest.fixture(scope="module")
def corpus_report():
    return run_verification(builtin_corpus(seed=0), suite="all", seed=0)


def test_verdicts_follow_from_witnesses(corpus_report):
    """Every check that records ``max_*`` witnesses passes iff each of them
    is at most its recorded tolerance."""
    measured = 0
    for check in corpus_report["checks"]:
        worst = [v for k, v in check["witness"].items() if k.startswith("max_")]
        if worst:
            measured += 1
            assert (check["status"] == "pass") == all(v <= check["tolerance"] for v in worst), check
    # 30 such checks per instance across the seven suites
    assert measured == 30 * len(corpus_report["instances"])
