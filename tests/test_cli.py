"""CLI surface: commands, exit codes, report files."""

import json
import time

import pytest

from groupoid_workbench.cli import main
from groupoid_workbench.corpus import builtin_corpus


@pytest.fixture
def doc_file(tmp_path):
    doc = builtin_corpus(seed=0)[0]  # pair2-zgraded-counting
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc.raw), encoding="utf-8")
    return path


class TestValidate:
    def test_valid_document(self, doc_file, capsys):
        assert main(["validate", str(doc_file)]) == 0
        out = capsys.readouterr().out
        assert "ok: pair2-zgraded-counting" in out
        assert "arrows: 4" in out

    def test_invalid_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        raw = builtin_corpus(seed=0)[0].raw
        raw = dict(raw, haar={"rho": {"1": -1.0, "2": 1.0}})
        bad.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "Nonpositive Haar weight" in capsys.readouterr().out

    def test_haar_weight_past_float_range(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        text = json.dumps(builtin_corpus(seed=0)[0].raw)
        bad.write_text(text.replace('"rho": {"1": 1.0', '"rho": {"1": 1' + "0" * 400, 1), encoding="utf-8")
        assert '"1": 1000' in bad.read_text(encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "invalid: haar.rho.1" in capsys.readouterr().out

    def test_explicit_compose_not_a_list(self, tmp_path, capsys):
        raw = {
            "groupoid": {
                "explicit": {"units": ["u"], "arrows": [{"id": "e", "src": "u", "dst": "u"}], "compose": 5,
                             "invert": {"e": "e"}, "unit_arrows": {"u": "e"}}
            },
            "haar": {"rho": {"u": 1.0}},
            "group": {"finite": {"cayley": [[0]]}},
            "cocycle": {"e": 0},
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "invalid: groupoid.explicit.compose" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("argv", [["validate"], ["norms", "--fn", "f"], ["verify"]], ids=lambda a: a[0])
    def test_file_not_utf8(self, argv, tmp_path, capsys):
        """Bytes that are not UTF-8 are an invalid document (exit 2), not a traceback."""
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(argv[:1] + [str(bad)] + argv[1:]) == 2
        assert capsys.readouterr().out.startswith(f"invalid: {bad}: cannot read file: 'utf-8' codec can't decode")


class TestNorms:
    def test_norms_output(self, doc_file, capsys):
        assert main(["norms", str(doc_file), "--fn", "point_mass"]) == 0
        out = capsys.readouterr().out
        assert "I-norm" in out and "sandwich" in out and "OK" in out

    def test_unknown_function(self, doc_file, capsys):
        assert main(["norms", str(doc_file), "--fn", "ghost"]) == 2
        assert "unknown function" in capsys.readouterr().out

    def test_worked_example_values(self, tmp_path, capsys):
        # delta at (1,2) with rho = (1,4): I-norm 4, C*-norm 2
        raw = {
            "name": "worked",
            "groupoid": {"builtin": "pair", "params": {"n": 2}},
            "haar": {"rho": {"1": 1.0, "2": 4.0}},
            "group": {"free_abelian": {"rank": 1}},
            "cocycle": {"(1,1)": [0], "(1,2)": [-1], "(2,1)": [1], "(2,2)": [0]},
            "functions": {"d12": {"(1,2)": [1.0, 0.0]}},
        }
        path = tmp_path / "worked.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["norms", str(path), "--fn", "d12"]) == 0
        out = capsys.readouterr().out
        assert "I-norm:            4.0" in out
        assert "C*-norm:           2.0" in out

    def test_zero_function_all_zero(self, tmp_path, capsys):
        raw = dict(builtin_corpus(seed=0)[0].raw)
        raw["functions"] = {"zero": {}}
        path = tmp_path / "z.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["norms", str(path), "--fn", "zero"]) == 0
        out = capsys.readouterr().out
        assert out.count("0.0") >= 5


class TestVerify:
    def test_single_document(self, doc_file, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["verify", str(doc_file), "--suite", "haar", "--seed", "3", "--json", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["summary"]["failed"] == 0
        assert report["seed"] == 3
        assert all(c["property"] for c in report["checks"])

    def test_report_bytes_stable(self, doc_file, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify", str(doc_file), "--suite", "norms", "--seed", "11", "--json", str(p1)])
        main(["verify", str(doc_file), "--suite", "norms", "--seed", "11", "--json", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_requires_exactly_one_source(self, doc_file, capsys):
        assert main(["verify"]) == 2
        assert main(["verify", str(doc_file), "--corpus"]) == 2

    def test_count_override(self, doc_file, capsys):
        assert main(["verify", str(doc_file), "--suite", "algebra", "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "passed, 0 failed" in out


class TestCorpus:
    def test_corpus_emission(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", "--seed", "0", "--out", str(out_dir)]) == 0
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 34
        # emitted documents parse and validate
        assert main(["validate", str(files[0])]) == 0


def test_validate_both_construction_paths(tmp_path, capsys):
    """The builtin pair(6), its explicit-table twin and copies with one
    compose product redirected to another arrow or to an undeclared one,
    as the CI step runs them for pair(40)."""
    from pair_documents import main as write_documents

    assert write_documents(["6", str(tmp_path)]) == 0
    assert main(["validate", str(tmp_path / "pair6-builtin.json")]) == 0
    assert main(["validate", str(tmp_path / "pair6-explicit.json")]) == 0
    assert capsys.readouterr().out.count("identity-fiber arrows: 6") == 2
    assert main(["validate", str(tmp_path / "pair6-explicit-bad-compose.json")]) == 2
    assert "invalid: groupoid: axiom violation" in capsys.readouterr().out
    assert main(["validate", str(tmp_path / "pair6-explicit-unknown-id.json")]) == 2
    assert "invalid: groupoid.explicit: Compose entry ('(1,1)','(1,6)')->'(7,1)'" in capsys.readouterr().out


def test_s6_graded_document_within_budget(tmp_path, capsys):
    """The S6-graded pair(3) document, as the CI step runs it: ``validate``
    and ``verify --suite bundle`` each finish within 1 s in process.  Its
    720 x 720 Cayley table passes the group axioms by Light's test; the
    n^3 sweep alone took 1.3-4.6 s on a shared 2-vCPU machine."""
    from s6_document import main as write_document

    path = tmp_path / "pair3-s6.json"
    assert write_document([str(path)]) == 0
    started = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    validated = time.perf_counter()
    assert main(["verify", str(path), "--suite", "bundle"]) == 0
    verified = time.perf_counter()
    out = capsys.readouterr().out
    assert "grading fibers: 7" in out and "summary: 3/3 passed, 0 failed" in out
    assert validated - started <= 1.0
    assert verified - validated <= 1.0


class TestInputErrors:
    """Input errors exit 2, the code the CLI keeps apart from a failed check (1)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--corpus", "--count", "-1"],
            ["verify", "--corpus", "--suite", "haar", "--count", "0"],
            ["verify", "--corpus", "--seed", "-1"],
            ["corpus", "--seed", "-1", "--out", "unused"],
        ],
    )
    def test_option_out_of_range(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_corpus_out_names_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main(["corpus", "--out", str(taken)]) == 2
        assert capsys.readouterr().out.startswith("invalid: ")
        assert taken.read_text(encoding="utf-8") == ""

    def test_report_into_a_non_directory(self, doc_file, capsys):
        assert main(["verify", str(doc_file), "--suite", "haar", "--json", str(doc_file / "report.json")]) == 2
        assert "invalid: " in capsys.readouterr().out

    def test_report_path_is_checked_before_any_suite_runs(self, doc_file, capsys):
        assert main(["verify", "--corpus", "--suite", "haar", "--json", str(doc_file / "report.json")]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("invalid: cannot write the report")
        assert not [line for line in out if line.startswith(("PASS", "FAIL"))]
