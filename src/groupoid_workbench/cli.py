"""Command-line interface.

    workbench validate <file>
    workbench norms <file> --fn <name>
    workbench verify (<file> | --corpus) [--suite S] [--seed N] [--count K] [--json OUT]
    workbench corpus [--seed N] --out DIR

Exit codes: 0 all checks pass, 1 a verification check failed, 2 input error
(an invalid document or option, or an output path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .algebra import i_norm, restrict_q
from .corpus import builtin_corpus
from .document import MAX_DOCUMENT_BYTES, DocumentError, WorkbenchDocument, parse_document
from .hilbert_module import L_operator_norm, module_norm
from .representation import cstar_norm
from .validation import norm_chain
from .verify import DEFAULT_COUNTS, SUITES, report_to_json, run_verification


def _load_document(path: str) -> WorkbenchDocument:
    try:
        size = os.stat(path).st_size
        if size > MAX_DOCUMENT_BYTES:
            raise DocumentError("$", f"the file is {size} bytes, over the budget of {MAX_DOCUMENT_BYTES}")
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a missing or unreadable file, or one that is not UTF-8
        raise DocumentError(path, f"cannot read file: {exc}") from exc
    return parse_document(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    sys_ = doc.system
    print(f"ok: {doc.name}")
    print(f"  units: {doc.groupoid.n_units}")
    print(f"  arrows: {doc.groupoid.n_arrows}")
    print(f"  grading fibers: {len(sys_.fibers())}")
    print(f"  identity-fiber arrows: {sys_.identity_fiber.n_arrows}")
    print(f"  functions: {sorted(doc.functions)}")
    return 0


def _cmd_norms(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    if args.fn not in doc.functions:
        print(f"invalid: unknown function {args.fn!r}; document defines {sorted(doc.functions)}")
        return 2
    sys_ = doc.system
    a = doc.functions[args.fn]
    restriction = cstar_norm(restrict_q(a, sys_.identity_fiber), sys_.haar)
    module = module_norm(sys_, a)
    operator = L_operator_norm(sys_, a)
    ambient_i = i_norm(a, sys_.haar)
    ambient_c = cstar_norm(a, sys_.haar)
    print(f"{doc.name} :: {args.fn}")
    print(f"  I-norm:            {ambient_i!r}")
    print(f"  C*-norm:           {ambient_c!r}")
    print(f"  module norm:       {module!r}")
    print(f"  L operator norm:   {operator!r}")
    print(f"  restriction norm:  {restriction!r}")
    ok = norm_chain(restriction, module, operator, ambient_i)
    print(f"  sandwich restriction <= module <= operator <= I-norm: {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if bool(args.file) == bool(args.corpus):
        print("invalid: pass exactly one of a document file or --corpus")
        return 2
    docs = builtin_corpus(seed=args.seed) if args.corpus else [_load_document(args.file)]
    try:  # the report path must be writable before any suite runs
        if args.json:
            open(args.json, "a", encoding="utf-8").close()
    except OSError as exc:
        print(f"invalid: cannot write the report: {exc}")
        return 2
    report = run_verification(docs, suite=args.suite, seed=args.seed, count=args.count)
    for check in report["checks"]:
        status = check["status"].upper()
        print(f"{status:4s} {check['suite']}/{check['instance']}/{check['check']} tol={check['tolerance']}")
    summary = report["summary"]
    print(f"summary: {summary['passed']}/{summary['total']} passed, {summary['failed']} failed")
    if args.json:
        try:
            Path(args.json).write_text(report_to_json(report), encoding="utf-8")
        except OSError as exc:
            print(f"invalid: cannot write the report: {exc}")
            return 2
        print(f"report written to {args.json}")
    return 0 if summary["failed"] == 0 else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    out = Path(args.out)
    docs = builtin_corpus(seed=args.seed)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for doc in docs:
            path = out / f"{doc.name}.json"
            path.write_text(json.dumps(doc.raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {path}")
    except OSError as exc:
        print(f"invalid: cannot write the corpus: {exc}")
        return 2
    print(f"{len(docs)} documents")
    return 0


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="workbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse a document and run the structural validators")
    p_validate.add_argument("file")
    p_validate.set_defaults(handler=_cmd_validate)

    p_norms = sub.add_parser("norms", help="print the norms and sandwich verdict of a named function")
    p_norms.add_argument("file")
    p_norms.add_argument("--fn", required=True, help="function name from the document")
    p_norms.set_defaults(handler=_cmd_norms)

    p_verify = sub.add_parser("verify", help="run verification suites on a document or the corpus")
    p_verify.add_argument("file", nargs="?", default=None)
    p_verify.add_argument("--corpus", action="store_true", help="run on the built-in corpus")
    p_verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p_verify.add_argument("--seed", type=_at_least(0), default=0)
    p_verify.add_argument(
        "--count",
        type=_at_least(1),
        default=None,
        help=f"random functions per check (defaults per suite: {DEFAULT_COUNTS})",
    )
    p_verify.add_argument("--json", default=None, help="write the machine-readable report here")
    p_verify.set_defaults(handler=_cmd_verify)

    p_corpus = sub.add_parser("corpus", help="emit the built-in corpus documents")
    p_corpus.add_argument("--seed", type=_at_least(0), default=0)
    p_corpus.add_argument("--out", required=True)
    p_corpus.set_defaults(handler=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DocumentError as exc:  # an invalid or unreadable document
        print(f"invalid: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
