"""Workload inputs and correctness oracles for the benchmark.

Every document is generated from the seed alone and serialised with sorted
keys, so one seed always yields byte-identical JSON text.  The program only
ever receives that text (through ``parse_document``) or the corpus built for
the seed (through ``builtin_corpus``).

The oracles are plain functions of plain values, so they can be tested
without running the program.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Any

# Slack of the sandwich check in ``workbench norms``.
NORMS_SLACK = 1.0 + 1e-9
NORMS_ABS = 1e-15
# ||L_a|| equals the C*-norm of a (inducing the regular representation of
# G_e gives a multiple of the regular representation of G); eigenvalue
# tolerance of the acceptance gate.
L_EQUALS_CSTAR_REL = 1e-9


@dataclass(frozen=True)
class Document:
    """One input document and what parsing it must produce.

    ``expect`` is ``"accept"`` or ``"reject"``.  An accepted document must
    report ``n_arrows``, ``fibers`` and ``identity_arrows``; a rejected one
    must raise ``DocumentError`` whose path starts with ``reject_path``.
    ``known_defect`` marks an input that the program is known to get wrong
    at the commit the benchmark was defined on; a wrong outcome on it is
    counted in ``error_ratio`` but does not make the run incorrect.
    """

    name: str
    text: str
    expect: str = "accept"
    n_arrows: int = 0
    fibers: int = 0
    identity_arrows: int = 0
    reject_path: str = ""
    known_defect: bool = False


def _dump(raw: dict[str, Any]) -> str:
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _weights(rng: random.Random, units: list[str]) -> dict[str, float]:
    return {u: round(rng.uniform(0.5, 2.5), 6) for u in units}


def _sample(rng: random.Random, arrow_ids: list[str]) -> dict[str, list[float]]:
    return {aid: [round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)] for aid in arrow_ids}


def _cyclic_cayley(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _symmetric_cayley(n: int) -> list[list[int]]:
    """Cayley table of S_n: element i is the i-th permutation of range(n) in
    lexicographic order, and the product is composition (p.q)(x) = p(q(x))."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]


def _pair_ids(n: int) -> list[str]:
    return [f"({i},{j})" for i in range(1, n + 1) for j in range(1, n + 1)]


Z = {"free_abelian": {"rank": 1}}
TRIVIAL = {"finite": {"cayley": [[0]]}}


def _pair_raw(name: str, n: int, graded: bool, rng: random.Random, groupoid: Any = None) -> dict[str, Any]:
    """Pair groupoid on 1..n, graded by i - j in Z or trivially graded."""
    ids = _pair_ids(n)
    if graded:
        cocycle = {f"({i},{j})": [i - j] for i in range(1, n + 1) for j in range(1, n + 1)}
    else:
        cocycle = {aid: 0 for aid in ids}
    return {
        "name": name,
        "groupoid": groupoid or {"builtin": "pair", "params": {"n": n}},
        "haar": {"rho": _weights(rng, [str(i) for i in range(1, n + 1)])},
        "group": Z if graded else TRIVIAL,
        "cocycle": cocycle,
        "functions": {"sample": _sample(rng, ids)},
    }


def _explicit_pair(n: int) -> dict[str, Any]:
    """The pair groupoid on 1..n written out as an explicit table."""
    units = [str(i) for i in range(1, n + 1)]
    return {
        "explicit": {
            "units": units,
            "arrows": [{"id": f"({i},{j})", "src": j, "dst": i} for i in units for j in units],
            "compose": [[f"({i},{j})", f"({j},{k})", f"({i},{k})"] for i in units for j in units for k in units],
            "invert": {f"({i},{j})": f"({j},{i})" for i in units for j in units},
            "unit_arrows": {i: f"({i},{i})" for i in units},
        }
    }


def _action_raw(name: str, points: Any, rng: random.Random) -> dict[str, Any]:
    """Cyclic shift of Z/n on n points, graded by the group coordinate."""
    n = int(points)
    ids = [f"({x},{h})" for x in range(n) for h in range(n)]
    return {
        "name": name,
        "groupoid": {"builtin": "cyclic_action", "params": {"points": points}},
        "haar": {"rho": _weights(rng, [str(x) for x in range(n)])},
        "group": {"finite": {"cayley": _cyclic_cayley(n)}},
        "cocycle": {f"({x},{h})": h for x in range(n) for h in range(n)},
        "functions": {"sample": _sample(rng, ids)},
    }


def _product_raw(name: str, n: int, k: int, rng: random.Random) -> dict[str, Any]:
    """pair(n) x Z/k, graded by the group factor."""
    ids = [f"{p}|g{h}" for p in _pair_ids(n) for h in range(k)]
    return {
        "name": name,
        "groupoid": {
            "builtin": "product",
            "params": {
                "left": {"builtin": "pair", "params": {"n": n}},
                "right": {"builtin": "cyclic_group", "params": {"n": k}},
            },
        },
        "haar": {"rho": _weights(rng, [f"{i}|u" for i in range(1, n + 1)])},
        "group": {"finite": {"cayley": _cyclic_cayley(k)}},
        "cocycle": {aid: int(aid.rsplit("|g", 1)[1]) for aid in ids},
        "functions": {"sample": _sample(rng, ids)},
    }


def scale_documents(seed: int) -> list[Document]:
    """The scale-norms inputs: each needs one dense eigensolve of dimension
    n_arrows * identity_arrows to build its induced space."""
    docs = []
    for n in (8, 10, 12):
        name = f"pair{n}-zgraded"
        docs.append(Document(name, _dump(_pair_raw(name, n, True, _rng(seed, name))), n_arrows=n * n,
                             fibers=2 * n - 1, identity_arrows=n))
    for n in (4, 5, 6):
        name = f"pair{n}-trivial"
        docs.append(Document(name, _dump(_pair_raw(name, n, False, _rng(seed, name))), n_arrows=n * n,
                             fibers=1, identity_arrows=n * n))
    name = "shift8-action"
    docs.append(Document(name, _dump(_action_raw(name, 8, _rng(seed, name))), n_arrows=64, fibers=8,
                         identity_arrows=8))
    name = "pair4-x-z3"
    docs.append(Document(name, _dump(_product_raw(name, 4, 3, _rng(seed, name))), n_arrows=48, fibers=3,
                         identity_arrows=16))
    return docs


def ingest_documents(seed: int) -> list[Document]:
    """The ingest-validate inputs: large valid documents, and invalid ones
    that must each be rejected at the named field."""
    docs = []
    for n in (20, 30, 40):
        name = f"pair{n}-builtin"
        docs.append(Document(name, _dump(_pair_raw(name, n, True, _rng(seed, name))), n_arrows=n * n,
                             fibers=2 * n - 1, identity_arrows=n))
    name = "pair30-explicit"
    raw = _pair_raw(name, 30, True, _rng(seed, name), groupoid=_explicit_pair(30))
    docs.append(Document(name, _dump(raw), n_arrows=900, fibers=59, identity_arrows=30))

    name = "s5-identity"
    rng = _rng(seed, name)
    raw = {
        "name": name,
        "groupoid": {"builtin": "symmetric_group", "params": {"n": 5}},
        "haar": {"rho": _weights(rng, ["u"])},
        "group": {"finite": {"cayley": _symmetric_cayley(5)}},
        "cocycle": {f"g{i}": i for i in range(120)},
        "functions": {"sample": _sample(rng, [f"g{i}" for i in range(120)])},
    }
    docs.append(Document(name, _dump(raw), n_arrows=120, fibers=120, identity_arrows=1))

    # One compose entry points at another arrow; the seed picks which.
    name = "pair20-explicit-bad-compose"
    rng = _rng(seed, name)
    raw = _pair_raw(name, 20, True, rng, groupoid=_explicit_pair(20))
    compose = raw["groupoid"]["explicit"]["compose"]
    k = rng.randrange(len(compose))
    wrong = rng.choice([aid for aid in _pair_ids(20) if aid != compose[k][2]])
    compose[k] = [compose[k][0], compose[k][1], wrong]
    docs.append(Document(name, _dump(raw), expect="reject", reject_path="groupoid"))

    # The label of the last arrow (20,1) is off by a seeded nonzero amount; it
    # is placed last so the validator scans the whole table for every seed.
    name = "pair20-bad-cocycle"
    rng = _rng(seed, name)
    raw = _pair_raw(name, 20, True, rng)
    raw["cocycle"]["(20,1)"] = [19 + rng.randint(1, 5)]
    docs.append(Document(name, _dump(raw), expect="reject", reject_path="cocycle"))

    name = "pair20-bad-weight"
    rng = _rng(seed, name)
    raw = _pair_raw(name, 20, True, rng)
    raw["haar"]["rho"][str(rng.randint(1, 20))] = -round(rng.uniform(0.0, 2.0), 6)
    docs.append(Document(name, _dump(raw), expect="reject", reject_path="haar.rho"))

    # Silent coercions: the parser casts with int(), so these build a pair
    # groupoid with n = 1, one with n = 2, and a 3-point action.  Each must be
    # rejected at the offending parameter; each document is otherwise valid
    # for the coerced value, so acceptance is the only wrong outcome.
    for name, n, value in (("coerce-n-true", 1, True), ("coerce-n-float", 2, 2.7)):
        raw = _pair_raw(name, n, True, _rng(seed, name), groupoid={"builtin": "pair", "params": {"n": value}})
        docs.append(Document(name, _dump(raw), expect="reject", reject_path="groupoid", known_defect=True))
    name = "coerce-points-string"
    raw = _action_raw(name, "3", _rng(seed, name))
    docs.append(Document(name, _dump(raw), expect="reject", reject_path="groupoid", known_defect=True))
    return docs


# -- oracles ---------------------------------------------------------------


def norms_ok(norms: dict[str, float]) -> bool:
    """The sandwich restriction <= module <= operator <= I-norm at the CLI's
    slack, and ||L_a|| equal to the C*-norm within 1e-9 relative."""
    r, m, o, i, c = (norms[k] for k in ("restriction", "module", "operator", "i_norm", "cstar"))
    sandwich = (
        r <= m * NORMS_SLACK + NORMS_ABS
        and m <= o * NORMS_SLACK + NORMS_ABS
        and o <= i * NORMS_SLACK + NORMS_ABS
    )
    return sandwich and abs(o - c) <= L_EQUALS_CSTAR_REL * max(abs(c), 1e-300)


def ingest_ok(doc: Document, outcome: tuple) -> bool:
    """``outcome`` is ``("accept", n_arrows, fibers, identity_arrows)``,
    ``("reject", path)`` for a ``DocumentError``, or ``("raised", repr)`` for
    any other exception."""
    if doc.expect == "accept":
        return outcome == ("accept", doc.n_arrows, doc.fibers, doc.identity_arrows)
    return outcome[0] == "reject" and outcome[1].startswith(doc.reject_path)


def corpus_items(checks: list[dict[str, Any]]) -> dict[tuple[str, str], str]:
    """Canonical JSON of each (instance, suite) item of a verification report."""
    groups: dict[tuple[str, str], list[dict[str, Any]]] = {}
    for check in checks:
        groups.setdefault((check["instance"], check["suite"]), []).append(check)
    return {key: json.dumps(items, sort_keys=True) for key, items in groups.items()}


def corpus_items_ok(
    checks: list[dict[str, Any]], reference: dict[tuple[str, str], str]
) -> dict[tuple[str, str], bool]:
    """Per (instance, suite) item: every check passed, and the item is
    byte-identical to the same item in ``reference`` (an earlier pass)."""
    items = corpus_items(checks)
    failing = {(c["instance"], c["suite"]) for c in checks if c["status"] != "pass"}
    return {
        key: key not in failing and items.get(key) == reference.get(key)
        for key in items.keys() | reference.keys()
    }
