"""Four documents on the pair groupoid for an end-to-end ``workbench validate``
run through both construction paths: the builtin pair(n), its explicit-table
twin, the twin with one compose entry redirected to another arrow, and the
twin with one compose product naming an undeclared arrow.  The first two
must be accepted (exit 0) and the last two rejected (exit 2), the last at
``groupoid.explicit``.

    python tests/pair_documents.py N OUT_DIR

writes ``pair{N}-builtin.json``, ``pair{N}-explicit.json``,
``pair{N}-explicit-bad-compose.json`` and ``pair{N}-explicit-unknown-id.json``
to OUT_DIR.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any


def pair_documents(n: int) -> dict[str, dict[str, Any]]:
    """The four documents by name, Z-graded by i - j with weights 1..n."""
    units = [str(i) for i in range(1, n + 1)]
    ids = [f"({i},{j})" for i in units for j in units]
    builtin = {
        "name": f"pair{n}-builtin",
        "groupoid": {"builtin": "pair", "params": {"n": n}},
        "haar": {"rho": {u: float(u) for u in units}},
        "group": {"free_abelian": {"rank": 1}},
        "cocycle": {f"({i},{j})": [int(i) - int(j)] for i in units for j in units},
        "functions": {"sample": {aid: [1.0, -0.5] for aid in ids[::3]}},
    }
    compose = [[f"({i},{j})", f"({j},{k})", f"({i},{k})"] for i in units for j in units for k in units]
    explicit = dict(
        builtin,
        name=f"pair{n}-explicit",
        groupoid={
            "explicit": {
                "units": units,
                "arrows": [{"id": f"({i},{j})", "src": j, "dst": i} for i in units for j in units],
                "compose": compose,
                "invert": {f"({i},{j})": f"({j},{i})" for i in units for j in units},
                "unit_arrows": {i: f"({i},{i})" for i in units},
            }
        },
    )
    def with_product(name: str, product: str) -> dict[str, Any]:
        """The explicit twin with the product of (1,1)(1,n) replaced."""
        triples = [list(triple) for triple in compose]
        triples[n - 1][2] = product
        return dict(explicit, name=name, groupoid={"explicit": dict(explicit["groupoid"]["explicit"], compose=triples)})

    # (n,1) has the wrong endpoints for n > 1; (n+1,1) is no arrow at all
    broken = with_product(f"pair{n}-explicit-bad-compose", f"({n},1)")
    unknown = with_product(f"pair{n}-explicit-unknown-id", f"({n + 1},1)")
    return {doc["name"]: doc for doc in (builtin, explicit, broken, unknown)}


def main(argv: list[str]) -> int:
    n, out = int(argv[0]), Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in pair_documents(n).items():
        (out / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
