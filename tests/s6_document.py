"""A small S6-graded document for an end-to-end run at the size of S6: the
pair groupoid on three points, graded by c(i, j) = b_i b_j^-1 for three
fixed permutations b_i, with the full 720 x 720 Cayley table of S6 as its
finite group.  The three labels make seven fibers.  ``workbench validate``
must accept it (the Cayley table passes the group axioms) and
``workbench verify --suite bundle`` must pass.

    PYTHONPATH=src python tests/s6_document.py OUT_FILE

writes the document to OUT_FILE.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from groupoid_workbench.groups import permutations_of, symmetric_group

# b_1 = identity, b_2 a 3-cycle, b_3 a 6-cycle, as permutations of 0..5
LABELS = [(0, 1, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (1, 2, 3, 4, 5, 0)]


def s6_document() -> dict[str, Any]:
    s6 = symmetric_group(6)
    b = [permutations_of(6).index(p) for p in LABELS]
    units = ["1", "2", "3"]
    return {
        "name": "pair3-s6",
        "groupoid": {"builtin": "pair", "params": {"n": 3}},
        "haar": {"rho": {u: float(u) for u in units}},
        "group": {"finite": {"cayley": s6.cayley.tolist()}},
        "cocycle": {f"({i},{j})": s6.mul(b[i - 1], s6.inv(b[j - 1])) for i in (1, 2, 3) for j in (1, 2, 3)},
    }


def main(argv: list[str]) -> int:
    Path(argv[0]).write_text(json.dumps(s6_document()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
