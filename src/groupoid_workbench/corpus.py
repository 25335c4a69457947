"""The built-in instance corpus: small graded groupoids of every supported shape.

Sixteen base instances (pair groupoids with the integer difference grading
and with the trivial grading, cyclic and symmetric group groupoids under
identity and quotient cocycles, cyclic-shift action groupoids graded by the
group coordinate, a bundle of two copies of Z/2, disjoint unions, and one
product graded by its group factor), each emitted twice: once with counting
Haar weights and once with a seeded random positive weight per unit.

Every document is produced through the parser, so corpus members satisfy the
parse-time validation by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .document import WorkbenchDocument, build_group, build_groupoid, document_from_dict
from .groupoid import FiniteGroupoid
from .groups import DiscreteGroup, permutation_parity, permutations_of

if TYPE_CHECKING:
    # only annotations name it; subscripting at import would put this
    # import's FiniteGroupoid into typing's cache and keep the module alive
    # after the package is imported again
    LabelFn = Callable[[FiniteGroupoid, str], Any]


def _pair_difference(g: FiniteGroupoid, aid: str) -> Any:
    i, j = aid.strip("()").split(",")
    return [int(i) - int(j)]


def _zero_label(g: FiniteGroupoid, aid: str) -> Any:
    return 0


def _group_index(g: FiniteGroupoid, aid: str) -> Any:
    return int(aid[1:])


def _s3_parity(perms: list[tuple[int, ...]]) -> LabelFn:
    return lambda g, aid: permutation_parity(perms[int(aid[1:])])


def _action_coordinate(g: FiniteGroupoid, aid: str) -> Any:
    return int(aid.rsplit(",", 1)[1].rstrip(")"))


def _bundle_element(g: FiniteGroupoid, aid: str) -> Any:
    return int(aid.rsplit(":g", 1)[1])


def _union_pair_then_zero(g: FiniteGroupoid, aid: str) -> Any:
    if aid.startswith("L:"):
        return _pair_difference(g, aid[2:])
    return [0]


def _union_index_then_zero(g: FiniteGroupoid, aid: str) -> Any:
    if aid.startswith("L:"):
        return int(aid[2:].lstrip("g"))
    return 0


def _product_second_coordinate(g: FiniteGroupoid, aid: str) -> Any:
    return int(aid.rsplit("|g", 1)[1])


def _bases() -> list[dict[str, Any]]:
    s3_perms = permutations_of(3)
    trivial_group = {"finite": {"cayley": [[0]]}}
    z = {"free_abelian": {"rank": 1}}
    bases: list[dict[str, Any]] = []
    for n in range(2, 6):
        bases.append(
            {
                "slug": f"pair{n}-zgraded",
                "groupoid": {"builtin": "pair", "params": {"n": n}},
                "group": z,
                "label": _pair_difference,
            }
        )
    for n in (2, 3):
        bases.append(
            {
                "slug": f"pair{n}-trivial",
                "groupoid": {"builtin": "pair", "params": {"n": n}},
                "group": trivial_group,
                "label": _zero_label,
            }
        )
    for n in (2, 3):
        bases.append(
            {
                "slug": f"cyclic{n}-identity",
                "groupoid": {"builtin": "cyclic_group", "params": {"n": n}},
                "group": {"finite": {"cayley": [[(a + b) % n for b in range(n)] for a in range(n)]}},
                "label": _group_index,
            }
        )
    s3_cayley = _symmetric_cayley(3)
    bases.append(
        {
            "slug": "s3-identity",
            "groupoid": {"builtin": "symmetric_group", "params": {"n": 3}},
            "group": {"finite": {"cayley": s3_cayley}},
            "label": _group_index,
        }
    )
    bases.append(
        {
            "slug": "s3-sign",
            "groupoid": {"builtin": "symmetric_group", "params": {"n": 3}},
            "group": {"finite": {"cayley": [[0, 1], [1, 0]]}},
            "label": _s3_parity(s3_perms),
        }
    )
    for n in (3, 4):
        bases.append(
            {
                "slug": f"shift{n}-action",
                "groupoid": {"builtin": "cyclic_action", "params": {"points": n}},
                "group": {"finite": {"cayley": [[(a + b) % n for b in range(n)] for a in range(n)]}},
                "label": _action_coordinate,
            }
        )
    bases.append(
        {
            "slug": "s3-action",
            "groupoid": {"builtin": "symmetric_action", "params": {"points": 3}},
            "group": {"finite": {"cayley": s3_cayley}},
            "label": _action_coordinate,
        }
    )
    bases.append(
        {
            "slug": "bundle-z2z2",
            "groupoid": {"builtin": "group_bundle_cyclic", "params": {"orders": [2, 2]}},
            "group": {"finite": {"cayley": [[0, 1], [1, 0]]}},
            "label": _bundle_element,
        }
    )
    bases.append(
        {
            "slug": "union-pair2-z2",
            "groupoid": {
                "builtin": "disjoint_union",
                "params": {
                    "left": {"builtin": "pair", "params": {"n": 2}},
                    "right": {"builtin": "cyclic_group", "params": {"n": 2}},
                },
            },
            "group": z,
            "label": _union_pair_then_zero,
        }
    )
    bases.append(
        {
            "slug": "union-z2-z3",
            "groupoid": {
                "builtin": "disjoint_union",
                "params": {
                    "left": {"builtin": "cyclic_group", "params": {"n": 2}},
                    "right": {"builtin": "cyclic_group", "params": {"n": 3}},
                },
            },
            "group": {"finite": {"cayley": [[0, 1], [1, 0]]}},
            "label": _union_index_then_zero,
        }
    )
    bases.append(
        {
            "slug": "product-pair2-z2",
            "groupoid": {
                "builtin": "product",
                "params": {
                    "left": {"builtin": "pair", "params": {"n": 2}},
                    "right": {"builtin": "cyclic_group", "params": {"n": 2}},
                },
            },
            "group": {"finite": {"cayley": [[0, 1], [1, 0]]}},
            "label": _product_second_coordinate,
        }
    )
    return bases


def _symmetric_cayley(n: int) -> list[list[int]]:
    perms = permutations_of(n)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]


def _sample_functions(g: FiniteGroupoid, rng: np.random.Generator) -> dict[str, dict[str, list[float]]]:
    sample = {
        aid: [round(float(re), 6), round(float(im), 6)]
        for aid, re, im in zip(
            g.arrow_ids, rng.uniform(-1, 1, g.n_arrows), rng.uniform(-1, 1, g.n_arrows)
        )
    }
    unit_arrows = {g.unit_arrow[u] for u in g.units}
    mass_at = next((aid for aid in g.arrow_ids if aid not in unit_arrows), g.arrow_ids[0])
    return {"sample": sample, "point_mass": {mass_at: [1.0, 0.0]}}


def builtin_corpus(seed: int = 0) -> list[WorkbenchDocument]:
    """All corpus documents for a seed, parsed and validated."""
    docs: list[WorkbenchDocument] = []
    for idx, base in enumerate(_bases()):
        g = build_groupoid(base["groupoid"])
        group: DiscreteGroup = build_group(base["group"])
        label = base["label"]
        cocycle = {aid: group.element_to_json(group.canonical(label(g, aid))) for aid in g.arrow_ids}
        rng = np.random.default_rng([seed, idx])
        weighted_rho = {u: round(float(rng.uniform(0.5, 2.5)), 6) for u in g.units}
        for variant, rho in (("counting", {u: 1.0 for u in g.units}), ("weighted", weighted_rho)):
            raw = {
                "name": f"{base['slug']}-{variant}",
                "groupoid": base["groupoid"],
                "haar": {"rho": rho},
                "group": base["group"],
                "cocycle": cocycle,
                "functions": _sample_functions(g, np.random.default_rng([seed, idx, 1])),
            }
            docs.append(document_from_dict(raw))
    return docs
