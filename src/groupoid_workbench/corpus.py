"""The built-in instance corpus: small graded groupoids of every supported shape.

Seventeen base instances (pair groupoids with the integer difference grading
and with the trivial grading, cyclic and symmetric group groupoids under
identity and quotient cocycles, cyclic-shift action groupoids graded by the
group coordinate, a bundle of two copies of Z/2, disjoint unions, and one
product graded by its group factor), each emitted twice: once with counting
Haar weights and once with a seeded random positive weight per unit.

Every document is produced through the parser, so corpus members satisfy the
parse-time validation by construction: a base's groupoid is built once, the
counting twin is read onto it by :func:`~groupoid_workbench.document.document_on`,
and the weighted twin shares that document's groupoid, group, cocycle and
functions, its Haar system checked by
:func:`~groupoid_workbench.groupoid.haar_from_weights`.  Each call builds
fresh objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .document import WorkbenchDocument, build_group, build_groupoid, document_on
from .grading import GradedGroupoid
from .groupoid import FiniteGroupoid, haar_from_weights
from .groups import DiscreteGroup, cyclic_group, permutation_parity, permutations_of, symmetric_group

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
    pair = lambda n: {"builtin": "pair", "params": {"n": n}}
    cyclic = lambda n: {"builtin": "cyclic_group", "params": {"n": n}}
    symmetric = {"builtin": "symmetric_group", "params": {"n": 3}}
    finite = lambda group: {"finite": {"cayley": group.cayley.tolist()}}
    z, z2, s3 = {"free_abelian": {"rank": 1}}, finite(cyclic_group(2)), finite(symmetric_group(3))
    rows = [
        *((f"pair{n}-zgraded", pair(n), z, _pair_difference) for n in range(2, 6)),
        *((f"pair{n}-trivial", pair(n), {"finite": {"cayley": [[0]]}}, _zero_label) for n in (2, 3)),
        *((f"cyclic{n}-identity", cyclic(n), finite(cyclic_group(n)), _group_index) for n in (2, 3)),
        ("s3-identity", symmetric, s3, _group_index),
        ("s3-sign", symmetric, z2, _s3_parity(permutations_of(3))),
        *(
            (f"shift{n}-action", {"builtin": "cyclic_action", "params": {"points": n}}, finite(cyclic_group(n)), _action_coordinate)
            for n in (3, 4)
        ),
        ("s3-action", {"builtin": "symmetric_action", "params": {"points": 3}}, s3, _action_coordinate),
        ("bundle-z2z2", {"builtin": "group_bundle_cyclic", "params": {"orders": [2, 2]}}, z2, _bundle_element),
        ("union-pair2-z2", {"builtin": "disjoint_union", "params": {"left": pair(2), "right": cyclic(2)}}, z, _union_pair_then_zero),
        ("union-z2-z3", {"builtin": "disjoint_union", "params": {"left": cyclic(2), "right": cyclic(3)}}, z2, _union_index_then_zero),
        ("product-pair2-z2", {"builtin": "product", "params": {"left": pair(2), "right": cyclic(2)}}, z2, _product_second_coordinate),
    ]
    return [{"slug": slug, "groupoid": spec, "group": group, "label": label} for slug, spec, group, label in rows]


def _sample_functions(g: FiniteGroupoid, rng: np.random.Generator) -> dict[str, dict[str, list[float]]]:
    sample = {
        aid: [round(float(re), 6), round(float(im), 6)]
        for aid, re, im in zip(
            g.arrow_ids, rng.uniform(-1, 1, g.n_arrows), rng.uniform(-1, 1, g.n_arrows)
        )
    }
    unit_arrows = {g.arrow_ids[k] for k in g.unit_arrow_index.tolist()}
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
        raw = {
            "name": f"{base['slug']}-counting",
            "groupoid": base["groupoid"],
            "haar": {"rho": {u: 1.0 for u in g.units}},
            "group": base["group"],
            "cocycle": cocycle,
            "functions": _sample_functions(g, np.random.default_rng([seed, idx, 1])),
        }
        counting = document_on(raw, g)
        rng = np.random.default_rng([seed, idx])
        rho = {u: round(float(rng.uniform(0.5, 2.5)), 6) for u in g.units}
        system = GradedGroupoid(g, haar_from_weights(g, rho), counting.system.cocycle)
        weighted = {**raw, "name": f"{base['slug']}-weighted", "haar": {"rho": rho}}
        docs += counting, WorkbenchDocument(weighted["name"], system, counting.functions, weighted)
    return docs
