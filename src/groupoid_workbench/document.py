"""JSON document format for workbench instances.

A document describes one graded groupoid with its Haar weights, grading
group, cocycle, and optionally some named functions:

    {
      "name": "pair3-zgraded",
      "groupoid": {"builtin": "pair", "params": {"n": 3}},
      "haar": {"rho": {"1": 1.0, "2": 4.0, "3": 2.0}},
      "group": {"free_abelian": {"rank": 1}},
      "cocycle": {"(1,1)": [0], "(1,2)": [-1], ...},
      "functions": {"f": {"(1,2)": [2.0, 0.0]}}
    }

Groupoids are either built in (pair, cyclic_group, symmetric_group,
cyclic_action, group_bundle_cyclic, and the recursive disjoint_union /
product combinators) or explicit tables.  Complex numbers are [re, im]
pairs; group elements are an index (finite backend) or an integer vector
(free abelian).  Parsing validates everything, through
:func:`~groupoid_workbench.grading.validate_system`: groupoid axioms, Haar
positivity and the cocycle identities, with the JSON path in every error
(per-unit Haar weights are left invariant by construction).
"""

from __future__ import annotations

import itertools
import json
import math
from functools import partial
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from .algebra import GroupoidFunction
from .grading import Cocycle, GradedGroupoid, InvalidSystem, validate_system
from .groupoid import (
    FiniteGroupoid,
    ReadOnly,
    action_groupoid,
    disjoint_union,
    group_bundle,
    group_groupoid,
    numbered,
    pair_groupoid,
    product,
)
from .groups import (
    DiscreteGroup,
    FiniteGroup,
    FreeAbelianGroup,
    cyclic_group,
    permutations_of,
    strict_int,
    symmetric_group,
)


class DocumentError(ValueError):
    """Parse-time failure, carrying the JSON path of the offending field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class WorkbenchDocument(ReadOnly):
    """A parsed and fully validated instance plus its named functions, held
    as a read-only copy of the mapping passed in, and ``raw``, the JSON
    object it was read from."""

    __slots__ = ("name", "system", "functions", "raw")

    def __init__(self, name: str, system: GradedGroupoid, functions: Mapping[str, GroupoidFunction], raw: dict[str, Any]) -> None:
        self._set(name=name, system=system, functions=MappingProxyType(dict(functions)), raw=raw)

    @property
    def groupoid(self) -> FiniteGroupoid:
        return self.system.groupoid


def _require(obj: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise DocumentError(path, f"missing required field {key!r}")
    return obj[key]


def _require_int(obj: Mapping[str, Any], key: str, path: str) -> int:
    """A required integer field; bools, floats and strings are rejected, not cast."""
    return _as_int(_require(obj, key, path), f"{path}.{key}")


def _as_int(value: Any, path: str) -> int:
    try:
        return strict_int(value)
    except TypeError as exc:
        raise DocumentError(path, str(exc)) from None


def _as_object(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise DocumentError(path, f"expected an object, got {type(value).__name__}")
    return value


MAX_ARROWS = 4096
"""The most arrows a groupoid spec may describe, counted from a builtin's
parameters or an explicit table's arrow list before anything is built; a
larger spec is rejected.  A finite group's Cayley table may have as many
rows, counted before any entry is read."""

MAX_DOCUMENT_BYTES = 4096 * MAX_ARROWS
"""The largest document file read, 16 MiB (4 KiB per arrow of the budget;
the explicit pair(64) is a 9.3 MB file), compared with the file's size
before any byte is read."""

MAX_FUNCTION_ENTRIES = 256 * MAX_ARROWS
"""The most coefficients a document's functions may hold together (256
functions at the arrow budget, 16 MiB of complex coefficients), counted as
functions times arrows before any coefficient array is allocated."""


def _arrow_count(spec: Any) -> int | None:
    """The number of arrows a groupoid spec describes, by closed forms over
    the builtin parameters (an explicit part counts its listed arrows), or
    None when a parameter is missing or invalid, which ``_build_builtin`` reports."""
    try:
        if set(spec) == {"explicit"}:
            arrows = spec["explicit"]["arrows"]
            return len(arrows) if isinstance(arrows, list) else None
        name, params = spec["builtin"], spec.get("params", {})
        if name in ("disjoint_union", "product"):
            left, right = _arrow_count(params["left"]), _arrow_count(params["right"])
            return None if None in (left, right) else left + right if name == "disjoint_union" else left * right
        if name == "group_bundle_cyclic":
            orders = [strict_int(k) for k in params["orders"]]
            return sum(orders) if min(orders, default=0) >= 0 else None
        n = strict_int(params["points" if name.endswith("action") else "n"])
    except (KeyError, TypeError, AttributeError):
        return None
    factorial = math.factorial(min(max(n, 0), 32))  # 32! is past any budget
    closed = {"pair": n * n, "cyclic_group": n, "cyclic_action": n * n, "symmetric_group": factorial, "symmetric_action": n * factorial}
    return closed.get(name) if n >= 0 else None


def build_groupoid(spec: Mapping[str, Any], path: str = "groupoid") -> FiniteGroupoid:
    """Construct a groupoid from a builtin or explicit specification; a
    spec over :data:`MAX_ARROWS` arrows is rejected first, at the builtin's
    ``params`` or the explicit table's ``arrows``."""
    spec = _as_object(spec, path)
    keys = set(spec)
    if keys == {"builtin", "params"} or keys == {"builtin"}:
        name = spec["builtin"]
        params = _as_object(spec.get("params", {}), f"{path}.params")
        _check_budget(spec, f"{path}.params", name)
        return _build_builtin(name, params, path)
    if keys == {"explicit"}:
        explicit = _as_object(spec["explicit"], f"{path}.explicit")
        _check_budget(spec, f"{path}.explicit.arrows", "the explicit table")
        return _build_explicit(explicit, f"{path}.explicit")
    raise DocumentError(path, "expected either {'builtin': ..., 'params': ...} or {'explicit': ...}")


def _check_budget(spec: Mapping[str, Any], path: str, what: Any) -> None:
    arrows = _arrow_count(spec)
    if arrows is not None and arrows > MAX_ARROWS:
        shown = arrows if arrows < 10**18 else "over 10^18"
        raise DocumentError(path, f"{what} describes {shown} arrows, over the budget of {MAX_ARROWS}")


def _build_builtin(name: Any, params: Mapping[str, Any], path: str) -> FiniteGroupoid:
    at = f"{path}.params"
    try:
        if name == "pair":
            return pair_groupoid(_require_int(params, "n", at))
        if name == "cyclic_group":
            return group_groupoid(cyclic_group(_require_int(params, "n", at)))
        if name == "symmetric_group":
            return group_groupoid(symmetric_group(_require_int(params, "n", at)))
        if name == "cyclic_action":
            n = _require_int(params, "points", at)
            grp = cyclic_group(n)
            return action_groupoid(range(n), grp, grp.cayley)  # x.h = x + h
        if name == "symmetric_action":
            n = _require_int(params, "points", at)
            grp = symmetric_group(n)
            # x.h = h^{-1}(x): column h of the table is the inverse permutation
            inverses = np.array(permutations_of(n), dtype=np.intp)[grp.inverse_table]
            return action_groupoid(range(n), grp, inverses.T)
        if name == "group_bundle_cyclic":
            orders = _require(params, "orders", at)
            if not isinstance(orders, list):
                raise DocumentError(f"{at}.orders", f"expected a list of integers, got {orders!r}")
            return group_bundle([cyclic_group(_as_int(k, f"{at}.orders[{i}]")) for i, k in enumerate(orders)])
        if name in ("disjoint_union", "product"):
            left = build_groupoid(_require(params, "left", f"{path}.params"), f"{path}.params.left")
            right = build_groupoid(_require(params, "right", f"{path}.params"), f"{path}.params.right")
            return (disjoint_union if name == "disjoint_union" else product)(left, right)
    except DocumentError:
        raise
    except (ValueError, TypeError) as exc:
        raise DocumentError(path, str(exc)) from exc
    raise DocumentError(path, f"unknown builtin groupoid {name!r}")


def _require_list(obj: Mapping[str, Any], key: str, path: str) -> list:
    value = _require(obj, key, path)
    if not isinstance(value, list):
        raise DocumentError(f"{path}.{key}", f"expected a list, got {type(value).__name__}")
    return value


def _as_id(value: Any, path: str) -> str:
    """An id of an explicit table: a string, or a number read as its string; any other value is rejected at ``path``."""
    if isinstance(value, str) or _is_number(value):
        return str(value)
    raise DocumentError(path, f"an id is a string or a number, got {type(value).__name__}")


def _arrow_columns(records: list, path: str) -> list[list[str]]:
    """The id, src and dst columns of the arrow records, in one pass each when
    every record is an object of three strings; else record by record, which names the first bad one."""
    if set(map(type, records)) <= {dict}:
        columns = [[rec.get(key) for rec in records] for key in ("id", "src", "dst")]  # None for a missing key
        if set(map(type, itertools.chain(*columns))) <= {str}:
            return columns
    columns = [[], [], []]
    for i, rec in enumerate(records):
        at = f"{path}[{i}]"
        for key, column in zip(("id", "src", "dst"), columns):
            column.append(_as_id(_require(_as_object(rec, at), key, at), f"{at}.{key}"))
    return columns


def _id_map(spec: Mapping[str, Any], key: str, path: str) -> dict[str, str]:
    """The id-to-id object ``spec[key]``: as it is when every key and value is a string, else read entry by entry."""
    table = _as_object(_require(spec, key, path), f"{path}.{key}")
    if set(map(type, table)) | set(map(type, table.values())) <= {str}:
        return table
    return {str(k): _as_id(v, f"{path}.{key}.{k}") for k, v in table.items()}


def _build_explicit(spec: Mapping[str, Any], path: str) -> FiniteGroupoid:
    """An explicit table, each id column read in one type scan and one C-level pass; the
    per-entry reads that name the first bad entry run only where a bulk read fails."""
    units = [_as_id(u, f"{path}.units[{i}]") for i, u in enumerate(_require_list(spec, "units", path))]
    ids, srcs, dsts = _arrow_columns(_require_list(spec, "arrows", path), f"{path}.arrows")
    triples = _require_list(spec, "compose", path)
    if not (set(map(type, triples)) <= {list, tuple} and set(map(len, triples)) <= {3}):
        for i, triple in enumerate(triples):
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise DocumentError(f"{path}.compose[{i}]", "expected a [first, second, product] triple")
    invert, unit_arrows = (_id_map(spec, key, path) for key in ("invert", "unit_arrows"))
    try:
        # the unit and arrow errors come before those of the id tables
        unit_index, index = numbered(units, ids)
        src, dst = (np.fromiter(map(unit_index.get, ends, itertools.repeat(-1)), dtype=np.intp, count=len(ids)) for ends in (srcs, dsts))
        for i in np.flatnonzero((src < 0) | (dst < 0))[:1]:
            raise ValueError(f"Arrow {ids[i]!r} references unknown unit {srcs[i]!r} or {dsts[i]!r}.")
        table = _compose_table(triples, index, f"{path}.compose")
        for x, y in invert.items():
            if x not in index or y not in index:
                raise ValueError(f"Invert entry {x!r}->{y!r} references an unknown arrow.")
        if len(invert) < len(ids):
            raise ValueError(f"Invert table missing arrows {[aid for aid in ids if aid not in invert][:3]}.")
        for u, aid in unit_arrows.items():
            if u not in unit_index:
                raise ValueError(f"Unit-arrow entry for unknown unit {u!r}.")
            if aid not in index:
                raise ValueError(f"Unit arrow {aid!r} for unit {u!r} is not a declared arrow.")
        if len(unit_arrows) < len(units):
            raise ValueError(f"Unit-arrow table missing units {[u for u in units if u not in unit_arrows][:3]}.")
        inverse = np.fromiter(map(index.__getitem__, map(invert.__getitem__, ids)), dtype=np.intp, count=len(ids))
        unit_arrow = np.fromiter(map(index.__getitem__, map(unit_arrows.__getitem__, units)), dtype=np.intp, count=len(units))
        return FiniteGroupoid(units, ids, src, dst, table, inverse, unit_arrow)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from exc


def _compose_table(triples: list, index: Mapping[str, int], path: str) -> np.ndarray:
    """The (m, 3) index triples of [first, second, product] id triples, in
    row-major pair order; a repeated pair keeps its last product.

    The ids are looked up into an intp array in one C-level pass over the chained triples,
    through ``str`` only if that pass misses (JSON ids may be numbers; an entry of any other
    type is rejected at its path under ``path``), and the last triple of each pair is picked by
    ``np.unique`` over x * n + y.  If an id is still unknown, the triples are read into a dict
    in order and walked: the error names the first unknown id among the pairs' last products,
    and an unknown id that a later triple overwrites is no error."""
    try:
        found = np.fromiter(map(index.__getitem__, itertools.chain.from_iterable(triples)), dtype=np.intp, count=3 * len(triples))
    except (KeyError, TypeError):
        flat = list(itertools.chain.from_iterable(triples))
        if set(map(type, flat)) - {str, int, float}:
            for k, value in enumerate(flat):
                _as_id(value, f"{path}[{k // 3}][{k % 3}]")
        try:
            found = np.fromiter(map(index.__getitem__, map(str, flat)), dtype=np.intp, count=len(flat))
        except KeyError:
            found = np.array(_walk_compose(triples, index), dtype=np.intp)
    found = found.reshape(-1, 3)
    _, from_end = np.unique((found[:, 0] * len(index) + found[:, 1])[::-1], return_index=True)
    return found[len(found) - 1 - from_end]


def _walk_compose(triples: list, index: Mapping[str, int]) -> list[int]:
    """The ids of the triples as a dict keyed by pair (the last product of a
    repeated pair), looked up in the dict's order; raises ValueError at the
    first unknown id."""
    compose = {(str(x), str(y)): str(z) for x, y, z in triples}
    found = []
    try:
        for (x, y), z in compose.items():
            found += index[x], index[y], index[z]
    except KeyError as exc:
        raise ValueError(f"Compose entry ({x!r},{y!r})->{z!r} references unknown arrow {exc.args[0]!r}.") from None
    return found


def build_group(spec: Mapping[str, Any], path: str = "group") -> DiscreteGroup:
    spec = _as_object(spec, path)
    if set(spec) == {"finite"}:
        finite = _as_object(spec["finite"], f"{path}.finite")
        cayley = _require(finite, "cayley", f"{path}.finite")
        if isinstance(cayley, list) and len(cayley) > MAX_ARROWS:
            raise DocumentError(f"{path}.finite.cayley", f"the Cayley table has {len(cayley)} rows, over the budget of {MAX_ARROWS}")
        try:
            return FiniteGroup(cayley)
        except (ValueError, TypeError) as exc:
            raise DocumentError(f"{path}.finite.cayley", str(exc)) from exc
    if set(spec) == {"free_abelian"}:
        fa = _as_object(spec["free_abelian"], f"{path}.free_abelian")
        rank = _require_int(fa, "rank", f"{path}.free_abelian")
        try:
            return FreeAbelianGroup(rank)
        except (ValueError, TypeError) as exc:
            raise DocumentError(f"{path}.free_abelian", str(exc)) from exc
    raise DocumentError(path, "expected exactly one of {'finite': ...} or {'free_abelian': ...}")


def _finite_float(value: Any, path: str, what: str) -> float:
    """A JSON number as a finite float.  json.loads accepts NaN and Infinity,
    and an integer past the float range overflows; either would reach the
    norms as NaN, so both are rejected at ``path``."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise DocumentError(path, f"{what} must be finite, got {value!r}")
    return x


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_complex(value: Any, path: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not (_is_number(value[0]) and _is_number(value[1])):
        raise DocumentError(path, f"complex values are [re, im] pairs, got {value!r}")
    return complex(_finite_float(value[0], path, "complex values"), _finite_float(value[1], path, "complex values"))


def _read_coefficients(g: FiniteGroupoid, coeffs: Mapping[str, Any], path: str) -> np.ndarray:
    """The coefficient vector of a function's ``{arrow id: [re, im]}``
    object.  Pairs of plain ints and floats on known arrows take one type
    scan and one float64 conversion, checked finite and viewed as complex;
    otherwise the entries are read one at a time, which names the first bad one."""
    vec = np.zeros(g.n_arrows, dtype=np.complex128)
    values = list(coeffs.values())
    if set(map(type, values)) <= {list} and set(map(len, values)) <= {2}:
        parts = list(itertools.chain.from_iterable(values))
        if set(map(type, parts)) <= {int, float}:
            try:
                index = list(map(g.index, coeffs))
                pairs = np.array(parts, dtype=np.float64)
            except (KeyError, OverflowError):
                pass
            else:
                if np.isfinite(pairs).all():
                    vec[index] = pairs.view(np.complex128)
                    return vec
    for aid, value in coeffs.items():
        if not g.has_arrow(aid):
            raise DocumentError(f"{path}.{aid}", "unknown arrow")
        vec[g.index(aid)] = _parse_complex(value, f"{path}.{aid}")
    return vec


def parse_document(text: str) -> WorkbenchDocument:
    """Parse and validate a document; raise DocumentError with a field path."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit, or nesting past the stack
        raise DocumentError("$", f"invalid JSON: {exc}") from exc
    return document_from_dict(raw)


def _read_rho(top: Mapping[str, Any]) -> dict[str, float]:
    haar_spec = _as_object(_require(top, "haar", "$"), "haar")
    rho = _as_object(_require(haar_spec, "rho", "haar"), "haar.rho")
    weights = {}
    for key, value in rho.items():
        if not _is_number(value):
            raise DocumentError(f"haar.rho.{key}", f"weights are numbers, got {value!r}")
        weights[str(key)] = _finite_float(value, f"haar.rho.{key}", "weights")
    return weights


def _read_cocycle(top: Mapping[str, Any], g: FiniteGroupoid) -> Cocycle:
    group = build_group(_require(top, "group", "$"), "group")
    cocycle_spec = _as_object(_require(top, "cocycle", "$"), "cocycle")
    ids = g.arrow_ids
    values = group.read_elements(list(map(cocycle_spec.get, ids)))
    if values is None:  # the label loop names the first bad label
        labels = []
        for aid in ids:
            if aid not in cocycle_spec:
                raise DocumentError(f"cocycle.{aid}", "missing label for this arrow")
            try:
                labels.append(group.canonical(cocycle_spec[aid]))
            except ValueError as exc:
                raise DocumentError(f"cocycle.{aid}", str(exc)) from exc
        values = group.element_array(labels)
    if len(cocycle_spec) > len(ids):
        extra = set(cocycle_spec) - set(ids)
        raise DocumentError("cocycle", f"labels for unknown arrows {sorted(extra)[:3]}")
    return Cocycle(group=group, label=ids, elements=values)


def document_from_dict(raw: Any) -> WorkbenchDocument:
    top = _as_object(raw, "$")
    allowed = {"name", "groupoid", "haar", "group", "cocycle", "functions"}
    unknown = set(top) - allowed
    if unknown:
        raise DocumentError("$", f"unknown fields {sorted(unknown)}")
    return document_on(top, build_groupoid(_require(top, "groupoid", "$"), "groupoid"))


def document_on(top: Mapping[str, Any], g: FiniteGroupoid) -> WorkbenchDocument:
    """The document of a top-level object whose fields are known, read onto
    g, the groupoid built from its ``groupoid`` field: the rest of
    :func:`document_from_dict`, validated by :func:`validate_system`."""
    name = str(top.get("name", "document"))
    try:
        haar, cocycle = validate_system(g, partial(_read_rho, top), partial(_read_cocycle, top, g))
    except InvalidSystem as exc:
        raise DocumentError(exc.path, exc.message) from exc

    functions: dict[str, GroupoidFunction] = {}
    listed = _as_object(top.get("functions", {}), "functions")
    total = len(listed) * g.n_arrows
    if total > MAX_FUNCTION_ENTRIES:
        raise DocumentError("functions", f"{len(listed)} functions of {g.n_arrows} coefficients each hold {total}, over the budget of {MAX_FUNCTION_ENTRIES}")
    for fname, coeffs in listed.items():
        coeffs = _as_object(coeffs, f"functions.{fname}")
        functions[str(fname)] = GroupoidFunction(g, _read_coefficients(g, coeffs, f"functions.{fname}"))

    system = GradedGroupoid(g, haar, cocycle)
    return WorkbenchDocument(name=name, system=system, functions=functions, raw=dict(top))
