"""The convolution *-algebra of complex functions on a finite groupoid.

Functions are dense complex coefficient vectors in declared arrow order.
The product is

    (a * b)(x) = sum over {y : r(y) = r(x)} of a(y) b(y^{-1} x) w(y),

with w(y) = rho(s(y)) the Haar weight, and the involution is
a^*(x) = conj(a(x^{-1})).  The function e = sum_u rho(u)^{-1} delta_u over
unit arrows is an exact two-sided unit, so no approximate identities are
needed at this scale.

Grading-aware operations: extension by zero from the identity-fiber
subgroupoid (an injective *-homomorphism), restriction back to it, and the
fiberwise components a_gamma = a restricted to c^{-1}(gamma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .grading import GradedGroupoid
from .groupoid import FiniteGroupoid, HaarSystem


@dataclass(frozen=True, eq=False)
class GroupoidFunction:
    """Element of the convolution algebra: one complex coefficient per arrow."""

    groupoid: FiniteGroupoid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (self.groupoid.n_arrows,):
            raise ValueError(
                f"Coefficient vector has shape {arr.shape}, expected ({self.groupoid.n_arrows},)."
            )
        object.__setattr__(self, "coeffs", arr)

    def value(self, aid: str) -> complex:
        return complex(self.coeffs[self.groupoid.index(aid)])

    def support(self) -> tuple[str, ...]:
        return tuple(a.id for a, v in zip(self.groupoid.arrows, self.coeffs) if v != 0)

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max()) if len(self.coeffs) else 0.0

    def __add__(self, other: "GroupoidFunction") -> "GroupoidFunction":
        _same_groupoid(self, other)
        return GroupoidFunction(self.groupoid, self.coeffs + other.coeffs)

    def __sub__(self, other: "GroupoidFunction") -> "GroupoidFunction":
        _same_groupoid(self, other)
        return GroupoidFunction(self.groupoid, self.coeffs - other.coeffs)

    def __neg__(self) -> "GroupoidFunction":
        return GroupoidFunction(self.groupoid, -self.coeffs)

    def __mul__(self, scalar: complex) -> "GroupoidFunction":
        return GroupoidFunction(self.groupoid, self.coeffs * scalar)

    __rmul__ = __mul__


def _same_groupoid(a: GroupoidFunction, b: GroupoidFunction) -> None:
    if a.groupoid is not b.groupoid:
        raise ValueError("Functions live on different groupoids.")


def zero(g: FiniteGroupoid) -> GroupoidFunction:
    return GroupoidFunction(g, np.zeros(g.n_arrows, dtype=np.complex128))


def delta(g: FiniteGroupoid, aid: str, value: complex = 1.0) -> GroupoidFunction:
    coeffs = np.zeros(g.n_arrows, dtype=np.complex128)
    coeffs[g.index(aid)] = value
    return GroupoidFunction(g, coeffs)


def from_map(g: FiniteGroupoid, values: Mapping[str, complex]) -> GroupoidFunction:
    coeffs = np.zeros(g.n_arrows, dtype=np.complex128)
    for aid, v in values.items():
        coeffs[g.index(aid)] = v
    return GroupoidFunction(g, coeffs)


def unit_function(g: FiniteGroupoid, haar: HaarSystem) -> GroupoidFunction:
    """The exact convolution unit e = sum_u rho(u)^{-1} delta at the unit arrow of u."""
    coeffs = np.zeros(g.n_arrows, dtype=np.complex128)
    for u in g.units:
        coeffs[g.index(g.unit_arrow[u])] = 1.0 / haar.unit_weight(u)
    return GroupoidFunction(g, coeffs)


def random_function(g: FiniteGroupoid, rng: np.random.Generator) -> GroupoidFunction:
    """Seeded random element: real then imaginary parts uniform in [-1, 1]."""
    re = rng.uniform(-1.0, 1.0, g.n_arrows)
    im = rng.uniform(-1.0, 1.0, g.n_arrows)
    return GroupoidFunction(g, re + 1j * im)


def convolve(a: GroupoidFunction, b: GroupoidFunction, haar: HaarSystem) -> GroupoidFunction:
    """(a * b)(x) = sum over {y : r(y) = r(x)} of a(y) b(y^{-1}x) w(y)."""
    _same_groupoid(a, b)
    g = a.groupoid
    ys, ts, zs = g.composable_pairs()
    w = haar.weights(g)
    out = np.zeros(g.n_arrows, dtype=np.complex128)
    np.add.at(out, zs, a.coeffs[ys] * b.coeffs[ts] * w[ys])
    return GroupoidFunction(g, out)


def involute(a: GroupoidFunction) -> GroupoidFunction:
    """a^*(x) = conj(a(x^{-1}))."""
    return GroupoidFunction(a.groupoid, np.conj(a.coeffs[a.groupoid.invert_index]))


def i_norm(a: GroupoidFunction, haar: HaarSystem) -> float:
    """max over units of the larger of the two weighted fiber sums of |a|."""
    g = a.groupoid
    w = haar.weights(g)
    mags = np.abs(a.coeffs)
    direct = np.bincount(g.dst_index, weights=mags * w, minlength=g.n_units)
    inverted = np.bincount(g.dst_index, weights=mags[g.invert_index] * w, minlength=g.n_units)
    return float(max(direct.max(), inverted.max()))


def include_i(f: GroupoidFunction, parent: FiniteGroupoid) -> GroupoidFunction:
    """Extension by zero from a subgroupoid whose arrow ids live in ``parent``."""
    coeffs = np.zeros(parent.n_arrows, dtype=np.complex128)
    for a, v in zip(f.groupoid.arrows, f.coeffs):
        if not parent.has_arrow(a.id):
            raise ValueError(f"Arrow {a.id!r} of the subalgebra is not an arrow of the ambient groupoid.")
        coeffs[parent.index(a.id)] = v
    return GroupoidFunction(parent, coeffs)


def restrict_q(a: GroupoidFunction, sub: FiniteGroupoid) -> GroupoidFunction:
    """Coefficients restricted to the arrows of a subgroupoid (shared ids)."""
    g = a.groupoid
    coeffs = np.zeros(sub.n_arrows, dtype=np.complex128)
    for i, arrow in enumerate(sub.arrows):
        if not g.has_arrow(arrow.id):
            raise ValueError(f"Subgroupoid arrow {arrow.id!r} is not an arrow of the ambient groupoid.")
        coeffs[i] = a.coeffs[g.index(arrow.id)]
    return GroupoidFunction(sub, coeffs)


def graded_component(sys: GradedGroupoid, a: GroupoidFunction, gamma: Any) -> GroupoidFunction:
    """a restricted to the fiber over gamma, as a function on the whole groupoid."""
    return GroupoidFunction(a.groupoid, np.where(sys.fiber_mask(gamma), a.coeffs, 0.0))


def graded_components(sys: GradedGroupoid, a: GroupoidFunction) -> dict[str, GroupoidFunction]:
    """Nonzero-support fiber components keyed by element key (sorted by the group order)."""
    return {
        sys.fiber_keys[k]: GroupoidFunction(a.groupoid, np.where(sys.fiber_index == k, a.coeffs, 0.0))
        for k in np.unique(sys.fiber_index[a.coeffs != 0])
    }
