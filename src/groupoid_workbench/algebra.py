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

Every operation is a kernel on a stack of T functions, a (T, n) coefficient
array (the ``*_stack`` functions); the operations on one
:class:`GroupoidFunction` pass its 1-D coefficient vector to the same
kernels, which index the last axis only.  Kernels whose temporaries outgrow
the coefficients evaluate the trial axis in chunks of at most
:data:`TRIAL_CHUNK_ENTRIES` entries (:func:`chunked`).  Each trial is
evaluated exactly as it would be alone, so a stack gives bit for bit the
values of T separate calls.  The convolution and the I-norm sum their terms
by one ``bincount`` per product (the convolution over interleaved bins, each
complex term a (real, imaginary) pair of float64 bins), so every bin takes
its terms in the order of a sum trial by trial and pair by pair.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

import numpy as np

from .grading import GradedGroupoid
from .groupoid import FiniteGroupoid, HaarSystem, ReadOnly


class GroupoidFunction(ReadOnly):
    """Element of the convolution algebra: one complex coefficient per arrow,
    held as a read-only copy."""

    __slots__ = ("groupoid", "coeffs")

    def __init__(self, groupoid: FiniteGroupoid, coeffs: np.ndarray) -> None:
        arr = np.array(coeffs, dtype=np.complex128)  # a copy, never the caller's array
        if arr.shape != (groupoid.n_arrows,):
            raise ValueError(f"Coefficient vector has shape {arr.shape}, expected ({groupoid.n_arrows},).")
        arr.flags.writeable = False
        self._set(groupoid=groupoid, coeffs=arr)

    def value(self, aid: str) -> complex:
        return complex(self.coeffs[self.groupoid.index(aid)])

    def support(self) -> tuple[str, ...]:
        return tuple(aid for aid, v in zip(self.groupoid.arrow_ids, self.coeffs) if v != 0)

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
    coeffs[g.unit_arrow_index] = [1.0 / haar.unit_weight(u) for u in g.units]
    return GroupoidFunction(g, coeffs)


def random_stacks(rng: np.random.Generator, count: int, *groupoids: FiniteGroupoid) -> list[np.ndarray]:
    """``count`` trials, each drawing :func:`random_function` on every
    groupoid in turn, as one (count, n) stack per groupoid.  The trials are
    drawn as one uniform block, which follows the generator's stream exactly
    as the sequential draws would."""
    block = rng.uniform(-1.0, 1.0, (count, 2 * sum(g.n_arrows for g in groupoids)))
    stacks = []
    lo = 0
    for g in groupoids:
        n = g.n_arrows
        stacks.append(block[:, lo : lo + n] + 1j * block[:, lo + n : lo + 2 * n])
        lo += 2 * n
    return stacks


def random_function(g: FiniteGroupoid, rng: np.random.Generator) -> GroupoidFunction:
    """Seeded random element: real then imaginary parts uniform in [-1, 1]."""
    return GroupoidFunction(g, random_stacks(rng, 1, g)[0][0])


def unit_labels(n: int) -> np.ndarray:
    """n labels exp(2 pi i theta) of modulus one, from their own fixed-seed generator."""
    return np.exp(2j * np.pi * np.random.default_rng(0x1ABE1).random(n))


TRIAL_CHUNK_ENTRIES = 1 << 18
"""Most entries a kernel's temporaries hold for one chunk of a trial stack."""


def trial_chunks(count: int, per_trial: int) -> list[slice]:
    """Slices of a trial axis of length ``count``, each covering at most
    ``TRIAL_CHUNK_ENTRIES // per_trial`` trials (at least one)."""
    step = max(1, TRIAL_CHUNK_ENTRIES // max(1, per_trial))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def row_chunks(count: int, per_row: int) -> list[np.ndarray]:
    """The row numbers 0, ..., count - 1 in the chunks of :func:`trial_chunks`."""
    return [np.arange(count)[s] for s in trial_chunks(count, per_row)]


def chunked(kernel: Callable[..., np.ndarray], per_trial: int, *stacks: np.ndarray) -> np.ndarray:
    """``kernel(*stacks)`` on the chunks of :func:`trial_chunks` of the
    trial axis of (T, n) stacks, concatenated.  One function (a 1-D array)
    or a stack that fits in one chunk is passed whole."""
    chunks = trial_chunks(len(stacks[0]), per_trial) if stacks[0].ndim > 1 else ()
    if len(chunks) <= 1:
        return kernel(*stacks)
    return np.concatenate([kernel(*(x[s] for x in stacks)) for s in chunks])


def _bin_rows(values: np.ndarray, bins: np.ndarray, width: int) -> np.ndarray:
    """Row by row, ``out[..., bins[j]] += values[..., j]`` in the order of j,
    by one ``bincount`` over every row of real values (..., m)."""
    rows = values.reshape(-1, values.shape[-1])
    offsets = bins if len(rows) == 1 else (bins + width * np.arange(len(rows))[:, None]).ravel()
    return np.bincount(offsets, rows.ravel(), width * len(rows)).reshape(values.shape[:-1] + (width,))


def convolve_stack(g: FiniteGroupoid, a: np.ndarray, b: np.ndarray, haar: HaarSystem) -> np.ndarray:
    """a * b trial by trial for (T, n) stacks, or for one pair of 1-D
    coefficient vectors (a stack with T = 1 broadcasts).

    Each term a(y) b(y^{-1} x) w(y) is summed into its bin x of its trial in
    composable-pair order, by one ``bincount`` over the terms viewed as
    (real, imaginary) pairs of float64, into the bins 2x and 2x + 1, which
    the groupoid builds once with its pair table."""
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    ys, ts, zs = g.composable_pairs()
    w = haar.weights(g)[ys]
    bins = g.convolution_bins()

    def kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        terms = (x.take(ys, axis=-1) * y.take(ts, axis=-1) * w).astype(np.complex128, copy=False)
        return _bin_rows(terms.view(np.float64), bins, 2 * g.n_arrows).view(np.complex128)

    return chunked(kernel, len(zs), a, b)


def delta_products(g: FiniteGroupoid, x: np.ndarray, c: np.ndarray, haar: HaarSystem) -> np.ndarray:
    """delta_x * c row by row, for arrows x (R,) and c (R, n) or (1, n): the sum
    over {y : r(y) = s(x)} of c(y) w(x) delta_{xy}, with xy read from the pair
    table; y -> xy is one to one, so each entry is assigned once."""
    xy = g.compose_index(x[:, None], np.arange(g.n_arrows))
    rows, ys = np.nonzero(xy >= 0)
    out = np.zeros(xy.shape, dtype=np.complex128)
    out[rows, xy[rows, ys]] = np.broadcast_to(c, xy.shape)[rows, ys] * haar.weights(g)[x[rows]]
    return out


def delta_rows(x: Any, n: int) -> np.ndarray:
    """The coefficient rows (R, n) of the deltas at arrows x (R,)."""
    return (np.asarray(x)[:, None] == np.arange(n)).astype(np.complex128)


def labelled_sweep(
    n: int, per_row: int, residual: Callable[[np.ndarray, np.ndarray], np.ndarray], tol: float
) -> Iterator[tuple[int, int, float]]:
    """Check a relation linear in c at every arrow x on the modulus-one
    :func:`unit_labels` c (1, n), where one wrong pair shows at its full
    defect (Freivalds, IFIP 1977), and yield (x, y, defect) over every y (c
    the delta rows (R, n)) for each x whose labelled ``residual(x, c)`` is
    not at most ``tol``, x then y ascending.  A residual call takes at most
    ``TRIAL_CHUNK_ENTRIES // per_row`` rows."""
    chunks = row_chunks(n, per_row)
    labelled = np.concatenate([residual(xs, unit_labels(n)[None]) for xs in chunks])
    for x in np.flatnonzero(~(labelled <= tol)).tolist():
        for ys in chunks:
            yield from zip([x] * len(ys), ys.tolist(), residual(np.full(len(ys), x), delta_rows(ys, n)).tolist())


def convolve(a: GroupoidFunction, b: GroupoidFunction, haar: HaarSystem) -> GroupoidFunction:
    """(a * b)(x) = sum over {y : r(y) = r(x)} of a(y) b(y^{-1}x) w(y)."""
    _same_groupoid(a, b)
    return GroupoidFunction(a.groupoid, convolve_stack(a.groupoid, a.coeffs, b.coeffs, haar))


def involute_stack(g: FiniteGroupoid, a: np.ndarray) -> np.ndarray:
    """a^* for every trial of a (..., n) stack."""
    return np.conj(a.take(g.invert_index, axis=-1))


def involute(a: GroupoidFunction) -> GroupoidFunction:
    """a^*(x) = conj(a(x^{-1}))."""
    return GroupoidFunction(a.groupoid, involute_stack(a.groupoid, a.coeffs))


def i_norm_stack(g: FiniteGroupoid, a: np.ndarray, haar: HaarSystem) -> np.ndarray:
    """The I-norm of every trial of a (..., n) stack: the direct and the
    inverted fiber sums are one ``bincount``, the inverted ones in the bins
    after the direct ones."""
    w, mags = haar.weights(g), np.abs(a)
    both = np.concatenate([mags * w, mags.take(g.invert_index, axis=-1) * w], axis=-1)
    return _bin_rows(both, np.concatenate([g.dst_index, g.dst_index + g.n_units]), 2 * g.n_units).max(axis=-1)


def i_norm(a: GroupoidFunction, haar: HaarSystem) -> float:
    """max over units of the larger of the two weighted fiber sums of |a|."""
    return float(i_norm_stack(a.groupoid, a.coeffs, haar))


def include_stack(sub: FiniteGroupoid, a: np.ndarray, parent: FiniteGroupoid) -> np.ndarray:
    """Extension by zero of a (..., n_sub) stack on a subgroupoid of ``parent``."""
    out = np.zeros(a.shape[:-1] + (parent.n_arrows,), dtype=np.complex128)
    out[..., sub.embedding(parent)] = a
    return out


def include_i(f: GroupoidFunction, parent: FiniteGroupoid) -> GroupoidFunction:
    """Extension by zero from a subgroupoid whose arrow ids live in ``parent``."""
    return GroupoidFunction(parent, include_stack(f.groupoid, f.coeffs, parent))


def restrict_stack(g: FiniteGroupoid, a: np.ndarray, sub: FiniteGroupoid) -> np.ndarray:
    """The coefficients of a (..., n) stack on the arrows of a subgroupoid."""
    return a.take(sub.embedding(g), axis=-1)


def restrict_q(a: GroupoidFunction, sub: FiniteGroupoid) -> GroupoidFunction:
    """Coefficients restricted to the arrows of a subgroupoid (shared ids)."""
    return GroupoidFunction(sub, restrict_stack(a.groupoid, a.coeffs, sub))


def graded_component_stack(sys: GradedGroupoid, a: np.ndarray) -> np.ndarray:
    """The fiber components of a (..., n) stack as an (n_fibers, ..., n)
    array, fibers in ``sys.fiber_keys`` order."""
    fibers = np.arange(len(sys.fiber_keys)).reshape((-1,) + (1,) * a.ndim)
    return np.where(sys.fiber_index == fibers, a, 0.0)


def graded_component(sys: GradedGroupoid, a: GroupoidFunction, gamma: Any) -> GroupoidFunction:
    """a restricted to the fiber over gamma, as a function on the whole groupoid."""
    return GroupoidFunction(a.groupoid, np.where(sys.fiber_mask(gamma), a.coeffs, 0.0))


def graded_components(sys: GradedGroupoid, a: GroupoidFunction) -> dict[str, GroupoidFunction]:
    """Nonzero-support fiber components keyed by element key (sorted by the group order)."""
    parts = graded_component_stack(sys, a.coeffs)
    return {
        sys.fiber_keys[k]: GroupoidFunction(a.groupoid, parts[k])
        for k in np.unique(sys.fiber_index[a.coeffs != 0])
    }
