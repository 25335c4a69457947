"""The pinned tolerances, and the pass/fail reports of the structural validators.

Every numerical check of the workbench reads its tolerance from here:
``ALG_TOL`` (relative) for exact algebraic identities, ``EIG_TOL``
(relative) for anything that passes through an eigensolve,
:func:`norm_chain` for inequalities between norms, ``NONZERO_NORM``
for telling a nonzero function from a zero one, and ``NULL_THRESHOLD`` for
the null eigendirections of the induced-space Gram matrix.

Validators report the first violated axiom with a witness instead of
raising, so harness code can surface failures as data.  :class:`ReadOnly`
is the base of the types that cannot be written.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

ALG_TOL = 1e-12
EIG_TOL = 1e-9
NORM_FLOOR = 1e-15
NONZERO_NORM = 1e-6
"""The C*-norm that separates nonzero functions, of norm order one in the
suites, from zero ones, whose norms round to at most ``EIG_TOL``: the module
inner product is definite if no function above it has module norm <= ``EIG_TOL``."""
NULL_THRESHOLD = 1e-10
"""Gram eigendirections below this share of the top eigenvalue are null."""


def norm_chain(*norms: Any) -> Any:
    """Whether each norm is at most the next, up to the relative slack
    ``EIG_TOL`` and the absolute floor ``NORM_FLOOR``; for numbers, or
    elementwise for arrays."""
    held = True
    for lower, upper in zip(norms, norms[1:]):
        held = held & (lower <= upper * (1.0 + EIG_TOL) + NORM_FLOOR)
    return held


class CheckReport(NamedTuple):
    """Outcome of a structural validation: pass, or first failure with witness."""

    ok: bool
    cause: str | None = None
    witness: Mapping[str, Any] = MappingProxyType({})

    @classmethod
    def passed(cls) -> "CheckReport":
        return cls(ok=True)

    @classmethod
    def failed(cls, cause: str, **witness: Any) -> "CheckReport":
        return cls(ok=False, cause=cause, witness=witness)

    def __bool__(self) -> bool:
        return self.ok


class ReadOnly:
    """Base of the types that compare by identity: their fields are
    ``__slots__``, set once by the constructor through :meth:`_set`, and
    assigning or deleting an attribute raises ``AttributeError``."""

    __slots__ = ()

    def _set(self, **fields: Any) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if not name.startswith("_"))
        return f"{type(self).__name__}({fields})"
