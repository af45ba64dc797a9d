"""Labeled tensor-product spaces and the package's one tolerance table.

Everything in this package runs on one 324-dimensional Hilbert space with
basis indexed in mixed radix over the subsystem dimensions
(`SpaceDescriptor`).  Two engines compute on it: the dense numpy one in
`protocol` (flat complex128 arrays, the library's `Protocol`) and the exact
sparse one in `exact` (the command line's).  This module imports no numpy;
the dense names below it (`StateVector`, `inner`, `Projector`,
`apply_on_axes`, `lifted_projector`) live in `protocol` and load from there
on first access.  Every numeric tolerance is in the table below.

`Projector`, `lifted_projector` and `Protocol.record_projector` have no
caller in the package: the benchmark's traced mode wraps the last two, and
they move to the tests once it stops.  `rational_label` labels the dense
engine's floats (the exact engine derives its labels instead).

All objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import importlib
import math
from fractions import Fraction

# -- tolerance table: every numeric tolerance in the package ------------------
# Probabilities here are exact small rationals and float error stays near
# 1e-16, so each bound only absorbs float error; they differ in what they bound.

#: orthonormality of vectors, nonzero entries of a dense stage matrix, the
#: zero test of a branch norm, a memory that must read ready, and
#: `rational_label`'s distance to a fraction
ATOL = 1e-12
#: a state or coin is normalized (coins typed on the command line are rounded)
NORM_ATOL = 1e-9
#: a Born probability is certain or impossible; a distribution's negative allowance
CERTAINTY_ATOL = 1e-12
#: a distribution's total, and stray weight outside a measurement's outcomes
SUM_ATOL = 1e-11
#: a dense engine's weight is zero (its `weight_floor`, in born and bellbohm); the exact engine tests exactly
ZERO_WEIGHT_FLOOR = 1e-14
#: interference and additivity defects of a history family
CONSISTENCY_ATOL = 1e-10
#: a grounding fact's computed value against its exact expected value
FACT_ATOL = 1e-12
#: a coefficient large enough to fix a global phase, which must have unit modulus
PHASE_ATOL = 1e-6

Amplitude = complex


class SpaceMismatchError(ValueError):
    """Raised when two objects live on different tensor-product spaces."""


class Frozen:
    """Base of the package's records that a NamedTuple cannot express.

    A subclass lists its fields in `__slots__` and sets each once in its
    `__init__` with `setfield`; any later assignment or deletion raises.
    Equality and hashing are by identity unless the subclass defines them.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        """Copy and pickle by field values, which `copy` cannot assign."""
        return _restore, (type(self), tuple(getattr(self, name) for name in self.__slots__))


#: How a Frozen subclass's `__init__` sets a field, past the raising `__setattr__`.
setfield = object.__setattr__


def _restore(cls: type[Frozen], values: tuple) -> Frozen:
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setfield(record, name, value)
    return record


class Factor(Frozen):
    """One subsystem: a name and an ordered tuple of basis labels."""

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: tuple[str, ...]) -> None:
        setfield(self, "name", name)
        setfield(self, "labels", labels)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.labels) == (other.name, other.labels)

    def __hash__(self) -> int:
        return hash((self.name, self.labels))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"factor {self.name!r} has no basis label {label!r}") from None


class SpaceDescriptor(Frozen):
    """Ordered list of subsystem factors; fixes the mixed-radix basis indexing.

    Basis index of a label assignment (l_0, ..., l_{n-1}) is the row-major
    mixed-radix number with digit k equal to the position of l_k in factor k.
    `dims` and `size` are derived once here: every checked StateVector
    construction reads size.
    """

    __slots__ = ("factors", "dims", "size")

    def __init__(self, factors: tuple[Factor, ...]) -> None:
        setfield(self, "factors", factors)
        setfield(self, "dims", tuple(f.dim for f in factors))
        setfield(self, "size", math.prod(self.dims))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def axis(self, name: str) -> int:
        for i, f in enumerate(self.factors):
            if f.name == name:
                return i
        raise KeyError(f"no factor named {name!r}")

    def factor(self, name: str) -> Factor:
        return self.factors[self.axis(name)]

    def index_of(self, labels: tuple[str, ...]) -> int:
        """Flat basis index of one label per factor, in factor order."""
        if len(labels) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} labels, got {len(labels)}")
        idx = 0
        for f, label in zip(self.factors, labels):
            idx = idx * f.dim + f.index(label)
        return idx

    def subspace(self, names: tuple[str, ...]) -> "SpaceDescriptor":
        return SpaceDescriptor(tuple(self.factor(n) for n in names))


#: Largest denominator `rational_label` names.  The default coin's exact
#: probabilities need at most 240 (histories 12, joint 60, beable trajectories
#: 240); a larger bound lets most irrational floats pass as some fraction
#: within ATOL (Dirichlet's approximation theorem).
LABEL_MAX_DENOMINATOR = 240


def rational_label(p: float, max_denominator: int = LABEL_MAX_DENOMINATOR, tol: float = ATOL) -> str | None:
    """Exact-rational rendering of a probability, or None if p is not one."""
    frac = Fraction(p).limit_denominator(max_denominator)
    if abs(p - float(frac)) <= tol:
        return f"{frac.numerator}/{frac.denominator}" if frac.denominator != 1 else str(frac.numerator)
    return None




#: Dense names that `protocol`, the numpy engine, defines.
_DENSE = ("StateVector", "inner", "Projector", "apply_on_axes", "lifted_projector")


def __getattr__(name: str):
    if name in _DENSE:
        return getattr(importlib.import_module(f"{__package__}.protocol"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
