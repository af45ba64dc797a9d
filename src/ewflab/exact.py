"""The protocol written once, exactly, and the sparse engine that runs it.

This module defines the 324-dimensional layout, the stage maps and the
default coin, with no numpy.  It holds two things on top of that:

* the table every stage map is built from: each outcome vector and the spin
  rotation as (sign, k) codes standing for sign * 2**(-k/2).  The stage maps
  are exact sparse columns over that table (`stage_maps`); the dense engine
  in `protocol` builds its matrices from the same columns, through the float
  each code had before the table existed (`float_image`), bit for bit;
* `ExactProtocol`, an engine whose amplitudes are elements of Q(√2, √3).
  States are sparse (the pilot state never has more than 16 nonzero
  amplitudes), and numbers are `Surd`s a + b√2 + c√3 + d√6 with rational
  coordinates.  A Surd is zero only when its four coordinates are, because
  square roots of squarefree integers are linearly independent over Q
  (Besicovitch, J. London Math. Soc. 15, 1940), so every zero test and
  every sign is exact.

The two engines, `ExactProtocol` here and the dense `protocol.Protocol`,
answer one contract, and it is exactly what the shared modules (`born`,
`bellbohm`, `histories`, `facts`, `epistemics`, `cli`) read of an engine:
`coin_amplitudes`, `corrupt_preparation`, `fact_results`, `flip_ok_sign`,
`gram`, `initial_state`, `pilot_state_after`, `probability_memo`, `sqrt`,
`stage_unitaries` and `weight_floor`.  The two hooks and the engine's class
are what `histories` reads to build the engines at the coins (1, 0) and
(0, 1) whose chains its coin forms hold.  A stage is read one way, as
`stage_unitaries[stage]`, which on this engine is the stage's `StageMap`; a
measurement is not an object of either engine, its outcome vectors are read
from `outcome_vectors` under the engine's `flip_ok_sign`.  Their states
answer `masked`, `marginal`, `components` and `is_zero`; `marginal` is a
flat row-major tuple of weights, memoised on the state per axes, which the
joints, the beable chain and ready checks index by offset.  A weight below
the engine's `weight_floor` is zero: the dense engine's floor is
`ZERO_WEIGHT_FLOOR`, this one's `EXACT_FLOOR`.  An operator is a stage map
or a record mask, and a record mask is the same `RecordMask` value on both
engines; a measurement is never applied.  A conditional is a ratio of Born
weights, never a renormalised state.  The joints, histories, beable chains
and facts are written once against those calls.  A number the exact
engine returns is exact, so its `exact` label (`exact_label`) is read off
it instead of guessed from a float.

The pilot walk (`Engine.pilot_state_after`) derives readiness as it steps:
it keeps the memory axes it cannot show ready (all of them if the initial
state has a memory off its ready label, then each stepped stage's
`rewritten_memory_axes`), and checks a recording stage with `apply` only
where its recorder is among them.

Why two engines: a fresh command-line process spends about half its time
importing numpy, and needs exact answers.  The dense engine is kept because
the benchmark (`perfbench`) builds it and the bit-for-bit tests run it as
this one's oracle.  It is also the faster one wherever the decoherence
functional D has to be evaluated.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from decimal import Decimal
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .linalg import ATOL, NORM_ATOL, ZERO_WEIGHT_FLOOR, Factor, SpaceDescriptor, rational_label

HEAD, TAIL = "head", "tail"
UP, DOWN = "up", "down"
OK, FAIL = "ok", "fail"
READY = "0"
PLUS, MINUS = "+", "-"

# Residual branch completing a two-outcome measurement on a six-dimensional
# factor; it carries no amplitude anywhere in the protocol's reachable dynamics.
REST = "rest"

GLOBAL_SPACE = SpaceDescriptor(
    (
        Factor("C", (HEAD, TAIL)),
        Factor("F1", (READY, HEAD, TAIL)),
        Factor("S", (UP, DOWN)),
        Factor("F2", (READY, PLUS, MINUS)),
        Factor("W1", (READY, OK, FAIL)),
        Factor("W2", (READY, OK, FAIL)),
    )
)

DIM = GLOBAL_SPACE.size  # 324

#: Label index on every axis, per flat basis index (row-major, as index_of).
DIGITS: tuple[tuple[int, ...], ...] = tuple(itertools.product(*map(range, GLOBAL_SPACE.dims)))
#: Flat-index step of one label on each axis.
STRIDES: tuple[int, ...] = tuple(math.prod(GLOBAL_SPACE.dims[a + 1 :]) for a in range(len(GLOBAL_SPACE.dims)))


class AgentId(enum.Enum):
    F1 = "F1"
    F2 = "F2"
    W1 = "W1"
    W2 = "W2"

    @property
    def memory_axis(self) -> int:
        return _MEMORY_AXIS[self._value_]


#: Each agent's memory axis, by agent name.
_MEMORY_AXIS: dict[str, int] = {agent.value: GLOBAL_SPACE.axis(agent.value) for agent in AgentId}
#: The four memory axes, ascending.
MEMORY_AXES: tuple[int, ...] = tuple(sorted(_MEMORY_AXIS.values()))


class StageId(enum.Enum):
    """Protocol stages on the canonical timeline t = -1, 0, 1, 2, 3, 4."""

    PREP_MINUS1 = -1
    OBS0 = 0
    PREP1 = 1
    OBS2 = 2
    MEAS3 = 3
    MEAS4 = 4

    # Members are singletons, equal only to themselves, so identity hashing
    # agrees with equality; Enum's own hashes the name in Python, on every
    # lookup of a stage-keyed mapping.
    __hash__ = object.__hash__

    def __lt__(self, other: "StageId") -> bool:
        return self._value_ < other._value_


STAGES: tuple[StageId, ...] = tuple(StageId)
#: Stages that apply a unitary (all but the initial preparation).
DYNAMIC_STAGES: tuple[StageId, ...] = tuple(s for s in STAGES if s is not StageId.PREP_MINUS1)


class PreconditionError(ValueError):
    """A stage map was applied to a state outside its declared domain."""


#: Which memory register records each outcome variable, and at which stage.
RECORDERS: dict[str, tuple[AgentId, StageId]] = {
    "r": (AgentId.F1, StageId.OBS0),
    "z": (AgentId.F2, StageId.OBS2),
    "w1": (AgentId.W1, StageId.MEAS3),
    "w2": (AgentId.W2, StageId.MEAS4),
}

#: The outcome variable recorded at each recording stage.
RECORDED_VAR: dict[StageId, str] = {stage: var for var, (_, stage) in RECORDERS.items()}

#: Memory label written for each outcome of each variable.
OUTCOME_LABELS: dict[str, tuple[str, ...]] = {
    "r": (HEAD, TAIL),
    "z": (PLUS, MINUS),
    "w1": (OK, FAIL),
    "w2": (OK, FAIL),
}

#: The factors each outcome variable's measurement acts on, in global order.
MEASURED: dict[str, tuple[str, ...]] = {"r": ("C",), "z": ("S",), "w1": ("C", "F1"), "w2": ("S", "F2")}


# -- the table: outcome vectors and the spin rotation --------------------------

#: (sign, k) stands for sign * 2**(-k/2): 1, 1/√2 or 1/2.
Code = tuple[int, int]

#: 1/√2 as the package always computed it, one ulp below the correctly
#: rounded value; with its square it is the float image of every code.
ROOT_HALF_FLOAT = 1.0 / math.sqrt(2.0)
_FLOAT_POWERS = (1.0, ROOT_HALF_FLOAT, ROOT_HALF_FLOAT * ROOT_HALF_FLOAT)


def float_image(code: Code) -> float:
    """The float a code had in the float build of the stage maps."""
    sign, k = code
    return sign * _FLOAT_POWERS[k]


def outcome_vectors(var: str, flip_ok_sign: bool = False) -> dict[str, dict[tuple[str, ...], Code]]:
    """Each outcome's unit vector on `MEASURED[var]`, as {target labels: code}.

    `flip_ok_sign` negates W1's entangled ok vector (a verification hook).
    """
    if var == "r":
        return {HEAD: {(HEAD,): (1, 0)}, TAIL: {(TAIL,): (1, 0)}}
    if var == "z":
        return {PLUS: {(UP,): (1, 0)}, MINUS: {(DOWN,): (1, 0)}}
    if var == "w1":
        sign = -1 if flip_ok_sign else 1
        return {
            OK: {(HEAD, HEAD): (sign, 1), (TAIL, TAIL): (-sign, 1)},
            FAIL: {(HEAD, HEAD): (1, 1), (TAIL, TAIL): (1, 1)},
        }
    if var == "w2":
        return {
            OK: {(DOWN, MINUS): (1, 1), (UP, PLUS): (-1, 1)},
            FAIL: {(DOWN, MINUS): (1, 1), (UP, PLUS): (1, 1)},
        }
    raise KeyError(f"unknown outcome variable {var!r}")


def spin_rotation(corrupt_preparation: bool = False) -> dict[tuple[str, str], Code]:
    """The tail branch's spin preparation as {(out, in): code}.

    up -> (up - down)/√2 and down -> (up + down)/√2; `corrupt_preparation`
    flips one sign (a verification hook).
    """
    if corrupt_preparation:
        return {(UP, UP): (1, 1), (UP, DOWN): (1, 1), (DOWN, UP): (1, 1), (DOWN, DOWN): (-1, 1)}
    return {(UP, UP): (1, 1), (UP, DOWN): (1, 1), (DOWN, UP): (-1, 1), (DOWN, DOWN): (1, 1)}


#: Sparse columns over a factor: input local index -> ((output local index, sign, k), ...).
Columns = dict[int, tuple[tuple[int, int, int], ...]]


def _local(targets: tuple[str, ...], vector: dict[tuple[str, ...], Code]) -> dict[int, Code]:
    space = GLOBAL_SPACE.subspace(targets)
    return {space.index_of(labels): code for labels, code in vector.items()}


def projector_columns(targets: tuple[str, ...], vectors: dict[str, dict[tuple[str, ...], Code]]) -> dict[str, Columns]:
    """|v><v| of each outcome vector, then the 0/1 REST diagonal, as sparse columns."""
    local = {label: _local(targets, v) for label, v in vectors.items()}
    out: dict[str, Columns] = {
        label: {t: tuple((t2, s * s2, k + k2) for t2, (s2, k2) in v.items()) for t, (s, k) in v.items()}
        for label, v in local.items()
    }
    touched = {t for v in local.values() for t in v}
    size = GLOBAL_SPACE.subspace(targets).size
    if len(touched) < size:
        out[REST] = {t: ((t, 1, 0),) for t in range(size) if t not in touched}
    return out


class StageMap(NamedTuple):
    """One stage's map, the exact engine's stage: sparse columns over the local index of `axes` (ascending).

    Its `apply`, `linear` and `rewritten_memory_axes` are the dense
    `StageUnitary`'s; `halved` is `halves(columns)`, read once here.
    """

    stage: StageId
    axes: tuple[int, ...]
    columns: Columns
    recorder_axis: int | None
    rewritten_memory_axes: tuple[int, ...]
    halved: bool

    def linear(self, state: SparseState) -> SparseState:
        return state.apply(self.axes, self.columns, self.halved)

    def apply(self, state: SparseState) -> SparseState:
        require_ready(self.stage, self.recorder_axis, state)
        return self.linear(state)


def _stage_map(stage: StageId, axes: tuple[int, ...], columns: Columns, recorder_axis: int | None) -> StageMap:
    """The stage's map, its columns read-only, with the memory axes they rewrite and whether they halve."""
    entries = ((t2, t) for t, col in columns.items() for t2, _, _ in col)
    return StageMap(stage, axes, MappingProxyType(columns), recorder_axis, rewritten_axes(axes, entries),
                    halves(columns))


def halves(columns: Columns) -> bool:
    """Whether any entry is 1/√2 or 1/2 (k > 0): the image of a state then has twice its denominator."""
    return any(k for col in columns.values() for _, _, k in col)


def _record_map(var: str, flip_ok_sign: bool) -> StageMap:
    """Copy the measured basis label into the recorder's memory.

    On the reachable subspace (memory ready) each outcome component psi_k (x)
    |0> goes to psi_k (x) |label_k>: the outcome's projector tensored with
    the permutation swapping the ready label and label_k.  The residual
    branch acts as the identity on the memory, one valid unitary extension
    off the reachable subspace.
    """
    agent, stage = RECORDERS[var]
    targets = MEASURED[var]
    mem_axis = agent.memory_axis
    measured_axes = tuple(GLOBAL_SPACE.axis(t) for t in targets)
    if tuple(sorted(measured_axes + (mem_axis,))) != measured_axes + (mem_axis,):
        raise ValueError("recorder memory axis must follow the target axes in global order")
    memory = GLOBAL_SPACE.factors[mem_axis].labels
    n = len(memory)
    columns: Columns = {}
    for label, proj in projector_columns(targets, outcome_vectors(var, flip_ok_sign)).items():
        k = 0 if label == REST else memory.index(label)
        swap = {0: k, k: 0}  # REST (k = 0) leaves the memory alone
        for t, entries in proj.items():
            for m in range(n):
                m2 = swap.get(m, m)
                columns[t * n + m] = columns.get(t * n + m, ()) + tuple((t2 * n + m2, s, kk) for t2, s, kk in entries)
    return _stage_map(stage, measured_axes + (mem_axis,), dict(sorted(columns.items())), mem_axis)


def _preparation_map(corrupt_preparation: bool) -> StageMap:
    """Spin preparation controlled on F1's memory: only the tail record rotates."""
    spins = GLOBAL_SPACE.factor("S").labels
    rotation = spin_rotation(corrupt_preparation)
    columns: Columns = {}
    for f1, record in enumerate(GLOBAL_SPACE.factor("F1").labels):
        for s, spin in enumerate(spins):
            if record == TAIL:
                columns[f1 * 2 + s] = tuple(
                    (f1 * 2 + spins.index(out), *rotation[(out, spin)]) for out in spins
                )
            else:
                columns[f1 * 2 + s] = ((f1 * 2 + s, 1, 0),)
    return _stage_map(StageId.PREP1, (GLOBAL_SPACE.axis("F1"), GLOBAL_SPACE.axis("S")), columns, None)


def stage_maps(flip_ok_sign: bool = False, corrupt_preparation: bool = False) -> Mapping[StageId, StageMap]:
    """Every dynamic stage's map: the exact engine's stages, and the dense engine builds its own from these.

    The maps do not depend on the coin: one read-only mapping per flag pair
    is shared by every caller, however it spells the flags.
    """
    return _stage_maps(bool(flip_ok_sign), bool(corrupt_preparation))


@cache
def _stage_maps(flip_ok_sign: bool, corrupt_preparation: bool) -> Mapping[StageId, StageMap]:
    return MappingProxyType({
        StageId.OBS0: _record_map("r", flip_ok_sign),
        StageId.PREP1: _preparation_map(corrupt_preparation),
        StageId.OBS2: _record_map("z", flip_ok_sign),
        StageId.MEAS3: _record_map("w1", flip_ok_sign),
        StageId.MEAS4: _record_map("w2", flip_ok_sign),
    })


def rewritten_axes(axes: tuple[int, ...], entries) -> tuple[int, ...]:
    """Memory axes a stage can overwrite, from its nonzero (out, in) local entries.

    An axis is rewritten when an entry maps one of its labels to another (a
    diagonal control, like the spin preparation conditioned on F1, leaves
    the record intact).
    """
    dims = [GLOBAL_SPACE.dims[a] for a in axes]
    changed = set()
    for out, inp in entries:
        for pos in reversed(range(len(axes))):
            if out % dims[pos] != inp % dims[pos]:
                changed.add(axes[pos])
            out, inp = out // dims[pos], inp // dims[pos]
    return tuple(a for a in axes if a in MEMORY_AXES and a in changed)


def require_ready(stage: StageId, recorder_axis: int | None, state) -> None:
    """Raise unless the recorder's memory is ready (within ATOL) before `stage`."""
    if recorder_axis is None:
        return
    off_ready = sum(state.marginal((recorder_axis,))[1:])  # every label but the ready one, index 0
    if off_ready > ATOL:
        agent = GLOBAL_SPACE.factors[recorder_axis].name
        raise PreconditionError(
            f"stage {stage.name}: recorder {agent} memory is not ready "
            f"(weight {float(off_ready):.3e} outside |0>)"
        )


# -- numbers ---------------------------------------------------------------------


def _mul4(x: tuple, y: tuple) -> tuple[int, int, int, int]:
    """(a + b√2 + c√3 + d√6)(e + f√2 + g√3 + h√6), coordinates only."""
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e + 2 * b * f + 3 * c * g + 6 * d * h,
        a * f + b * e + 3 * (c * h + d * g),
        a * g + c * e + 2 * (b * h + d * f),
        a * h + d * e + b * g + c * f,
    )


def _square4(x: tuple) -> tuple[int, int, int, int]:
    a, b, c, d = x
    return (a * a + 2 * b * b + 3 * c * c + 6 * d * d, 2 * (a * b + 3 * c * d),
            2 * (a * c + 2 * b * d), 2 * (a * d + b * c))


def _sign2(p: int, r: int) -> int:
    """Sign of p + r√2."""
    sp, sr = (p > 0) - (p < 0), (r > 0) - (r < 0)
    if sp == sr or sr == 0:
        return sp
    if sp == 0:
        return sr
    return sp * ((p * p > 2 * r * r) - (p * p < 2 * r * r))


def _sign4(a: int, b: int, c: int, d: int) -> int:
    """Sign of u + v√3 with u = a + b√2 and v = c + d√2."""
    su, sv = _sign2(a, b), _sign2(c, d)
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    # opposite signs: u wins when u^2 > 3 v^2
    return su * _sign2(a * a + 2 * b * b - 3 * c * c - 6 * d * d, 2 * a * b - 6 * c * d)


_SCALE = 1 << 200
_ROOTS = tuple(math.isqrt(n * _SCALE * _SCALE) for n in (2, 3, 6))


class Surd:
    """a + b√2 + c√3 + d√6 over a denominator q: an exact element of Q(√2, √3).

    Coordinates are integers with gcd 1 and q > 0, so equal numbers have
    equal coordinates.  Arithmetic mixes with ints, Fractions and floats
    (a float is taken as its exact binary value); it never rounds.
    """

    __slots__ = ("a", "b", "c", "d", "q")

    def __init__(self, a: int = 0, b: int = 0, c: int = 0, d: int = 0, q: int = 1) -> None:
        if q < 0:
            a, b, c, d, q = -a, -b, -c, -d, -q
        g = math.gcd(a, b, c, d, q)
        if g > 1:
            a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
        self.a, self.b, self.c, self.d, self.q = a, b, c, d, q

    @property
    def coords(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def rational(self) -> Fraction | None:
        """The value as a Fraction, or None when an irrational coordinate is nonzero."""
        if self.b or self.c or self.d:
            return None
        return Fraction(self.a, self.q)

    def sign(self) -> int:
        return _sign4(self.a, self.b, self.c, self.d)

    def inverse(self) -> "Surd":
        a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("Surd division by zero")
            return Surd(q, 0, 0, 0, a)
        # x (a, b, -c, -d) = p + r√2, and (p + r√2)(p - r√2) = p^2 - 2r^2 is rational
        p = a * a + 2 * b * b - 3 * c * c - 6 * d * d
        r = 2 * a * b - 6 * c * d
        t = _mul4((a, b, -c, -d), (p, -r, 0, 0))
        return Surd(t[0] * q, t[1] * q, t[2] * q, t[3] * q, p * p - 2 * r * r)

    def sqrt(self) -> "Surd":
        """The nonnegative square root, for a rational whose root lies in the field."""
        frac = self.rational()
        if frac is None or frac < 0:
            raise ValueError(f"{self!r} has no square root this package represents")
        n = frac.numerator * frac.denominator  # sqrt(p/q) = sqrt(p q) / q
        for m, place in ((1, 0), (2, 1), (3, 2), (6, 3)):
            root = math.isqrt(n // m)
            if n % m == 0 and root * root * m == n:
                coords = [0, 0, 0, 0]
                coords[place] = root
                return Surd(*coords, frac.denominator)
        raise ValueError(f"{self!r} has no square root in Q(√2, √3)")

    # -- arithmetic

    def __add__(self, other) -> "Surd":
        o = _coerce(other)
        if o is NotImplemented:
            return o
        if not o:
            return self
        q1, q2 = self.q, o.q
        return Surd(self.a * q2 + o.a * q1, self.b * q2 + o.b * q1, self.c * q2 + o.c * q1,
                    self.d * q2 + o.d * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, -self.c, -self.d, self.q)

    def __sub__(self, other) -> "Surd":
        o = _coerce(other)
        if o is NotImplemented:
            return o
        return self + -o

    def __rsub__(self, other) -> "Surd":
        return -self + other

    def __mul__(self, other) -> "Surd":
        o = _coerce(other)
        if o is NotImplemented:
            return o
        if not (self.b or self.c or self.d or o.b or o.c or o.d):
            return Surd(self.a * o.a, 0, 0, 0, self.q * o.q)
        return Surd(*_mul4(self.coords, o.coords), self.q * o.q)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Surd":
        o = _coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other) -> "Surd":
        return self.inverse() * other

    def __pow__(self, n) -> "Surd":
        """self ** n for an int n >= 0, by repeated squaring; exact, like every other operation."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError(f"a Surd's power needs an exponent >= 0, not {n}")
        result, base = Surd(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __abs__(self) -> "Surd":
        return -self if self.sign() < 0 else self

    # -- comparison

    def _cmp(self, other) -> int:
        """Sign of self - other."""
        if isinstance(other, float):  # a tolerance: no Surd needed
            n, d = other.as_integer_ratio()
            o = (n, 0, 0, 0, d)
        else:
            o = _coerce(other)
            if o is NotImplemented:
                raise TypeError(f"cannot compare a Surd with {type(other).__name__}")
            o = (o.a, o.b, o.c, o.d, o.q)
        q1, q2 = self.q, o[4]
        return _sign4(self.a * q2 - o[0] * q1, self.b * q2 - o[1] * q1, self.c * q2 - o[2] * q1,
                      self.d * q2 - o[3] * q1)

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.c, self.d, self.q) == (o.a, o.b, o.c, o.d, o.q)

    __hash__ = None  # equal to ints and Fractions, but hashed unlike them

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    # -- the number as a real

    @property
    def real(self) -> "Surd":
        return self

    def conjugate(self) -> "Surd":
        return self

    def __float__(self) -> float:
        if not (self.b or self.c or self.d):
            return self.a / self.q  # int true division rounds correctly
        r2, r3, r6 = _ROOTS
        scaled = self.a * _SCALE + self.b * r2 + self.c * r3 + self.d * r6
        return scaled / (self.q * _SCALE)

    def __format__(self, spec: str) -> str:
        return format(float(self), spec)

    def __repr__(self) -> str:
        frac = self.rational()
        if frac is not None:
            return f"Surd({frac})"
        terms = " + ".join(f"{x}{r}" for x, r in zip(self.coords, ("", "√2", "√3", "√6")) if x)
        return f"Surd(({terms})/{self.q})"


def _coerce(x):
    """x as a Surd, from an int, a Fraction, a float (its exact binary value) or a decimal string.

    NotImplemented for any other type; ValueError or OverflowError for a
    string or float that is not a finite number (nan, inf).
    """
    if type(x) is Surd:
        return x
    if isinstance(x, float):
        n, d = x.as_integer_ratio()
        return Surd(n, 0, 0, 0, d)
    if isinstance(x, str):
        x = _from_decimal(x)
    if isinstance(x, int):
        return Surd(x)
    if isinstance(x, Fraction):
        return Surd(x.numerator, 0, 0, 0, x.denominator)
    return NotImplemented


def _from_decimal(text: str) -> Fraction:
    """A decimal string's exact value; where that cannot be read, its float's.

    The float stands in for an exponent beyond the float range (the value
    is 0 or inf there) and for more digits than `int` reads.
    """
    try:
        if abs(Decimal(text).adjusted()) <= 400:
            return Fraction(text)
    except (ArithmeticError, ValueError):
        pass
    return Fraction(float(text))


ZERO = Surd()


class _ExactFloor:
    """Above 0 and below every positive number: `floor > w` tests a Born weight, never negative, for 0 exactly.

    The test reads coordinates and computes no sign; `floor < w` is its negation.
    """

    __slots__ = ()
    __gt__ = staticmethod(operator.not_)
    __lt__ = staticmethod(operator.truth)


EXACT_FLOOR = _ExactFloor()


def exact_label(p) -> str | None:
    """The reduced fraction of a probability, or None if it is not a rational.

    A Surd's label is read off its coordinates, and an int or Fraction (an
    empty sum is the int 0) is its own label, so these are derived, not
    guessed.  Only a float from the dense engine, which has lost its exact
    value, gets `rational_label`'s guess.
    """
    if isinstance(p, Surd):
        p = p.rational()
        if p is None:
            return None
    elif not isinstance(p, (int, Fraction)):
        return rational_label(p)
    return f"{p.numerator}/{p.denominator}" if p.denominator != 1 else str(p.numerator)


def probability_cell(p) -> dict:
    """A probability's JSON fields: its nearest float and its exact label."""
    return {"probability": float(p), "exact": exact_label(p)}


#: The coin both engines start from by default, (√(1/3), √(2/3)), and its
#: correctly rounded floats, the dense engine's default coin.
DEFAULT_COIN = (Surd(0, 0, 1, 0, 3), Surd(0, 0, 0, 1, 3))
DEFAULT_COIN_FLOATS = tuple(float(c) for c in DEFAULT_COIN)

COIN_ERROR = "coin amplitudes must satisfy |a|^2 + |b|^2 = 1 within 1e-9"


def check_coin(a, b) -> None:
    if not abs(abs(a) * abs(a) + abs(b) * abs(b) - 1.0) <= NORM_ATOL:  # NaN fails too
        raise ValueError(COIN_ERROR)


# -- what both engines share -------------------------------------------------------


class RecordMask(NamedTuple):
    """Keep the basis states with this label index on this memory axis: a record event's mask on both engines."""

    axis: int
    index: int


@cache
def record_mask(var: str, label: str) -> RecordMask:
    """The mask selecting one memory label of var's recorder, one value per (var, label)."""
    axis = RECORDERS[var][0].memory_axis
    return RecordMask(axis, GLOBAL_SPACE.factors[axis].index(label))


class Engine:
    """Configuration, the pilot-state walk and the P[h] memo's storage, for both engines.

    A subclass passes `coin_amplitudes`, two amplitudes in the number type
    of its states, and provides `initial_state`, `stage_unitaries`, `gram`
    and `sqrt`.  A coin of any other length is refused here, before its
    normalisation is checked.
    """

    #: a Born weight below it is zero; written first in a comparison, as born and bellbohm do
    weight_floor = ZERO_WEIGHT_FLOOR

    def __init__(self, coin_amplitudes: tuple, flip_ok_sign: bool, corrupt_preparation: bool) -> None:
        if len(coin_amplitudes) != 2:
            raise ValueError(f"a coin is two amplitudes, not {len(coin_amplitudes)}")
        check_coin(*coin_amplitudes)
        self.coin_amplitudes = coin_amplitudes
        self.flip_ok_sign = flip_ok_sign
        self.corrupt_preparation = corrupt_preparation
        self._pilot_cache: dict = {}
        self._unready_axes: set[int] = set()  # seeded with the initial state
        #: P[h] by event tuple, which `histories.history_probability` keeps
        self.probability_memo: dict = {}
        #: grounding-fact results keyed by fact-table entry (see facts.evaluate)
        self.fact_results: dict = {}

    def pilot_state_after(self, stage: StageId):
        """Global unitary evolution of the initial state up to and including stage.

        The cache holds the states after a prefix of STAGES, the initial state
        first, each built once; a later stage continues from the last one.
        A stage whose recorder is in `_unready_axes` is stepped with `apply`,
        which checks it, any other with `linear`: a memory ready at the start
        stays ready until a stage's `rewritten_memory_axes` name it (a dense
        entry of at most ATOL, left out there, moves weight far below ATOL).
        """
        cache, unready = self._pilot_cache, self._unready_axes
        if stage not in cache:
            stages = self.stage_unitaries
            if not cache:
                initial = cache[StageId.PREP_MINUS1] = self.initial_state()
                if any(DIGITS[i][a] for i in initial.components() for a in MEMORY_AXES):
                    unready.update(MEMORY_AXES)
            state = cache[STAGES[len(cache) - 1]]
            for s in STAGES[len(cache) : STAGES.index(stage) + 1]:
                step = stages[s]
                state = cache[s] = step.apply(state) if step.recorder_axis in unready else step.linear(state)
                unready.update(step.rewritten_memory_axes)
        return cache[stage]


@cache
def _record_index(vars: tuple[str, ...]) -> tuple[tuple[int, ...], tuple]:
    """The memory axes of `vars`, ascending, and (labels, offset in their flat marginal) per label tuple."""
    axes = [RECORDERS[v][0].memory_axis for v in vars]
    order = sorted(range(len(axes)), key=axes.__getitem__)  # the marginal's axes, as positions in vars
    dims = [GLOBAL_SPACE.dims[axes[k]] for k in order]
    strides = [math.prod(dims[n + 1 :]) for n in range(len(order))]  # row-major, as the marginal is flat
    keys = tuple(
        (labels, sum(GLOBAL_SPACE.factors[axes[k]].index(labels[k]) * stride for k, stride in zip(order, strides)))
        for labels in itertools.product(*(OUTCOME_LABELS[v] for v in vars))
    )
    return tuple(sorted(axes)), keys


# -- the sparse exact engine --------------------------------------------------------


@cache
def _layout(axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The local stride of each of `axes`, and the flat offset of every local index."""
    dims = [GLOBAL_SPACE.dims[a] for a in axes]
    local_strides = tuple(math.prod(dims[k + 1 :]) for k in range(len(axes)))
    offset = tuple(
        sum(digit * STRIDES[a] for digit, a in zip(digits, axes))
        for digits in itertools.product(*map(range, dims))
    )
    return local_strides, offset


def _times_code(x: tuple, sign: int, k: int, halved: bool) -> tuple:
    """x * sign * 2**(-k/2), times 2 when `halved` (the caller doubles the denominator)."""
    a, b, c, d = x
    if halved:
        if k == 0:
            a, b, c, d = 2 * a, 2 * b, 2 * c, 2 * d
        elif k == 1:  # x √2
            a, b, c, d = 2 * b, a, 2 * d, c
    return (a, b, c, d) if sign > 0 else (-a, -b, -c, -d)


class SparseState:
    """Exact amplitudes {flat index: (a, b, c, d)}, each over the shared denominator `den`.

    Only nonzero amplitudes are stored; the space is always `GLOBAL_SPACE`.
    A state keeps each marginal it has computed, by axes; copies and pickles
    leave them out.
    """

    __slots__ = ("nums", "den", "_marginals")

    def __init__(self, nums: dict[int, tuple[int, int, int, int]], den: int = 1) -> None:
        nums = {i: x for i, x in nums.items() if any(x)}
        g = math.gcd(den, *(c for x in nums.values() for c in x))
        if g > 1:
            nums = {i: (a // g, b // g, c // g, d // g) for i, (a, b, c, d) in nums.items()}
            den //= g
        self.nums, self.den, self._marginals = nums, den, None

    def __reduce__(self):
        return SparseState, (self.nums, self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def components(self) -> dict[int, Surd]:
        """The nonzero amplitudes by flat index."""
        return {i: Surd(*x, self.den) for i, x in self.nums.items()}

    def masked(self, mask: RecordMask) -> "SparseState":
        axis, index = mask
        return SparseState({i: x for i, x in self.nums.items() if DIGITS[i][axis] == index}, self.den)

    def marginal(self, axes: tuple[int, ...]) -> tuple[Surd, ...]:
        """Born weight of every label combination on `axes` (ascending), flat in row-major order.

        Computed once per state and axes.
        """
        memo = self._marginals
        if memo is None:
            memo = self._marginals = {}
        flat = memo.get(axes)
        if flat is None:
            local_strides, offset = _layout(axes)
            acc: dict[int, list[int]] = {}
            for i, x in self.nums.items():
                digits = DIGITS[i]
                w = acc.setdefault(sum(digits[a] * s for a, s in zip(axes, local_strides)), [0, 0, 0, 0])
                for k, c in enumerate(_square4(x)):
                    w[k] += c
            den2 = self.den * self.den
            flat = memo[axes] = tuple(Surd(*acc[t], den2) if t in acc else ZERO for t in range(len(offset)))
        return flat

    def apply(self, axes: tuple[int, ...], columns: Columns, halved: bool) -> "SparseState":
        """The sparse columns on `axes` applied; a missing column maps to zero.

        `halved` is `halves(columns)`, which a `StageMap` carries.
        """
        local_strides, offset = _layout(axes)
        out: dict[int, tuple] = {}
        for i, x in self.nums.items():
            digits = DIGITS[i]
            t = sum(digits[a] * s for a, s in zip(axes, local_strides))
            base = i - offset[t]
            for t2, sign, k in columns.get(t, ()):
                y = _times_code(x, sign, k, halved)
                j = base + offset[t2]
                if j in out:
                    z = out[j]
                    y = (y[0] + z[0], y[1] + z[1], y[2] + z[2], y[3] + z[3])
                out[j] = y
        return SparseState(out, self.den * 2 if halved else self.den)

    def inner(self, other: "SparseState") -> Surd:
        acc = [0, 0, 0, 0]
        small, large = sorted((self.nums, other.nums), key=len)
        for i, x in small.items():
            y = large.get(i)
            if y is not None:
                for k, c in enumerate(_mul4(x, y)):
                    acc[k] += c
        return Surd(*acc, self.den * other.den)


class ExactProtocol(Engine):
    """The protocol with exact amplitudes in Q(√2, √3): the command line's engine.

    Coin amplitudes are Surds, ints, Fractions, decimal strings (read
    exactly: "0.6" is 3/5) or floats (their exact binary values); they are
    real.  The default coin is (√3/3, √6/3) exactly.  The corruption hooks
    are those of `protocol.Protocol`.

    Only the coin, the pilot states, the P[h] memo (`probability_memo`) and
    the fact results belong to one ExactProtocol.  The stages, its
    `stage_maps`, do not depend on the coin: they are built once per process
    for each setting of the corruption hooks and shared, as a read-only
    mapping, by every ExactProtocol with that setting.
    """

    weight_floor = EXACT_FLOOR

    def __init__(
        self,
        coin_amplitudes: tuple | None = None,
        *,
        flip_ok_sign: bool = False,
        corrupt_preparation: bool = False,
    ) -> None:
        if coin_amplitudes is None:
            coin = DEFAULT_COIN
        else:
            try:
                coin = tuple(_coerce(x) for x in coin_amplitudes)
            except (ValueError, ArithmeticError):  # nan or inf
                raise ValueError(COIN_ERROR) from None
            if any(c is NotImplemented for c in coin):
                raise TypeError(f"coin amplitudes {coin_amplitudes!r} are not real numbers")
        super().__init__(coin, flip_ok_sign, corrupt_preparation)

    @staticmethod
    def sqrt(n: int) -> Surd:
        return Surd(n).sqrt()

    @cached_property
    def stage_unitaries(self) -> Mapping[StageId, StageMap]:
        return stage_maps(self.flip_ok_sign, self.corrupt_preparation)

    def initial_state(self) -> SparseState:
        """Coin superposition, spin down, all four memories ready."""
        a, b = self.coin_amplitudes
        den = a.q * b.q // math.gcd(a.q, b.q)
        nums = {
            GLOBAL_SPACE.index_of((HEAD, READY, DOWN, READY, READY, READY)): tuple(x * (den // a.q) for x in a.coords),
            GLOBAL_SPACE.index_of((TAIL, READY, DOWN, READY, READY, READY)): tuple(x * (den // b.q) for x in b.coords),
        }
        return SparseState(nums, den)

    @staticmethod
    def gram(states: list[SparseState], others: list[SparseState] | None = None) -> list[list[Surd]]:
        """<a|b> for a in states and b in others: a block of the decoherence functional of chain vectors.

        Without `others` the block is states' own, and each unordered pair
        is read once.
        """
        if others is not None:
            return [[a.inner(b) for b in others] for a in states]
        d = [[ZERO] * len(states) for _ in states]
        for i, a in enumerate(states):
            for j in range(i, len(states)):
                d[i][j] = d[j][i] = a.inner(states[j])
        return d
