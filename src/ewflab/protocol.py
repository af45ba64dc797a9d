"""The dense engine: the six-subsystem protocol on flat complex128 arrays.

Subsystem order is fixed globally as (C, F1, S, F2, W1, W2) with dimensions
(2, 3, 2, 3, 3, 3); every module indexes this same 324-dimensional layout.
Basis label order is likewise fixed:

    C  : head, tail            (the coin)
    S  : up, down              (the spin; outcome labels are + for up, - for down)
    F1 : 0, head, tail         (F1's memory)
    F2 : 0, +, -               (F2's memory)
    W1 : 0, ok, fail           (W1's memory)
    W2 : 0, ok, fail           (W2's memory)

All measurements are modeled as recording unitaries that copy a basis label of
the measured factor into the recorder's memory register; no collapse happens
here.  The globally unitary evolution of the initial state through these
recorders is called the pilot state, and the outcome-extraction semantics live
in the born module.

The layout and the stage maps are defined once, exactly, in `exact`; this
module is their float image on numpy arrays, the library's `Protocol`.  The
command line computes with `exact.ExactProtocol` instead, which answers the
same calls without numpy.  An operator is a factor-local stage matrix
(`apply_on_axes`) or a 0/1 record mask on the amplitudes.  A measurement is
not an object here: its outcome vectors are written once, as the codes of
`exact.outcome_vectors`, from which the recording stages are built and
which the facts read.  Record weights come from one |amps|^2 marginal
(`memory_marginal`), the squares taken once per state; `marginal` returns
it as a flat row-major tuple, computed once per state and axes.  A stage
matrix acts through one `dot` on an operand gathered, and scattered back,
by index arrays planned once per axes.  No sparsity, no density matrices.

A dense state is checked once, where it enters: the `StateVector`
constructor rejects a wrong size and any non-finite amplitude.  States the
engine derives itself skip that check.  `initial_state` is checked, and
trusted (its coin passed `check_coin`, so its squared norm is within
`NORM_ATOL` of 1), and so is the image of a trusted state under one of the
engine's own operators: the shared stage unitaries of `_stages` and the
record-mask arrays of `_mask_array`.  Each is a unitary or a 0/1 projector
with entries of modulus at most 1, so a trusted state keeps a norm of at
most 1 (up to rounding) and every amplitude finite.  Any other operand (a
state or stage unitary a caller built) yields a checked state.

A recording stage's `apply` checks that its recorder is ready; the pilot
walk (`Engine.pilot_state_after`) steps with `linear` instead wherever
that is proven, once per stage mapping (`exact.unproven_stages`).
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .exact import (  # the layout, re-exported: the dense engine is the library's entry point
    DEFAULT_COIN_FLOATS,
    DIM,
    DOWN,
    DYNAMIC_STAGES,
    FAIL,
    GLOBAL_SPACE,
    HEAD,
    MINUS,
    OK,
    OUTCOME_LABELS,
    PLUS,
    READY,
    RECORDERS,
    REST,
    STAGES,
    TAIL,
    UP,
    AgentId,
    Engine,
    PreconditionError,
    RecordMask,
    StageId,
    StageMap,
    float_image,
    record_mask,
    require_ready,
    rewritten_axes,
    stage_maps,
)
from .linalg import ATOL, Amplitude, Frozen, SpaceDescriptor, SpaceMismatchError, setfield

__all__ = [
    "AgentId", "DIM", "DOWN", "DYNAMIC_STAGES", "FAIL", "GLOBAL_SPACE", "HEAD", "MINUS", "OK",
    "OUTCOME_LABELS", "PLUS", "READY", "RECORDERS", "REST", "STAGES", "TAIL", "UP",
    "PreconditionError", "Projector", "Protocol", "StageId", "StageUnitary", "StateVector",
    "apply_on_axes", "default_protocol", "inner", "lifted_projector", "memory_marginal", "record_mask",
]


# -- dense states and operators ------------------------------------------------


class _Squared(Frozen):
    """Where a StateVector keeps its |amps|^2 once `memory_marginal` has computed it, and its marginals.

    `_probs` is None until the first marginal, `_marginals` each flat
    marginal by axes (None until the first).  The slots sit on this base
    class, so a record's fields (`__slots__` of StateVector) are only the
    space, the amplitudes and the trust flag: what is cached is left out of
    its repr, copies and pickles.
    """

    __slots__ = ("_probs", "_marginals")


class StateVector(_Squared):
    """Flat complex amplitude vector over a SpaceDescriptor's basis.

    The constructor is the check: it rejects a wrong amplitude count and any
    non-finite amplitude, and its states are not `trusted`.  A trusted state
    is one the engine derived from its checked initial state through its own
    operators (see the module docstring); it is built without the check,
    because those operators cannot make an amplitude non-finite.
    """

    __slots__ = ("space", "amps", "trusted")

    def __init__(self, space: SpaceDescriptor, amps: np.ndarray) -> None:
        amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        if amps.size != space.size:
            raise ValueError(f"amplitude count {amps.size} != space size {space.size}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        setfield(self, "space", space)
        setfield(self, "amps", amps)
        setfield(self, "trusted", False)
        setfield(self, "_probs", None)
        setfield(self, "_marginals", None)

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.amps.view(np.float64))  # a third of the time of amps.any()

    def components(self) -> dict[int, Amplitude]:
        """The nonzero amplitudes by flat index."""
        return {int(i): complex(self.amps[i]) for i in np.flatnonzero(self.amps)}

    def masked(self, mask: RecordMask) -> "StateVector":
        """The amplitudes times the 0/1 array of a `record_mask`."""
        array = _mask_array(mask)
        return _image(self.space, self, array, np.multiply, self.amps, array)

    def marginal(self, axes: tuple[int, ...]) -> tuple[float, ...]:
        """`memory_marginal` flat, in row-major order: computed once per state and axes."""
        memo = getattr(self, "_marginals", None)  # a copy or an unpickled state is restored without it
        if memo is None:
            memo = {}
            setfield(self, "_marginals", memo)
        flat = memo.get(axes)
        if flat is None:
            flat = memo[axes] = tuple(memory_marginal(self, axes).ravel().tolist())
        return flat


#: The engine's own operators by id: the shared stage unitaries and the record
#: mask arrays.  Each is held here, so no other object can take its id.
_ENGINE_OPERATORS: dict[int, object] = {}


def _engine_operator(op):
    """Register one of the engine's shared operators and return it."""
    _ENGINE_OPERATORS[id(op)] = op
    return op


def _trusted_state(space: SpaceDescriptor, amps: np.ndarray) -> StateVector:
    """A state the engine derived itself, built without the constructor's check."""
    state = object.__new__(StateVector)
    amps.flags.writeable = False
    setfield(state, "space", space)
    setfield(state, "amps", amps)
    setfield(state, "trusted", True)
    setfield(state, "_probs", None)
    setfield(state, "_marginals", None)
    return state


def _image(space: SpaceDescriptor, state: StateVector, op: object, compute, *args) -> StateVector:
    """`compute(*args)`, the image of `state` under `op`: trusted when both are, checked otherwise.

    An untrusted image is computed with numpy's overflow and invalid
    warnings off, so that a finite but huge caller state that overflows
    ends in the check's ValueError whatever the warning filters are.
    """
    if state.trusted and _ENGINE_OPERATORS.get(id(op)) is op:
        return _trusted_state(space, compute(*args))
    with np.errstate(over="ignore", invalid="ignore"):
        amps = compute(*args)
    return StateVector(space, amps)


def inner(a: StateVector, b: StateVector) -> Amplitude:
    """<a|b>, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise SpaceMismatchError("inner product across different spaces")
    return complex(np.vdot(a.amps, b.amps))


class Projector(Frozen):
    """Orthogonal projector given by an orthonormal spanning set.

    `span_matrix` holds the spanning vectors stacked as rows, shape (rank, dim).
    """

    __slots__ = ("space", "vectors", "span_matrix")

    def __init__(self, space: SpaceDescriptor, vectors: tuple[StateVector, ...]) -> None:
        setfield(self, "space", space)
        setfield(self, "vectors", vectors)
        for v in vectors:
            if v.space != space:
                raise SpaceMismatchError("spanning vector on wrong space")
        mat = np.stack([v.amps for v in vectors]) if vectors else np.zeros((0, space.size), dtype=np.complex128)
        if not np.allclose(mat @ mat.conj().T, np.eye(len(vectors)), atol=ATOL):
            raise ValueError("spanning vectors are not orthonormal within 1e-12")
        setfield(self, "span_matrix", mat)

    @property
    def rank(self) -> int:
        return len(self.vectors)


@cache
def _axes_plan(dims: tuple[int, ...], axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the (target, rest) operand of a product on `axes`, and the inverse permutation."""
    perm = axes + tuple(i for i in range(len(dims)) if i not in axes)
    gather = np.arange(math.prod(dims)).reshape(dims).transpose(perm).reshape(math.prod(dims[a] for a in axes), -1)
    scatter = np.argsort(gather, axis=None)
    gather.flags.writeable = scatter.flags.writeable = False  # shared by every caller
    return gather, scatter


def apply_on_axes(
    amps: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...], mat: np.ndarray
) -> np.ndarray:
    """Apply an operator on the given tensor factors of a flat amplitude array.

    `mat` is a square matrix over the product of the target dims, with its
    row/column index in the same mixed-radix convention (axes in the given
    order, which must be ascending to match the global layout).  This is the
    one `dot` that `np.tensordot` would make, on the same operands: the
    (target, rest) operand is gathered, and the product scattered back, by
    index arrays planned once per (dims, axes).
    """
    gather, scatter = _axes_plan(dims, axes)
    return np.dot(mat, amps[gather]).reshape(-1)[scatter]


def lifted_projector(
    space: SpaceDescriptor, axes: tuple[int, ...], factor_vectors: list[np.ndarray]
) -> Projector:
    """Embed factor-space spanning vectors into the full space.

    Each factor vector (flat over the target dims, axes ascending) is tensored
    with every basis vector of the complementary factors, so the lifted
    projector acts as the factor projector on the targets and as the identity
    elsewhere.
    """
    dims = space.dims
    n = len(dims)
    others = [i for i in range(n) if i not in axes]
    spanning = []
    for fv in factor_vectors:
        ft = np.asarray(fv, dtype=np.complex128).reshape([dims[a] for a in axes])
        for combo in itertools.product(*[range(dims[o]) for o in others]):
            g = np.zeros(dims, dtype=np.complex128)
            sel: list[object] = [0] * n
            for a in axes:
                sel[a] = slice(None)
            for o, c in zip(others, combo):
                sel[o] = c
            g[tuple(sel)] = ft
            spanning.append(StateVector(space, g.reshape(-1)))
    return Projector(space, tuple(spanning))


@cache
def _summed_axes(axes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for i in range(len(GLOBAL_SPACE.dims)) if i not in axes)


def memory_marginal(state: StateVector, axes: tuple[int, ...]) -> np.ndarray:
    """Born weights of the label combinations on `axes`, axes ascending.

    The package's one marginal of |amps|^2: summed over every other axis.
    The squares are taken on a state's first marginal and kept on it.
    """
    probs = getattr(state, "_probs", None)  # a copy or an unpickled state is restored without it
    if probs is None:
        probs = (np.abs(state.amps) ** 2).reshape(GLOBAL_SPACE.dims)
        setfield(state, "_probs", probs)
    return probs.sum(axis=_summed_axes(tuple(axes)))


# -- stages -------------------------------------------------------------------


class StageUnitary(Frozen):
    """A stage's action: a unitary on a subset of tensor factors.

    `matrix` is the factor-level unitary over `axes` (ascending).  Recording
    stages carry the recorder axis so that `apply` can enforce the
    ready-memory precondition; `linear` skips that check and is the raw
    globally unitary extension.  `rewritten_memory_axes` are the memory axes
    whose record this stage can overwrite (entries above ATOL).
    """

    __slots__ = ("stage", "axes", "matrix", "recorder_axis", "rewritten_memory_axes")

    def __init__(
        self, stage: StageId, axes: tuple[int, ...], matrix: np.ndarray, recorder_axis: int | None = None
    ) -> None:
        setfield(self, "stage", stage)
        setfield(self, "axes", axes)
        setfield(self, "matrix", matrix)
        setfield(self, "recorder_axis", recorder_axis)
        setfield(self, "rewritten_memory_axes", rewritten_axes(axes, zip(*np.nonzero(np.abs(matrix) > ATOL))))

    def linear(self, state: StateVector) -> StateVector:
        return _image(GLOBAL_SPACE, state, self, apply_on_axes, state.amps, GLOBAL_SPACE.dims, self.axes,
                      self.matrix)

    def apply(self, state: StateVector) -> StateVector:
        require_ready(self.stage, self.recorder_axis, state)
        return self.linear(state)


def _float_matrix(m: StageMap) -> np.ndarray:
    """The read-only float image of a stage map's sparse columns."""
    size = math.prod(GLOBAL_SPACE.dims[a] for a in m.axes)
    mat = np.zeros((size, size), dtype=np.complex128)
    for t, col in m.columns.items():
        for t2, sign, k in col:
            mat[t2, t] += float_image((sign, k))
    mat.flags.writeable = False
    return mat


@cache
def _mask_array(mask: RecordMask) -> np.ndarray:
    """A record mask as a 0/1 array on the flat amplitudes.

    `amps * _mask_array(record_mask(var, label))` equals projecting with
    `Protocol.record_projector(var, label)`, whose spanning vectors are basis
    vectors.  One read-only array per mask is shared by every caller.
    """
    axis, index = mask
    array = np.zeros(GLOBAL_SPACE.dims)
    if 0 <= index < GLOBAL_SPACE.dims[axis]:  # an index no label has keeps nothing, as on the exact engine
        np.moveaxis(array, axis, 0)[index] = 1.0
    array = array.reshape(-1)
    array.flags.writeable = False
    return _engine_operator(array)


@cache
def _stages(flip_ok_sign: bool, corrupt_preparation: bool) -> Mapping[StageId, StageUnitary]:
    """The stage unitaries, one read-only mapping per flag pair: they do not depend on the coin."""
    return MappingProxyType({
        stage: _engine_operator(StageUnitary(stage, m.axes, _float_matrix(m), m.recorder_axis))
        for stage, m in stage_maps(flip_ok_sign, corrupt_preparation).items()
    })


class Protocol(Engine):
    """One run configuration: coin amplitudes plus optional corruption hooks.

    The corruption hooks exist for verification tests only: `flip_ok_sign`
    negates the entangled ok basis vector of W1's measurement (probabilities
    are unchanged, coefficient checks must catch it) and `corrupt_preparation`
    flips a sign inside the tail-branch spin rotation (probabilities change,
    every downstream consumer must refuse or fail loudly).

    Only the coin, the pilot states, the P[h] memo (`probability_memo`) and
    the fact results belong to one Protocol.  The stage unitaries
    (`stage_unitaries`, per pair of hooks) and the record masks do not
    depend on the coin: they are built once per process and shared,
    read-only, by every Protocol with the same hooks.  A coin is two amplitudes, each converted to a complex.
    """

    sqrt = staticmethod(math.sqrt)

    def __init__(
        self,
        coin_amplitudes: tuple[float, float] | None = None,
        *,
        flip_ok_sign: bool = False,
        corrupt_preparation: bool = False,
    ) -> None:
        if coin_amplitudes is None:
            coin_amplitudes = DEFAULT_COIN_FLOATS
        super().__init__(tuple(map(complex, coin_amplitudes)), flip_ok_sign, corrupt_preparation)

    # -- stage dynamics ----------------------------------------------------

    def initial_state(self) -> StateVector:
        """Coin superposition, spin down, all four memories ready."""
        a, b = self.coin_amplitudes
        amps = np.zeros(DIM, dtype=np.complex128)
        amps[GLOBAL_SPACE.index_of((HEAD, READY, DOWN, READY, READY, READY))] = a
        amps[GLOBAL_SPACE.index_of((TAIL, READY, DOWN, READY, READY, READY))] = b
        return _trusted_state(GLOBAL_SPACE, StateVector(GLOBAL_SPACE, amps).amps)

    @cached_property
    def stage_unitaries(self) -> Mapping[StageId, StageUnitary]:
        return _stages(self.flip_ok_sign, self.corrupt_preparation)

    # -- record access -----------------------------------------------------

    def record_projector(self, var: str, label: str) -> Projector:
        """Global projector onto one memory label of var's recorder."""
        agent, _ = RECORDERS[var]
        axis = agent.memory_axis
        idx = GLOBAL_SPACE.factors[axis].index(label)
        e = np.zeros(3, dtype=np.complex128)
        e[idx] = 1.0
        return lifted_projector(GLOBAL_SPACE, (axis,), [e])

    @staticmethod
    def gram(states: list[StateVector], others: list[StateVector] | None = None) -> list[list[Amplitude]]:
        """<a|b> for a in states and b in others, or states' own block: a block of the decoherence functional."""
        c = np.array([s.amps for s in states]).reshape(len(states), DIM)
        o = c if others is None else np.array([s.amps for s in others]).reshape(len(others), DIM)
        return (c.conj() @ o.T).tolist()


def default_protocol() -> Protocol:
    return Protocol()
