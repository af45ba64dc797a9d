"""The six-subsystem nested-measurement protocol and its stage dynamics.

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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .linalg import (
    ATOL,
    NORM_ATOL,
    Factor,
    Projector,
    SpaceDescriptor,
    StateVector,
    apply_on_axes,
    lifted_projector,
)

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


def memory_marginal(state: StateVector, axes: tuple[int, ...]) -> np.ndarray:
    """Born weights of the label combinations on `axes`, axes ascending.

    The package's one marginal of |amps|^2: summed over every other axis.
    """
    probs = (np.abs(state.amps) ** 2).reshape(GLOBAL_SPACE.dims)
    return probs.sum(axis=tuple(i for i in range(len(GLOBAL_SPACE.dims)) if i not in axes))


class AgentId(enum.Enum):
    F1 = "F1"
    F2 = "F2"
    W1 = "W1"
    W2 = "W2"

    @property
    def memory_axis(self) -> int:
        return GLOBAL_SPACE.axis(self.value)


class StageId(enum.Enum):
    """Protocol stages on the canonical timeline t = -1, 0, 1, 2, 3, 4."""

    PREP_MINUS1 = -1
    OBS0 = 0
    PREP1 = 1
    OBS2 = 2
    MEAS3 = 3
    MEAS4 = 4

    @property
    def time(self) -> int:
        return self.value

    def __lt__(self, other: "StageId") -> bool:
        return self.value < other.value


STAGES: tuple[StageId, ...] = tuple(StageId)
#: Stages that apply a unitary (all but the initial preparation).
DYNAMIC_STAGES: tuple[StageId, ...] = tuple(s for s in STAGES if s is not StageId.PREP_MINUS1)


class PreconditionError(ValueError):
    """A stage map was applied to a state outside its declared domain."""


@dataclass(frozen=True, eq=False)
class MeasurementSpec:
    """One projective measurement: rank-one outcome vectors plus a recorder.

    `vectors` maps each outcome label to a unit vector on the target factor
    subspace (targets in global order).  When the vectors do not span the
    target factor (two outcomes on a six-dimensional factor), the coordinates
    none of them touches form a residual branch (label REST) that completes
    the identity in `factor_matrices` but is not a reportable outcome.  That
    holds because the vectors span exactly the coordinates they touch.
    """

    name: str
    targets: tuple[str, ...]
    vectors: dict[str, np.ndarray]
    recorder: AgentId

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(self.vectors)

    @property
    def target_axes(self) -> tuple[int, ...]:
        return tuple(GLOBAL_SPACE.axis(t) for t in self.targets)

    @cached_property  # a frozen dataclass lets it write the instance __dict__
    def factor_matrices(self) -> dict[str, np.ndarray]:
        """Read-only projector matrix of each outcome, then REST, on the target factor."""
        mats = {label: np.outer(v, v.conj()) for label, v in self.vectors.items()}
        # exact 0/1 diagonal, not I - sum(mats), which leaves float error behind
        untouched = ~np.any(np.stack(tuple(self.vectors.values())) != 0, axis=0)
        if untouched.any():
            mats[REST] = np.diag(untouched.astype(np.complex128))
        for mat in mats.values():
            mat.flags.writeable = False
        return mats


@dataclass(frozen=True, eq=False)
class StageUnitary:
    """A stage's action: a unitary on a subset of tensor factors.

    `matrix` is the factor-level unitary over `axes` (ascending).  Recording
    stages carry the recorder axis so that `apply` can enforce the
    ready-memory precondition; `linear` skips that check and is the raw
    globally unitary extension.
    """

    stage: StageId
    axes: tuple[int, ...]
    matrix: np.ndarray
    recorder_axis: int | None = None

    def linear(self, state: StateVector) -> StateVector:
        out = apply_on_axes(state.amps, GLOBAL_SPACE.dims, self.axes, self.matrix)
        return StateVector(GLOBAL_SPACE, out)

    def apply(self, state: StateVector) -> StateVector:
        if self.recorder_axis is not None:
            off_ready = float(memory_marginal(state, (self.recorder_axis,))[1:].sum())
            if off_ready > ATOL:
                agent = GLOBAL_SPACE.factors[self.recorder_axis].name
                raise PreconditionError(
                    f"stage {self.stage.name}: recorder {agent} memory is not ready "
                    f"(weight {off_ready:.3e} outside |0>)"
                )
        return self.linear(state)

    @cached_property
    def rewritten_memory_axes(self) -> tuple[int, ...]:
        """Memory axes whose record this stage can overwrite.

        An axis is rewritten when the stage matrix fails to commute with the
        label projectors on that axis (a diagonal control, like the spin
        preparation conditioned on F1, leaves the record intact).
        """
        memory_axes = {a.memory_axis for a in AgentId}
        rewritten = []
        for pos, axis in enumerate(self.axes):
            if axis not in memory_axes:
                continue
            dims = [GLOBAL_SPACE.dims[a] for a in self.axes]
            for k in range(dims[pos]):
                diag = np.zeros(dims, dtype=np.complex128)
                sel: list[object] = [slice(None)] * len(dims)
                sel[pos] = k
                diag[tuple(sel)] = 1.0
                pk = np.diag(diag.reshape(-1))
                if not np.allclose(self.matrix @ pk, pk @ self.matrix, atol=ATOL):
                    rewritten.append(axis)
                    break
        return tuple(rewritten)


def _memory_swap(agent: AgentId, label: str) -> np.ndarray:
    """3x3 permutation exchanging the ready state with the given memory label."""
    labels = GLOBAL_SPACE.factors[agent.memory_axis].labels
    v = np.eye(3, dtype=np.complex128)
    k = labels.index(label)
    v[[0, k]] = v[[k, 0]]
    return v


def _factor_vector(targets: tuple[str, ...], terms: dict[tuple[str, ...], float]) -> np.ndarray:
    """Read-only vector on the target factors with the given label amplitudes."""
    space = GLOBAL_SPACE.subspace(targets)
    amps = np.zeros(space.size, dtype=np.complex128)
    for labels, c in terms.items():
        amps[space.index_of(labels)] = c
    amps.flags.writeable = False
    return amps


def _unit_vectors(labels: tuple[str, str]) -> dict[str, np.ndarray]:
    """The two outcome labels of a qubit measurement, as the rows of I."""
    eye = np.eye(2, dtype=np.complex128)
    eye.flags.writeable = False
    return dict(zip(labels, eye))


#: Which memory register records each outcome variable, and at which stage.
RECORDERS: dict[str, tuple[AgentId, StageId]] = {
    "r": (AgentId.F1, StageId.OBS0),
    "z": (AgentId.F2, StageId.OBS2),
    "w1": (AgentId.W1, StageId.MEAS3),
    "w2": (AgentId.W2, StageId.MEAS4),
}

#: Memory label written for each outcome of each variable.
OUTCOME_LABELS: dict[str, tuple[str, ...]] = {
    "r": (HEAD, TAIL),
    "z": (PLUS, MINUS),
    "w1": (OK, FAIL),
    "w2": (OK, FAIL),
}


@cache
def record_mask(var: str, label: str) -> np.ndarray:
    """0/1 mask on the flat amplitudes selecting one memory label of var's recorder.

    `amps * record_mask(var, label)` equals projecting with
    `Protocol.record_projector(var, label)`, whose spanning vectors are basis
    vectors.  The mask does not depend on the coin, so one read-only array per
    (var, label) is shared by every caller.
    """
    axis = RECORDERS[var][0].memory_axis
    mask = np.zeros(GLOBAL_SPACE.dims)
    np.moveaxis(mask, axis, 0)[GLOBAL_SPACE.factors[axis].index(label)] = 1.0
    mask = mask.reshape(-1)
    mask.flags.writeable = False
    return mask


class Protocol:
    """One run configuration: coin amplitudes plus optional corruption hooks.

    The corruption hooks exist for verification tests only: `flip_ok_sign`
    negates the entangled ok basis vector of W1's measurement (probabilities
    are unchanged, coefficient checks must catch it) and `corrupt_preparation`
    flips a sign inside the tail-branch spin rotation (probabilities change,
    every downstream consumer must refuse or fail loudly).
    """

    def __init__(
        self,
        coin_amplitudes: tuple[float, float] | None = None,
        *,
        flip_ok_sign: bool = False,
        corrupt_preparation: bool = False,
    ) -> None:
        if coin_amplitudes is None:
            coin_amplitudes = (math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0))
        a, b = complex(coin_amplitudes[0]), complex(coin_amplitudes[1])
        if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= NORM_ATOL:  # NaN fails too
            raise ValueError("coin amplitudes must satisfy |a|^2 + |b|^2 = 1 within 1e-9")
        self.coin_amplitudes = (a, b)
        self.flip_ok_sign = flip_ok_sign
        self.corrupt_preparation = corrupt_preparation
        self._pilot_cache: dict[StageId, StateVector] = {}
        #: grounding-fact results keyed by fact-table entry (see facts.evaluate)
        self.fact_results: dict = {}

    # -- measurement specs ------------------------------------------------

    @cached_property
    def coin_measurement(self) -> MeasurementSpec:
        return MeasurementSpec("r", ("C",), _unit_vectors((HEAD, TAIL)), AgentId.F1)

    @cached_property
    def spin_measurement(self) -> MeasurementSpec:
        return MeasurementSpec("z", ("S",), _unit_vectors((PLUS, MINUS)), AgentId.F2)

    @cached_property
    def friend_coin_measurement(self) -> MeasurementSpec:
        """W1's entangled ok/fail measurement of the coin together with F1."""
        s = 1.0 / math.sqrt(2.0)
        sign = -1.0 if self.flip_ok_sign else 1.0
        targets = ("C", "F1")
        vectors = {
            OK: _factor_vector(targets, {(HEAD, HEAD): sign * s, (TAIL, TAIL): -sign * s}),
            FAIL: _factor_vector(targets, {(HEAD, HEAD): s, (TAIL, TAIL): s}),
        }
        return MeasurementSpec("w1", targets, vectors, AgentId.W1)

    @cached_property
    def friend_spin_measurement(self) -> MeasurementSpec:
        """W2's entangled ok/fail measurement of the spin together with F2."""
        s = 1.0 / math.sqrt(2.0)
        targets = ("S", "F2")
        vectors = {
            OK: _factor_vector(targets, {(DOWN, MINUS): s, (UP, PLUS): -s}),
            FAIL: _factor_vector(targets, {(DOWN, MINUS): s, (UP, PLUS): s}),
        }
        return MeasurementSpec("w2", targets, vectors, AgentId.W2)

    def measurement(self, var: str) -> MeasurementSpec:
        try:
            return {
                "r": self.coin_measurement,
                "z": self.spin_measurement,
                "w1": self.friend_coin_measurement,
                "w2": self.friend_spin_measurement,
            }[var]
        except KeyError:
            raise KeyError(f"unknown outcome variable {var!r}") from None

    # -- stage dynamics ----------------------------------------------------

    def initial_state(self) -> StateVector:
        """Coin superposition, spin down, all four memories ready."""
        a, b = self.coin_amplitudes
        amps = np.zeros(DIM, dtype=np.complex128)
        amps[GLOBAL_SPACE.index_of((HEAD, READY, DOWN, READY, READY, READY))] = a
        amps[GLOBAL_SPACE.index_of((TAIL, READY, DOWN, READY, READY, READY))] = b
        return StateVector(GLOBAL_SPACE, amps).require_normalized(NORM_ATOL)

    def record_isometry(self, agent: AgentId, spec: MeasurementSpec) -> StageUnitary:
        """Unitary copying the measured basis label into the agent's memory.

        On the reachable subspace (agent memory ready) this maps every basis-k
        component psi_k (x) |0> to psi_k (x) |label_k>; the residual branch is
        extended as the identity on the memory, which is one valid unitary
        extension off the reachable subspace.
        """
        if spec.recorder is not agent:
            raise ValueError(f"measurement {spec.name!r} is recorded by {spec.recorder.value}, not {agent.value}")
        mem_axis = agent.memory_axis
        axes = tuple(sorted(spec.target_axes + (mem_axis,)))
        if axes != spec.target_axes + (mem_axis,):
            raise ValueError("recorder memory axis must follow the target axes in global order")
        d_target = math.prod(GLOBAL_SPACE.dims[a] for a in spec.target_axes)
        mat = np.zeros((d_target * 3, d_target * 3), dtype=np.complex128)
        for label, p in spec.factor_matrices.items():
            if label == REST:
                v = np.eye(3, dtype=np.complex128)
            else:
                v = _memory_swap(agent, label)
            mat += np.kron(p, v)
        stage = RECORDERS[spec.name][1]
        return StageUnitary(stage, axes, mat, recorder_axis=mem_axis)

    def preparation_unitary(self) -> StageUnitary:
        """Spin preparation controlled on F1's memory.

        The head component leaves the spin down; the tail component rotates
        down into the equal superposition (up + down)/sqrt(2).
        """
        s = 1.0 / math.sqrt(2.0)
        rot = np.array([[s, s], [-s, s]], dtype=np.complex128)  # columns: up -> (up-down)/sqrt2, down -> (up+down)/sqrt2
        if self.corrupt_preparation:
            rot = np.array([[s, s], [s, -s]], dtype=np.complex128)
        eye = np.eye(2, dtype=np.complex128)
        mat = np.zeros((6, 6), dtype=np.complex128)
        for k, u in enumerate((eye, eye, rot)):  # F1 = 0, head, tail
            e = np.zeros((3, 3), dtype=np.complex128)
            e[k, k] = 1.0
            mat += np.kron(e, u)
        return StageUnitary(StageId.PREP1, (1, 2), mat)

    @cached_property
    def stage_unitaries(self) -> dict[StageId, StageUnitary]:
        return {
            StageId.OBS0: self.record_isometry(AgentId.F1, self.coin_measurement),
            StageId.PREP1: self.preparation_unitary(),
            StageId.OBS2: self.record_isometry(AgentId.F2, self.spin_measurement),
            StageId.MEAS3: self.record_isometry(AgentId.W1, self.friend_coin_measurement),
            StageId.MEAS4: self.record_isometry(AgentId.W2, self.friend_spin_measurement),
        }

    def stage_unitary(self, stage: StageId) -> StageUnitary:
        return self.stage_unitaries[stage]

    def pilot_state_after(self, stage: StageId) -> StateVector:
        """Global unitary evolution of the initial state up to and including stage."""
        if stage not in self._pilot_cache:
            state = self.initial_state()
            for s in DYNAMIC_STAGES:
                if s.value > stage.value:
                    break
                state = self.stage_unitaries[s].apply(state)
                self._pilot_cache[s] = state
            self._pilot_cache[StageId.PREP_MINUS1] = self.initial_state()
        return self._pilot_cache[stage]

    # -- record access -----------------------------------------------------

    def record_projector(self, var: str, label: str) -> Projector:
        """Global projector onto one memory label of var's recorder."""
        agent, _ = RECORDERS[var]
        axis = agent.memory_axis
        idx = GLOBAL_SPACE.factors[axis].index(label)
        e = np.zeros(3, dtype=np.complex128)
        e[idx] = 1.0
        return lifted_projector(GLOBAL_SPACE, (axis,), [e])

    def record_weights(self, state: StateVector, vars: tuple[str, ...]) -> dict[tuple[str, ...], float]:
        """Joint Born weights of memory labels for the given outcome variables.

        Label tuples run over the declared outcome labels only; the ready
        label 0 is excluded (callers read records after they are written).
        """
        axes = [RECORDERS[v][0].memory_axis for v in vars]
        marg = memory_marginal(state, tuple(axes))
        order = sorted(range(len(axes)), key=axes.__getitem__)  # marg's axes, as positions in vars
        return {
            labels: float(marg[tuple(GLOBAL_SPACE.factors[axes[k]].index(labels[k]) for k in order)])
            for labels in product(*(OUTCOME_LABELS[v] for v in vars))
        }


def default_protocol() -> Protocol:
    return Protocol()
