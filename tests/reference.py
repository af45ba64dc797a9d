"""The spanning-set path and the direct history chains, kept as oracles for the tests.

Before the outcome vectors were written once, as the codes of
`exact.outcome_vectors`, every basis was a `ProjectiveDecomposition` of
explicit orthonormal `StateVector`s, and projectors, tensor products and
dense stage matrices were built from spanning sets.  The package no longer
uses any of it; the bodies below are the package's own, moved here
unchanged, so the tests can compare today's paths against them.  A former
method is a function here whose first argument keeps the name `self`.
`basis(protocol, var)` rebuilds var's decomposition from the floats the
package once wrote for it, independently of the codes, and
`outcome_state(protocol, var, label)` reads one outcome vector off it.

Before the stage maps were written once as exact sparse columns
(`ewflab.exact`), the memory swaps and the spin preparation were built as
float matrices; those builders are here too, as the oracle the float images
of the exact columns must equal bit for bit.

Before the consistency report read its diagnostics off the decoherence
functional, it evolved each member's chain a second time, by a stage loop
of its own, and compared the refined chains pair by pair.  That loop and
that report are the last section, also unchanged.  The refinement they read
(`fine_chains`) builds each member's slots itself and evolves every leaf by
that loop, so the oracle reads nothing of the package's walk.

Before `apply_on_axes` planned its transposes once per (dims, axes), it
called `np.tensordot` and `np.moveaxis`; before the beable kernel cached
each config's children, it rebuilt them for every row.  Both bodies are
here, unchanged, as the oracles the planned product and the cached children
must equal bit for bit.

Before the joints and the beable chain shared their ratios, the sequential
joint divided once per branch, the marginal joint once per cell and step,
and `exact_chain` built a kernel row per partial trajectory.  Those bodies
are the last section, unchanged (the joints without their leading
underscore), as the oracles the shared ratios must equal bit for bit.
Before the chain carried configs as offsets into flat marginals, its
kernel row read dicts keyed by `MemoryConfig` (`_kernel_row`, over
`_children`), and its table held `Trajectory` entries and those dicts
(`TrajectoryTable` here holds the two); both bodies close that section,
unchanged.

Before the facts read a conditional as a ratio of Born weights, they
renormalised the masked coin branch (`facts._branch_state`) with the
states' `normalized`, which on the exact engine was `SparseState.scaled`
by the inverse root of the branch's weight.  Those bodies close the module,
unchanged (`branch_state` without its leading underscore and reading the
branch's norm off `norm2`, and `normalized` one function for both state
types), as the oracle the ratios must equal.

Before the facts read FR2-FR4 and the (ok, spin-down) weight as history
probabilities, they applied each outcome's factor projector to the
spin-recorded state (`born.joint_weight` over the states' `projected`).
`outcome_weight` is that path on both engines: a dense state is projected
by `measurement_projector`'s spanning sets, an exact one by the sparse
columns of `exact.projector_columns`, from which the recording stages are
still built.

Before a state kept its marginals, `marginal` returned a fresh dict keyed
by label-index tuples on every call, and `SparseState.apply` scanned its
columns for a 1/√2 or 1/2 code on every application.  Both bodies close the
module, unchanged (`marginal` one function for both state types, and
`sparse_apply` with its local strides computed in place), as the oracles
the flat marginals, the carried `StageMap.halved` and the pilot walk that
steps with `linear` where no ready check can fail must equal.

Before P[h] was read off coin forms, it was the squared norm of the walked
chain: `StateVector` had `norm` and `norm2`, `SparseState` had `norm2`, and
both engines had `record_weights`, which the joints had read before they
indexed flat marginals.  Nothing in the package called them afterwards.
Their bodies close the module, unchanged (`norm2` one function for both
state types, and `record_weights` a function of the engine, `self`), and
the bodies above that called them call these.

Where a body here called an engine accessor the engines no longer have, it
reads what that accessor read: the mapping `stage_unitaries[stage]`, or a
measurement's target factors `MEASURED[var]` and outcome vectors
`outcome_vectors(var, protocol.flip_ok_sign)`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import NamedTuple

import numpy as np

from ewflab.bellbohm import (
    CONFIG_AXES,
    READY_CONFIG,
    MemoryConfig,
    Trajectory,
    UnreachableConfigError,
    config_weights,
)
from ewflab.born import JOINT_CELLS, JOINT_VARIABLES
from ewflab.exact import (
    DIGITS,
    MEASURED,
    OUTCOME_LABELS,
    RECORDED_VAR,
    STAGES,
    STRIDES,
    ZERO,
    Engine,
    RecordMask,
    SparseState,
    Surd,
    _mul4,
    _record_index,
    _square4,
    _times_code,
    halves,
    outcome_vectors,
    projector_columns,
    record_mask,
)
from ewflab.facts import ZeroBranchError
from ewflab.histories import (
    ConsistencyReport,
    History,
    HistoryEvent,
    PairVerdict,
)
from ewflab.linalg import (
    ATOL,
    CONSISTENCY_ATOL,
    NORM_ATOL,
    ZERO_WEIGHT_FLOOR,
    Projector,
    SpaceDescriptor,
    SpaceMismatchError,
    StateVector,
    inner,
    lifted_projector,
)
from ewflab.protocol import (
    DIM,
    AgentId,
    DYNAMIC_STAGES,
    DOWN,
    FAIL,
    GLOBAL_SPACE,
    HEAD,
    MINUS,
    OK,
    PLUS,
    RECORDERS,
    REST,
    TAIL,
    UP,
    Protocol,
    StageId,
    StageUnitary,
)

#: orthonormality of a whole decomposition, whose Gram entries sum 324 products
DECOMPOSITION_ATOL = 10 * ATOL


# -- spaces and state vectors ---------------------------------------------------


def concat(self: SpaceDescriptor, other: SpaceDescriptor) -> SpaceDescriptor:
    return SpaceDescriptor(self.factors + other.factors)


def labels_at(self: SpaceDescriptor, index: int) -> tuple[str, ...]:
    """Inverse of index_of."""
    digits = []
    for dim in reversed(self.dims):
        digits.append(index % dim)
        index //= dim
    return tuple(f.labels[d] for f, d in zip(self.factors, reversed(digits)))


def nonzero_terms(self: StateVector, tol: float = ATOL) -> list[tuple[tuple[str, ...], complex]]:
    """Basis expansion, dropping amplitudes below tol. Deterministic order."""
    out = []
    for i in np.flatnonzero(np.abs(self.amps) > tol):
        out.append((labels_at(self.space, int(i)), complex(self.amps[i])))
    return out


def zero_state(space: SpaceDescriptor) -> StateVector:
    return StateVector(space, np.zeros(space.size, dtype=np.complex128))


def basis_state(space: SpaceDescriptor, labels: tuple[str, ...]) -> StateVector:
    amps = np.zeros(space.size, dtype=np.complex128)
    amps[space.index_of(labels)] = 1.0
    return StateVector(space, amps)


def from_terms(space: SpaceDescriptor, terms: dict[tuple[str, ...], complex]) -> StateVector:
    amps = np.zeros(space.size, dtype=np.complex128)
    for labels, coeff in terms.items():
        amps[space.index_of(labels)] += coeff
    return StateVector(space, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; result space is the concatenation of the input spaces."""
    return StateVector(concat(a.space, b.space), np.kron(a.amps, b.amps))


def outcome_state(protocol: Protocol, var: str, label: str) -> StateVector:
    """One outcome vector of var's measurement as a StateVector on its target factors.

    The vector spanning `basis(protocol, var)`'s branch `label`.
    """
    (vector,) = basis(protocol, var).projector(label).vectors
    return vector


def apply_on_axes(
    amps: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...], mat: np.ndarray
) -> np.ndarray:
    """Apply an operator on the given tensor factors of a flat amplitude array.

    `mat` is a square matrix over the product of the target dims, with its
    row/column index in the same mixed-radix convention (axes in the given
    order, which must be ascending to match the global layout).
    """
    k = len(axes)
    target_dims = [dims[a] for a in axes]
    t = amps.reshape(dims)
    mat_t = mat.reshape(target_dims + target_dims)
    t = np.tensordot(mat_t, t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(t, list(range(k)), list(axes)).reshape(-1)


# -- spanning-set projectors ----------------------------------------------------


def project(p: Projector, v: StateVector) -> StateVector:
    """Unnormalized projection of v onto p's range."""
    if p.space != v.space:
        raise SpaceMismatchError("projector and state on different spaces")
    overlaps = p.span_matrix.conj() @ v.amps
    return StateVector(p.space, p.span_matrix.T @ overlaps)


def weight(p: Projector, v: StateVector) -> float:
    """Squared norm of the projection: the Born probability of p in v."""
    if p.space != v.space:
        raise SpaceMismatchError("projector and state on different spaces")
    overlaps = p.span_matrix.conj() @ v.amps
    return float(np.real(np.vdot(overlaps, overlaps)))


@dataclass(frozen=True, eq=False)
class ProjectiveDecomposition:
    """Labeled family of orthogonal projectors that resolves the identity."""

    space: SpaceDescriptor
    branches: tuple[tuple[str, Projector], ...]

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.branches]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate branch labels")
        vecs = [v.amps for _, p in self.branches for v in p.vectors]
        if len(vecs) != self.space.size:
            raise ValueError(
                f"decomposition is not complete: total rank {len(vecs)} != dim {self.space.size}"
            )
        mat = np.stack(vecs)
        if not np.allclose(mat @ mat.conj().T, np.eye(len(vecs)), atol=DECOMPOSITION_ATOL):
            raise ValueError("branches are not mutually orthogonal within tolerance")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.branches)

    def projector(self, label: str) -> Projector:
        for branch_label, p in self.branches:
            if branch_label == label:
                return p
        raise KeyError(f"no branch labeled {label!r}")


def _two_outcome_basis(
    space: SpaceDescriptor, ok_vec: dict[tuple[str, str], complex], fail_vec: dict[tuple[str, str], complex]
) -> ProjectiveDecomposition:
    """ok/fail rank-1 branches plus the rank-4 residual on a 2x3 or 3x2 factor."""

    def vec(terms: dict[tuple[str, str], complex]) -> np.ndarray:
        amps = np.zeros(space.size, dtype=np.complex128)
        for labels, c in terms.items():
            amps[space.index_of(labels)] = c
        return amps

    ok_amps, fail_amps = vec(ok_vec), vec(fail_vec)
    span = np.stack([ok_amps, fail_amps])
    rest = []
    for i in range(space.size):
        e = np.zeros(space.size, dtype=np.complex128)
        e[i] = 1.0
        resid = e - span.T @ (span.conj() @ e)
        n = np.linalg.norm(resid)
        if n > 0.5:  # basis vectors are either inside the span or orthogonal to it
            rest.append(resid / n)
    sv = lambda a: StateVector(space, a)
    return ProjectiveDecomposition(
        space,
        (
            (OK, Projector(space, (sv(ok_amps),))),
            (FAIL, Projector(space, (sv(fail_amps),))),
            (REST, Projector(space, tuple(sv(r) for r in rest))),
        ),
    )


def basis(protocol: Protocol, var: str) -> ProjectiveDecomposition:
    """The spanning-set decomposition of var's measurement on its target factors `MEASURED[var]`."""
    s = 1.0 / math.sqrt(2.0)
    if var == "r":
        space = GLOBAL_SPACE.subspace(("C",))
        branches = tuple(
            (label, Projector(space, (basis_state(space, (label,)),))) for label in (HEAD, TAIL)
        )
        return ProjectiveDecomposition(space, branches)
    if var == "z":
        space = GLOBAL_SPACE.subspace(("S",))
        branches = (
            (PLUS, Projector(space, (basis_state(space, (UP,)),))),
            (MINUS, Projector(space, (basis_state(space, (DOWN,)),))),
        )
        return ProjectiveDecomposition(space, branches)
    if var == "w1":
        space = GLOBAL_SPACE.subspace(("C", "F1"))
        sign = -1.0 if protocol.flip_ok_sign else 1.0
        return _two_outcome_basis(
            space,
            {(HEAD, HEAD): sign * s, (TAIL, TAIL): -sign * s},
            {(HEAD, HEAD): s, (TAIL, TAIL): s},
        )
    if var == "w2":
        space = GLOBAL_SPACE.subspace(("S", "F2"))
        return _two_outcome_basis(
            space,
            {(DOWN, MINUS): s, (UP, PLUS): -s},
            {(DOWN, MINUS): s, (UP, PLUS): s},
        )
    raise KeyError(f"unknown outcome variable {var!r}")


def measurement_projector(protocol: Protocol, var: str, label: str) -> Projector:
    """One branch of `basis(protocol, var)`, lifted to the global space."""
    vecs = [v.amps for v in basis(protocol, var).projector(label).vectors]
    return lifted_projector(GLOBAL_SPACE, _target_axes(var), vecs)


def _target_axes(var: str) -> tuple[int, ...]:
    """The global axes of var's measured factors, ascending."""
    return tuple(GLOBAL_SPACE.axis(t) for t in MEASURED[var])


def outcome_weight(protocol: Engine, state, events: list[tuple[str, str]]):
    """Born weight of the conjunction of (var, label) outcomes on disjoint targets, read by projectors.

    The path the facts took before they read history probabilities: each
    outcome's factor projector applied to `state` in turn.  A dense state
    is projected by the spanning sets of `measurement_projector`, an exact
    one by the sparse columns of `exact.projector_columns`.
    """
    for var, label in events:
        if isinstance(state, StateVector):
            state = project(measurement_projector(protocol, var, label), state)
        else:
            columns = projector_columns(MEASURED[var], outcome_vectors(var, protocol.flip_ok_sign))
            state = state.apply(_target_axes(var), columns[label], halves(columns[label]))
    return norm2(state)


def config_projector(m: MemoryConfig) -> Projector:
    """Projector onto the four memory labels, identity on coin and spin."""
    factor = np.zeros(81, dtype=np.complex128)
    factor[GLOBAL_SPACE.subspace(("F1", "F2", "W1", "W2")).index_of(m)] = 1.0
    return lifted_projector(GLOBAL_SPACE, CONFIG_AXES, [factor])


# -- stage maps built from the spanning sets --------------------------------------


def _memory_swap(agent: AgentId, label: str) -> np.ndarray:
    """3x3 permutation exchanging the ready state with the given memory label."""
    labels = GLOBAL_SPACE.factors[agent.memory_axis].labels
    v = np.eye(3, dtype=np.complex128)
    k = labels.index(label)
    v[[0, k]] = v[[k, 0]]
    return v


def preparation_matrix(protocol: Protocol) -> np.ndarray:
    """The spin preparation controlled on F1's memory, as the float build wrote it.

    The head component leaves the spin down; the tail component rotates
    down into the equal superposition (up + down)/sqrt(2).
    """
    s = 1.0 / math.sqrt(2.0)
    rot = np.array([[s, s], [-s, s]], dtype=np.complex128)  # columns: up -> (up-down)/sqrt2, down -> (up+down)/sqrt2
    if protocol.corrupt_preparation:
        rot = np.array([[s, s], [s, -s]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    mat = np.zeros((6, 6), dtype=np.complex128)
    for k, u in enumerate((eye, eye, rot)):  # F1 = 0, head, tail
        e = np.zeros((3, 3), dtype=np.complex128)
        e[k, k] = 1.0
        mat += np.kron(e, u)
    return mat


def factor_matrices(decomposition: ProjectiveDecomposition) -> dict[str, np.ndarray]:
    """Projector matrix of each branch, summed from its spanning vectors."""
    mats = {}
    for label, p in decomposition.branches:
        mat = np.zeros((p.space.size, p.space.size), dtype=np.complex128)
        for v in p.vectors:
            mat += np.outer(v.amps, v.amps.conj())
        mats[label] = mat
    return mats


def record_matrix(protocol: Protocol, var: str) -> np.ndarray:
    """The recording stage matrix of var, built from `basis(protocol, var)`."""
    agent = RECORDERS[var][0]
    decomposition = basis(protocol, var)
    mat = np.zeros((decomposition.space.size * 3,) * 2, dtype=np.complex128)
    for label, p in factor_matrices(decomposition).items():
        if label == REST:
            v = np.eye(3, dtype=np.complex128)
        else:
            v = _memory_swap(agent, label)
        mat += np.kron(p, v)
    return mat


def global_matrix(self: StageUnitary) -> np.ndarray:
    """Dense 324x324 matrix, built column by column."""
    cols = np.zeros((DIM, DIM), dtype=np.complex128)
    eye = np.eye(DIM, dtype=np.complex128)
    for j in range(DIM):
        cols[:, j] = apply_on_axes(eye[:, j], GLOBAL_SPACE.dims, self.axes, self.matrix)
    return cols


def pilot_state_with_order(self: Protocol, order: tuple[StageId, ...]) -> StateVector:
    """Pilot state after running the dynamic stages in a custom order."""
    state = self.initial_state()
    for s in order:
        state = self.stage_unitaries[s].linear(state)
    return state


def kernel_row(
    m: MemoryConfig,
    weights_before: dict[MemoryConfig, float],
    weights_after: dict[MemoryConfig, float],
    rewritten_axes: tuple[int, ...],
) -> dict[MemoryConfig, float]:
    """One row of a stage's beable kernel, its children built anew (the former `bellbohm._kernel_row`)."""
    if weights_before.get(m, 0.0) < ZERO_WEIGHT_FLOOR:
        raise UnreachableConfigError(f"config {m.render()} has zero weight before this stage")
    free = [i for i, axis in enumerate(CONFIG_AXES) if axis in rewritten_axes]
    if not free:
        return {m: 1.0}
    labelsets = [GLOBAL_SPACE.factors[CONFIG_AXES[i]].labels for i in free]
    children = []
    for combo in product(*labelsets):
        labels = list(m)
        for pos, label in zip(free, combo):
            labels[pos] = label
        children.append(MemoryConfig(*labels))
    denom = sum(weights_after[c] for c in children)
    if denom < ZERO_WEIGHT_FLOOR:
        raise UnreachableConfigError(
            f"config {m.render()}: untouched registers have zero weight after the stage"
        )
    return {c: weights_after[c] / denom for c in children if weights_after[c] > 0.0}


# -- direct history chains and the pairwise consistency report -------------------


def chain_vector(protocol: Protocol, events: tuple[HistoryEvent, ...]) -> StateVector:
    """P_n U_n ... P_1 U_1 |initial>, unnormalized."""
    by_stage: dict[StageId, list[HistoryEvent]] = {}
    for e in events:
        by_stage.setdefault(e.stage, []).append(e)
    state = protocol.initial_state()
    for e in by_stage.get(StageId.PREP_MINUS1, []):
        state = state.masked(e.mask)
    for stage in DYNAMIC_STAGES:
        state = protocol.stage_unitaries[stage].linear(state)
        for e in by_stage.get(stage, []):
            state = state.masked(e.mask)
    return state


def fine_chains(protocol: Protocol, h: History, union_stages: tuple[StageId, ...]) -> list[tuple[tuple, StateVector]]:
    """Refine h over union stages it does not mention; return (path, chain vector) per leaf, zero or not.

    A slot is h's own event mask at each of its stages, and the recorder's record mask of every label of its
    memory, in label order, at every other union stage.  A path names a leaf by the (stage index, mask) of
    each slot, and each leaf is its own `chain_vector`, evolved to the end: no prefix is shared with the
    package's walk.
    """
    own = {e.stage: e.mask for e in h.events}
    slots = []
    for stage in union_stages:
        if stage in own:
            masks = [own[stage]]
        else:
            axis = RECORDERS[RECORDED_VAR[stage]][0].memory_axis
            masks = [RecordMask(axis, i) for i in range(GLOBAL_SPACE.dims[axis])]
        slots.append([HistoryEvent(stage, mask, "") for mask in masks])
    return [(tuple((STAGES.index(e.stage), e.mask) for e in events), chain_vector(protocol, events))
            for events in product(*slots)]


def chain_consistency_report(protocol: Protocol, family: list[History]) -> ConsistencyReport:
    """Decoherence diagnostics for a family of histories.

    A pair fails when the refined chain vectors of one history interfere with
    the other's (off-diagonal magnitude above threshold), when the two share a
    fine-grained outcome (the histories are not exclusive alternatives), or
    when either member's probability is not additive over its refinement.
    On the exact engine every number is exact and the threshold is zero.
    """
    if isinstance(protocol.initial_state(), SparseState):
        product, negligible = SparseState.inner, operator.not_
    else:
        product, negligible = inner, CONSISTENCY_ATOL.__ge__
    names = [h.name for h in family]
    if len(set(names)) != len(names):
        raise ValueError("family members need distinct names")
    union_stages = tuple(
        sorted({e.stage for h in family for e in h.events}, key=lambda s: s.value)
    )
    fine = {h.name: fine_chains(protocol, h, union_stages) for h in family}
    direct = {h.name: chain_vector(protocol, h.events) for h in family}

    probability = {h.name: norm2(direct[h.name]) for h in family}
    additivity = {h.name: abs(probability[h.name] - sum(norm2(v) for _, v in fine[h.name])) for h in family}

    pairs: list[PairVerdict] = []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            a, b = family[i], family[j]
            off = abs(product(direct[a.name], direct[b.name]))
            cross = 0.0
            shared = False
            for key_a, va in fine[a.name]:
                for key_b, vb in fine[b.name]:
                    if key_a == key_b:
                        shared = True
                        continue
                    cross = max(cross, abs(product(va, vb)))
            ok = (
                negligible(off)
                and negligible(cross)
                and not shared
                and negligible(additivity[a.name])
                and negligible(additivity[b.name])
            )
            pairs.append(PairVerdict(a.name, b.name, off, cross, shared, ok))
    return ConsistencyReport(tuple(names), union_stages, probability, additivity, tuple(pairs))


# -- per-branch joints and beable chain -------------------------------------------


def sequential_joint(protocol: Engine) -> dict[tuple[str, ...], float]:
    """Stage walk with projection, renormalization, and record expiry."""
    # branch: (outcome labels so far, active conditions, probability)
    branches: list[tuple[tuple[str, ...], tuple[tuple[str, str], ...], float]] = [((), (), 1.0)]
    for stage in DYNAMIC_STAGES:
        rewritten = protocol.stage_unitaries[stage].rewritten_memory_axes
        var = RECORDED_VAR.get(stage)
        state = protocol.pilot_state_after(stage)
        weights_given: dict[tuple[str, ...], dict] = {}  # record weights by conditioning variables
        next_branches = []
        for outcomes, conds, prob in branches:
            conds = tuple(
                (v, l) for v, l in conds if RECORDERS[v][0].memory_axis not in rewritten
            )
            if var is None:
                next_branches.append((outcomes, conds, prob))
                continue
            cond_vars = tuple(v for v, _ in conds)
            if cond_vars not in weights_given:
                weights_given[cond_vars] = record_weights(protocol, state, cond_vars + (var,))
            weights = weights_given[cond_vars]
            cond_labels = tuple(l for _, l in conds)
            mass = sum(weights[cond_labels + (l,)] for l in OUTCOME_LABELS[var])
            for label in OUTCOME_LABELS[var]:
                if prob < ZERO_WEIGHT_FLOOR or mass < ZERO_WEIGHT_FLOOR:
                    p_label = 0.0
                else:
                    p_label = weights[cond_labels + (label,)] / mass
                next_branches.append(
                    (outcomes + (label,), conds + ((var, label),), prob * p_label)
                )
        branches = next_branches
    return {outcomes: prob for outcomes, _, prob in branches}


def marginal_joint(protocol: Engine) -> dict[tuple[str, ...], float]:
    """Record-configuration weights read off pilot states, no renormalization.

    Consecutive outcome variables are read jointly at the later one's
    recording stage (where the earlier record is still intact); the joint is
    the product of the resulting weight ratios.  The (w1, w2) factor is read
    directly from the final pilot state.
    """
    pair_weights: list[dict[tuple[str, ...], float]] = []
    for earlier, later in zip(JOINT_VARIABLES, JOINT_VARIABLES[1:]):
        stage = RECORDERS[later][1]
        state = protocol.pilot_state_after(stage)
        pair_weights.append(record_weights(protocol, state, (earlier, later)))
    first_var = JOINT_VARIABLES[0]
    first = record_weights(
        protocol, protocol.pilot_state_after(RECORDERS[JOINT_VARIABLES[1]][1]), (first_var,)
    )
    joint: dict[tuple[str, ...], float] = {}
    for cell in JOINT_CELLS:
        p = first[(cell[0],)]
        for i, weights in enumerate(pair_weights):
            denom = sum(weights[(cell[i], l)] for l in OUTCOME_LABELS[JOINT_VARIABLES[i + 1]])
            if denom < ZERO_WEIGHT_FLOOR or p < ZERO_WEIGHT_FLOOR:
                p = p * 0  # the zero of p's number type, exact on the exact engine
                break
            p *= weights[(cell[i], cell[i + 1])] / denom
        joint[cell] = p
    return joint


def exact_chain(protocol: Engine) -> TrajectoryTable:
    """Enumerate every trajectory with positive probability, no sampling."""
    epoch_weights = [config_weights(protocol.pilot_state_after(s)) for s in STAGES]
    start_weight = epoch_weights[0].get(READY_CONFIG, 0.0)
    if abs(start_weight - 1.0) > NORM_ATOL:
        raise ValueError("initial pilot state does not put all memories in the ready state")
    partial: list[tuple[tuple[MemoryConfig, ...], float]] = [((READY_CONFIG,), 1.0)]
    for i, stage in enumerate(DYNAMIC_STAGES, start=1):
        rewritten = protocol.stage_unitaries[stage].rewritten_memory_axes
        nxt: list[tuple[tuple[MemoryConfig, ...], float]] = []
        for configs, prob in partial:
            row = _kernel_row(configs[-1], epoch_weights[i - 1], epoch_weights[i], rewritten)
            for child, p in row.items():
                joint = prob * p
                if joint > ZERO_WEIGHT_FLOOR:
                    nxt.append((configs + (child,), joint))
        partial = nxt
    entries = tuple(Trajectory(configs, prob) for configs, prob in partial)
    return TrajectoryTable(entries, tuple(epoch_weights))


class TrajectoryTable(NamedTuple):
    """The table's fields as `exact_chain` set them before it carried config offsets."""

    entries: tuple[Trajectory, ...]
    epoch_weights: tuple[dict[MemoryConfig, float], ...]


@cache
def _children(m: MemoryConfig, rewritten_axes: tuple[int, ...]) -> tuple[MemoryConfig, ...] | None:
    """The configs m can move to at a stage rewriting `rewritten_axes`, or None if it rewrites none.

    They do not depend on the coin, so each (config, stage) is worked out once per process.
    """
    free = [i for i, axis in enumerate(CONFIG_AXES) if axis in rewritten_axes]
    if not free:
        return None
    children = []
    for combo in product(*(GLOBAL_SPACE.factors[CONFIG_AXES[i]].labels for i in free)):
        labels = list(m)
        for pos, label in zip(free, combo):
            labels[pos] = label
        children.append(MemoryConfig(*labels))
    return tuple(children)


def _kernel_row(
    m: MemoryConfig,
    weights_before: dict[MemoryConfig, float],
    weights_after: dict[MemoryConfig, float],
    rewritten_axes: tuple[int, ...],
) -> dict[MemoryConfig, float]:
    if weights_before.get(m, 0.0) < ZERO_WEIGHT_FLOOR:
        raise UnreachableConfigError(f"config {m.render()} has zero weight before this stage")
    children = _children(m, rewritten_axes)
    if children is None:
        return {m: 1.0}
    denom = sum(weights_after[c] for c in children)
    if denom < ZERO_WEIGHT_FLOOR:
        raise UnreachableConfigError(
            f"config {m.render()}: untouched registers have zero weight after the stage"
        )
    return {c: weights_after[c] / denom for c in children if weights_after[c] > 0.0}


# -- conditioning by a renormalised branch ------------------------------------------


def scaled(self: SparseState, x: Surd) -> SparseState:
    return SparseState({i: _mul4(v, x.coords) for i, v in self.nums.items()}, self.den * x.q)


def normalized(self):
    """The former `normalized` of both state types: `StateVector`'s, else `SparseState`'s."""
    if isinstance(self, StateVector):
        return StateVector(self.space, self.amps / norm(self))
    return scaled(self, norm2(self).sqrt().inverse())


def branch_state(protocol: Engine, coin: str, stage: StageId):
    """Pilot state conditioned on the coin record reading `coin`, renormalized."""
    branch = protocol.pilot_state_after(stage).masked(record_mask("r", coin))
    if math.sqrt(float(norm2(branch))) < ATOL:
        raise ZeroBranchError(f"{coin} branch has zero weight")
    return normalized(branch)


# -- marginals as dicts, and halving read off the columns ------------------------------


def marginal(self, axes: tuple[int, ...]) -> dict:
    """The former `marginal` of both state types: `StateVector`'s, else `SparseState`'s."""
    if isinstance(self, StateVector):
        probs = (np.abs(self.amps) ** 2).reshape(GLOBAL_SPACE.dims)
        marg = probs.sum(axis=tuple(i for i in range(len(GLOBAL_SPACE.dims)) if i not in axes))
        return dict(zip(product(*map(range, marg.shape)), marg.ravel().tolist()))
    acc: dict[tuple[int, ...], list[int]] = {}
    for i, x in self.nums.items():
        key = tuple(DIGITS[i][a] for a in axes)
        w = acc.setdefault(key, [0, 0, 0, 0])
        for k, c in enumerate(_square4(x)):
            w[k] += c
    den2 = self.den * self.den
    return {
        key: Surd(*acc[key], den2) if key in acc else ZERO
        for key in product(*(range(GLOBAL_SPACE.dims[a]) for a in axes))
    }


def sparse_apply(self: SparseState, axes: tuple[int, ...], columns) -> SparseState:
    """The sparse columns on `axes` applied; a missing column maps to zero."""
    dims = [GLOBAL_SPACE.dims[a] for a in axes]
    local_strides = tuple(math.prod(dims[k + 1 :]) for k in range(len(axes)))
    offset = tuple(sum(digit * STRIDES[a] for digit, a in zip(digits, axes)) for digits in product(*map(range, dims)))
    halved = any(k for col in columns.values() for _, _, k in col)
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


# -- norms and record weights -----------------------------------------------------


def norm(self: StateVector) -> float:
    return float(np.linalg.norm(self.amps))


def norm2(self):
    """The former `norm2` of both state types: `StateVector`'s, else `SparseState`'s."""
    if isinstance(self, StateVector):
        return norm(self) ** 2
    acc = [0, 0, 0, 0]
    for x in self.nums.values():
        for k, c in enumerate(_square4(x)):
            acc[k] += c
    return Surd(*acc, self.den * self.den)


def record_weights(self: Engine, state, vars: tuple[str, ...]) -> dict[tuple[str, ...], object]:
    """Joint Born weights of memory labels for the given outcome variables.

    Label tuples run over the declared outcome labels only; the ready
    label 0 is excluded (callers read records after they are written).
    """
    axes, keys = _record_index(vars)
    marg = state.marginal(axes)
    return {labels: marg[offset] for labels, offset in keys}
