"""The spanning-set path, kept as an oracle for the tests.

Before measurements carried their outcome vectors, every basis was a
`ProjectiveDecomposition` of explicit orthonormal `StateVector`s, and
projectors, tensor products and dense stage matrices were built from
spanning sets.  The package no longer uses any of it; the bodies below are
the package's own, moved here unchanged, so the tests can compare today's
factor-matrix path against them.  A former method is a function here whose
first argument keeps the name `self`.  `basis(protocol, var)` rebuilds the
decomposition each `MeasurementSpec` was built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ewflab.bellbohm import CONFIG_AXES, MemoryConfig
from ewflab.linalg import (
    ATOL,
    Projector,
    SpaceDescriptor,
    SpaceMismatchError,
    StateVector,
    apply_on_axes,
    lifted_projector,
)
from ewflab.protocol import (
    DIM,
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
    MeasurementSpec,
    Protocol,
    StageId,
    StageUnitary,
    _memory_swap,
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


def outcome_state(spec: MeasurementSpec, label: str) -> StateVector:
    """One outcome vector of spec as a StateVector on its target factors."""
    return StateVector(GLOBAL_SPACE.subspace(spec.targets), spec.vectors[label])


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
    """The spanning-set decomposition `protocol.measurement(var)` was built from."""
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
    return lifted_projector(GLOBAL_SPACE, protocol.measurement(var).target_axes, vecs)


def config_projector(m: MemoryConfig) -> Projector:
    """Projector onto the four memory labels, identity on coin and spin."""
    factor = np.zeros(81, dtype=np.complex128)
    factor[GLOBAL_SPACE.subspace(("F1", "F2", "W1", "W2")).index_of(m)] = 1.0
    return lifted_projector(GLOBAL_SPACE, CONFIG_AXES, [factor])


# -- stage maps built from the spanning sets --------------------------------------


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
