"""Dense complex linear algebra over small labeled tensor-product spaces.

Everything in this package runs on one 324-dimensional Hilbert space, so the
representation is deliberately naive: flat complex128 amplitude arrays indexed
in mixed radix over the subsystem dimensions.  An operator is a factor-local
matrix (`apply_on_axes`) or a 0/1 mask on the amplitudes; record weights come
from one |amps|^2 marginal (`protocol.memory_marginal`).  A `Projector` holds
an explicit orthonormal spanning set and is kept only as a test reference.
Every numeric tolerance is in the table below.  No sparsity, no density matrices.

All objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# -- tolerance table: every numeric tolerance in the package ------------------
# Probabilities here are exact small rationals and float error stays near
# 1e-16, so each bound only absorbs float error; they differ in what they bound.

#: norms and orthonormality of vectors, commutation of stage matrices, the
#: zero test of a branch norm, and `rational_label`'s distance to a fraction
ATOL = 1e-12
#: orthonormality of a whole decomposition, whose Gram entries sum 324 products
DECOMPOSITION_ATOL = 10 * ATOL
#: a state or coin is normalized (coins typed on the command line are rounded)
NORM_ATOL = 1e-9
#: a Born probability is certain or impossible; a distribution's negative allowance
CERTAINTY_ATOL = 1e-12
#: a distribution's total, and stray weight outside a measurement's outcomes
SUM_ATOL = 1e-11
#: a weight is zero: impossible joint branches, unreachable beable configs
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


class NotNormalizedError(ValueError):
    """Raised when a vector expected to be normalized is not."""


@dataclass(frozen=True)
class Factor:
    """One subsystem: a name and an ordered tuple of basis labels."""

    name: str
    labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"factor {self.name!r} has no basis label {label!r}") from None


@dataclass(frozen=True)
class SpaceDescriptor:
    """Ordered list of subsystem factors; fixes the mixed-radix basis indexing.

    Basis index of a label assignment (l_0, ..., l_{n-1}) is the row-major
    mixed-radix number with digit k equal to the position of l_k in factor k.
    """

    factors: tuple[Factor, ...]

    # cached_property writes the instance __dict__ directly, which a frozen
    # dataclass allows; every StateVector construction reads size
    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @functools.cached_property
    def size(self) -> int:
        return math.prod(self.dims)

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

    def labels_at(self, index: int) -> tuple[str, ...]:
        """Inverse of index_of."""
        digits = []
        for dim in reversed(self.dims):
            digits.append(index % dim)
            index //= dim
        return tuple(f.labels[d] for f, d in zip(self.factors, reversed(digits)))

    def subspace(self, names: tuple[str, ...]) -> "SpaceDescriptor":
        return SpaceDescriptor(tuple(self.factor(n) for n in names))

    def concat(self, other: "SpaceDescriptor") -> "SpaceDescriptor":
        return SpaceDescriptor(self.factors + other.factors)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Flat complex amplitude vector over a SpaceDescriptor's basis."""

    space: SpaceDescriptor
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        if amps.size != self.space.size:
            raise ValueError(f"amplitude count {amps.size} != space size {self.space.size}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def require_normalized(self, tol: float = ATOL) -> "StateVector":
        if abs(self.norm() - 1.0) > tol:
            raise NotNormalizedError(f"norm {self.norm()} not within {tol} of 1")
        return self

    def amplitude(self, labels: tuple[str, ...]) -> Amplitude:
        return complex(self.amps[self.space.index_of(labels)])

    def nonzero_terms(self, tol: float = ATOL) -> list[tuple[tuple[str, ...], Amplitude]]:
        """Basis expansion, dropping amplitudes below tol. Deterministic order."""
        out = []
        for i in np.flatnonzero(np.abs(self.amps) > tol):
            out.append((self.space.labels_at(int(i)), complex(self.amps[i])))
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
    return StateVector(a.space.concat(b.space), np.kron(a.amps, b.amps))


def inner(a: StateVector, b: StateVector) -> Amplitude:
    """<a|b>, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise SpaceMismatchError("inner product across different spaces")
    return complex(np.vdot(a.amps, b.amps))


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector given by an orthonormal spanning set."""

    space: SpaceDescriptor
    vectors: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if v.space != self.space:
                raise SpaceMismatchError("spanning vector on wrong space")
        if self.vectors:
            mat = self.span_matrix
            gram = mat @ mat.conj().T
            if not np.allclose(gram, np.eye(len(self.vectors)), atol=ATOL):
                raise ValueError("spanning vectors are not orthonormal within 1e-12")

    @functools.cached_property
    def span_matrix(self) -> np.ndarray:
        """Spanning vectors stacked as rows, shape (rank, dim)."""
        if not self.vectors:
            return np.zeros((0, self.space.size), dtype=np.complex128)
        return np.stack([v.amps for v in self.vectors])

    @property
    def rank(self) -> int:
        return len(self.vectors)


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
