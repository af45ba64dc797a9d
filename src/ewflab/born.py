"""Outcome statistics extracted from pilot states.

Two extraction policies are supported and must agree:

  * SEQUENTIAL_PROJECTION walks the stages in order, projecting the pilot
    state onto each new record and renormalizing, chaining conditional
    probabilities.  A record conditions later outcomes only while its memory
    register is untouched; once a later stage unitary rewrites that register
    (the para-experimenters' measurements do), the condition expires.
  * NO_COLLAPSE_MARGINAL never renormalizes: it reads squared amplitudes of
    record configurations straight off the pilot states, taking each record
    at the last epoch where its register is still intact, and assembles the
    joint from ratios of those weights.

Both reproduce the same joint distribution; in particular the (w1, w2)
marginal equals the final pilot state's record weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import (
    CERTAINTY_ATOL,
    NORM_ATOL,
    SUM_ATOL,
    ZERO_WEIGHT_FLOOR,
    StateVector,
    apply_on_axes,
    rational_label,
)
from .protocol import (
    DYNAMIC_STAGES,
    GLOBAL_SPACE,
    OUTCOME_LABELS,
    RECORDERS,
    REST,
    MeasurementSpec,
    Protocol,
    StageId,
)


class UndefinedConditionalError(ValueError):
    """Conditioning event has (numerically) zero probability."""


class CollapsePolicy(enum.Enum):
    SEQUENTIAL_PROJECTION = "collapse"
    NO_COLLAPSE_MARGINAL = "marginal"


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities over tuples of outcome labels for named variables."""

    variables: tuple[str, ...]
    outcomes: tuple[tuple[tuple[str, ...], float], ...]

    def __post_init__(self) -> None:
        total = 0.0
        for labels, p in self.outcomes:
            if len(labels) != len(self.variables):
                raise ValueError("label tuple arity does not match variables")
            if p < -CERTAINTY_ATOL:
                raise ValueError(f"negative probability {p} for {labels}")
            total += p
        if abs(total - 1.0) > SUM_ATOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def prob(self, labels: tuple[str, ...]) -> float:
        for ls, p in self.outcomes:
            if ls == labels:
                return p
        raise KeyError(labels)

    def as_dict(self) -> dict[tuple[str, ...], float]:
        return {ls: p for ls, p in self.outcomes}

    def marginal(self, variables: tuple[str, ...]) -> "Distribution":
        idx = [self.variables.index(v) for v in variables]
        acc: dict[tuple[str, ...], float] = {}
        for labels, p in self.outcomes:
            key = tuple(labels[i] for i in idx)
            acc[key] = acc.get(key, 0.0) + p
        return Distribution(variables, tuple(acc.items()))

    def conditional(self, given: dict[str, str]) -> "Distribution":
        """Distribution over the remaining variables given fixed labels.

        Conditioning on an event of zero probability is undefined, not zero;
        this protocol's argument pivots on impossibility claims, so a silent
        0/0 here would mask them.
        """
        keep = tuple(v for v in self.variables if v not in given)
        mass = 0.0
        acc: dict[tuple[str, ...], float] = {}
        for labels, p in self.outcomes:
            bound = dict(zip(self.variables, labels))
            if all(bound[v] == l for v, l in given.items()):
                key = tuple(bound[v] for v in keep)
                acc[key] = acc.get(key, 0.0) + p
                mass += p
        if mass < ZERO_WEIGHT_FLOOR:
            raise UndefinedConditionalError(f"conditioning event {given} has probability {mass}")
        return Distribution(keep, tuple((k, v / mass) for k, v in acc.items()))

    # -- rendering ---------------------------------------------------------

    def render_text(self) -> str:
        header = "(" + ", ".join(self.variables) + ")"
        lines = [f"{header:<30} {'probability':<18} exact"]
        for labels, p in self.outcomes:
            cell = "(" + ", ".join(labels) + ")"
            exact = rational_label(p) or "-"
            lines.append(f"{cell:<30} {p:<18.12g} {exact}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "variables": list(self.variables),
            "outcomes": [
                {
                    "labels": list(labels),
                    "probability": p,
                    "exact": rational_label(p),
                }
                for labels, p in self.outcomes
            ],
        }


class Certainty(enum.Enum):
    CERTAIN = "certain"
    IMPOSSIBLE = "impossible"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True)
class CertaintyResult:
    kind: Certainty
    probability: float

    @staticmethod
    def from_probability(p: float) -> "CertaintyResult":
        if abs(p - 1.0) <= CERTAINTY_ATOL:
            return CertaintyResult(Certainty.CERTAIN, p)
        if p <= CERTAINTY_ATOL:
            return CertaintyResult(Certainty.IMPOSSIBLE, p)
        return CertaintyResult(Certainty.UNCERTAIN, p)


def joint_weight(state: StateVector, events: list[tuple[MeasurementSpec, str]]) -> float:
    """Squared norm of the state after each event's factor projector in turn.

    The events' targets must be disjoint, so the projectors commute and the
    result is the Born weight of their conjunction.
    """
    amps = state.amps
    seen: set[int] = set()
    for spec, label in events:
        overlap = seen.intersection(spec.target_axes)
        if overlap:
            raise ValueError(f"conjunction targets overlap on axes {sorted(overlap)}")
        seen.update(spec.target_axes)
        amps = apply_on_axes(amps, GLOBAL_SPACE.dims, spec.target_axes, spec.factor_matrices[label])
    return float(np.vdot(amps, amps).real)


def outcome_distribution(state: StateVector, spec: MeasurementSpec) -> Distribution:
    """Born probabilities of one measurement's declared outcomes on a state."""
    state.require_normalized(NORM_ATOL)
    if REST in spec.factor_matrices:
        stray = joint_weight(state, [(spec, REST)])
        if stray > SUM_ATOL:
            raise ValueError(
                f"state carries weight {stray:.3e} outside measurement {spec.name!r}'s outcome span"
            )
    outcomes = tuple(
        ((label,), joint_weight(state, [(spec, label)])) for label in spec.outcome_labels
    )
    return Distribution((spec.name,), outcomes)


def certainty_check(state: StateVector, spec: MeasurementSpec, label: str) -> CertaintyResult:
    """Would an agent measuring spec on this state be certain of label?"""
    state.require_normalized(NORM_ATOL)
    return CertaintyResult.from_probability(joint_weight(state, [(spec, label)]))


def joint_certainty_check(
    state: StateVector, events: list[tuple[MeasurementSpec, str]]
) -> CertaintyResult:
    """Certainty status of a conjunction of outcomes on disjoint targets."""
    state.require_normalized(NORM_ATOL)
    return CertaintyResult.from_probability(joint_weight(state, events))


# -- the joint distribution over (r, z, w1, w2) -----------------------------

JOINT_VARIABLES: tuple[str, ...] = ("r", "z", "w1", "w2")


def _all_cells() -> list[tuple[str, ...]]:
    return [tuple(cell) for cell in product(*(OUTCOME_LABELS[v] for v in JOINT_VARIABLES))]


def _sequential_joint(protocol: Protocol) -> dict[tuple[str, ...], float]:
    """Stage walk with projection, renormalization, and record expiry."""
    measured_at = {stage: var for var, (_, stage) in RECORDERS.items()}
    # branch: (outcome labels so far, active conditions, probability)
    branches: list[tuple[tuple[str, ...], tuple[tuple[str, str], ...], float]] = [((), (), 1.0)]
    for stage in DYNAMIC_STAGES:
        rewritten = protocol.stage_unitary(stage).rewritten_memory_axes
        var = measured_at.get(stage)
        state = protocol.pilot_state_after(stage)
        next_branches = []
        for outcomes, conds, prob in branches:
            conds = tuple(
                (v, l) for v, l in conds if RECORDERS[v][0].memory_axis not in rewritten
            )
            if var is None:
                next_branches.append((outcomes, conds, prob))
                continue
            cond_vars = tuple(v for v, _ in conds)
            weights = protocol.record_weights(state, cond_vars + (var,))
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


def _marginal_joint(protocol: Protocol) -> dict[tuple[str, ...], float]:
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
        pair_weights.append(protocol.record_weights(state, (earlier, later)))
    first_var = JOINT_VARIABLES[0]
    first = protocol.record_weights(
        protocol.pilot_state_after(RECORDERS[JOINT_VARIABLES[1]][1]), (first_var,)
    )
    joint: dict[tuple[str, ...], float] = {}
    for cell in _all_cells():
        p = first[(cell[0],)]
        for i, weights in enumerate(pair_weights):
            denom = sum(weights[(cell[i], l)] for l in OUTCOME_LABELS[JOINT_VARIABLES[i + 1]])
            if denom < ZERO_WEIGHT_FLOOR or p < ZERO_WEIGHT_FLOOR:
                p = 0.0
                break
            p *= weights[(cell[i], cell[i + 1])] / denom
        joint[cell] = p
    return joint


def joint_distribution(
    protocol: Protocol, policy: CollapsePolicy = CollapsePolicy.SEQUENTIAL_PROJECTION
) -> Distribution:
    """Full joint over (r, z, w1, w2), all 16 cells, zeros included."""
    if policy is CollapsePolicy.SEQUENTIAL_PROJECTION:
        table = _sequential_joint(protocol)
    else:
        table = _marginal_joint(protocol)
    outcomes = tuple((cell, table.get(cell, 0.0)) for cell in _all_cells())
    return Distribution(JOINT_VARIABLES, outcomes)


def final_record_marginal(protocol: Protocol) -> Distribution:
    """(w1, w2) weights of the final pilot state, the headline quantity."""
    weights = protocol.record_weights(protocol.pilot_state_after(StageId.MEAS4), ("w1", "w2"))
    cells = [tuple(c) for c in product(OUTCOME_LABELS["w1"], OUTCOME_LABELS["w2"])]
    return Distribution(("w1", "w2"), tuple((c, weights[c]) for c in cells))
