"""History probabilities: chained projected evolution over the stage pipeline.

A history is an ordered list of (stage, record event) pairs; each record
event is a 0/1 mask on its recorder's memory axis (`protocol.record_mask`).
Its probability is the squared norm of the chain obtained by running the
stage unitaries in order and applying each event's mask right after its
stage.  Stages a history does not mention contribute plain unitary
evolution; there is no implicit identity-projector event, which is exactly
what makes a coarse history like "r = tail and w2 = ok" a different object
from the sum of its fine-grainings.

The consistency report makes that difference measurable: histories in a
family are refined over the union of the family's event stages using the
canonical record decompositions, and a family counts as jointly considerable
only when the refined chain vectors neither interfere across histories nor
break the additivity of any member's probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import CONSISTENCY_ATOL, StateVector, inner
from .protocol import (
    DYNAMIC_STAGES,
    GLOBAL_SPACE,
    OUTCOME_LABELS,
    RECORDERS,
    STAGES,
    Protocol,
    StageId,
    record_mask,
)


class EpochMismatchError(ValueError):
    """A consistency report needs record decompositions at every event stage."""


@dataclass(frozen=True, eq=False)
class HistoryEvent:
    """Record event right after `stage`: `mask` is a `record_mask` array."""

    stage: StageId
    mask: np.ndarray
    label: str

    def apply(self, state: StateVector) -> StateVector:
        return StateVector(state.space, state.amps * self.mask)


@dataclass(frozen=True, eq=False)
class History:
    name: str
    events: tuple[HistoryEvent, ...]

    def __post_init__(self) -> None:
        stages = [e.stage.value for e in self.events]
        if any(b <= a for a, b in zip(stages, stages[1:])):
            raise ValueError(f"history {self.name!r}: event stages must strictly increase")

    @property
    def stages(self) -> tuple[StageId, ...]:
        return tuple(e.stage for e in self.events)

    def describe(self) -> str:
        if not self.events:
            return f"{self.name}: (no events)"
        return f"{self.name}: " + ", ".join(e.label for e in self.events)


#: Stage at which each outcome variable's record decomposition lives.
_STAGE_VAR = {stage: var for var, (_, stage) in RECORDERS.items()}


def outcome_event(protocol: Protocol, var: str, label: str, stage: StageId | None = None) -> HistoryEvent:
    """Event projecting onto one record label, by default right after recording."""
    if label not in OUTCOME_LABELS[var]:
        raise ValueError(f"variable {var!r} has no outcome {label!r}")
    if stage is None:
        stage = RECORDERS[var][1]
    return HistoryEvent(stage, record_mask(var, label), f"{var}={label}")


def history(protocol: Protocol, name: str, assignments: list[tuple[str, str]]) -> History:
    """History from (variable, label) pairs at their canonical stages."""
    events = sorted(
        (outcome_event(protocol, var, label) for var, label in assignments),
        key=lambda e: e.stage.value,
    )
    return History(name, tuple(events))


def chain_vector(protocol: Protocol, events: tuple[HistoryEvent, ...]) -> StateVector:
    """P_n U_n ... P_1 U_1 |initial>, unnormalized."""
    by_stage: dict[StageId, list[HistoryEvent]] = {}
    for e in events:
        by_stage.setdefault(e.stage, []).append(e)
    state = protocol.initial_state()
    for e in by_stage.get(StageId.PREP_MINUS1, []):
        state = e.apply(state)
    for stage in DYNAMIC_STAGES:
        state = protocol.stage_unitary(stage).linear(state)
        for e in by_stage.get(stage, []):
            state = e.apply(state)
    return state


def history_probability(protocol: Protocol, h: History) -> float:
    return chain_vector(protocol, h.events).norm() ** 2


# -- joint considerability ---------------------------------------------------


@dataclass(frozen=True)
class PairVerdict:
    left: str
    right: str
    direct_offdiagonal: float
    cross_interference: float
    shared_fine_outcomes: bool
    consistent: bool


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    family: tuple[str, ...]
    union_stages: tuple[StageId, ...]
    additivity_defect: dict[str, float]
    pairs: tuple[PairVerdict, ...]

    @property
    def consistent(self) -> bool:
        return all(p.consistent for p in self.pairs) and all(
            d <= CONSISTENCY_ATOL for d in self.additivity_defect.values()
        )

    def render_text(self) -> str:
        lines = [
            "history family: " + ", ".join(self.family),
            "event stages:   " + ", ".join(s.name for s in self.union_stages),
        ]
        for name in self.family:
            d = self.additivity_defect[name]
            note = "additive" if d <= CONSISTENCY_ATOL else f"NON-ADDITIVE (defect {d:.6g})"
            lines.append(f"  {name}: refinement {note}")
        for p in self.pairs:
            status = "consistent" if p.consistent else "NOT JOINTLY CONSIDERABLE"
            lines.append(
                f"  {p.left} vs {p.right}: {status} "
                f"(off-diagonal {p.direct_offdiagonal:.3g}, "
                f"interference {p.cross_interference:.3g}, "
                f"shared outcomes: {'yes' if p.shared_fine_outcomes else 'no'})"
            )
        verdict = "consistent family" if self.consistent else "family is not jointly considerable"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def _record_refinement_events(stage: StageId) -> list[HistoryEvent]:
    """Complete record decomposition at a stage, including the ready label."""
    if stage not in _STAGE_VAR:
        raise EpochMismatchError(
            f"stage {stage.name} records nothing; histories in a family must event at recording stages"
        )
    var = _STAGE_VAR[stage]
    agent, _ = RECORDERS[var]
    labels = GLOBAL_SPACE.factors[agent.memory_axis].labels
    return [HistoryEvent(stage, record_mask(var, label), f"{var}={label}") for label in labels]


def _fine_chains(
    protocol: Protocol, h: History, union_stages: tuple[StageId, ...]
) -> list[tuple[tuple[str, ...], StateVector]]:
    """Refine h over union stages it does not mention; return keyed chain vectors.

    A depth-first walk over the stage timeline evolves each tree node once,
    so leaves share their prefix chains; each leaf runs the same operations
    in the same order as `chain_vector` on its events, so the two agree bit
    for bit.
    """
    own = {e.stage: e for e in h.events}
    # keys are label strings; record events built by outcome_event and the
    # refinement slots use the same var=label format, so identical keys mean
    # identical mask chains
    slots = {
        stage: [own[stage]] if stage in own else _record_refinement_events(stage)
        for stage in union_stages
    }
    chains: list[tuple[tuple[str, ...], StateVector]] = []

    def walk(i: int, key: tuple[str, ...], state: StateVector) -> None:
        if i == len(STAGES):
            chains.append((key, state))
            return
        stage = STAGES[i]
        if stage is not StageId.PREP_MINUS1:
            state = protocol.stage_unitary(stage).linear(state)
        if stage not in slots:
            walk(i + 1, key, state)
            return
        for event in slots[stage]:
            walk(i + 1, key + (event.label,), event.apply(state))

    walk(0, (), protocol.initial_state())
    return chains


def chain_consistency_report(protocol: Protocol, family: list[History]) -> ConsistencyReport:
    """Decoherence diagnostics for a family of histories.

    A pair fails when the refined chain vectors of one history interfere with
    the other's (off-diagonal magnitude above threshold), when the two share a
    fine-grained outcome (the histories are not exclusive alternatives), or
    when either member's probability is not additive over its refinement.
    """
    names = [h.name for h in family]
    if len(set(names)) != len(names):
        raise ValueError("family members need distinct names")
    union_stages = tuple(
        sorted({e.stage for h in family for e in h.events}, key=lambda s: s.value)
    )
    fine = {h.name: _fine_chains(protocol, h, union_stages) for h in family}
    direct = {h.name: chain_vector(protocol, h.events) for h in family}

    additivity: dict[str, float] = {}
    for h in family:
        p_direct = direct[h.name].norm() ** 2
        p_sum = sum(v.norm() ** 2 for _, v in fine[h.name])
        additivity[h.name] = abs(p_direct - p_sum)

    pairs: list[PairVerdict] = []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            a, b = family[i], family[j]
            off = abs(inner(direct[a.name], direct[b.name]))
            cross = 0.0
            shared = False
            for key_a, va in fine[a.name]:
                for key_b, vb in fine[b.name]:
                    if key_a == key_b:
                        shared = True
                        continue
                    cross = max(cross, abs(inner(va, vb)))
            ok = (
                off <= CONSISTENCY_ATOL
                and cross <= CONSISTENCY_ATOL
                and not shared
                and additivity[a.name] <= CONSISTENCY_ATOL
                and additivity[b.name] <= CONSISTENCY_ATOL
            )
            pairs.append(PairVerdict(a.name, b.name, off, cross, shared, ok))
    return ConsistencyReport(tuple(names), union_stages, additivity, tuple(pairs))


# -- the two historical claims shipped with the protocol ---------------------


def okok_fine_history(protocol: Protocol) -> History:
    """tail coin, spin up, then both para-experimenters record ok."""
    return history(protocol, "h1", [("r", "tail"), ("z", "+"), ("w1", "ok"), ("w2", "ok")])


def okok_coarse_history(protocol: Protocol) -> History:
    """tail coin and a final ok from W2, with z and w1 left unexamined."""
    return history(protocol, "h1prime", [("r", "tail"), ("w2", "ok")])
