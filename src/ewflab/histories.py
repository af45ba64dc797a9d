"""History probabilities: chained projected evolution over the stage pipeline.

A history is an ordered list of (stage, record event) pairs; each record
event is a mask on its recorder's memory axis (the engine's `record_mask`).
Its probability is the squared norm of the chain obtained by running the
stage unitaries in order and applying each event's mask right after its
stage.  Stages a history does not mention contribute plain unitary
evolution; there is no implicit identity-projector event, which is exactly
what makes a coarse history like "r = tail and w2 = ok" a different object
from the sum of its fine-grainings.

The consistency report makes that difference measurable: histories in a
family are refined over the union of the family's event stages using the
canonical record decompositions, and a family counts as jointly considerable
only when the decoherence functional of the refined chain vectors shows
neither interference across histories nor a break in the additivity of any
member's probability.  Every function runs on either engine; on the exact
one, D's entries are exact and "consistent" is an exact zero test.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .exact import GLOBAL_SPACE, OUTCOME_LABELS, RECORDED_VAR, RECORDERS, STAGES, StageId
from .linalg import CONSISTENCY_ATOL, Frozen, setfield

if TYPE_CHECKING:
    from .exact import Engine
    from .protocol import StateVector


class EpochMismatchError(ValueError):
    """A consistency report needs record decompositions at every event stage."""


class HistoryEvent(Frozen):
    """Record event right after `stage`: `mask` is the engine's `record_mask`."""

    __slots__ = ("stage", "mask", "label")

    def __init__(self, stage: StageId, mask: object, label: str) -> None:
        setfield(self, "stage", stage)
        setfield(self, "mask", mask)
        setfield(self, "label", label)

    def apply(self, state: StateVector) -> StateVector:
        return state.masked(self.mask)


class History(Frozen):
    __slots__ = ("name", "events")

    def __init__(self, name: str, events: tuple[HistoryEvent, ...]) -> None:
        setfield(self, "name", name)
        setfield(self, "events", events)
        stages = [e.stage.value for e in events]
        if any(b <= a for a, b in zip(stages, stages[1:])):
            raise ValueError(f"history {self.name!r}: event stages must strictly increase")

    def describe(self) -> str:
        if not self.events:
            return f"{self.name}: (no events)"
        return f"{self.name}: " + ", ".join(e.label for e in self.events)


def outcome_event(protocol: Engine, var: str, label: str, stage: StageId | None = None) -> HistoryEvent:
    """Event projecting onto one record label, by default right after recording.

    Its label is `var=label` at the recording stage and `var@STAGE=label`, the
    `--define` spelling, at any other, so that equal labels at a stage mean
    equal masks.
    """
    if label not in OUTCOME_LABELS[var]:
        raise ValueError(f"variable {var!r} has no outcome {label!r}")
    recorded = RECORDERS[var][1]
    stage = recorded if stage is None else stage
    name = var if stage is recorded else f"{var}@{stage.name}"
    return HistoryEvent(stage, protocol.record_mask(var, label), f"{name}={label}")


def history(protocol: Engine, name: str, assignments: list[tuple[str, str]]) -> History:
    """History from (variable, label) pairs at their canonical stages."""
    events = sorted(
        (outcome_event(protocol, var, label) for var, label in assignments),
        key=lambda e: e.stage.value,
    )
    return History(name, tuple(events))


def chain_vector(protocol: Engine, events: tuple[HistoryEvent, ...]) -> StateVector:
    """P_n U_n ... P_1 U_1 |initial>, unnormalized: the one leaf of `_fine_chains`."""
    ((_, state),) = _fine_chains(protocol, History("chain", events), ())
    return state


def history_probability(protocol: Engine, h: History) -> float:
    return chain_vector(protocol, h.events).norm2()


# -- joint considerability ---------------------------------------------------


class PairVerdict(NamedTuple):
    left: str
    right: str
    direct_offdiagonal: float
    cross_interference: float
    shared_fine_outcomes: bool
    consistent: bool


class ConsistencyReport(Frozen):
    __slots__ = ("family", "union_stages", "probability", "additivity_defect", "pairs")

    def __init__(
        self,
        family: tuple[str, ...],
        union_stages: tuple[StageId, ...],
        probability: dict[str, float],
        additivity_defect: dict[str, float],
        pairs: tuple[PairVerdict, ...],
    ) -> None:
        setfield(self, "family", family)
        setfield(self, "union_stages", union_stages)
        setfield(self, "probability", probability)
        setfield(self, "additivity_defect", additivity_defect)
        setfield(self, "pairs", pairs)

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


@cache
def _record_refinement_events(engine: type[Engine], stage: StageId) -> tuple[HistoryEvent, ...]:
    """Complete record decomposition at a stage, including the ready label.

    An engine's record masks do not depend on its coin, so the events are
    built once per (engine class, stage) and shared by every walk.
    """
    if stage not in RECORDED_VAR:
        raise EpochMismatchError(
            f"stage {stage.name} records nothing; histories in a family must event at recording stages"
        )
    var = RECORDED_VAR[stage]
    agent, _ = RECORDERS[var]
    labels = GLOBAL_SPACE.factors[agent.memory_axis].labels
    return tuple(HistoryEvent(stage, engine.record_mask(var, label), f"{var}={label}") for label in labels)


def _slots(protocol: Engine, h: History, union_stages: tuple[StageId, ...]) -> dict[StageId, tuple[HistoryEvent, ...]]:
    """h's own event at its stages and the record decomposition at each other union stage; evolves nothing."""
    # keys are label strings; outcome_event and the refinement slots spell a
    # recording-stage event alike, so identical keys mean identical mask chains
    slots = {e.stage: (e,) for e in h.events}
    for stage in union_stages:
        if stage not in slots:
            slots[stage] = _record_refinement_events(type(protocol), stage)
    return slots


def _fine_chains(
    protocol: Engine, h: History, union_stages: tuple[StageId, ...]
) -> list[tuple[tuple[str, ...], StateVector]]:
    """Refine h over union stages it does not mention; return keyed chain vectors.

    A depth-first walk over the stage timeline evolves each tree node once,
    so leaves share their prefix chains.  It is the package's one chain
    evolution: `chain_vector` is its single leaf for an empty union.
    """
    chains: list[tuple[tuple[str, ...], StateVector, bool]] = []
    _walk(protocol, _slots(protocol, h, union_stages), 0, (), (), None, chains)
    return [(k, v) for k, v, _ in chains]


def _walk(
    protocol: Engine, slots: dict, i: int, key: tuple[str, ...], path: tuple | None, state: StateVector | None,
    chains: list,
) -> None:
    """Append the leaves below stage index i to `chains` as (key, state, vanished); no closure, so no reference cycle.

    A call loops through the stages up to the next one in `slots`, and
    recurses once per live child there.  Until its first mask (an empty
    key) a chain is the pilot state, bit for bit, so it is read from the
    engine's pilot cache.  After that each node, one per stage, is read from
    the engine's chain memo by `path`, the masks applied so far
    (`Engine.chain_node`), before anything is evolved or masked; the label
    key names the leaf and never keys the memo, as a hand-built event can
    reuse a label at another stage.  Once a mask leaves a zero state (stage
    maps are unitary, so only a mask can), every leaf below it is that zero
    state, flagged vanished, still under its own key: shared-outcome
    detection reads the keys of vanished chains.
    """
    for i in range(i, len(STAGES)):
        stage = STAGES[i]
        if not key:
            state = protocol.pilot_state_after(stage)
        else:
            state, _ = protocol.chain_node(i, path, protocol.stage_unitary(stage).linear, state)
        if stage in slots:
            for event in slots[stage]:
                child_path = protocol.chain_path(path, i, event.mask)
                child, vanished = protocol.chain_node(i, child_path, event.apply, state, masks=True)
                if vanished:
                    below = [[e.label for e in slots[s]] for s in STAGES[i + 1 :] if s in slots]
                    chains.extend((key + (event.label,) + tail, child, True) for tail in itertools.product(*below))
                else:
                    _walk(protocol, slots, i + 1, key + (event.label,), child_path, child, chains)
            return
    chains.append((key, state, False))


def chain_consistency_report(protocol: Engine, family: list[History]) -> ConsistencyReport:
    """Decoherence diagnostics for a family of histories, read off one matrix.

    The members' refined chains are the rows of C, and D = C* C^T is the
    decoherence functional; chains the walk flags vanished are left out, as
    their rows and columns of D are zero.  A member's chain is the sum of
    its refined ones (each slot's masks sum to the identity), so P[h] is
    sum(D_hh), its additivity defect is |sum(D_hh) - trace(D_hh)| and a
    pair's direct overlap is |sum(D_ab)|.  A pair fails on either, on
    interference between refined chains with different keys (largest such
    |D_ab| entry), or on a shared key (the histories are not exclusive
    alternatives).  Every member's slots are built, and a bad family
    refused, before any walk.
    """
    names = [h.name for h in family]
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"family members need distinct names (repeated: {', '.join(repeated)})")
    union_stages = tuple(
        sorted({e.stage for h in family for e in h.events}, key=lambda s: s.value)
    )
    slots = [_slots(protocol, h, union_stages) for h in family]
    keys: dict[str, set[tuple[str, ...]]] = {}  # every refined key, vanishing chains included
    rows: dict[str, list[int]] = {}  # each member's rows of D
    leaves: list[tuple[tuple[str, ...], StateVector]] = []
    for name, member_slots in zip(names, slots):
        chains: list[tuple[tuple[str, ...], StateVector, bool]] = []
        _walk(protocol, member_slots, 0, (), (), None, chains)
        keys[name] = {k for k, _, _ in chains}
        live = [(k, v) for k, v, vanished in chains if not vanished]
        rows[name] = list(range(len(leaves), len(leaves) + len(live)))
        leaves += live
    d = protocol.gram([v for _, v in leaves])

    def block_sum(ra: list[int], rb: list[int]):
        return sum(d[i][j] for i in ra for j in rb)

    sums = {name: block_sum(r, r) for name, r in rows.items()}  # |chain|^2, real and nonnegative
    probability = {name: abs(s) for name, s in sums.items()}  # abs drops the dense engine's rounding only
    additivity = {name: abs(s - sum(d[i][i] for i in rows[name])) for name, s in sums.items()}
    pairs = []
    for a, b in itertools.combinations(names, 2):
        off = abs(block_sum(rows[a], rows[b]))
        cross = max((abs(d[i][j]) for i in rows[a] for j in rows[b] if leaves[i][0] != leaves[j][0]), default=0.0)
        shared = not keys[a].isdisjoint(keys[b])
        ok = max(off, cross, additivity[a], additivity[b]) <= CONSISTENCY_ATOL and not shared
        pairs.append(PairVerdict(a, b, off, cross, shared, ok))
    return ConsistencyReport(tuple(names), union_stages, probability, additivity, tuple(pairs))


# -- the two historical claims shipped with the protocol ---------------------


def okok_fine_history(protocol: Engine) -> History:
    """tail coin, spin up, then both para-experimenters record ok."""
    return history(protocol, "h1", [("r", "tail"), ("z", "+"), ("w1", "ok"), ("w2", "ok")])


def okok_coarse_history(protocol: Engine) -> History:
    """tail coin and a final ok from W2, with z and w1 left unexamined."""
    return history(protocol, "h1prime", [("r", "tail"), ("w2", "ok")])
