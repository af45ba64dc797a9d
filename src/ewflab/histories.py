"""History probabilities: chained masked evolution over the stage pipeline.

A history is an ordered list of (stage, record event) pairs; each record
event is a mask on its recorder's memory axis, a `RecordMask` value on both
engines (`record_mask`).  Its probability is the squared norm of the chain
obtained by running the stage unitaries in order and applying each event's
mask right after its stage.  Stages a history does not mention contribute
plain unitary evolution; there is no implicit identity-projector event,
which is exactly what makes a coarse history like "r = tail and w2 = ok" a
different object from the sum of its fine-grainings.

The consistency report makes that difference measurable: histories in a
family are refined over the union of the family's event stages using the
canonical record decompositions, and a family counts as jointly considerable
only when the decoherence functional of the refined chain vectors shows
neither interference across histories nor a break in the additivity of any
member's probability.  Every function runs on either engine; on the exact
one, D's entries are exact and "consistent" is an exact zero test.

A refined chain is named by its path: the (stage index, mask) of each
event it applied, in order.  The path keys the engine's chain memo and
names the leaf in the report; an event's label is for display only.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .exact import GLOBAL_SPACE, OUTCOME_LABELS, RECORDED_VAR, RECORDERS, STAGES, RecordMask, StageId, record_mask
from .linalg import CONSISTENCY_ATOL, Frozen, setfield

if TYPE_CHECKING:
    from .exact import Engine
    from .protocol import StateVector


class EpochMismatchError(ValueError):
    """A consistency report needs record decompositions at every event stage."""


class HistoryEvent(Frozen):
    """Record event right after `stage`: `mask` is a `RecordMask`, `label` names it for display."""

    __slots__ = ("stage", "mask", "label")

    def __init__(self, stage: StageId, mask: RecordMask, label: str) -> None:
        if type(mask) is not RecordMask:
            raise TypeError(f"a history event's mask must be a RecordMask, not {type(mask).__name__}")
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
        stages = [e.stage for e in events]
        if not all(a < b for a, b in zip(stages, stages[1:])):
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
    events = sorted((outcome_event(protocol, var, label) for var, label in assignments), key=lambda e: e.stage)
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
def _record_refinement_events(stage: StageId) -> tuple[HistoryEvent, ...]:
    """Complete record decomposition at a stage, including the ready label, built once per stage."""
    if stage not in RECORDED_VAR:
        raise EpochMismatchError(
            f"stage {stage.name} records nothing; histories in a family must event at recording stages"
        )
    var = RECORDED_VAR[stage]
    agent, _ = RECORDERS[var]
    labels = GLOBAL_SPACE.factors[agent.memory_axis].labels
    return tuple(HistoryEvent(stage, record_mask(var, label), f"{var}={label}") for label in labels)


def _slots(h: History, union_stages: tuple[StageId, ...]) -> dict[StageId, tuple[HistoryEvent, ...]]:
    """h's own event at its stages and the record decomposition at each other union stage; evolves nothing."""
    slots = {e.stage: (e,) for e in h.events}
    for stage in union_stages:
        if stage not in slots:
            slots[stage] = _record_refinement_events(stage)
    return slots


def _fine_chains(
    protocol: Engine, h: History, union_stages: tuple[StageId, ...]
) -> list[tuple[tuple, StateVector]]:
    """Refine h over union stages it does not mention; return (path, chain vector) per leaf.

    A depth-first walk over the stage timeline evolves each tree node once,
    so leaves share their prefix chains.  It is the package's one chain
    evolution: `chain_vector` is its single leaf for an empty union.
    """
    chains: list[tuple[tuple, StateVector, bool]] = []
    _walk(protocol, _slots(h, union_stages), 0, (), None, chains)
    return [(path, v) for path, v, _ in chains]


def _walk(protocol: Engine, slots: dict, i: int, path: tuple, state: StateVector | None, chains: list) -> None:
    """Append the leaves below stage index i to `chains` as (path, state, vanished); no closure, so no reference cycle.

    A call loops through the stages up to the next one in `slots`, and
    recurses once per live child there.  Until its first mask (an empty
    path) a chain is the pilot state, bit for bit, so it is read from the
    engine's pilot cache.  After that each node, one per stage, is read from
    the engine's chain memo by `path` (`Engine.chain_node`) before anything
    is evolved or masked.  Once a mask leaves a zero state (stage maps are
    unitary, so only a mask can), every leaf below it is that zero state,
    flagged vanished, still under its own path: shared-outcome detection
    reads the paths of vanished chains.
    """
    for i in range(i, len(STAGES)):
        stage = STAGES[i]
        if not path:
            state = protocol.pilot_state_after(stage)
        else:
            state, _ = protocol.chain_node(i, path, protocol.stage_unitaries[stage].linear, state)
        if stage in slots:
            for event in slots[stage]:
                child_path = path + ((i, event.mask),)
                child, vanished = protocol.chain_node(i, child_path, event.apply, state, masks=True)
                if vanished:
                    below = [[(j, e.mask) for e in slots[s]] for j, s in enumerate(STAGES) if j > i and s in slots]
                    chains.extend((child_path + tail, child, True) for tail in itertools.product(*below))
                else:
                    _walk(protocol, slots, i + 1, child_path, child, chains)
            return
    chains.append((path, state, False))


def chain_consistency_report(protocol: Engine, family: list[History]) -> ConsistencyReport:
    """Decoherence diagnostics for a family of histories, read off one matrix.

    The members' refined chains are the rows of C, and D = C* C^T is the
    decoherence functional; chains the walk flags vanished are left out, as
    their rows and columns of D are zero.  A member's chain is the sum of
    its refined ones (each slot's masks sum to the identity), so P[h] is
    sum(D_hh), its additivity defect is |sum(D_hh) - trace(D_hh)| and a
    pair's direct overlap is |sum(D_ab)|.  A pair fails on either, on
    interference between refined chains with different paths (largest such
    |D_ab| entry), or on a shared path (the histories are not exclusive
    alternatives).  Every member's slots are built, and a bad family
    refused, before any walk.
    """
    names = [h.name for h in family]
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"family members need distinct names (repeated: {', '.join(repeated)})")
    union_stages = tuple(sorted({e.stage for h in family for e in h.events}))
    slots = [_slots(h, union_stages) for h in family]
    paths: dict[str, set[tuple]] = {}  # every refined path, vanishing chains included
    rows: dict[str, list[int]] = {}  # each member's rows of D
    leaves: list[tuple[tuple, StateVector]] = []
    for name, member_slots in zip(names, slots):
        chains: list[tuple[tuple, StateVector, bool]] = []
        _walk(protocol, member_slots, 0, (), None, chains)
        paths[name] = {path for path, _, _ in chains}
        live = [(path, v) for path, v, vanished in chains if not vanished]
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
        shared = not paths[a].isdisjoint(paths[b])
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
