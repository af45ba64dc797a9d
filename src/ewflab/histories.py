"""History probabilities: chained masked evolution over the stage pipeline.

A history is an ordered list of (stage, record event) pairs; each record
event is a mask on its recorder's memory axis, a `RecordMask` value on both
engines (`exact.record_mask`), and each event is built once per process
(`outcome_event`).  Its probability is the squared norm of the chain
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
event it applied, in order.  The path keys the chain memo, whose nodes are
the states themselves, and names the leaf in the report; an event's label
is for display only.  A member is its key, the (stage index, masks) of each
stage where it has an event or is refined: the walk reads it and it keys
the member memo, whose record keeps the member's leaves and what D reads of
its own block, and two member keys key the pair memo, which keeps what D
reads of the pair's block.  The three memos are this module's (`_recall`,
one lookup per hit, first in first out at their bounds), kept in each
engine's `history_memos`.  A report whose members and pairs the engine has
answered before, in any family, walks nothing and computes no inner product.

Stage order is derived once per process: an assignment tuple's ordered
events and an event tuple's checked bitmask of stage indices are cached, and
a family's union stages are read off the OR of its members' bitmasks.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache, reduce
from typing import TYPE_CHECKING, NamedTuple

from .exact import GLOBAL_SPACE, OUTCOME_LABELS, RECORDED_VAR, RECORDERS, STAGES, RecordMask, StageId, Surd, record_mask
from .linalg import CONSISTENCY_ATOL, Frozen, setfield

if TYPE_CHECKING:
    from .exact import Engine
    from .protocol import StateVector


_STAGE_INDEX = {stage: i for i, stage in enumerate(STAGES)}


@cache  # keyed by a bitmask of stage indices: at most 2**6 entries
def _stages_of(bits: int) -> tuple[StageId, ...]:
    return tuple([stage for i, stage in enumerate(STAGES) if bits >> i & 1])


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


def in_stage_order(events) -> tuple[HistoryEvent, ...]:
    """The events sorted by stage index, ties kept in the order given."""
    return tuple(sorted(events, key=lambda e: _STAGE_INDEX[e.stage]))


def _require_stage_order(events: tuple[HistoryEvent, ...]) -> int:
    """The bitmask of the events' stage indices; refuses events whose stages do not strictly increase."""
    indices = [_STAGE_INDEX[e.stage] for e in events]
    if indices != sorted(set(indices)):
        raise ValueError("event stages must strictly increase")
    return sum(1 << i for i in indices)


#: Bounds of the per-process caches of event tuples' stage bitmasks
#: (`_stage_bits`), assignment tuples' ordered events (`history`) and member
#: keys per (events, union stages) (`_member_key`), least recently used first
#: out.  In 35,000 queries the benchmark's warm history stream meets 80, 80
#: and 187 of them (99.9% of member-key lookups hit) and 4 union stages; they
#: retain 0.14 MB (`tracemalloc`).
EVENT_TUPLES = MEMBER_KEYS = 1024


@lru_cache(maxsize=EVENT_TUPLES)
def _stage_bits(events: tuple[HistoryEvent, ...]) -> int:
    return _require_stage_order(events)  # a refusal is not cached: its caller names the owner


class History(Frozen):
    __slots__ = ("name", "events")

    def __init__(self, name: str, events: tuple[HistoryEvent, ...]) -> None:
        setfield(self, "name", name)
        setfield(self, "events", events)
        try:
            _stage_bits(events)
        except ValueError as exc:
            raise ValueError(f"history {name!r}: {exc}") from None

    def describe(self) -> str:
        if not self.events:
            return f"{self.name}: (no events)"
        return f"{self.name}: " + ", ".join(e.label for e in self.events)


def outcome_event(protocol: Engine, var: str, label: str, stage: StageId | None = None) -> HistoryEvent:
    """Event projecting onto one record label, by default right after recording.

    Its label is `var=label` at the recording stage and `var@STAGE=label`, the
    `--define` spelling, at any other, so that equal labels at a stage mean
    equal masks.  An event does not depend on the engine, which selects
    nothing here: each is built once per process and shared.
    """
    return _outcome_event(var, label, stage)


@cache
def _outcome_event(var: str, label: str, stage: StageId | None) -> HistoryEvent:
    if label not in OUTCOME_LABELS[var]:
        raise ValueError(f"variable {var!r} has no outcome {label!r}")
    recorded = RECORDERS[var][1]
    stage = recorded if stage is None else stage
    name = var if stage is recorded else f"{var}@{stage.name}"
    return HistoryEvent(stage, record_mask(var, label), f"{name}={label}")


def history(protocol: Engine, name: str, assignments: list[tuple[str, str]]) -> History:
    """History from (variable, label) pairs at their canonical stages, ordered once per assignment tuple."""
    pairs = tuple(assignments)
    try:
        events = _ordered_events(pairs)
    except TypeError:  # a pair that cannot be hashed, such as a list
        events = _ordered_events(tuple(map(tuple, pairs)))
    return History(name, events)


@lru_cache(maxsize=EVENT_TUPLES)
def _ordered_events(pairs: tuple[tuple[str, str], ...]) -> tuple[HistoryEvent, ...]:
    return in_stage_order(_outcome_event(var, label, None) for var, label in pairs)


def chain_vector(protocol: Engine, events: tuple[HistoryEvent, ...]) -> StateVector:
    """P_n U_n ... P_1 U_1 |initial>, unnormalized: the one leaf of `_fine_chains`."""
    try:
        _stage_bits(events)
    except ValueError as exc:
        raise ValueError(f"chain_vector: {exc}") from None
    ((_, state, _),) = _member(protocol, events, ()).leaves
    return state


def history_probability(protocol: Engine, h: History) -> float:
    """The squared norm of h's chain, computed once per member record."""
    member = _member(protocol, h.events, ())
    if member.norm2 is None:
        ((_, state, _),) = member.leaves
        member.norm2 = state.norm2()
    return member.norm2


# -- joint considerability ---------------------------------------------------


class PairVerdict(NamedTuple):
    left: str
    right: str
    direct_offdiagonal: float
    cross_interference: float
    shared_fine_outcomes: bool
    consistent: bool


class ConsistencyReport(NamedTuple):
    family: tuple[str, ...]
    union_stages: tuple[StageId, ...]
    probability: dict[str, float]
    additivity_defect: dict[str, float]
    pairs: tuple[PairVerdict, ...]

    @property
    def consistent(self) -> bool:
        return all(p.consistent for p in self.pairs) and all(map(_negligible, self.additivity_defect.values()))

    def render_text(self) -> str:
        lines = [
            "history family: " + ", ".join(self.family),
            "event stages:   " + ", ".join(s.name for s in self.union_stages),
        ]
        for name in self.family:
            d = self.additivity_defect[name]
            note = "additive" if _negligible(d) else f"NON-ADDITIVE (defect {d:.6g})"
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


def _negligible(x) -> bool:
    """Whether an entry of D, or a sum of entries, counts as zero: exactly on the exact engine.

    A Surd is the exact engine's number, so it is tested for zero; any other
    number is a float the dense engine rounded, or an exact engine's empty
    sum or maximum (0 or 0.0), and passes within `CONSISTENCY_ATOL`.
    """
    return not x if type(x) is Surd else x <= CONSISTENCY_ATOL


@lru_cache(maxsize=MEMBER_KEYS)
def _member_key(events: tuple[HistoryEvent, ...], union_stages: tuple[StageId, ...]) -> tuple:
    """A member's key in the engine's memos: (stage index, masks) per slot, in stage order.

    A slot is a stage where the member has an event, whose mask it holds,
    or another union stage, where it is refined into the record
    decomposition's masks.  The key does not depend on the engine, so it is
    derived once per process.  Evolves nothing; its callers check the
    events' stage order.
    """
    slots = {_STAGE_INDEX[e.stage]: (e.mask,) for e in events}
    for stage in union_stages:
        i = _STAGE_INDEX[stage]
        if i not in slots:
            slots[i] = tuple([e.mask for e in _record_refinement_events(stage)])
    return tuple(sorted(slots.items()))


#: History-chain nodes kept per engine (`_walk`), first in first out.  A node
#: is a state: a dense one retains ~5.7 kB (324 complex128 amplitudes and
#: their objects), so a full memo holds ~1.5 MB; an exact one ~0.8 kB.  A
#: cold coin-sweep item stores 25 nodes (3 of them zero), and 20,000 queries
#: of the benchmark's warm history stream 128 on the dense engine (23 zero)
#: and 125 on the exact one (27).
CHAIN_MEMO_NODES = 256

#: History-family members kept per engine (`_member`), first in first out.
#: An entry is a member's record under its key: its refined leaves, whose
#: states are mostly the chain memo's own nodes, with P[h] and the
#: additivity defect read off its own block of D.  The benchmark's warm
#: history stream has 154 distinct members: 99.9% of its member lookups hit
#: (30,000 queries), and the records retain 0.25 MB beside the chain memo on
#: the dense engine and 0.28 MB on the exact one; a full memo of the tests'
#: long family stream retains 0.84 MB and 0.60 MB (`tracemalloc`).
MEMBER_MEMO_LEAVES = 256

#: Member pairs kept per engine (`chain_consistency_report`), first in first
#: out.  An entry is the three reductions of a pair's block of D (the direct
#: overlap, the cross interference and whether the two share a path), which
#: depend on nothing but the two members' records: it is keyed by the two
#: member keys, the smaller first, one entry per unordered pair.  The warm
#: history stream has 1,840 distinct pairs, saturated within 20,000 queries:
#: 98.2% of its pair lookups hit (30,000 queries).  A full memo retains
#: 0.45 MB on the dense engine and 0.56 MB on the exact one (`tracemalloc`,
#: the tests' long family stream).
PAIR_MEMO_PAIRS = 2048


def _recall(memo: dict, key, bound: int, build, *args):
    """memo[key], or `build(*args)` stored there first; at `bound` entries the oldest goes first.

    A hit is one lookup and returns the stored value itself; the memo keeps
    its entries in the order they were stored.  `build` never returns None,
    which marks a miss.
    """
    value = memo.get(key)
    if value is None:
        value = build(*args)
        if len(memo) >= bound:
            del memo[next(iter(memo))]
        memo[key] = value
    return value


class _Member:
    """A member's refined leaves and what D reads of them: the record the member memo keeps under its key.

    `leaves` are (path, state, vanished) for every leaf below the initial
    state, in walk order: a depth-first walk over the stage timeline evolves
    each tree node once, so leaves share their prefix chains.  It is the
    package's one chain evolution: `chain_vector` is its single leaf for an
    empty union.  `paths` are all their paths and `live` the (path, state)
    of those that did not vanish.  P[h] and the additivity defect are read
    off the member's own block of D the first time a report asks, `norm2`
    the first time `history_probability` does; None until then.
    """

    __slots__ = ("leaves", "paths", "live", "probability", "additivity", "norm2")

    def __init__(self, protocol: Engine, key: tuple) -> None:
        leaves: list[tuple[tuple, StateVector, bool]] = []
        _walk(protocol, key, 0, (), None, leaves)
        self.leaves = tuple(leaves)
        self.paths = frozenset([path for path, _, _ in self.leaves])
        self.live = tuple([(path, v) for path, v, vanished in self.leaves if not vanished])
        self.probability = self.additivity = self.norm2 = None

    def read_block(self, protocol: Engine) -> None:
        """P[h] = |sum(D_hh)| and the additivity defect |sum(D_hh) - trace(D_hh)|, from one gram of the live leaves."""
        d = protocol.gram([v for _, v in self.live])
        total = sum(x for row in d for x in row)  # |chain|^2, real and nonnegative
        self.probability = abs(total)  # abs drops the dense engine's rounding only
        self.additivity = abs(total - sum(row[i] for i, row in enumerate(d)))


def _member(protocol: Engine, events: tuple[HistoryEvent, ...], union_stages: tuple[StageId, ...]) -> _Member:
    """The record of a member with these events refined over union stages, walked only when the memo lacks it.

    The record depends on nothing but the member's key, so a hit returns the
    first build's, bit-identical; a miss reads its nodes from the chain memo.
    """
    key = _member_key(events, union_stages)
    return _recall(protocol.history_memos[1], key, MEMBER_MEMO_LEAVES, _Member, protocol, key)


def _fine_chains(
    protocol: Engine, h: History, union_stages: tuple[StageId, ...]
) -> list[tuple[tuple, StateVector]]:
    """Refine h over union stages it does not mention; return (path, chain vector) per leaf."""
    return [(path, v) for path, v, _ in _member(protocol, h.events, union_stages).leaves]


def _walk(protocol: Engine, key: tuple, i: int, path: tuple, state: StateVector | None, leaves: list) -> None:
    """Append the leaves below stage index i to `leaves` as (path, state, vanished); no closure, so no reference cycle.

    The path holds one (stage index, mask) per slot of `key` passed, so its
    length is the next slot's position.  A call steps through the stages up
    to that slot's, and recurses once per live child there.  Until its first
    mask (an empty path) a chain is the pilot state, bit for bit, so it is
    read from the engine's pilot cache.  After that each node, one per
    stage, is read from the chain memo by its stage index and path before
    anything is evolved or masked: a node depends on nothing else, so a hit,
    the zero state a mask leaves included, is bit-identical to a rebuild.
    Once a mask leaves a zero state (stage maps are unitary, so only a mask
    can), every leaf below it is that zero state, flagged vanished, still
    under its own path: shared-outcome detection reads the paths of vanished
    chains.
    """
    nodes = protocol.history_memos[0]
    k = len(path)
    end = key[k][0] if k < len(key) else len(STAGES) - 1
    for i in range(i, end + 1):
        if not path:
            state = protocol.pilot_state_after(STAGES[i])
        else:
            state = _recall(nodes, (i, path), CHAIN_MEMO_NODES, protocol.stage_unitaries[STAGES[i]].linear, state)
    if k == len(key):
        leaves.append((path, state, False))
        return
    for mask in key[k][1]:
        child_path = path + ((end, mask),)
        child = _recall(nodes, (end, child_path), CHAIN_MEMO_NODES, state.masked, mask)
        if child.is_zero():
            below = [[(j, m) for m in masks] for j, masks in key[k + 1 :]]
            leaves.extend((child_path + tail, child, True) for tail in itertools.product(*below))
        else:
            _walk(protocol, key, end + 1, child_path, child, leaves)


def chain_consistency_report(protocol: Engine, family: list[History]) -> ConsistencyReport:
    """Decoherence diagnostics for a family of histories, read off the blocks of one matrix.

    The members' refined chains are the rows of C, and D = C* C^T is the
    decoherence functional; chains the walk flags vanished are left out, as
    their rows and columns of D are zero.  A member's chain is the sum of
    its refined ones (each slot's masks sum to the identity), so P[h] is
    sum(D_hh), its additivity defect is |sum(D_hh) - trace(D_hh)| and a
    pair's direct overlap is |sum(D_ab)|.  A pair fails on either, on
    interference between refined chains with different paths (largest such
    |D_ab| entry), or on a shared path (the histories are not exclusive
    alternatives).  Each block is read once per engine: D_hh into the
    member's record, D_ab into the pair memo, so a cold report computes
    each of D's N(N+1)/2 distinct entries once.  Every member's key is
    derived, and a bad family refused, before any walk.
    """
    names = [h.name for h in family]
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"family members need distinct names (repeated: {', '.join(repeated)})")
    union_stages = _stages_of(reduce(int.__or__, [_stage_bits(h.events) for h in family], 0))
    keys = [_member_key(h.events, union_stages) for h in family]
    _, member_memo, pair_memo = protocol.history_memos
    members = [_recall(member_memo, key, MEMBER_MEMO_LEAVES, _Member, protocol, key) for key in keys]
    for member in members:
        if member.probability is None:
            member.read_block(protocol)
    pairs = []
    additive = [_negligible(m.additivity) for m in members]
    for (a, ka, ma, fa), (b, kb, mb, fb) in itertools.combinations(zip(names, keys, members, additive), 2):
        # D_ba is D_ab's adjoint and each summary is symmetric: one entry per unordered pair
        key, args = ((ka, kb), (ma, mb)) if ka <= kb else ((kb, ka), (mb, ma))
        off, cross, shared = _recall(pair_memo, key, PAIR_MEMO_PAIRS, _pair_block, protocol, *args)
        ok = fa and fb and not shared and _negligible(off) and _negligible(cross)
        pairs.append(PairVerdict(a, b, off, cross, shared, ok))
    return ConsistencyReport(
        tuple(names),
        union_stages,
        {name: m.probability for name, m in zip(names, members)},
        {name: m.additivity for name, m in zip(names, members)},
        tuple(pairs),
    )


def _pair_block(protocol: Engine, a: _Member, b: _Member) -> tuple:
    """(|sum(D_ab)|, the largest |D_ab| entry between different paths, whether a and b share a path)."""
    d = protocol.gram([v for _, v in a.live], [v for _, v in b.live])
    off = abs(sum(x for row in d for x in row))
    cross = max(
        (abs(x) for (pa, _), row in zip(a.live, d) for (pb, _), x in zip(b.live, row) if pa != pb), default=0.0
    )
    return off, cross, not a.paths.isdisjoint(b.paths)


# -- the two historical claims shipped with the protocol ---------------------


def okok_fine_history(protocol: Engine) -> History:
    """tail coin, spin up, then both para-experimenters record ok."""
    return history(protocol, "h1", [("r", "tail"), ("z", "+"), ("w1", "ok"), ("w2", "ok")])


def okok_coarse_history(protocol: Engine) -> History:
    """tail coin and a final ok from W2, with z and w1 left unexamined."""
    return history(protocol, "h1prime", [("r", "tail"), ("w2", "ok")])
