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
stage where it has an event or is refined: the walk reads it, and it keys
the member memo, whose record keeps the member's chain at the engine's coin
and what the report read of its own block of D.  Two member keys key the
pair memo, which keeps what the report read of the pair's block.  The three
memos are this module's (`_recall`, one lookup per hit, first in first out
at their bounds), kept in each engine's `history_memos`; they hold values
at the engine's coin.  A report whose members and pairs the engine has
answered before, in any family, walks nothing and computes no inner product.

D is read off coin forms.  The coin enters only through the initial state,
so every entry of D is a form ā·a·HH + ā·b·HT + b̄·a·TH + b̄·b·TT in the
coin (a, b), whose four coefficients are inner products of the member's
chains walked from |head> and from |tail>.  Those chains are walked on two
engines of the same class and hooks at the coins (1, 0) and (0, 1)
(`_basis`), and a member's form, its live chains and the coefficients of
its own block, is kept once per process (`_form`), so every engine and
every coin reads it.  A report walks no chain at its engine's coin: on a
member-memo miss it evaluates the member's form at the coin, and on a
pair-memo miss one gram of the two forms' chains.  `history_probability`
and `chain_vector` still walk at the coin: on the dense engine P[h] is the
chain's own norm, bit for bit.

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
#: their objects), so a full memo holds ~1.5 MB; an exact one ~0.8 kB.  The
#: chains are those `chain_vector` and `history_probability` walk at the
#: engine's coin, and, in the two basis engines of each engine class and hook
#: setting (`_basis`), the chains every coin form reads.
CHAIN_MEMO_NODES = 256

#: History-family members kept per engine (`_member`), first in first out.
#: An entry is a member's record under its key: its leaves at the engine's
#: coin, whose states are mostly the chain memo's own nodes, when
#: `history_probability` or `chain_vector` asked for them, and P[h] and the
#: additivity defect evaluated off its coin form when a report asked.
MEMBER_MEMO_LEAVES = 256

#: Member pairs kept per engine (`chain_consistency_report`), first in first
#: out.  An entry is the three reductions of a pair's block of D at the
#: engine's coin (the direct overlap, the cross interference and whether the
#: two share a path), which depend on nothing but the two members' forms and
#: the coin: it is keyed by the two member keys, the smaller first, one entry
#: per unordered pair.  The benchmark's warm history stream has 1,840
#: distinct pairs, saturated within 20,000 queries.
PAIR_MEMO_PAIRS = 2048

#: Coin forms kept per process (`_form`), least recently used first out, and
#: the basis engines they read (`_basis`), one pair per engine class and hook
#: setting.  A form holds its live leaves' basis chains, mostly the basis
#: engines' own chain-memo nodes, and eight numbers.
FORM_MEMBERS = 256
BASIS_SETTINGS = 8


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
    """What one engine has read of a member: the record the member memo keeps under its key.

    `leaves` are (path, state, vanished) for every leaf below the engine's
    initial state, in walk order (`_leaves`), walked the first time
    `chain_vector`, `history_probability` or `_fine_chains` asks; `norm2` is
    the chain's squared norm, the first time `history_probability` asks.
    `form` is the member's coin form (`_form`), and `probability` and
    `additivity` are P[h] = |sum(D_hh)| and the additivity defect
    |sum(D_hh) - trace(D_hh)| evaluated off it at the engine's coin, the
    first time a report asks.  None until then.
    """

    __slots__ = ("leaves", "norm2", "form", "probability", "additivity")

    def __init__(self) -> None:
        self.leaves = self.norm2 = self.form = self.probability = self.additivity = None


def _member(protocol: Engine, events: tuple[HistoryEvent, ...], union_stages: tuple[StageId, ...]) -> _Member:
    """The record of a member with these events refined over union stages, with its leaves at the engine's coin.

    The leaves depend on nothing but the member's key and the engine, so a
    record that holds them returns the first walk's, bit-identical; a walk
    reads its nodes from the chain memo.
    """
    key = _member_key(events, union_stages)
    member = _recall(protocol.history_memos[1], key, MEMBER_MEMO_LEAVES, _Member)
    if member.leaves is None:
        member.leaves = _leaves(protocol, key)
    return member


def _leaves(protocol: Engine, key: tuple) -> tuple:
    """(path, state, vanished) for every leaf of the member with this key, walked from the engine's initial state.

    A depth-first walk over the stage timeline evolves each tree node once,
    so leaves share their prefix chains.  It is the package's one chain
    evolution: `chain_vector` is the single leaf of an unrefined member, and
    the coin forms walk it on the basis engines.
    """
    leaves: list[tuple[tuple, StateVector, bool]] = []
    _walk(protocol, key, 0, (), None, leaves)
    return tuple(leaves)


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


# -- coin forms ----------------------------------------------------------------


class _Form(NamedTuple):
    """A member's coin form: what D reads of the member at every coin, derived once per process.

    The coin enters only through the initial state a|head> + b|tail>, and
    every stage map and mask is linear, so each refined chain is a·h + b·t,
    with h and t its chains from the two basis states, and each entry of D
    is ā·a·<h_i|h_j> + ā·b·<h_i|t_j> + b̄·a·<t_i|h_j> + b̄·b·<t_i|t_j>.
    `paths` are all the member's leaf paths and `live` the paths of the
    leaves whose basis chains are not both zero.  `chains` are (leaf, half,
    chain) for each nonzero basis chain of a live leaf: its position in
    `live`, 0 for the head chain or 1 for the tail chain, and the state.
    `total` holds the four coefficients (HH, HT, TH, TT) of sum(D_hh), and
    `defect` those of sum(D_hh) - trace(D_hh).
    """

    paths: frozenset
    live: tuple
    chains: tuple
    total: tuple
    defect: tuple


@lru_cache(maxsize=BASIS_SETTINGS)
def _basis(engine: type, flip_ok_sign: bool, corrupt_preparation: bool) -> tuple:
    """Engines of this class and hook setting at the coins (1, 0) and (0, 1): the basis every coin form reads.

    They walk the forms' chains as any engine walks its own, through their
    pilot caches and chain memos, so each basis node is evolved once per
    process while it stays in its memo.
    """
    return tuple(engine(coin, flip_ok_sign=flip_ok_sign, corrupt_preparation=corrupt_preparation)
                 for coin in ((1, 0), (0, 1)))


@lru_cache(maxsize=FORM_MEMBERS)
def _form(engine: type, flip_ok_sign: bool, corrupt_preparation: bool, key: tuple) -> _Form:
    """The coin form of the member with this key, keyed by what it reads: the engine class, the hooks and the key.

    The member's own block of D is one gram of its nonzero basis chains,
    each entry added to the coefficient of its pair of halves.
    """
    head, tail = _basis(engine, flip_ok_sign, corrupt_preparation)
    heads = _leaves(head, key)
    live = [(path, h, vh, t, vt) for (path, h, vh), (_, t, vt) in zip(heads, _leaves(tail, key)) if not (vh and vt)]
    chains = tuple([(i, half, chain) for i, (_, h, vh, t, vt) in enumerate(live)
                    for half, chain, vanished in ((0, h, vh), (1, t, vt)) if not vanished])
    total, trace = [0] * 4, [0] * 4
    for (i, p, _), row in zip(chains, head.gram([chain for _, _, chain in chains])):
        for (j, q, _), x in zip(chains, row):
            total[2 * p + q] += x
            if i == j:
                trace[2 * p + q] += x
    return _Form(frozenset([path for path, _, _ in heads]), tuple([path for path, *_ in live]), chains, tuple(total),
                 tuple([s - t for s, t in zip(total, trace)]))


def _coin_weights(protocol: Engine) -> tuple:
    """(ā·a, ā·b, b̄·a, b̄·b) at the engine's coin (a, b): the weights of a coin form's HH, HT, TH and TT."""
    a, b = protocol.coin_amplitudes
    ca, cb = a.conjugate(), b.conjugate()
    return ca * a, ca * b, cb * a, cb * b


def _at(weights: tuple, coefficients: tuple):
    """A coin form's value at the coin whose weights these are."""
    w0, w1, w2, w3 = weights
    hh, ht, th, tt = coefficients
    return w0 * hh + w1 * ht + w2 * th + w3 * tt


def chain_consistency_report(protocol: Engine, family: list[History]) -> ConsistencyReport:
    """Decoherence diagnostics for a family of histories, read off the blocks of one matrix.

    The members' refined chains are the rows of C, and D = C* C^T is the
    decoherence functional; chains that are zero at every coin are left
    out, as their rows and columns of D are zero.  A member's chain is the
    sum of its refined ones (each slot's masks sum to the identity), so
    P[h] is sum(D_hh), its additivity defect is |sum(D_hh) - trace(D_hh)|
    and a pair's direct overlap is |sum(D_ab)|.  A pair fails on either, on
    interference between refined chains with different paths (largest such
    |D_ab| entry), or on a shared path (the histories are not exclusive
    alternatives).  No chain is walked at the engine's coin: D_hh is read
    off the member's coin form into its record, and D_ab is evaluated from
    the two forms into the pair memo, each once per engine.  Every member's
    key is derived, and a bad family refused, before any walk.
    """
    names = [h.name for h in family]
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"family members need distinct names (repeated: {', '.join(repeated)})")
    union_stages = _stages_of(reduce(int.__or__, [_stage_bits(h.events) for h in family], 0))
    keys = [_member_key(h.events, union_stages) for h in family]
    _, member_memo, pair_memo = protocol.history_memos
    members = [_recall(member_memo, key, MEMBER_MEMO_LEAVES, _Member) for key in keys]
    for key, member in zip(keys, members):
        if member.form is None:
            member.form = _form(type(protocol), protocol.flip_ok_sign, protocol.corrupt_preparation, key)
            weights = _coin_weights(protocol)
            member.probability = abs(_at(weights, member.form.total))  # abs drops the dense engine's rounding only
            member.additivity = abs(_at(weights, member.form.defect))
    pairs = []
    additive = [_negligible(m.additivity) for m in members]
    for (a, ka, ma, fa), (b, kb, mb, fb) in itertools.combinations(zip(names, keys, members, additive), 2):
        # D_ba is D_ab's adjoint and each summary is symmetric: one entry per unordered pair
        key, args = ((ka, kb), (ma.form, mb.form)) if ka <= kb else ((kb, ka), (mb.form, ma.form))
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


def _pair_block(protocol: Engine, a: _Form, b: _Form) -> tuple:
    """(|sum(D_ab)|, the largest |D_ab| entry between different paths, whether a and b share a path).

    D_ab is evaluated at the engine's coin from one gram of the two forms'
    nonzero basis chains, each entry weighted by its pair of halves.
    """
    g = protocol.gram([chain for _, _, chain in a.chains], [chain for _, _, chain in b.chains])
    weights = _coin_weights(protocol)
    d = [[0] * len(b.live) for _ in a.live]
    for (i, p, _), row in zip(a.chains, g):
        di, wp = d[i], weights[2 * p : 2 * p + 2]
        for (j, q, _), x in zip(b.chains, row):
            di[j] += wp[q] * x
    off = abs(sum(x for row in d for x in row))
    cross = max((abs(x) for pa, row in zip(a.live, d) for pb, x in zip(b.live, row) if pa != pb), default=0.0)
    return off, cross, not a.paths.isdisjoint(b.paths)


# -- the two historical claims shipped with the protocol ---------------------


def okok_fine_history(protocol: Engine) -> History:
    """tail coin, spin up, then both para-experimenters record ok."""
    return history(protocol, "h1", [("r", "tail"), ("z", "+"), ("w1", "ok"), ("w2", "ok")])


def okok_coarse_history(protocol: Engine) -> History:
    """tail coin and a final ok from W2, with z and w1 left unexamined."""
    return history(protocol, "h1prime", [("r", "tail"), ("w2", "ok")])
