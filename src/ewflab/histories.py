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
event it applied, in order, which names the leaf in the report; an event's
label is for display only.  A member is its key, the (stage index, masks) of
each stage where it has an event or is refined, which the walk reads.  An
engine keeps one memo, `probability_memo`: P[h] per event tuple, first in
first out.  It keeps no chain: a walk evolves its member's tree afresh.

D is read off coin forms.  The coin enters only through the initial state,
so every entry of D is a form ā·a·HH + ā·b·HT + b̄·a·TH + b̄·b·TT in the
coin (a, b), whose four coefficients are inner products of the member's
chains walked from |head> and from |tail> on two engines of the same class
and hooks (`_basis`).  Member forms (`_form`) and pair forms (`_pair_form`)
are kept once per process, and a report evaluates them at its engine's
coin: once the process holds a family's forms, a report on any engine walks
nothing and computes no inner product.  `history_probability` reads P[h] off
the member's own form (refined over its own stages only), as a one-member
report does, so only `chain_vector`, asked for the chain itself, walks at
the engine's coin.

Stage order is derived once per process: an assignment tuple's ordered
events and an event tuple's checked bitmask of stage indices are cached, and
a family's union stages are read off the OR of its members' bitmasks.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache
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


#: Bound of the per-process caches of event tuples' stage bitmasks
#: (`_stage_bits`) and assignment tuples' ordered events (`history`), least
#: recently used first out: the benchmark's warm history stream meets 80.
EVENT_TUPLES = 1024


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
    """P_n U_n ... P_1 U_1 |initial>, unnormalized: the one leaf of the unrefined member (`_leaves`)."""
    try:
        _stage_bits(events)
    except ValueError as exc:
        raise ValueError(f"chain_vector: {exc}") from None
    ((_, state, _),) = _leaves(protocol, _member_key(events, ()))
    return state


def history_probability(protocol: Engine, h: History) -> float:
    """The squared norm of h's chain, read once per event tuple while the engine's P[h] memo holds it.

    A miss evaluates sum(D_hh) of h's own coin form (`_form`, refined over
    its own stages only) at the engine's coin, as a one-member report does,
    and stores it last; at the memo's bound the oldest entry goes first.
    """
    memo, events = protocol.probability_memo, h.events
    value = memo.get(events)
    if value is None:
        p = _form(type(protocol), protocol.flip_ok_sign, protocol.corrupt_preparation, events,
                  _stages_of(_stage_bits(events))).own[0]
        weights = _weights(protocol.coin_amplitudes)
        value = _modulus(weights, p) if p else abs(weights[0] * 0)  # the Surd 0 on the exact engine, as in a report
        if len(memo) >= PROBABILITY_MEMO_HISTORIES:
            del memo[next(iter(memo))]
        memo[events] = value
    return value


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
def _refinement_masks(stage: StageId) -> tuple[RecordMask, ...]:
    """The masks of the complete record decomposition at a stage, the ready label's included, built once per stage."""
    if stage not in RECORDED_VAR:
        raise EpochMismatchError(
            f"stage {stage.name} records nothing; histories in a family must event at recording stages"
        )
    var = RECORDED_VAR[stage]
    labels = GLOBAL_SPACE.factors[RECORDERS[var][0].memory_axis].labels
    return tuple([record_mask(var, label) for label in labels])


def _negligible(x) -> bool:
    """Whether an entry of D, or a sum of entries, counts as zero: exactly on the exact engine.

    A Surd is the exact engine's number, so it is tested for zero; a float
    is the dense engine's, rounded, and passes within `CONSISTENCY_ATOL`.
    """
    return not x if type(x) is Surd else x <= CONSISTENCY_ATOL


def _member_key(events: tuple[HistoryEvent, ...], union_stages: tuple[StageId, ...]) -> tuple:
    """A member's key, which its walk reads: (stage index, masks) per slot, in stage order.

    A slot is a stage where the member has an event, whose mask it holds,
    or another union stage, where it is refined into the record
    decomposition's masks.  Evolves nothing; its callers check the events'
    stage order.
    """
    slots = {_STAGE_INDEX[e.stage]: (e.mask,) for e in events}
    for stage in union_stages:
        i = _STAGE_INDEX[stage]
        if i not in slots:
            slots[i] = _refinement_masks(stage)
    return tuple(sorted(slots.items()))


#: P[h] kept per engine (`history_probability`) under the history's event
#: tuple, first in first out.
PROBABILITY_MEMO_HISTORIES = 256

#: Per-process bounds, least recently used first out, of member forms
#: (`_form`: the benchmark's warm history stream reads 154), which hold their
#: live leaves' basis chains; of pair forms (`_pair_form`: it reads 1,840);
#: and of basis engine pairs (`_basis`).
FORM_MEMBERS = 256
PAIR_FORMS = 2048
BASIS_SETTINGS = 8


def _leaves(protocol: Engine, key: tuple) -> tuple:
    """(path, state, vanished) for every leaf of the member with this key, walked from the engine's initial state.

    A depth-first walk over the stage timeline evolves each tree node once,
    so leaves share their prefix chains, and keeps none.  It is the
    package's one chain evolution: `chain_vector` is the single leaf of an
    unrefined member, and the coin forms walk it on the basis engines.
    """
    leaves: list[tuple[tuple, StateVector, bool]] = []
    _walk(protocol, key, 0, (), None, leaves)
    return tuple(leaves)


def _walk(protocol: Engine, key: tuple, i: int, path: tuple, state: StateVector | None, leaves: list) -> None:
    """Append the leaves below stage index i to `leaves` as (path, state, vanished); no closure, so no reference cycle.

    The path holds one (stage index, mask) per slot of `key` passed, so its
    length is the next slot's position.  A call steps through the stages up
    to that slot's, and recurses once per live child there.  Until its first
    mask (an empty path) a chain is the pilot state, bit for bit, so it is
    read from the engine's pilot cache.  Once a mask leaves a zero state
    (stage maps are unitary, so only a mask can), every leaf below it is
    that zero state, flagged vanished, still under its own path:
    shared-outcome detection reads the paths of vanished chains.
    """
    k = len(path)
    end = key[k][0] if k < len(key) else len(STAGES) - 1
    if path:
        for stage in STAGES[i : end + 1]:
            state = protocol.stage_unitaries[stage].linear(state)
    else:
        state = protocol.pilot_state_after(STAGES[end])
    if k == len(key):
        leaves.append((path, state, False))
        return
    for mask in key[k][1]:
        child_path = path + ((end, mask),)
        child = state.masked(mask)
        if child.is_zero():
            below = [[(j, m) for m in masks] for j, masks in key[k + 1 :]]
            leaves.extend((child_path + tail, child, True) for tail in itertools.product(*below))
        else:
            _walk(protocol, key, end + 1, child_path, child, leaves)


# -- coin forms ----------------------------------------------------------------


class _Form(Frozen):
    """A member's coin form: what D reads of the member at every coin, derived once per process.

    Each refined chain is a·h + b·t, with h and t its chains from the two
    basis states, as every stage map and mask is linear, so each entry of D
    is ā·a·<h_i|h_j> + ā·b·<h_i|t_j> + b̄·a·<t_i|h_j> + b̄·b·<t_i|t_j>.
    `setting` is the engine class and hooks of the basis, and `key` the
    member's.  `paths` are the member's leaf paths and `live` those whose
    basis chains are not both zero.  `chains` are (leaf, half, chain) for
    each nonzero basis chain: its leaf's position in `live`, 0 for head or
    1 for tail, and the state.  `own` is sum(D_hh), then sum(D_hh) -
    trace(D_hh), as coin forms (`_terms`).  Hashed by identity.
    """

    __slots__ = ("setting", "key", "paths", "live", "chains", "own")

    def __init__(self, setting: tuple, key: tuple, paths: frozenset, live: tuple, chains: tuple, own: tuple) -> None:
        for name, value in zip(self.__slots__, (setting, key, paths, live, chains, own)):
            setfield(self, name, value)


@lru_cache(maxsize=BASIS_SETTINGS)
def _basis(engine: type, flip_ok_sign: bool, corrupt_preparation: bool) -> tuple:
    """Engines of this class and hook setting at the coins (1, 0) and (0, 1): the basis every coin form reads.

    They walk the forms' chains from their own pilot caches.
    """
    return tuple(engine(coin, flip_ok_sign=flip_ok_sign, corrupt_preparation=corrupt_preparation)
                 for coin in ((1, 0), (0, 1)))


@lru_cache(maxsize=FORM_MEMBERS)
def _form(engine: type, flip_ok_sign: bool, corrupt_preparation: bool, events: tuple[HistoryEvent, ...],
          union_stages: tuple[StageId, ...]) -> _Form:
    """The coin form of the member with these events refined over union stages, for an engine class and hooks.

    Its own block of D is one gram of its nonzero basis chains.
    """
    setting = (engine, flip_ok_sign, corrupt_preparation)
    key = _member_key(events, union_stages)
    head, tail = _basis(*setting)
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
    return _Form(setting, key, frozenset([path for path, _, _ in heads]), tuple([path for path, *_ in live]), chains,
                 (_terms(total), _terms([s - t for s, t in zip(total, trace)])))


@lru_cache(maxsize=PAIR_FORMS)
def _pair_form(a: _Form, b: _Form) -> tuple:
    """A pair's block D_ab as coin forms (`_terms`): (its sum, its entries between different paths, shared).

    One gram of the two forms' nonzero basis chains, smaller key first, so
    the forms do not depend on a family's order (D_ba is D_ab's adjoint, and
    what a report reads is symmetric).  An entry zero at every coin, or
    equal to another, is left out.  `shared` is whether a and b share a path.
    """
    if b.key < a.key:
        a, b = b, a
    head, _ = _basis(*a.setting)
    d = [[[0] * 4 for _ in b.live] for _ in a.live]
    total = [0] * 4
    for (i, p, _), row in zip(a.chains, head.gram([c for _, _, c in a.chains], [c for _, _, c in b.chains])):
        for (j, q, _), x in zip(b.chains, row):
            d[i][j][2 * p + q] += x
            total[2 * p + q] += x
    cross = []
    for pa, row in zip(a.live, d):
        for pb, entry in zip(b.live, row):
            terms = _terms(entry)
            if pa != pb and terms and terms not in cross:
                cross.append(terms)
    return _terms(total), tuple(cross), not a.paths.isdisjoint(b.paths)


def _terms(coefficients: list) -> tuple:
    """A coin form as its nonzero terms, flat: (weight index, coefficient, ...).

    Most forms a report reads have none or one term.
    """
    return tuple([x for k, c in enumerate(coefficients) if c for x in (k, c)])


def _weights(coin: tuple) -> tuple:
    """(ā·a, ā·b, b̄·a, b̄·b) at the coin (a, b): the weights of a coin form's HH, HT, TH and TT."""
    a, b = coin
    ca, cb = a.conjugate(), b.conjugate()
    return ca * a, ca * b, cb * a, cb * b


def _modulus(weights: tuple, form: tuple):
    """|value| of a nonzero coin form (`_terms`) at the coin whose weights these are; one term needs no sum."""
    if len(form) == 2:
        k, c = form
        return abs(weights[k] * c)
    return abs(sum([weights[k] * c for k, c in zip(form[::2], form[1::2])]))


#: Stage indices at which nothing is recorded: a member refined there is refused.
_UNRECORDED = sum(1 << i for i, stage in enumerate(STAGES) if stage not in RECORDED_VAR)


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
    alternatives).  Every number is a coin form evaluated at the engine's
    coin.  A member refined at a stage that records nothing is refused
    before any walk.
    """
    names = [h.name for h in family]
    if len(set(names)) != len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"family members need distinct names (repeated: {', '.join(repeated)})")
    union = 0
    for h in family:
        union |= _stage_bits(h.events)
    union_stages = _stages_of(union)
    if union & _UNRECORDED:
        for h in family:
            _member_key(h.events, union_stages)  # refuses a refinement at a stage that records nothing
    engine, flip_ok_sign, corrupt_preparation = type(protocol), protocol.flip_ok_sign, protocol.corrupt_preparation
    forms = [_form(engine, flip_ok_sign, corrupt_preparation, h.events, union_stages) for h in family]
    pair_forms = [_pair_form(fa, fb) if id(fa) <= id(fb) else _pair_form(fb, fa)
                  for fa, fb in itertools.combinations(forms, 2)]
    weights = _weights(protocol.coin_amplitudes)
    zero = abs(weights[0] * 0)  # a number of the engine: the Surd 0 on the exact engine
    probability, defect = {}, {}
    for name, form in zip(names, forms):
        p, d = form.own
        probability[name] = _modulus(weights, p) if p else zero
        defect[name] = _modulus(weights, d) if d else zero
    additive = {name: _negligible(d) for name, d in defect.items()}
    pairs = []
    for (a, b), (total, entries, shared) in zip(itertools.combinations(names, 2), pair_forms):
        off = _modulus(weights, total) if total else zero
        cross = max([_modulus(weights, entry) for entry in entries]) if entries else zero
        ok = additive[a] and additive[b] and not shared and _negligible(off) and _negligible(cross)
        pairs.append(PairVerdict(a, b, off, cross, shared, ok))
    return ConsistencyReport(tuple(names), union_stages, probability, defect, tuple(pairs))


# -- the two historical claims shipped with the protocol ---------------------


def okok_fine_history(protocol: Engine) -> History:
    """tail coin, spin up, then both para-experimenters record ok."""
    return history(protocol, "h1", [("r", "tail"), ("z", "+"), ("w1", "ok"), ("w2", "ok")])


def okok_coarse_history(protocol: Engine) -> History:
    """tail coin and a final ok from W2, with z and w1 left unexamined."""
    return history(protocol, "h1prime", [("r", "tail"), ("w2", "ok")])
