"""Chained-projection probabilities and joint-considerability checks."""

import gc
import itertools
import math
import random
import sys

import numpy as np
import pytest

from ewflab import bellbohm, born, histories
from ewflab.exact import (
    RECORDED_VAR,
    ExactProtocol,
    RecordMask,
    SparseState,
    StageMap,
    Surd,
    _basis,
)
from ewflab.histories import (
    FORM_MEMBERS,
    PAIR_FORMS,
    PROBABILITY_MEMO_HISTORIES,
    EpochMismatchError,
    History,
    HistoryEvent,
    chain_consistency_report,
    chain_vector,
    history,
    history_probability,
    okok_coarse_history,
    okok_fine_history,
    outcome_event,
)
from ewflab.linalg import StateVector
from ewflab.protocol import (
    GLOBAL_SPACE,
    OUTCOME_LABELS,
    RECORDERS,
    STAGES,
    Protocol,
    StageId,
    StageUnitary,
    _mask_array,
    record_mask,
)
import reference
from fresh import forget_history_caches
from reference import fine_chains, project


class TestHistoryProbability:
    def test_fine_okok_history(self, protocol):
        p = history_probability(protocol, okok_fine_history(protocol))
        assert p == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_coarse_okok_history_vanishes(self, protocol):
        p = history_probability(protocol, okok_coarse_history(protocol))
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_empty_history_has_probability_one(self, protocol):
        assert history_probability(protocol, History("empty", ())) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_event_matches_born_probability(self, protocol):
        """A one-event history is just the Born weight at that epoch."""
        for var in ("r", "z", "w1", "w2"):
            stage = RECORDERS[var][1]
            prev = StageId(stage.value - 1)
            before = protocol.pilot_state_after(prev)
            for label in OUTCOME_LABELS[var]:
                h = history(protocol, f"{var}-{label}", [(var, label)])
                assert history_probability(protocol, h) == pytest.approx(
                    reference.outcome_weight(protocol, before, [(var, label)]), abs=1e-12
                )

    def test_event_stages_must_increase(self, protocol):
        e1 = outcome_event(protocol, "z", "+")
        e2 = outcome_event(protocol, "r", "tail")
        with pytest.raises(ValueError):
            History("backwards", (e1, e2))

    def test_unknown_outcome_rejected(self, protocol):
        with pytest.raises(ValueError):
            outcome_event(protocol, "r", "ok")


class TestCoarseGraining:
    def test_additivity_on_consistent_refinement(self, protocol):
        """Summing over a refining event reproduces the coarse probability."""
        coarse = history(protocol, "w2ok", [("w2", "ok")])
        p_coarse = history_probability(protocol, coarse)
        p_sum = sum(
            history_probability(
                protocol, history(protocol, f"f-{w1}", [("w1", w1), ("w2", "ok")])
            )
            for w1 in ("ok", "fail")
        )
        assert p_coarse == pytest.approx(p_sum, abs=1e-11)

    def test_nonadditivity_of_the_coarse_okok_history(self, protocol):
        """The coarse tail/ok history is NOT the sum of its refinements."""
        p_coarse = history_probability(protocol, okok_coarse_history(protocol))
        p_sum = sum(
            history_probability(
                protocol,
                history(protocol, f"f-{z}-{w1}", [("r", "tail"), ("z", z), ("w1", w1), ("w2", "ok")]),
            )
            for z in ("+", "-")
            for w1 in ("ok", "fail")
        )
        assert abs(p_coarse - p_sum) > 0.3  # 0 vs 1/3


class TestConsistencyReport:
    def test_final_record_family_is_consistent(self, protocol):
        family = [
            history(protocol, f"{a}-{b}", [("w1", a), ("w2", b)])
            for a in ("ok", "fail")
            for b in ("ok", "fail")
        ]
        report = chain_consistency_report(protocol, family)
        assert report.consistent
        for pair in report.pairs:
            assert pair.direct_offdiagonal <= 1e-10
            assert pair.cross_interference <= 1e-10

    def test_fine_and_coarse_okok_not_jointly_considerable(self, protocol):
        report = chain_consistency_report(
            protocol, [okok_fine_history(protocol), okok_coarse_history(protocol)]
        )
        assert not report.consistent
        (pair,) = report.pairs
        assert not pair.consistent
        # the coarse history's refinement over the shared epochs is non-additive
        assert report.additivity_defect["h1prime"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        # and its refinements genuinely interfere
        assert pair.cross_interference > 1e-3
        # the fine history is among the coarse one's refinements
        assert pair.shared_fine_outcomes

    def test_single_history_family_trivially_consistent(self, protocol):
        report = chain_consistency_report(protocol, [okok_fine_history(protocol)])
        assert report.consistent
        assert report.pairs == ()

    def test_duplicate_names_rejected(self, protocol):
        h = okok_fine_history(protocol)
        with pytest.raises(ValueError):
            chain_consistency_report(protocol, [h, h])

    def test_event_outside_recording_stages_rejected(self, protocol):
        ev = outcome_event(protocol, "r", "tail", stage=StageId.PREP1)
        odd = History("odd", (ev,))
        other = history(protocol, "normal", [("w2", "ok")])
        with pytest.raises(EpochMismatchError):
            chain_consistency_report(protocol, [odd, other])


# -- record masks and prefix-shared refinement --------------------------------


def _refinement_events(stage):
    """The record decomposition at a recording stage as labelled events, the ready label's included."""
    var = RECORDED_VAR[stage]
    labels = GLOBAL_SPACE.factors[RECORDERS[var][0].memory_axis].labels
    return [HistoryEvent(stage, record_mask(var, label), f"{var}={label}") for label in labels]


def _walked(protocol, h, union_stages):
    """The package's leaves of h refined over union stages: (path, state), a zero state ending its branch."""
    return histories._leaves(protocol, histories._member_key(h.events, union_stages))


def _event(protocol, var, label, stage=None):
    if label == "0":  # the ready label is no outcome; build its event directly
        return HistoryEvent(stage, record_mask(var, label), f"{var}={label}")
    return outcome_event(protocol, var, label, stage)


def _family(protocol, spec):
    """spec: {name: [(var, label, stage or None), ...]}"""
    return [
        History(name, tuple(sorted((_event(protocol, *ev) for ev in evs), key=lambda e: e.stage)))
        for name, evs in spec.items()
    ]


S = StageId
ORACLE_FAMILIES = {
    "default": {
        "h1": [("r", "tail", None), ("z", "+", None), ("w1", "ok", None), ("w2", "ok", None)],
        "h1prime": [("r", "tail", None), ("w2", "ok", None)],
    },
    "final-records": {
        "a": [("w1", "ok", None), ("w2", "ok", None)],
        "b": [("w1", "fail", None), ("w2", "ok", None)],
        "c": [("w1", "ok", None), ("w2", "fail", None)],
        "d": [("z", "-", None)],
    },
    "explicit-stages": {
        "a": [("r", "tail", None), ("w2", "ok", S.MEAS4)],
        "b": [("r", "head", None), ("z", "+", S.OBS2)],
        "c": [("w2", "ok", S.OBS2), ("w1", "fail", None)],
        "d": [("r", "head", S.MEAS3)],
    },
    "prep-minus1": {
        "a": [("r", "tail", S.PREP_MINUS1), ("w2", "ok", None)],
        "b": [("z", "0", S.PREP_MINUS1), ("w1", "ok", None)],
        "c": [("r", "0", S.PREP_MINUS1)],
    },
    "empty-member": {
        "e": [],
        "f": [("r", "head", None), ("z", "-", None), ("w1", "fail", None)],
    },
}


def _oracle_engines():
    """(engine, coin, hooks): both engines, two coins, with and without a corrupt preparation.

    The dense engine's clean runs keep their ids, "None" and "coin1".
    """
    coins = {"None": (None, None), "coin1": ((0.6, 0.8), ("0.6", "0.8"))}
    for hooks, suffix in (({}, ""), ({"corrupt_preparation": True}, "-corrupt-preparation")):
        for coin_id, (dense_coin, exact_coin) in coins.items():
            yield pytest.param(Protocol, dense_coin, hooks, id=coin_id + suffix)
            yield pytest.param(ExactProtocol, exact_coin, hooks, id=f"{coin_id}-exact{suffix}")


@pytest.mark.parametrize("engine, coin, hooks", _oracle_engines())
@pytest.mark.parametrize("family_name", sorted(ORACLE_FAMILIES))
def test_fine_chains_match_leafwise_oracle(family_name, engine, coin, hooks):
    """The prefix-shared walk returns the per-leaf chains, paths and bits alike.

    The walk ends a branch where a mask zeroes it, under the path so far; the
    oracle evolves every leaf to the end.  Each oracle leaf lies below exactly
    one walked leaf, in order: a full-length one with its bits, or a zero one
    whose oracle leaves are all zero.
    """
    protocol = engine(coin, **hooks)
    family = _family(protocol, ORACLE_FAMILIES[family_name])
    union = tuple(sorted({e.stage for h in family for e in h.events}))
    for h in family:
        want = fine_chains(protocol, h, union)
        i = 0
        for path, g in _walked(protocol, h, union):
            below = list(itertools.takewhile(lambda leaf: leaf[0][: len(path)] == path, want[i:]))
            assert below, path
            for full, w in below:
                if full != path:
                    assert g.is_zero() and w.is_zero(), full
                elif engine is Protocol:
                    assert np.array_equal(g.amps, w.amps)
                else:
                    assert (g.nums, g.den) == (w.nums, w.den)
            i += len(below)
        assert i == len(want)


def _sweep_item(protocol) -> None:
    """What an item of the benchmark's coin-sweep computes (`perfbench/workloads._sweep_item`)."""
    protocol.pilot_state_after(StageId.MEAS4)
    born.joint_distribution(protocol, born.CollapsePolicy.SEQUENTIAL_PROJECTION)
    born.joint_distribution(protocol, born.CollapsePolicy.NO_COLLAPSE_MARGINAL)
    bellbohm.exact_chain(protocol)
    h1, h1prime = okok_fine_history(protocol), okok_coarse_history(protocol)
    history_probability(protocol, h1)
    history_probability(protocol, h1prime)
    chain_consistency_report(protocol, [h1, h1prime])
    born.final_record_marginal(protocol)


@pytest.mark.parametrize("engine, stage_class", [(Protocol, StageUnitary), (ExactProtocol, StageMap)],
                         ids=["dense", "exact"])
def test_a_cold_sweep_item_makes_no_stage_map_call_at_its_coin(engine, stage_class, monkeypatch):
    """P[h1], P[h1prime] and the report are read off coin forms, and every pilot state and marginal off the
    basis engines' pilot states, so an item applies no stage map at its coin.  The first item in a process
    walks the basis, once per process and hook setting: each basis engine's pilot walk (5 each) and the
    forms' walks, each evolving its own tree, on the head engine nothing more (r=tail zeroes every head
    chain) and on the tail engine 16: h1's 4 (PREP1 and OBS2 after r=tail, MEAS3 after z=+, MEAS4 after
    w1=ok), h1prime's own chain's 4 (PREP1 to MEAS4 after r=tail) and its refinement's 8 (PREP1 and OBS2
    after r=tail, MEAS3 after z=+ and after z=-, MEAS4 after each of the four live (z, w1) outcomes): 26.
    While the coin's own pilot state was walked, an item made 5 calls and the first 23."""
    calls = []
    linear = stage_class.linear

    def counting(self, state):
        calls.append(self.stage)
        return linear(self, state)

    monkeypatch.setattr(stage_class, "linear", counting)
    forget_history_caches()
    counts = []
    for theta in (1.0, 0.7, 0.3):
        calls.clear()
        _sweep_item(engine((math.cos(theta), math.sin(theta))))
        counts.append(len(calls))
    assert counts == [26, 0, 0]


@pytest.mark.parametrize("engine, stage_class, state_class", [(Protocol, StageUnitary, StateVector),
                                                              (ExactProtocol, StageMap, SparseState)],
                         ids=["dense", "exact"])
def test_history_probability_walks_no_chain_at_its_coin(engine, stage_class, state_class, monkeypatch):
    """Once the process holds the forms, P[h] on a fresh engine at a new coin applies no stage map and no
    mask; its P[h] memo holds one entry per event tuple."""
    family = _family(engine(), ORACLE_FAMILIES["default"]) + _family(engine(), ORACLE_FAMILIES["final-records"])
    for h in family:
        history_probability(engine((0.6, 0.8)), h)
    calls = []
    for cls, name in ((stage_class, "linear"), (state_class, "masked")):
        original = getattr(cls, name)
        monkeypatch.setattr(cls, name,
                            lambda self, x, name=name, original=original: calls.append(name) or original(self, x))
    protocol = engine((math.cos(0.3), math.sin(0.3)))
    for h in family:
        history_probability(protocol, h)
    assert calls == []
    assert len(protocol.probability_memo) == len({h.events for h in family})


@pytest.mark.parametrize("engine, state_class", [(Protocol, StateVector), (ExactProtocol, SparseState)],
                         ids=["dense", "exact"])
def test_a_cold_sweep_item_computes_each_distinct_marginal_once(engine, state_class, monkeypatch):
    """The joints and the final record marginal read 9 record-weight marginals of the pilot states and the
    beable chain 6 config marginals: 15 reads of 11 distinct (state, axes) pairs, each computed once.  The
    basis engines' pilot walks step with `linear`, as no ready check can fail on them, and read none; before
    both, an item computed 19 marginals, these 15 and 4 ready checks.  Beside them the pilot states keep 7
    tuples of read ratios, each divided out once: r at OBS0, and z given r at OBS2, w1 given z at MEAS3 and
    w2 given w1 at MEAS4 under each of the two conditioning labels.  The sequential joint computes all 7 and
    the no-collapse joint, which reads the last three reads, none; before they were shared, the two computed
    13 (7 and 6)."""
    reads, computed = [], []
    marginal = state_class.marginal

    def counting(self, axes):
        reads.append((self, axes))  # holding the state keeps its id unique
        if axes not in (getattr(self, "_marginals", None) or ()):
            computed.append((id(self), axes))
        return marginal(self, axes)

    monkeypatch.setattr(state_class, "marginal", counting)
    _sweep_item(engine((math.cos(1.0), math.sin(1.0))))
    assert len(reads) == 15
    assert sorted(computed) == sorted({(id(state), axes) for state, axes in reads})
    assert len(computed) == 11
    memos = [state._marginals for state, _ in reads]
    assert len({(id(memo), key) for memo in memos for key in memo if type(key[0]) is tuple}) == 7


def test_an_exact_float_coin_sweep_item_inverts_18_numbers(monkeypatch):
    """Each divisor is inverted once, however many weights it divides (`Surd._inv`), and each distinct
    Born ratio is divided out once per pilot state.  The sequential joint inverts 7 conditioning masses:
    r's total at OBS0, then r's two labels at OBS2, z's two at MEAS3 and w1's two at MEAS4; the no-collapse
    joint reads those last 6 ratio tuples off the pilot states and inverts none.  The beable chain inverts
    one denominator per kernel row at a stage that rewrites a memory, and configs that differ only in the
    registers the stage rewrites share their children and so their row: of the 1, 2, 3 and 8 configs it
    reaches before OBS0, OBS2, MEAS3 and MEAS4, 1, 2, 2 and 4 rows, 9 (PREP1 rewrites none and divides
    nothing).  The two no-collapse reads, the marginal joint and the final record marginal, each invert the
    total weight they read, which a float coin (a binary rational) makes other than 1: 2.  The histories
    divide nothing: 7 + 9 + 2 = 18.  When each division inverted its divisor and the two joints divided
    apart, an item made 77: 14 in the sequential joint (one per stage, active conditions and label), 12 in
    the marginal joint (one per step and label pair), 49 in the chain (one per child of positive weight)
    and the 2 totals."""
    calls = []
    inverse = Surd.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Surd, "inverse", counting)
    _sweep_item(ExactProtocol((math.cos(1.0), math.sin(1.0))))
    assert len(calls) == 18


def test_an_exact_float_coin_sweep_item_compares_few_numbers_in_born_and_bellbohm(monkeypatch):
    """The readers test a weight for zero without a comparison: what `born` and `bellbohm` compare is
    `Distribution` validation (a cell against the negative allowance, the total against 1; 39 here) and
    the chain's check that the initial state is ready (1).  With float floors they made 366."""
    callers = []
    compare = Surd._cmp

    def counting(self, other):
        callers.append(sys._getframe(2).f_globals["__name__"])  # the caller of the comparison operator
        return compare(self, other)

    monkeypatch.setattr(Surd, "_cmp", counting)
    _sweep_item(ExactProtocol((math.cos(0.7), math.sin(0.7))))
    assert sum(name in ("ewflab.born", "ewflab.bellbohm") for name in callers) <= 60


@pytest.mark.parametrize("hooks", [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}],
                         ids=["clean", "flip-ok-sign", "corrupt-preparation"])
def test_a_cold_sweep_item_checks_no_dense_state(hooks, monkeypatch):
    """Every state an item reads is the engine's image of a basis engine's initial state: the first item in a
    process checks those two and the initial state of the engine at the probe coin that shows the class's
    initial state linear in the coin (`exact._linear`), and no item checks one of its own.  While the coin's
    own pilot state was walked, its initial state was the one checked state of every item."""
    checked = []
    init = StateVector.__init__

    def counting(self, space, amps):
        checked.append(space)
        init(self, space, amps)

    monkeypatch.setattr(StateVector, "__init__", counting)
    forget_history_caches()
    counts = []
    for theta in (1.0, 0.7):
        checked.clear()
        _sweep_item(Protocol((math.cos(theta), math.sin(theta)), **hooks))
        counts.append(len(checked))
    assert counts == [3, 0]


@pytest.mark.parametrize("engine, coin, hooks", [p for p in _oracle_engines() if p.values[0] is Protocol])
@pytest.mark.parametrize("family_name", sorted(ORACLE_FAMILIES))
def test_fine_chains_are_trusted_and_finite(family_name, engine, coin, hooks):
    protocol = engine(coin, **hooks)
    family = _family(protocol, ORACLE_FAMILIES[family_name])
    union = tuple(sorted({e.stage for h in family for e in h.events}))
    for h in family:
        for key, state in _walked(protocol, h, union):
            assert state.trusted and np.isfinite(state.amps).all(), key


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_a_vanished_chain_keeps_its_keys(engine):
    """b's one chain vanishes at z=+ after r=head; its path is still one of a's, so the pair fails."""
    protocol = engine()
    a = history(protocol, "a", [("r", "head")])
    b = history(protocol, "b", [("r", "head"), ("z", "+")])
    union = (StageId.OBS0, StageId.OBS2)
    head = (STAGES.index(S.OBS0), record_mask("r", "head"))
    ((path, state),) = fine_chains(protocol, b, union)
    assert path == (head, (STAGES.index(S.OBS2), record_mask("z", "+"))) and state.is_zero()
    assert [p for p, _ in fine_chains(protocol, a, union)] == [
        (head, (STAGES.index(S.OBS2), record_mask("z", z))) for z in ("0", "+", "-")]
    (pair,) = chain_consistency_report(protocol, [a, b]).pairs
    assert pair.shared_fine_outcomes and not pair.consistent


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_history_walks_leave_no_reference_cycle(engine):
    """A walk's chains are freed by reference counting, with nothing left for the cycle collector."""
    protocol = engine()
    family = [okok_fine_history(protocol), okok_coarse_history(protocol)]
    chain_consistency_report(protocol, family)  # evolve the pilot state and fill the shared caches
    gc.collect()
    gc.disable()
    try:
        history_probability(protocol, family[0])
        assert gc.collect() == 0
        chain_consistency_report(protocol, family)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("engine, state_class", [(Protocol, StateVector), (ExactProtocol, SparseState)],
                         ids=["dense", "exact"])
def test_a_repeated_report_on_a_warm_engine_masks_nothing(engine, state_class, monkeypatch):
    """The first report's coin forms, whose chains vanish at some masks, are held by the process: a second
    report, on the same engine or on a fresh one, masks nothing."""
    forget_history_caches()
    protocol = engine()
    family = [okok_fine_history(protocol), okok_coarse_history(protocol),
              history(protocol, "b", [("r", "head"), ("z", "+")])]
    first = chain_consistency_report(protocol, family)
    calls = []
    masked = state_class.masked

    def counting(self, mask):
        calls.append(mask)
        return masked(self, mask)

    monkeypatch.setattr(state_class, "masked", counting)
    for reader in (protocol, engine()):
        second = chain_consistency_report(reader, family)
        assert calls == []
        assert (second.probability, second.additivity_defect, second.pairs) == (
            first.probability, first.additivity_defect, first.pairs)


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_a_repeated_report_on_a_warm_engine_walks_nothing(engine, monkeypatch):
    """Every member of the first report is read from the process's coin forms the second time: no `_walk` call."""
    protocol = engine()
    family = [okok_fine_history(protocol), okok_coarse_history(protocol),
              history(protocol, "b", [("r", "head"), ("z", "+")])]
    first = chain_consistency_report(protocol, family)
    calls = []
    walk = histories._walk

    def counted(*args):
        calls.append(args[2])
        return walk(*args)

    monkeypatch.setattr(histories, "_walk", counted)
    second = chain_consistency_report(protocol, family)
    assert calls == []
    assert (second.probability, second.additivity_defect, second.pairs) == (
        first.probability, first.additivity_defect, first.pairs)


def _count_products(engine, monkeypatch) -> list:
    """Record each `gram` call of the engine and, on the exact engine, each `SparseState.inner` call."""
    calls = []
    gram, inner = engine.gram, SparseState.inner

    def counted_gram(*args):
        calls.append("gram")
        return gram(*args)

    def counted_inner(self, other):
        calls.append("inner")
        return inner(self, other)

    monkeypatch.setattr(engine, "gram", staticmethod(counted_gram))
    monkeypatch.setattr(SparseState, "inner", counted_inner)
    return calls


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_a_repeated_family_on_a_warm_engine_computes_no_inner_product(engine, monkeypatch):
    """A warm query (each P[h], then the report) reads each P[h] from the engine's memo and every member's
    block and every pair's from the process's coin forms: no walk, no gram and no inner product, with every
    answer as before."""
    protocol = engine()
    family = [okok_fine_history(protocol), okok_coarse_history(protocol),
              history(protocol, "b", [("r", "head"), ("z", "+")]), history(protocol, "c", [("w1", "fail")])]

    def query():
        return [history_probability(protocol, h) for h in family], chain_consistency_report(protocol, family)

    first_probabilities, first = query()
    walks = []
    walk = histories._walk

    def counted(*args):
        walks.append(args[2])
        return walk(*args)

    monkeypatch.setattr(histories, "_walk", counted)
    products = _count_products(engine, monkeypatch)
    second_probabilities, second = query()
    assert (walks, products) == ([], [])
    assert second_probabilities == first_probabilities
    assert (second.probability, second.additivity_defect, second.pairs) == (
        first.probability, first.additivity_defect, first.pairs)


def test_a_cold_exact_report_reads_each_entry_of_d_once(monkeypatch):
    """With N nonzero basis chains (h_i or t_i) per member, the first report in a process makes N(N+1)/2
    inner products per member, one per distinct entry of its form's block, and N_a*N_b per member pair; a
    report on a fresh engine at another coin then makes none, on either engine."""
    for case, family in _oracle_families(ExactProtocol()):
        union = tuple(sorted({e.stage for h in family for e in h.events}))
        basis = [ExactProtocol(coin) for coin in ((1, 0), (0, 1))]
        chains = [sum(not v.is_zero() for p in basis for _, v in fine_chains(p, h, union)) for h in family]
        pairs = sum(a * b for a, b in itertools.combinations(chains, 2))
        forget_history_caches()
        for coin, want in ((None, sum(n * (n + 1) // 2 for n in chains) + pairs), (("0.6", "0.8"), 0)):
            products = _count_products(ExactProtocol, monkeypatch)
            chain_consistency_report(ExactProtocol(coin), family)
            assert products.count("inner") == want, (case, coin)
            monkeypatch.undo()
    for case, family in _oracle_families(Protocol()):
        chain_consistency_report(Protocol(), family)
        products = _count_products(Protocol, monkeypatch)
        chain_consistency_report(Protocol((0.6, 0.8)), family)
        assert products == [], case
        monkeypatch.undo()


def test_a_tiny_but_nonzero_interference_fails_the_exact_verdict():
    """At the coin (1e-13, 1) the r x w1 family's pairs (a, c) and (b, d) interfere by ~3.5e-14, exactly
    nonzero: the exact engine tests for zero and refuses the family, the dense engine passes it within
    `CONSISTENCY_ATOL`."""
    spec = {name: [("r", r), ("w1", w1)] for name, (r, w1) in
            zip("abcd", itertools.product(("head", "tail"), ("ok", "fail")))}
    for engine, coin, consistent in ((ExactProtocol, ("1e-13", "1"), False), (Protocol, (1e-13, 1.0), True)):
        protocol = engine(coin)
        report = chain_consistency_report(protocol, [history(protocol, n, a) for n, a in spec.items()])
        failed = [(p.left, p.right) for p in report.pairs if not p.consistent]
        assert failed == ([] if consistent else [("a", "c"), ("b", "d")]), engine
        assert report.consistent is consistent, engine
        for p in report.pairs:
            assert (p.direct_offdiagonal > 0) == ((p.left, p.right) in (("a", "c"), ("b", "d"))), (engine, p)
            assert p.direct_offdiagonal < 1e-13 and not p.shared_fine_outcomes, (engine, p)
        verdict = report.render_text().splitlines()[-1]
        assert verdict == ("verdict: consistent family" if consistent else
                           "verdict: family is not jointly considerable"), engine


def test_record_mask_equals_record_projector(protocol):
    """For all 12 (var, label) pairs the mask projects exactly as the spanning set."""
    rng = np.random.default_rng(5)
    dense = StateVector(GLOBAL_SPACE, rng.standard_normal(324) + 1j * rng.standard_normal(324))
    states = [protocol.pilot_state_after(stage) for stage in STAGES] + [dense]
    pairs = [
        (var, label)
        for var, (agent, _) in RECORDERS.items()
        for label in GLOBAL_SPACE.factors[agent.memory_axis].labels
    ]
    assert len(pairs) == 12
    for var, label in pairs:
        mask = _mask_array(record_mask(var, label))
        assert not mask.flags.writeable and np.array_equal(mask * mask, mask)
        proj = protocol.record_projector(var, label)
        for state in states:
            assert np.array_equal(state.amps * mask, project(proj, state).amps)


# -- the decoherence-matrix report against the pairwise oracle ---------------

ORACLE_PROTOCOLS = {
    "default": {},
    "coin-0.6-0.8": {"coin_amplitudes": (0.6, 0.8)},
    "flip-ok-sign": {"flip_ok_sign": True},
    "corrupt-preparation": {"corrupt_preparation": True},
    # a complex amplitude tells <a|b> from a product without conjugation
    "coin-0.6-0.8j": {"coin_amplitudes": (0.6, 0.8j)},
}


#: 20 seeded decimal coins, typed as the command line reads them
DECIMAL_COINS = [
    (repr(a), repr(math.sqrt(1 - a * a))) for a in (random.Random(1993).uniform(0.05, 0.99) for _ in range(20))
]
#: 5 seeded float coins (cos θ, sin θ), read at their binary values
FLOAT_COINS = [(math.cos(t), math.sin(t)) for t in (random.Random(2019).uniform(0.1, 1.4) for _ in range(5))]
HOOK_SETTINGS = {"": {}, "-flip-ok-sign": {"flip_ok_sign": True}, "-corrupt-preparation": {"corrupt_preparation": True}}


def _report_oracle_cases():
    """The dense engine under `ORACLE_PROTOCOLS`, then under each hook setting the exact engine at the
    default coin, both engines at the decimal and float coins (the dense one reads each amplitude as a
    float) and the dense engine at (0.6, 0.8j), a coin the exact engine refuses."""
    for name, flags in ORACLE_PROTOCOLS.items():
        yield pytest.param(Protocol, flags, id=name)
    coins = ([(f"decimal{i}", c) for i, c in enumerate(DECIMAL_COINS)]
             + [(f"float{i}", c) for i, c in enumerate(FLOAT_COINS)])
    for suffix, hooks in HOOK_SETTINGS.items():
        yield pytest.param(ExactProtocol, hooks, id=f"exact-default{suffix}")
        for coin_id, coin in coins:
            yield pytest.param(ExactProtocol, {"coin_amplitudes": coin, **hooks}, id=f"exact-{coin_id}{suffix}")
            dense = {"coin_amplitudes": tuple(map(float, coin)), **hooks}
            yield pytest.param(Protocol, dense, id=f"dense-{coin_id}{suffix}")
        if hooks:  # ORACLE_PROTOCOLS holds it without hooks
            yield pytest.param(Protocol, {"coin_amplitudes": (0.6, 0.8j), **hooks}, id=f"coin-0.6-0.8j{suffix}")


@pytest.mark.parametrize("hooks", HOOK_SETTINGS.values(), ids=list(HOOK_SETTINGS))
def test_every_number_of_an_exact_report_is_a_surd(hooks):
    """Zeros included: a pair with a member that has no live leaf reads the zero form, so its direct
    off-diagonal and cross interference are the Surd 0, as every P[h] and additivity defect is."""
    for coin in (None, *DECIMAL_COINS[:2]):
        protocol = ExactProtocol(coin, **hooks)
        for case, family in _oracle_families(protocol):
            report = chain_consistency_report(protocol, family)
            numbers = [*report.probability.values(), *report.additivity_defect.values()]
            numbers += [x for p in report.pairs for x in (p.direct_offdiagonal, p.cross_interference)]
            assert {type(x) for x in numbers} == {Surd}, (coin, case)


def _grid_families():
    """2-4-member families at canonical stages: single-variable and two-variable
    frameworks, overlapping pairs, coarse-plus-fine triples and three-variable mixes."""
    vars_ = tuple(OUTCOME_LABELS)
    for u in vars_:
        yield {f"{u}={a}": [(u, a)] for a in OUTCOME_LABELS[u]}
    for u, v in itertools.combinations(vars_, 2):
        (a0, a1), (b0, b1) = OUTCOME_LABELS[u], OUTCOME_LABELS[v]
        yield {"p": [(u, a0)], "q": [(v, b0)]}
        yield {f"{a},{b}": [(u, a), (v, b)] for a in (a0, a1) for b in (b0, b1)}
        yield {"f0": [(u, a0), (v, b0)], "f1": [(u, a0), (v, b1)], "coarse": [(u, a1)]}
    for u, v, w in itertools.combinations(vars_, 3):
        (a0, a1), (b0, b1), (c0, c1) = (OUTCOME_LABELS[x] for x in (u, v, w))
        yield {
            "m0": [(u, a0), (v, b0), (w, c0)],
            "m1": [(u, a0), (v, b0), (w, c1)],
            "m2": [(u, a1), (w, c0)],
            "m3": [(v, b1)],
        }


def _oracle_families(protocol):
    for name in sorted(ORACLE_FAMILIES):
        yield name, _family(protocol, ORACLE_FAMILIES[name])
    for i, spec in enumerate(_grid_families()):
        yield f"grid{i}", [history(protocol, name, assignments) for name, assignments in spec.items()]


@pytest.mark.parametrize("engine, flags", _report_oracle_cases())
def test_report_matches_pairwise_oracle(engine, flags):
    """One decoherence matrix, read off coin forms, gives the pairwise loop's verdicts and numbers: exactly
    on the exact engine, within 1e-15 on the dense one."""
    protocol = engine(**flags)
    cases = list(_oracle_families(protocol))
    assert len(cases) == len(ORACLE_FAMILIES) + 26
    for case, family in cases:
        got = chain_consistency_report(protocol, family)
        want = reference.chain_consistency_report(protocol, family)
        assert got.family == want.family, case
        assert got.union_stages == want.union_stages, case
        assert got.consistent == want.consistent, case
        if engine is ExactProtocol:
            assert (got.probability, got.additivity_defect, got.pairs) == (
                want.probability, want.additivity_defect, want.pairs), case
            continue
        assert got.additivity_defect.keys() == want.additivity_defect.keys(), case
        for name, defect in want.additivity_defect.items():
            assert abs(got.additivity_defect[name] - defect) <= 1e-15, (case, name)
        assert got.probability.keys() == want.probability.keys(), case
        for name, p in want.probability.items():
            assert abs(got.probability[name] - p) <= 1e-15, (case, name)
        assert len(got.pairs) == len(want.pairs), case
        for g, w in zip(got.pairs, want.pairs):
            assert (g.left, g.right, g.shared_fine_outcomes, g.consistent) == (
                w.left, w.right, w.shared_fine_outcomes, w.consistent
            ), case
            assert abs(g.direct_offdiagonal - w.direct_offdiagonal) <= 1e-15, (case, g)
            assert abs(g.cross_interference - w.cross_interference) <= 1e-15, (case, g)


@pytest.mark.parametrize("engine, coin", [(Protocol, (0.6, 0.8j)), (ExactProtocol, ("0.6", "0.8"))],
                         ids=["dense", "exact"])
def test_the_oracle_report_walks_none_of_the_package(engine, coin, monkeypatch):
    """The pairwise oracle refines and evolves every chain itself: with the package's walk patched to raise,
    it still answers each oracle family, with the package's verdicts (and, on the exact engine, its numbers)."""
    protocol = engine(coin)
    families = [_family(protocol, ORACLE_FAMILIES[name]) for name in sorted(ORACLE_FAMILIES)]
    reports = [chain_consistency_report(protocol, family) for family in families]

    def refuse(*args):
        raise AssertionError("the oracle walked the package's tree")

    monkeypatch.setattr(histories, "_walk", refuse)
    monkeypatch.setattr(histories, "_leaves", refuse)
    for family, got in zip(families, reports):
        want = reference.chain_consistency_report(protocol, family)
        assert (got.family, got.union_stages, got.consistent) == (want.family, want.union_stages, want.consistent)
        assert [p.shared_fine_outcomes for p in got.pairs] == [p.shared_fine_outcomes for p in want.pairs]
        if engine is ExactProtocol:
            assert (got.probability, got.additivity_defect, got.pairs) == (
                want.probability, want.additivity_defect, want.pairs)


PROBABILITY_CASES = (
    [pytest.param(None, {}, id="default")]
    + [pytest.param(coin, {}, id=f"decimal{i}") for i, coin in enumerate(DECIMAL_COINS)]
    + [pytest.param(None, {hook: True}, id=hook) for hook in ("flip_ok_sign", "corrupt_preparation")]
)


@pytest.mark.parametrize("coin, hooks", PROBABILITY_CASES)
def test_exact_history_probability_is_the_direct_chain_norm(coin, hooks):
    """P[h], read off h's own coin form, is the squared norm of the chain evolved stage by stage at the coin."""
    protocol = ExactProtocol(coin, **hooks)
    for _, family in _oracle_families(protocol):
        for h in family:
            want = reference.norm2(reference.chain_vector(protocol, h.events))
            assert history_probability(protocol, h) == want, h.describe()


@pytest.mark.parametrize("flags", list(ORACLE_PROTOCOLS.values()), ids=list(ORACLE_PROTOCOLS))
def test_dense_history_probability_is_the_one_member_report_probability(flags):
    """On the dense engine P[h] is the coin form's value, the one-member report's bit for bit, and the
    chain evolved stage by stage at the coin has the same squared norm within 1e-15."""
    protocol = Protocol(**flags)
    for _, family in _oracle_families(protocol):
        for h in family:
            got = history_probability(protocol, h)
            assert got == chain_consistency_report(Protocol(**flags), [h]).probability[h.name], h.describe()
            assert abs(got - reference.norm2(reference.chain_vector(protocol, h.events))) <= 1e-15, h.describe()


@pytest.mark.parametrize("coin, hooks", PROBABILITY_CASES)
def test_report_probability_is_the_member_chain_probability(coin, hooks):
    """P[h] read off a family's D, h refined over the family's stages, equals h's own P[h], unrefined: exactly
    on the exact engine, within 1e-15 on the dense one."""
    exact = ExactProtocol(coin, **hooks)
    dense = Protocol(None if coin is None else tuple(map(float, coin)), **hooks)
    for protocol in (exact, dense):
        for case, family in _oracle_families(protocol):
            report = chain_consistency_report(protocol, family)
            assert list(report.probability) == [h.name for h in family], case
            for h in family:
                got, want = report.probability[h.name], history_probability(protocol, h)
                if protocol is exact:
                    assert got == want, (case, h.describe())
                else:
                    assert abs(got - want) <= 1e-15, (case, h.describe())


# -- chains as values, and the P[h] memo: one per engine, bounded ------------


def _bits(state):
    """A chain vector's exact contents: the dense amplitudes' bytes, or the exact numerators and denominator."""
    return state.amps.tobytes() if isinstance(state, StateVector) else (state.nums, state.den)


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_a_list_of_events_builds_what_its_tuple_builds(engine):
    """`History` and `chain_vector` read a list of events as its tuple: the same events, chain, P[h] and report."""
    protocol = engine()
    fine, coarse = okok_fine_history(protocol).events, okok_coarse_history(protocol).events
    listed = [History("h1", list(fine)), History("h1prime", list(coarse))]
    tupled = [History("h1", fine), History("h1prime", coarse)]
    assert [h.events for h in listed] == [fine, coarse] and all(type(h.events) is tuple for h in listed)
    assert _bits(chain_vector(protocol, list(fine))) == _bits(chain_vector(protocol, fine))
    fresh = engine()
    assert [history_probability(protocol, h) for h in listed] == [history_probability(fresh, h) for h in tupled]
    assert chain_consistency_report(protocol, listed) == chain_consistency_report(fresh, tupled)
    with pytest.raises(ValueError, match="^history 'x': event stages must strictly increase$"):
        History("x", list(fine[::-1]))


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_a_reused_label_gets_its_own_chain(engine):
    """A hand-built event that reuses an engine event's label, with another mask at its stage or with
    its mask at another stage, is walked as itself after the engine event's chain: labels key no node."""
    protocol = engine()
    tail, ok = outcome_event(protocol, "r", "tail"), outcome_event(protocol, "w2", "ok")
    impostors = [HistoryEvent(S.OBS0, record_mask("r", "head"), tail.label),
                 HistoryEvent(S.MEAS3, tail.mask, tail.label)]
    honest = _bits(chain_vector(protocol, (tail, ok)))
    for impostor in impostors:
        got = _bits(chain_vector(protocol, (impostor, ok)))
        assert got != honest
        assert got == _bits(chain_vector(engine(), (impostor, ok)))
        family = [History("a", (tail, ok)), History("b", (impostor, ok))]
        got, want = (chain_consistency_report(p, family) for p in (protocol, engine()))
        assert (got.probability, got.additivity_defect, got.pairs) == (
            want.probability, want.additivity_defect, want.pairs)


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_a_caller_built_record_mask_walks_the_engines_chain_bit_for_bit(engine):
    """A mask is a value: an equal `RecordMask` a caller built gives the chain the engine's own mask gives."""
    protocol = engine()
    tail, ok = outcome_event(protocol, "r", "tail"), outcome_event(protocol, "w1", "ok")
    chain = chain_vector(protocol, (tail, ok))
    assert not chain.is_zero()
    copied = HistoryEvent(S.OBS0, RecordMask(*tail.mask), tail.label)
    assert copied.mask is not tail.mask
    assert _bits(chain_vector(protocol, (copied, ok))) == _bits(chain)


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_chain_vector_refuses_events_out_of_stage_order_in_its_own_name(engine):
    """No `History` is built on this path, so the refusal names `chain_vector`, not a history."""
    protocol = engine()
    events = (outcome_event(protocol, "w2", "ok"), outcome_event(protocol, "r", "tail"))
    with pytest.raises(ValueError, match="^chain_vector: event stages must strictly increase$"):
        chain_vector(protocol, events)
    with pytest.raises(ValueError, match="^history 'h': event stages must strictly increase$"):
        History("h", events)


@pytest.mark.parametrize("engine, coin", [(Protocol, (0.6, 0.8)), (ExactProtocol, ("0.6", "0.8"))],
                         ids=["dense", "exact"])
def test_a_probability_memo_belongs_to_one_engine(engine, coin):
    """Two engines with equal coins and hooks share their stages and coin forms but no memo: a query (each
    P[h], then the report) on the first fills its P[h] memo and leaves the second's empty; the second's own
    query, equal to the first's, leaves the first's as it was, entries, values and order, and adds no form."""
    first, second = engine(coin, flip_ok_sign=True), engine(coin, flip_ok_sign=True)
    assert first.stage_unitaries is second.stage_unitaries
    family = [okok_fine_history(first), okok_coarse_history(first), history(first, "b", [("r", "head"), ("z", "+")])]

    def query(protocol):
        return [history_probability(protocol, h) for h in family], chain_consistency_report(protocol, family)

    def forms():
        return [cached.cache_info().currsize for cached in (histories._form, histories._pair_form)]

    want_p, want = query(first)
    snapshot = list(first.probability_memo.items())
    held = forms()
    assert snapshot and held[0] <= FORM_MEMBERS and held[1] <= PAIR_FORMS
    assert second.probability_memo == {}
    got_p, got = query(second)
    assert got_p == want_p
    assert (got.probability, got.additivity_defect, got.pairs) == (
        want.probability, want.additivity_defect, want.pairs)
    assert len(second.probability_memo) == len(snapshot)
    assert list(first.probability_memo.items()) == snapshot
    assert first.probability_memo is not second.probability_memo
    assert forms() == held


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_an_engine_keeps_no_history_state_but_its_probability_memo(engine):
    """After P[h], a report and `chain_vector`, a fresh engine holds its coin, hooks, pilot cache, unready
    memory axes, fact results and P[h] memo, beside the stage mapping its hooks share: no chain, no other
    memo.  Its pilot cache holds superpositions of the basis engines' pilot states, which alone walk."""
    protocol = engine()
    family = [okok_fine_history(protocol), okok_coarse_history(protocol)]
    for h in family:
        history_probability(protocol, h)
    chain_consistency_report(protocol, family)
    chain_vector(protocol, family[0].events)
    assert set(vars(protocol)) == {"coin_amplitudes", "flip_ok_sign", "corrupt_preparation", "_pilot_cache",
                                   "_unready_axes", "fact_results", "probability_memo", "stage_unitaries"}
    assert protocol._unready_axes == set()
    assert all(state._pilot[1:] == tuple(engine.pilot_state_after(stage) for engine in _basis(*setting))
               for stage, state in protocol._pilot_cache.items()
               for setting in [(engine, protocol.flip_ok_sign, protocol.corrupt_preparation)])
    assert protocol.stage_unitaries is engine().stage_unitaries
    assert list(protocol.probability_memo) == [h.events for h in family]


@pytest.mark.parametrize("mask", [np.copy(_mask_array(record_mask("r", "tail"))), tuple(record_mask("r", "tail"))],
                         ids=["array", "tuple"])
def test_a_mask_that_is_no_record_mask_is_refused(mask):
    with pytest.raises(TypeError, match="^a history event's mask must be a RecordMask, not (ndarray|tuple)$"):
        HistoryEvent(S.OBS0, mask, "r=tail")


@pytest.mark.parametrize("mask", [RecordMask(4, -1), RecordMask(4, 3)], ids=["negative", "past-the-labels"])
def test_a_record_mask_no_label_has_keeps_nothing_on_both_engines(mask):
    for engine in (Protocol, ExactProtocol):
        assert engine().pilot_state_after(S.MEAS4).masked(mask).is_zero(), engine


def test_equal_labels_mean_equal_stage_and_mask():
    """Every event `outcome_event` and the refinements build, for each variable and label (the ready label
    too) at each stage: two labels are equal exactly when the (stage, mask) pairs are, so the paths that
    name refined chains tell apart exactly the events the printed labels do."""
    protocol = ExactProtocol()
    events = [outcome_event(protocol, var, label, stage)
              for var, labels in OUTCOME_LABELS.items() for label in labels for stage in (None, *STAGES)]
    refinements = {stage: _refinement_events(stage) for stage in RECORDED_VAR}
    assert all(tuple(e.mask for e in refined) == histories._refinement_masks(stage)
               for stage, refined in refinements.items())
    events += [e for refined in refinements.values() for e in refined]
    assert len({(e.stage, e.mask) for e in events}) == len({e.label for e in events}) == 4 * 2 * 6 + 4
    for a, b in itertools.combinations(events, 2):
        assert (a.label == b.label) == ((a.stage, a.mask) == (b.stage, b.mask)), (a.label, b.label)


def _staged_specs(n: int, seed: int, sizes: tuple[int, ...] = (2, 3, 4)) -> list[dict]:
    """n families, of sizes[i % len(sizes)] members, whose events read any variable already recorded at any
    recording stage."""
    rng = random.Random(seed)
    recording = [S.OBS0, S.OBS2, S.MEAS3, S.MEAS4]
    specs = []
    for i in range(n):
        spec = {}
        for name in "abcdefghijkl"[: sizes[i % len(sizes)]]:
            stages = sorted(rng.sample(recording, rng.randint(1, 4)))
            events = []
            for stage in stages:
                var = rng.choice([v for v, (_, at) in RECORDERS.items() if at.value <= stage.value])
                events.append((var, rng.choice(OUTCOME_LABELS[var]), stage))
            spec[name] = events
        specs.append(spec)
    return specs


#: the oracle families, then staged ones, the last of them wide: together they reach more histories, members and
#: member pairs than the P[h] memo and the process's forms hold
MEMO_SPECS = (
    [ORACLE_FAMILIES[name] for name in sorted(ORACLE_FAMILIES)]
    + [{name: [(v, a, None) for v, a in events] for name, events in spec.items()} for spec in _grid_families()]
    + _staged_specs(80, seed=15)
    + _staged_specs(40, seed=16, sizes=(12,))
)


def _answers(protocol, spec) -> tuple:
    """Everything a family's histories answer, exactly: the report, each P[h] and each chain's bits."""
    family = _family(protocol, spec)
    report = chain_consistency_report(protocol, family)
    return (report.union_stages, report.probability, report.additivity_defect, report.pairs,
            [history_probability(protocol, h) for h in family],
            [_bits(chain_vector(protocol, h.events)) for h in family])


@pytest.mark.parametrize("engine, coin", [(Protocol, (0.6, 0.8j)), (ExactProtocol, ("0.6", "0.8"))],
                         ids=["dense", "exact"])
def test_a_long_lived_engine_holds_at_most_the_bound_and_answers_as_a_fresh_one(engine, coin):
    """Families past the P[h] memo's bound and the process's form and pair-form bounds, then again, then in
    reverse order: every answer is a fresh engine's."""
    fresh = [_answers(engine(coin), spec) for spec in MEMO_SPECS]
    protocol = engine(coin)
    bounds = [PROBABILITY_MEMO_HISTORIES, FORM_MEMBERS, PAIR_FORMS]

    def sizes():
        return [len(protocol.probability_memo)] + [
            cached.cache_info().currsize for cached in (histories._form, histories._pair_form)]

    for order in (1, 1, -1):
        specs = list(enumerate(MEMO_SPECS))[::order]
        for i, spec in specs:
            assert _answers(protocol, spec) == fresh[i], i
            assert all(size <= bound for size, bound in zip(sizes(), bounds)), i
        assert sizes() == bounds
        family = _family(protocol, MEMO_SPECS[-1])
        union = tuple(sorted({e.stage for h in family for e in h.events}))
        for h in family:  # leaves walked on the long-lived engine: a zero one may end its branch early
            leaves = [(path, _bits(state)) for path, state in _walked(protocol, h, union)]
            assert leaves == [(path, _bits(state)) for path, state in _walked(engine(coin), h, union)]
            assert all(len(path) == len(union) for path, state in _walked(protocol, h, union) if not state.is_zero())


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_a_probability_memo_hit_keeps_the_store_order_and_the_oldest_key_goes_first(engine, monkeypatch):
    """Histories A, B, then A again: every P[h] of A is a hit, which walks nothing, and the memo's keys stay
    in the order B left them.  At the bound a new history evicts the first key stored, however recently it
    was read."""
    protocol = engine()
    a = [okok_fine_history(protocol), okok_coarse_history(protocol)]
    b = [history(protocol, "b", [("r", "head"), ("z", "+")]), history(protocol, "c", [("w1", "fail")])]
    memo = protocol.probability_memo
    first = [history_probability(protocol, h) for h in a + b]
    after_b = list(memo)
    assert after_b == [h.events for h in a + b]
    walks = []
    walk = histories._walk

    def counted(*args):
        walks.append(args[2])
        return walk(*args)

    monkeypatch.setattr(histories, "_walk", counted)
    assert [history_probability(protocol, h) for h in a] == first[:2]
    assert (walks, list(memo)) == ([], after_b)
    monkeypatch.setattr(histories, "PROBABILITY_MEMO_HISTORIES", len(after_b))
    new = history(protocol, "d", [("z", "-")])
    history_probability(protocol, new)
    assert list(memo) == after_b[1:] + [new.events]


@pytest.mark.parametrize("engine, coin", [(Protocol, (0.6, 0.8j)), (ExactProtocol, ("0.6", "0.8"))],
                         ids=["dense", "exact"])
def test_a_warm_engines_report_equals_a_fresh_engines(engine, coin):
    """A report is a value: after the oracle families and some staged ones, a warm engine's report on each
    oracle family is equal, field for field, to a fresh engine's."""
    warm = engine(coin)
    for spec in MEMO_SPECS[: len(ORACLE_FAMILIES) + 20]:
        chain_consistency_report(warm, _family(warm, spec))
    for name in sorted(ORACLE_FAMILIES):
        fresh = engine(coin)
        got = chain_consistency_report(warm, _family(warm, ORACLE_FAMILIES[name]))
        want = chain_consistency_report(fresh, _family(fresh, ORACLE_FAMILIES[name]))
        assert got is not want
        assert got == want, name
