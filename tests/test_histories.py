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
)
from ewflab.histories import (
    CHAIN_MEMO_NODES,
    MEMBER_MEMO_LEAVES,
    PAIR_MEMO_PAIRS,
    EpochMismatchError,
    History,
    HistoryEvent,
    _fine_chains,
    _record_refinement_events,
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
from reference import project


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


def _path(events):
    """The (stage index, mask) of each event, in order: how the walk names a chain."""
    return tuple((STAGES.index(e.stage), e.mask) for e in events)


def _leafwise_fine_chains(protocol, h, union_stages):
    """Reference refinement: one direct chain per leaf, no shared prefixes."""
    own = {e.stage: e for e in h.events}
    slots = [[own[s]] if s in own else _record_refinement_events(s) for s in union_stages]
    return [(_path(events), reference.chain_vector(protocol, events)) for events in itertools.product(*slots)]


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

    The walk stops evolving a chain that a mask has zeroed; the oracle evolves
    every chain to the end, and the zero states must still agree.
    """
    protocol = engine(coin, **hooks)
    family = _family(protocol, ORACLE_FAMILIES[family_name])
    union = tuple(sorted({e.stage for h in family for e in h.events}))
    for h in family:
        got = _fine_chains(protocol, h, union)
        want = _leafwise_fine_chains(protocol, h, union)
        assert [k for k, _ in got] == [k for k, _ in want]
        for (_, g), (_, w) in zip(got, want):
            if engine is Protocol:
                assert np.array_equal(g.amps, w.amps)
            else:
                assert (g.nums, g.den) == (w.nums, w.den)


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
def test_a_cold_sweep_item_makes_15_stage_map_calls(engine, stage_class, monkeypatch):
    """The pilot state (5 maps), h1's chain (4), the 2 of h1prime's not on h1's (MEAS3 and MEAS4
    after r=tail) and the 4 of h1prime's refinement not walked before: each chain node is evolved
    once per engine, and every walk starts from the pilot state after OBS0."""
    calls = []
    linear = stage_class.linear

    def counting(self, state):
        calls.append(self.stage)
        return linear(self, state)

    monkeypatch.setattr(stage_class, "linear", counting)
    _sweep_item(engine((math.cos(1.0), math.sin(1.0))))
    assert len(calls) == 15


@pytest.mark.parametrize("engine, state_class", [(Protocol, StateVector), (ExactProtocol, SparseState)],
                         ids=["dense", "exact"])
def test_a_cold_sweep_item_computes_each_distinct_marginal_once(engine, state_class, monkeypatch):
    """The joints and the final record marginal read 9 record-weight marginals of the pilot states and the
    beable chain 6 config marginals: 15 reads of 11 distinct (state, axes) pairs, each computed once.  The
    pilot walk's ready checks, proven once per stage mapping, read none; before both, an item computed 19
    marginals, these 15 and 4 ready checks."""
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


def test_an_exact_float_coin_sweep_item_divides_77_times(monkeypatch):
    """Each distinct Born ratio is divided out once: 14 in the sequential joint (one per stage, active
    conditions and label), 12 in the marginal joint (one per step and label pair), 49 in the beable chain
    (one kernel row per config and stage); the histories divide nothing.  The two no-collapse reads, the
    marginal joint and the final record marginal, each take one inverse of the total weight they read,
    which a float coin (a binary rational) makes other than 1."""
    calls = []
    inverse = Surd.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Surd, "inverse", counting)
    _sweep_item(ExactProtocol((math.cos(1.0), math.sin(1.0))))
    assert len(calls) == 77


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
def test_a_cold_sweep_item_checks_one_dense_state(hooks, monkeypatch):
    """The initial state is the one checked state: every other is the engine's image of it."""
    checked = []
    init = StateVector.__init__

    def counting(self, space, amps):
        checked.append(space)
        init(self, space, amps)

    monkeypatch.setattr(StateVector, "__init__", counting)
    _sweep_item(Protocol((math.cos(1.0), math.sin(1.0)), **hooks))
    assert len(checked) == 1


@pytest.mark.parametrize("engine, coin, hooks", [p for p in _oracle_engines() if p.values[0] is Protocol])
@pytest.mark.parametrize("family_name", sorted(ORACLE_FAMILIES))
def test_fine_chains_are_trusted_and_finite(family_name, engine, coin, hooks):
    protocol = engine(coin, **hooks)
    family = _family(protocol, ORACLE_FAMILIES[family_name])
    union = tuple(sorted({e.stage for h in family for e in h.events}))
    for h in family:
        for key, state in _fine_chains(protocol, h, union):
            assert state.trusted and np.isfinite(state.amps).all(), key


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_a_vanished_chain_keeps_its_keys(engine):
    """b's one chain vanishes at z=+ after r=head; its path is still one of a's, so the pair fails."""
    protocol = engine()
    a = history(protocol, "a", [("r", "head")])
    b = history(protocol, "b", [("r", "head"), ("z", "+")])
    union = (StageId.OBS0, StageId.OBS2)
    head = (STAGES.index(S.OBS0), record_mask("r", "head"))
    ((path, state),) = _fine_chains(protocol, b, union)
    assert path == (head, (STAGES.index(S.OBS2), record_mask("z", "+"))) and state.is_zero()
    assert [p for p, _ in _fine_chains(protocol, a, union)] == [
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
    """Every node of the first report, the vanished ones included, is a memo hit the second time."""
    protocol = engine()
    family = [okok_fine_history(protocol), okok_coarse_history(protocol),
              history(protocol, "b", [("r", "head"), ("z", "+")])]
    first = chain_consistency_report(protocol, family)
    assert any(vanished for _, vanished in protocol.history_memos[0].values())
    calls = []
    masked = state_class.masked

    def counting(self, mask):
        calls.append(mask)
        return masked(self, mask)

    monkeypatch.setattr(state_class, "masked", counting)
    second = chain_consistency_report(protocol, family)
    assert calls == []
    assert (second.probability, second.additivity_defect, second.pairs) == (
        first.probability, first.additivity_defect, first.pairs)


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
def test_a_repeated_report_on_a_warm_engine_walks_nothing(engine, monkeypatch):
    """Every member of the first report is read from the member memo the second time: no `_walk` call."""
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
    """A warm query (each P[h], then the report) reads every member's block and every pair's from the memos:
    no walk, no gram and no inner product, with every answer as before."""
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
    """On a fresh exact engine a report over N live refined leaves makes N(N+1)/2 inner products, one per
    distinct entry of D, as one gram of all its leaves does: each member's block and each pair's once."""
    for case, family in _oracle_families(ExactProtocol()):
        union = tuple(sorted({e.stage for h in family for e in h.events}))
        protocol = ExactProtocol()
        n = sum(not v.is_zero() for h in family for _, v in _fine_chains(protocol, h, union))
        products = _count_products(ExactProtocol, monkeypatch)
        chain_consistency_report(protocol, family)
        assert products.count("inner") == n * (n + 1) // 2, case
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


@pytest.mark.parametrize("flags", list(ORACLE_PROTOCOLS.values()), ids=list(ORACLE_PROTOCOLS))
def test_report_matches_pairwise_oracle(flags):
    """One decoherence matrix gives the pairwise loop's verdicts and numbers."""
    protocol = Protocol(**flags)
    cases = list(_oracle_families(protocol))
    assert len(cases) == len(ORACLE_FAMILIES) + 26
    for case, family in cases:
        got = chain_consistency_report(protocol, family)
        want = reference.chain_consistency_report(protocol, family)
        assert got.family == want.family, case
        assert got.union_stages == want.union_stages, case
        assert got.consistent == want.consistent, case
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


@pytest.mark.parametrize("flags", list(ORACLE_PROTOCOLS.values()), ids=list(ORACLE_PROTOCOLS))
def test_history_probability_is_the_direct_chain_norm_bit_for_bit(flags):
    protocol = Protocol(**flags)
    for _, family in _oracle_families(protocol):
        for h in family:
            want = reference.chain_vector(protocol, h.events).norm() ** 2
            assert history_probability(protocol, h) == want, h.describe()


#: 20 seeded decimal coins, typed as the command line reads them
DECIMAL_COINS = [
    (repr(a), repr(math.sqrt(1 - a * a))) for a in (random.Random(1993).uniform(0.05, 0.99) for _ in range(20))
]
PROBABILITY_CASES = (
    [pytest.param(None, {}, id="default")]
    + [pytest.param(coin, {}, id=f"decimal{i}") for i, coin in enumerate(DECIMAL_COINS)]
    + [pytest.param(None, {hook: True}, id=hook) for hook in ("flip_ok_sign", "corrupt_preparation")]
)


@pytest.mark.parametrize("coin, hooks", PROBABILITY_CASES)
def test_report_probability_is_the_member_chain_probability(coin, hooks):
    """P[h] read off D equals the walked chain's: exactly on the exact engine, within 1e-15 on the dense one."""
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


# -- the chain memo: one evolution per node and engine, bounded ---------------


def _bits(state):
    """A chain vector's exact contents: the dense amplitudes' bytes, or the exact numerators and denominator."""
    return state.amps.tobytes() if isinstance(state, StateVector) else (state.nums, state.den)


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
def test_a_caller_built_record_mask_reads_the_engines_node(engine):
    """A mask is a value: an equal `RecordMask` a caller built keys the node the engine's own mask stored."""
    protocol = engine()
    tail, ok = outcome_event(protocol, "r", "tail"), outcome_event(protocol, "w1", "ok")
    node = chain_vector(protocol, (tail, ok))
    assert not node.is_zero()
    memo = dict(protocol.history_memos[0])
    copied = HistoryEvent(S.OBS0, RecordMask(*tail.mask), tail.label)
    assert copied.mask is not tail.mask
    assert chain_vector(protocol, (copied, ok)) is node
    assert protocol.history_memos[0] == memo


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
def test_history_memos_belong_to_one_engine(engine, coin):
    """Two engines with equal coins and hooks share their stages but no memo: a report on the first leaves
    the second's memos empty, and the second's own report, equal to the first's, leaves the first's as they
    were, entries, values and order."""
    first, second = engine(coin, flip_ok_sign=True), engine(coin, flip_ok_sign=True)
    assert first.stage_unitaries is second.stage_unitaries
    family = [okok_fine_history(first), okok_coarse_history(first), history(first, "b", [("r", "head"), ("z", "+")])]
    want = chain_consistency_report(first, family)
    snapshot = [list(memo.items()) for memo in first.history_memos]
    assert all(snapshot)
    assert [len(memo) for memo in second.history_memos] == [0, 0, 0]
    got = chain_consistency_report(second, family)
    assert (got.probability, got.additivity_defect, got.pairs) == (
        want.probability, want.additivity_defect, want.pairs)
    assert [len(memo) for memo in second.history_memos] == [len(entries) for entries in snapshot]
    assert [list(memo.items()) for memo in first.history_memos] == snapshot
    assert all(a is not b for a, b in zip(first.history_memos, second.history_memos))


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
    events += [e for stage in RECORDED_VAR for e in _record_refinement_events(stage)]
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


#: the oracle families, then staged ones, the last of them wide: together they reach more chain nodes, members
#: and member pairs than the memos hold
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
    """Families past all three memos' bounds, then again, then in reverse order: every answer is a fresh
    engine's."""
    fresh = [_answers(engine(coin), spec) for spec in MEMO_SPECS]
    protocol = engine(coin)
    for order in (1, 1, -1):
        specs = list(enumerate(MEMO_SPECS))[::order]
        for i, spec in specs:
            assert _answers(protocol, spec) == fresh[i], i
            assert len(protocol.history_memos[0]) <= CHAIN_MEMO_NODES
            assert len(protocol.history_memos[1]) <= MEMBER_MEMO_LEAVES
            assert len(protocol.history_memos[2]) <= PAIR_MEMO_PAIRS
        assert len(protocol.history_memos[0]) == CHAIN_MEMO_NODES
        assert len(protocol.history_memos[1]) == MEMBER_MEMO_LEAVES
        assert len(protocol.history_memos[2]) == PAIR_MEMO_PAIRS
        assert all(vanished == state.is_zero() for state, vanished in protocol.history_memos[0].values())
        assert all(vanished == state.is_zero()
                   for member in protocol.history_memos[1].values() for _, state, vanished in member.leaves)
