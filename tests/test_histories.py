"""Chained-projection probabilities and joint-considerability checks."""

import itertools

import numpy as np
import pytest

from ewflab import born
from ewflab.histories import (
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
from ewflab.protocol import GLOBAL_SPACE, RECORDERS, STAGES, Protocol, StageId, record_mask
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
            spec = protocol.measurement(var)
            stage = RECORDERS[var][1]
            prev = StageId(stage.value - 1)
            before = protocol.pilot_state_after(prev)
            dist = born.outcome_distribution(before, spec)
            for label in spec.outcome_labels:
                h = history(protocol, f"{var}-{label}", [(var, label)])
                assert history_probability(protocol, h) == pytest.approx(
                    dist.prob((label,)), abs=1e-12
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


def _leafwise_fine_chains(protocol, h, union_stages):
    """Reference refinement: one chain_vector per leaf, no shared prefixes."""
    own = {e.stage: e for e in h.events}
    slots = [[own[s]] if s in own else _record_refinement_events(s) for s in union_stages]
    return [
        (tuple(e.label for e in events), chain_vector(protocol, events))
        for events in itertools.product(*slots)
    ]


def _event(protocol, var, label, stage=None):
    if label == "0":  # the ready label is no outcome; build its event directly
        return HistoryEvent(stage, record_mask(var, label), f"{var}={label}")
    return outcome_event(protocol, var, label, stage)


def _family(protocol, spec):
    """spec: {name: [(var, label, stage or None), ...]}"""
    return [
        History(name, tuple(sorted((_event(protocol, *ev) for ev in evs), key=lambda e: e.stage.value)))
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


@pytest.mark.parametrize("coin", [None, (0.6, 0.8)])
@pytest.mark.parametrize("family_name", sorted(ORACLE_FAMILIES))
def test_fine_chains_match_leafwise_oracle(family_name, coin):
    """The prefix-shared walk returns the per-leaf chains, keys and bits alike."""
    protocol = Protocol(coin)
    family = _family(protocol, ORACLE_FAMILIES[family_name])
    union = tuple(sorted({e.stage for h in family for e in h.events}, key=lambda s: s.value))
    for h in family:
        got = _fine_chains(protocol, h, union)
        want = _leafwise_fine_chains(protocol, h, union)
        assert [k for k, _ in got] == [k for k, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert np.array_equal(g.amps, w.amps)


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
        mask = record_mask(var, label)
        assert np.array_equal(mask * mask, mask)
        proj = protocol.record_projector(var, label)
        for state in states:
            assert np.array_equal(state.amps * mask, project(proj, state).amps)
