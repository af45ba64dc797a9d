"""Stage order derived once per event tuple: ordered, checked events and union stages from bitmasks.

`history` reads its ordered events from a cache keyed by the assignments,
`History` checks each distinct event tuple's order once, and a report reads
its union stages off the OR of its members' stage bitmasks.  A refusal is
never cached, so each one still names the history being built; and none of
this changes what a report finds.
"""

import itertools

import pytest

from ewflab import histories
from ewflab.cli import _parse_history_spec
from ewflab.exact import RECORDED_VAR, ExactProtocol, StageId
from ewflab.histories import (
    EpochMismatchError,
    History,
    chain_consistency_report,
    history,
    history_probability,
    in_stage_order,
    outcome_event,
)
from ewflab.protocol import OUTCOME_LABELS, Protocol
from fresh import forget_history_caches

ENGINES = [Protocol, ExactProtocol]
S = StageId
REFUSAL = "event stages must strictly increase"


def _counting(monkeypatch, owner, name: str) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_a_repeated_query_on_a_warm_engine_compares_no_stage_and_checks_no_order(engine, monkeypatch):
    """The second identical query (each history built, its P[h], then the report) reads its ordered
    events, their order check and its union stages from caches: no `StageId` comparison, no check."""
    protocol = engine()
    spec = [("h1", [("w2", "ok"), ("w1", "ok"), ("z", "+"), ("r", "tail")]), ("b", [("z", "-"), ("r", "head")]),
            ("c", [("w1", "fail")])]

    def query():
        family = [history(protocol, name, assignments) for name, assignments in spec]
        return [history_probability(protocol, h) for h in family], chain_consistency_report(protocol, family)

    first_probabilities, first = query()
    compared = _counting(monkeypatch, StageId, "__lt__")
    checked = _counting(monkeypatch, histories, "_require_stage_order")
    second_probabilities, second = query()
    assert (compared, checked) == ([], [])
    assert second_probabilities == first_probabilities
    assert (second.union_stages, second.probability, second.additivity_defect, second.pairs) == (
        first.union_stages, first.probability, first.additivity_defect, first.pairs)


def test_the_command_line_orders_its_events_by_stage_index(monkeypatch):
    """`--define` events in any order build the history their in-order spelling does, comparing no stage."""
    protocol = ExactProtocol()
    compared = _counting(monkeypatch, StageId, "__lt__")
    got = _parse_history_spec(protocol, "a: w2=ok, r@MEAS3=tail, z=+")
    want = _parse_history_spec(protocol, "a: z=+, r@MEAS3=tail, w2=ok")
    assert compared == []
    assert got.events == want.events
    assert [e.stage for e in got.events] == [S.OBS2, S.MEAS3, S.MEAS4]


def test_in_stage_order_keeps_ties_in_the_order_given():
    protocol = ExactProtocol()
    head, tail, ok = (outcome_event(protocol, v, a) for v, a in [("r", "head"), ("r", "tail"), ("w2", "ok")])
    assert in_stage_order([ok, tail, head]) == (tail, head, ok)
    assert in_stage_order(iter([ok, head, tail])) == (head, tail, ok)


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_a_refusal_is_never_cached_and_names_each_history(engine):
    protocol = engine()
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"^history 'x': {REFUSAL}$"):
            history(protocol, "x", [("r", "head"), ("r", "tail")])
    events = (outcome_event(protocol, "r", "head"), outcome_event(protocol, "r", "tail"))
    for name in ("y", "x"):
        with pytest.raises(ValueError, match=rf"^history '{name}': {REFUSAL}$"):
            History(name, events)
    with pytest.raises(ValueError, match=rf"^chain_vector: {REFUSAL}$"):
        histories.chain_vector(protocol, events)


def test_assignments_spelled_as_lists_build_the_history_the_tuples_do():
    protocol = Protocol()
    want = history(protocol, "t", [("w2", "ok"), ("r", "tail")])
    spellings = [
        [["w2", "ok"], ["r", "tail"]],
        [("w2", "ok"), ["r", "tail"]],
        (["w2", "ok"], ["r", "tail"]),
        (list(pair) for pair in [("w2", "ok"), ("r", "tail")]),  # read once, as a generator can be
    ]
    for assignments in spellings:
        got = history(protocol, "t", assignments)
        assert got.events is want.events
        assert history_probability(protocol, got) == history_probability(protocol, want)
    assert history(protocol, "l", [["r", "tail"]]).events == history(protocol, "t", [("r", "tail")]).events
    with pytest.raises(ValueError, match="variable 'r' has no outcome 'ok'"):
        history(protocol, "bad", [["r", "ok"]])


def _variables_at(stages) -> list[str]:
    return [RECORDED_VAR[s] for s in stages]


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_union_stages_are_the_sorted_set_of_event_stages_for_every_subset(engine):
    """All 15 non-empty subsets of the four recording stages, each as one member, as single-event members
    and split across two members: the bitmask union is `tuple(sorted({...}))` exactly."""
    protocol = engine()
    recording = sorted(RECORDED_VAR)
    assert len(recording) == 4
    seen = 0
    for size in range(1, 5):
        for subset in itertools.combinations(recording, size):
            variables = _variables_at(subset)
            whole = [(v, OUTCOME_LABELS[v][-1]) for v in reversed(variables)]
            families = [
                [history(protocol, "whole", whole), history(protocol, "first", whole[-1:])],
                [history(protocol, v, [(v, OUTCOME_LABELS[v][0])]) for v in variables],
                [history(protocol, "front", whole[: size // 2] or whole), history(protocol, "back", whole[size // 2:])],
            ]
            for family in families:
                report = chain_consistency_report(protocol, family)
                assert report.union_stages == tuple(sorted({e.stage for h in family for e in h.events}))
                assert report.union_stages == subset
            seen += 1
    assert seen == 15


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_an_event_at_a_stage_that_records_nothing_is_refused_before_any_walk(engine, monkeypatch):
    forget_history_caches()
    protocol = engine()
    family = [History("a", (outcome_event(protocol, "r", "tail", S.PREP1),)), history(protocol, "b", [("r", "tail")])]
    walks = _counting(monkeypatch, histories, "_walk")
    with pytest.raises(EpochMismatchError, match="stage PREP1 records nothing"):
        chain_consistency_report(protocol, family)
    assert walks == []
    assert protocol.probability_memo == {}
    assert [cached.cache_info().currsize for cached in (histories._form, histories._pair_form)] == [0, 0]
