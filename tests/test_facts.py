"""Grounding facts: evaluated once per Protocol, total at degenerate coins."""

import math

import numpy as np
import pytest

from ewflab import bellbohm, born, epistemics, facts, histories
from ewflab.linalg import rational_label
from ewflab.protocol import Protocol


class TestMemo:
    def test_audit_and_run_all_evaluate_each_fact_once(self, monkeypatch):
        calls: dict[str, int] = {}

        def counted(fact):
            def wrapper(protocol):
                calls[fact.__name__] = calls.get(fact.__name__, 0) + 1
                return fact(protocol)

            return wrapper

        # wrap the table entries, as an outside tracer does
        wrapped = {f: counted(f) for f in facts.ALL_FACTS}
        monkeypatch.setattr(facts, "ALL_FACTS", tuple(wrapped[f] for f in facts.ALL_FACTS))
        monkeypatch.setattr(facts, "GROUNDING_FACTS", {k: wrapped[f] for k, f in facts.GROUNDING_FACTS.items()})

        protocol = Protocol()
        epistemics.escape_rule_audit(protocol)
        memoised = facts.run_all(protocol)
        assert calls == {f.__name__: 1 for f in wrapped}

        fresh = Protocol()
        assert memoised == [f(fresh) for f in wrapped]

    def test_run_facts_reads_the_same_results_as_run_all(self):
        protocol = Protocol()
        by_id = {r.fact_id: r for r in facts.run_all(protocol)}
        for result in facts.run_facts(protocol, tuple(facts.GROUNDING_FACTS)):
            assert result is by_id[result.fact_id]

    def test_audit_without_protocol_builds_one(self, monkeypatch):
        built = []

        def counting_default():
            built.append(Protocol())
            return built[-1]

        monkeypatch.setattr(epistemics, "default_protocol", counting_default)
        report = epistemics.escape_rule_audit()
        assert len(built) == 1
        assert len(report.discrepancies) == 1


class TestDegenerateCoins:
    @pytest.mark.parametrize(
        "coin, empty, failing",
        [
            ((1.0, 0.0), "tail", {"tail-branch-orthogonal-to-ok", "tail-branch-fail-certain"}),
            ((0.0, 1.0), "head", {"head-branch-spin-down"}),
        ],
    )
    def test_zero_weight_branch_fails_its_facts(self, coin, empty, failing):
        results = {r.fact_id: r for r in facts.run_all(Protocol(coin))}
        for fact_id in failing:
            assert not results[fact_id].passed
            assert results[fact_id].detail == f"{empty} branch has zero weight"

    def test_check_refuses_instead_of_raising_value_error(self):
        with pytest.raises(epistemics.QuantumFactError):
            epistemics.check(epistemics.PROFILES["all"], Protocol((1.0, 0.0)))


@pytest.mark.parametrize(
    "coin, detail",
    [
        (None, "head 0.57735026919, tail 0.816496580928, residual 0"),
        ((0.6j, 0.8), "head 0+0.6j, tail 0.8, residual 0"),
    ],
    ids=["default", "imaginary-head"],
)
def test_initial_amplitudes_detail_prints_each_amplitude_whole(coin, detail):
    """A real coin prints its real parts only; a complex one its imaginary parts too."""
    result = facts.check_initial_amplitudes(Protocol(coin))
    assert result.passed
    assert result.detail == detail


def _cells(protocol: Protocol) -> dict[tuple, float]:
    """Every probability the CLI labels, keyed by where it is printed."""
    cells = {}
    for policy in born.CollapsePolicy:
        joint = born.joint_distribution(protocol, policy)
        for labels, p in joint.outcomes + joint.marginal(("w1", "w2")).outcomes:
            cells[(policy.value, labels)] = p
    for h in (histories.okok_fine_history(protocol), histories.okok_coarse_history(protocol)):
        cells[("history", h.name)] = histories.history_probability(protocol, h)
    table = bellbohm.exact_chain(protocol)
    for t in table.entries:
        cells[("trajectory", t.configs)] = t.probability
    for key, p in table.final_record_marginal().items():
        cells[("final", key)] = p
    return cells


def test_no_coin_dependent_probability_is_labelled_exact():
    """At random coins, a cell that moves with the coin is not a small rational.

    Each cell is computed at two random coins; one whose value differs between
    them depends on the coin, so it is irrational for almost every coin and
    must get no exact label.
    """
    rng = np.random.default_rng(2019)
    checked = 0
    for _ in range(10):
        a, a2 = rng.uniform(0.05, 0.99, size=2)
        here = _cells(Protocol((a, math.sqrt(1 - a * a))))
        there = _cells(Protocol((a2, math.sqrt(1 - a2 * a2))))
        for key in here.keys() & there.keys():
            if abs(here[key] - there[key]) > 1e-9:
                checked += 1
                assert rational_label(here[key]) is None, (key, here[key])
    assert checked > 100


def test_default_coin_probabilities_keep_their_labels():
    labels = {rational_label(p) for p in _cells(Protocol()).values()}
    assert {"1/12", "3/4", "1/48"} <= labels
    assert None not in labels


def test_grounding_facts_are_the_steps_fact_ids(protocol):
    """`epistemics` imports `facts`, so this table cannot be derived from the steps: it is pinned."""
    assert set(facts.GROUNDING_FACTS) == {fid for step in epistemics.build_argument() for fid in step.fact_ids}
    for fact_id, fact in facts.GROUNDING_FACTS.items():
        assert facts.evaluate(protocol, fact).fact_id == fact_id
