"""Outcome extraction: distributions, the 16-cell joint, certainty checks.

Single-outcome weights are read by the projector oracle (`reference.outcome_weight`).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ewflab import born, facts
from ewflab.born import (
    Certainty,
    CertaintyResult,
    CollapsePolicy,
    Distribution,
    UndefinedConditionalError,
    joint_distribution,
)
from ewflab.exact import ExactProtocol
from ewflab.linalg import StateVector
from ewflab.protocol import GLOBAL_SPACE, Protocol, StageId
from reference import norm, outcome_state, outcome_weight, pilot_state_with_order, project, record_weights

# Exact joint oracle: chain of exact conditional tables, worked out by hand
# from the exact amplitudes.  P(r,z) is uniform over the three reachable
# branches; given z=+ the first record splits evenly; given z=- it is fail
# with certainty; given w1=ok the final record splits evenly; given w1=fail
# it reads ok with probability 1/10.
EXACT_JOINT = {
    ("head", "-", "fail", "ok"): Fraction(1, 30),
    ("head", "-", "fail", "fail"): Fraction(3, 10),
    ("tail", "+", "ok", "ok"): Fraction(1, 12),
    ("tail", "+", "ok", "fail"): Fraction(1, 12),
    ("tail", "+", "fail", "ok"): Fraction(1, 60),
    ("tail", "+", "fail", "fail"): Fraction(3, 20),
    ("tail", "-", "fail", "ok"): Fraction(1, 30),
    ("tail", "-", "fail", "fail"): Fraction(3, 10),
}


def normalized(state):
    return StateVector(state.space, state.amps / norm(state))


def branch(protocol, var, label, stage):
    return normalized(
        project(protocol.record_projector(var, label), protocol.pilot_state_after(stage))
    )


class TestOutcomeDistribution:
    def test_coin_on_initial_state(self, protocol):
        state = protocol.initial_state()
        assert outcome_weight(protocol, state, [("r", "head")]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert outcome_weight(protocol, state, [("r", "tail")]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_spin_after_preparation(self, protocol):
        # oracle: three equal-amplitude terms, one of them spin-up
        state = protocol.pilot_state_after(StageId.PREP1)
        assert outcome_weight(protocol, state, [("z", "+")]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert outcome_weight(protocol, state, [("z", "-")]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_degenerate_on_own_basis_vector(self, protocol):
        # lift the ok vector itself against ready memories elsewhere
        vec = outcome_state(protocol, "w2", "ok").amps
        rest = np.zeros(54, dtype=complex)
        rest_space = GLOBAL_SPACE.subspace(("W1", "W2"))
        head_space = GLOBAL_SPACE.subspace(("C", "F1"))
        full = np.kron(
            np.kron(_basis_amps(head_space, ("head", "0")), vec),
            _basis_amps(rest_space, ("0", "0")),
        )
        state = StateVector(GLOBAL_SPACE, full)
        assert outcome_weight(protocol, state, [("w2", "ok")]) == pytest.approx(1.0, abs=1e-12)
        assert outcome_weight(protocol, state, [("w2", "fail")]) == pytest.approx(0.0, abs=1e-12)


def _basis_amps(space, labels):
    v = np.zeros(space.size, dtype=complex)
    v[space.index_of(labels)] = 1.0
    return v


class TestJointDistribution:
    def test_policies_agree_cell_by_cell(self, protocol):
        seq = joint_distribution(protocol, CollapsePolicy.SEQUENTIAL_PROJECTION)
        marg = joint_distribution(protocol, CollapsePolicy.NO_COLLAPSE_MARGINAL)
        for (la, pa), (lb, pb) in zip(seq.outcomes, marg.outcomes):
            assert la == lb
            assert pa == pytest.approx(pb, abs=1e-11)

    def test_against_exact_oracle(self, protocol):
        joint = joint_distribution(protocol)
        assert len(joint.outcomes) == 16
        total = Fraction(0)
        for labels, p in joint.outcomes:
            expected = EXACT_JOINT.get(labels, Fraction(0))
            assert p == pytest.approx(float(expected), abs=1e-12), labels
            total += expected
        assert total == 1

    def test_record_marginal(self, protocol):
        marg = joint_distribution(protocol).marginal(("w1", "w2"))
        assert marg.prob(("ok", "ok")) == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert marg.prob(("ok", "fail")) == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert marg.prob(("fail", "ok")) == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert marg.prob(("fail", "fail")) == pytest.approx(3.0 / 4.0, abs=1e-12)

    def test_ok_and_spin_minus_impossible(self, protocol):
        joint = joint_distribution(protocol)
        p = joint.marginal(("w1", "z")).prob(("ok", "-"))
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_plus_impossible_on_head_branch(self, protocol):
        cond = joint_distribution(protocol).marginal(("r", "z")).conditional({"r": "head"})
        assert cond.prob(("+",)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_conditioning_is_undefined(self, protocol):
        joint = joint_distribution(protocol)
        with pytest.raises(UndefinedConditionalError):
            joint.conditional({"r": "head", "z": "+"})

    def test_full_joint_sums_to_one(self, protocol):
        total = sum(p for _, p in joint_distribution(protocol).outcomes)
        assert abs(total - 1.0) < 1e-11

    def test_order_invariance_of_record_marginal(self, protocol):
        """Swapping the two para-experimenter stages leaves (w1, w2) unchanged."""
        swapped = pilot_state_with_order(
            protocol,
            (StageId.OBS0, StageId.PREP1, StageId.OBS2, StageId.MEAS4, StageId.MEAS3)
        )
        base = record_weights(
            protocol, protocol.pilot_state_after(StageId.MEAS4), ("w1", "w2")
        )
        other = record_weights(protocol, swapped, ("w1", "w2"))
        for key, value in base.items():
            assert other[key] == pytest.approx(value, abs=1e-11)

    def test_sweep_sanity_head_only_coin(self):
        """With the coin pinned to head, the final record is a fair ok/fail split.

        Oracle: the single branch is head,head,down,- and the fail/ok vectors
        each take half its weight.
        """
        p10 = Protocol((1.0, 0.0))
        marg = joint_distribution(p10).marginal(("w2",))
        assert marg.prob(("ok",)) == pytest.approx(0.5, abs=1e-11)

    def test_sweep_policies_agree_on_random_amplitudes(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = rng.uniform(0.1, 0.9)
            proto = Protocol((a, np.sqrt(1 - a * a)))
            seq = joint_distribution(proto, CollapsePolicy.SEQUENTIAL_PROJECTION)
            marg = joint_distribution(proto, CollapsePolicy.NO_COLLAPSE_MARGINAL)
            for (la, pa), (lb, pb) in zip(seq.outcomes, marg.outcomes):
                assert pa == pytest.approx(pb, abs=1e-11)


#: 20 seeded float coins: each amplitude is its binary rational, so |a|^2 + |b|^2 is not exactly 1
FLOAT_COINS = [(math.cos(t), math.sin(t)) for t in np.random.default_rng(2024).uniform(0, 2 * math.pi, 20)]


@pytest.mark.parametrize("hooks", [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}],
                         ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("coin", FLOAT_COINS, ids=[f"float{i}" for i in range(20)])
def test_the_exact_policies_are_equal_at_a_float_coin(coin, hooks):
    """Every probability is a ratio of Born weights, so the two policies and the final record marginal
    agree exactly at a coin that is accepted but not exactly normalised."""
    protocol = ExactProtocol(coin, **hooks)
    assert sum(abs(x) ** 2 for x in protocol.coin_amplitudes) != 1
    collapse = joint_distribution(protocol, CollapsePolicy.SEQUENTIAL_PROJECTION)
    assert joint_distribution(protocol, CollapsePolicy.NO_COLLAPSE_MARGINAL).outcomes == collapse.outcomes
    assert born.final_record_marginal(protocol).outcomes == collapse.marginal(("w1", "w2")).outcomes


def certainty(protocol, state, events):
    return CertaintyResult.from_probability(outcome_weight(protocol, state, events))


class TestCertainty:
    def test_tail_branch_excludes_ok(self, protocol):
        state = branch(protocol, "r", "tail", StageId.OBS2)
        assert certainty(protocol, state, [("w2", "ok")]).kind is Certainty.IMPOSSIBLE

    def test_head_branch_certain_minus(self, protocol):
        state = branch(protocol, "r", "head", StageId.OBS2)
        assert certainty(protocol, state, [("z", "-")]).kind is Certainty.CERTAIN

    def test_joint_ok_minus_impossible(self, protocol):
        res = certainty(protocol, protocol.pilot_state_after(StageId.OBS2), [("w1", "ok"), ("z", "-")])
        assert res.kind is Certainty.IMPOSSIBLE

    def test_uncertain_carries_probability(self, protocol):
        res = certainty(protocol, protocol.initial_state(), [("r", "tail")])
        assert res.kind is Certainty.UNCERTAIN
        assert res.probability == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_overlapping_conjunction_rejected(self, protocol):
        """Two outcomes of one record are no history: their events share a stage."""
        with pytest.raises(ValueError, match="event stages must strictly increase"):
            facts._probability(protocol, [("r", "head"), ("r", "tail")])


class TestDistributionType:
    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            Distribution(("x",), ((("a",), -0.5), (("b",), 1.5)))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            Distribution(("x",), ((("a",), 0.5),))

    def test_text_rendering_carries_exact_rationals(self, protocol):
        text = born.final_record_marginal(protocol).render_text()
        assert "(ok, ok)" in text
        assert "1/12" in text
        assert "3/4" in text
