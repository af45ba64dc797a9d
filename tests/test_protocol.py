"""Stage dynamics: recorded states, bases, preconditions, unitarity."""

import math

import numpy as np
import pytest

from ewflab.protocol import (
    DYNAMIC_STAGES,
    GLOBAL_SPACE,
    AgentId,
    PreconditionError,
    Protocol,
    StageId,
)
from reference import global_matrix, nonzero_terms, outcome_state, pilot_state_with_order

SQ13 = math.sqrt(1.0 / 3.0)
SQ23 = math.sqrt(2.0 / 3.0)
SQ12 = math.sqrt(0.5)


def amplitude_map(state):
    return {labels: amp for labels, amp in nonzero_terms(state, tol=1e-13)}


class TestInitialState:
    def test_coin_amplitudes(self, protocol):
        amps = amplitude_map(protocol.initial_state())
        assert amps[("head", "0", "down", "0", "0", "0")] == pytest.approx(SQ13, abs=1e-12)
        assert amps[("tail", "0", "down", "0", "0", "0")] == pytest.approx(SQ23, abs=1e-12)

    def test_all_other_amplitudes_vanish(self, protocol):
        assert len(amplitude_map(protocol.initial_state())) == 2

    def test_custom_amplitudes(self):
        p = Protocol((0.6, 0.8))
        amps = amplitude_map(p.initial_state())
        assert amps[("head", "0", "down", "0", "0", "0")] == pytest.approx(0.6)
        assert amps[("tail", "0", "down", "0", "0", "0")] == pytest.approx(0.8)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            Protocol((0.6, 0.9))


class TestRecordingStages:
    def test_coin_observation_entangles_memory(self, protocol):
        amps = amplitude_map(protocol.pilot_state_after(StageId.OBS0))
        assert amps[("head", "head", "down", "0", "0", "0")] == pytest.approx(SQ13, abs=1e-12)
        assert amps[("tail", "tail", "down", "0", "0", "0")] == pytest.approx(SQ23, abs=1e-12)
        assert len(amps) == 2

    def test_recording_twice_violates_precondition(self, protocol):
        u = protocol.stage_unitary(StageId.OBS0)
        recorded = protocol.pilot_state_after(StageId.OBS0)
        with pytest.raises(PreconditionError):
            u.apply(recorded)

    def test_recorder_mismatch_rejected(self, protocol):
        with pytest.raises(ValueError):
            protocol.record_isometry(AgentId.F2, protocol.coin_measurement)

    def test_spin_recording_after_preparation(self, protocol):
        """Oracle: hand tensor expansion, three equal terms at sqrt(1/3)."""
        expected = {
            ("head", "head", "down", "-", "0", "0"): SQ13,
            ("tail", "tail", "up", "+", "0", "0"): SQ13,
            ("tail", "tail", "down", "-", "0", "0"): SQ13,
        }
        amps = amplitude_map(protocol.pilot_state_after(StageId.OBS2))
        assert set(amps) == set(expected)
        for k, v in expected.items():
            assert amps[k] == pytest.approx(v, abs=1e-12)


class TestPreparation:
    def test_tail_component_rotates_spin(self, protocol):
        amps = amplitude_map(protocol.pilot_state_after(StageId.PREP1))
        assert amps[("tail", "tail", "up", "0", "0", "0")] == pytest.approx(SQ13, abs=1e-12)
        assert amps[("tail", "tail", "down", "0", "0", "0")] == pytest.approx(SQ13, abs=1e-12)

    def test_head_component_keeps_spin_down(self, protocol):
        amps = amplitude_map(protocol.pilot_state_after(StageId.PREP1))
        assert amps[("head", "head", "down", "0", "0", "0")] == pytest.approx(SQ13, abs=1e-12)
        assert ("head", "head", "up", "0", "0", "0") not in amps

    def test_exactly_three_nonzero_amplitudes(self, protocol):
        assert len(amplitude_map(protocol.pilot_state_after(StageId.PREP1))) == 3


class TestEntangledBases:
    def test_ok_fail_vectors_match_definitions(self, protocol):
        """Reconstruct both bases from their defining formulas and compare."""
        w1 = protocol.friend_coin_measurement
        ok = outcome_state(w1, "ok")
        fail = outcome_state(w1, "fail")
        assert ok.amplitude(("head", "head")) == pytest.approx(SQ12, abs=1e-12)
        assert ok.amplitude(("tail", "tail")) == pytest.approx(-SQ12, abs=1e-12)
        assert fail.amplitude(("head", "head")) == pytest.approx(SQ12, abs=1e-12)
        assert fail.amplitude(("tail", "tail")) == pytest.approx(SQ12, abs=1e-12)

        w2 = protocol.friend_spin_measurement
        ok2 = outcome_state(w2, "ok")
        fail2 = outcome_state(w2, "fail")
        assert ok2.amplitude(("down", "-")) == pytest.approx(SQ12, abs=1e-12)
        assert ok2.amplitude(("up", "+")) == pytest.approx(-SQ12, abs=1e-12)
        assert fail2.amplitude(("down", "-")) == pytest.approx(SQ12, abs=1e-12)
        assert fail2.amplitude(("up", "+")) == pytest.approx(SQ12, abs=1e-12)

    def test_joint_state_after_spin_recording(self, protocol):
        """Oracle: independent basis-change expansion of the recorded state.

        Expanding (ok+fail)/sqrt(2) for head-head and (fail-ok)/sqrt(2) for
        tail-tail gives coefficients (2, 1, -1)/sqrt(6) over the labeled
        components (fail, down, -), (fail, up, +), (ok, up, +).
        """
        state = protocol.pilot_state_after(StageId.OBS2)
        w1 = protocol.friend_coin_measurement
        c6 = 1.0 / math.sqrt(6.0)
        for okfail, spin, mem, coeff in (
            ("fail", "down", "-", 2 * c6),
            ("fail", "up", "+", c6),
            ("ok", "up", "+", -c6),
        ):
            vec = w1.vectors[okfail]
            rest = np.zeros(54, dtype=complex)
            tail_space = GLOBAL_SPACE.subspace(("S", "F2", "W1", "W2"))
            rest[tail_space.index_of((spin, mem, "0", "0"))] = 1.0
            got = np.vdot(np.kron(vec, rest), state.amps)
            assert got == pytest.approx(coeff, abs=1e-12)

    def test_final_record_expansion_coefficients(self, protocol):
        """Oracle: hand expansion of the final state in the product basis.

        The four record components carry coefficients (1, -1, 1, 3)/sqrt(12);
        expanding the entangled vectors into product labels fixes every
        amplitude of the final state.  Built here without the stage machinery.
        """
        c = 1.0 / math.sqrt(12.0)
        record_terms = {
            ("ok", "ok"): c,
            ("ok", "fail"): -c,
            ("fail", "ok"): c,
            ("fail", "fail"): 3 * c,
        }
        half = 1.0 / math.sqrt(2.0)
        coin_parts = {"ok": {("head", "head"): half, ("tail", "tail"): -half},
                      "fail": {("head", "head"): half, ("tail", "tail"): half}}
        spin_parts = {"ok": {("down", "-"): half, ("up", "+"): -half},
                      "fail": {("down", "-"): half, ("up", "+"): half}}
        expected = np.zeros(GLOBAL_SPACE.size, dtype=complex)
        for (rw1, rw2), coeff in record_terms.items():
            for (cl, f1l), a in coin_parts[rw1].items():
                for (sl, f2l), b in spin_parts[rw2].items():
                    idx = GLOBAL_SPACE.index_of((cl, f1l, sl, f2l, rw1, rw2))
                    expected[idx] += coeff * a * b
        got = protocol.pilot_state_after(StageId.MEAS4).amps
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestUnitarity:
    def test_stage_matrices_are_unitary(self, protocol):
        for stage in DYNAMIC_STAGES:
            u = global_matrix(protocol.stage_unitary(stage))
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(GLOBAL_SPACE.size), atol=1e-12
            )

    def test_record_persistence_between_observation_and_measurement(self, protocol):
        """F1's memory weights stay fixed from its recording until W1 acts."""
        def f1_weights(stage):
            probs = (np.abs(protocol.pilot_state_after(stage).amps) ** 2).reshape(
                GLOBAL_SPACE.dims
            )
            return probs.sum(axis=(0, 2, 3, 4, 5))

        base = f1_weights(StageId.OBS0)
        for stage in (StageId.PREP1, StageId.OBS2):
            np.testing.assert_allclose(f1_weights(stage), base, atol=1e-12)
        # and W1's measurement does disturb it
        assert np.max(np.abs(f1_weights(StageId.MEAS3) - base)) > 0.1

    def test_pilot_state_after_initial_stage_is_initial_state(self, protocol):
        np.testing.assert_allclose(
            protocol.pilot_state_after(StageId.PREP_MINUS1).amps,
            protocol.initial_state().amps,
            atol=0,
        )

    def test_meas3_meas4_commute(self, protocol):
        a = pilot_state_with_order(
            protocol,
            (StageId.OBS0, StageId.PREP1, StageId.OBS2, StageId.MEAS3, StageId.MEAS4)
        )
        b = pilot_state_with_order(
            protocol,
            (StageId.OBS0, StageId.PREP1, StageId.OBS2, StageId.MEAS4, StageId.MEAS3)
        )
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)
