"""Stage dynamics: recorded states, bases, preconditions, unitarity."""

import copy
import itertools
import math
import pickle
import re

import numpy as np
import pytest

from ewflab.exact import COIN_ERROR, MEASURED, ExactProtocol, float_image, outcome_vectors, stage_maps
from ewflab.histories import HistoryEvent
from ewflab.protocol import (
    DYNAMIC_STAGES,
    GLOBAL_SPACE,
    PreconditionError,
    Protocol,
    StageId,
    StageUnitary,
    StateVector,
    memory_marginal,
)
from reference import from_terms, global_matrix, nonzero_terms, outcome_state, pilot_state_with_order

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
        """`check_coin` is the one normalisation check, on both engines."""
        with pytest.raises(ValueError, match=re.escape(COIN_ERROR)):
            Protocol((0.6, 0.9))
        with pytest.raises(ValueError, match=re.escape(COIN_ERROR)):
            ExactProtocol(("0.6", "0.9"))

    def test_a_coin_is_exactly_two_amplitudes(self):
        """One amplitude too few or too many is refused, before the normalisation check."""
        for coin in ((0.6,), (0.6, 0.8, 5.0), (1.0,), (0.6, 0.8, 0.0)):
            with pytest.raises(ValueError, match=f"a coin is two amplitudes, not {len(coin)}"):
                Protocol(coin)
            with pytest.raises(ValueError, match=f"a coin is two amplitudes, not {len(coin)}"):
                ExactProtocol(tuple(map(str, coin)))


class TestRecordingStages:
    def test_coin_observation_entangles_memory(self, protocol):
        amps = amplitude_map(protocol.pilot_state_after(StageId.OBS0))
        assert amps[("head", "head", "down", "0", "0", "0")] == pytest.approx(SQ13, abs=1e-12)
        assert amps[("tail", "tail", "down", "0", "0", "0")] == pytest.approx(SQ23, abs=1e-12)
        assert len(amps) == 2

    def test_recording_twice_violates_precondition(self, protocol):
        u = protocol.stage_unitaries[StageId.OBS0]
        recorded = protocol.pilot_state_after(StageId.OBS0)
        with pytest.raises(PreconditionError):
            u.apply(recorded)

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


def table_state(protocol, var, label):
    """One outcome vector of `outcome_vectors`, its codes read as floats, on var's measured factors."""
    codes = outcome_vectors(var, protocol.flip_ok_sign)[label]
    return from_terms(GLOBAL_SPACE.subspace(MEASURED[var]), {labels: float_image(c) for labels, c in codes.items()})


class TestEntangledBases:
    def test_ok_fail_vectors_match_definitions(self, protocol):
        """Reconstruct both bases from their defining formulas and compare."""
        ok = table_state(protocol, "w1", "ok")
        fail = table_state(protocol, "w1", "fail")
        assert ok.amps[ok.space.index_of(("head", "head"))] == pytest.approx(SQ12, abs=1e-12)
        assert ok.amps[ok.space.index_of(("tail", "tail"))] == pytest.approx(-SQ12, abs=1e-12)
        assert fail.amps[fail.space.index_of(("head", "head"))] == pytest.approx(SQ12, abs=1e-12)
        assert fail.amps[fail.space.index_of(("tail", "tail"))] == pytest.approx(SQ12, abs=1e-12)

        ok2 = table_state(protocol, "w2", "ok")
        fail2 = table_state(protocol, "w2", "fail")
        assert ok2.amps[ok2.space.index_of(("down", "-"))] == pytest.approx(SQ12, abs=1e-12)
        assert ok2.amps[ok2.space.index_of(("up", "+"))] == pytest.approx(-SQ12, abs=1e-12)
        assert fail2.amps[fail2.space.index_of(("down", "-"))] == pytest.approx(SQ12, abs=1e-12)
        assert fail2.amps[fail2.space.index_of(("up", "+"))] == pytest.approx(SQ12, abs=1e-12)

    def test_joint_state_after_spin_recording(self, protocol):
        """Oracle: independent basis-change expansion of the recorded state.

        Expanding (ok+fail)/sqrt(2) for head-head and (fail-ok)/sqrt(2) for
        tail-tail gives coefficients (2, 1, -1)/sqrt(6) over the labeled
        components (fail, down, -), (fail, up, +), (ok, up, +).
        """
        state = protocol.pilot_state_after(StageId.OBS2)
        c6 = 1.0 / math.sqrt(6.0)
        for okfail, spin, mem, coeff in (
            ("fail", "down", "-", 2 * c6),
            ("fail", "up", "+", c6),
            ("ok", "up", "+", -c6),
        ):
            vec = outcome_state(protocol, "w1", okfail).amps
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
            u = global_matrix(protocol.stage_unitaries[stage])
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


# -- coin-independent structure, shared per process -----------------------------

ENGINES = [Protocol, ExactProtocol]
FLAG_SETTINGS = [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}]


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
class TestSharedStructure:
    def test_equal_hooks_share_stages(self, engine):
        for flags in FLAG_SETTINGS:
            a, b = engine(**flags), engine((0.6, 0.8) if engine is Protocol else ("0.6", "0.8"), **flags)
            assert a.stage_unitaries is b.stage_unitaries

    def test_different_hooks_never_share(self, engine):
        built = [engine(**flags) for flags in FLAG_SETTINGS]
        for x, y in itertools.combinations(built, 2):
            assert x.stage_unitaries is not y.stage_unitaries

    def test_a_corrupt_preparation_never_receives_the_clean_stages(self, engine):
        """In either order of construction, the corrupt protocol rotates the spin its own way."""
        corrupt_first = engine(corrupt_preparation=True)
        clean = engine()
        corrupt_last = engine(corrupt_preparation=True)
        for corrupt in (corrupt_first, corrupt_last):
            assert corrupt.stage_unitaries is not clean.stage_unitaries
            assert corrupt.stage_unitaries[StageId.PREP1] is not clean.stage_unitaries[StageId.PREP1]
            got, want = corrupt.pilot_state_after(StageId.PREP1), clean.pilot_state_after(StageId.PREP1)
            assert got.components() != want.components()

    def test_shared_mappings_are_read_only(self, engine):
        protocol = engine()
        with pytest.raises(TypeError):
            protocol.stage_unitaries[StageId.OBS0] = protocol.stage_unitaries[StageId.MEAS4]


def test_shared_arrays_and_stage_maps_are_read_only():
    protocol = Protocol()
    with pytest.raises(ValueError):
        protocol.stage_unitaries[StageId.OBS0].matrix[0, 0] = 2.0
    maps = stage_maps()
    with pytest.raises(TypeError):
        maps[StageId.OBS0] = maps[StageId.MEAS4]
    with pytest.raises(TypeError):
        maps[StageId.OBS0].columns[0] = ()


# -- where a dense state is checked ---------------------------------------------


class TestCallerOperandsAreChecked:
    """A state made from anything a caller built is checked, whatever it is applied to."""

    def test_a_caller_state_with_nan(self):
        amps = np.zeros(GLOBAL_SPACE.size, dtype=np.complex128)
        amps[0] = np.nan
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            StateVector(GLOBAL_SPACE, amps)

    def test_a_hand_built_stage_unitary_with_nan(self, protocol):
        engine = protocol.stage_unitaries[StageId.PREP1]
        matrix = np.full_like(engine.matrix, np.nan)  # every entry: a zero product can skip one
        unitary = StageUnitary(engine.stage, engine.axes, matrix, engine.recorder_axis)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            unitary.apply(protocol.pilot_state_after(StageId.OBS0))

    def test_a_hand_built_mask_array_with_nan_is_refused(self):
        """No mask array reaches a state: a history event takes only a `RecordMask`."""
        with pytest.raises(TypeError, match="mask must be a RecordMask, not ndarray"):
            HistoryEvent(StageId.OBS0, np.full(GLOBAL_SPACE.size, np.nan), "r=nan")

    @pytest.mark.parametrize("stage", [StageId.PREP1, StageId.MEAS3], ids=lambda s: s.name)
    def test_a_finite_caller_state_that_overflows(self, protocol, stage):
        state = StateVector(GLOBAL_SPACE, np.full(GLOBAL_SPACE.size, 1.7e308, dtype=np.complex128))
        # under the suite's -W error too: numpy's overflow warning is no error of its own
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            protocol.stage_unitaries[stage].linear(state)


def test_a_state_squares_its_amplitudes_once():
    """Every marginal of a state reads the |amps|^2 its first one took; a copy squares its own."""
    state = Protocol((0.6, 0.8)).pilot_state_after(StageId.MEAS4)
    first = memory_marginal(state, (4, 5))
    squares = state._probs
    assert np.array_equal(squares, (np.abs(state.amps) ** 2).reshape(GLOBAL_SPACE.dims))
    assert np.array_equal(memory_marginal(state, (4, 5)), first) and state._probs is squares
    assert state.marginal((1,)) == tuple(squares.sum(axis=(0, 2, 3, 4, 5)).tolist())
    for clone in (copy.copy(state), pickle.loads(pickle.dumps(state))):
        assert repr(clone) == repr(state)
        assert np.array_equal(memory_marginal(clone, (4, 5)), first) and clone._probs is not squares
