"""Core linear-algebra operations and their invariants."""

import copy
import math
import pickle

import numpy as np
import pytest

import reference
from ewflab import bellbohm, born, histories, linalg
from ewflab.exact import MEASURED
from ewflab.linalg import (
    Factor,
    Projector,
    SpaceDescriptor,
    SpaceMismatchError,
    StateVector,
    inner,
)
from ewflab.protocol import DYNAMIC_STAGES, GLOBAL_SPACE, StageId
from reference import basis_state, from_terms, global_matrix, measurement_projector, project, tensor, weight

COIN = SpaceDescriptor((Factor("C", ("head", "tail")),))
SPIN = SpaceDescriptor((Factor("S", ("up", "down")),))

SQ13 = math.sqrt(1.0 / 3.0)
SQ23 = math.sqrt(2.0 / 3.0)


def random_states(n: int, size: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, size)) + 1j * rng.standard_normal((n, size))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestTensor:
    def test_product_of_basis_states_is_a_basis_state(self):
        v = tensor(basis_state(COIN, ("head",)), basis_state(SPIN, ("down",)))
        assert v.amps[v.space.index_of(("head", "down"))] == 1.0
        assert np.count_nonzero(v.amps) == 1

    def test_coin_superposition_with_ready_memory(self):
        coin = from_terms(COIN, {("head",): SQ13, ("tail",): SQ23})
        mem = SpaceDescriptor((Factor("F1", ("0", "head", "tail")),))
        v = tensor(coin, basis_state(mem, ("0",)))
        assert v.amps[v.space.index_of(("head", "0"))] == pytest.approx(SQ13, abs=1e-15)
        assert v.amps[v.space.index_of(("tail", "0"))] == pytest.approx(SQ23, abs=1e-15)
        assert np.count_nonzero(v.amps) == 2

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            sa = StateVector(COIN, a)
            mem = SpaceDescriptor((Factor("M", ("0", "a", "b")),))
            sb = StateVector(mem, b)
            assert abs(reference.norm(tensor(sa, sb)) - 1.0) < 1e-12

    def test_associativity_after_flattening(self):
        rng = np.random.default_rng(5)
        spaces = [COIN, SPIN, SpaceDescriptor((Factor("M", ("0", "a", "b")),))]
        vecs = []
        for sp in spaces:
            v = rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size)
            vecs.append(StateVector(sp, v))
        left = tensor(tensor(vecs[0], vecs[1]), vecs[2])
        right = tensor(vecs[0], tensor(vecs[1], vecs[2]))
        np.testing.assert_allclose(left.amps, right.amps, atol=1e-14)


class TestInner:
    def test_orthogonal_record_basis_pair(self, protocol):
        ok = reference.outcome_state(protocol, "w1", "ok")
        fail = reference.outcome_state(protocol, "w1", "fail")
        assert abs(inner(ok, fail)) < 1e-12

    def test_fail_state_is_orthogonal_to_ok(self, protocol):
        # the post-recording lab state (down,- + up,+)/sqrt(2) against the ok vector
        sf = GLOBAL_SPACE.subspace(MEASURED["w2"])
        s = 1.0 / math.sqrt(2.0)
        lab = from_terms(sf, {("down", "-"): s, ("up", "+"): s})
        ok = reference.outcome_state(protocol, "w2", "ok")
        assert abs(inner(ok, lab)) < 1e-12

    def test_self_inner_is_squared_norm(self):
        for v in random_states(50, 12, seed=11):
            sp = SpaceDescriptor((Factor("A", tuple("abc")), Factor("B", tuple("wxyz"))))
            sv = StateVector(sp, v)
            assert abs(inner(sv, sv) - 1.0) < 1e-12

    def test_conjugate_linear_in_first_argument(self):
        sp = COIN
        a = StateVector(sp, np.array([1j, 0.0]))
        b = StateVector(sp, np.array([1.0, 0.0]))
        assert inner(a, b) == pytest.approx(-1j)

    def test_space_mismatch_raises(self):
        with pytest.raises(SpaceMismatchError):
            inner(basis_state(COIN, ("head",)), basis_state(SPIN, ("up",)))


class TestProject:
    def test_tail_weight_of_initial_state(self, protocol):
        p = measurement_projector(protocol, "r", "tail")
        assert weight(p, protocol.initial_state()) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_projection_is_idempotent(self, protocol):
        p = measurement_projector(protocol, "w1", "ok")
        for v in random_states(10, GLOBAL_SPACE.size, seed=2):
            sv = StateVector(GLOBAL_SPACE, v)
            once = project(p, sv)
            twice = project(p, once)
            np.testing.assert_allclose(once.amps, twice.amps, atol=1e-12)

    def test_projecting_zero_vector_gives_zero(self, protocol):
        p = measurement_projector(protocol, "r", "head")
        z = reference.zero_state(GLOBAL_SPACE)
        assert reference.norm(project(p, z)) == 0.0

    def test_ok_minus_eigenspace_annihilates_recorded_state(self, protocol):
        # the orthogonality claim behind the ok/minus impossibility
        state = protocol.pilot_state_after(StageId.OBS2)
        ok = measurement_projector(protocol, "w1", "ok")
        minus_spin = measurement_projector(protocol, "z", "-")
        out = project(ok, project(minus_spin, state))
        assert reference.norm(out) < 1e-12

    def test_space_mismatch_raises(self, protocol):
        p = measurement_projector(protocol, "r", "head")
        with pytest.raises(SpaceMismatchError):
            project(p, basis_state(COIN, ("head",)))


class TestValidation:
    def test_non_orthonormal_projector_rejected(self):
        v = basis_state(COIN, ("head",))
        with pytest.raises(ValueError):
            Projector(COIN, (v, v))

    def test_incomplete_decomposition_rejected(self):
        head = Projector(COIN, (basis_state(COIN, ("head",)),))
        with pytest.raises(ValueError):
            reference.ProjectiveDecomposition(COIN, (("head", head),))

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            StateVector(COIN, np.array([np.nan, 0.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StateVector(COIN, np.zeros(3, dtype=complex))

    def test_records_are_immutable_and_copy_by_value(self, protocol):
        """Assignment raises; a copy or an unpickled record holds the same fields."""
        h1 = histories.okok_fine_history(protocol)
        records = [COIN.factors[0], COIN, basis_state(COIN, ("head",)), h1, h1.events[0],
                   histories.chain_consistency_report(protocol, [h1]), born.joint_distribution(protocol),
                   bellbohm.exact_chain(protocol), protocol.stage_unitaries[StageId.MEAS4]]
        for record in records:
            with pytest.raises(AttributeError):
                record.name = "changed"
            for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
                assert type(clone) is type(record) and repr(clone) == repr(record)
        assert copy.copy(COIN) == COIN and hash(copy.copy(COIN)) == hash(COIN)
        assert copy.copy(h1) != h1  # identity equality


class TestPropertySuites:
    def test_norm_preservation_1000_random_states(self, protocol):
        """Every stage unitary preserves the norm of 1000 random states."""
        states = random_states(1000, GLOBAL_SPACE.size, seed=42)
        for stage in DYNAMIC_STAGES:
            u = global_matrix(protocol.stage_unitaries[stage])
            norms = np.linalg.norm(states @ u.T, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_decomposition_completeness(self, protocol):
        """Branch weights of every measurement decomposition sum to 1."""
        states = random_states(100, GLOBAL_SPACE.size, seed=9)
        for var in ("r", "z", "w1", "w2"):
            labels = reference.basis(protocol, var).labels
            for v in states:
                sv = StateVector(GLOBAL_SPACE, v)
                total = sum(
                    weight(measurement_projector(protocol, var, label), sv) for label in labels
                )
                assert abs(total - 1.0) < 1e-11

    def test_rational_label(self):
        assert linalg.rational_label(1.0 / 12.0) == "1/12"
        assert linalg.rational_label(0.75) == "3/4"
        assert linalg.rational_label(0.0) == "0"
        assert linalg.rational_label(math.pi / 10) is None
