"""Acceptance criteria, one test per criterion, pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import math
import time
from pathlib import Path

import numpy as np

import reference
from ewflab import bellbohm, born, epistemics, histories
from ewflab.exact import MEASURED
from ewflab.linalg import StateVector, inner
from ewflab.protocol import DYNAMIC_STAGES, GLOBAL_SPACE, STAGES, Protocol, StageId
from reference import from_terms, global_matrix, measurement_projector, pilot_state_with_order, weight

GOLDEN_TABLES = Path(__file__).parent / "golden" / "assumption_tables.txt"


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_okok_probability_exact(protocol):
    """P(w1=ok, w2=ok) = 1/12 under both policies, in under a second."""
    with criterion(1, "P(w1=ok, w2=ok) = 1/12 under both collapse policies, < 1 s"):
        start = time.perf_counter()
        fresh = Protocol()  # no warm caches
        for policy in born.CollapsePolicy:
            joint = born.joint_distribution(fresh, policy)
            p = joint.marginal(("w1", "w2")).prob(("ok", "ok"))
            assert abs(p - 1.0 / 12.0) < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_joint_state_and_eigenspace(protocol):
    """Recorded-state coefficients (2, 1, -1)/sqrt(6); (ok, down) weight zero."""
    with criterion(2, "recorded state matches (2,1,-1)/sqrt(6) and kills the (ok, down) eigenspace"):
        state = protocol.pilot_state_after(StageId.OBS2)
        tail_space = GLOBAL_SPACE.subspace(("S", "F2", "W1", "W2"))

        def lifted(okfail, spin, mem):
            vec = reference.outcome_state(protocol, "w1", okfail).amps
            rest = np.zeros(tail_space.size, dtype=complex)
            rest[tail_space.index_of((spin, mem, "0", "0"))] = 1.0
            return np.kron(vec, rest)

        basis = [lifted("fail", "down", "-"), lifted("fail", "up", "+"), lifted("ok", "up", "+")]
        got = np.array([np.vdot(b, state.amps) for b in basis])
        expected = np.array([2.0, 1.0, -1.0]) / math.sqrt(6.0)
        phase = got[0] / expected[0]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(got - phase * expected)) < 1e-12
        remainder = state.amps - sum(c * b for c, b in zip(got, basis))
        assert np.linalg.norm(remainder) < 1e-12

        # projection onto the (ok, spin-down) eigenspace of the joint measurement
        ok_weight = 0.0
        rest_space = GLOBAL_SPACE.subspace(("F2", "W1", "W2"))
        down = np.zeros(2, dtype=complex)
        down[GLOBAL_SPACE.factor("S").index("down")] = 1.0
        ok_vec = reference.outcome_state(protocol, "w1", "ok").amps
        for j in range(rest_space.size):
            rest = np.zeros(rest_space.size, dtype=complex)
            rest[j] = 1.0
            ok_weight += abs(np.vdot(np.kron(ok_vec, np.kron(down, rest)), state.amps)) ** 2
        assert math.sqrt(ok_weight) < 1e-12


def test_criterion_3_lab_state_orthogonal_to_ok(protocol):
    """<ok | (down,- + up,+)/sqrt(2)> vanishes on the spin-F2 factor."""
    with criterion(3, "entangled lab state is orthogonal to W2's ok vector"):
        sf = GLOBAL_SPACE.subspace(MEASURED["w2"])
        s = 1.0 / math.sqrt(2.0)
        lab = from_terms(sf, {("down", "-"): s, ("up", "+"): s})
        ok = reference.outcome_state(protocol, "w2", "ok")
        assert abs(inner(ok, lab)) < 1e-12


def test_criterion_4_history_probabilities(protocol):
    """Chained-projection values: fine history 1/12, coarse history 0."""
    with criterion(4, "history probabilities: fine ok/ok 1/12, coarse tail/ok 0"):
        p_fine = histories.history_probability(protocol, histories.okok_fine_history(protocol))
        p_coarse = histories.history_probability(protocol, histories.okok_coarse_history(protocol))
        assert abs(p_fine - 1.0 / 12.0) < 1e-12
        assert abs(p_coarse) < 1e-12


def test_criterion_5_beable_chain(protocol):
    """Exact enumeration: reference trajectory realizable, Born marginal, < 5 s."""
    with criterion(5, "beable chain: reference trajectory positive, final records Born-distributed, < 5 s"):
        start = time.perf_counter()
        table = bellbohm.exact_chain(protocol)
        assert table.probability_of(bellbohm.REFERENCE_TRAJECTORY) > 0
        expected = {
            ("ok", "ok"): 1.0 / 12.0,
            ("ok", "fail"): 1.0 / 12.0,
            ("fail", "ok"): 1.0 / 12.0,
            ("fail", "fail"): 3.0 / 4.0,
        }
        marginal = table.final_record_marginal()
        for key, value in expected.items():
            assert abs(marginal[key] - value) < 1e-10
        assert time.perf_counter() - start < 5.0


def test_criterion_6_derivation_engine(protocol):
    """Verdicts match the assumption flags, with a sound full trace."""
    with criterion(6, "derivation verdicts match every profile's crossed-out assumptions"):
        full = epistemics.check(epistemics.PROFILES["all"], protocol)
        assert full.contradiction
        assert len(full.trace) == 12 and all(t.fired for t in full.trace)
        assert epistemics.verify_trace(full)

        expected = {
            "qbism": ("FR7", {"C"}),
            "copenhagen": ("FR2", {"U"}),
            "collapse": ("FR2", {"U"}),
            "bell-bohm": ("FR2", {"U"}),
            "relative-state": ("FR1", {"P"}),
            "many-worlds": ("FR1", {"P"}),
            "consistent-histories": None,  # flags leave every step enabled
        }
        for name, want in expected.items():
            verdict = epistemics.check(epistemics.PROFILES[name], protocol)
            assert epistemics.verify_trace(verdict)
            if want is None:
                assert verdict.contradiction
            else:
                step, missing = want
                assert not verdict.contradiction
                assert verdict.blocked_step == step
                assert {a.value for a in verdict.missing} == missing
                for a in verdict.missing:
                    assert not epistemics.PROFILES[name].holds(a)


def test_criterion_7_tables_and_audit(protocol):
    """Byte-stable tables against the golden fixture; exactly one audit discrepancy."""
    with criterion(7, "assumption tables reproduce the golden fixture; audit flags one discrepancy"):
        assert epistemics.render_tables() == GOLDEN_TABLES.read_text(encoding="utf-8")
        report = epistemics.escape_rule_audit(protocol)
        assert [r.profile for r in report.discrepancies] == ["consistent-histories"]
        assert all(r.rule_matches_verdict for r in report.rows)


def test_criterion_8_property_suites(protocol):
    """Norm preservation, completeness, policy/order equivalence, chain marginals."""
    with criterion(8, "property suites at 1e-12 / 1e-11 tolerances"):
        rng = np.random.default_rng(2024)
        states = rng.standard_normal((1000, GLOBAL_SPACE.size)) + 1j * rng.standard_normal(
            (1000, GLOBAL_SPACE.size)
        )
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        for stage in DYNAMIC_STAGES:
            u = global_matrix(protocol.stage_unitaries[stage])
            norms = np.linalg.norm(states @ u.T, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12

        for var in ("r", "z", "w1", "w2"):
            labels = reference.basis(protocol, var).labels
            for v in states[:50]:
                sv = StateVector(GLOBAL_SPACE, v)
                total = sum(
                    weight(measurement_projector(protocol, var, label), sv) for label in labels
                )
                assert abs(total - 1.0) < 1e-11

        seq = born.joint_distribution(protocol, born.CollapsePolicy.SEQUENTIAL_PROJECTION)
        marg = born.joint_distribution(protocol, born.CollapsePolicy.NO_COLLAPSE_MARGINAL)
        for (la, pa), (lb, pb) in zip(seq.outcomes, marg.outcomes):
            assert la == lb and abs(pa - pb) < 1e-11

        swapped = pilot_state_with_order(
            protocol,
            (StageId.OBS0, StageId.PREP1, StageId.OBS2, StageId.MEAS4, StageId.MEAS3)
        )
        base_weights = reference.record_weights(
            protocol, protocol.pilot_state_after(StageId.MEAS4), ("w1", "w2")
        )
        swapped_weights = reference.record_weights(protocol, swapped, ("w1", "w2"))
        for key, value in base_weights.items():
            assert abs(swapped_weights[key] - value) < 1e-11

        table = bellbohm.exact_chain(protocol)
        for stage in STAGES:
            chain = table.config_marginal(stage)
            exact = table.epoch_weights[STAGES.index(stage)]
            for m in bellbohm.all_configs():
                assert abs(chain.get(m, 0.0) - exact.get(m, 0.0)) < 1e-11
