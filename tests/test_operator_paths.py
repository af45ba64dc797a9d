"""One operator path, one memory marginal, one tolerance table.

The oracle tests keep the earlier implementations as references: FR2's
spanning-set projector, FR8's 27-vector sum, the three hand-written |amps|^2
marginals, and the spanning-set bases of `reference.basis`.  The structure
tests pin down where each concept lives.
"""

import ast
import io
import itertools
import math
import tokenize
from pathlib import Path

import numpy as np
import pytest

import reference
from ewflab import bellbohm, born, facts
from ewflab.linalg import ATOL, FACT_ATOL, StateVector
from ewflab.protocol import (
    DOWN,
    DYNAMIC_STAGES,
    GLOBAL_SPACE,
    OK,
    READY,
    RECORDERS,
    STAGES,
    TAIL,
    PreconditionError,
    Protocol,
    StageId,
    StageUnitary,
)
from reference import measurement_projector, weight

SRC = Path(facts.__file__).parent

COINS = [None] + [(math.cos(t), math.sin(t)) for t in np.random.default_rng(20190).uniform(0, 2 * math.pi, 20)]
FLAGS = [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}]


def _dense_state() -> StateVector:
    rng = np.random.default_rng(7)
    amps = rng.normal(size=GLOBAL_SPACE.size) + 1j * rng.normal(size=GLOBAL_SPACE.size)
    return StateVector(GLOBAL_SPACE, amps / np.linalg.norm(amps))


# -- FR2 and FR8 against their earlier implementations --------------------------


def _fr2_spanning_set(protocol: Protocol) -> float:
    branch = facts._branch_state(protocol, TAIL, StageId.OBS2)
    return weight(measurement_projector(protocol, "w2", OK), branch)


def _fr8_27_vector_sum(protocol: Protocol) -> float:
    state = protocol.pilot_state_after(StageId.OBS2)
    ok_vec = protocol.friend_coin_measurement.vectors[OK]  # on (C, F1)
    down = np.zeros(2, dtype=np.complex128)
    down[GLOBAL_SPACE.factor("S").index(DOWN)] = 1.0
    w = 0.0
    for j in range(27):
        rest = np.zeros(27, dtype=np.complex128)
        rest[j] = 1.0
        full = np.kron(ok_vec, np.kron(down, rest))
        w += abs(np.vdot(full, state.amps)) ** 2
    return w


@pytest.mark.parametrize("flags", FLAGS, ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("coin", COINS, ids=["default"] + [f"seeded{i}" for i in range(20)])
def test_fr2_and_fr8_match_the_earlier_paths(coin, flags):
    protocol = Protocol(coin, **flags)
    branch = facts._branch_state(protocol, TAIL, StageId.OBS2)
    fr2 = born.joint_weight(branch, [(protocol.friend_spin_measurement, OK)])
    fr8 = born.joint_weight(
        protocol.pilot_state_after(StageId.OBS2),
        [(protocol.friend_coin_measurement, OK), (protocol.spin_measurement, "-")],
    )
    old_fr2, old_fr8 = _fr2_spanning_set(protocol), _fr8_27_vector_sum(protocol)
    assert abs(fr2 - old_fr2) <= 1e-15
    assert abs(fr8 - old_fr8) <= 1e-15
    fr2_result = facts.check_tail_branch_orthogonal_to_ok(protocol)
    fr8_result = facts.check_ok_minus_subspace_empty(protocol)
    assert fr2_result.detail == f"ok weight {fr2:.3g}"
    assert fr8_result.detail == f"weight {fr8:.3g}"
    assert fr2_result.passed == (old_fr2 < FACT_ATOL)
    assert fr8_result.passed == (old_fr8 < FACT_ATOL)


def test_corrupt_preparation_fails_fr2_and_fr8():
    protocol = Protocol(corrupt_preparation=True)
    assert not facts.check_tail_branch_orthogonal_to_ok(protocol).passed
    assert not facts.check_ok_minus_subspace_empty(protocol).passed


def test_overlapping_conjunction_is_rejected():
    protocol = Protocol()
    spec = protocol.friend_coin_measurement
    with pytest.raises(ValueError, match="overlap"):
        born.joint_weight(protocol.initial_state(), [(spec, OK), (protocol.coin_measurement, "head")])


# -- factor matrices --------------------------------------------------------------


@pytest.mark.parametrize("flags", FLAGS[:2], ids=["clean", "flip-ok-sign"])
def test_factor_matrices_are_built_once_and_equal_the_outer_product_sum(flags):
    protocol = Protocol(**flags)
    for var in RECORDERS:
        spec = protocol.measurement(var)
        for label, p in reference.basis(protocol, var).branches:
            old = np.zeros((p.space.size, p.space.size), dtype=np.complex128)
            for v in p.vectors:
                old += np.outer(v.amps, v.amps.conj())
            mat = spec.factor_matrices[label]
            assert mat is spec.factor_matrices[label]
            assert not mat.flags.writeable
            assert np.array_equal(mat, old)


@pytest.mark.parametrize("flags", FLAGS, ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("coin", COINS, ids=["default"] + [f"seeded{i}" for i in range(20)])
def test_factor_matrices_are_orthogonal_projectors_that_resolve_the_identity(coin, flags):
    protocol = Protocol(coin, **flags)
    for var in RECORDERS:
        mats = list(protocol.measurement(var).factor_matrices.values())
        assert np.allclose(sum(mats), np.eye(len(mats[0])), rtol=0, atol=ATOL)
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                assert np.allclose(a @ b, a if i == j else 0, rtol=0, atol=ATOL)


@pytest.mark.parametrize("flags", FLAGS, ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("coin", COINS, ids=["default"] + [f"seeded{i}" for i in range(20)])
def test_stage_matrices_and_pilot_states_equal_the_spanning_set_build_byte_for_byte(coin, flags):
    protocol = Protocol(coin, **flags)
    measured_at = {stage: var for var, (_, stage) in RECORDERS.items()}
    state = protocol.initial_state()
    for stage in DYNAMIC_STAGES:
        unitary = protocol.stage_unitary(stage)
        matrix = reference.record_matrix(protocol, measured_at[stage]) if stage in measured_at else unitary.matrix
        assert unitary.matrix.tobytes() == matrix.tobytes()
        state = StageUnitary(stage, unitary.axes, matrix, unitary.recorder_axis).apply(state)
        assert protocol.pilot_state_after(stage).amps.tobytes() == state.amps.tobytes()


# -- the memory marginal ----------------------------------------------------------


def _old_record_weights(state: StateVector, vars: tuple[str, ...]) -> dict:
    probs = (np.abs(state.amps) ** 2).reshape(GLOBAL_SPACE.dims)
    axes = tuple(RECORDERS[v][0].memory_axis for v in vars)
    sorted_axes = tuple(sorted(axes))
    marg = probs.sum(axis=tuple(i for i in range(len(GLOBAL_SPACE.dims)) if i not in sorted_axes))
    pos = {a: i for i, a in enumerate(sorted_axes)}
    out = {}
    for combo in np.ndindex(*[3] * len(axes)):
        labels = tuple(GLOBAL_SPACE.factors[axis].labels[i] for axis, i in zip(axes, combo))
        if any(label == READY for label in labels):
            continue
        idx = [0] * len(axes)
        for var_i, axis in enumerate(axes):
            idx[pos[axis]] = combo[var_i]
        out[labels] = float(marg[tuple(idx)])
    return out


def _old_config_weights(state: StateVector) -> dict:
    probs = (np.abs(state.amps) ** 2).reshape(GLOBAL_SPACE.dims)
    other = tuple(i for i in range(len(GLOBAL_SPACE.dims)) if i not in bellbohm.CONFIG_AXES)
    marg = probs.sum(axis=other)
    out = {}
    for idx in np.ndindex(*marg.shape):
        labels = tuple(GLOBAL_SPACE.factors[a].labels[i] for a, i in zip(bellbohm.CONFIG_AXES, idx))
        out[bellbohm.MemoryConfig(*labels)] = float(marg[idx])
    return out


def _states():
    protocol = Protocol()
    return [protocol.pilot_state_after(s) for s in STAGES] + [_dense_state()]


@pytest.mark.parametrize("state", _states(), ids=[s.name for s in STAGES] + ["dense"])
def test_record_and_config_weights_equal_the_earlier_formulas_bit_for_bit(state):
    protocol = Protocol()
    for n in range(1, 5):
        for vars in itertools.permutations(RECORDERS, n):
            assert list(protocol.record_weights(state, vars).items()) == list(
                _old_record_weights(state, vars).items()
            )
    assert list(bellbohm.config_weights(state).items()) == list(_old_config_weights(state).items())


def test_precondition_reports_the_off_ready_weight():
    state = _dense_state()
    probs = np.abs(state.amps.reshape(GLOBAL_SPACE.dims)) ** 2
    for stage, unitary in Protocol().stage_unitaries.items():
        if unitary.recorder_axis is None:
            continue
        marg = probs.sum(axis=tuple(i for i in range(len(GLOBAL_SPACE.dims)) if i != unitary.recorder_axis))
        with pytest.raises(PreconditionError, match=f"weight {float(marg[1:].sum()):.3e} outside"):
            unitary.apply(state)


# -- where each concept lives -----------------------------------------------------


def _callers(name: str) -> set[str]:
    """Qualified names of the src functions that call `name`."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                        found.add(".".join([path.stem] + scope))
                visit(child, scope)

        visit(tree, [])
    return found


def test_spanning_set_projectors_are_built_only_by_the_thin_views():
    assert _callers("lifted_projector") == {"protocol.Protocol.record_projector"}
    assert _callers("weight") == set()
    assert _callers("project") == set()


def test_amplitude_squares_are_summed_in_one_place():
    src = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert [m for m, text in src.items() if "np.abs(state.amps" in text] == ["protocol"]
    assert src["protocol"].count("np.abs(state.amps") == 1


def test_no_float_tolerance_outside_the_linalg_table():
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "linalg":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        literals = [t.string for t in tokens if t.type == tokenize.NUMBER and "e-" in t.string.lower()]
        assert literals == [], (path.name, literals)
