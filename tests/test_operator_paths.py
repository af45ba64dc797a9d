"""One operator path, one memory marginal, one tolerance table.

The oracle tests keep the earlier implementations as references: FR2's
spanning-set projector, FR8's 27-vector sum, the exact projector path the
facts read before they read history probabilities (`reference.outcome_weight`),
the three hand-written |amps|^2 marginals, and the spanning-set bases of
`reference.basis`.  The structure tests pin down where each concept lives.
"""

import ast
import io
import itertools
import math
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import reference
from ewflab import bellbohm, exact, facts
from ewflab.exact import MEASURED, ExactProtocol, outcome_vectors
from ewflab.linalg import ATOL, FACT_ATOL, StateVector
from ewflab.protocol import (
    DOWN,
    DYNAMIC_STAGES,
    FAIL,
    GLOBAL_SPACE,
    HEAD,
    MINUS,
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
    branch = reference.branch_state(protocol, TAIL, StageId.OBS2)
    return weight(measurement_projector(protocol, "w2", OK), branch)


def _fr8_27_vector_sum(protocol: Protocol) -> float:
    state = protocol.pilot_state_after(StageId.OBS2)
    ok_vec = reference.outcome_state(protocol, "w1", OK).amps  # on (C, F1)
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
    """FR2's P[w2=ok | r=tail] and FR8's P[z=-, w1=ok], read off history chains, against the spanning-set
    projector on the renormalised tail branch and the 27-vector sum."""
    protocol = Protocol(coin, **flags)
    fr2 = facts._conditional(protocol, ("r", TAIL), [("w2", OK)])
    fr8 = facts._probability(protocol, [("z", MINUS), ("w1", OK)])
    old_fr2, old_fr8 = _fr2_spanning_set(protocol), _fr8_27_vector_sum(protocol)
    assert abs(fr2 - old_fr2) <= 1e-15
    assert abs(fr8 - old_fr8) <= 1e-15
    fr2_result = facts.check_tail_branch_orthogonal_to_ok(protocol)
    fr8_result = facts.check_ok_minus_subspace_empty(protocol)
    assert fr2_result.detail == f"ok weight {fr2:.3g}"
    assert fr8_result.detail == f"weight {fr8:.3g}"
    assert fr2_result.passed == (old_fr2 < FACT_ATOL)
    assert fr8_result.passed == (old_fr8 < FACT_ATOL)


def _fact_values(protocol) -> list:
    """FR2's weight, FR3's and FR4's probabilities and the (ok, spin-down) weight."""
    return [
        facts._conditional(protocol, ("r", TAIL), [("w2", OK)]),
        facts._conditional(protocol, ("r", TAIL), [("w2", FAIL)]),
        facts._conditional(protocol, ("r", HEAD), [("z", MINUS)]),
        facts._probability(protocol, [("z", MINUS), ("w1", OK)]),
    ]


#: the default coin and 20 seeded decimal coins, typed to ten digits: not exactly normalised
DECIMAL_COINS = [None] + [
    (f"{math.cos(t):.10f}", f"{math.sin(t):.10f}") for t in np.random.default_rng(1812).uniform(0, 2 * math.pi, 20)]


@pytest.mark.parametrize("flags", FLAGS, ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("coin", DECIMAL_COINS, ids=["default"] + [f"decimal{i}" for i in range(20)])
def test_branch_ratios_equal_the_renormalised_branch_values_exactly(coin, flags):
    """FR2's weight and FR3's and FR4's probabilities, as ratios of history probabilities, equal (==) the
    projector weights on the renormalised coin branch after the spin recording, on the exact engine; the
    (ok, spin-down) history probability equals the projector weight on the unnormalised state."""
    protocol = ExactProtocol(coin, **flags)
    tail, head = (reference.branch_state(protocol, c, StageId.OBS2) for c in (TAIL, HEAD))
    assert _fact_values(protocol) == [
        reference.outcome_weight(protocol, tail, [("w2", OK)]),
        reference.outcome_weight(protocol, tail, [("w2", FAIL)]),
        reference.outcome_weight(protocol, head, [("z", MINUS)]),
        reference.outcome_weight(protocol, protocol.pilot_state_after(StageId.OBS2), [("w1", OK), ("z", MINUS)]),
    ]


#: 25 seeded float coins: the exact engine reads each amplitude as its binary rational
FLOAT_COINS = [(math.cos(t), math.sin(t)) for t in np.random.default_rng(25).uniform(0, 2 * math.pi, 25)]


@pytest.mark.parametrize("flags", FLAGS, ids=["clean", "flip-ok-sign", "corrupt-preparation"])
def test_dense_fact_values_follow_the_exact_engine(flags):
    """The dense engine's history ratios stay within 1e-15 of the exact engine's at 25 float coins."""
    for coin in FLOAT_COINS:
        dense, exact_values = _fact_values(Protocol(coin, **flags)), _fact_values(ExactProtocol(coin, **flags))
        assert max(abs(d - float(e)) for d, e in zip(dense, exact_values)) <= 1e-15, coin


def test_corrupt_preparation_fails_fr2_and_fr8():
    protocol = Protocol(corrupt_preparation=True)
    assert not facts.check_tail_branch_orthogonal_to_ok(protocol).passed
    assert not facts.check_ok_minus_subspace_empty(protocol).passed


# -- measurement projectors -----------------------------------------------------


@pytest.mark.parametrize("flags", FLAGS[:2], ids=["clean", "flip-ok-sign"])
def test_factor_matrices_are_built_once_and_equal_the_outer_product_sum(flags):
    """Each outcome's `exact.projector_columns` equal the outer-product sum of its spanning set; the
    recording stage maps built from them are built once per flag pair and are read-only."""
    maps = exact.stage_maps(**flags)
    assert maps is exact.stage_maps(**flags)
    dense = Protocol(**flags)
    for var, (_, stage) in RECORDERS.items():
        targets = MEASURED[var]
        size = GLOBAL_SPACE.subspace(targets).size
        columns = exact.projector_columns(targets, outcome_vectors(var, dense.flip_ok_sign))
        for label, p in reference.basis(dense, var).branches:
            old = np.zeros((p.space.size, p.space.size), dtype=np.complex128)
            for v in p.vectors:
                old += np.outer(v.amps, v.amps.conj())
            mat = np.array([[float(x) for x in row] for row in _exact_matrix(columns[label], size)])
            assert np.allclose(mat, old, rtol=0, atol=ATOL), (var, label)
        with pytest.raises(TypeError):
            maps[stage].columns[0] = ()


@pytest.mark.parametrize("flags", FLAGS, ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("coin", COINS, ids=["default"] + [f"seeded{i}" for i in range(20)])
def test_factor_matrices_are_orthogonal_projectors_that_resolve_the_identity(coin, flags):
    """`exact.projector_columns`, which the recording stages are built from, holds orthogonal projectors
    summing to the identity on each measurement's target factors, exactly."""
    protocol = ExactProtocol(coin, **flags)
    for var in RECORDERS:
        targets = MEASURED[var]
        size = GLOBAL_SPACE.subspace(targets).size
        vectors = outcome_vectors(var, protocol.flip_ok_sign)
        mats = [_exact_matrix(c, size) for c in exact.projector_columns(targets, vectors).values()]
        zero = [[0] * size for _ in range(size)]
        total = [[sum((m[r][c] for m in mats), exact.ZERO) for c in range(size)] for r in range(size)]
        assert total == [[int(r == c) for c in range(size)] for r in range(size)]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                product = [[sum((a[r][m] * b[m][c] for m in range(size)), exact.ZERO) for c in range(size)]
                           for r in range(size)]
                assert product == (a if i == j else zero)


def _exact_matrix(columns: dict, size: int) -> list[list]:
    """Sparse (sign, k) columns as a square matrix of Surds."""
    mat = [[exact.ZERO] * size for _ in range(size)]
    for t, col in columns.items():
        for t2, sign, k in col:
            mat[t2][t] += exact.Surd(sign) / exact.Surd(2).sqrt() ** k
    return mat


@pytest.mark.parametrize("flags", FLAGS, ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("coin", COINS, ids=["default"] + [f"seeded{i}" for i in range(20)])
def test_stage_matrices_and_pilot_states_equal_the_spanning_set_build_byte_for_byte(coin, flags):
    """The basis engines' walks are the spanning-set build's, byte for byte, and the coin's pilot state is
    a·H + b·T of their states, byte for byte."""
    protocol = Protocol(coin, **flags)
    measured_at = {stage: var for var, (_, stage) in RECORDERS.items()}
    basis = exact._basis(Protocol, protocol.flip_ok_sign, protocol.corrupt_preparation)
    walked = [engine.initial_state() for engine in basis]
    a, b = protocol.coin_amplitudes
    for stage in DYNAMIC_STAGES:
        unitary = protocol.stage_unitaries[stage]
        matrix = reference.record_matrix(protocol, measured_at[stage]) if stage in measured_at else unitary.matrix
        assert unitary.matrix.tobytes() == matrix.tobytes()
        walked = [StageUnitary(stage, unitary.axes, matrix, unitary.recorder_axis).apply(s) for s in walked]
        head, tail = (engine.pilot_state_after(stage) for engine in basis)
        assert [head.amps.tobytes(), tail.amps.tobytes()] == [s.amps.tobytes() for s in walked]
        assert protocol.pilot_state_after(stage).amps.tobytes() == (a * head.amps + b * tail.amps).tobytes()


@pytest.mark.parametrize("flags", FLAGS, ids=["clean", "flip-ok-sign", "corrupt-preparation"])
def test_planned_apply_equals_the_tensordot_path_bit_for_bit(flags):
    """Every stage matrix (`linear`) on 20 seeded complex states."""
    protocol = Protocol(**flags)
    rng = np.random.default_rng(31)
    for _ in range(20):
        state = StateVector(GLOBAL_SPACE, rng.normal(size=GLOBAL_SPACE.size) + 1j * rng.normal(size=GLOBAL_SPACE.size))
        for unitary in protocol.stage_unitaries.values():
            want = reference.apply_on_axes(state.amps, GLOBAL_SPACE.dims, unitary.axes, unitary.matrix)
            assert np.array_equal(unitary.linear(state).amps, want), unitary.stage


REWRITTEN = {
    StageId.OBS0: ("F1",),
    StageId.PREP1: (),
    StageId.OBS2: ("F2",),
    StageId.MEAS3: ("F1", "W1"),
    StageId.MEAS4: ("F2", "W2"),
}


@pytest.mark.parametrize("flags", FLAGS, ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("coin", COINS, ids=["default"] + [f"seeded{i}" for i in range(20)])
def test_rewritten_memory_axes_per_stage(coin, flags):
    """Recording overwrites the recorder; W1 and W2 also rewrite the friend they measure."""
    protocol = Protocol(coin, **flags)
    for stage, names in REWRITTEN.items():
        assert protocol.stage_unitaries[stage].rewritten_memory_axes == tuple(GLOBAL_SPACE.axis(n) for n in names)


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
            assert list(reference.record_weights(protocol, state, vars).items()) == list(
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


#: the modules written once against the engine contract
SHARED_MODULES = ("born", "bellbohm", "histories", "facts", "epistemics", "cli")


def test_the_engine_contract_is_what_the_shared_modules_read():
    """Every name the shared modules read of an engine is in the contract `exact`'s docstring lists, and
    every listed name is read: neither engine carries a call nobody makes.  An engine is `protocol`, or a
    basis engine of the coin forms: a name bound to what `exact._basis` returns."""
    listed = exact.__doc__.split("read of an engine:", 1)[1].split(".", 1)[0]
    contract = set(re.findall(r"`(\w+)`", listed))
    read = set()
    for name in SHARED_MODULES:
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        engines = {"protocol"} | {
            target.id for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and getattr(getattr(node.value, "func", None), "id", None) == "_basis"
            for target in ast.walk(node.targets[0]) if isinstance(target, ast.Name)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in engines}
    assert read == contract
    assert len(contract) == 11
