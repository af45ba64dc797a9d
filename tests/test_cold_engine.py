"""What a cold engine derives once: readiness on its walk, flat marginals, one stage mapping per flag pair.

A pilot walk steps a recording stage with the checking `apply` where an
earlier stage, or an initial state with a memory off its ready label, may
have left its recorder not ready, and with `linear` elsewhere; a state
computes each marginal once per axes, as a flat row-major tuple; and
`exact.stage_maps` returns one mapping per flag pair, whose `StageMap`s
carry whether they halve.  Each is checked against the former bodies in
`reference`.
"""

import copy
import itertools
import math
import pickle
from functools import cached_property

import numpy as np
import pytest

import reference
from ewflab import exact, histories
from ewflab.exact import (
    GLOBAL_SPACE,
    MEMORY_AXES,
    STAGES,
    ExactProtocol,
    PreconditionError,
    SparseState,
    StageId,
    StageMap,
    halves,
)
from ewflab.protocol import READY, Protocol, StageUnitary, StateVector

ENGINES = [Protocol, ExactProtocol]
HOOKS = [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}]
HOOK_IDS = ["clean", "flip-ok-sign", "corrupt-preparation"]
COINS = [None, (0.6, 0.8), (math.cos(1.0), math.sin(1.0))]
COIN_IDS = ["default", "0.6,0.8", "float"]


# -- one stage mapping per flag pair --------------------------------------------


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("corrupt", [False, True])
def test_every_spelling_of_a_flag_pair_reads_one_stage_mapping(flip, corrupt):
    spellings = [
        exact.stage_maps(flip, corrupt),
        exact.stage_maps(flip, corrupt_preparation=corrupt),
        exact.stage_maps(flip_ok_sign=flip, corrupt_preparation=corrupt),
        exact.stage_maps(corrupt_preparation=corrupt, flip_ok_sign=flip),
        exact.stage_maps(int(flip), int(corrupt)),
        ExactProtocol(flip_ok_sign=flip, corrupt_preparation=corrupt).stage_unitaries,
    ]
    if not corrupt:
        spellings += [exact.stage_maps(flip), exact.stage_maps(flip_ok_sign=flip)]
    if not flip:
        spellings += [exact.stage_maps(corrupt_preparation=corrupt)]
    if not (flip or corrupt):
        spellings += [exact.stage_maps()]
    assert all(maps is spellings[0] for maps in spellings)
    others = [exact.stage_maps(f, c) for f in (False, True) for c in (False, True) if (f, c) != (flip, corrupt)]
    assert all(maps is not spellings[0] for maps in others)


# -- the stage map carries whether it halves --------------------------------------


@pytest.mark.parametrize("hooks", HOOKS, ids=HOOK_IDS)
def test_each_stage_map_carries_whether_it_halves(hooks):
    maps = ExactProtocol(**hooks).stage_unitaries
    assert {s: m.halved for s, m in maps.items()} == {
        StageId.OBS0: False, StageId.PREP1: True, StageId.OBS2: False, StageId.MEAS3: True, StageId.MEAS4: True,
    }
    assert all(m.halved is halves(m.columns) for m in maps.values())


@pytest.mark.parametrize("hooks", HOOKS, ids=HOOK_IDS)
@pytest.mark.parametrize("coin", COINS, ids=COIN_IDS)
def test_exact_pilot_states_and_chains_equal_the_column_scanning_apply(coin, hooks):
    """Every pilot state, and every chain of h1 and h1prime refined over the recording stages, equals
    (`==`) the walk of the former `SparseState.apply`, which read `halved` off the columns each time."""
    protocol = ExactProtocol(coin, **hooks)
    state = protocol.initial_state()
    for stage in STAGES[1:]:
        m = protocol.stage_unitaries[stage]
        state = reference.sparse_apply(state, m.axes, m.columns)
        got = protocol.pilot_state_after(stage)
        assert (got.nums, got.den) == (state.nums, state.den), stage
    family = [histories.okok_fine_history(protocol), histories.okok_coarse_history(protocol)]
    union = tuple(sorted({e.stage for h in family for e in h.events}))
    for h in family:
        for path, got in histories._leaves(protocol, histories._member_key(h.events, union)):
            masks = dict(path)
            state = protocol.initial_state()
            for i, stage in enumerate(STAGES[1:], start=1):
                m = protocol.stage_unitaries[stage]
                state = reference.sparse_apply(state, m.axes, m.columns)
                if i in masks:
                    state = state.masked(masks[i])
            assert (got.nums, got.den) == (state.nums, state.den), path


# -- readiness derived on the pilot walk ---------------------------------------------


def _counting(monkeypatch, cls, name: str, calls: list) -> None:
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append((name, self, args))
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)


ENGINE_CLASSES = pytest.mark.parametrize(
    "engine, state_class, stage_class",
    [(Protocol, StateVector, StageUnitary), (ExactProtocol, SparseState, StageMap)], ids=["dense", "exact"])


def _steps(monkeypatch, state_class, stage_class) -> list:
    """A list of (name, self, args) for every `marginal`, `apply` and `linear` call made from here on."""
    calls = []
    _counting(monkeypatch, state_class, "marginal", calls)
    _counting(monkeypatch, stage_class, "apply", calls)
    _counting(monkeypatch, stage_class, "linear", calls)
    return calls


@ENGINE_CLASSES
@pytest.mark.parametrize("hooks", HOOKS, ids=HOOK_IDS)
@pytest.mark.parametrize("coin", COINS, ids=COIN_IDS)
def test_a_cold_pilot_walk_steps_linearly_and_reads_no_marginal(engine, state_class, stage_class, coin, hooks,
                                                                monkeypatch):
    """Under every hook setting the initial state has every memory ready and no stage rewrites a later
    stage's recorder, so the walk makes its 5 steps with `linear`: no `apply`, no ready check, no marginal."""
    calls = _steps(monkeypatch, state_class, stage_class)
    engine(coin, **hooks).pilot_state_after(StageId.MEAS4)
    assert [(name, self.stage) for name, self, _ in calls] == [("linear", s) for s in STAGES[1:]]


def _w2_swap(engine):
    """A stage at MEAS3 that writes ok into W2's memory wherever it is ready: W2 is not ready at MEAS4."""
    w2 = GLOBAL_SPACE.axis("W2")
    if engine is Protocol:
        swap = np.eye(3, dtype=np.complex128)[[1, 0, 2]]
        return StageUnitary(StageId.MEAS3, (w2,), swap)
    return exact._stage_map(StageId.MEAS3, (w2,), {0: ((1, 1, 0),), 1: ((0, 1, 0),), 2: ((2, 1, 0),)}, None)


def _rewrites_w2(engine):
    """An engine class whose stage mapping, built per instance, has `_w2_swap` at MEAS3."""

    class RewritesW2(engine):
        @cached_property
        def stage_unitaries(self):
            return {**super().stage_unitaries, StageId.MEAS3: _w2_swap(engine)}

    return RewritesW2


@ENGINE_CLASSES
def test_a_mapping_that_rewrites_w2_before_meas4_still_raises_from_the_walk(engine, state_class, stage_class,
                                                                           monkeypatch):
    """The swap rewrites W2, so the walk steps MEAS4, and only MEAS4, with the checking `apply`."""
    protocol = _rewrites_w2(engine)()
    calls = _steps(monkeypatch, state_class, stage_class)
    protocol.pilot_state_after(StageId.MEAS3)
    with pytest.raises(PreconditionError, match=r"stage MEAS4: recorder W2 memory is not ready \(weight 1\.000e\+00"):
        protocol.pilot_state_after(StageId.MEAS4)
    assert [(name, self.stage) for name, self, _ in calls if name != "marginal"] == [
        ("linear", s) for s in STAGES[1:-1]] + [("apply", StageId.MEAS4)]


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_an_initial_state_with_a_memory_not_ready_is_checked_at_every_stage(engine):
    """A walk from a state with a memory off its ready label checks every recording stage."""
    index = GLOBAL_SPACE.index_of(("tail", "head", "down", READY, READY, READY))

    class RecordedF1(engine):
        def initial_state(self):
            if engine is Protocol:
                amps = np.zeros(GLOBAL_SPACE.size, dtype=np.complex128)
                amps[index] = 1.0
                return StateVector(GLOBAL_SPACE, amps)
            return SparseState({index: (1, 0, 0, 0)})

    protocol = RecordedF1()
    assert protocol.initial_state().marginal((GLOBAL_SPACE.axis("F1"),))[0] == 0
    with pytest.raises(PreconditionError, match="stage OBS0: recorder F1 memory is not ready"):
        protocol.pilot_state_after(StageId.OBS0)


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_equal_stage_mappings_built_per_instance_each_check_meas4(engine):
    """200 engines that each build their own equal mapping each derive on their walk that W2 may not be
    ready, and each raises at MEAS4."""
    rewrites_w2 = _rewrites_w2(engine)
    for _ in range(200):
        protocol = rewrites_w2()
        protocol.pilot_state_after(StageId.MEAS3)
        with pytest.raises(PreconditionError, match="stage MEAS4: recorder W2 memory is not ready"):
            protocol.pilot_state_after(StageId.MEAS4)


def test_apply_still_checks_a_caller_state_on_the_exact_engine():
    index = GLOBAL_SPACE.index_of(("tail", "tail", "up", "+", "ok", READY))
    with pytest.raises(PreconditionError, match="stage MEAS3: recorder W1 memory is not ready"):
        ExactProtocol().stage_unitaries[StageId.MEAS3].apply(SparseState({index: (1, 0, 0, 0)}))


# -- flat marginals, computed once per state and axes --------------------------------


def _axes_sets():
    return [axes for n in range(1, 4) for axes in itertools.combinations(range(len(GLOBAL_SPACE.dims)), n)] + [
        MEMORY_AXES]


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
@pytest.mark.parametrize("coin", COINS, ids=COIN_IDS)
def test_a_flat_marginal_is_the_former_dicts_values_in_row_major_order(engine, coin):
    protocol = engine(coin)
    for stage in STAGES:
        state = protocol.pilot_state_after(stage)
        for axes in _axes_sets():
            former = reference.marginal(state, axes)
            assert list(former) == list(itertools.product(*(range(GLOBAL_SPACE.dims[a]) for a in axes)))
            flat = state.marginal(axes)
            assert type(flat) is tuple
            assert list(flat) == list(former.values()), (stage, axes)
            if engine is Protocol:
                assert [x.hex() for x in flat] == [x.hex() for x in former.values()]


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_the_marginal_memo_is_per_state_and_left_out_of_copies_and_pickles(engine):
    state = engine((0.6, 0.8)).pilot_state_after(StageId.MEAS4)
    flat = state.marginal(MEMORY_AXES)
    assert state.marginal(MEMORY_AXES) is flat
    for clone in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert getattr(clone, "_marginals", None) is None
        again = clone.marginal(MEMORY_AXES)
        assert again == flat and again is not flat
        assert state.marginal(MEMORY_AXES) is flat
