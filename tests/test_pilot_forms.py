"""Pilot states and their marginals read off coin forms, against a walk at the coin.

A coin engine's pilot state after a stage is a·H + b·T, with H and T the
basis engines' states after it, and each marginal is that stage's form
evaluated at the coin.  On the exact engine both equal (`==`, types
included) a walk from the engine's own initial state through its
`stage_unitaries`; on the dense engine they agree within 1e-15, and a
weight the walk reads as exactly zero is exactly zero.
"""

import cmath
import math
import random

import pytest

from ewflab import bellbohm, born, exact, histories
from ewflab.exact import STAGES, ExactProtocol, SparseState
from ewflab.protocol import Protocol, StateVector
from test_cold_engine import HOOK_IDS, HOOKS, _axes_sets

TOL = 1e-15
_RNG = random.Random(33)
#: 20 decimal coins, normalised to within 1e-9 only, as the command line reads them
DECIMAL_COINS = [(f"{math.cos(t):.10f}", f"{math.sin(t):.10f}")
                 for t in (_RNG.uniform(0, 2 * math.pi) for _ in range(20))]
FLOAT_COINS = [(math.cos(t), math.sin(t)) for t in (_RNG.uniform(0, 2 * math.pi) for _ in range(5))]
COMPLEX_COINS = [(0.6, 0.8j)] + [
    (math.cos(t) * cmath.exp(1j * p), math.sin(t) * cmath.exp(1j * q))
    for t, p, q in ((_RNG.uniform(0, 2 * math.pi), _RNG.uniform(0, 6), _RNG.uniform(0, 6)) for _ in range(4))]


def _walk(protocol):
    """The pilot states of `protocol` by stage, walked from its own initial state through its stage maps."""
    state = protocol.initial_state()
    states = {STAGES[0]: state}
    for stage in STAGES[1:]:
        state = states[stage] = protocol.stage_unitaries[stage].linear(state)
    return states


@pytest.mark.parametrize("hooks", HOOKS, ids=HOOK_IDS)
def test_exact_pilot_states_and_marginals_equal_the_walk(hooks):
    """Default coin, 20 decimal coins and 5 float coins: every stage and axes set, exactly."""
    for coin in [None] + DECIMAL_COINS + FLOAT_COINS:
        protocol = ExactProtocol(coin, **hooks)
        for stage, want in _walk(ExactProtocol(coin, **hooks)).items():
            got = protocol.pilot_state_after(stage)
            assert type(got) is SparseState
            assert (got.nums, got.den) == (want.nums, want.den), (coin, stage)
            for axes in _axes_sets():
                flat, walked = got.marginal(axes), want.marginal(axes)
                assert flat == walked, (coin, stage, axes)
                assert [type(x) for x in flat] == [type(x) for x in walked], (coin, stage, axes)


@pytest.mark.parametrize("hooks", HOOKS, ids=HOOK_IDS)
def test_dense_pilot_states_and_marginals_agree_with_the_walk_within_1e_15(hooks):
    """The real coins of the exact test, as floats, and 5 complex coins: every stage and axes set.  A cell
    that is exactly zero in the walk is +0.0 in the form."""
    coins = [None] + [tuple(map(float, c)) for c in DECIMAL_COINS] + FLOAT_COINS + COMPLEX_COINS
    for coin in coins:
        protocol = Protocol(coin, **hooks)
        for stage, want in _walk(Protocol(coin, **hooks)).items():
            got = protocol.pilot_state_after(stage)
            assert type(got) is StateVector and got.trusted
            assert max(abs(got.amps - want.amps)) <= TOL, (coin, stage)
            for axes in _axes_sets():
                flat, walked = got.marginal(axes), want.marginal(axes)
                assert type(flat) is tuple and len(flat) == len(walked)
                for x, w in zip(flat, walked):
                    assert type(x) is float and abs(x - w) <= TOL, (coin, stage, axes)
                    assert w != 0 or math.copysign(1.0, x) > 0 and x == 0, (coin, stage, axes)


def _dense_values(protocol) -> list:
    """Every number of the two joints, the final record marginal, the trajectory table and P[h1], P[h1prime]."""
    values = []
    for policy in born.CollapsePolicy:
        values += [p for _, p in born.joint_distribution(protocol, policy).outcomes]
    values += [p for _, p in born.final_record_marginal(protocol).outcomes]
    table = bellbohm.exact_chain(protocol)
    values += [t.probability for t in table.entries] + list(table.final_record_marginal().values())
    values += [histories.history_probability(protocol, h)
               for h in (histories.okok_fine_history(protocol), histories.okok_coarse_history(protocol))]
    return values


ORACLE_COINS = [None, (0.6, 0.8), (0.6, 0.8j)] + [
    (a, math.sqrt(1 - a * a)) for a in (random.Random(2019).uniform(0.05, 0.99) for _ in range(20))]


@pytest.mark.parametrize("hooks", HOOKS, ids=HOOK_IDS)
def test_no_dense_answer_is_negative_zero(hooks):
    """A cell with no terms, or whose terms cancel, reads the engine's zero, +0.0: so does everything read
    off it.  A printed -0 would differ from the exact engine's 0."""
    for coin in ORACLE_COINS:
        values = _dense_values(Protocol(coin, **hooks))
        assert all(type(v) is float for v in values), coin
        assert [v for v in values if v < 0 or math.copysign(1.0, v) < 0] == [], coin


@pytest.mark.parametrize("hooks", HOOKS, ids=HOOK_IDS)
def test_a_real_coin_reads_the_bits_of_the_complex_evaluation(hooks):
    """The basis states are real, so their forms hold float pairs, and a real coin evaluates them in floats:
    every stage and axes set has the bits of each cell's Σ|a·h + b·t|² in complex arithmetic, which every
    coin was evaluated in before.  The imaginary terms that drops are signed zeros."""
    for coin in [None] + [tuple(map(float, c)) for c in DECIMAL_COINS] + FLOAT_COINS:
        protocol = Protocol(coin, **hooks)
        a, b = protocol.coin_amplitudes
        for stage in STAGES:
            state = protocol.pilot_state_after(stage)
            _, head, tail = state._pilot
            for axes in _axes_sets():
                size, real, cells = exact._pilot_form(head, tail, axes)
                assert real and all(type(x) is float for _, pairs in cells for pair in pairs for x in pair)
                want = [0.0] * size
                for t, pairs in cells:
                    v = 0.0
                    for x, y in pairs:
                        z = a * complex(x) + b * complex(y)
                        v += z.real * z.real + z.imag * z.imag
                    want[t] = v
                assert [x.hex() for x in state.marginal(axes)] == [x.hex() for x in want], (coin, stage, axes)
