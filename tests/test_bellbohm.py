"""Exact beable chain: projectors, kernel rows, trajectory enumeration."""

import math

import numpy as np
import pytest

import reference
from ewflab import born
from ewflab.bellbohm import (
    CONFIG_AXES,
    REFERENCE_TRAJECTORY,
    MemoryConfig,
    UnreachableConfigError,
    _kernel_row,
    all_configs,
    config_weights,
    exact_chain,
    transition_kernel,
)
from ewflab.exact import ExactProtocol
from ewflab.linalg import ZERO_WEIGHT_FLOOR, StateVector
from ewflab.protocol import DYNAMIC_STAGES, GLOBAL_SPACE, STAGES, Protocol, StageId
from reference import config_projector, project, weight


class TestConfigProjectors:
    def test_ready_config_projector_has_rank_four(self):
        assert config_projector(MemoryConfig("0", "0", "0", "0")).rank == 4

    def test_distinct_config_projectors_are_orthogonal(self):
        a = config_projector(MemoryConfig("head", "+", "ok", "0"))
        b = config_projector(MemoryConfig("tail", "+", "ok", "0"))
        for va in a.vectors:
            for vb in b.vectors:
                assert abs(np.vdot(va.amps, vb.amps)) < 1e-13

    def test_projectors_resolve_identity(self):
        total = np.zeros((GLOBAL_SPACE.size,), dtype=float)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(GLOBAL_SPACE.size) + 1j * rng.standard_normal(GLOBAL_SPACE.size)
        v /= np.linalg.norm(v)
        sv = StateVector(GLOBAL_SPACE, v)
        acc = sum(weight(config_projector(m), sv) for m in all_configs())
        assert acc == pytest.approx(1.0, abs=1e-11)

    def test_config_weights_match_projector_weights(self, protocol):
        state = protocol.pilot_state_after(StageId.MEAS3)
        table = config_weights(state)
        for m in (MemoryConfig("tail", "+", "ok", "0"), MemoryConfig("head", "-", "fail", "0")):
            assert table[m] == pytest.approx(weight(config_projector(m), state), abs=1e-12)

    def test_eighty_one_configs(self):
        assert len(all_configs()) == 81


class TestKernel:
    def test_first_observation_row(self, protocol):
        row = transition_kernel(protocol, MemoryConfig("0", "0", "0", "0"), StageId.OBS0)
        d = {k[0]: v for k, v in row.as_dict().items()}
        assert d[MemoryConfig("head", "0", "0", "0")] == pytest.approx(1 / 3, abs=1e-12)
        assert d[MemoryConfig("tail", "0", "0", "0")] == pytest.approx(2 / 3, abs=1e-12)

    def test_preparation_leaves_memories_alone(self, protocol):
        row = transition_kernel(protocol, MemoryConfig("head", "0", "0", "0"), StageId.PREP1)
        d = {k[0]: v for k, v in row.as_dict().items()}
        assert d == {MemoryConfig("head", "0", "0", "0"): pytest.approx(1.0, abs=1e-12)}

    def test_final_measurement_row_from_ok_branch(self, protocol):
        """Oracle: direct projector algebra on the full space.

        The parent component is a single product state, so the row equals the
        normalized weights of U Pi_m psi over child configs; all four children
        carry 1/4 and the memory flip to minus is strictly positive.
        """
        parent = MemoryConfig("tail", "+", "ok", "0")
        state = protocol.pilot_state_after(StageId.MEAS3)
        projected = config_projector(parent)
        comp = project(projected, state)
        evolved = protocol.stage_unitaries[StageId.MEAS4].linear(comp)
        norm2 = comp.norm() ** 2
        row = transition_kernel(protocol, parent, StageId.MEAS4)
        d = {k[0]: v for k, v in row.as_dict().items()}
        for child, p in d.items():
            direct = weight(config_projector(child), evolved) / norm2
            assert p == pytest.approx(direct, abs=1e-12)
        flipped = MemoryConfig("tail", "-", "ok", "ok")
        assert d[flipped] == pytest.approx(0.25, abs=1e-12)
        assert d[flipped] > 0

    def test_rows_sum_to_one(self, protocol):
        for stage in (StageId.OBS0, StageId.OBS2, StageId.MEAS3, StageId.MEAS4):
            prev = STAGES[STAGES.index(stage) - 1]
            weights = config_weights(protocol.pilot_state_after(prev))
            for m, w in weights.items():
                if w < 1e-12:
                    continue
                row = transition_kernel(protocol, m, stage)
                assert sum(p for _, p in row.outcomes) == pytest.approx(1.0, abs=1e-11)

    def test_unreachable_parent_raises(self, protocol):
        with pytest.raises(UnreachableConfigError):
            transition_kernel(protocol, MemoryConfig("head", "+", "0", "0"), StageId.MEAS3)


KERNEL_COINS = [None] + [(math.cos(t), math.sin(t)) for t in np.random.default_rng(1984).uniform(0, 2 * math.pi, 10)]


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
@pytest.mark.parametrize("coin", KERNEL_COINS, ids=["default"] + [f"seeded{i}" for i in range(10)])
def test_kernel_rows_equal_rows_with_rebuilt_children(engine, coin):
    """Every reachable (config, stage): the cached child offsets over flat marginals give the same row,
    entry order included."""
    protocol = engine(coin)
    weights = [config_weights(protocol.pilot_state_after(s)) for s in STAGES]
    marginals = [protocol.pilot_state_after(s).marginal(CONFIG_AXES) for s in STAGES]
    rows = 0
    for i, stage in enumerate(DYNAMIC_STAGES, start=1):
        rewritten = protocol.stage_unitaries[stage].rewritten_memory_axes
        for offset, (m, w) in enumerate(weights[i - 1].items()):
            if w < ZERO_WEIGHT_FLOOR:
                continue
            want = reference.kernel_row(m, weights[i - 1], weights[i], rewritten)
            got = _kernel_row(offset, marginals[i - 1], marginals[i], rewritten, protocol.weight_floor)
            assert [(all_configs()[c], p) for c, p in got] == list(want.items())
            rows += 1
    assert rows >= 5


def _bits(x):
    """A float's bits (its hex, sign of zero included); an exact number as itself."""
    return x.hex() if isinstance(x, float) else x


def _table_bits(table):
    entries = [(t.configs, _bits(t.probability)) for t in table.entries]
    return entries, [{m: _bits(w) for m, w in ws.items()} for ws in table.epoch_weights]


@pytest.mark.parametrize("engine", [Protocol, ExactProtocol], ids=["dense", "exact"])
@pytest.mark.parametrize("hooks", [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}],
                         ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("coin", KERNEL_COINS, ids=["default"] + [f"seeded{i}" for i in range(10)])
def test_shared_ratios_equal_the_per_branch_oracles(engine, hooks, coin):
    """Both joints and the trajectory table equal the bodies that divided once per branch, cell or
    partial trajectory: dense floats bit for bit, exact numbers exactly.  The marginal joint's cells
    are the oracle's times one inverse of the total weight of the first record, |a|^2 + |b|^2."""
    protocol = engine(coin, **hooks)
    total = sum(protocol.record_weights(protocol.pilot_state_after(StageId.OBS2), ("r",)).values())
    marginal = {cell: p * (1 / total) for cell, p in reference.marginal_joint(protocol).items()}
    for got, want in [(born._sequential_joint(protocol), reference.sequential_joint(protocol)),
                      (born._marginal_joint(protocol), marginal)]:
        assert list(got.items()) == list(want.items())
        assert [_bits(p) for p in got.values()] == [_bits(p) for p in want.values()]
    assert _table_bits(exact_chain(protocol)) == _table_bits(reference.exact_chain(protocol))


class TestExactChain:
    def test_total_probability_is_one(self, protocol):
        table = exact_chain(protocol)
        assert table.total_probability == pytest.approx(1.0, abs=1e-10)

    def test_reference_trajectory_has_positive_probability(self, protocol):
        table = exact_chain(protocol)
        p = table.probability_of(REFERENCE_TRAJECTORY)
        assert p > 0
        assert p == pytest.approx(1.0 / 48.0, abs=1e-12)

    def test_final_record_marginal_matches_born(self, protocol):
        """Oracle: the born module's joint distribution."""
        table = exact_chain(protocol)
        marginal = table.final_record_marginal()
        joint = born.joint_distribution(protocol).marginal(("w1", "w2"))
        for key, value in marginal.items():
            assert value == pytest.approx(joint.prob(key), abs=1e-10)

    def test_chain_marginal_equals_born_weights_at_every_epoch(self, protocol):
        table = exact_chain(protocol)
        for stage in STAGES:
            chain = table.config_marginal(stage)
            exact = table.epoch_weights[STAGES.index(stage)]
            for m in all_configs():
                assert chain.get(m, 0.0) == pytest.approx(exact.get(m, 0.0), abs=1e-11)

    def test_coin_record_fixed_until_w1_acts(self, protocol):
        """f1 never changes across the preparation and spin-recording stages."""
        prep1 = STAGES.index(StageId.PREP1)
        obs2 = STAGES.index(StageId.OBS2)
        for t in exact_chain(protocol).entries:
            configs = t.configs
            assert configs[prep1].f1 == configs[prep1 - 1].f1
            assert configs[obs2].f1 == configs[obs2 - 1].f1

    def test_f2_flips_only_at_final_measurement(self, protocol):
        """A +/- flip of F2's record happens at the last stage and nowhere else."""
        meas3 = STAGES.index(StageId.MEAS3)
        meas4 = STAGES.index(StageId.MEAS4)
        flip_seen = False
        for t in exact_chain(protocol).entries:
            configs = t.configs
            for i in range(1, meas4):
                if configs[i - 1].f2 in ("+", "-"):
                    assert configs[i].f2 == configs[i - 1].f2
            if configs[meas4 - 1].f2 == "+" and configs[meas4].f2 == "-":
                flip_seen = True
        assert flip_seen

    def test_reference_trajectory_passes_through_plus_before_minus(self, protocol):
        """The ok/ok realization flips F2's memory from + to - at the end."""
        assert REFERENCE_TRAJECTORY[2].f2 == "+"
        assert REFERENCE_TRAJECTORY[4].f2 == "-"
        assert REFERENCE_TRAJECTORY[4].w1 == "ok"
        assert REFERENCE_TRAJECTORY[4].w2 == "ok"
