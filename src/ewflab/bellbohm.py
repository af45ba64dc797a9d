"""Exact beable dynamics over the four agents' memory registers.

The beable is a MemoryConfig: one definite label per agent memory, 81
possible values.  The pilot state is never collapsed; it drives a Markov
chain over configs, one transition per stage.  At each stage the memory
registers the stage unitary rewrites are resampled from the new pilot
state's Born weights conditioned on the untouched registers; untouched
registers keep their values.  Stage unitaries act as the identity on the
subsystems they do not touch, so the Born marginal over untouched registers
is preserved exactly, which makes the chain's config marginal equal the pilot
state's Born weights at every epoch, with no sampling anywhere.

The state space is small enough (81 configs, 5 transitions) to enumerate the
full trajectory distribution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .born import Distribution
from .linalg import NORM_ATOL, ZERO_WEIGHT_FLOOR, StateVector
from .protocol import (
    DYNAMIC_STAGES,
    GLOBAL_SPACE,
    READY,
    STAGES,
    Protocol,
    StageId,
    memory_marginal,
)


class UnreachableConfigError(ValueError):
    """Transition requested from a config the pilot state gives zero weight."""


class MemoryConfig(NamedTuple):
    f1: str
    f2: str
    w1: str
    w2: str

    def render(self) -> str:
        return "(" + ",".join(self) + ")"


#: Memory axes in config field order (F1, F2, W1, W2).
CONFIG_AXES: tuple[int, ...] = (
    GLOBAL_SPACE.axis("F1"),
    GLOBAL_SPACE.axis("F2"),
    GLOBAL_SPACE.axis("W1"),
    GLOBAL_SPACE.axis("W2"),
)

READY_CONFIG = MemoryConfig(READY, READY, READY, READY)


def all_configs() -> list[MemoryConfig]:
    labelsets = [GLOBAL_SPACE.factors[a].labels for a in CONFIG_AXES]
    return [MemoryConfig(*combo) for combo in product(*labelsets)]


def config_weights(state: StateVector) -> dict[MemoryConfig, float]:
    """Born weight of every config in one pass."""
    marg = memory_marginal(state, CONFIG_AXES)  # CONFIG_AXES are ascending
    out: dict[MemoryConfig, float] = {}
    for idx in np.ndindex(*marg.shape):
        labels = tuple(GLOBAL_SPACE.factors[a].labels[i] for a, i in zip(CONFIG_AXES, idx))
        out[MemoryConfig(*labels)] = float(marg[idx])
    return out


def _kernel_row(
    m: MemoryConfig,
    weights_before: dict[MemoryConfig, float],
    weights_after: dict[MemoryConfig, float],
    rewritten_axes: tuple[int, ...],
) -> dict[MemoryConfig, float]:
    if weights_before.get(m, 0.0) < ZERO_WEIGHT_FLOOR:
        raise UnreachableConfigError(f"config {m.render()} has zero weight before this stage")
    free = [i for i, axis in enumerate(CONFIG_AXES) if axis in rewritten_axes]
    if not free:
        return {m: 1.0}
    labelsets = [GLOBAL_SPACE.factors[CONFIG_AXES[i]].labels for i in free]
    children = []
    for combo in product(*labelsets):
        labels = list(m)
        for pos, label in zip(free, combo):
            labels[pos] = label
        children.append(MemoryConfig(*labels))
    denom = sum(weights_after[c] for c in children)
    if denom < ZERO_WEIGHT_FLOOR:
        raise UnreachableConfigError(
            f"config {m.render()}: untouched registers have zero weight after the stage"
        )
    return {c: weights_after[c] / denom for c in children if weights_after[c] > 0.0}


def transition_kernel(protocol: Protocol, m: MemoryConfig, stage: StageId) -> Distribution:
    """One row of the stage's Markov kernel, as a distribution over configs."""
    if stage is StageId.PREP_MINUS1:
        raise ValueError("the initial preparation is not a transition")
    prev = STAGES[STAGES.index(stage) - 1]
    row = _kernel_row(
        m,
        config_weights(protocol.pilot_state_after(prev)),
        config_weights(protocol.pilot_state_after(stage)),
        protocol.stage_unitary(stage).rewritten_memory_axes,
    )
    return Distribution(("config",), tuple(((c,), p) for c, p in sorted(row.items())))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One beable history: a config at every epoch, initial preparation included."""

    configs: tuple[MemoryConfig, ...]
    probability: float

    def key_sequence(self) -> tuple[MemoryConfig, ...]:
        """Configs with the no-op spin-preparation epoch collapsed away."""
        prep1 = STAGES.index(StageId.PREP1)
        return self.configs[:prep1] + self.configs[prep1 + 1 :]

    def render(self) -> str:
        return " -> ".join(c.render() for c in self.key_sequence())


#: The realized beable sequence on which both para-experimenters record ok.
REFERENCE_TRAJECTORY: tuple[MemoryConfig, ...] = (
    MemoryConfig("0", "0", "0", "0"),
    MemoryConfig("tail", "0", "0", "0"),
    MemoryConfig("tail", "+", "0", "0"),
    MemoryConfig("tail", "+", "ok", "0"),
    MemoryConfig("tail", "-", "ok", "ok"),
)


@dataclass(frozen=True, eq=False)
class TrajectoryTable:
    """Exact distribution over all positive-probability trajectories."""

    entries: tuple[Trajectory, ...]
    epoch_weights: tuple[dict[MemoryConfig, float], ...]

    @property
    def total_probability(self) -> float:
        return sum(t.probability for t in self.entries)

    def config_marginal(self, stage: StageId) -> dict[MemoryConfig, float]:
        i = STAGES.index(stage)
        acc: dict[MemoryConfig, float] = {}
        for t in self.entries:
            c = t.configs[i]
            acc[c] = acc.get(c, 0.0) + t.probability
        return acc

    def final_record_marginal(self) -> dict[tuple[str, str], float]:
        acc: dict[tuple[str, str], float] = {}
        for t in self.entries:
            final = t.configs[-1]
            key = (final.w1, final.w2)
            acc[key] = acc.get(key, 0.0) + t.probability
        return acc

    def probability_of(self, key_sequence: tuple[MemoryConfig, ...]) -> float:
        return sum(t.probability for t in self.entries if t.key_sequence() == key_sequence)

    def sorted_entries(self) -> tuple[Trajectory, ...]:
        return tuple(sorted(self.entries, key=lambda t: (-t.probability, t.key_sequence())))


def exact_chain(protocol: Protocol) -> TrajectoryTable:
    """Enumerate every trajectory with positive probability, no sampling."""
    epoch_weights = [config_weights(protocol.pilot_state_after(s)) for s in STAGES]
    start_weight = epoch_weights[0].get(READY_CONFIG, 0.0)
    if abs(start_weight - 1.0) > NORM_ATOL:
        raise ValueError("initial pilot state does not put all memories in the ready state")
    partial: list[tuple[tuple[MemoryConfig, ...], float]] = [((READY_CONFIG,), 1.0)]
    for i, stage in enumerate(DYNAMIC_STAGES, start=1):
        rewritten = protocol.stage_unitary(stage).rewritten_memory_axes
        nxt: list[tuple[tuple[MemoryConfig, ...], float]] = []
        for configs, prob in partial:
            row = _kernel_row(configs[-1], epoch_weights[i - 1], epoch_weights[i], rewritten)
            for child, p in row.items():
                joint = prob * p
                if joint > ZERO_WEIGHT_FLOOR:
                    nxt.append((configs + (child,), joint))
        partial = nxt
    entries = tuple(Trajectory(configs, prob) for configs, prob in partial)
    return TrajectoryTable(entries, tuple(epoch_weights))
