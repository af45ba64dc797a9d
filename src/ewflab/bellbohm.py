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
full trajectory distribution exactly, and on the exact engine every
trajectory probability is an exact number.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .born import Distribution
from .exact import DYNAMIC_STAGES, GLOBAL_SPACE, READY, STAGES, StageId
from .linalg import NORM_ATOL, ZERO_WEIGHT_FLOOR, Frozen, setfield

if TYPE_CHECKING:
    from .exact import Engine
    from .protocol import StateVector


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


#: The 81 configs in label-index order on CONFIG_AXES, which is the row-major order of a marginal on them.
_CONFIGS: tuple[MemoryConfig, ...] = tuple(
    MemoryConfig(*combo) for combo in product(*(GLOBAL_SPACE.factors[a].labels for a in CONFIG_AXES))
)


def all_configs() -> list[MemoryConfig]:
    return list(_CONFIGS)


def config_weights(state: StateVector) -> dict[MemoryConfig, float]:
    """Born weight of every config in one pass."""
    return dict(zip(_CONFIGS, state.marginal(CONFIG_AXES)))  # CONFIG_AXES are ascending


@cache
def _children(m: MemoryConfig, rewritten_axes: tuple[int, ...]) -> tuple[MemoryConfig, ...] | None:
    """The configs m can move to at a stage rewriting `rewritten_axes`, or None if it rewrites none.

    They do not depend on the coin, so each (config, stage) is worked out once per process.
    """
    free = [i for i, axis in enumerate(CONFIG_AXES) if axis in rewritten_axes]
    if not free:
        return None
    children = []
    for combo in product(*(GLOBAL_SPACE.factors[CONFIG_AXES[i]].labels for i in free)):
        labels = list(m)
        for pos, label in zip(free, combo):
            labels[pos] = label
        children.append(MemoryConfig(*labels))
    return tuple(children)


def _kernel_row(
    m: MemoryConfig,
    weights_before: dict[MemoryConfig, float],
    weights_after: dict[MemoryConfig, float],
    rewritten_axes: tuple[int, ...],
) -> dict[MemoryConfig, float]:
    if weights_before.get(m, 0.0) < ZERO_WEIGHT_FLOOR:
        raise UnreachableConfigError(f"config {m.render()} has zero weight before this stage")
    children = _children(m, rewritten_axes)
    if children is None:
        return {m: 1.0}
    denom = sum(weights_after[c] for c in children)
    if denom < ZERO_WEIGHT_FLOOR:
        raise UnreachableConfigError(
            f"config {m.render()}: untouched registers have zero weight after the stage"
        )
    return {c: weights_after[c] / denom for c in children if weights_after[c] > 0.0}


def transition_kernel(protocol: Engine, m: MemoryConfig, stage: StageId) -> Distribution:
    """One row of the stage's Markov kernel, as a distribution over configs."""
    if stage is StageId.PREP_MINUS1:
        raise ValueError("the initial preparation is not a transition")
    prev = STAGES[STAGES.index(stage) - 1]
    row = _kernel_row(
        m,
        config_weights(protocol.pilot_state_after(prev)),
        config_weights(protocol.pilot_state_after(stage)),
        protocol.stage_unitaries[stage].rewritten_memory_axes,
    )
    return Distribution(("config",), tuple(((c,), p) for c, p in sorted(row.items())))


class Trajectory(Frozen):
    """One beable history: a config at every epoch, initial preparation included."""

    __slots__ = ("configs", "probability")

    def __init__(self, configs: tuple[MemoryConfig, ...], probability: float) -> None:
        setfield(self, "configs", configs)
        setfield(self, "probability", probability)

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


class TrajectoryTable(Frozen):
    """Exact distribution over all positive-probability trajectories."""

    __slots__ = ("entries", "epoch_weights")

    def __init__(
        self, entries: tuple[Trajectory, ...], epoch_weights: tuple[dict[MemoryConfig, float], ...]
    ) -> None:
        setfield(self, "entries", entries)
        setfield(self, "epoch_weights", epoch_weights)

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


def exact_chain(protocol: Engine) -> TrajectoryTable:
    """Enumerate every trajectory with positive probability, no sampling."""
    epoch_weights = [config_weights(protocol.pilot_state_after(s)) for s in STAGES]
    start_weight = epoch_weights[0].get(READY_CONFIG, 0.0)
    if abs(start_weight - 1.0) > NORM_ATOL:
        raise ValueError("initial pilot state does not put all memories in the ready state")
    partial: list[tuple[tuple[MemoryConfig, ...], float]] = [((READY_CONFIG,), 1.0)]
    for i, stage in enumerate(DYNAMIC_STAGES, start=1):
        rewritten = protocol.stage_unitaries[stage].rewritten_memory_axes
        nxt: list[tuple[tuple[MemoryConfig, ...], float]] = []
        rows: dict[MemoryConfig, dict[MemoryConfig, float]] = {}  # one kernel row per config reached
        for configs, prob in partial:
            m = configs[-1]
            row = rows.get(m)
            if row is None:
                row = rows[m] = _kernel_row(m, epoch_weights[i - 1], epoch_weights[i], rewritten)
            for child, p in row.items():
                joint = prob * p
                if joint > ZERO_WEIGHT_FLOOR:
                    nxt.append((configs + (child,), joint))
        partial = nxt
    entries = tuple(Trajectory(configs, prob) for configs, prob in partial)
    return TrajectoryTable(entries, tuple(epoch_weights))
