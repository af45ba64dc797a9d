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
trajectory probability is an exact number, kept wherever it is nonzero.  A
config is walked as its offset into the flat marginal on CONFIG_AXES, and a
kernel row sums only over the children its stage's config pilot form gives
weight to (`_kernel_children`, once per process and stage), which
`exact_chain` and `transition_kernel` share.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .born import Distribution
from .exact import (
    BASIS_SETTINGS, DYNAMIC_STAGES, GLOBAL_SPACE, MEMORY_AXES, READY, STAGES, StageId, Surd, _basis, _pilot_form,
)
from .linalg import NORM_ATOL

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


#: Memory axes in config field order (F1, F2, W1, W2), which is ascending order.
CONFIG_AXES: tuple[int, ...] = MEMORY_AXES

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


def _children(m: int, rewritten_axes: tuple[int, ...]) -> tuple[int, ...] | None:
    """The offsets of the configs m can move to at a stage rewriting `rewritten_axes`, or None if it rewrites none."""
    free = [i for i, axis in enumerate(CONFIG_AXES) if axis in rewritten_axes]
    if not free:
        return None
    children = []
    for combo in product(*(GLOBAL_SPACE.factors[CONFIG_AXES[i]].labels for i in free)):
        labels = list(_CONFIGS[m])
        for pos, label in zip(free, combo):
            labels[pos] = label
        children.append(_CONFIGS.index(tuple(labels)))
    return tuple(children)


@lru_cache(maxsize=BASIS_SETTINGS * len(DYNAMIC_STAGES))
def _kernel_children(engine: type, flip_ok_sign: bool, corrupt_preparation: bool, stage: StageId) -> dict:
    """Per config the config pilot form before the stage gives weight to, the `_children` the stage's form does.

    A child left out has weight 0 at every coin, so no row's sum changes.
    Read off the basis engines' forms of the stage and the one before it.
    """
    head, tail = _basis(engine, flip_ok_sign, corrupt_preparation)

    def support(s: StageId) -> set[int]:
        return {cell[0] for cell in _pilot_form(head.pilot_state_after(s), tail.pilot_state_after(s), CONFIG_AXES)[-1]}

    before, after = support(STAGES[STAGES.index(stage) - 1]), support(stage)
    rewritten = head.stage_unitaries[stage].rewritten_memory_axes
    every = {m: _children(m, rewritten) for m in before}
    return {m: children and tuple(c for c in children if c in after) for m, children in every.items()}


def _kernel_row(m: int, before: tuple, after: tuple, children_of: dict, floor, shared: dict) -> tuple:
    """(child offset, probability) of each child of positive weight, from two epochs' flat config marginals and
    the stage's `_kernel_children`.  Configs with the same children, which differ only in the registers the
    stage rewrites, share their row, kept in `shared` by children."""
    if floor > before[m]:
        raise UnreachableConfigError(f"config {_CONFIGS[m].render()} has zero weight before this stage")
    children = children_of[m]
    if children is None:
        return ((m, 1.0),)
    row = shared.get(children)
    if row is None:
        denom = sum(after[c] for c in children)
        if floor > denom:
            raise UnreachableConfigError(
                f"config {_CONFIGS[m].render()}: untouched registers have zero weight after the stage"
            )
        row = shared[children] = tuple((c, after[c] / denom) for c in children if after[c])  # never negative
    return row


def transition_kernel(protocol: Engine, m: MemoryConfig, stage: StageId) -> Distribution:
    """One row of the stage's Markov kernel, as a distribution over configs."""
    if stage is StageId.PREP_MINUS1:
        raise ValueError("the initial preparation is not a transition")
    if m not in _CONFIGS:
        raise UnreachableConfigError(f"config {m.render()} has zero weight before this stage")
    prev = STAGES[STAGES.index(stage) - 1]
    row = _kernel_row(
        _CONFIGS.index(m),
        protocol.pilot_state_after(prev).marginal(CONFIG_AXES),
        protocol.pilot_state_after(stage).marginal(CONFIG_AXES),
        _kernel_children(type(protocol), protocol.flip_ok_sign, protocol.corrupt_preparation, stage),
        protocol.weight_floor,
        {},
    )
    return Distribution(("config",), tuple(((c,), p) for c, p in sorted((_CONFIGS[c], p) for c, p in row)))


class Trajectory(NamedTuple):
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


class TrajectoryTable(NamedTuple):
    """Exact distribution over all positive-probability trajectories.

    It keeps each trajectory as config offsets with its probability
    (`paths`), and each epoch's flat config marginal (`marginals`); the
    `Trajectory` entries and the `epoch_weights` dicts are built when read.
    """

    paths: tuple[tuple[tuple[int, ...], float], ...]
    marginals: tuple[tuple, ...]

    @property
    def entries(self) -> tuple[Trajectory, ...]:
        return tuple(Trajectory(tuple(map(_CONFIGS.__getitem__, c)), p) for c, p in self.paths)

    @property
    def epoch_weights(self) -> tuple[dict[MemoryConfig, float], ...]:
        return tuple(dict(zip(_CONFIGS, marginal)) for marginal in self.marginals)

    @property
    def total_probability(self) -> float:
        return sum(p for _, p in self.paths)

    def config_marginal(self, stage: StageId) -> dict[MemoryConfig, float]:
        return self._marginal(STAGES.index(stage), lambda m: m)

    def final_record_marginal(self) -> dict[tuple[str, str], float]:
        return self._marginal(-1, lambda m: (m.w1, m.w2))

    def _marginal(self, epoch: int, key) -> dict:
        acc: dict = {}
        for offsets, p in self.paths:
            k = key(_CONFIGS[offsets[epoch]])
            acc[k] = acc.get(k, 0.0) + p
        return acc

    def probability_of(self, key_sequence: tuple[MemoryConfig, ...]) -> float:
        return sum(t.probability for t in self.entries if t.key_sequence() == key_sequence)

    def sorted_entries(self) -> tuple[Trajectory, ...]:
        """By probability, largest first, then by key sequence: a float by its printed value (`.12g`), so
        probabilities equal but for rounding tie, an exact number by itself."""
        return tuple(sorted(self.entries, key=lambda t: (
            -(t.probability if type(t.probability) is Surd else float(f"{t.probability:.12g}")), t.key_sequence())))


def exact_chain(protocol: Engine) -> TrajectoryTable:
    """Enumerate every trajectory with positive probability, no sampling."""
    floor = protocol.weight_floor
    marginals = tuple(protocol.pilot_state_after(s).marginal(CONFIG_AXES) for s in STAGES)
    if abs(marginals[0][0] - 1.0) > NORM_ATOL:  # READY_CONFIG's offset is 0
        raise ValueError("initial pilot state does not put all memories in the ready state")
    partial: list[tuple[tuple[int, ...], float]] = [((0,), 1.0)]
    setting = type(protocol), protocol.flip_ok_sign, protocol.corrupt_preparation
    for i, stage in enumerate(DYNAMIC_STAGES, start=1):
        children_of = _kernel_children(*setting, stage)
        nxt: list[tuple[tuple[int, ...], float]] = []
        shared: dict[tuple[int, ...], tuple] = {}  # one kernel row per set of children reached
        for configs, prob in partial:
            for child, p in _kernel_row(configs[-1], marginals[i - 1], marginals[i], children_of, floor, shared):
                joint = prob * p
                if floor < joint:
                    nxt.append((configs + (child,), joint))
        partial = nxt
    return TrajectoryTable(tuple(partial), marginals)
