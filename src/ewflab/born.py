"""Outcome statistics extracted from pilot states.

Two extraction policies are supported and must agree:

  * SEQUENTIAL_PROJECTION walks the stages in order, projecting the pilot
    state onto each new record and renormalizing, chaining conditional
    probabilities.  A record conditions later outcomes only while its memory
    register is untouched; once a later stage unitary rewrites that register
    (the para-experimenters' measurements do), the condition expires.
  * NO_COLLAPSE_MARGINAL never renormalizes: it reads squared amplitudes of
    record configurations straight off the pilot states, taking each record
    at the last epoch where its register is still intact, and assembles the
    joint from ratios of those weights.

Both reproduce the same joint distribution; in particular the (w1, w2)
marginal equals the final pilot state's record weights over their sum.
Every probability is a ratio of Born weights, and an accepted coin has
|a|^2 + |b|^2 = 1 only within `NORM_ATOL`, so each no-collapse read scales
its cells by one inverse of the total weight it read: the policies agree at
every accepted coin, exactly on the exact engine.

Outcomes are read off record weights, by offset into each pilot state's
flat marginal (a plan per tuple of reads, once per process); no measurement
is applied to a state.  A weight or branch is zero below the engine's
`weight_floor`: the float floor on the dense engine, an exact test on the
exact one.  One event's weight, alone or given another, is a history
probability or a ratio of two (`facts`), which `CertaintyResult` classifies.

Every function here runs on either engine (`protocol.Protocol` or
`exact.ExactProtocol`): a probability is a float from the first and an
exact `Surd` from the second, which alone gets an `exact` label.
"""

from __future__ import annotations

import enum
from functools import cache
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .exact import (
    DYNAMIC_STAGES, EXACT_FLOOR, OUTCOME_LABELS, RECORDED_VAR, RECORDERS, StageId, Surd, _record_index, exact_label,
    probability_cell,
)
from .linalg import CERTAINTY_ATOL, SUM_ATOL, ZERO_WEIGHT_FLOOR, Frozen, setfield

if TYPE_CHECKING:
    from .exact import Engine


class UndefinedConditionalError(ValueError):
    """Conditioning event has (numerically) zero probability."""


class CollapsePolicy(enum.Enum):
    SEQUENTIAL_PROJECTION = "collapse"
    NO_COLLAPSE_MARGINAL = "marginal"


class Distribution(Frozen):
    """Probabilities over tuples of outcome labels for named variables."""

    __slots__ = ("variables", "outcomes")

    def __init__(
        self, variables: tuple[str, ...], outcomes: tuple[tuple[tuple[str, ...], float], ...]
    ) -> None:
        setfield(self, "variables", variables)
        setfield(self, "outcomes", outcomes)
        total = 0.0
        arity = len(variables)
        for labels, p in outcomes:
            if len(labels) != arity:
                raise ValueError("label tuple arity does not match variables")
            if p < -CERTAINTY_ATOL:
                raise ValueError(f"negative probability {p} for {labels}")
            total += p
        if abs(total - 1.0) > SUM_ATOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def prob(self, labels: tuple[str, ...]) -> float:
        for ls, p in self.outcomes:
            if ls == labels:
                return p
        raise KeyError(labels)

    def as_dict(self) -> dict[tuple[str, ...], float]:
        return {ls: p for ls, p in self.outcomes}

    def marginal(self, variables: tuple[str, ...]) -> "Distribution":
        idx = [self.variables.index(v) for v in variables]
        acc: dict[tuple[str, ...], float] = {}
        for labels, p in self.outcomes:
            key = tuple(labels[i] for i in idx)
            acc[key] = acc.get(key, 0.0) + p
        return Distribution(variables, tuple(acc.items()))

    def conditional(self, given: dict[str, str]) -> "Distribution":
        """Distribution over the remaining variables given fixed labels.

        Conditioning on an event of zero probability is undefined, not zero;
        this protocol's argument pivots on impossibility claims, so a silent
        0/0 here would mask them.
        """
        keep = tuple(v for v in self.variables if v not in given)
        mass = 0.0
        acc: dict[tuple[str, ...], float] = {}
        for labels, p in self.outcomes:
            bound = dict(zip(self.variables, labels))
            if all(bound[v] == l for v, l in given.items()):
                key = tuple(bound[v] for v in keep)
                acc[key] = acc.get(key, 0.0) + p
                mass += p
        if (EXACT_FLOOR if type(mass) is Surd else ZERO_WEIGHT_FLOOR) > mass:
            raise UndefinedConditionalError(f"conditioning event {given} has probability {mass}")
        return Distribution(keep, tuple((k, v / mass) for k, v in acc.items()))

    # -- rendering ---------------------------------------------------------

    def render_text(self) -> str:
        header = "(" + ", ".join(self.variables) + ")"
        lines = [f"{header:<30} {'probability':<18} exact"]
        for labels, p in self.outcomes:
            cell = "(" + ", ".join(labels) + ")"
            exact = exact_label(p) or "-"
            lines.append(f"{cell:<30} {p:<18.12g} {exact}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "variables": list(self.variables),
            "outcomes": [{"labels": list(labels), **probability_cell(p)} for labels, p in self.outcomes],
        }


class Certainty(enum.Enum):
    CERTAIN = "certain"
    IMPOSSIBLE = "impossible"
    UNCERTAIN = "uncertain"


class CertaintyResult(NamedTuple):
    kind: Certainty
    probability: float

    @staticmethod
    def from_probability(p: float) -> "CertaintyResult":
        if abs(p - 1.0) <= CERTAINTY_ATOL:
            return CertaintyResult(Certainty.CERTAIN, p)
        if p <= CERTAINTY_ATOL:
            return CertaintyResult(Certainty.IMPOSSIBLE, p)
        return CertaintyResult(Certainty.UNCERTAIN, p)


# -- the joint distribution over (r, z, w1, w2) -----------------------------

JOINT_VARIABLES: tuple[str, ...] = ("r", "z", "w1", "w2")
#: The joint's 16 cells, in label order.
JOINT_CELLS: tuple[tuple[str, ...], ...] = tuple(product(*(OUTCOME_LABELS[v] for v in JOINT_VARIABLES)))


#: The no-collapse joint's reads after the first record: each variable given the one before, at its recording stage.
_MARGINAL_READS = tuple((RECORDERS[v][1], (u,), v) for u, v in zip(JOINT_VARIABLES, JOINT_VARIABLES[1:]))


@cache
def _plan(reads: tuple[tuple[StageId, tuple[str, ...], str], ...]) -> tuple:
    """Per read (stage, conditioning variables, variable): the stage, its marginal's axes, and per branch
    (a label per variable before it, in label order) the offsets of the variable's labels under the
    branch's conditioning labels.  Worked out once per process for each tuple of reads."""
    plan, branches = [], list(product(*map(OUTCOME_LABELS.get, JOINT_VARIABLES[: JOINT_VARIABLES.index(reads[0][2])])))
    for stage, given, var in reads:
        axes, keys = _record_index(given + (var,))
        index, at = dict(keys), [JOINT_VARIABLES.index(v) for v in given]
        offsets = tuple(tuple(index[tuple(b[k] for k in at) + (l,)] for l in OUTCOME_LABELS[var]) for b in branches)
        plan.append((stage, axes, offsets))
        branches = [b + (l,) for b in branches for l in OUTCOME_LABELS[var]]
    return tuple(plan)


def _walk(protocol: Engine, reads: tuple, probs: list) -> list:
    """Each branch's probability times its variable's ratios of Born weights at every read, in label order.

    Branches that share their conditioning labels at a read share its
    ratios, so each is divided out once per read; a branch, or a
    conditioning mass, below the engine's `weight_floor` gives zeros.
    """
    floor = protocol.weight_floor
    for stage, axes, offsets in _plan(reads):
        weights = protocol.pilot_state_after(stage).marginal(axes)
        ratios: dict[tuple[int, ...], tuple] = {}  # by label offsets
        next_probs = []
        for prob, offs in zip(probs, offsets):
            if floor > prob:
                p_labels = (0.0,) * len(offs)
            elif offs in ratios:
                p_labels = ratios[offs]
            else:
                mass = sum(weights[o] for o in offs)
                p_labels = (0.0,) * len(offs) if floor > mass else tuple(weights[o] / mass for o in offs)
                ratios[offs] = p_labels
            next_probs += [prob * p_label for p_label in p_labels]
        probs = next_probs
    return probs


def _sequential_joint(protocol: Engine) -> dict[tuple[str, ...], float]:
    """Stage walk with projection, renormalization, and record expiry.

    Each outcome is read at its recording stage given the earlier records
    no stage since has rewritten.
    """
    reads, intact = [], ()
    for stage in DYNAMIC_STAGES:
        rewritten = protocol.stage_unitaries[stage].rewritten_memory_axes
        intact = tuple(v for v in intact if RECORDERS[v][0].memory_axis not in rewritten)
        if stage in RECORDED_VAR:
            reads.append((stage, intact, RECORDED_VAR[stage]))
            intact += (RECORDED_VAR[stage],)
    return dict(zip(JOINT_CELLS, _walk(protocol, tuple(reads), [1.0])))


def _marginal_joint(protocol: Engine) -> dict[tuple[str, ...], float]:
    """Record-configuration weights read off pilot states, no renormalization.

    Consecutive outcome variables are read jointly at the later one's
    recording stage (where the earlier record is still intact); the joint is
    the product of the resulting weight ratios, each divided out once and
    shared by every cell that takes the same step, over the total weight of
    the first record.  The (w1, w2) factor is read directly from the final
    pilot state.
    """
    axes, keys = _record_index(JOINT_VARIABLES[:1])
    first = protocol.pilot_state_after(_MARGINAL_READS[0][0]).marginal(axes)
    scale = 1 / sum(first[o] for _, o in keys)
    probs = _walk(protocol, _MARGINAL_READS, [first[o] for _, o in keys])
    return {cell: p * scale for cell, p in zip(JOINT_CELLS, probs)}


def joint_distribution(
    protocol: Engine, policy: CollapsePolicy = CollapsePolicy.SEQUENTIAL_PROJECTION
) -> Distribution:
    """Full joint over (r, z, w1, w2), all 16 cells, zeros included."""
    if policy is CollapsePolicy.SEQUENTIAL_PROJECTION:
        table = _sequential_joint(protocol)
    else:
        table = _marginal_joint(protocol)
    outcomes = tuple((cell, table.get(cell, 0.0)) for cell in JOINT_CELLS)
    return Distribution(JOINT_VARIABLES, outcomes)


def final_record_marginal(protocol: Engine) -> Distribution:
    """(w1, w2) weights of the final pilot state over their sum, the headline quantity."""
    axes, keys = _record_index(("w1", "w2"))
    weights = protocol.pilot_state_after(StageId.MEAS4).marginal(axes)
    scale = 1 / sum(weights[o] for _, o in keys)
    return Distribution(("w1", "w2"), tuple((labels, weights[o] * scale) for labels, o in keys))
