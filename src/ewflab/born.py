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

Outcomes are read off record weights; no measurement is applied to a state.
One event's weight, alone or given another, is a history probability or a
ratio of two (`facts`), which `CertaintyResult.from_probability` classifies.

Every function here runs on either engine (`protocol.Protocol` or
`exact.ExactProtocol`): a probability is a float from the first and an
exact `Surd` from the second, which alone gets an `exact` label.
"""

from __future__ import annotations

import enum
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .exact import DYNAMIC_STAGES, OUTCOME_LABELS, RECORDED_VAR, RECORDERS, StageId, exact_label, probability_cell
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
        if mass < ZERO_WEIGHT_FLOOR:
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


def _sequential_joint(protocol: Engine) -> dict[tuple[str, ...], float]:
    """Stage walk with projection, renormalization, and record expiry.

    Branches that share their active conditions at a stage share its
    conditional probabilities, so each is divided out once per stage.
    """
    # branch: (outcome labels so far, active conditions, probability)
    branches: list[tuple[tuple[str, ...], tuple[tuple[str, str], ...], float]] = [((), (), 1.0)]
    for stage in DYNAMIC_STAGES:
        rewritten = protocol.stage_unitaries[stage].rewritten_memory_axes
        var = RECORDED_VAR.get(stage)
        state = protocol.pilot_state_after(stage)
        weights_given: dict[tuple[str, ...], dict] = {}  # record weights by conditioning variables
        conditionals: dict[tuple[tuple[str, str], ...], tuple] = {}  # P(label | conditions) per label
        next_branches = []
        for outcomes, conds, prob in branches:
            conds = tuple(
                (v, l) for v, l in conds if RECORDERS[v][0].memory_axis not in rewritten
            )
            if var is None:
                next_branches.append((outcomes, conds, prob))
                continue
            labels = OUTCOME_LABELS[var]
            if prob < ZERO_WEIGHT_FLOOR:
                p_labels = (0.0,) * len(labels)
            elif conds in conditionals:
                p_labels = conditionals[conds]
            else:
                cond_vars = tuple(v for v, _ in conds)
                if cond_vars not in weights_given:
                    weights_given[cond_vars] = protocol.record_weights(state, cond_vars + (var,))
                weights = weights_given[cond_vars]
                cond_labels = tuple(l for _, l in conds)
                mass = sum(weights[cond_labels + (l,)] for l in labels)
                if mass < ZERO_WEIGHT_FLOOR:
                    p_labels = (0.0,) * len(labels)
                else:
                    p_labels = tuple(weights[cond_labels + (l,)] / mass for l in labels)
                conditionals[conds] = p_labels
            for label, p_label in zip(labels, p_labels):
                next_branches.append(
                    (outcomes + (label,), conds + ((var, label),), prob * p_label)
                )
        branches = next_branches
    return {outcomes: prob for outcomes, _, prob in branches}


def _marginal_joint(protocol: Engine) -> dict[tuple[str, ...], float]:
    """Record-configuration weights read off pilot states, no renormalization.

    Consecutive outcome variables are read jointly at the later one's
    recording stage (where the earlier record is still intact); the joint is
    the product of the resulting weight ratios, each divided out once and
    shared by every cell that takes the same step, over the total weight of
    the first record.  The (w1, w2) factor is read directly from the final
    pilot state.
    """
    pair_weights: list[dict[tuple[str, ...], float]] = []
    for earlier, later in zip(JOINT_VARIABLES, JOINT_VARIABLES[1:]):
        stage = RECORDERS[later][1]
        state = protocol.pilot_state_after(stage)
        pair_weights.append(protocol.record_weights(state, (earlier, later)))
    first_var = JOINT_VARIABLES[0]
    first = protocol.record_weights(
        protocol.pilot_state_after(RECORDERS[JOINT_VARIABLES[1]][1]), (first_var,)
    )
    scale = 1 / sum(first.values())
    ratios: dict[tuple[int, str, str], object] = {}  # by (i, cell[i], cell[i + 1]); None for a zero denominator
    joint: dict[tuple[str, ...], float] = {}
    for cell in JOINT_CELLS:
        p = first[(cell[0],)]
        for i, weights in enumerate(pair_weights):
            step = (i, cell[i], cell[i + 1])
            if p >= ZERO_WEIGHT_FLOOR and step not in ratios:
                denom = sum(weights[(cell[i], l)] for l in OUTCOME_LABELS[JOINT_VARIABLES[i + 1]])
                ratios[step] = None if denom < ZERO_WEIGHT_FLOOR else weights[step[1:]] / denom
            if p < ZERO_WEIGHT_FLOOR or ratios[step] is None:
                p = p * 0  # the zero of p's number type, exact on the exact engine
                break
            p *= ratios[step]
        joint[cell] = p * scale
    return joint


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
    weights = protocol.record_weights(protocol.pilot_state_after(StageId.MEAS4), ("w1", "w2"))
    scale = 1 / sum(weights.values())
    cells = [tuple(c) for c in product(OUTCOME_LABELS["w1"], OUTCOME_LABELS["w2"])]
    return Distribution(("w1", "w2"), tuple((c, weights[c] * scale) for c in cells))
