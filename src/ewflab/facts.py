"""Named quantum-mechanical facts the argument relies on, each checked exactly.

Every fact compares a quantity computed from the pilot dynamics against an
exact expected value within `linalg.FACT_ATOL`.  The derivation engine
refuses to run unless all facts attached to its steps hold, and the CLI
`verify` command prints one PASS/FAIL line per fact.  `run_all` and
`run_facts` evaluate each fact at most once per Protocol (`evaluate`),
however many verdicts read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import born, histories
from .linalg import ATOL, FACT_ATOL, PHASE_ATOL, StateVector, inner
from .protocol import (
    DOWN,
    FAIL,
    GLOBAL_SPACE,
    HEAD,
    MINUS,
    OK,
    PLUS,
    READY,
    TAIL,
    UP,
    Protocol,
    StageId,
    record_mask,
)


@dataclass(frozen=True)
class FactResult:
    fact_id: str
    step_tag: str | None
    description: str
    passed: bool
    detail: str

    def render(self) -> str:
        tag = f"{self.step_tag} " if self.step_tag else ""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {tag}{self.fact_id}: {self.description} ({self.detail})"


class ZeroBranchError(ValueError):
    """A coin branch a fact conditions on carries no weight at this coin."""


def _fact(fact_id: str, step_tag: str | None, description: str):
    """Make a FactResult-returning fact from a check returning (passed, detail).

    A check whose coin branch has zero weight fails with that as its detail.
    """

    def decorate(check: Callable[[Protocol], tuple[bool, str]]) -> Callable[[Protocol], FactResult]:
        @functools.wraps(check)
        def fact(protocol: Protocol) -> FactResult:
            try:
                passed, detail = check(protocol)
            except ZeroBranchError as exc:
                passed, detail = False, str(exc)
            return FactResult(fact_id, step_tag, description, bool(passed), detail)

        return fact

    return decorate


def _branch_state(protocol: Protocol, coin: str, stage: StageId) -> StateVector:
    """Pilot state conditioned on the coin record reading `coin`, renormalized."""
    amps = protocol.pilot_state_after(stage).amps * record_mask("r", coin)
    n = float(np.linalg.norm(amps))
    if n < ATOL:
        raise ZeroBranchError(f"{coin} branch has zero weight")
    return StateVector(GLOBAL_SPACE, amps / n)


@_fact("initial-amplitudes", None, "prepared state has the configured coin amplitudes and nothing else")
def check_initial_amplitudes(protocol: Protocol) -> tuple[bool, str]:
    state = protocol.initial_state()
    got_h = state.amplitude((HEAD, READY, DOWN, READY, READY, READY))
    got_t = state.amplitude((TAIL, READY, DOWN, READY, READY, READY))
    rest = state.amps.copy()
    rest[GLOBAL_SPACE.index_of((HEAD, READY, DOWN, READY, READY, READY))] = 0.0
    rest[GLOBAL_SPACE.index_of((TAIL, READY, DOWN, READY, READY, READY))] = 0.0
    residual = float(np.linalg.norm(rest))
    a, b = protocol.coin_amplitudes
    ok = abs(got_h - a) < FACT_ATOL and abs(got_t - b) < FACT_ATOL and residual < FACT_ATOL
    return ok, f"head {got_h.real:.12g}, tail {got_t.real:.12g}, residual {residual:.3g}"


@_fact("okfail-bases-orthonormal", None, "both entangled ok/fail bases are orthonormal")
def check_okfail_bases_orthonormal(protocol: Protocol) -> tuple[bool, str]:
    worst = 0.0
    for spec in (protocol.friend_coin_measurement, protocol.friend_spin_measurement):
        vec_ok = spec.basis.projector(OK).vectors[0]
        vec_fail = spec.basis.projector("fail").vectors[0]
        worst = max(
            worst,
            abs(inner(vec_ok, vec_fail)),
            abs(inner(vec_ok, vec_ok) - 1.0),
            abs(inner(vec_fail, vec_fail) - 1.0),
        )
    return worst < FACT_ATOL, f"worst deviation {worst:.3g}"


@_fact(
    "tail-branch-orthogonal-to-ok",
    "FR2",
    "tail branch of the spin-recorded state is orthogonal to W2's ok subspace",
)
def check_tail_branch_orthogonal_to_ok(protocol: Protocol) -> tuple[bool, str]:
    """FR2: the tail branch after the spin recording is orthogonal to W2's ok."""
    branch = _branch_state(protocol, TAIL, StageId.OBS2)
    w = born.joint_weight(branch, [(protocol.friend_spin_measurement, OK)])
    return w < FACT_ATOL, f"ok weight {w:.3g}"


@_fact(
    "tail-branch-fail-certain",
    "FR3",
    "tail branch makes the final ok/fail measurement certain to read fail",
)
def check_tail_branch_fail_certain(protocol: Protocol) -> tuple[bool, str]:
    """FR3: on the tail branch, W2's final record is fail with certainty."""
    branch = _branch_state(protocol, TAIL, StageId.OBS2)
    res = born.certainty_check(branch, protocol.friend_spin_measurement, "fail")
    return res.kind is born.Certainty.CERTAIN, f"probability {res.probability:.12g}"


@_fact("head-branch-spin-down", "FR4", "head branch leaves the spin pointing down with certainty")
def check_head_branch_spin_down(protocol: Protocol) -> tuple[bool, str]:
    """FR4: the head branch leaves the spin down, so z=+ excludes head."""
    branch = _branch_state(protocol, HEAD, StageId.OBS2)
    res = born.certainty_check(branch, protocol.spin_measurement, MINUS)
    return res.kind is born.Certainty.CERTAIN, f"probability {res.probability:.12g}"


@_fact(
    "joint-state-coefficients",
    "FR8",
    "spin-recorded state matches (2, 1, -1)/sqrt(6) on (fail,down,-), (fail,up,+), (ok,up,+)",
)
def check_joint_state_coefficients(protocol: Protocol) -> tuple[bool, str]:
    """FR8: the spin-recorded pilot state has coefficients (2, 1, -1)/sqrt(6).

    Expansion is over (ok/fail of the coin-F1 pair) x (spin) x (F2 record),
    up to one global phase, with nothing outside those three components.
    """
    state = protocol.pilot_state_after(StageId.OBS2)
    w1 = protocol.friend_coin_measurement
    tail_space = GLOBAL_SPACE.subspace(("S", "F2", "W1", "W2"))

    def basis_vector(okfail: str, spin: str, mem: str) -> np.ndarray:
        fac = w1.basis.projector(okfail).vectors[0].amps  # on (C, F1)
        rest = np.zeros(tail_space.size, dtype=np.complex128)
        rest[tail_space.index_of((spin, mem, READY, READY))] = 1.0
        return np.kron(fac, rest)

    vectors = [
        basis_vector(FAIL, DOWN, MINUS),
        basis_vector(FAIL, UP, PLUS),
        basis_vector(OK, UP, PLUS),
    ]
    got = np.array([np.vdot(v, state.amps) for v in vectors])
    expected = np.array([2.0, 1.0, -1.0]) / math.sqrt(6.0)
    # align global phase on the largest component
    phase = got[0] / expected[0] if abs(got[0]) > PHASE_ATOL else 1.0
    if abs(abs(phase) - 1.0) > PHASE_ATOL:
        phase = 1.0
    dev = float(np.max(np.abs(got - phase * expected)))
    remainder = state.amps - sum(c * v for c, v in zip(got, vectors))
    residual = float(np.linalg.norm(remainder))
    ok = dev < FACT_ATOL and residual < FACT_ATOL
    return ok, f"max coefficient deviation {dev:.3g}, residual {residual:.3g}"


@_fact("ok-minus-subspace-empty", "FR8", "projection onto the (ok, spin-down) eigenspace vanishes")
def check_ok_minus_subspace_empty(protocol: Protocol) -> tuple[bool, str]:
    """FR8: the same state is orthogonal to the (ok, spin-down) eigenspace."""
    state = protocol.pilot_state_after(StageId.OBS2)
    ok_and_down = [(protocol.friend_coin_measurement, OK), (protocol.spin_measurement, MINUS)]
    w = born.joint_weight(state, ok_and_down)
    return w < FACT_ATOL, f"weight {w:.3g}"


@_fact("okok-probability", "FR12", "P(w1=ok, w2=ok) = 1/12 under both extraction policies")
def check_okok_probability(protocol: Protocol) -> tuple[bool, str]:
    """FR12: both para-experimenters record ok with probability exactly 1/12."""
    expected = float(Fraction(1, 12))
    results = {}
    for policy in born.CollapsePolicy:
        dist = born.joint_distribution(protocol, policy)
        results[policy.value] = dist.marginal(("w1", "w2")).prob((OK, OK))
    ok = all(abs(v - expected) < FACT_ATOL for v in results.values())
    detail = ", ".join(f"{k}: {v:.12g}" for k, v in sorted(results.items()))
    return ok, detail


@_fact("record-marginal-table", "FR12", "final (w1, w2) record weights are (1/12, 1/12, 1/12, 3/4)")
def check_record_marginal_table(protocol: Protocol) -> tuple[bool, str]:
    marg = born.final_record_marginal(protocol)
    expected = {
        (OK, OK): Fraction(1, 12),
        (OK, "fail"): Fraction(1, 12),
        ("fail", OK): Fraction(1, 12),
        ("fail", "fail"): Fraction(3, 4),
    }
    dev = max(abs(marg.prob(k) - float(v)) for k, v in expected.items())
    return dev < FACT_ATOL, f"max deviation {dev:.3g}"


@_fact(
    "okok-chain-probability",
    None,
    "fine-grained history (r=tail, z=+, w1=ok, w2=ok) has probability 1/12",
)
def check_okok_chain_probability(protocol: Protocol) -> tuple[bool, str]:
    p = histories.history_probability(protocol, histories.okok_fine_history(protocol))
    return abs(p - 1.0 / 12.0) < FACT_ATOL, f"probability {p:.12g}"


@_fact("coarse-chain-zero", None, "coarse history (r=tail, w2=ok) has probability 0")
def check_coarse_chain_zero(protocol: Protocol) -> tuple[bool, str]:
    p = histories.history_probability(protocol, histories.okok_coarse_history(protocol))
    return abs(p) < FACT_ATOL, f"probability {p:.3g}"


ALL_FACTS: tuple[Callable[[Protocol], FactResult], ...] = (
    check_initial_amplitudes,
    check_okfail_bases_orthonormal,
    check_tail_branch_orthogonal_to_ok,
    check_tail_branch_fail_certain,
    check_head_branch_spin_down,
    check_joint_state_coefficients,
    check_ok_minus_subspace_empty,
    check_okok_probability,
    check_record_marginal_table,
    check_okok_chain_probability,
    check_coarse_chain_zero,
)

#: Facts the derivation engine requires, keyed by fact_id.
GROUNDING_FACTS: dict[str, Callable[[Protocol], FactResult]] = {
    "tail-branch-orthogonal-to-ok": check_tail_branch_orthogonal_to_ok,
    "tail-branch-fail-certain": check_tail_branch_fail_certain,
    "head-branch-spin-down": check_head_branch_spin_down,
    "joint-state-coefficients": check_joint_state_coefficients,
    "ok-minus-subspace-empty": check_ok_minus_subspace_empty,
    "okok-probability": check_okok_probability,
}


def evaluate(protocol: Protocol, fact: Callable[[Protocol], FactResult]) -> FactResult:
    """`fact(protocol)`, computed at most once per Protocol and table entry."""
    results = protocol.fact_results
    if fact not in results:
        results[fact] = fact(protocol)
    return results[fact]


def run_all(protocol: Protocol) -> list[FactResult]:
    return [evaluate(protocol, f) for f in ALL_FACTS]


def run_facts(protocol: Protocol, fact_ids: tuple[str, ...]) -> list[FactResult]:
    return [evaluate(protocol, GROUNDING_FACTS[fid]) for fid in fact_ids]
