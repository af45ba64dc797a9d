"""Named quantum-mechanical facts the argument relies on, each checked exactly.

Every fact compares a quantity computed from the pilot dynamics against an
exact expected value within `linalg.FACT_ATOL`; on the exact engine the
quantity is exact too, so a vanishing one prints as 0, and the three facts
that a weight vanishes (FR2, FR8's ok-minus-subspace-empty and
coarse-chain-zero) test it for exact zero (`_vanishes`).  The derivation engine
refuses to run unless all facts attached to its steps hold, and the CLI
`verify` command prints one PASS/FAIL line per fact.  `run_all` and
`run_facts` evaluate each fact at most once per Protocol (`evaluate`),
however many verdicts read it.

FR2-FR4 are ratios of history probabilities (`_conditional`): FR2 and FR3
are P[r=tail, w2=.] / P[r=tail], FR4 is P[r=head, z=-] / P[r=head]; the
(ok, spin-down) fact is P[z=-, w1=ok].  Each equals the outcome projector's
weight on the masked spin-recorded state: the r mask commutes with PREP1
(diagonal in F1) and OBS2, MEAS3 leaves (S, F2) alone, and a record mask
right after its recording stage is the outcome projector on the state before.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import born, histories
from .exact import DOWN, FAIL, GLOBAL_SPACE, HEAD, MINUS, OK, PLUS, READY, TAIL, UP, StageId, Surd, outcome_vectors
from .linalg import FACT_ATOL, PHASE_ATOL

if TYPE_CHECKING:
    from .exact import Engine


class FactResult(NamedTuple):
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

    def decorate(check: Callable[[Engine], tuple[bool, str]]) -> Callable[[Engine], FactResult]:
        @functools.wraps(check)
        def fact(protocol: Engine) -> FactResult:
            try:
                passed, detail = check(protocol)
            except ZeroBranchError as exc:
                passed, detail = False, str(exc)
            return FactResult(fact_id, step_tag, description, bool(passed), detail)

        return fact

    return decorate


def _vanishes(x) -> bool:
    """Whether a weight a zero fact computes counts as zero: exactly on the exact engine.

    A Surd is the exact engine's number, so it is tested for zero, as
    `histories._negligible` tests an entry of D; the dense engine's float
    passes within `FACT_ATOL`.
    """
    return not x if type(x) is Surd else abs(x) < FACT_ATOL


def _probability(protocol: Engine, assignments: list[tuple[str, str]]):
    """P[h] of the history of these (variable, label) record events, each at its recording stage."""
    return histories.history_probability(protocol, histories.history(protocol, "h", assignments))


def _conditional(protocol: Engine, given: tuple[str, str], events: list[tuple[str, str]]):
    """P(`events` | `given`): the history probability of both over that of `given` alone.

    A conditioning event of exactly zero weight raises; a tiny one divides.
    """
    total = _probability(protocol, [given])
    if not total:
        raise ZeroBranchError(f"{given[1]} branch has zero weight")
    return _probability(protocol, [given, *events]) / total


def _weight(x) -> float:
    """|x|^2, in x's number type."""
    return (x.conjugate() * x).real


def _vector(protocol: Engine, var: str, label: str) -> dict:
    """One outcome vector of var's measurement as {target labels: entry}, in the engine's number type.

    The entries are read off the codes of `exact.outcome_vectors`; on the
    dense engine 1/math.sqrt(2) is the code's `float_image`, bit for bit.
    """
    return {
        labels: sign / protocol.sqrt(2) ** k
        for labels, (sign, k) in outcome_vectors(var, protocol.flip_ok_sign)[label].items()
    }


def _dot(u: dict, v: dict):
    """<u|v> of two vectors given as {key: entry}."""
    return sum(x.conjugate() * v[k] for k, x in u.items() if k in v)


def _amplitude_text(x) -> str:
    """x to 12 digits: its real part, then its imaginary part when that is nonzero (a Surd has none)."""
    imag = getattr(x, "imag", 0)
    return f"{x.real:.12g}{imag:+.12g}j" if imag else f"{x.real:.12g}"


@_fact("initial-amplitudes", None, "prepared state has the configured coin amplitudes and nothing else")
def check_initial_amplitudes(protocol: Engine) -> tuple[bool, str]:
    amps = protocol.initial_state().components()
    got_h, got_t = (amps.pop(GLOBAL_SPACE.index_of((coin, READY, DOWN, READY, READY, READY)), 0)
                    for coin in (HEAD, TAIL))
    residual = math.sqrt(sum(_weight(x) for x in amps.values()))
    a, b = protocol.coin_amplitudes
    ok = abs(got_h - a) < FACT_ATOL and abs(got_t - b) < FACT_ATOL and residual < FACT_ATOL
    return ok, f"head {_amplitude_text(got_h)}, tail {_amplitude_text(got_t)}, residual {residual:.3g}"


@_fact("okfail-bases-orthonormal", None, "both entangled ok/fail bases are orthonormal")
def check_okfail_bases_orthonormal(protocol: Engine) -> tuple[bool, str]:
    worst = 0.0
    for var in ("w1", "w2"):
        vec_ok, vec_fail = _vector(protocol, var, OK), _vector(protocol, var, FAIL)
        worst = max(
            worst,
            abs(_dot(vec_ok, vec_fail)),
            abs(_dot(vec_ok, vec_ok) - 1),
            abs(_dot(vec_fail, vec_fail) - 1),
        )
    return worst < FACT_ATOL, f"worst deviation {worst:.3g}"


@_fact(
    "tail-branch-orthogonal-to-ok",
    "FR2",
    "tail branch of the spin-recorded state is orthogonal to W2's ok subspace",
)
def check_tail_branch_orthogonal_to_ok(protocol: Engine) -> tuple[bool, str]:
    """FR2: P[w2=ok | r=tail] vanishes: the tail branch after the spin recording is orthogonal to W2's ok."""
    w = _conditional(protocol, ("r", TAIL), [("w2", OK)])
    return _vanishes(w), f"ok weight {w:.3g}"


@_fact(
    "tail-branch-fail-certain",
    "FR3",
    "tail branch makes the final ok/fail measurement certain to read fail",
)
def check_tail_branch_fail_certain(protocol: Engine) -> tuple[bool, str]:
    """FR3: P[w2=fail | r=tail] = 1: on the tail branch, W2's final record is fail with certainty."""
    p = _conditional(protocol, ("r", TAIL), [("w2", FAIL)])
    res = born.CertaintyResult.from_probability(p)
    return res.kind is born.Certainty.CERTAIN, f"probability {res.probability:.12g}"


@_fact("head-branch-spin-down", "FR4", "head branch leaves the spin pointing down with certainty")
def check_head_branch_spin_down(protocol: Engine) -> tuple[bool, str]:
    """FR4: P[z=- | r=head] = 1: the head branch leaves the spin down, so z=+ excludes head."""
    p = _conditional(protocol, ("r", HEAD), [("z", MINUS)])
    res = born.CertaintyResult.from_probability(p)
    return res.kind is born.Certainty.CERTAIN, f"probability {res.probability:.12g}"


@_fact(
    "joint-state-coefficients",
    "FR8",
    "spin-recorded state matches (2, 1, -1)/sqrt(6) on (fail,down,-), (fail,up,+), (ok,up,+)",
)
def check_joint_state_coefficients(protocol: Engine) -> tuple[bool, str]:
    """FR8: the spin-recorded pilot state has coefficients (2, 1, -1)/sqrt(6).

    Expansion is over (ok/fail of the coin-F1 pair) x (spin) x (F2 record),
    up to one global phase, with nothing outside those three components.
    """
    state = protocol.pilot_state_after(StageId.OBS2)

    def basis_vector(okfail: str, spin: str, mem: str) -> dict[int, object]:
        # W1's vector on (C, F1), tensored with one basis label elsewhere
        return {
            GLOBAL_SPACE.index_of((coin, f1, spin, mem, READY, READY)): x
            for (coin, f1), x in _vector(protocol, "w1", okfail).items()
        }

    vectors = [
        basis_vector(FAIL, DOWN, MINUS),
        basis_vector(FAIL, UP, PLUS),
        basis_vector(OK, UP, PLUS),
    ]
    amps = state.components()
    got = [_dot(v, amps) for v in vectors]
    root6 = protocol.sqrt(6)
    expected = [2 / root6, 1 / root6, -1 / root6]
    # align global phase on the largest component
    phase = got[0] / expected[0] if abs(got[0]) > PHASE_ATOL else 1.0
    if abs(abs(phase) - 1.0) > PHASE_ATOL:
        phase = 1.0
    dev = max(abs(g - phase * e) for g, e in zip(got, expected))
    remainder = dict(amps)
    for c, v in zip(got, vectors):
        for i, x in v.items():
            remainder[i] = remainder.get(i, 0) - c * x
    residual = math.sqrt(sum(_weight(x) for x in remainder.values()))
    ok = dev < FACT_ATOL and residual < FACT_ATOL
    return ok, f"max coefficient deviation {dev:.3g}, residual {residual:.3g}"


@_fact("ok-minus-subspace-empty", "FR8", "projection onto the (ok, spin-down) eigenspace vanishes")
def check_ok_minus_subspace_empty(protocol: Engine) -> tuple[bool, str]:
    """FR8: P[z=-, w1=ok] vanishes: the same state is orthogonal to the (ok, spin-down) eigenspace."""
    w = _probability(protocol, [("z", MINUS), ("w1", OK)])
    return _vanishes(w), f"weight {w:.3g}"


@_fact("okok-probability", "FR12", "P(w1=ok, w2=ok) = 1/12 under both extraction policies")
def check_okok_probability(protocol: Engine) -> tuple[bool, str]:
    """FR12: both para-experimenters record ok with probability exactly 1/12."""
    expected = Fraction(1, 12)
    results = {}
    for policy in born.CollapsePolicy:
        dist = born.joint_distribution(protocol, policy)
        results[policy.value] = dist.marginal(("w1", "w2")).prob((OK, OK))
    ok = all(abs(v - expected) < FACT_ATOL for v in results.values())
    detail = ", ".join(f"{k}: {v:.12g}" for k, v in sorted(results.items()))
    return ok, detail


@_fact("record-marginal-table", "FR12", "final (w1, w2) record weights are (1/12, 1/12, 1/12, 3/4)")
def check_record_marginal_table(protocol: Engine) -> tuple[bool, str]:
    marg = born.final_record_marginal(protocol)
    expected = {
        (OK, OK): Fraction(1, 12),
        (OK, "fail"): Fraction(1, 12),
        ("fail", OK): Fraction(1, 12),
        ("fail", "fail"): Fraction(3, 4),
    }
    dev = max(abs(marg.prob(k) - v) for k, v in expected.items())
    return dev < FACT_ATOL, f"max deviation {dev:.3g}"


@_fact(
    "okok-chain-probability",
    None,
    "fine-grained history (r=tail, z=+, w1=ok, w2=ok) has probability 1/12",
)
def check_okok_chain_probability(protocol: Engine) -> tuple[bool, str]:
    p = histories.history_probability(protocol, histories.okok_fine_history(protocol))
    return abs(p - Fraction(1, 12)) < FACT_ATOL, f"probability {p:.12g}"


@_fact("coarse-chain-zero", None, "coarse history (r=tail, w2=ok) has probability 0")
def check_coarse_chain_zero(protocol: Engine) -> tuple[bool, str]:
    p = histories.history_probability(protocol, histories.okok_coarse_history(protocol))
    return _vanishes(p), f"probability {p:.3g}"


ALL_FACTS: tuple[Callable[[Engine], FactResult], ...] = (
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
GROUNDING_FACTS: dict[str, Callable[[Engine], FactResult]] = {
    "tail-branch-orthogonal-to-ok": check_tail_branch_orthogonal_to_ok,
    "tail-branch-fail-certain": check_tail_branch_fail_certain,
    "head-branch-spin-down": check_head_branch_spin_down,
    "joint-state-coefficients": check_joint_state_coefficients,
    "ok-minus-subspace-empty": check_ok_minus_subspace_empty,
    "okok-probability": check_okok_probability,
}


def evaluate(protocol: Engine, fact: Callable[[Engine], FactResult]) -> FactResult:
    """`fact(protocol)`, computed at most once per Protocol and table entry."""
    results = protocol.fact_results
    if fact not in results:
        results[fact] = fact(protocol)
    return results[fact]


def run_all(protocol: Engine) -> list[FactResult]:
    return [evaluate(protocol, f) for f in ALL_FACTS]


def run_facts(protocol: Engine, fact_ids: tuple[str, ...]) -> list[FactResult]:
    return [evaluate(protocol, GROUNDING_FACTS[fid]) for fid in fact_ids]
