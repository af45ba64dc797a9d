"""The twelve-step certainty-chain argument as a checkable derivation.

Steps FR1 through FR12 form a chain of certainty transfers between the four
agents, ending in a collision between a derived certainty (the final record
will read fail) and a quantum possibility (both records read ok with
probability 1/12).  Each step declares which of the nine assumption ids it
needs; an interpretation profile is a check/cross vector over eight of them
(SBAR is metadata only, retained to link the precise exclusion rule T to its
looser converse-of-S reading).

`check` fires the steps in order.  A step fires when its premises were
concluded by earlier fired steps, its quantum facts verify on the pilot
dynamics, and its requirement formula is satisfied by the profile.  The
verdict is either the full contradiction trace or the first blocked step
with the crossed-out assumptions that block it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple, Union

from . import facts as facts_mod
from .exact import AgentId
from .facts import FactResult

if TYPE_CHECKING:
    from .exact import Engine
    from .protocol import Protocol


class AssumptionId(enum.Enum):
    Q = "Q"
    C = "C"
    S = "S"
    SBAR = "S-bar"
    T = "T"
    P = "P"
    U = "U"
    L = "L"
    M = "M"


#: Column order of the assumption tables.
PROFILE_ASSUMPTIONS: tuple[AssumptionId, ...] = (
    AssumptionId.Q,
    AssumptionId.S,
    AssumptionId.C,
    AssumptionId.P,
    AssumptionId.U,
    AssumptionId.T,
    AssumptionId.L,
    AssumptionId.M,
)


# -- propositions -------------------------------------------------------------


class Outcome(NamedTuple):
    var: str
    relation: str  # "=" or "!="
    value: str

    def render(self) -> str:
        return f"{self.var} {self.relation} {self.value}"


class Certain(NamedTuple):
    agent: AgentId
    at_time: float
    body: "Proposition"

    def render(self) -> str:
        return f"{self.agent.value} is certain at t={self.at_time:g} that [{self.body.render()}]"


class Negation(NamedTuple):
    body: "Proposition"

    def render(self) -> str:
        return f"not [{self.body.render()}]"


class QuantumPossible(NamedTuple):
    """Quantum theory assigns this exact probability to a joint outcome."""

    outcomes: tuple[tuple[str, str], ...]
    probability: Fraction

    def render(self) -> str:
        event = ", ".join(f"{v}={l}" for v, l in self.outcomes)
        return f"quantum probability of ({event}) is {self.probability}"


class SystemInState(NamedTuple):
    """An agent-facing state assignment, e.g. 'the spin is in state right'."""

    system: str
    state_label: str

    def render(self) -> str:
        return f"{self.system} is in state {self.state_label!r}"


Proposition = Union[Outcome, Certain, Negation, QuantumPossible, SystemInState]


# -- steps --------------------------------------------------------------------


class Step(NamedTuple):
    step_id: str
    summary: str
    premises: tuple[Proposition, ...]
    conclusion: Proposition
    #: conjunction of disjunction clauses over assumption ids (empty = free)
    requires: tuple[frozenset[AssumptionId], ...]
    fact_ids: tuple[str, ...] = ()
    #: quantum-side premises granted once the step's facts verify
    quantum_premises: tuple[Proposition, ...] = ()
    note: str = ""

    def requires_rendered(self) -> str:
        if not self.requires:
            return "-"
        return " and ".join(
            "(" + " or ".join(sorted(a.value for a in clause)) + ")" if len(clause) > 1
            else next(iter(clause)).value
            for clause in self.requires
        )


def _req(*clauses: tuple[AssumptionId, ...]) -> tuple[frozenset[AssumptionId], ...]:
    return tuple(frozenset(c) for c in clauses)


def build_argument() -> tuple[Step, ...]:
    """The twelve steps with their premises, conclusions, and requirements."""
    A = AssumptionId
    fr1_conc = Certain(AgentId.F1, 1.5, SystemInState("the spin", "right"))
    fr2_conc = Certain(AgentId.F1, 1.5, SystemInState("the F2+spin lab", "fail"))
    fr3_conc = Certain(AgentId.F1, 1.5, Outcome("w2", "=", "fail"))
    fr4_conc = Certain(AgentId.F2, 2.5, Outcome("r", "!=", "head"))
    fr5_conc = Certain(AgentId.F2, 2.5, Outcome("r", "=", "tail"))
    fr6_conc = Certain(AgentId.F2, 2.5, fr3_conc)
    fr7_conc = Certain(AgentId.F2, 2.5, Outcome("w2", "=", "fail"))
    fr8_conc = QuantumPossible((("w1", "ok"), ("z", "-")), Fraction(0))
    fr9_conc = Certain(AgentId.W1, 3.5, fr7_conc)
    fr10_conc = Certain(AgentId.W1, 3.5, Outcome("w2", "=", "fail"))
    fr11_conc = Certain(AgentId.W2, 3.5, Outcome("w2", "=", "fail"))
    okok = QuantumPossible((("w1", "ok"), ("w2", "ok")), Fraction(1, 12))
    return (
        Step(
            "FR1",
            "supposing the coin record reads tail, F1 prepared the spin in the right state "
            "and is certain of that state",
            (),
            fr1_conc,
            _req((AssumptionId.P,)),
        ),
        Step(
            "FR2",
            "F1 evolves that certainty through the known dynamics: once F2 records the spin, "
            "the F2+spin lab will be in the fail state, orthogonal to ok",
            (fr1_conc,),
            fr2_conc,
            _req((A.U,)),
            fact_ids=("tail-branch-orthogonal-to-ok",),
        ),
        Step(
            "FR3",
            "being certain the lab is in an eigenstate of W2's measurement, F1 is certain the "
            "result will be fail",
            (fr2_conc,),
            fr3_conc,
            _req((A.Q,)),
            fact_ids=("tail-branch-fail-certain",),
        ),
        Step(
            "FR4",
            "supposing the spin record reads +, F2 is certain the spin was not prepared down, "
            "hence that the coin record was not head",
            (),
            fr4_conc,
            _req((A.Q,)),
            fact_ids=("head-branch-spin-down",),
        ),
        Step(
            "FR5",
            "F2 converts 'not head' into 'tail', the only other outcome",
            (fr4_conc,),
            fr5_conc,
            _req((A.T,)),
            note="needs the exclusion rule in its precise two-outcome form (T); "
            "the converse-of-S reading (S-bar) is the looser statement of the same move",
        ),
        Step(
            "FR6",
            "combining the last conclusion with the tail-branch reasoning, F2 is certain that "
            "F1 was certain the final result will be fail",
            (fr3_conc, fr5_conc),
            fr6_conc,
            _req(),
        ),
        Step(
            "FR7",
            "F2 adopts F1's certainty, relying on F1's memory being unchanged between t=1.5 and t=2.5",
            (fr6_conc,),
            fr7_conc,
            _req((A.C,), (A.L, A.M)),
        ),
        Step(
            "FR8",
            "quantum fact: W1 recording ok while F2's record reads - has probability zero",
            (),
            fr8_conc,
            _req(),
            fact_ids=("joint-state-coefficients", "ok-minus-subspace-empty"),
        ),
        Step(
            "FR9",
            "if W1 records ok, W1 is certain F2's record read +, hence certain of F2's certainty",
            (fr8_conc, fr7_conc),
            fr9_conc,
            _req((A.Q,)),
            fact_ids=("ok-minus-subspace-empty",),
        ),
        Step(
            "FR10",
            "W1 adopts F2's certainty across the intervening time",
            (fr9_conc,),
            fr10_conc,
            _req((A.C,), (A.L, A.M)),
        ),
        Step(
            "FR11",
            "W1 announces the certainty to W2, who adopts it",
            (fr10_conc,),
            fr11_conc,
            _req((A.C,)),
        ),
        Step(
            "FR12",
            "W2 computes that both records can read ok with probability 1/12, so W2 cannot "
            "also be certain the result will be fail",
            (fr11_conc,),
            Negation(fr11_conc),
            _req((A.Q,), (A.S,)),
            fact_ids=("okok-probability",),
            quantum_premises=(okok,),
        ),
    )


# -- interpretation profiles --------------------------------------------------


class InterpretationProfile(NamedTuple):
    name: str
    display_name: str
    flags: Mapping[AssumptionId, bool]
    #: whether the shipped catalogue claims this interpretation avoids the contradiction
    claims_escape: bool = True

    def holds(self, a: AssumptionId) -> bool:
        return bool(self.flags[a])

    def with_flag(self, a: AssumptionId, value: bool) -> "InterpretationProfile":
        flags = dict(self.flags)
        flags[a] = value
        return InterpretationProfile(self.name, self.display_name, flags, self.claims_escape)


def _profile(name: str, display: str, marks: str, claims_escape: bool = True) -> InterpretationProfile:
    # marks: eight characters over (Q, S, C, P, U, T, L, M), 'y' for check, 'n' for cross
    flags = {a: m == "y" for a, m in zip(PROFILE_ASSUMPTIONS, marks)}
    return InterpretationProfile(name, display, flags, claims_escape)


PROFILES: dict[str, InterpretationProfile] = {
    p.name: p
    for p in (
        _profile("copenhagen", "Copenhagen", "yyyynyny"),
        _profile("collapse", "Collapse theories", "yyyynynn"),
        _profile("bell-bohm", "Bell-Bohm", "yyyynynn"),
        _profile("relative-state", "Relative-state", "yyynynnn"),
        _profile("many-worlds", "Many worlds", "yyynynnn"),
        _profile("consistent-histories", "Consistent histories", "yyyyyyny"),
        _profile("qbism", "QBism", "yynyyyyy"),
        _profile("all", "All assumptions granted", "yyyyyyyy", claims_escape=False),
    )
}

#: The seven catalogued interpretations, in table row order.
TABLE_PROFILES: tuple[str, ...] = tuple(name for name in PROFILES if name != "all")


# -- running the argument -----------------------------------------------------


def default_protocol() -> Protocol:
    """The library's default-coin dense `Protocol`, for calls given none."""
    from .protocol import default_protocol

    return default_protocol()


class QuantumFactError(RuntimeError):
    """The derivation refuses to run: a required quantum fact fails to verify."""

    def __init__(self, failures: list[FactResult]):
        self.failures = failures
        lines = "; ".join(f.fact_id for f in failures)
        super().__init__(f"quantum grounding failed for: {lines}")


class TraceEntry(NamedTuple):
    step_id: str
    fired: bool
    summary: str
    conclusion: str
    requires: str
    missing: tuple[AssumptionId, ...] = ()

    def render(self) -> str:
        if self.fired:
            return f"{self.step_id} fired [needs {self.requires}]: {self.conclusion}"
        missing = ", ".join(a.value for a in self.missing)
        return f"{self.step_id} BLOCKED [needs {self.requires}; crossed out: {missing}]"


class Verdict(NamedTuple):
    profile: InterpretationProfile
    contradiction: bool
    trace: tuple[TraceEntry, ...]
    blocked_step: str | None
    missing: frozenset[AssumptionId]

    def summary(self) -> str:
        if self.contradiction:
            return "ContradictionDerived"
        return f"BlockedAt {self.blocked_step} (missing {', '.join(sorted(a.value for a in self.missing))})"

    def render(self) -> str:
        lines = [f"profile: {self.profile.display_name}"]
        lines += ["  " + t.render() for t in self.trace]
        fired = " (all twelve steps fired)" if self.contradiction else ""
        lines.append(f"verdict: {self.summary()}{fired}")
        return "\n".join(lines)


def check(profile: InterpretationProfile, protocol: Engine | None = None) -> Verdict:
    """Fire the steps in order under a profile; never runs on bad dynamics."""
    protocol = protocol or default_protocol()
    steps = build_argument()
    fact_ids = tuple(sorted({fid for s in steps for fid in s.fact_ids}))
    failures = [r for r in facts_mod.run_facts(protocol, fact_ids) if not r.passed]
    if failures:
        raise QuantumFactError(failures)

    derived: list[Proposition] = []
    trace: list[TraceEntry] = []
    for step in steps:
        available = derived + list(step.quantum_premises)
        premises_ok = all(p in available for p in step.premises)
        unsatisfied = [
            clause for clause in step.requires if not any(profile.holds(a) for a in clause)
        ]
        if premises_ok and not unsatisfied:
            derived.append(step.conclusion)
            for qp in step.quantum_premises:
                derived.append(qp)
            trace.append(
                TraceEntry(
                    step.step_id, True, step.summary, step.conclusion.render(),
                    step.requires_rendered(),
                )
            )
            continue
        missing = frozenset(
            a for clause in unsatisfied for a in clause if not profile.holds(a)
        )
        trace.append(
            TraceEntry(
                step.step_id, False, step.summary, step.conclusion.render(),
                step.requires_rendered(), tuple(sorted(missing, key=lambda a: a.value)),
            )
        )
        return Verdict(profile, False, tuple(trace), step.step_id, missing)
    return Verdict(profile, True, tuple(trace), None, frozenset())


def verify_trace(verdict: Verdict) -> bool:
    """Soundness: every fired step's premises were concluded by earlier steps."""
    steps = {s.step_id: s for s in build_argument()}
    derived: list[Proposition] = []
    for entry in verdict.trace:
        step = steps[entry.step_id]
        if not entry.fired:
            continue
        if not all(p in derived + list(step.quantum_premises) for p in step.premises):
            return False
        derived.append(step.conclusion)
        derived.extend(step.quantum_premises)
    return True


# -- escape rule and audit ----------------------------------------------------

#: Violating any one of these escapes the contradiction ...
ESCAPE_SINGLES: tuple[AssumptionId, ...] = (
    AssumptionId.Q,
    AssumptionId.C,
    AssumptionId.S,
    AssumptionId.P,
    AssumptionId.U,
    AssumptionId.T,
)
#: ... or violating both of these.
ESCAPE_PAIR: tuple[AssumptionId, AssumptionId] = (AssumptionId.L, AssumptionId.M)


def escape_rule(profile: InterpretationProfile) -> bool:
    """Does the profile's flag vector satisfy the escape criterion?"""
    if any(not profile.holds(a) for a in ESCAPE_SINGLES):
        return True
    return not profile.holds(ESCAPE_PAIR[0]) and not profile.holds(ESCAPE_PAIR[1])


class AuditRow(NamedTuple):
    verdict: Verdict
    escapes_by_rule: bool
    rule_matches_verdict: bool
    #: the catalogue claims an escape the row's own flags cannot deliver
    discrepancy: bool

    @property
    def profile(self) -> str:
        return self.verdict.profile.name

    def render(self) -> str:
        rule = "escapes" if self.escapes_by_rule else "no escape"
        v = self.verdict
        verdict = "ContradictionDerived" if v.contradiction else f"BlockedAt {v.blocked_step}"
        flag = ""
        if self.discrepancy:
            flag = "  <-- DISCREPANCY: catalogued as escaping, but its flags do not satisfy the escape rule"
        return f"{v.profile.display_name:<22} rule: {rule:<10} check(): {verdict:<24} consistent: {'yes' if self.rule_matches_verdict else 'NO'}{flag}"


class AuditReport(NamedTuple):
    rows: tuple[AuditRow, ...]

    @property
    def discrepancies(self) -> tuple[AuditRow, ...]:
        return tuple(r for r in self.rows if r.discrepancy)

    def render(self) -> str:
        singles = ", ".join(a.value for a in ESCAPE_SINGLES)
        pair = " and ".join(a.value for a in ESCAPE_PAIR)
        lines = [f"escape-rule audit (violate one of {singles}, or both {pair})"]
        lines += ["  " + r.render() for r in self.rows]
        lines.append(f"discrepancies: {len(self.discrepancies)}")
        return "\n".join(lines)


def escape_rule_audit(protocol: Engine | None = None) -> AuditReport:
    """Check every catalogued profile's escape-rule value against check().

    The rule and the step engine always agree with each other; the audit
    exists to surface rows where the catalogue claims an escape that the
    row's own flags cannot deliver.  That tension is reported, not resolved.
    """
    protocol = protocol or default_protocol()
    rows = []
    for name in TABLE_PROFILES:
        profile = PROFILES[name]
        escapes = escape_rule(profile)
        verdict = check(profile, protocol)
        rows.append(AuditRow(verdict, escapes, escapes != verdict.contradiction, profile.claims_escape != escapes))
    return AuditReport(tuple(rows))


# -- table rendering ----------------------------------------------------------

CHECK_MARK = "✓"
CROSS_MARK = "×"

CORE_ASSUMPTIONS: tuple[AssumptionId, ...] = (AssumptionId.Q, AssumptionId.S, AssumptionId.C)


def _render_table(title: str, columns: tuple[AssumptionId, ...]) -> str:
    width = 22
    header = f"{'Interpretation':<{width}}" + "".join(f" ({a.value})" for a in columns)
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for name in TABLE_PROFILES:
        p = PROFILES[name]
        cells = "".join(
            f"  {CHECK_MARK if p.holds(a) else CROSS_MARK} " for a in columns
        )
        lines.append((f"{p.display_name:<{width}}" + cells).rstrip())
    lines.append(rule)
    return "\n".join(lines)


def render_tables() -> str:
    """Both assumption tables, byte-stable."""
    t1 = _render_table("Core assumption status by interpretation", CORE_ASSUMPTIONS)
    t2 = _render_table("Full assumption status by interpretation", PROFILE_ASSUMPTIONS)
    return t1 + "\n\n" + t2 + "\n"


# -- profile files ------------------------------------------------------------


def parse_profile_file(text: str) -> InterpretationProfile:
    """Profile format: one `name:` line, then eight `ID = check|cross` lines."""
    name: str | None = None
    flags: dict[AssumptionId, bool] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            if not line.startswith("name:"):
                raise ValueError(f"line {lineno}: expected 'name: <profile name>'")
            name = line[len("name:"):].strip()
            if not name:
                raise ValueError(f"line {lineno}: empty profile name")
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected '<assumption> = check|cross'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().lower()
        try:
            a = AssumptionId(key)
        except ValueError:
            raise ValueError(f"line {lineno}: unknown assumption {key!r}") from None
        if a not in PROFILE_ASSUMPTIONS:
            raise ValueError(f"line {lineno}: {key!r} is not a profile assumption")
        if value not in ("check", "cross"):
            raise ValueError(f"line {lineno}: value must be 'check' or 'cross', got {value!r}")
        if a in flags:
            raise ValueError(f"line {lineno}: duplicate assumption {key!r}")
        flags[a] = value == "check"
    if name is None:
        raise ValueError("missing 'name:' line")
    missing = [a.value for a in PROFILE_ASSUMPTIONS if a not in flags]
    if missing:
        raise ValueError(f"missing assumptions: {', '.join(missing)}")
    return InterpretationProfile(name, name, flags)


def format_profile_file(profile: InterpretationProfile) -> str:
    lines = [f"name: {profile.name}"]
    for a in PROFILE_ASSUMPTIONS:
        lines.append(f"{a.value} = {'check' if profile.holds(a) else 'cross'}")
    return "\n".join(lines) + "\n"
