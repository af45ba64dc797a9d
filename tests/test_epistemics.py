"""The derivation engine: step table, verdicts, audit, tables, profiles."""

import itertools
from pathlib import Path

import pytest

from ewflab import epistemics as ep
from ewflab.epistemics import (
    ESCAPE_PAIR,
    ESCAPE_SINGLES,
    PROFILE_ASSUMPTIONS,
    PROFILES,
    TABLE_PROFILES,
    AssumptionId,
    InterpretationProfile,
    QuantumFactError,
    build_argument,
    check,
    escape_rule,
    escape_rule_audit,
    format_profile_file,
    parse_profile_file,
    render_tables,
    verify_trace,
)
from ewflab.protocol import AgentId, Protocol

GOLDEN = Path(__file__).parent / "golden" / "assumption_tables.txt"

# step id -> conjunction of disjunction clauses, as value strings
EXPECTED_REQUIREMENTS = {
    "FR1": [{"P"}],
    "FR2": [{"U"}],
    "FR3": [{"Q"}],
    "FR4": [{"Q"}],
    "FR5": [{"T"}],
    "FR6": [],
    "FR7": [{"C"}, {"L", "M"}],
    "FR8": [],
    "FR9": [{"Q"}],
    "FR10": [{"C"}, {"L", "M"}],
    "FR11": [{"C"}],
    "FR12": [{"Q"}, {"S"}],
}


class TestArgumentStructure:
    def test_twelve_steps_in_order(self):
        steps = build_argument()
        assert [s.step_id for s in steps] == [f"FR{i}" for i in range(1, 13)]

    def test_requirement_table(self):
        for step in build_argument():
            got = [set(a.value for a in clause) for clause in step.requires]
            assert got == EXPECTED_REQUIREMENTS[step.step_id], step.step_id

    def test_fr3_conclusion_shape(self):
        steps = {s.step_id: s for s in build_argument()}
        conc = steps["FR3"].conclusion
        assert isinstance(conc, ep.Certain)
        assert conc.agent is AgentId.F1
        assert conc.at_time == 1.5
        assert conc.body == ep.Outcome("w2", "=", "fail")

    def test_fr8_is_a_pure_quantum_fact(self):
        steps = {s.step_id: s for s in build_argument()}
        fr8 = steps["FR8"]
        assert fr8.requires == ()
        assert isinstance(fr8.conclusion, ep.QuantumPossible)
        assert fr8.conclusion.probability == 0

    def test_fr12_collides_with_fr11(self):
        steps = {s.step_id: s for s in build_argument()}
        assert steps["FR12"].conclusion == ep.Negation(steps["FR11"].conclusion)
        (okok,) = steps["FR12"].quantum_premises
        assert okok.probability == pytest.approx(1 / 12)

    def test_every_premise_is_some_earlier_conclusion(self):
        steps = build_argument()
        earlier = []
        for s in steps:
            for premise in s.premises:
                assert premise in earlier + list(s.quantum_premises), s.step_id
            earlier.append(s.conclusion)
            earlier.extend(s.quantum_premises)


class TestVerdicts:
    def test_all_granted_derives_the_contradiction(self, protocol):
        v = check(PROFILES["all"], protocol)
        assert v.contradiction
        assert len(v.trace) == 12
        assert all(t.fired for t in v.trace)
        assert verify_trace(v)

    @pytest.mark.parametrize(
        "name,step,missing",
        [
            ("qbism", "FR7", {"C"}),
            ("copenhagen", "FR2", {"U"}),
            ("collapse", "FR2", {"U"}),
            ("bell-bohm", "FR2", {"U"}),
            ("relative-state", "FR1", {"P"}),
            ("many-worlds", "FR1", {"P"}),
        ],
    )
    def test_blocked_profiles(self, protocol, name, step, missing):
        v = check(PROFILES[name], protocol)
        assert not v.contradiction
        assert v.blocked_step == step
        assert {a.value for a in v.missing} == missing
        assert verify_trace(v)

    def test_consistent_histories_flags_do_not_block(self, protocol):
        v = check(PROFILES["consistent-histories"], protocol)
        assert v.contradiction

    def test_missing_assumptions_are_all_crossed_out(self, protocol):
        for name in TABLE_PROFILES:
            v = check(PROFILES[name], protocol)
            for a in v.missing:
                assert not PROFILES[name].holds(a)

    def test_monotonicity_of_the_block(self, protocol):
        """Granting one more assumption never moves the block earlier."""

        def block_index(verdict):
            if verdict.contradiction:
                return 13
            return int(verdict.blocked_step.removeprefix("FR"))

        for name in TABLE_PROFILES:
            base = PROFILES[name]
            base_idx = block_index(check(base, protocol))
            for a in PROFILE_ASSUMPTIONS:
                if base.holds(a):
                    continue
                relaxed = base.with_flag(a, True)
                assert block_index(check(relaxed, protocol)) >= base_idx

    def test_corrupted_dynamics_refuses_to_derive(self):
        with pytest.raises(QuantumFactError):
            check(PROFILES["all"], Protocol(corrupt_preparation=True))


class TestEscapeAudit:
    def test_rule_values(self):
        assert not escape_rule(PROFILES["consistent-histories"])
        for name in TABLE_PROFILES:
            if name != "consistent-histories":
                assert escape_rule(PROFILES[name]), name

    def test_rule_always_matches_engine(self, protocol):
        report = escape_rule_audit(protocol)
        assert all(r.rule_matches_verdict for r in report.rows)

    def test_exactly_one_discrepancy(self, protocol):
        report = escape_rule_audit(protocol)
        assert [r.profile for r in report.discrepancies] == ["consistent-histories"]

    def test_both_l_and_m_crossed_escapes_via_the_pair(self, protocol):
        profile = (
            PROFILES["all"]
            .with_flag(AssumptionId.L, False)
            .with_flag(AssumptionId.M, False)
        )
        assert escape_rule(profile)
        v = check(profile, protocol)
        assert v.blocked_step == "FR7"
        assert {a.value for a in v.missing} == {"L", "M"}

    def test_smallest_blocking_sets_are_the_escape_rule_and_the_smallest_clauses(self, protocol):
        """A step blocks when every assumption of one of its clauses is crossed out.

        Over all 256 flag vectors of the eight profile assumptions, the
        crossed-out sets that block, smallest first, are the escape rule's
        singles and its pair, and also the smallest requirement clauses.
        """
        blocking = []
        for marks in itertools.product((True, False), repeat=len(PROFILE_ASSUMPTIONS)):
            profile = InterpretationProfile("v", "v", dict(zip(PROFILE_ASSUMPTIONS, marks)))
            blocked = not check(profile, protocol).contradiction
            assert blocked == escape_rule(profile)
            if blocked:
                blocking.append(frozenset(a for a in PROFILE_ASSUMPTIONS if not profile.holds(a)))
        smallest = {s for s in blocking if not any(t < s for t in blocking)}
        assert {"".join(sorted(a.value for a in s)) for s in smallest} == {"Q", "C", "S", "P", "U", "T", "LM"}
        assert smallest == {frozenset({a}) for a in ESCAPE_SINGLES} | {frozenset(ESCAPE_PAIR)}
        clauses = {c for step in build_argument() for c in step.requires}
        assert smallest == {c for c in clauses if not any(d < c for d in clauses)}


class TestTables:
    def test_render_matches_golden_fixture(self):
        assert render_tables() == GOLDEN.read_text(encoding="utf-8")

    def test_seven_rows_eight_columns(self):
        assert len(TABLE_PROFILES) == 7
        assert len(PROFILE_ASSUMPTIONS) == 8

    def test_core_table_row_for_qbism(self):
        p = PROFILES["qbism"]
        marks = [p.holds(a) for a in ep.CORE_ASSUMPTIONS]
        assert marks == [True, True, False]

    def test_full_table_row_for_many_worlds(self):
        p = PROFILES["many-worlds"]
        marks = [p.holds(a) for a in PROFILE_ASSUMPTIONS]
        assert marks == [True, True, True, False, True, False, False, False]


class TestProfileFiles:
    def test_roundtrip(self):
        for name in TABLE_PROFILES:
            text = format_profile_file(PROFILES[name])
            parsed = parse_profile_file(text)
            for a in PROFILE_ASSUMPTIONS:
                assert parsed.holds(a) == PROFILES[name].holds(a)

    def test_comments_and_blank_lines_allowed(self):
        text = (
            "# hypothetical interpretation\n\nname: custom\n"
            "Q = check\nS = check\nC = cross\nP = check\n"
            "U = check\nT = check\nL = check\nM = check\n"
        )
        p = parse_profile_file(text)
        assert p.name == "custom"
        assert not p.holds(AssumptionId.C)

    @pytest.mark.parametrize(
        "text",
        [
            "Q = check",  # missing name
            "name: x\nQ = maybe\n",  # bad value
            "name: x\nZZ = check\n",  # unknown assumption
            "name: x\nQ = check\n",  # incomplete
            "name: x\n" + "Q = check\n" * 2,  # duplicate
        ],
    )
    def test_malformed_files_rejected(self, text):
        with pytest.raises(ValueError):
            parse_profile_file(text)
