"""End-to-end CLI tests: exit codes, output contracts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "ewflab.cli"]
GOLDEN = Path(__file__).parent / "golden"


def run(*args, check=False):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, check=check
    )


class TestSimulate:
    def test_default_run_prints_the_okok_marginal(self):
        res = run("simulate", check=True)
        marginal_lines = [l for l in res.stdout.splitlines() if l.startswith("(ok, ok)")]
        assert any("1/12" in l for l in marginal_lines)

    def test_policy_choices_agree(self):
        a = run("simulate", "--policy", "collapse", check=True).stdout
        b = run("simulate", "--policy", "marginal", check=True).stdout
        # identical tables; only the header names the policy
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("joint outcome")]
        assert strip(a) == strip(b)

    def test_head_only_coin_prints_half_ok(self):
        res = run("simulate", "--coin", "1,0", "--format", "json", check=True)
        data = json.loads(res.stdout)
        w2ok = sum(
            o["probability"]
            for o in data["joint"]["outcomes"]
            if o["labels"][3] == "ok"
        )
        assert abs(w2ok - 0.5) < 1e-11

    def test_bad_coin_exits_2(self):
        res = run("simulate", "--coin", "0.6,0.9")
        assert res.returncode == 2
        assert "coin amplitudes" in res.stderr

    def test_json_contains_exact_rationals(self):
        data = json.loads(run("simulate", "--format", "json", check=True).stdout)
        exacts = {o["exact"] for o in data["record_marginal"]["outcomes"]}
        assert exacts == {"1/12", "3/4"}


class TestVerify:
    def test_all_facts_pass_by_default(self):
        res = run("verify")
        assert res.returncode == 0
        lines = [l for l in res.stdout.splitlines() if l.startswith("[")]
        assert len(lines) >= 5
        assert all(l.startswith("[PASS]") for l in lines)

    def test_flipped_ok_sign_fails_the_coefficient_check(self):
        res = run("verify", "--flip-ok-sign")
        assert res.returncode == 1
        failing = [l for l in res.stdout.splitlines() if l.startswith("[FAIL]")]
        assert len(failing) == 1
        assert "FR8" in failing[0]

    def test_json_format(self):
        data = json.loads(run("verify", "--format", "json", check=True).stdout)
        assert data["all_passed"] is True
        assert {f["id"] for f in data["facts"]} >= {
            "okok-probability",
            "joint-state-coefficients",
            "tail-branch-orthogonal-to-ok",
        }


class TestHistories:
    def test_default_histories(self):
        out = run("histories", check=True).stdout
        assert "1/12" in out
        assert "NOT JOINTLY CONSIDERABLE" in out

    def test_custom_history_definition(self):
        out = run(
            "histories",
            "--define", "mine: r=tail, w1=fail",
            "--define", "other: r=head, w1=fail",
            check=True,
        ).stdout
        assert "P[mine: r=tail, w1=fail]" in out

    def test_bad_history_definition_exits_2(self):
        res = run("histories", "--define", "broken: q=tail")
        assert res.returncode == 2


class TestBellbohm:
    def test_reference_flag(self):
        out = run("bellbohm", "--reference", check=True).stdout
        assert "(tail,+,ok,0) -> (tail,-,ok,ok)" in out
        assert "1/48" in out

    def test_table_sorted_by_probability(self):
        out = run("bellbohm", check=True).stdout
        probs = [
            float(line.split("p = ")[1].split(" ")[0])
            for line in out.splitlines()
            if line.startswith("  (") and "p = " in line
        ]
        assert probs == sorted(probs, reverse=True)
        assert len(probs) == 32

    def test_json_marginal(self):
        data = json.loads(run("bellbohm", "--format", "json", check=True).stdout)
        assert abs(data["final_record_marginal"]["ok,ok"] - 1 / 12) < 1e-10
        assert data["reference_trajectory"]["exact"] == "1/48"


class TestArgue:
    def test_qbism_blocked_at_fr7(self):
        out = run("argue", "--interpretation", "qbism", check=True).stdout
        assert "BlockedAt FR7 (missing C)" in out

    def test_copenhagen_blocked_at_fr2(self):
        out = run("argue", "--interpretation", "copenhagen", check=True).stdout
        assert "BlockedAt FR2 (missing U)" in out

    def test_all_true_profile_file_derives_contradiction(self, tmp_path):
        profile = tmp_path / "granted.profile"
        lines = ["name: granted"] + [f"{a} = check" for a in "QSCPUTLM"]
        profile.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = run("argue", "--profile", str(profile), check=True).stdout
        assert "ContradictionDerived" in out
        assert sum(" fired [" in l for l in out.splitlines()) == 12

    def test_unknown_interpretation_exits_2(self):
        res = run("argue", "--interpretation", "pilotwave2000")
        assert res.returncode == 2

    def test_corrupted_dynamics_refuses(self):
        res = run("argue", "--interpretation", "all", "--corrupt-preparation")
        assert res.returncode == 1
        assert "refusing to derive" in res.stderr


class TestAuditAndReport:
    def test_audit_flags_one_discrepancy(self):
        data = json.loads(run("audit", "--format", "json", check=True).stdout)
        assert data["discrepancies"] == ["consistent-histories"]
        assert all(r["rule_matches_verdict"] for r in data["rows"])

    def test_report_runs_and_passes(self):
        res = run("report")
        assert res.returncode == 0
        assert "ContradictionDerived" in res.stdout
        assert "BlockedAt FR7" in res.stdout

    def test_unknown_command_exits_2(self):
        assert run("frobnicate").returncode == 2


@pytest.mark.parametrize(
    "args, code, golden",
    [
        (("histories", "--coin", "1e-13,1", "--format", "json"), 0, "histories_coin_1e-13_1.json"),
        (("verify", "--coin", "0.5773502692,0.8164965809", "--format", "json"), 1,
         "verify_coin_0.5773502692_0.8164965809.json"),
    ],
    ids=["histories-1e-13-1", "verify-paper-coin-10-digits"],
)
def test_a_coin_not_exactly_normalised_prints_its_golden_file(args, code, golden):
    """P[h] and every Born weight are raw, not divided by |a|^2 + |b|^2, so a stray normalisation would
    change these bytes: the exact `1/8` of P[h1] at (1e-13, 1), and FR8's 1e-11 deviation at the paper's
    coin typed to ten digits, which fails it (exit 1).  The files were written while P[h] was still the
    squared norm of the chain walked at the coin."""
    res = run(*args)
    assert (res.returncode, res.stdout, res.stderr) == (code, (GOLDEN / golden).read_text(encoding="utf-8"), "")


class TestDeterminism:
    def test_byte_identical_reruns(self):
        for args in (["simulate"], ["verify"], ["bellbohm"], ["report"], ["audit"]):
            first = run(*args)
            second = run(*args)
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode


@pytest.mark.parametrize(
    "args", [("simulate",), ("verify", "--format", "json"), ("report",)], ids=lambda a: "-".join(a)
)
def test_closed_stdout_exits_1_without_traceback(args):
    """Every write to a pipe whose read end is already closed fails."""
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run(BASE + list(args), stdout=w, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(w)
    assert res.returncode == 1
    assert res.stderr == ""
