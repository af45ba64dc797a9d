"""Edge inputs end in a FAIL line or a one-line error with a documented exit code.

Each case runs `cli.main` in process: an exception escaping it fails the
test with its traceback, and a usage error is read from SystemExit.
"""

import json
import re

import pytest

from ewflab import cli, exact, histories
from ewflab.protocol import OUTCOME_LABELS, RECORDERS, STAGES, record_mask

# coin -> the branch it leaves empty
DEGENERATE_COINS = {"1,0": "tail", "0,1": "head", "-1,0": "tail", "0,-1": "head"}
DEGENERATE = [(sub, coin) for sub in ("verify", "argue", "audit", "report") for coin in DEGENERATE_COINS]


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


@pytest.mark.parametrize("sub, coin", DEGENERATE)
def test_degenerate_coin_fails_without_traceback(capsys, sub, coin):
    argv = [sub, f"--coin={coin}"] + (["--interpretation", "all"] if sub == "argue" else [])
    code, out, err = run(capsys, argv)
    assert code == 1
    if sub == "verify":
        assert f"({DEGENERATE_COINS[coin]} branch has zero weight)" in out
        assert any(line.startswith("[FAIL]") for line in out.splitlines())
    else:
        assert len(err.splitlines()) == 1
        assert err.startswith("refusing to derive: quantum grounding failed for: ")


#: (coin, hooks) -> the FR2, FR3 and FR4 details `verify` prints: a branch of tiny but nonzero weight is
#: divided by, and only one of exactly zero weight is called empty
BRANCH_EDGES = {
    ("1e-13,1", ()): ("ok weight 0", "probability 1", "probability 1"),
    ("1,1e-13", ()): ("ok weight 0", "probability 1", "probability 1"),
    ("1,1e-13", ("--corrupt-preparation",)): ("ok weight 1", "probability 0", "probability 1"),
    ("0,1", ()): ("ok weight 0", "probability 1", "head branch has zero weight"),
    ("1,0", ()): ("tail branch has zero weight", "tail branch has zero weight", "probability 1"),
}


@pytest.mark.parametrize("coin, hooks", list(BRANCH_EDGES), ids=[" ".join((c,) + h) for c, h in BRANCH_EDGES])
def test_a_branch_is_empty_only_at_exactly_zero_weight(capsys, coin, hooks):
    """FR2-FR4 divide by the history probability of their coin branch, however small, unless it is 0."""
    code, out, err = run(capsys, ["verify", "--coin", coin, *hooks])
    assert (code, err) == (1, "")  # FR8 and FR12 fail at each of these coins
    lines = {line.split()[1]: line for line in out.splitlines() if line.startswith(("[PASS]", "[FAIL]"))}
    for tag, detail in zip(("FR2", "FR3", "FR4"), BRANCH_EDGES[coin, hooks]):
        passed = detail in ("ok weight 0", "probability 1")
        assert lines[tag].startswith("[PASS]" if passed else "[FAIL]"), lines[tag]
        assert lines[tag].endswith(f"({detail})"), lines[tag]


#: accepted coins off the default: an exact one, the paper's coin typed to ten digits and one with
#: |a|^2 + |b|^2 = 1 + 1e-10; the last two are accepted but not exactly normalised
SEEDED_COINS = ["0.6,0.8", "0.5773502692,0.8164965809", "1e-5,1"]


@pytest.mark.parametrize("coin", SEEDED_COINS)
@pytest.mark.parametrize("sub", ["simulate", "verify", "audit", "report"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_seeded_coin_refuses_to_derive(capsys, sub, fmt, coin):
    # report prints text only and has no --format, so both its cases run the same argv
    fmt_args = [] if sub == "report" else ["--format", fmt]
    policy_args = ["--policy", "marginal"] if sub == "simulate" else []
    code, out, err = run(capsys, [sub, "--coin", coin] + policy_args + fmt_args)
    if sub == "simulate":
        # the no-collapse joint is a distribution at every accepted coin
        assert (code, err) == (0, "")
        if fmt == "json":
            assert sum(cell["probability"] for cell in json.loads(out)["joint"]["outcomes"]) == pytest.approx(1)
        return
    if sub == "verify":
        # the facts fail on their own lines; nothing is derived, so nothing is refused
        assert (code, err) == (1, "")
        if fmt == "json":
            assert json.loads(out)["all_passed"] is False
        else:
            assert any(line.startswith("[FAIL]") for line in out.splitlines())
        return
    assert code == 1
    assert err.startswith("refusing to derive: quantum grounding failed for: ")
    assert len(err.splitlines()) == 1
    if sub == "report":
        # what report printed before the derivation stays printed
        assert "beable chain summary" in out
        assert out.rstrip().endswith("derivation verdicts\n" + "=" * 70)


def test_event_at_non_recording_stage_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["histories", "--define", "p: r@PREP1=tail", "--define", "o: z=+"])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "ewflab: error: stage PREP1 records nothing; histories in a family must event at recording stages"
    )


def test_a_rejected_family_computes_no_history_probability(capsys, monkeypatch):
    calls = []
    original = histories.history_probability

    def counted(protocol, h):
        calls.append(h.name)
        return original(protocol, h)

    monkeypatch.setattr(histories, "history_probability", counted)
    # the consistency report rejects the family before any member's P[h] is computed
    code, out, err = run(capsys, ["histories", "--define", "p: r@PREP1=head", "--define", "o: z=+"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "ewflab: error: stage PREP1 records nothing; histories in a family must event at recording stages"
    )
    assert calls == []


def _count_walks(monkeypatch) -> list:
    """Record each `histories._walk` call's stage index; it recurses through the module global, so all are seen."""
    calls = []
    original = histories._walk

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(histories, "_walk", counted)
    return calls


@pytest.mark.parametrize("order", [1, -1], ids=["p-o", "o-p"])
def test_a_rejected_family_evolves_no_chain(capsys, monkeypatch, order):
    """Every member's refinement slots are built, and the family refused, before the first walk."""
    walks = _count_walks(monkeypatch)
    defines = ["p: r@PREP1=head", "o: z=+"][::order]
    code, out, err = run(capsys, ["histories"] + [arg for d in defines for arg in ("--define", d)])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "ewflab: error: stage PREP1 records nothing; histories in a family must event at recording stages"
    )
    assert walks == []


@pytest.mark.parametrize("argv, walks", [(["histories"], 17), (["report"], 40)], ids=["histories", "report"])
def test_each_member_is_walked_once_per_invocation(capsys, monkeypatch, argv, walks):
    """`histories` reads P[h] off its report's D (17 walk calls: one per member, then one per live child at
    an event stage); `report` adds the 23 of verify's history probabilities: FR2's P[r=tail] and
    P[r=tail, w2=ok] (2 + 2: the second vanishes at w2=ok), FR3's P[r=tail] and P[r=tail, w2=fail] (2 + 3),
    FR4's P[r=head] and P[r=head, z=-] (2 + 3), the (ok, spin-down) fact's P[z=-, w1=ok] (2: it vanishes
    at w1=ok), h1's chain (5) and h1prime's (2: it vanishes at w2=ok)."""
    calls = _count_walks(monkeypatch)
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert len(calls) == walks


def test_report_evolves_each_chain_node_once(capsys, monkeypatch):
    """verify's facts walk their chains, then the history section walks h1 and h1prime again in its
    report; every repeated node is read from the engine's chain memo.  The stage maps `report` applies
    are the pilot state's (5) and one per distinct chain node: P[r=tail]'s 4 (PREP1 to MEAS4 after the
    mask; P[r=tail, w2=.] only masks its last node), P[r=head]'s 4, P[r=head, z=-]'s 2 (MEAS3 and MEAS4
    after z=-), P[z=-, w1=ok]'s 1 (MEAS3 after z=-), h1's 2 (MEAS3 and MEAS4 after z=+; its earlier nodes
    are P[r=tail]'s), none of h1prime's (P[r=tail]'s too) and 4 of h1prime's refinement (MEAS4 after
    z=+, w1=fail; MEAS3 after z=-; MEAS4 after z=-, w1=ok and after z=-, w1=fail): 22."""
    calls = []
    linear = exact.ExactStage.linear

    def counted(self, state):
        calls.append(self.stage)
        return linear(self, state)

    monkeypatch.setattr(exact.ExactStage, "linear", counted)
    code, _, _ = run(capsys, ["report"])
    assert code == 0
    assert len(calls) == 22


def test_event_before_its_record_is_answered(capsys):
    code, out, _ = run(capsys, ["histories", "--define", "e: w2@OBS0=ok"])
    assert code == 0
    assert out.startswith("P[e: w2@OBS0=ok] = 0 (0)")


def test_printed_events_parse_back_to_their_stage_and_mask(capsys, protocol):
    """`var@STAGE=label` off the recording stage, `var=label` on it (written either way)."""
    for var, (_, recorded) in RECORDERS.items():
        for label in OUTCOME_LABELS[var]:
            for stage in STAGES:
                code, out, _ = run(capsys, ["histories", "--format", "json",
                                            "--define", f"x: {var}@{stage.name}={label}"])
                assert code == 0  # one member needs no refinement, so PREP1 is answered too
                (printed,) = json.loads(out)["histories"][0]["events"]
                assert (printed == f"{var}={label}") == (stage is recorded)
                (event,) = cli._parse_history_spec(protocol, f"x: {printed}").events
                assert event.stage is stage
                assert event.mask == record_mask(var, label)


@pytest.mark.parametrize("sub", ["simulate", "verify", "histories", "bellbohm", "audit"])
def test_nan_coin_is_a_usage_error(capsys, sub):
    code, _, err = run(capsys, [sub, "--coin", "nan,nan"])
    assert code == 2
    assert err.splitlines()[-1] == "ewflab: error: coin amplitudes must satisfy |a|^2 + |b|^2 = 1 within 1e-9"


@pytest.mark.parametrize("sub", ["simulate", "verify", "histories", "bellbohm", "argue", "audit", "report"])
@pytest.mark.parametrize("coin", ["-1,0", "-0.6,0.8"])
def test_separate_negative_coin_value_reads_as_the_coin(capsys, sub, coin):
    extra = ["--interpretation", "all"] if sub == "argue" else []
    joined = run(capsys, [sub, f"--coin={coin}"] + extra)
    assert run(capsys, [sub, "--coin", coin] + extra) == joined
    assert joined[0] != 2


def test_verify_answers_a_separate_negative_coin(capsys):
    code, out, err = run(capsys, ["verify", "--coin", "-1,0"])
    assert code == 1
    assert err == ""
    assert "(tail branch has zero weight)" in out


def test_coin_usage_hint_example_is_accepted(capsys):
    code, _, err = run(capsys, ["simulate", "--coin", "0.6"])
    assert code == 2
    example = re.search(r"e\.g\. (\S+)$", err.splitlines()[-1]).group(1)
    assert run(capsys, ["simulate", "--coin", example])[0] == 0


@pytest.mark.parametrize("sub", ["simulate", "verify", "histories", "bellbohm", "argue", "audit", "report"])
def test_format_is_accepted_only_where_it_is_read(capsys, sub):
    extra = ["--interpretation", "all"] if sub == "argue" else []
    code, _, err = run(capsys, [sub, "--format", "json"] + extra)
    if sub == "report":
        assert code == 2
        assert err.splitlines()[-1] == "ewflab: error: unrecognized arguments: --format json"
    else:
        assert code == 0


@pytest.mark.parametrize("sub", ["verify", "report"])
@pytest.mark.parametrize("coin", [[], ["--coin", "1,0"], ["--coin", "0,1"]], ids=["default", "1,0", "0,1"])
def test_fact_details_show_no_float_noise(capsys, sub, coin):
    """A quantity that vanishes exactly prints as 0, not as rounding noise."""
    _, out, _ = run(capsys, [sub] + coin)
    details = [line for line in out.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]
    assert len(details) == 11
    for line in details:
        for number in re.findall(r"\d(?:\.\d+)?e-\d+", line):
            assert float(number) >= 1e-15, line
    if coin == ["--coin", "0,1"] and sub == "verify":
        assert "(collapse: 0, marginal: 0)" in out


@pytest.mark.parametrize(
    "argv, line",
    [
        (["bellbohm", "--reference", "--coin", "1,0"], "(tail,-,ok,ok)   p = 0 (0)"),
        (["bellbohm", "--reference", "--coin", "1,0", "--format", "json"], '    "exact": "0"'),
        (["report", "--coin", "0,1"], "reference ok/ok trajectory probability: 0 (0)"),
    ],
    ids=["bellbohm-reference", "bellbohm-reference-json", "report"],
)
def test_exact_labels_are_never_guessed(capsys, monkeypatch, argv, line):
    """An empty trajectory sum is the int 0, labelled exactly, not by `rational_label`'s float guess."""

    def guess(p, *args, **kwargs):
        raise AssertionError(f"rational_label({p!r}) called")

    monkeypatch.setattr(exact, "rational_label", guess)
    _, out, _ = run(capsys, argv)
    assert any(printed.endswith(line) for printed in out.splitlines())


def test_coin_exponent_beyond_the_float_range_reads_as_its_float(capsys):
    """`1e-100000000` is read as 0, as a float would be, not as an exact 10**-100000000."""
    tiny = run(capsys, ["simulate", "--coin", "1e-100000000,1"])
    assert tiny == run(capsys, ["simulate", "--coin", "0,1"])
    assert tiny[0] == 0
    assert run(capsys, ["simulate", "--coin", "1e100000000,1"])[0] == 2
