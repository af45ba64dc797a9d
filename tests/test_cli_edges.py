"""Edge inputs end in a FAIL line or a one-line error with a documented exit code.

Each case runs `cli.main` in process: an exception escaping it fails the
test with its traceback, and a usage error is read from SystemExit.
"""

import re

import pytest

from ewflab import cli

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


@pytest.mark.parametrize("sub", ["audit", "report"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_seeded_coin_refuses_to_derive(capsys, sub, fmt):
    # report prints text only and has no --format, so both its cases run the same argv
    fmt_args = [] if sub == "report" else ["--format", fmt]
    code, out, err = run(capsys, [sub, "--coin", "0.6,0.8"] + fmt_args)
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


def test_event_before_its_record_is_answered(capsys):
    code, out, _ = run(capsys, ["histories", "--define", "e: w2@OBS0=ok"])
    assert code == 0
    assert out.startswith("P[e: w2=ok] = 0 (0)")


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
