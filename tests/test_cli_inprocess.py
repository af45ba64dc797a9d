"""In-process CLI tests: golden output bytes, one-line usage errors, and how `report` is composed.

These call `cli.main` directly and read its output through capsys, so they
spawn no subprocess.  The `histories_*` golden files were written by the CLI
before record events became memory-axis masks; matching them byte for byte
shows the mask path computes the same numbers, float noise included.  The
`simulate`, `bellbohm`, `argue_all` and `audit` files were written before
measurement events became cached factor matrices and the memory marginal was
shared.  `verify_default.*` was written after FR2 and FR8 moved to factor
matrices; against the earlier spanning-set output it differs only in two
float-noise details (`ok weight 5e-34` -> `1.06e-33`, `weight 2.7e-35` ->
`1.47e-34`).  `report_default.txt` was written before measurements carried
their outcome vectors instead of spanning-set decompositions.  Since the
consistency report reads its diagnostics off the decoherence functional,
`h1 vs h1prime` prints `off-diagonal 0` where the separately evolved direct
chains printed the rounding noise `2.48e-18` (in `histories_default.*` and
`report_default.txt`); h1prime's chain is exactly zero.  Since the command
line computes with the exact engine, every quantity that vanishes prints as
`0` instead of rounding noise, and each JSON float is the nearest float to
the exact value; no other byte changed.  `histories_coin_0.6_0.8.json` was
written while the report still walked every refined chain at the coin,
before it read D off coin forms.  The `help_*` and `usage_*` files
were written while the parser still built every subcommand's arguments on
each invocation; it now builds only the chosen one's.
"""

import argparse
import json
from pathlib import Path

import pytest

from ewflab import cli, epistemics

GOLDEN = Path(__file__).parent / "golden"

# Custom family whose report prints float noise (2.48e-18): the bytes depend
# on the exact arithmetic of every chain vector.
NOISY_FAMILY = [
    "--define", "a: w1=ok, w2=ok",
    "--define", "b: w1=fail, w2=ok",
    "--define", "c: w1=ok, w2=fail",
    "--define", "d: z=-",
]

# The r x w1 family at a coin other than the paper's: two pairs fail with off-diagonals of
# |Re(a*b)|/(2 sqrt 2) = 0.17, so every block of the coin forms (HH, HT, TH, TT) reaches the output.
R_W1_FAMILY = [
    "--define", "a: r=head, w1=ok",
    "--define", "b: r=head, w1=fail",
    "--define", "c: r=tail, w1=ok",
    "--define", "d: r=tail, w1=fail",
]


class TestInProcess:
    @pytest.mark.parametrize(
        "args, golden",
        [
            (["histories"], "histories_default.txt"),
            (["histories", "--format", "json"], "histories_default.json"),
            (["histories"] + NOISY_FAMILY, "histories_custom.txt"),
            (["histories", "--coin", "0.6,0.8", "--format", "json"] + R_W1_FAMILY, "histories_coin_0.6_0.8.json"),
        ],
    )
    def test_histories_output_matches_golden(self, capsys, args, golden):
        assert cli.main(args) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_duplicate_history_names_exit_2_without_traceback(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["histories", "--define", "d: r=tail", "--define", "d: w1=ok"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "ewflab: error: family members need distinct names (repeated: d)"
        )


DEFAULT_GOLDEN = [
    (args + fmt, f"{name}_default.{ext}")
    for name, args in [
        ("simulate", ["simulate"]),
        ("verify", ["verify"]),
        ("bellbohm", ["bellbohm"]),
        ("argue_all", ["argue", "--interpretation", "all"]),
        ("audit", ["audit"]),
    ]
    for fmt, ext in [([], "txt"), (["--format", "json"], "json")]
] + [(["report"], "report_default.txt")]


@pytest.mark.parametrize("args, golden", DEFAULT_GOLDEN, ids=[g for _, g in DEFAULT_GOLDEN])
def test_default_coin_output_matches_golden(capsys, args, golden):
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


HELP_GOLDEN = [([], "help_top.txt")] + [([name], f"help_{name}.txt") for name, *_ in cli.SUBCOMMANDS]


@pytest.mark.parametrize("argv, golden", HELP_GOLDEN, ids=[g for _, g in HELP_GOLDEN])
def test_help_matches_golden(capsys, monkeypatch, argv, golden):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == ((GOLDEN / golden).read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("argv, golden", [([], "usage_missing_command.txt"),
                                          (["frobnicate"], "usage_unknown_command.txt")],
                         ids=["missing", "unknown"])
def test_command_usage_error_matches_golden(capsys, monkeypatch, argv, golden):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", (GOLDEN / golden).read_text(encoding="utf-8"))


def test_only_the_chosen_subcommand_builds_a_parser(capsys, monkeypatch):
    """The top-level parser lists all seven subcommands; only the one invoked is built, with its arguments."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["verify"]) == 0
    assert built == ["ewflab", "ewflab verify"]


def test_bellbohm_reference_json_is_the_full_payloads_reference_object(capsys):
    assert cli.main(["bellbohm", "--reference", "--format", "json"]) == 0
    full = json.loads((GOLDEN / "bellbohm_default.json").read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out) == {"reference_trajectory": full["reference_trajectory"]}


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = cli.main(argv)
    return (code, *capsys.readouterr())


def report_sections(out: str) -> dict[str, str]:
    """Each banner title of `report`'s output -> the text below it, up to the next banner."""
    parts = out.split("=" * 70 + "\n")
    assert parts[0] == ""
    return {title.rstrip("\n"): body for title, body in zip(parts[1::2], parts[2::2])}


@pytest.mark.parametrize("coin", [[], ["--coin", "0.6,0.8"]], ids=["default", "0.6,0.8"])
def test_report_sections_are_the_subcommands_outputs(capsys, coin):
    """Byte for byte: the joint section is `simulate`'s, the history section `histories`', the audit `audit`'s."""
    report_code, report_out, report_err = run(capsys, ["report"] + coin)
    sections = report_sections(report_out)

    code, simulate_out, _ = run(capsys, ["simulate"] + coin)
    assert code == 0
    header, _, simulate_body = simulate_out.partition("\n")
    assert header == "joint outcome distribution (policy: collapse)"
    assert sections["joint outcome distribution (both policies agree)"] == simulate_body + "\n"

    code, histories_out, _ = run(capsys, ["histories"] + coin)
    assert code == 0
    assert sections["history probabilities"] == histories_out + "\n"

    audit_code, audit_out, audit_err = run(capsys, ["audit"] + coin)
    verdicts = sections["derivation verdicts"]
    if audit_code == 1:  # the derivation refuses at this coin, and so does report, at the same point
        assert (report_code, report_err, verdicts) == (1, audit_err, "")
        assert audit_err.startswith("refusing to derive: ")
        return
    assert (report_code, report_err, audit_code) == (0, "", 0)
    lines, _, audit_section = verdicts.partition("\n\n")
    assert audit_section == audit_out
    # one summary line per catalogued profile, then "all", each the verdict `argue` prints
    names = list(epistemics.TABLE_PROFILES) + ["all"]
    assert len(lines.splitlines()) == len(names)
    for name, line in zip(names, lines.splitlines()):
        profile = epistemics.PROFILES[name]
        _, argue_out, _ = run(capsys, ["argue", "--interpretation", name] + coin)
        verdict = argue_out.splitlines()[-1].removeprefix("verdict: ").removesuffix(" (all twelve steps fired)")
        assert line == f"{profile.display_name:<22} {verdict}"


def test_report_runs_check_once_per_audit_row_plus_all(capsys, monkeypatch):
    """The audit's rows carry their verdicts: report runs check() 7 + 1 times."""
    calls = []
    original = epistemics.check

    def counted(profile, protocol=None):
        calls.append(profile.name)
        return original(profile, protocol)

    monkeypatch.setattr(epistemics, "check", counted)
    assert run(capsys, ["report"])[0] == 0
    assert calls == list(epistemics.TABLE_PROFILES) + ["all"]
