"""In-process CLI tests: golden output bytes and one-line usage errors.

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
the exact value; no other byte changed.
"""

import json
from pathlib import Path

import pytest

from ewflab import cli

GOLDEN = Path(__file__).parent / "golden"

# Custom family whose report prints float noise (2.48e-18): the bytes depend
# on the exact arithmetic of every chain vector.
NOISY_FAMILY = [
    "--define", "a: w1=ok, w2=ok",
    "--define", "b: w1=fail, w2=ok",
    "--define", "c: w1=ok, w2=fail",
    "--define", "d: z=-",
]


class TestInProcess:
    @pytest.mark.parametrize(
        "args, golden",
        [
            (["histories"], "histories_default.txt"),
            (["histories", "--format", "json"], "histories_default.json"),
            (["histories"] + NOISY_FAMILY, "histories_custom.txt"),
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


def test_bellbohm_reference_json_is_the_full_payloads_reference_object(capsys):
    assert cli.main(["bellbohm", "--reference", "--format", "json"]) == 0
    full = json.loads((GOLDEN / "bellbohm_default.json").read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out) == {"reference_trajectory": full["reference_trajectory"]}
