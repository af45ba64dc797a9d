"""In-process CLI tests: golden output bytes and one-line usage errors.

These call `cli.main` directly and read its output through capsys, so they
spawn no subprocess.  The golden files were written by the CLI before record
events became memory-axis masks; matching them byte for byte shows the mask
path computes the same numbers, float noise included.
"""

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
