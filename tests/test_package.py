"""The package loads lazily: each subcommand imports only the modules it runs.

Module sets are read in fresh interpreters, because this test process has
already imported every module.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ewflab
from ewflab import cli, epistemics

SRC = Path(ewflab.__file__).resolve().parent.parent

#: The package's public names and the submodule each comes from, as the
#: package exported them when it imported every submodule eagerly.
EXPORTS = {
    "born": (
        "Certainty", "CertaintyResult", "CollapsePolicy", "Distribution", "certainty_check",
        "final_record_marginal", "joint_certainty_check", "joint_distribution", "outcome_distribution",
    ),
    "bellbohm": (
        "MemoryConfig", "REFERENCE_TRAJECTORY", "Trajectory", "TrajectoryTable", "exact_chain",
        "transition_kernel",
    ),
    "epistemics": (
        "AssumptionId", "InterpretationProfile", "PROFILES", "Verdict", "build_argument", "check",
        "escape_rule_audit", "render_tables",
    ),
    "histories": ("History", "chain_consistency_report", "history", "history_probability"),
    "linalg": ("Projector", "SpaceDescriptor", "StateVector", "inner"),
    "protocol": ("AgentId", "MeasurementSpec", "Protocol", "StageId", "StageUnitary", "default_protocol"),
}

PARSER = {"ewflab", "ewflab.cli", "ewflab.linalg", "ewflab.protocol", "ewflab.born"}
DERIVING = PARSER | {"ewflab.facts", "ewflab.histories"}


def loaded_after(code: str) -> tuple[set[str], bool]:
    """ewflab modules, and whether numpy, in sys.modules after running code."""
    probe = (
        "import sys, io, contextlib\n"
        f"{code}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'ewflab')))\n"
        "print('numpy' in sys.modules)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    modules, numpy = res.stdout.splitlines()[-2:]
    return set(modules.split()), numpy == "True"


def test_import_loads_no_submodule_and_no_numpy():
    assert loaded_after("import ewflab") == ({"ewflab"}, False)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["simulate"], PARSER),
        (["histories"], PARSER | {"ewflab.histories"}),
        (["bellbohm"], PARSER | {"ewflab.bellbohm"}),
        (["verify"], DERIVING),
        (["argue", "--interpretation", "all"], DERIVING | {"ewflab.epistemics"}),
        (["audit"], DERIVING | {"ewflab.epistemics"}),
        (["report"], DERIVING | {"ewflab.epistemics", "ewflab.bellbohm"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_subcommand_loads_only_what_it_uses(argv, expected):
    code = (
        "from ewflab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    modules, _ = loaded_after(code)
    assert modules == expected
    if argv[0] in ("simulate", "histories", "bellbohm"):
        assert "ewflab.epistemics" not in modules and "ewflab.facts" not in modules


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_public_name_is_its_submodule_object(module, name):
    assert name in dir(ewflab)
    assert getattr(ewflab, name) is getattr(importlib.import_module(f"ewflab.{module}"), name)


def test_submodules_resolve_as_attributes():
    for module in ("bellbohm", "born", "cli", "epistemics", "facts", "histories", "linalg", "protocol"):
        assert getattr(ewflab, module) is importlib.import_module(f"ewflab.{module}")
        assert module in dir(ewflab)
    with pytest.raises(AttributeError):
        getattr(ewflab, "no_such_name")


def test_readme_import_line_works():
    from ewflab import PROFILES, Protocol, check, exact_chain, joint_distribution

    assert check(PROFILES["all"], Protocol()).contradiction
    assert callable(joint_distribution) and callable(exact_chain)


def test_argue_help_lists_the_profile_catalogue():
    """The parser spells out the profile names so it need not import epistemics."""
    assert cli.PROFILE_NAMES == tuple(sorted(epistemics.PROFILES))
