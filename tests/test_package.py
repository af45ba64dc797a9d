"""The package loads lazily: each subcommand imports only the modules it runs.

Module sets are read in fresh interpreters, because this test process has
already imported every module.  No subcommand imports numpy: the command
line computes with the exact engine, and only the library's dense
`Protocol` needs numpy.  Nor does any import `dataclasses` or the `inspect`
it pulls in: `src/` declares its records as NamedTuples and plain classes,
because importing `dataclasses` and generating the records' methods cost
each subcommand's process up to about 30 ms (README, Performance).
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ewflab
from ewflab import born, cli, epistemics

SRC = Path(ewflab.__file__).resolve().parent.parent

#: The package's public names and the submodule each comes from, as the
#: package exported them when it imported every submodule eagerly, less the
#: measurement-projector helpers of `born` and the `MeasurementSpec` record
#: removed since.
EXPORTS = {
    "born": (
        "Certainty", "CertaintyResult", "CollapsePolicy", "Distribution", "final_record_marginal",
        "joint_distribution",
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
    "protocol": ("AgentId", "Protocol", "StageId", "StageUnitary", "default_protocol"),
}

ENGINE = {"ewflab", "ewflab.cli", "ewflab.linalg", "ewflab.exact"}
DERIVING = ENGINE | {"ewflab.born", "ewflab.facts", "ewflab.histories"}
SUBCOMMANDS = [
    (["simulate"], ENGINE | {"ewflab.born"}),
    (["histories"], ENGINE | {"ewflab.histories"}),
    (["bellbohm"], ENGINE | {"ewflab.bellbohm", "ewflab.born"}),
    (["verify"], DERIVING),
    (["argue", "--interpretation", "all"], DERIVING | {"ewflab.epistemics"}),
    (["audit"], DERIVING | {"ewflab.epistemics"}),
    (["report"], DERIVING | {"ewflab.epistemics", "ewflab.bellbohm"}),
]
#: A coin off the default, where the derivation refuses (exit 1) and labels
#: have denominators above 240.
SEEDED_COIN = ["--coin", "0.28,0.96"]
#: Modules no invocation of the command line may import.
AVOIDED = ("numpy", "dataclasses", "inspect")


def loaded_after(code: str) -> tuple[set[str], set[str]]:
    """ewflab modules, and which of AVOIDED, in sys.modules after running code."""
    probe = (
        "import sys, io, contextlib\n"
        f"{code}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'ewflab')))\n"
        f"print(' '.join(m for m in {AVOIDED!r} if m in sys.modules))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    modules, avoided = res.stdout.splitlines()[-2:]
    return set(modules.split()), set(avoided.split())


def test_import_loads_no_submodule_and_no_numpy():
    assert loaded_after("import ewflab") == ({"ewflab"}, set())


@pytest.mark.parametrize("argv, expected", SUBCOMMANDS, ids=lambda v: v[0] if isinstance(v, list) else None)
def test_subcommand_loads_only_what_it_uses(argv, expected):
    code = (
        "from ewflab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    modules, avoided = loaded_after(code)
    assert modules == expected
    assert not avoided
    if argv[0] in ("simulate", "histories", "bellbohm"):
        assert "ewflab.epistemics" not in modules and "ewflab.facts" not in modules


@pytest.mark.parametrize(
    "argv, codes",
    [(argv + SEEDED_COIN, {0, 1}) for argv, _ in SUBCOMMANDS]
    + [(["--help"], {0}), (["simulate", "--coin", "0.6"], {2}), (["frobnicate"], {2})],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_no_invocation_imports_numpy(argv, codes):
    code = (
        "from ewflab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        code = cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"assert code in {codes!r}, code\n"
    )
    assert not loaded_after(code)[1]


def test_every_subcommand_runs_where_numpy_cannot_be_imported():
    """`sys.modules["numpy"] = None` makes `import numpy` raise ImportError."""
    runs = "".join(
        f"    rc = cli.main({argv!r})\n    assert rc == 0, ({argv!r}, rc)\n" for argv, _ in SUBCOMMANDS
    )
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from ewflab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n" + runs
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_public_name_is_its_submodule_object(module, name):
    assert name in dir(ewflab)
    assert getattr(ewflab, name) is getattr(importlib.import_module(f"ewflab.{module}"), name)


def test_submodules_resolve_as_attributes():
    for module in ("bellbohm", "born", "cli", "epistemics", "exact", "facts", "histories", "linalg", "protocol"):
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


def test_simulate_help_lists_the_policies():
    """The parser spells out the policy names so it need not import born."""
    assert cli.POLICY_NAMES == tuple(p.value for p in born.CollapsePolicy)
