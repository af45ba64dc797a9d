"""Exact desk-scale laboratory for a nested two-lab thought experiment.

Six subsystems, 324 dimensions, five stage unitaries.  The package verifies
every quantum claim in the underlying argument exactly (state coefficients,
orthogonalities, the 1/12 joint probability), computes chained-projection
history probabilities and their joint-considerability, enumerates the exact
beable trajectory distribution over the agents' memories, and replays the
twelve-step certainty-chain argument under per-interpretation assumption
profiles.

Submodules and the names below load on first access (PEP 562), so
`import ewflab` imports neither numpy nor any submodule.  The library's
`Protocol` computes with numpy; `ExactProtocol` answers the same calls
exactly, without numpy, and is what the command line runs.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it defines.
_EXPORTS = {
    "born": (
        "Certainty", "CertaintyResult", "CollapsePolicy", "Distribution", "final_record_marginal",
        "joint_distribution",
    ),
    "bellbohm": (
        "MemoryConfig", "REFERENCE_TRAJECTORY", "Trajectory", "TrajectoryTable", "exact_chain",
        "transition_kernel",
    ),
    "exact": ("ExactProtocol", "Surd"),
    "epistemics": (
        "AssumptionId", "InterpretationProfile", "PROFILES", "Verdict", "build_argument", "check",
        "escape_rule_audit", "render_tables",
    ),
    "histories": ("History", "chain_consistency_report", "history", "history_probability"),
    "linalg": ("Projector", "SpaceDescriptor", "StateVector", "inner"),
    "protocol": ("AgentId", "Protocol", "StageId", "StageUnitary", "default_protocol"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("bellbohm", "born", "cli", "epistemics", "exact", "facts", "histories", "linalg", "protocol")

__all__ = sorted(_ORIGIN) + list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also binds it as an attribute of this package
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
