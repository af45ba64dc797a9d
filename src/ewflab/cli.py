"""Command-line front end.

Subcommands: simulate, verify, histories, bellbohm, argue, audit, report.
Exit codes: 0 success / all checks pass, 1 verification failure or stdout
closed early (a broken pipe), 2 usage error.  Output is deterministic:
identical invocations print identical bytes.

Every subcommand computes with the exact engine (`exact.ExactProtocol`),
so no subcommand imports numpy, and each prints exact labels derived from
exact numbers.  Only what building the parser needs is imported here; each
subcommand imports the modules it runs, so a process loads no more than it
uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .born import Distribution
    from .exact import ExactProtocol
    from .histories import ConsistencyReport, History

#: `sorted(epistemics.PROFILES)` and the `born.CollapsePolicy` values,
#: spelled out so that building the parser imports neither (a test keeps
#: them equal).
PROFILE_NAMES = ("all", "bell-bohm", "collapse", "consistent-histories", "copenhagen", "many-worlds",
                 "qbism", "relative-state")
POLICY_NAMES = ("collapse", "marginal")


def _parse_coin(text: str) -> tuple[str, str]:
    """Two amplitudes, kept as typed: the exact engine reads "0.6" as 3/5."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated amplitudes, e.g. 0.6,0.8")
    try:
        for part in parts:
            float(part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse amplitudes from {text!r}") from None
    return parts[0], parts[1]


def _with_exact(p) -> str:
    """A probability as 12 significant digits plus its exact label, if any."""
    from .exact import exact_label

    exact = exact_label(p)
    return f"{p:.12g}" + (f" ({exact})" if exact else "")


def _protocol_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ExactProtocol:
    from .exact import ExactProtocol

    try:
        return ExactProtocol(args.coin, flip_ok_sign=args.flip_ok_sign, corrupt_preparation=args.corrupt_preparation)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
        raise AssertionError("unreachable")


def _refusing(handler):
    """A handler whose derivation may refuse: one stderr line and exit 1, no traceback."""

    def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
        from .epistemics import QuantumFactError

        try:
            return handler(args, parser)
        except QuantumFactError as exc:
            print(f"refusing to derive: {exc}", file=sys.stderr)
            return 1

    return run


def _joint_text(joint: Distribution) -> str:
    """A joint distribution and its (w1, w2) marginal, as `simulate` and `report` print them."""
    return f"{joint.render_text()}\n\n(w1, w2) marginal\n{joint.marginal(('w1', 'w2')).render_text()}"


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import born
    from .exact import DEFAULT_COIN_FLOATS

    protocol = _protocol_from_args(args, parser)
    policy = born.CollapsePolicy(args.policy)
    joint = born.joint_distribution(protocol, policy)
    if args.format == "json":
        coin = [float(a) for a in args.coin] if args.coin else list(DEFAULT_COIN_FLOATS)
        payload = {
            "coin_amplitudes": coin,
            "policy": policy.value,
            "joint": joint.to_json_obj(),
            "record_marginal": joint.marginal(("w1", "w2")).to_json_obj(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"joint outcome distribution (policy: {policy.value})")
    print(_joint_text(joint))
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import facts

    protocol = _protocol_from_args(args, parser)
    results = facts.run_all(protocol)
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "facts": [
                {
                    "id": r.fact_id,
                    "step": r.step_tag,
                    "description": r.description,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
            "all_passed": all_passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(r.render())
        print(f"{sum(r.passed for r in results)}/{len(results)} facts verified")
    return 0 if all_passed else 1


def _parse_history_spec(protocol: ExactProtocol, text: str) -> History:
    """Grammar: NAME ':' EVENT (',' EVENT)* with EVENT = VAR ['@' STAGE] '=' LABEL."""
    from . import histories
    from .exact import RECORDERS, StageId

    if ":" not in text:
        raise ValueError(f"history {text!r}: expected 'name: var=label, ...'")
    name, _, rest = text.partition(":")
    name = name.strip()
    if not name:
        raise ValueError("history definition needs a name before ':'")
    events = []
    for chunk in rest.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"history {name!r}: empty event")
        if "=" not in chunk:
            raise ValueError(f"history {name!r}: event {chunk!r} is not var[@STAGE]=label")
        lhs, _, label = chunk.partition("=")
        lhs, label = lhs.strip(), label.strip()
        stage = None
        if "@" in lhs:
            var, _, stage_name = lhs.partition("@")
            var = var.strip()
            try:
                stage = StageId[stage_name.strip()]
            except KeyError:
                raise ValueError(f"history {name!r}: unknown stage {stage_name.strip()!r}") from None
        else:
            var = lhs
        if var not in RECORDERS:
            raise ValueError(f"history {name!r}: unknown outcome variable {var!r}")
        events.append(histories.outcome_event(protocol, var, label, stage))
    return histories.History(name, histories.in_stage_order(events))


def _history_family(
    protocol: ExactProtocol, defines: list[str], parser: argparse.ArgumentParser
) -> tuple[list[History], ConsistencyReport]:
    """The family and its consistency report, which holds each P[h]; h1 and h1prime without `--define`."""
    from . import histories

    try:
        if defines:
            family = [_parse_history_spec(protocol, d) for d in defines]
        else:
            family = [histories.okok_fine_history(protocol), histories.okok_coarse_history(protocol)]
        return family, histories.chain_consistency_report(protocol, family)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2


def _histories_text(family: list[History], report: ConsistencyReport) -> str:
    """The family's probabilities and consistency report, as `histories` and `report` print them."""
    rows = [f"P[{h.describe()}] = {_with_exact(report.probability[h.name])}" for h in family]
    return "\n".join(rows + ["", report.render_text()])


def _cmd_histories(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .exact import probability_cell

    family, report = _history_family(_protocol_from_args(args, parser), args.define, parser)
    if args.format == "json":
        payload = {
            "histories": [
                {"name": h.name, "events": [e.label for e in h.events], **probability_cell(report.probability[h.name])}
                for h in family
            ],
            "consistency": {
                "union_stages": [s.name for s in report.union_stages],
                "additivity_defect": {k: float(v) for k, v in sorted(report.additivity_defect.items())},
                "pairs": [
                    {
                        "left": pv.left,
                        "right": pv.right,
                        "direct_offdiagonal": float(pv.direct_offdiagonal),
                        "cross_interference": float(pv.cross_interference),
                        "shared_fine_outcomes": pv.shared_fine_outcomes,
                        "consistent": pv.consistent,
                    }
                    for pv in report.pairs
                ],
                "consistent": report.consistent,
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(_histories_text(family, report))
    return 0


def _cmd_bellbohm(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import bellbohm
    from .exact import probability_cell

    protocol = _protocol_from_args(args, parser)
    table = bellbohm.exact_chain(protocol)
    ref_prob = table.probability_of(bellbohm.REFERENCE_TRAJECTORY)
    ref_line = " -> ".join(c.render() for c in bellbohm.REFERENCE_TRAJECTORY) + f"   p = {_with_exact(ref_prob)}"
    configs = [list(c) for c in bellbohm.REFERENCE_TRAJECTORY]
    reference = {"reference_trajectory": {"configs": configs, **probability_cell(ref_prob)}}
    if args.reference:
        if args.format == "json":
            print(json.dumps(reference, indent=2))
        else:
            print("reference ok/ok trajectory")
            print(ref_line)
        return 0
    if args.format == "json":
        payload = {
            "trajectories": [
                {"configs": [list(c) for c in t.key_sequence()], **probability_cell(t.probability)}
                for t in table.sorted_entries()
            ],
            "total_probability": float(table.total_probability),
            "final_record_marginal": {
                f"{w1},{w2}": float(p) for (w1, w2), p in sorted(table.final_record_marginal().items())
            },
            **reference,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"exact beable trajectories ({len(table.entries)} with positive probability)")
    for t in table.sorted_entries():
        print(f"  {t.render()}   p = {_with_exact(t.probability)}")
    print(f"total probability: {table.total_probability:.12g}")
    print()
    print("final (w1, w2) record marginal")
    for (w1, w2), p in sorted(table.final_record_marginal().items()):
        print(f"  ({w1}, {w2})  {_with_exact(p)}")
    print()
    print("reference ok/ok trajectory")
    print(ref_line)
    return 0


@_refusing
def _cmd_argue(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import epistemics

    protocol = _protocol_from_args(args, parser)
    if args.profile:
        try:
            with open(args.profile, "r", encoding="utf-8") as fh:
                profile = epistemics.parse_profile_file(fh.read())
        except OSError as exc:
            print(f"error: cannot read profile file: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: bad profile file: {exc}", file=sys.stderr)
            return 2
    else:
        name = args.interpretation.lower()
        if name not in epistemics.PROFILES:
            known = ", ".join(sorted(epistemics.PROFILES))
            print(f"error: unknown interpretation {args.interpretation!r} (known: {known})", file=sys.stderr)
            return 2
        profile = epistemics.PROFILES[name]
    verdict = epistemics.check(profile, protocol)
    if args.format == "json":
        payload = {
            "profile": profile.name,
            "flags": {a.value: profile.holds(a) for a in epistemics.PROFILE_ASSUMPTIONS},
            "contradiction": verdict.contradiction,
            "blocked_step": verdict.blocked_step,
            "missing": sorted(a.value for a in verdict.missing),
            "trace": [
                {"step": t.step_id, "fired": t.fired, "requires": t.requires,
                 "conclusion": t.conclusion if t.fired else None,
                 "missing": [a.value for a in t.missing]}
                for t in verdict.trace
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(verdict.render())
    return 0


@_refusing
def _cmd_audit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import epistemics

    report = epistemics.escape_rule_audit(_protocol_from_args(args, parser))
    if args.format == "json":
        payload = {
            "rows": [
                {
                    "profile": r.profile,
                    "escapes_by_rule": r.escapes_by_rule,
                    "verdict": "contradiction" if r.verdict.contradiction else "blocked",
                    "blocked_step": r.verdict.blocked_step,
                    "rule_matches_verdict": r.rule_matches_verdict,
                    "claims_escape": r.verdict.profile.claims_escape,
                    "discrepancy": r.discrepancy,
                }
                for r in report.rows
            ],
            "discrepancies": [r.profile for r in report.discrepancies],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(report.render())
    return 0


@_refusing
def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import bellbohm, born, epistemics, facts

    protocol = _protocol_from_args(args, parser)
    print("=" * 70)
    print("assumption tables")
    print("=" * 70)
    print(epistemics.render_tables())
    print("=" * 70)
    print("quantum fact verification")
    print("=" * 70)
    results = facts.run_all(protocol)
    for r in results:
        print(r.render())
    print()
    print("=" * 70)
    print("joint outcome distribution (both policies agree)")
    print("=" * 70)
    print(_joint_text(born.joint_distribution(protocol)))
    print()
    print("=" * 70)
    print("history probabilities")
    print("=" * 70)
    print(_histories_text(*_history_family(protocol, [], parser)))
    print()
    print("=" * 70)
    print("beable chain summary")
    print("=" * 70)
    table = bellbohm.exact_chain(protocol)
    ref = table.probability_of(bellbohm.REFERENCE_TRAJECTORY)
    print(f"trajectories with positive probability: {len(table.entries)}")
    print(f"total probability: {table.total_probability:.12g}")
    print(f"reference ok/ok trajectory probability: {_with_exact(ref)}")
    print()
    print("=" * 70)
    print("derivation verdicts")
    print("=" * 70)
    audit = epistemics.escape_rule_audit(protocol)
    for verdict in [r.verdict for r in audit.rows] + [epistemics.check(epistemics.PROFILES["all"], protocol)]:
        print(f"{verdict.profile.display_name:<22} {verdict.summary()}")
    print()
    print(audit.render())
    return 0 if all(r.passed for r in results) else 1


def _add_common(p: argparse.ArgumentParser, formats: bool = True) -> None:
    p.add_argument("--coin", type=_parse_coin, default=None, metavar="A,B",
                   help="initial coin amplitudes (default sqrt(1/3),sqrt(2/3))")
    if formats:  # only for handlers that read args.format
        p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--flip-ok-sign", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt-preparation", action="store_true", help=argparse.SUPPRESS)


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--policy", choices=POLICY_NAMES, default=POLICY_NAMES[0])


def _histories_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--define", action="append", default=[], metavar="SPEC",
                   help="history as 'name: var[@STAGE]=label, ...' (repeatable)")


def _bellbohm_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--reference", action="store_true",
                   help="print only the reference ok/ok trajectory and its probability")


def _argue_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--interpretation", metavar="NAME",
                       help="one of: " + ", ".join(PROFILE_NAMES))
    group.add_argument("--profile", metavar="FILE", help="profile file (name: line plus eight ID = check|cross lines)")


def _report_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p, formats=False)


#: Each subcommand: name, help line, handler, and what adds its arguments.
SUBCOMMANDS = (
    ("simulate", "joint outcome distribution and record marginal", _cmd_simulate, _simulate_arguments),
    ("verify", "check every anchored quantum fact, PASS/FAIL per line", _cmd_verify, _add_common),
    ("histories", "history probabilities and joint considerability", _cmd_histories, _histories_arguments),
    ("bellbohm", "exact beable trajectory table", _cmd_bellbohm, _bellbohm_arguments),
    ("argue", "run the twelve-step derivation under a profile", _cmd_argue, _argue_arguments),
    ("audit", "escape-rule audit over the catalogued profiles", _cmd_audit, _add_common),
    ("report", "everything above in one reproducible report", _cmd_report, _report_arguments),
)


class _Subcommand:
    """A subcommand's parser, built with its arguments only when argparse hands it the command line.

    `add_parser` makes one per subcommand, for the name and help line the
    top-level parser lists; a process parses with one of them, so only that
    one builds an `ArgumentParser` and adds its arguments.
    """

    def __init__(self, handler, add_arguments, **kwargs) -> None:
        self._handler = handler
        self._add_arguments = add_arguments
        self._kwargs = kwargs  # the prog add_parser set

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        self._add_arguments(parser)
        parser.set_defaults(func=self._handler)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewflab",
        description="Exact desk-scale laboratory for the nested two-lab thought experiment",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_line, handler, add_arguments in SUBCOMMANDS:
        sub.add_parser(name, help=help_line, handler=handler, add_arguments=add_arguments)
    return parser


def _join_coin_value(argv: list[str]) -> list[str]:
    """`--coin -1,0` as `--coin=-1,0`: argparse reads a separate '-1,0' as an option."""
    out: list[str] = []
    for arg in argv:
        if out[-1:] == ["--coin"] and arg.startswith("-") and "," in arg:  # no option has a comma
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_coin_value(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
    except BrokenPipeError:
        # the recipe in the `signal` docs: stdout now goes nowhere, so the
        # interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
