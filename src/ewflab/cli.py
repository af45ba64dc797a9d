"""Command-line front end.

Subcommands: simulate, verify, histories, bellbohm, argue, audit, report.
Exit codes: 0 success / all checks pass, 1 verification failure or stdout
closed early (a broken pipe), 2 usage error.  Output is deterministic:
identical invocations print identical bytes.

Only what building the parser needs is imported here; each subcommand
imports the modules it runs, so a process loads no more than it uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import born
from .linalg import rational_label
from .protocol import RECORDERS, Protocol, StageId

if TYPE_CHECKING:
    from .histories import History

#: `sorted(epistemics.PROFILES)`, spelled out so that building the parser
#: does not import epistemics (a test keeps the two equal).
PROFILE_NAMES = ("all", "bell-bohm", "collapse", "consistent-histories", "copenhagen", "many-worlds",
                 "qbism", "relative-state")


def _parse_coin(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated amplitudes, e.g. 0.6,0.8")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse amplitudes from {text!r}") from None


def _with_exact(p: float) -> str:
    """A probability as 12 significant digits plus its exact label, if any."""
    exact = rational_label(p)
    return f"{p:.12g}" + (f" ({exact})" if exact else "")


def _protocol_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Protocol:
    coin = getattr(args, "coin", None)
    flip = bool(getattr(args, "flip_ok_sign", False))
    corrupt = bool(getattr(args, "corrupt_preparation", False))
    try:
        return Protocol(coin, flip_ok_sign=flip, corrupt_preparation=corrupt)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
        raise AssertionError("unreachable")


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    protocol = _protocol_from_args(args, parser)
    policy = born.CollapsePolicy(args.policy)
    joint = born.joint_distribution(protocol, policy)
    marginal = joint.marginal(("w1", "w2"))
    if args.format == "json":
        payload = {
            "coin_amplitudes": [protocol.coin_amplitudes[0].real, protocol.coin_amplitudes[1].real],
            "policy": policy.value,
            "joint": joint.to_json_obj(),
            "record_marginal": marginal.to_json_obj(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"joint outcome distribution (policy: {policy.value})")
    print(joint.render_text())
    print()
    print("(w1, w2) marginal")
    print(marginal.render_text())
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


def _parse_history_spec(protocol: Protocol, text: str) -> History:
    """Grammar: NAME ':' EVENT (',' EVENT)* with EVENT = VAR ['@' STAGE] '=' LABEL."""
    from . import histories

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
    events.sort(key=lambda e: e.stage.value)
    return histories.History(name, tuple(events))


def _cmd_histories(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import histories

    protocol = _protocol_from_args(args, parser)
    if args.define:
        try:
            family = [_parse_history_spec(protocol, d) for d in args.define]
        except ValueError as exc:
            parser.error(str(exc))
        names = [h.name for h in family]
        if len(set(names)) != len(names):
            dups = sorted({n for n in names if names.count(n) > 1})
            parser.error(f"family members need distinct names (repeated: {', '.join(dups)})")
    else:
        family = [histories.okok_fine_history(protocol), histories.okok_coarse_history(protocol)]
    rows = [(h, histories.history_probability(protocol, h)) for h in family]
    try:
        report = histories.chain_consistency_report(protocol, family)
    except histories.EpochMismatchError as exc:
        parser.error(str(exc))
    if args.format == "json":
        payload = {
            "histories": [
                {
                    "name": h.name,
                    "events": [e.label for e in h.events],
                    "probability": p,
                    "exact": rational_label(p),
                }
                for h, p in rows
            ],
            "consistency": {
                "union_stages": [s.name for s in report.union_stages],
                "additivity_defect": {k: v for k, v in sorted(report.additivity_defect.items())},
                "pairs": [
                    {
                        "left": pv.left,
                        "right": pv.right,
                        "direct_offdiagonal": pv.direct_offdiagonal,
                        "cross_interference": pv.cross_interference,
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
    for h, p in rows:
        print(f"P[{h.describe()}] = {_with_exact(p)}")
    print()
    print(report.render_text())
    return 0


def _cmd_bellbohm(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import bellbohm

    protocol = _protocol_from_args(args, parser)
    table = bellbohm.exact_chain(protocol)
    ref_prob = table.probability_of(bellbohm.REFERENCE_TRAJECTORY)
    ref_line = " -> ".join(c.render() for c in bellbohm.REFERENCE_TRAJECTORY) + f"   p = {_with_exact(ref_prob)}"
    if args.reference:
        print("reference ok/ok trajectory")
        print(ref_line)
        return 0
    if args.format == "json":
        payload = {
            "trajectories": [
                {
                    "configs": [list(c) for c in t.key_sequence()],
                    "probability": t.probability,
                    "exact": rational_label(t.probability),
                }
                for t in table.sorted_entries()
            ],
            "total_probability": table.total_probability,
            "final_record_marginal": {
                f"{w1},{w2}": p for (w1, w2), p in sorted(table.final_record_marginal().items())
            },
            "reference_trajectory": {
                "configs": [list(c) for c in bellbohm.REFERENCE_TRAJECTORY],
                "probability": ref_prob,
                "exact": rational_label(ref_prob),
            },
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
    try:
        verdict = epistemics.check(profile, protocol)
    except epistemics.QuantumFactError as exc:
        print(f"refusing to derive: {exc}", file=sys.stderr)
        return 1
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


def _cmd_audit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import epistemics

    protocol = _protocol_from_args(args, parser)
    try:
        report = epistemics.escape_rule_audit(protocol)
    except epistemics.QuantumFactError as exc:
        print(f"refusing to derive: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = {
            "rows": [
                {
                    "profile": r.profile,
                    "escapes_by_rule": r.escapes_by_rule,
                    "verdict": "blocked" if r.verdict_blocked else "contradiction",
                    "blocked_step": r.blocked_step,
                    "rule_matches_verdict": r.rule_matches_verdict,
                    "claims_escape": r.claims_escape,
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


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import bellbohm, epistemics, facts, histories

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
    joint = born.joint_distribution(protocol)
    print(joint.render_text())
    print()
    print("(w1, w2) marginal")
    print(joint.marginal(("w1", "w2")).render_text())
    print()
    print("=" * 70)
    print("history probabilities")
    print("=" * 70)
    h1 = histories.okok_fine_history(protocol)
    h1p = histories.okok_coarse_history(protocol)
    for h in (h1, h1p):
        print(f"P[{h.describe()}] = {_with_exact(histories.history_probability(protocol, h))}")
    print()
    print(histories.chain_consistency_report(protocol, [h1, h1p]).render_text())
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
    try:
        verdicts = [epistemics.check(epistemics.PROFILES[name], protocol)
                    for name in list(epistemics.TABLE_PROFILES) + ["all"]]
        audit = epistemics.escape_rule_audit(protocol)
    except epistemics.QuantumFactError as exc:
        print(f"refusing to derive: {exc}", file=sys.stderr)
        return 1
    for verdict in verdicts:
        if verdict.contradiction:
            print(f"{verdict.profile.display_name:<22} ContradictionDerived")
        else:
            missing = ", ".join(sorted(a.value for a in verdict.missing))
            print(f"{verdict.profile.display_name:<22} BlockedAt {verdict.blocked_step} (missing {missing})")
    print()
    print(audit.render())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewflab",
        description="Exact desk-scale laboratory for the nested two-lab thought experiment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: bool = True) -> None:
        p.add_argument("--coin", type=_parse_coin, default=None, metavar="A,B",
                       help="initial coin amplitudes (default sqrt(1/3),sqrt(2/3))")
        if formats:  # only for handlers that read args.format
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--flip-ok-sign", action="store_true", help=argparse.SUPPRESS)
        p.add_argument("--corrupt-preparation", action="store_true", help=argparse.SUPPRESS)

    p_sim = sub.add_parser("simulate", help="joint outcome distribution and record marginal")
    add_common(p_sim)
    p_sim.add_argument("--policy", choices=[p.value for p in born.CollapsePolicy],
                       default=born.CollapsePolicy.SEQUENTIAL_PROJECTION.value)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="check every anchored quantum fact, PASS/FAIL per line")
    add_common(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_his = sub.add_parser("histories", help="history probabilities and joint considerability")
    add_common(p_his)
    p_his.add_argument("--define", action="append", default=[], metavar="SPEC",
                       help="history as 'name: var[@STAGE]=label, ...' (repeatable)")
    p_his.set_defaults(func=_cmd_histories)

    p_bb = sub.add_parser("bellbohm", help="exact beable trajectory table")
    add_common(p_bb)
    p_bb.add_argument("--reference", action="store_true",
                      help="print only the reference ok/ok trajectory and its probability")
    p_bb.set_defaults(func=_cmd_bellbohm)

    p_arg = sub.add_parser("argue", help="run the twelve-step derivation under a profile")
    add_common(p_arg)
    group = p_arg.add_mutually_exclusive_group(required=True)
    group.add_argument("--interpretation", metavar="NAME",
                       help="one of: " + ", ".join(PROFILE_NAMES))
    group.add_argument("--profile", metavar="FILE", help="profile file (name: line plus eight ID = check|cross lines)")
    p_arg.set_defaults(func=_cmd_argue)

    p_aud = sub.add_parser("audit", help="escape-rule audit over the catalogued profiles")
    add_common(p_aud)
    p_aud.set_defaults(func=_cmd_audit)

    p_rep = sub.add_parser("report", help="everything above in one reproducible report")
    add_common(p_rep, formats=False)
    p_rep.set_defaults(func=_cmd_report)
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
