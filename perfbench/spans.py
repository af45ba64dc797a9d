"""Spans around calls into ewflab's modules, recorded from outside the package.

`install` replaces the public functions and methods listed in `_FUNCTIONS`
and `_METHODS` with wrappers that time each call.  Nothing in ewflab
changes: a function is replaced under every ewflab module name it is bound
to, so calls through `from .linalg import lifted_projector` are seen as well
as calls through `linalg.lifted_projector`.

Spans are aggregated as they close (call count, inclusive time, self time),
so memory stays flat however many calls a run makes.  A span's self time is
its duration minus the time of the spans it encloses.  A group (for example
`protocol.construct`) adds up the time of its outermost spans only, so nested
members are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: Bytes one StageUnitary.linear call reads and writes: a 324-amplitude
#: complex128 state in and one out.  Computed, not measured.
LINEAR_BYTES = 324 * 16 * 2


class Aggregate:
    """Per-name totals for one phase of a run (set-up or measured loop)."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.incl_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.group_ns: Counter[str] = Counter()
        self.extra: Counter[str] = Counter()

    def merge(self, data: dict) -> None:
        for field in ("calls", "incl_ns", "self_ns", "group_ns", "extra"):
            getattr(self, field).update(data.get(field, {}))

    def to_json(self) -> dict:
        return {f: dict(getattr(self, f)) for f in ("calls", "incl_ns", "self_ns", "group_ns", "extra")}


class Tracer:
    """Open-span stack plus the aggregate the closing spans add to."""

    def __init__(self) -> None:
        self.setup = Aggregate()
        self.run = Aggregate()
        self.current = self.setup
        self._stack: list[list] = []  # [name, group, child_ns]
        self._open: Counter[str] = Counter()  # names and groups currently open
        self._fact_pairs: set[tuple[int, str]] = set()
        self._protocols: list[object] = []  # keeps ids unique while pairs are counted

    def start_run(self) -> None:
        """Later spans count toward the measured loop, not set-up."""
        self.current = self.run

    def end_run(self) -> None:
        self.current = self.setup

    def call(self, name: str, fn, *args, group: str | None = None, **kwargs):
        frame = [name, group, 0]
        self._stack.append(frame)
        self._open[name] += 1
        outermost = group is not None and self._open[group] == 0
        if group is not None:
            self._open[group] += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - start
            self._stack.pop()
            self._open[name] -= 1
            agg = self.current
            agg.calls[name] += 1
            agg.incl_ns[name] += dur
            agg.self_ns[name] += dur - frame[2]
            if group is not None:
                self._open[group] -= 1
                if outermost:
                    agg.group_ns[group] += dur
            if self._stack:
                self._stack[-1][2] += dur

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def count(self, key: str, n: int = 1) -> None:
        self.current.extra[key] += n

    def fact_evaluated(self, protocol: object, fact: str) -> None:
        key = (id(protocol), fact)
        if key not in self._fact_pairs:
            self._fact_pairs.add(key)
            self._protocols.append(protocol)
            self.count("facts.pairs")
        self.count("facts.evals")


def _wrap(tracer: Tracer, name, fn, group=None, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name(args, kwargs) if callable(name) else name
        if before is not None:
            before(tracer, args, kwargs)
        result = tracer.call(span, fn, *args, group=group, **kwargs)
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


def _joint_span(args, kwargs) -> str:
    from ewflab import born

    policy = kwargs.get("policy", args[1] if len(args) > 1 else born.CollapsePolicy.SEQUENTIAL_PROJECTION)
    return f"born.joint_distribution.{policy.value}"


def _count_vectors(tracer: Tracer, projector) -> None:
    tracer.count("linalg.lifted_projector.vectors", projector.rank)


def _count_in_report(tracer: Tracer, args, kwargs) -> None:
    if tracer.is_open("histories.chain_consistency_report"):
        tracer.count("histories.chain_vector.in_report")


def _fact_wrapper(tracer: Tracer, fn):
    def before(t: Tracer, args, kwargs) -> None:
        t.fact_evaluated(args[0], fn.__name__)

    return _wrap(tracer, "facts.fact", fn, before=before)


# (module, function name, span name, group, before-hook, after-hook)
_FUNCTIONS = (
    ("linalg", "rational_label", "linalg.rational_label", None, None, None),
    ("linalg", "lifted_projector", "linalg.lifted_projector", None, None, _count_vectors),
    ("born", "joint_distribution", _joint_span, None, None, None),
    ("histories", "history", "histories.history", "histories.build", None, None),
    ("histories", "outcome_event", "histories.outcome_event", "histories.build", None, None),
    ("histories", "okok_fine_history", "histories.okok_fine_history", "histories.build", None, None),
    ("histories", "okok_coarse_history", "histories.okok_coarse_history", "histories.build", None, None),
    ("histories", "history_probability", "histories.history_probability", None, None, None),
    ("histories", "chain_vector", "histories.chain_vector", None, _count_in_report, None),
    ("histories", "chain_consistency_report", "histories.chain_consistency_report", None, None, None),
    ("bellbohm", "exact_chain", "bellbohm.exact_chain", None, None, None),
    ("bellbohm", "config_weights", "bellbohm.config_weights", None, None, None),
    ("facts", "run_all", "facts.run_all", None, None, None),
    ("facts", "run_facts", "facts.run_facts", None, None, None),
    ("epistemics", "check", "epistemics.check", None, None, None),
    ("epistemics", "escape_rule_audit", "epistemics.escape_rule_audit", None, None, None),
)

# (class, method name, span name, group)
_METHODS = (
    ("Protocol", "__init__", "protocol.init", "protocol.construct"),
    # apply runs only while the pilot state is evolved (pilot_state_after on
    # a cache miss); linear is the raw map that history chains use
    ("StageUnitary", "apply", "protocol.StageUnitary.apply", "protocol.construct"),
    ("Protocol", "record_projector", "protocol.record_projector", None),
    ("StageUnitary", "linear", "protocol.StageUnitary.linear", None),
)


def install(tracer: Tracer) -> None:
    """Wrap ewflab's public entry points for the rest of the process.

    Raises RuntimeError naming every target ewflab no longer has, so that a
    renamed or removed function fails the traced run instead of reading 0.
    """
    import ewflab
    from ewflab import facts, protocol

    missing = [f"{module}.{fname}" for module, fname, *_ in _FUNCTIONS
               if not callable(getattr(getattr(ewflab, module), fname, None))]
    missing += [f"protocol.{cls}.{meth}" for cls, meth, *_ in _METHODS
                if meth not in getattr(getattr(protocol, cls, None), "__dict__", {})]
    cached = getattr(getattr(protocol, "Protocol", None), "__dict__", {}).get("stage_unitaries")
    if not isinstance(cached, functools.cached_property):
        missing.append("protocol.Protocol.stage_unitaries (a cached_property)")
    missing += [f"facts.{table}" for table in ("ALL_FACTS", "GROUNDING_FACTS") if not hasattr(facts, table)]
    if missing:
        raise RuntimeError("cannot trace, ewflab has no " + ", ".join(missing))

    modules = [m for n, m in sorted(sys.modules.items()) if n == "ewflab" or n.startswith("ewflab.")]
    for module, fname, span, group, before, after in _FUNCTIONS:
        original = getattr(getattr(ewflab, module), fname)
        wrapper = _wrap(tracer, span, original, group, before, after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    for cls_name, meth, span, group in _METHODS:
        cls = getattr(protocol, cls_name)
        setattr(cls, meth, _wrap(tracer, span, cls.__dict__[meth], group))

    # stage_unitaries is a cached_property: wrap the function it caches.
    cached.func = _wrap(tracer, "protocol.stage_unitaries", cached.func, "protocol.construct")

    # Facts run from tables bound at import; wrap each table entry.
    wrapped = {f: _fact_wrapper(tracer, f) for f in facts.ALL_FACTS + tuple(facts.GROUNDING_FACTS.values())}
    facts.ALL_FACTS = tuple(wrapped[f] for f in facts.ALL_FACTS)
    facts.GROUNDING_FACTS = {k: wrapped[f] for k, f in facts.GROUNDING_FACTS.items()}


def per_layer_metrics(run: Aggregate, setup: Aggregate, ops: int, imports: dict[str, float]) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced run.

    Times and counts are per workload operation (CLI invocation, sweep item
    or query) of the measured loop, so runs of different lengths compare.
    `protocol.construct_ms` is per Protocol built and
    `facts.fact_evals_per_protocol` is per (Protocol, fact) pair, both over
    the whole run with set-up, because the warm workloads build their
    Protocol during set-up.
    """
    ms = 1e-6
    per = 1.0 / max(ops, 1)
    calls, incl, self_ns, group, extra = run.calls, run.incl_ns, run.self_ns, run.group_ns, run.extra
    built = calls["protocol.init"] + setup.calls["protocol.init"]
    construct_ns = group["protocol.construct"] + setup.group_ns["protocol.construct"]
    evals = extra["facts.evals"] + setup.extra["facts.evals"]
    pairs = extra["facts.pairs"] + setup.extra["facts.pairs"]
    reports = calls["histories.chain_consistency_report"]
    return {
        "import.python_ms": (imports["python"], "ms"),
        "import.numpy_ms": (imports["numpy"], "ms"),
        "import.ewflab_ms": (imports["ewflab"], "ms"),
        "cli.main.self_ms": (self_ns["cli.main"] * ms * per, "ms/op"),
        "linalg.rational_label.calls": (calls["linalg.rational_label"] * per, "calls/op"),
        "linalg.rational_label.ms": (incl["linalg.rational_label"] * ms * per, "ms/op"),
        "protocol.construct_ms": (construct_ns * ms / built if built else 0.0, "ms/protocol"),
        "protocol.constructed": (calls["protocol.init"] * per, "count/op"),
        "protocol.record_projector.calls": (calls["protocol.record_projector"] * per, "calls/op"),
        "protocol.record_projector.ms": (incl["protocol.record_projector"] * ms * per, "ms/op"),
        "linalg.lifted_projector.calls": (calls["linalg.lifted_projector"] * per, "calls/op"),
        "linalg.lifted_projector.ms": (incl["linalg.lifted_projector"] * ms * per, "ms/op"),
        "linalg.lifted_projector.vectors": (extra["linalg.lifted_projector.vectors"] * per, "vectors/op"),
        "protocol.StageUnitary.linear.calls": (calls["protocol.StageUnitary.linear"] * per, "calls/op"),
        "protocol.StageUnitary.linear.bytes": (
            calls["protocol.StageUnitary.linear"] * LINEAR_BYTES * per, "B/op"),
        "born.joint_distribution.collapse_ms": (incl["born.joint_distribution.collapse"] * ms * per, "ms/op"),
        "born.joint_distribution.marginal_ms": (incl["born.joint_distribution.marginal"] * ms * per, "ms/op"),
        "histories.build_ms": (group["histories.build"] * ms * per, "ms/op"),
        "histories.history_probability.ms": (incl["histories.history_probability"] * ms * per, "ms/op"),
        "histories.chain_consistency_report.calls": (reports * per, "calls/op"),
        "histories.chain_consistency_report.ms": (incl["histories.chain_consistency_report"] * ms * per, "ms/op"),
        "histories.chain_vector.calls_per_report": (
            extra["histories.chain_vector.in_report"] / reports if reports else 0.0, "calls/report"),
        "bellbohm.exact_chain.ms": (incl["bellbohm.exact_chain"] * ms * per, "ms/op"),
        "bellbohm.config_weights.calls": (calls["bellbohm.config_weights"] * per, "calls/op"),
        "facts.run_all.ms": (incl["facts.run_all"] * ms * per, "ms/op"),
        "facts.run_facts.ms": (incl["facts.run_facts"] * ms * per, "ms/op"),
        "facts.fact_evals": (extra["facts.evals"] * per, "evals/op"),
        "facts.fact_evals_per_protocol": (evals / pairs if pairs else 0.0, "evals/pair"),
        "epistemics.check.calls": (calls["epistemics.check"] * per, "calls/op"),
        "epistemics.check.self_ms": (self_ns["epistemics.check"] * ms * per, "ms/op"),
        "epistemics.escape_rule_audit.ms": (incl["epistemics.escape_rule_audit"] * ms * per, "ms/op"),
    }
