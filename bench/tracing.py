"""Layer tracing from outside the package, plus per-operation microbenchmarks.

``Tracer.install`` wraps the public entry points of each package module in
this process only, by rebinding every module attribute (and every strategy
class's ``act``) that refers to them; ``uninstall`` puts the originals back.
Each wrapped call becomes a span at a layer boundary: name, start, end and
the enclosing span.  Spans stay in memory until ``write_spans``.

Two hot leaf functions, ``fmt_g`` and ``value_bound``, are called millions
of times by ``value-grid``; for them only a call count and the summed time
are kept, and that time is still charged to the enclosing span as child
time.  A span directly nested in a span of the same name (a strategy that
delegates to another strategy, ``run_suite`` calling the suite it names)
is folded into the outer one, so calls count entries into a layer.

Times are integer nanoseconds, so a parent's self time (its duration minus
its children's) is exact and never negative.
"""

from __future__ import annotations

import itertools
import statistics
import timeit
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name, leaf?)
FUNCTIONS = (
    ("core", "fmt_g", "core.fmt_g", True),
    ("value", "value_bound", "value.value_bound", True),
    ("engine", "simulate", "engine.simulate", False),
    ("engine", "exact_expected_payoff", "engine.expectations", False),
    ("engine", "enumerate_branch_payoffs", "engine.expectations", False),
    ("engine", "sampled_expected_payoff", "engine.expectations", False),
    ("engine", "mc_expected_payoff", "engine.expectations", False),
    ("engine", "write_trajectory_csv", "engine.trajectory_csv", False),
    ("strategies", "trial_rng", "verify.adversary_gen", False),
    ("strategies", "theta_stream", "verify.adversary_gen", False),
    ("verify", "random_piecewise_evader", "verify.adversary_gen", False),
    ("verify", "run_suite", "verify.suite", False),
    ("verify", "pursuer_guarantee_check", "verify.suite", False),
    ("verify", "evader_guarantee_check", "verify.suite", False),
    ("verify", "capture_time_bound_check", "verify.suite", False),
    ("verify", "jensen_bound_check", "verify.suite", False),
    ("verify", "jensen_random_sweep", "verify.suite", False),
    ("verify", "oracle_agreement_check", "verify.suite", False),
    ("cli", "cmd_value_grid", "cli.value_grid", False),
)
MODULES = ("core", "value", "strategies", "engine", "verify", "cli")
ACT_SPANS = {"PursuerAction": "strategies.pursuer_act", "EvaderAction": "strategies.evader_act"}

SPAN_NAMES = sorted({span for _, _, span, _ in FUNCTIONS} | set(ACT_SPANS.values()))


class _Frame:
    __slots__ = ("span_id", "name", "child_ns")

    def __init__(self, span_id, name):
        self.span_id = span_id
        self.name = name
        self.child_ns = 0


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start_ns, end_ns, self_ns)
        self.calls = Counter()
        self.self_ns = Counter()
        self.child_calls = Counter()  # (parent name, child name) -> calls
        self.segments = 0
        self._ids = itertools.count()
        self._stack = []
        self._saved = []

    def _span(self, name, fn):
        tracer, stack, ids = self, self._stack, self._ids

        def wrapper(*args, **kwargs):
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = _Frame(next(ids), name)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._close(frame, parent, start, end)
            if name == "engine.simulate":
                tracer.segments += len(result.pursuer_trajectory.segments)
            return result

        return wrapper

    def _close(self, frame, parent, start, end):
        own = end - start - frame.child_ns
        self.spans.append((frame.span_id, parent.span_id if parent else None,
                           frame.name, start, end, own))
        self.calls[frame.name] += 1
        self.self_ns[frame.name] += own
        if parent is not None:
            parent.child_ns += end - start
            self.child_calls[parent.name, frame.name] += 1

    def _leaf(self, name, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - start
            calls[name] += 1
            self_ns[name] += elapsed
            if stack:
                stack[-1].child_ns += elapsed
            return result

        return wrapper

    def install(self, ip) -> None:
        """Wrap the package's entry points; every binding of each is replaced."""
        modules = [getattr(ip, name) for name in MODULES] + [ip]
        for module_name, attr, span, leaf in FUNCTIONS:
            original = getattr(getattr(ip, module_name), attr)
            wrapped = (self._leaf if leaf else self._span)(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapped)
        for module in (ip.strategies, ip.verify):
            for cls in list(vars(module).values()):
                if not (isinstance(cls, type) and cls.__module__ == module.__name__
                        and "act" in vars(cls)):
                    continue
                act = vars(cls)["act"]
                returns = act.__annotations__.get("return")
                if returns not in ACT_SPANS:
                    raise TypeError(f"{cls.__name__}.act returns {returns!r}, "
                                    f"expected one of {sorted(ACT_SPANS)}")
                self._saved.append((cls, "act", act))
                setattr(cls, "act", self._span(ACT_SPANS[returns], act))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def check_nesting(self) -> list[str]:
        """Problems with span nesting; empty when every child fits its parent."""
        problems = []
        by_id = {span[0]: span for span in self.spans}
        if len(by_id) != len(self.spans):
            problems.append("span ids are not unique")
        for span_id, parent_id, name, start, end, own in self.spans:
            if own < 0:
                problems.append(f"span {span_id} ({name}) has self time {own} ns")
            if parent_id is None:
                continue
            parent = by_id.get(parent_id)
            if parent is None:
                problems.append(f"span {span_id} ({name}) has no parent span {parent_id}")
            elif not (parent[3] <= start <= end <= parent[4]):
                problems.append(f"span {span_id} ({name}) lies outside its parent {parent[2]}")
        return problems

    def layer_metrics(self) -> dict:
        """Calls and self seconds of every layer in this pass, plus ratios."""
        calls, self_ns = self.calls, self.self_ns
        figures = {}
        for name in SPAN_NAMES:
            figures[f"{name}.calls"] = calls[name]
            figures[f"{name}.self_s"] = self_ns[name] / 1e9
        sims, segments = calls["engine.simulate"], self.segments
        expectations = calls["engine.expectations"]
        figures["engine.segments"] = segments
        figures["engine.segments_per_game"] = segments / sims if sims else 0.0
        figures["engine.self_us_per_segment"] = (
            self_ns["engine.simulate"] / 1e3 / segments if segments else 0.0)
        figures["engine.sims_per_expectation"] = (
            self.child_calls["engine.expectations", "engine.simulate"] / expectations
            if expectations else 0.0)
        return figures

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("span_id,parent_id,name,start_ns,end_ns,self_ns\n")
            for span_id, parent_id, name, start, end, own in self.spans:
                parent = "" if parent_id is None else parent_id
                handle.write(f"{span_id},{parent},{name},{start},{end},{own}\n")


def _per_call_ns(stmt, number: int, repeat: int = 7) -> float:
    """Median over ``repeat`` timings of ``number`` calls, in ns per call."""
    times = timeit.repeat(stmt, number=number, repeat=repeat)
    return statistics.median(times) / number * 1e9


def microbenchmarks(ip, scale: float = 1.0) -> dict:
    """Cost of single operations the ROADMAP names as layer costs."""
    a, b = ip.Vec2(0.3, -1.2), ip.Vec2(2.5, 0.75)
    p_seg = ip.Segment(0.0, 2.0, ip.Vec2(0.0, 0.0), ip.Vec2(1.0, 0.0))
    e_seg = ip.Segment(0.0, 2.0, ip.Vec2(1.0, 0.2), ip.Vec2(0.0, 0.7))
    phi = ip.PayoffSpec("hinge", 0.1)
    # One state per case tag, so the mean covers every branch of value_bound.
    states = [(1.0, 5.0, 2), (2.0, 1.0, 2), (1.0, 50.0, 6), (0.13, 1.0, 0),
              (1.0, 2.0, 0), (0.16, 2.0, 0), (2.0, 1.0, 0)]
    value_bound, fmt_g, detect_capture = ip.value_bound, ip.fmt_g, ip.detect_capture

    def bounds():
        for rho, tau, ell in states:
            value_bound(rho, tau, ell, phi, 0.7)

    return {
        "core.vec2_add_ns": _per_call_ns(lambda: a + b, max(1, int(20000 * scale))),
        "engine.detect_capture_ns":
            _per_call_ns(lambda: detect_capture(p_seg, e_seg, 0.1), max(1, int(3000 * scale))),
        "value.value_bound_ns":
            _per_call_ns(bounds, max(1, int(1500 * scale))) / len(states),
        "core.fmt_g_ns": _per_call_ns(lambda: fmt_g(0.123456789123), max(1, int(40000 * scale))),
    }
