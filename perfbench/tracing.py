"""Spans around the calls into each kappacalc layer, recorded from outside.

`instrument(tracer)` wraps the public functions the CLI calls, in the
namespaces it calls them through, and restores every original on exit, so
untraced runs execute the unmodified program.  A span is
[name, start_ns, end_ns, parent index, op id]; spans stay in memory until
the run writes them out.  A layer's self time is its spans' durations
minus the parts their child spans cover.
"""

from __future__ import annotations

import contextlib
import time
import types
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.kappa_ns: list[int] = []
        self.parsed: list[object] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0, 0, parent, self.op])
        self.stack.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, name: str, start: int, end: int, parent: int) -> int:
        """Record a span timed elsewhere, e.g. inside a child process."""
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(args, result, self.spans[index])
            return result

        return traced

    def count_parsed(self) -> None:
        """Tree and table sizes of the problems parsed so far.

        Call between ops: the walk is the benchmark's own work and lies
        outside every span.
        """
        for problem in self.parsed:
            self._count_problem(problem)
        self.parsed.clear()

    def _count_problem(self, problem) -> None:
        c = self.counts
        if problem.lottery is not None:
            stack = [(problem.lottery, 0)]
            while stack:
                node, depth = stack.pop()
                branches = getattr(node, "branches", None)
                if branches is None:
                    c["build.leaves"] += 1
                    c["build.depth_max"] = max(c["build.depth_max"], depth)
                    continue
                c["build.nodes"] += 1
                stack.extend((child, depth + 1) for _, child in branches)
        if problem.decision is not None:
            c["build.states"] += len(problem.decision.states)
            c["build.acts"] += len(problem.decision.acts)

    def self_ms(self) -> dict[str, float]:
        own = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return {name: ns / 1e6 for name, ns in own.items()}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    from kappacalc import cli, decision, lottery, oom_bridge
    from kappacalc import problemfile as pf

    saved = []

    def patch(owner, attr, replacement):
        if hasattr(owner, attr):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def traced(owner, attr, name, on_result=None):
        if hasattr(owner, attr):
            patch(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))

    def count_decoded(args, _, __):
        tracer.counts["decode.bytes"] += len(args[0].encode("utf-8"))

    def keep_parsed(_, problem, __):
        tracer.parsed.append(problem)

    def count_kappa(_, k, span):
        tracer.kappa_ns.append(span[2] - span[1])
        if k != float("inf"):
            tracer.counts["kappa_of.k_sum"] += k

    json_shim = types.SimpleNamespace(**vars(pf.json))
    json_shim.loads = tracer.wrap("decode", pf.json.loads, count_decoded)
    patch(pf, "json", json_shim)
    traced(pf, "parse_problem", "build", keep_parsed)
    traced(pf, "validate_problem", "validate")
    traced(cli, "evaluate", "evaluate")
    traced(decision, "evaluate", "evaluate")
    traced(cli, "rank_acts", "rank.utility")
    traced(cli, "maximin_rank", "rank.maximin")
    traced(cli, "spohnian_from_prob", "bridge")
    traced(cli, "order_agreement", "bridge")
    traced(oom_bridge, "kappa_of", "kappa_of", count_kappa)
    for attr in ("format_simple", "format_value"):
        traced(cli, attr, "emit")
    for attr in ("dumps", "emit_simple_lottery", "emit_utility_value", "emit_ranking",
                 "emit_bridge", "emit_diagnostics"):
        traced(pf, attr, "emit")

    # Node.reduce recurses through the same attribute; only the outermost
    # call gets a span, so the original runs untouched underneath it.
    original_reduce = lottery.Node.reduce
    traced_reduce = tracer.wrap("reduce", original_reduce)

    def outer_reduce(node):
        lottery.Node.reduce = original_reduce
        try:
            return traced_reduce(node)
        finally:
            lottery.Node.reduce = outer_reduce

    patch(lottery.Node, "reduce", outer_reduce)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
