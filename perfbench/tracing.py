"""Spans around the calls one corec module makes into another.

The tracer replaces module attributes with timing wrappers for the length
of the traced phase and puts the originals back afterwards, so the package
itself is unchanged.  Wrapping `corec.cli.solve` intercepts the CLI's calls
into the solver; wrapping `corec.solver.minimize` intercepts the solver's
calls into the rational-tree layer; and so on.  Spans are kept in memory
and written once when the run ends.

Each span is [name, start, end, parent index, op id, counts].  A layer's
self time is its span minus the spans directly inside it; the per-op sum of
self times therefore equals the op's own span, with the tracer's counting
work booked to `bench.count` spans.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

from gen import sweep_space


def _count_nodes(tree) -> int:
    """Distinct nodes of a finite-tree dag, by object identity."""
    seen = {id(tree)}
    stack = [tree]
    while stack:
        node = stack.pop()
        for c in getattr(node, "children", ()):
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)
    return len(seen)


def _sweep_counts(cia: bool):
    def count(args, result):
        algebra, max_vars = args[0], args[1]
        if not result.holds:
            # A failing sweep covers every count below the witness's, and part of its own.
            max_vars = len(result.witness.variables) - 1
        arities = [a for _, a in algebra.signature.symbols]
        return {"space": sweep_space(arities, len(algebra.carrier), max_vars, cia)}
    return count


# (module, attribute, span name, counter of (args, result) -> dict)
CLI_CALLS = [
    ("parse_ceq_with_root", "cli.parse", None),
    ("parse_pres", "cli.parse", None),
    ("parse_falg", "cli.parse", None),
    ("solve", "solver.solve", lambda a, r: {"out_states": sum(len(t.steps) for t in r.values())}),
    ("fold_constants", "solver.decompose", None),
    ("classify", "solver.decompose", None),
    ("solve_decomposed", "solver.decompose", None),
    ("bisim_equal", "rtree.bisim_equal", None),
    ("rtree_equiv_upto", "presentation.equiv_upto", None),
    ("quotient_classes", "presentation.kernel", lambda a, r: {"terms": sum(len(c) for c in r)}),
    ("reduce_presentation", "presentation.kernel", None),
    ("is_cia", "checker.sweep", _sweep_counts(True)),
    ("is_corecursive", "checker.sweep", _sweep_counts(False)),
    ("emit_solution", "cli.emit", lambda a, r: {"out_bytes": len(r.encode())}),
    ("emit_decomposed", "cli.emit", lambda a, r: {"out_bytes": len(r.encode())}),
    ("emit_classification", "cli.emit", lambda a, r: {"out_bytes": len(r.encode())}),
    ("emit_check", "cli.emit", lambda a, r: {"out_bytes": len(r.encode())}),
    ("emit_verdict3", "cli.emit", lambda a, r: {"out_bytes": len(r.encode())}),
    ("emit_witness", "cli.emit", lambda a, r: {"out_bytes": len(r.encode())}),
    ("format_pres", "cli.emit", lambda a, r: {"out_bytes": len(r.encode())}),
]
INNER_CALLS = [
    ("solver", "minimize", "rtree.minimize",
     lambda a, r: {"in_states": len(a[0].steps), "out_states": len(r.steps)}),
    ("presentation", "cut", "rtree.cut", lambda a, r: {"nodes": _count_nodes(r)}),
    ("presentation", "tree_equiv_bounded", "presentation.tree_equiv",
     lambda a, r: {"spent": r.budget_used or 0, "decided": int(not r.is_unknown)}),
]

ROOT = "cli.main"  # the op itself: argument parsing, file reads, dispatch
COUNT = "bench.count"  # the tracer reading counts off arguments and results


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op_id = -1

    def install(self, corec) -> None:
        """Wrap every listed call; `corec` is the imported package."""
        for attr, name, count in CLI_CALLS:
            self._wrap(corec.cli, attr, name, count)
        for module, attr, name, count in INNER_CALLS:
            self._wrap(getattr(corec, module), attr, name, count)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, module, attr: str, name: str, count) -> None:
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span = [name, 0.0, 0.0, parent, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                t = perf_counter()
                span[5] = count(args, result)
                spans.append([COUNT, t, perf_counter(), parent, self.op_id, None])
            return result

        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def begin_op(self, op_id: int) -> list:
        self.op_id = op_id
        span = [ROOT, 0.0, 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end_op(self) -> None:
        self._stack.pop()

    def write(self, path: str, op_names: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"ops": op_names, "fields": ["name", "start", "end", "parent", "op", "counts"],
                       "spans": self.spans}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of the spans directly inside it."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_table(spans: list[list]) -> tuple[dict, float]:
    """Per-layer totals over the traced ops.

    Returns ({layer: {"self_s", "calls", <count>: total}}, the largest gap
    between an op's span and the sum of self times of all its spans).
    """
    own = self_times(spans)
    layers: dict[str, dict] = {}
    per_op: dict[int, float] = {}
    root_time: dict[int, float] = {}
    for s, t in zip(spans, own):
        row = layers.setdefault(s[0], {"self_s": 0.0, "calls": 0})
        row["self_s"] += t
        row["calls"] += 1
        for k, v in (s[5] or {}).items():
            row[k] = row.get(k, 0) + v
        per_op[s[4]] = per_op.get(s[4], 0.0) + t
        if s[0] == ROOT:
            root_time[s[4]] = s[2] - s[1]
    gap = max((abs(per_op[k] - root_time[k]) for k in root_time), default=0.0)
    return layers, gap


def nested(spans: list[list]) -> bool:
    """Whether every span lies inside its parent and belongs to the parent's op."""
    for s in spans:
        if s[3] >= 0:
            p = spans[s[3]]
            if not (p[1] <= s[1] <= s[2] <= p[2] and p[4] == s[4]):
                return False
    return True
