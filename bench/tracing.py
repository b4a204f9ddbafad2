"""In-memory spans for the traced run, and the per-layer metrics built from them.

A span records a name, a start, an end, the index of its parent span and
an op id.  Spans are opened around the benchmark's own calls into sclkit
and, while ``rebound`` is active, around calls that one sclkit function
makes to another (``sclkit.inverse.tsd``, ``sclkit.models.eval_tree``,
``sclkit.normalize.nf`` and so on).  A function's calls to itself never go
through a span.  Self time is a span's duration minus the time its child
spans cover.

Each workload has one op function that makes its layer calls through a
tracer: a ``Tracer`` in traced passes, ``PASSTHROUGH`` in plain ones.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from sclkit import Leaf, TreeTooLarge


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, op)
        self.counts: Counter = Counter()
        self.kept: list = []  # (kind, object) returned by layers in the current op
        self._stack: list[int] = []
        self._op: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except TreeTooLarge:
            if name.startswith("trees."):  # where the cap is hit, not every enclosing span
                self.counts["trees.cap_hits"] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    def op(self, op_id: int, kind: str, fn, *args):
        """Run one operation as a root span; returns (result, seconds)."""
        self._op = op_id
        index = len(self.spans)
        try:
            result = self.call(f"op.{kind}", fn, *args)
        finally:
            self._op = None
        _, start, end, _, _ = self.spans[index]
        return result, end - start

    def binding(self, module, name: str, span: str, on_result=None):
        """A ``(module, name, value)`` for ``rebound`` that runs each call of
        ``module.name`` inside a span called ``span``; ``on_result(result,
        args)`` runs after the span closes.  While a call runs, ``module.name``
        is the original again, so the function's calls to itself, which look
        the name up in its own module, are never wrapped."""
        fn = getattr(module, name)

        def traced(*args, **kwargs):
            setattr(module, name, fn)
            try:
                result = self.call(span, fn, *args, **kwargs)
            finally:
                setattr(module, name, traced)
            if on_result is not None:
                on_result(result, args)
            return result

        return module, name, traced

    def keep(self, kind: str, obj) -> None:
        """Hold a layer's output until the op ends, to be counted untimed."""
        self.kept.append((kind, obj))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def count_kept(self) -> None:
        """Count what the layers returned during the op just ended; untimed."""
        kept, self.kept = self.kept, []
        c = self.counts
        for kind, obj in kept:
            if kind == "tree":
                trees = [obj]
            elif kind == "decomposition":
                trees = [obj.context, obj.core] if obj is not None else []
            elif kind == "candidates":
                tree, candidates = obj
                c["decompose.candidates"] += len(candidates)
                c["decompose.cores_tried"] += distinct_two_leaf_subtrees(tree)
                trees = [t for d in candidates for t in (d.context, d.core)]
            elif kind == "nf":
                source, normal = obj
                c["normalize.nf_in_nodes"] += source.node_count
                c["normalize.nf_out_nodes"] += normal.node_count
                trees = []
            elif kind == "basic":
                c["cp.basic_nodes"] += obj.node_count
                trees = []
            else:
                raise ValueError(f"unknown kept kind {kind!r}")
            for tree in trees:
                c["trees.logical_nodes"] += logical_nodes(tree)
                c["trees.physical_nodes"] += physical_nodes(tree)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, start, end, parent, op]) + "\n")


class Passthrough:
    """The tracer of a plain pass: calls go straight through, nothing is kept."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def keep(self, kind: str, obj) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass


PASSTHROUGH = Passthrough()


@contextlib.contextmanager
def rebound(bindings):
    """Temporarily replace module attributes: ``[(module, name, value)]``."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    try:
        for module, name, value in bindings:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def physical_nodes(tree) -> int:
    """Distinct ``Node`` objects reachable from ``tree``."""
    seen = set()
    stack = [tree]
    while stack:
        x = stack.pop()
        if isinstance(x, Leaf) or id(x) in seen:
            continue
        seen.add(id(x))
        stack.append(x.left)
        stack.append(x.right)
    return len(seen)


def logical_nodes(tree) -> int:
    """``Node`` positions in the logical tree: ``Tree.size`` minus its leaves."""
    return (tree.size - 1) // 2


def distinct_two_leaf_subtrees(tree) -> int:
    """Distinct subtrees carrying both a T- and an F-leaf: the cores that
    decomposition enumeration tries."""
    seen = set()
    stack = [tree]
    while stack:
        x = stack.pop()
        if isinstance(x, Leaf):
            continue
        if x.has_true and x.has_false:
            seen.add(x)
        stack.append(x.left)
        stack.append(x.right)
    return len(seen)


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, passes: int, cli_names) -> dict[str, float]:
    """Per-layer metrics, per traced pass of the workload's inputs."""
    spans = tracer.spans
    durations = defaultdict(list)
    self_time = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        durations[name].append(end - start)
        if parent >= 0:
            self_time[parent] -= end - start
    self_by_name = Counter()
    for (name, *_), s in zip(spans, self_time):
        self_by_name[name] += s

    def ms(name):
        return 1e3 * sum(durations[name]) / passes

    def calls(name):
        return len(durations[name]) / passes

    def us(name, q):
        return 1e6 * _quantile(durations[name], q)

    def self_ms(*names):
        return 1e3 * sum(self_by_name[n] for n in names) / passes

    decompose_names = [n for n in durations if n.startswith("decompose.")]
    c = tracer.counts
    op_ms = sum(ms(n) for n in durations if n.startswith("op."))
    layer_self_ms = 1e3 * sum(
        s for n, s in self_by_name.items() if not n.startswith("op.")
    ) / passes
    m = {
        "parser.parse.ms": ms("parser.parse"),
        "parser.parse.calls": calls("parser.parse"),
        "terms.expand_full.ms": ms("terms.expand_full"),
        "terms.substitute.ms": ms("terms.substitute"),
        "terms.format_term.ms": ms("terms.format_term"),
        # self time of the decide spans: the comparison of the two sides'
        # normal forms or basic forms (or trees, for trees.tree_eq)
        "terms.term_eq.ms": self_ms("normalize.decide_eq.nf", "cp.decide_eq_cp"),
        "trees.eval_tree.ms": ms("trees.eval_tree"),
        "trees.eval_tree.calls": calls("trees.eval_tree"),
        "trees.eval_tree.p99_us": us("trees.eval_tree", 0.99),
        "trees.tree_eq.ms": self_ms("normalize.decide_eq.tree"),
        "trees.parse_tree.ms": ms("trees.parse_tree"),
        "trees.format_tree.ms": ms("trees.format_tree"),
        "trees.logical_nodes": c["trees.logical_nodes"] / passes,
        "trees.physical_nodes": c["trees.physical_nodes"] / passes,
        "trees.sharing_ratio": _ratio(c["trees.physical_nodes"], c["trees.logical_nodes"]),
        "trees.cap_hits": c["trees.cap_hits"] / passes,
        "normalize.nf.ms": ms("normalize.nf"),
        "normalize.nf.calls": calls("normalize.nf"),
        "normalize.nf.p99_us": us("normalize.nf", 0.99),
        "normalize.nf_growth": _ratio(c["normalize.nf_out_nodes"], c["normalize.nf_in_nodes"]),
        "cp.scl_to_cp.ms": ms("cp.scl_to_cp"),
        "cp.basic_form.ms": ms("cp.basic_form"),
        "cp.basic_form.p99_us": us("cp.basic_form", 0.99),
        "cp.basic_nodes": c["cp.basic_nodes"] / passes,
        "decompose.calls": sum(calls(n) for n in decompose_names),
        "decompose.ms": sum(ms(n) for n in decompose_names),
        "decompose.candidates": c["decompose.candidates"] / passes,
        "decompose.accept_ratio": _ratio(c["decompose.candidates"], c["decompose.cores_tried"]),
        "inverse.invert.ms": ms("inverse.invert"),
        "inverse.invert.calls": calls("inverse.invert"),
        "inverse.invert.p50_us": us("inverse.invert", 0.5),
        "inverse.invert.p99_us": us("inverse.invert", 0.99),
        "inverse.self_ms": self_ms("inverse.invert"),
        "models.valid_in_free_model.ms": ms("models.valid_in_free_model"),
        "models.valid_in_free_model.self_ms": self_ms("models.valid_in_free_model"),
        "models.samples": c["models.samples"] / passes,
        "models.validates.ms": ms("models.validates"),
        "models.assignments_checked": c["models.assignments_checked"] / passes,
        "generate.random_substitution.ms": ms("generate.random_substitution"),
        "generate.draws_per_accept": _ratio(c["generate.draws"], c["generate.accepts"]),
        "trace.op_ms": op_ms,
        "trace.layer_self_ms": layer_self_ms,
        "trace.self_share": _ratio(layer_self_ms, op_ms),
    }
    for name in cli_names:
        m[f"cli.{name}.p50_ms"] = 1e3 * statistics.median(durations[f"cli.{name}"] or [0.0])
    return m


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
