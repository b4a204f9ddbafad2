"""The measured process of one workload run.

``run.py`` starts this script in a fresh interpreter and hands it the
workload's inputs as a text file.  It runs one untimed warm-up pass over
the inputs, checking every output against its oracle, then timed passes
over the same inputs until ``--seconds`` have gone by (the last pass stops
at the deadline), checking that each output equals the verified warm-up
output.  Checks run between ops, outside the timed region.  Between ops
of the timed passes it also starts the set-up probes.  With ``--trace 1``
it alternates plain passes with traced passes over the same inputs, so
that the tracing overhead is measured, and reports per-layer metrics from
the traced passes.  The last line of stdout is one JSON object for
``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sclkit.cli  # noqa: E402  (imported up front: part of set-up, not of an op)
import sclkit.cp  # noqa: E402
import sclkit.generate  # noqa: E402
import sclkit.inverse  # noqa: E402
import sclkit.models  # noqa: E402
import sclkit.normalize  # noqa: E402
from sclkit import (  # noqa: E402
    Equation,
    SclError,
    decide_eq,
    decide_eq_cp,
    enumerate_candidates,
    eval_in_model,
    expand_full,
    format_term,
    independence_suite,
    invert,
    parse,
    parse_tree,
    valid_in_free_model,
    validates,
)
from sclkit.axioms import eqfscl_minus  # noqa: E402

from inputs import (  # noqa: E402
    CANDIDATE_KIND,
    CLI_SUBCOMMANDS,
    REFUTATION_VALUES,
    SELECTOR,
    read_inputs,
    render_decomposition,
)
from tracing import PASSTHROUGH, Tracer, layer_metrics, rebound  # noqa: E402

CLI_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import sclkit, sclkit.cli; "
    "print(time.perf_counter() - t, flush=True)"
)

# Each workload has one op, ``op(record, t)``, that makes its calls into
# sclkit through the tracer ``t``; ``bindings(t)`` lists the names rebound
# for traced passes, so that calls inside composite functions get spans too.


class Failed(tuple):
    """An op that ended in an SclError or a RecursionError."""


def guarded(fn, *args):
    try:
        return fn(*args)
    except (SclError, RecursionError) as exc:
        return Failed(("error", type(exc).__name__))


# ---- equiv-check: parse both sides, expand, decide with all three engines


def eq_op(r, t):
    p, q = (
        t.call("terms.expand_full", expand_full, t.call("parser.parse", parse, r[side]))
        for side in ("lhs", "rhs")
    )
    return (
        t.call("normalize.decide_eq.tree", decide_eq, p, q, "tree"),
        t.call("normalize.decide_eq.nf", decide_eq, p, q, "nf"),
        t.call("cp.decide_eq_cp", decide_eq_cp, p, q),
    )


def eq_bindings(t):
    """Spans for the eval_tree, nf, scl_to_cp and basic_form calls that
    decide_eq and decide_eq_cp make."""
    return [
        t.binding(sclkit.normalize, "eval_tree", "trees.eval_tree", lambda x, _: t.keep("tree", x)),
        t.binding(sclkit.normalize, "nf", "normalize.nf", lambda n, args: t.keep("nf", (args[0], n))),
        t.binding(sclkit.cp, "scl_to_cp", "cp.scl_to_cp"),
        t.binding(sclkit.cp, "basic_form", "cp.basic_form", lambda b, _: t.keep("basic", b)),
    ]


def eq_check(r, verdicts):
    if len(set(verdicts)) != 1:
        return f"engines disagree {verdicts} on {r['lhs']} vs {r['rhs']}"
    if r["law"] is not None and not verdicts[0]:
        return f"{r['law']} instance judged INEQUAL: {r['lhs']} vs {r['rhs']}"
    return None


# ---- canon-invert: parse_tree -> invert -> format_term, or a decompose op


def canon_op(r, t):
    x = t.call("trees.parse_tree", parse_tree, r["tree"])
    t.keep("tree", x)
    if r["op"] == "invert":
        return t.call("terms.format_term", format_term, t.call("inverse.invert", invert, x))
    kind = r["kind"]
    candidates = t.call("decompose.enumerate_candidates", enumerate_candidates, x, CANDIDATE_KIND[kind])
    t.keep("candidates", (x, candidates))
    selected = t.call(f"decompose.{kind}", SELECTOR[kind], x)
    t.keep("decomposition", selected)
    return t.call("trees.format_tree", render_decomposition, candidates, selected)


def canon_bindings(t):
    """Spans for the cd/dd/tsd calls inside invert, at the names inverse imports."""
    return [
        t.binding(sclkit.inverse, name, f"decompose.{name}", lambda d, _: t.keep("decomposition", d))
        for name in SELECTOR
    ]


def canon_check(r, text):
    # invert must give back the generating term; a decompose op must print
    # the brute-force candidate list and selection computed in inputs.py
    expected = r["term"] if r["op"] == "invert" else r["stdout"]
    return None if text == expected else f"{r['op']} of {r['tree']} gave {text!r}, expected {expected!r}"


# ---- law-check: free-model soundness samples, and the independence suite


def law_op(r, t):
    if r["op"] == "free":
        lhs, rhs = (t.call("parser.parse", parse, r[side], "open") for side in ("lhs", "rhs"))
        result = t.call(
            "models.valid_in_free_model",
            valid_in_free_model,
            Equation(lhs, rhs, r["tag"]),
            samples=r["samples"],
            seed=r["seed"],
        )
        t.count("models.samples", result.samples)
        return result
    rows, values = [], []
    for entry in t.call("models.independence_suite", independence_suite):
        for ax in eqfscl_minus():
            result = t.call("models.validates", validates, entry.model, ax)
            t.count("models.assignments_checked", result.assignments_checked)
            rows.append((entry, ax, result))
        values.append(
            (
                entry.tag,
                t.call("models.eval_in_model", eval_in_model, entry.model, entry.refutation.lhs),
                t.call("models.eval_in_model", eval_in_model, entry.model, entry.refutation.rhs),
            )
        )
    return rows, values


def law_bindings(t):
    """Spans inside valid_in_free_model, at the names models and generate import."""

    def accepted(subst, _args):
        t.count("generate.accepts", len(subst))

    def drawn(tree, _args):
        t.count("generate.draws")
        t.keep("tree", tree)

    return [
        t.binding(sclkit.models, "eval_tree", "trees.eval_tree", lambda x, _: t.keep("tree", x)),
        t.binding(sclkit.models, "substitute", "terms.substitute"),
        t.binding(sclkit.models, "random_substitution", "generate.random_substitution", accepted),
        t.binding(sclkit.generate, "eval_tree", "trees.eval_tree", drawn),
    ]


def law_check(r, result):
    if r["op"] == "free":
        if not result.valid:
            return f"{r['tag']} refuted in the free model by {result.witness}"
        if result.samples != r["samples"]:
            return f"{r['tag']} checked {result.samples} of {r['samples']} samples"
        return None
    rows, values = result
    if [tag for tag, _, _ in values] != list(REFUTATION_VALUES):
        return "independence suite has the wrong model/axiom pairs"
    for entry, ax, res in rows:
        if res.valid != (ax.tag != entry.tag):
            return f"{entry.model.name}/{ax.tag}: wrong validity"
        if res.valid and res.assignments_checked != entry.model.size ** len(ax.variables):
            return f"{entry.model.name}/{ax.tag}: not exhaustive"
    for tag, lhs, rhs in values:
        if (lhs, rhs) != REFUTATION_VALUES[tag]:
            return f"{tag} refutation values {(lhs, rhs)}, expected {REFUTATION_VALUES[tag]}"
    return None


def law_summary(result):
    if isinstance(result, tuple):
        rows, values = result
        return [(res.valid, res.assignments_checked) for _, _, res in rows], values
    return result.valid, result.samples


# ---- cli-mix: one `python -m sclkit.cli` subprocess per op


def run_scl(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "sclkit.cli", *argv],
        capture_output=True,
        text=True,
        env=CLI_ENV,
        cwd=ROOT,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def cli_op(r, t):
    return t.call(f"cli.{r['name']}", run_scl, r["argv"])


def cli_check(r, result):
    code, stdout = result
    if code != r["code"]:
        return f"scl {' '.join(r['argv'])} exited {code}, expected {r['code']}"
    if "json" in r:
        try:
            same = json.loads(stdout) == r["json"]
        except ValueError:
            same = False
    else:
        same = stdout == r["stdout"] + "\n"
    return None if same else f"scl {' '.join(r['argv'])} printed {stdout!r}"


WORKLOADS = {
    # name: (op, oracle check, summary kept for later passes, rebinding)
    "equiv-check": (eq_op, eq_check, None, eq_bindings),
    "canon-invert": (canon_op, canon_check, None, canon_bindings),
    "law-check": (law_op, law_check, law_summary, law_bindings),
    "cli-mix": (cli_op, cli_check, None, None),
}


def setup_probe() -> tuple[float, float]:
    """Seconds until a fresh interpreter has imported sclkit and sclkit.cli
    and is ready, and seconds of the import alone."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE, env=CLI_ENV, cwd=ROOT, text=True
    ) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited {code}")
    return ready, float(line)


class SetupProbes:
    """Set-up probes taken between ops at evenly spaced times over the timed
    passes, so that set-up time samples the machine across the whole run
    rather than at one moment."""

    def __init__(self, seconds: float, count: int):
        start = perf_counter()
        self.due = [start + (k + 0.5) * seconds / count for k in range(count)]
        self.samples: list[tuple[float, float]] = []

    def between_ops(self) -> None:
        if self.due and perf_counter() >= self.due[0]:
            del self.due[0]
            self.samples.append(setup_probe())

    def finish(self) -> list[tuple[float, float]]:
        while self.due:
            del self.due[0]
            self.samples.append(setup_probe())
        return self.samples


class Run:
    def __init__(self, workload: str, records: list[dict]):
        self.records = records
        self.probes: SetupProbes | None = None
        self.op, self.check, summary, self.bindings = WORKLOADS[workload]
        self.summary = summary or (lambda result: result)
        self.expected: list = []
        self.mismatches: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _after(self, index: int, result, warm: bool) -> None:
        """Untimed: check one output, then let it go."""
        failed = isinstance(result, Failed)
        summary = result if failed else self.summary(result)
        if warm:
            # no input should make an op raise: an error is a wrong output
            # unless the record expects exactly that error
            r = self.records[index]
            raised, expected = (result[1] if failed else None), r.get("error")
            if raised != expected:
                problem = f"op {index} ({r['op']}) raised {raised}, expected {expected}"
            else:
                problem = None if failed else self.check(r, result)
            if problem:
                self.mismatches.append(problem)
            self.expected.append(summary)
            return
        self.attempted += 1
        self.failed += failed
        if summary != self.expected[index]:
            self.mismatches.append(f"op {index} changed output between passes")

    def plain_pass(self, samples: list[list[float]] | None = None, stop_at: float = float("inf")) -> None:
        """One pass over the inputs; without ``samples`` it is the warm-up.
        A timed pass ends early once ``stop_at`` is reached."""
        for index, r in enumerate(self.records):
            start = perf_counter()
            result = guarded(self.op, r, PASSTHROUGH)
            end = perf_counter()
            self._after(index, result, warm=samples is None)
            if samples is not None:
                samples[index].append(end - start)
                self.probes.between_ops()
                if end >= stop_at:
                    return

    def traced_pass(self, tracer: Tracer, samples: list[list[float]]) -> None:
        bindings = self.bindings(tracer) if self.bindings else []
        with rebound(bindings):
            for index, r in enumerate(self.records):
                result, seconds = tracer.op(index, r["op"], guarded, self.op, r, tracer)
                samples[index].append(seconds)
                tracer.count_kept()
                self._after(index, result, warm=False)
                self.probes.between_ops()


def end_to_end(samples: list[list[float]]) -> dict:
    """Metrics over the per-input latencies of one pass.

    Every timed pass replays the same inputs, and an input's latency is its
    minimum over the passes: the speed of a shared machine drifts by tens of
    percent within seconds, and the minimum is what stays put.
    ``ops_per_s`` is the pass's op count over the sum of its per-input
    latencies; the tail is the latency with ten per-input latencies beyond it.
    """
    per_input = sorted(map(min, samples))
    n = len(per_input)
    tail_rank = max(0, n - 11)
    return {
        "ops_per_s": n / sum(per_input),
        "op_p50_ms": 1e3 * statistics.median(per_input),
        "op_tail_ms": 1e3 * per_input[tail_rank],
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "ops_per_pass": n,
        "passes": len(samples[0]),
        "pass_s": sum(map(statistics.fmean, samples)),
    }


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of its largest child if ``children``."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--setup-probes", type=int, default=0, help="set-up probes spread over the run")
    args = ap.parse_args()

    run = Run(args.workload, read_inputs(args.inputs))
    run.plain_pass()  # warm-up: checks every output against its oracle
    plain = [[] for _ in run.records]
    traced = [[] for _ in run.records]
    tracer = Tracer()
    run.probes = SetupProbes(args.seconds, args.setup_probes)
    deadline = perf_counter() + args.seconds
    if args.trace:  # whole passes, one plain and one traced at a time
        while not traced[-1] or perf_counter() < deadline:
            run.plain_pass(plain)
            run.traced_pass(tracer, traced)
    else:  # the first pass is always whole
        run.plain_pass(plain)
        while perf_counter() < deadline:
            run.plain_pass(plain, stop_at=deadline)

    out = {
        "correct": not run.mismatches,
        "mismatches": run.mismatches[:10],
        "attempted": run.attempted,
        "failed": run.failed,
        "end_to_end": end_to_end(plain),
        # the set-up probes are children too: only scl subprocesses count
        "peak_rss_mb": peak_rss_mb(children=args.workload == "cli-mix"),
        "setup": run.probes.finish(),
    }
    if args.trace:
        out["traced"] = end_to_end(traced)
        layers = layer_metrics(tracer, out["traced"]["passes"], CLI_SUBCOMMANDS)
        overhead = out["end_to_end"]["ops_per_s"] / out["traced"]["ops_per_s"] - 1
        layers["trace.overhead_pct"] = 100 * overhead
        out["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
