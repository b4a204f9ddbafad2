"""sclkit benchmark: seeded, closed-loop workloads with checked outputs.

    python3 bench/run.py --workload equiv-check --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload in turn

For each workload this process generates the inputs from the seed,
stores them as text under ``.bench_out/``, and starts ``worker.py`` in a
fresh interpreter to run them: one client, no threads, each op sent after
the previous one returns.  The worker also measures set-up time, with
fresh interpreters importing ``sclkit`` and ``sclkit.cli``.  It prints the run
environment and every metric with its unit, then, as the last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
metrics are the end-to-end ones with ``--trace 0`` and the per-layer ones
with ``--trace 1``.  It exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("equiv-check", "canon-invert", "law-check", "cli-mix")
SETUP_PROBES = 21
RUN_LIMIT_S = 170  # every run ends well inside three minutes

def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def run_worker(name: str, seed: int, seconds: int, trace: int, deadline: float, probes: int) -> dict:
    """Generate the inputs of ``name`` and run them in a fresh interpreter,
    with ``probes`` set-up probes spread over the timed passes."""
    from inputs import generate, write_inputs

    inputs_path = OUT / f"inputs-{name}-seed{seed}.jsonl"
    write_inputs(inputs_path, generate(name, seed))
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", name,
        "--inputs", str(inputs_path),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--spans", str(OUT / f"spans-{name}-seed{seed}.jsonl"),
        "--setup-probes", str(probes),
    ]
    proc = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker for {name} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    result = run_worker(name, seed, seconds, trace, deadline, SETUP_PROBES)
    setup = result["setup"]
    setup_s = statistics.median(ready for ready, _ in setup)
    import_s = statistics.median(imported for _, imported in setup)
    e2e = result["end_to_end"]
    result["metrics"] = {
        "ops_per_s": (e2e["ops_per_s"], "1/s"),
        "op_p50_ms": (e2e["op_p50_ms"], "ms"),
        "op_tail_ms": (e2e["op_tail_ms"], "ms"),
        "error_ratio": (result["failed"] / max(1, result["attempted"]), "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }
    if trace:
        layers = result["layers"]
        if name != "cli-mix":
            # every traced run also times the scl subcommands, in one short
            # traced pass of the cli-mix inputs
            cli = run_worker("cli-mix", seed, 0, 1, deadline, 0)
            layers.update((k, v) for k, v in cli["layers"].items() if k.startswith("cli."))
            result["correct"] = result["correct"] and cli["correct"]
            result["mismatches"] += cli["mismatches"]
            result["attempted"] += cli["attempted"]
            result["failed"] += cli["failed"]
        layers["cli.import_ms"] = 1e3 * import_s
        result["layer_metrics"] = {k: (v, _layer_unit(k)) for k, v in layers.items()}
    return result


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("ratio", "growth", "share", "per_accept")):
        return "ratio"
    return "count"


def report(name: str, seed: int, seconds: int, trace: int, env: dict, result: dict) -> None:
    e2e = result["end_to_end"]
    print(
        f"# env commit={env['commit']} python={env['python']} nproc={env['nproc']} "
        f"src_lines={env['src_lines']}"
    )
    print(
        f"# workload={name} seed={seed} seconds={seconds} trace={trace} "
        f"passes={e2e['passes']} ops_per_pass={e2e['ops_per_pass']} pass_s={e2e['pass_s']:.4f}"
    )
    for metric, (value, unit) in result["metrics"].items():
        note = ""
        if metric == "op_tail_ms":
            note = f"  (p{e2e['tail_percentile']:.2f} of {e2e['ops_per_pass']} per-input latencies)"
        if metric == "error_ratio":
            note = f"  ({result['failed']} of {result['attempted']} ops)"
        print(f"{name} {metric} {value:.6g} {unit}{note}")
    if trace:
        traced = result["traced"]
        print(
            f"# traced passes: ops_per_s {traced['ops_per_s']:.6g} 1/s, "
            f"op_p50_ms {traced['op_p50_ms']:.6g} ms, op_tail_ms {traced['op_tail_ms']:.6g} ms"
        )
        for metric, (value, unit) in result["layer_metrics"].items():
            print(f"{name} {metric} {value:.6g} {unit}")
    for problem in result["mismatches"]:
        print(f"# MISMATCH {name}: {problem}")


def main() -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "sclkit" / "__init__.py").is_file():
        print(f"error: no sclkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = started + RUN_LIMIT_S * len(names)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        result["environment"] = env
        report(name, args.seed, args.seconds, args.trace, env, result)
        with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
        results[name] = result

    metrics = {}
    for name, result in results.items():
        chosen = result["layer_metrics"] if args.trace else result["metrics"]
        for metric, (value, unit) in chosen.items():
            if metric == "error_ratio":
                continue  # zero on every workload; reported above and as attempted/failed
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
