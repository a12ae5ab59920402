"""cryptomix benchmark: one command for every workload.

    python3 bench/run.py                              # all workloads, untraced
    python3 bench/run.py --trace 1                    # all workloads, traced
    python3 bench/run.py --workload subgame-wide --seed 3 --seconds 20 --trace 0

Each workload runs in processes of its own (bench/worker.py), one at a
time. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics from the span recorder. The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A record of the run,
with versions, hardware, input hashes and every operation's time, goes
to bench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7  # set-up is measured this many times per run; the median is reported
IMPORT_PROBES = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
WORKLOAD_TIMEOUT_S = 175

# The end-to-end metrics of the result line, the ones BENCHMARK.json
# bounds. Other tenants of a shared machine slow every computation in
# phases that outlast a run (see README.md), so raw operation times
# spread past any usable bound between runs. `op_p50_rel` divides each
# operation's time by that of a fixed reference computation run just
# before and just after it (reference.py), which the same phase slows
# alike. The raw times are printed and recorded but not bounded.
END_TO_END = {
    "op_p50_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORTED = {
    "op_p50_ms": "ms",
    "op_min_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "fail_ratio": "ratio",
    "ref_p50_ms": "ms",
}

PER_LAYER = {
    "startup.import_ms": "ms",
    "startup.import_numpy_ms": "ms",
    "startup.import_scipy_ms": "ms",
    "startup.scipy_loaded": "ratio",
    "io.load.calls": "count",
    "io.load.self_ms": "ms",
    "attacker.dp.calls": "count",
    "attacker.dp.cells": "count",
    "attacker.dp.self_ms": "ms",
    "attacker.dp.ns_per_cell": "ns",
    "attacker.greedy.calls": "count",
    "attacker.greedy.self_ms": "ms",
    "attacker.hybrid.calls": "count",
    "attacker.hybrid.self_ms": "ms",
    "attacker.hybrid.dp_ratio": "ratio",
    "defender.evaluate_all.self_ms": "ms",
    "defender.polytope.calls": "count",
    "defender.polytope.self_ms": "ms",
    "defender.make_report.self_ms": "ms",
    "lp.solve.calls": "count",
    "lp.solve.self_ms": "ms",
    "lp.linprog.self_ms": "ms",
    "lp.linprog.nit": "count",
    "lp.us_per_solve": "us",
    "lp.overhead_ratio": "ratio",
    "robust.scenario_table.self_ms": "ms",
    "robust.regret.self_ms": "ms",
    "robust.maximin.self_ms": "ms",
    "robust.unconstrained.self_ms": "ms",
    "robust.matrix.self_ms": "ms",
    "baselines.random_vertex.calls": "count",
    "baselines.random_vertex.self_ms": "ms",
    "baselines.compare.self_ms": "ms",
    **{f"cli.{name}.p50_ms": "ms" for name in sorted(workloads.CLI_COMMANDS)},
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def _timeout(signum, frame):
    raise BenchError(f"workload did not finish within {WORKLOAD_TIMEOUT_S} s")


# ------------------------------------------------------------- processes


def launch_worker(name: str, seed: int, seconds: float, trace: int, mode: str) -> tuple[float, dict]:
    """Start one workload process and return its set-up time, measured
    from launch until it reports that its first operation has returned,
    together with its result."""
    argv = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode, "--workdir", str(RUNS_DIR),
    ]  # fmt: skip
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=workloads.child_env(), stdout=subprocess.PIPE, text=True
    )
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or result is None:
        raise BenchError(f"{name} worker exited with code {proc.returncode}")
    return setup_s, result


def import_breakdown(stderr: str) -> dict[str, float]:
    """Milliseconds spent importing cryptomix, numpy and scipy, from
    `-X importtime` output. Each package's time is the cumulative time of
    its outermost imports, those not nested in another import of it."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        rows.append((depth, raw.strip(), int(parts[1])))

    def outermost(prefix: str) -> float:
        def match(module: str) -> bool:
            return module == prefix or module.startswith(prefix + ".")

        total, stack = 0, []
        # output is post-order (children first), so walk it backwards
        for depth, module, cumulative in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if match(module) and not any(match(m) for _, m in stack):
                total += cumulative
            stack.append((depth, module))
        return total / 1000.0

    return {
        "startup.import_ms": outermost("cryptomix"),
        "startup.import_numpy_ms": outermost("numpy"),
        "startup.import_scipy_ms": outermost("scipy"),
    }


def probe_imports() -> dict[str, float]:
    """Median import breakdown over fresh interpreters."""
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cryptomix"],
            cwd=ROOT, env=workloads.child_env(), capture_output=True, text=True, timeout=60,
        )  # fmt: skip
        if proc.returncode != 0:
            raise BenchError(f"import cryptomix failed: {proc.stderr.strip()[-300:]}")
        probes.append(import_breakdown(proc.stderr))
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


# --------------------------------------------------------------- metrics


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile that keeps at least TAIL_BEYOND
    samples beyond it, with that percentile and the sample count beyond.
    With too few samples it is the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def relative_p50(ops: list, refs: list[float]) -> float:
    """Median over operations of the operation's time divided by the mean
    of the reference times just before and after it. With several
    variants (the CLI subcommands) it is the mean of their medians, so
    their mix does not move it."""
    ratios: dict[str, list[float]] = {}
    for i, (variant, seconds, _, _) in enumerate(ops):
        ratios.setdefault(variant, []).append(2.0 * seconds / (refs[i] + refs[i + 1]))
    return statistics.fmean(statistics.median(r) for r in ratios.values())


def end_to_end(setups: list[float], result: dict) -> tuple[dict, dict]:
    ops, refs = result["ops"], result["refs"]
    times = [op[1] for op in ops]
    completed = sum(1 for op in ops if op[3])
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "op_p50_rel": relative_p50(ops, refs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "op_p50_ms": 1000.0 * statistics.median(times),
        "op_min_ms": 1000.0 * min(times),
        "op_tail_ms": 1000.0 * tail_s,
        # the window is the time spent inside operations; checks are excluded
        "ops_per_s": completed / sum(times),
        "fail_ratio": result["failed"] / result["attempted"],
        "ref_p50_ms": 1000.0 * statistics.median(refs),
    }
    extra = {
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(times),
        "setup_samples_s": setups,
        **{key: value for key, value in cli_p50(ops).items() if value},
    }
    return metrics, extra


def cli_p50(ops: list, traced: bool = False) -> dict:
    by_command: dict[str, list[float]] = {}
    for variant, seconds, was_traced, _ in ops:
        if was_traced == traced and variant in workloads.CLI_COMMANDS:
            by_command.setdefault(variant, []).append(seconds)
    return {
        f"cli.{name}.p50_ms": 1000.0 * statistics.median(by_command[name])
        if name in by_command else 0.0
        for name in sorted(workloads.CLI_COMMANDS)
    }


def per_layer(result: dict, imports: dict) -> tuple[dict, dict]:
    """Per-layer metrics per traced operation; io.load per process."""
    layers = result["layers"]
    ops, n = layers["ops"], max(layers["traced_ops"], 1)

    def total(span: str, key: str = "calls") -> float:
        return ops.get(span, {}).get(key, 0)

    def self_ms(span: str) -> float:
        return total(span, "self_ns") / 1e6 / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    io = layers["per_process"].get("io.load", {})
    processes = max(layers["processes"], 1)
    lp_self, linprog_self = total("lp.solve", "self_ns"), total("lp.linprog", "self_ns")
    untraced = [op[1] for op in result["ops"] if not op[2]]
    traced = [op[1] for op in result["ops"] if op[2]]
    metrics = {
        **imports,
        "startup.scipy_loaded": layers["scipy_loaded"],
        "io.load.calls": io.get("calls", 0) / processes,
        "io.load.self_ms": io.get("self_ns", 0) / 1e6 / processes,
        "attacker.dp.calls": total("attacker.dp") / n,
        "attacker.dp.cells": total("attacker.dp", "cells") / n,
        "attacker.dp.self_ms": self_ms("attacker.dp"),
        "attacker.dp.ns_per_cell": ratio(total("attacker.dp", "self_ns"), total("attacker.dp", "cells")),
        "attacker.greedy.calls": total("attacker.greedy") / n,
        "attacker.greedy.self_ms": self_ms("attacker.greedy"),
        "attacker.hybrid.calls": total("attacker.hybrid") / n,
        "attacker.hybrid.self_ms": self_ms("attacker.hybrid"),
        "attacker.hybrid.dp_ratio": ratio(total("attacker.hybrid", "dp_answered"), total("attacker.hybrid")),
        "defender.evaluate_all.self_ms": self_ms("defender.evaluate_all"),
        "defender.polytope.calls": total("defender.polytope") / n,
        "defender.polytope.self_ms": self_ms("defender.polytope"),
        "defender.make_report.self_ms": self_ms("defender.make_report"),
        "lp.solve.calls": total("lp.solve") / n,
        "lp.solve.self_ms": self_ms("lp.solve"),
        "lp.linprog.self_ms": self_ms("lp.linprog"),
        "lp.linprog.nit": total("lp.linprog", "nit") / n,
        "lp.us_per_solve": ratio(lp_self + linprog_self, total("lp.solve")) / 1e3,
        "lp.overhead_ratio": ratio(lp_self, lp_self + linprog_self),
        "robust.scenario_table.self_ms": self_ms("robust.scenario_table"),
        "robust.regret.self_ms": self_ms("robust.regret"),
        "robust.maximin.self_ms": self_ms("robust.maximin"),
        "robust.unconstrained.self_ms": self_ms("robust.unconstrained"),
        "robust.matrix.self_ms": self_ms("robust.matrix"),
        "baselines.random_vertex.calls": total("baselines.random_vertex") / n,
        "baselines.random_vertex.self_ms": self_ms("baselines.random_vertex"),
        "baselines.compare.self_ms": self_ms("baselines.compare"),
        **cli_p50(result["ops"]),
        "trace.overhead_ratio": ratio(statistics.median(traced), statistics.median(untraced)),
    }
    # "absent": a function the metric's span wraps no longer exists;
    # "not-run": this workload never reaches the metric's layer
    absent = {span for span, home, attr in spans.TARGETS if f"{home}.{attr}" in layers["absent"]}
    status = {
        name: "absent" if any(name.startswith(span + ".") for span in absent)
        else "ok" if value else "not-run"
        for name, value in metrics.items()
    }  # fmt: skip
    extra = {
        "traced_ops": layers["traced_ops"],
        "untraced_ops": len(untraced),
        "status": status,
        "absent_targets": layers["absent"],
        "dp_curve": layers["dp_curve"],
        "cli_traced_p50_ms": cli_p50(result["ops"], traced=True),
    }
    return metrics, extra


# ----------------------------------------------------------- run record


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload and return its record; the `line` key holds the
    result line."""
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(WORKLOAD_TIMEOUT_S)
    try:
        RUNS_DIR.mkdir(parents=True, exist_ok=True)
        attempted = failed = 0
        problems: list[str] = []
        if trace:
            imports = probe_imports()
            _, result = launch_worker(name, seed, seconds, 1, "measure")
            metrics, extra = per_layer(result, imports)
            workers = [result]
        else:
            setups, workers = [], []
            for i in range(SETUP_RUNS):
                mode = "measure" if i == SETUP_RUNS - 1 else "setup"
                setup_s, result = launch_worker(name, seed, seconds, 0, mode)
                setups.append(setup_s)
                workers.append(result)
            metrics, extra = end_to_end(setups, result)
    finally:
        signal.alarm(0)
    for w in workers:
        attempted += w["attempted"]
        failed += w["failed"]
        problems += w["problems"]
    units = PER_LAYER if trace else END_TO_END
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    reported = {} if trace else {key: {"value": metrics[key], "unit": u} for key, u in REPORTED.items()}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "inputs": result["record"],
        "metrics": {**line["metrics"], **reported},
        "details": extra,
        "problems": problems,
        "op_times_s": result["ops"],  # [variant, seconds, traced, passed]
        "reference_times_s": result["refs"],  # before each operation, and after the last
        "line": line,
    }
    path = RUNS_DIR / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_summary(record: dict) -> None:
    name, details = record["workload"], record["details"]
    print(f"# {name}  seed={record['seed']}  trace={record['trace']}  "
          f"attempted={record['line']['attempted']}  failed={record['line']['failed']}")
    for key, m in record["metrics"].items():
        note = ""
        if key == "op_tail_ms":
            note = (f"  (p{details['op_tail_percentile']:.1f} of {details['op_samples']} ops, "
                    f"{details['op_tail_samples_beyond']} beyond)")
        elif record["trace"] and details["status"][key] != "ok":
            note = f"  ({details['status'][key]})"
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}{note}")
    for target in details.get("absent_targets", []):
        print(f"{name}  absent target: {target}")
    for problem in record["problems"][:10]:
        print(f"{name}  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cryptomix" / "__init__.py").is_file():
        print(f"error: no cryptomix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace)
            print_summary(record)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        line = records[0]["line"]
    else:
        line = {
            "correct": all(r["line"]["correct"] for r in records),
            "attempted": sum(r["line"]["attempted"] for r in records),
            "failed": sum(r["line"]["failed"] for r in records),
            "metrics": {f"{r['workload']}/{k}": m for r in records for k, m in r["line"]["metrics"].items()},
        }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
