"""One workload process, started by run.py.

It imports the package, makes the inputs, runs one untimed operation and
then a closed loop of timed operations: the next starts only when the
last has returned. A fixed reference computation (reference.py) is timed
between operations. It talks to run.py over stdout with two lines:
`READY` as soon as the first operation has returned, so the parent can
time set-up from outside, and finally `RESULT <json>`.

With --mode setup the process stops after the first operation. With
--trace 1, every other operation (every other cycle of CLI subcommands
on cli-cold) runs with the span recorder installed, so the traced and
untraced times come from the same window.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

MAX_PROBLEMS = 20


class Loop:
    """Runs operations one at a time and keeps their times and check
    results."""

    def __init__(self, workload, inputs, tracer=None, span_dir: Path | None = None):
        self.w = workload
        self.inp = inputs
        self.tracer = tracer
        self.span_dir = span_dir
        self.ops: list[list] = []  # [variant, seconds, traced, ok]
        self.refs: list[float] = []  # reference times; refs[i], refs[i + 1] frame ops[i]
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}
        self.cli_scipy: list[bool] = []

    def run_op(self, index: int, traced: bool, op_id: object):
        in_process = not isinstance(self.w, workloads.CliCold)
        span_file = None
        if traced and not in_process:
            span_file = self.span_dir / "cli-spans.json"
            span_file.unlink(missing_ok=True)
        if traced and in_process:
            self.tracer.install()
        started = time.perf_counter()
        try:
            if traced and in_process:
                with self.tracer.span("op", op_id):
                    out = self.w.op(self.inp, index)
            elif span_file is not None:
                out = self.w.op(self.inp, index, span_file)
            else:
                out = self.w.op(self.inp, index)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"operation raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - started
            if traced and in_process:
                self.tracer.uninstall()
        if span_file is not None and span_file.exists():
            self._merge_cli_spans(span_file, op_id)
        return out, error, elapsed

    def _merge_cli_spans(self, span_file: Path, op_id: object) -> None:
        data = json.loads(span_file.read_text(encoding="utf-8"))
        base = len(self.tracer.spans)
        for row in data["spans"]:
            parent = row["parent"] + base if row["parent"] >= 0 else -1
            self.tracer.spans.append(
                spans.Span(row["name"], row["start_ns"], row["end_ns"], parent, op_id, row.get("attrs", {}))
            )
        self.tracer.absent = data["absent"]
        self.cli_scipy.append(bool(data["scipy_loaded"]))

    def check(self, index: int, out, error) -> list[str]:
        """Output checks, then bitwise equality with the first passing
        result of the same variant in this run."""
        if error is not None:
            return [error]
        try:
            problems = self.w.check(self.inp, index, out)
            if not problems:
                key = self.w.variant(self.inp, index)
                fp = self.w.fingerprint(out)
                if self.reference.setdefault(key, fp) != fp:
                    problems = [f"{key}: result differs bitwise from the first operation"]
        except Exception as exc:  # a malformed result is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        return problems

    def record(self, index: int, out, error, elapsed: float, traced: bool) -> None:
        problems = self.check(index, out, error)
        if problems:
            self.failed += 1
            self.problems += problems[: MAX_PROBLEMS - len(self.problems)]
        self.ops.append([self.w.variant(self.inp, index), elapsed, traced, not problems])

    def period(self) -> int:
        return len(workloads.CLI_COMMANDS) if isinstance(self.w, workloads.CliCold) else 1

    def timed_reference(self) -> None:
        started = time.perf_counter()
        self.w.reference(self.inp)
        self.refs.append(time.perf_counter() - started)

    def run(self, seconds: float) -> None:
        """Timed closed loop. It stops at the first unit boundary after
        `seconds`: a unit is one cycle of variants, and when tracing, one
        untraced cycle followed by one traced cycle. The reference
        computation runs, timed, before each operation and after the
        last; a first, untimed run warms it up."""
        period = self.period()
        unit = period * (2 if self.tracer else 1)
        self.w.reference(self.inp)
        started = time.perf_counter()
        index = 0
        while index == 0 or index % unit or time.perf_counter() - started < seconds:
            traced = self.tracer is not None and (index // period) % 2 == 1
            self.timed_reference()
            out, error, elapsed = self.run_op(index, traced, index)
            self.record(index, out, error, elapsed, traced)
            index += 1
        self.timed_reference()


def dp_curve(tracer: spans.Tracer, ops: set) -> list[dict]:
    """Mean DP self time per (n, cells), the DP scaling curve."""
    selfs = spans.self_times(tracer.spans)
    groups: dict[tuple, list[int]] = {}
    for s, self_ns in zip(tracer.spans, selfs):
        if s.name == "attacker.dp" and s.op in ops:
            groups.setdefault((s.attrs["n"], s.attrs["cells"]), []).append(self_ns)
    return [
        {"n": n, "cells": cells, "calls": len(v), "self_ms_median": statistics.median(v) / 1e6}
        for (n, cells), v in sorted(groups.items())
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--workdir", required=True, help="directory for inputs and spans")
    args = parser.parse_args()

    w = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    in_process = not isinstance(w, workloads.CliCold)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None and in_process:
        import cryptomix  # noqa: F401 - the recorder wraps loaded modules only

        tracer.install()
    inputs = w.prepare(args.seed, workdir)
    loop = Loop(w, inputs, tracer, workdir)
    out, error, elapsed = loop.run_op(0, False, "setup")
    if tracer is not None:
        tracer.uninstall()
    scipy_loaded = "scipy.optimize" in sys.modules
    print("READY", flush=True)
    loop.record(0, out, error, elapsed, False)
    loop.ops.clear()  # the first operation is checked but not timed
    result = {"record": inputs.record}
    if args.mode == "measure":
        loop.run(args.seconds)
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        result["ops"] = loop.ops
        result["refs"] = loop.refs
    result.update(attempted=len(loop.ops) + 1, failed=loop.failed, problems=loop.problems)
    if tracer is not None and args.mode == "measure":
        traced_ops = {i for i, op in enumerate(loop.ops) if op[2]}
        if in_process:
            per_process, processes = spans.aggregate(tracer.spans, {"setup"}), 1
            scipy = float(scipy_loaded)
        else:
            per_process, processes = spans.aggregate(tracer.spans, traced_ops), len(traced_ops)
            scipy = sum(loop.cli_scipy) / max(len(loop.cli_scipy), 1)
        result["layers"] = {
            "ops": spans.aggregate(tracer.spans, traced_ops),
            "traced_ops": len(traced_ops),
            "per_process": per_process,
            "processes": processes,
            "scipy_loaded": scipy,
            "absent": tracer.absent,
            "dp_curve": dp_curve(tracer, traced_ops),
        }
        with open(workdir / f"{args.workload}-seed{args.seed}.spans.jsonl", "w", encoding="utf-8") as fh:
            for row in spans.span_rows(tracer.spans):
                fh.write(json.dumps(row) + "\n")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
