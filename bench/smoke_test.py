"""Smoke test of the benchmark itself.

    python3 bench/smoke_test.py
    python -m pytest -q bench/smoke_test.py

It runs every workload for a few operations, untraced and traced, and
requires clean checks and exactly the metric names BENCHMARK.json lists.
It then feeds the measuring loop deliberately corrupted results and
requires each to be counted as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = "0.5"


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_runs_clean():
    contract = _contract()
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line = _run(name, trace)
            assert line["correct"] and line["failed"] == 0, (name, trace, line)
            assert line["attempted"] >= 2
            assert list(line["metrics"]) == [m["name"] for m in contract[key]], (name, trace)
            units = {m["name"]: m["unit"] for m in contract[key]}
            for metric, value in line["metrics"].items():
                assert value["unit"] == units[metric]
                assert isinstance(value["value"], float), (metric, value)


class _Corrupting:
    """Delegates to a workload but damages the result of every odd
    operation with `damage`."""

    def __init__(self, workload, damage, op=None):
        self.w = workload
        self.damage = damage
        self._op = op or workload.op

    def op(self, inputs, index, *args):
        out = self._op(inputs, index, *args)
        return self.damage(out) if index % 2 else out

    def __getattr__(self, attr):
        return getattr(self.w, attr)


def _failures(workload, damage, ops: int = 6, op=None) -> int:
    inputs = workload.prepare(0, BENCH_DIR / "runs")
    loop = worker.Loop(_Corrupting(workload, damage, op), inputs)
    for index in range(ops):
        out, error, elapsed = loop.run_op(index, False, index)
        loop.record(index, out, error, elapsed, False)
    assert len(loop.ops) == ops
    return loop.failed


def _first_plan(evaluations, **changes):
    first = evaluations[0]
    plan = replace(first.attack_plan, **changes)
    return (replace(first, attack_plan=plan),) + tuple(evaluations[1:])


def test_over_budget_plan_is_a_failure():
    ties = workloads.WORKLOADS["subgame-ties"]
    assert _failures(ties, lambda evs: _first_plan(evs, total_cost=1e9)) == 3


def test_bitwise_change_is_a_failure():
    # a last-bit change of a field no other check looks at
    ties = workloads.WORKLOADS["subgame-ties"]

    def nudge(evs):
        first = evs[0]
        return (replace(first, utility=first.utility * (1 + 2**-52)),) + tuple(evs[1:])

    assert _failures(ties, nudge) == 3


def test_failed_cli_process_is_a_failure():
    def passing_validate(inputs, index, *args):
        # the output of a passing `validate`, without starting a process
        out = json.dumps(workloads.ex.VALIDATE, indent=2) + "\n"
        return {"command": "validate", "returncode": 0, "stdout": out, "stderr": ""}

    def crash(out):
        return {**out, "returncode": 3, "stderr": "internal error: injected"}

    assert _failures(workloads.WORKLOADS["cli-cold"], crash, op=passing_validate) == 3


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
