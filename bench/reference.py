"""The fixed reference computation that every timed operation is measured
against.

The shared machine runs in fast and slow phases that slow every
computation by up to 1.8x, in CPU time as well as wall time. The worker
runs a reference right before each operation and once after the last,
so each operation sits between two references that saw the same phase;
run.py divides the operation's time by theirs (`op_p50_rel`). Nothing
here uses cryptomix, and the work never changes, so only the package's
own speed moves that ratio.

A slow phase does not slow every kind of work alike, so each in-process
workload's reference is made of the kinds of work its operation does:

- `python`: a pure-Python 0/1 knapsack DP (interpreter work, as in the
  attacker DP and the marshalling around each LP);
- `numpy`: small dense solves (many short calls into numpy);
- `lp`: small dense LPs solved by scipy's HiGHS (as in the LP layer).

A workload that launches processes uses the launch of an interpreter
that imports numpy.
"""

from __future__ import annotations

import random
import subprocess
import sys

_RNG = random.Random(20240601)
ITEMS = tuple((_RNG.randint(1, 20), _RNG.random()) for _ in range(70))
CAPACITY = 700
SOLVES = 200
SIZE = 40
LPS = 4
LP_SHAPE = (20, 30)  # constraints, variables
LAUNCH = (sys.executable, "-c", "import numpy")
_data: dict = {}


def _python() -> float:
    best = [0.0] * (CAPACITY + 1)
    for weight, value in ITEMS:
        for c in range(CAPACITY, weight - 1, -1):
            candidate = best[c - weight] + value
            if candidate > best[c]:
                best[c] = candidate
    return best[CAPACITY]


def _numpy() -> float:
    import numpy as np

    if "matrix" not in _data:
        a = np.random.default_rng(7).random((SIZE, SIZE))
        _data["matrix"] = a + SIZE * np.eye(SIZE)
    matrix = _data["matrix"]
    return sum(float(np.linalg.solve(matrix, matrix[k % SIZE])[0]) for k in range(SOLVES))


def _lp() -> float:
    import numpy as np
    from scipy.optimize import linprog

    if "lps" not in _data:
        rng = np.random.default_rng(3)
        _data["lps"] = []
        for _ in range(LPS):
            a = rng.random(LP_SHAPE)
            _data["lps"].append((-rng.random(LP_SHAPE[1]), a, 0.5 * a.sum(axis=1)))
    return sum(
        linprog(c, A_ub=a, b_ub=b, bounds=(0, 1), method="highs").fun for c, a, b in _data["lps"]
    )


PARTS = {"python": _python, "numpy": _numpy, "lp": _lp}


def kernel(parts: tuple[str, ...]) -> float:
    """A few milliseconds of fixed work of the named kinds; returns a
    checksum of it."""
    return sum(PARTS[part]() for part in parts)


def launch(env: dict) -> None:
    """Launch one interpreter that imports numpy and wait for it."""
    subprocess.run(LAUNCH, env=env, check=True, capture_output=True, timeout=120)
