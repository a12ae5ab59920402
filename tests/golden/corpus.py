"""The golden parity corpus: named entries whose digests are stored in
digests.json next to this file.

A CLI entry runs one invocation in process through cli.run_cli, with its
streams captured and a fresh working directory for the files it writes,
and records the exit code and the SHA-256 of stdout, stderr and every
file written. A pipeline entry records the SHA-256 of the repr of each
result of the whole pipeline on one instance, and a subgame entry that
of each attacker solver's plans on methods whose failure products tie
exactly, where the DP's id rule decides the plan, or on long runs of
equal methods, which the attacker reduction cuts to a few. Nothing pins the
string hash seed, so an entry that varies between runs is a
reproducibility defect.

test_golden.py checks every entry; regen.py rewrites digests.json, and
regen.py --check lists the entries that differ from it without writing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import cryptomix as cm
from cryptomix.attacker import hybrid_plans
from cryptomix.cli import run_cli
from helpers import random_feasible_instance

DIGESTS = Path(__file__).with_name("digests.json")

ALGORITHMS = (
    "aes128-gcm",
    "aes256-gcm",
    "chacha20-poly1305",
    "ml-kem-768",
    "ml-dsa-65",
    "rsa-2048",
    "ecc-p256",
    "sha-256",
)
ATTACKER_VARIANTS = ((), ("--budget", "300", "--value", "7.5"), ("--scale", "1", "--seed", "3"))

# 105 invocations: validate, solve-attacker on every bundled algorithm
# under every solver in three variants, solve-defender three ways,
# solve-robust in its three modes and baselines two ways
INVOCATIONS = (
    [("validate",)]
    + [
        ("solve-attacker", "--algorithm", alg, "--solver", solver, *variant)
        for alg in ALGORITHMS
        for solver in ("dp", "greedy", "hybrid", "brute")
        for variant in ATTACKER_VARIANTS
    ]
    + [
        ("solve-defender", "--out", "report.json"),
        ("solve-defender", "--csv"),
        ("solve-defender", "--budget", "25"),
        ("solve-robust", "--mode", "regret", "--matrices"),
        ("solve-robust", "--mode", "maximin"),
        ("solve-robust", "--mode", "unconstrained", "--matrices", "--out-dir", "unc"),
        ("baselines", "--out", "baselines.csv"),
        ("baselines", "--samples", "5", "--seed", "7"),
    ]
)

RANDOM_SEEDS = range(40)
TIE_SEEDS = range(4)
# {x} at (0.75, 2.0) and {y, z} at (0.5, 1.0) each fail with 0.25 at 2.0;
# a method of success 0 or 1 ties the products of the sets it joins
TIE_PAIRS = ((0.5, 1.0), (0.75, 2.0), (0.3, 1.0), (0.0, 0.5), (1.0, 3.0))
# seed 1 draws the plans of seed 0, so it is left out
RUN_SEEDS = (0, 2, 3, 4)
RUN_PAIRS = ((0.16, 0.5), (0.3, 1.0), (0.41, 1.5), (0.51, 2.0))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _working_dir(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def cli_digest(argv: tuple[str, ...], workdir: Path) -> dict:
    """Exit code and SHA-256 of stdout, stderr and every file written
    under workdir, by path relative to it."""
    out, err = io.StringIO(), io.StringIO()
    with _working_dir(workdir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    files = {
        p.relative_to(workdir).as_posix(): _sha(p.read_bytes())
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": files,
    }


def _repr_digests(results: dict) -> dict:
    return {name: _sha(repr(value).encode()) for name, value in results.items()}


def _pipeline(instance: cm.GameInstance, scenarios: cm.ScenarioSet, vertex_seeds) -> dict:
    """Leader (with duals and marginals), optimal-face gap, scenario table,
    minimax regret, maximin, unconstrained case, both regret matrices,
    random vertices, single objectives and their comparison."""
    eq = cm.solve_stackelberg(instance)
    table = cm.scenario_table(instance, scenarios)
    mmr = cm.solve_minimax_regret(instance, table)
    maximin = cm.solve_maximin(instance, table)
    extras = [("mmr", mmr.strategy.probs), ("maximin", maximin.strategy.probs)]
    strategies = [
        (f"random-{s}", cm.random_vertex_strategy(instance, s).probs) for s in vertex_seeds
    ]
    strategies += [
        (name, cm.single_objective_strategy(instance, name).probs)
        for name in cm.SINGLE_OBJECTIVES
    ]
    return _repr_digests(
        {
            "equilibrium": eq,
            "gap": cm.alternate_optimum_gap(eq.program, eq.solution),
            "table": table,
            "mmr": mmr,
            "maximin": maximin,
            "unconstrained": cm.solve_unconstrained_case(instance),
            "regret_matrix": cm.regret_matrix(instance, table, extras),
            "breach_matrix": cm.breach_regret_matrix(instance, table, extras),
            "comparison": cm.compare_strategies(instance, strategies, eq.evaluations),
        }
    )


def random_pipeline_digest(seed: int) -> dict:
    """The pipeline on random_feasible_instance(seed) at up to three
    random scenario budgets, with five random vertices."""
    rng = np.random.default_rng(seed)
    instance = random_feasible_instance(rng)
    budgets = tuple(sorted({float(k) for k in rng.integers(0, 61, 3)}))
    return _pipeline(instance, cm.ScenarioSet(budgets), range(5))


def reference_session_digest() -> dict:
    """One reference-session operation: the pipeline on the bundled
    scenario, with twenty random vertices."""
    instance, scenarios = cm.load_bundled_scenario()
    return _pipeline(instance, scenarios, range(20))


# past the bundled attacker's saturation: every algorithm's best response
# is the same from 30 on, so the scenario programs at 30-120 are identical
SATURATED_BUDGETS = (20.0, 30.0, 40.0, 60.0, 120.0)


def saturated_session_digest() -> dict:
    """The pipeline on the bundled scenario at SATURATED_BUDGETS, with
    five random vertices."""
    instance, _ = cm.load_bundled_scenario()
    return _pipeline(instance, cm.ScenarioSet(SATURATED_BUDGETS), range(5))


def tie_subgame_digest(seed: int) -> dict:
    """solve_dp, hybrid_plans and the greedy at budgets 0 to 20 on 24
    methods drawn from TIE_PAIRS, with ids in random order."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(1000)[:24]
    pairs = rng.integers(0, len(TIE_PAIRS), ids.size)
    methods = tuple(
        cm.AttackMethod(f"m{i:03d}", *TIE_PAIRS[p]) for i, p in zip(ids.tolist(), pairs.tolist())
    )
    algorithm = cm.EncryptionAlgorithm("ties", 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0, methods)
    params = cm.AttackerParams(value=100.0, budget=0.0)
    budgets = [float(k) for k in range(21)]
    at = [replace(params, budget=k) for k in budgets]
    return _repr_digests(
        {
            "dp": [cm.solve_dp(algorithm, p) for p in at],
            "hybrid": hybrid_plans(algorithm, params, budgets),
            "greedy": [cm.solve_sample_greedy(algorithm, p) for p in at],
        }
    )


def run_subgame_digest(seed: int) -> dict:
    """hybrid_plans and solve_dp (at a cell cap that fits) at budgets 10
    to 60 on runs of equal methods: 250 copies of (0.3, 1.0) for seed 0,
    else four to six runs of 30 to 80 methods drawn from RUN_PAIRS, with
    ids in run order. The whole table fits no budget past about 40, so
    these went to the greedy before equal methods entered the bound as
    counts."""
    rng = np.random.default_rng(seed)
    if seed == 0:
        pairs = [(0.3, 1.0)] * 250
    else:
        pairs = [
            RUN_PAIRS[p]
            for p, length in zip(rng.integers(0, len(RUN_PAIRS), 6), rng.integers(30, 81, 6))
            for _ in range(length)
        ][: int(rng.integers(200, 301))]
    methods = tuple(cm.AttackMethod(f"m{i:03d}", *pair) for i, pair in enumerate(pairs))
    algorithm = cm.EncryptionAlgorithm("runs", 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0, methods)
    params = cm.AttackerParams(value=300.0, budget=0.0)
    budgets = [float(k) for k in range(10, 61, 10)]
    wide = cm.SolverConfig(max_table_cells=10**6)
    return _repr_digests(
        {
            "hybrid": hybrid_plans(algorithm, params, budgets),
            "dp": [cm.solve_dp(algorithm, replace(params, budget=k), wide) for k in budgets],
        }
    )


def entries() -> dict[str, Callable[[Path], dict]]:
    """Every entry by name; each takes an empty working directory."""
    found: dict[str, Callable[[Path], dict]] = {}
    for argv in INVOCATIONS:
        found["cli " + " ".join(argv)] = lambda workdir, argv=argv: cli_digest(argv, workdir)
    for seed in RANDOM_SEEDS:
        found[f"pipeline random-{seed}"] = lambda workdir, seed=seed: random_pipeline_digest(seed)
    found["pipeline reference-session"] = lambda workdir: reference_session_digest()
    found["pipeline reference-saturated"] = lambda workdir: saturated_session_digest()
    for seed in TIE_SEEDS:
        found[f"subgame ties-{seed}"] = lambda workdir, seed=seed: tie_subgame_digest(seed)
    for seed in RUN_SEEDS:
        found[f"subgame runs-{seed}"] = lambda workdir, seed=seed: run_subgame_digest(seed)
    return found


def versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def load() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def dump(stored: dict) -> None:
    DIGESTS.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
