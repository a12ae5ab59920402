"""Command-line front end.

Subcommands: solve-attacker, solve-defender, solve-robust, baselines,
validate. Exit codes: 0 success, 1 parse/validation error,
2 infeasible model, 3 internal error. All output is JSON or CSV with `.`
decimals; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .attacker import (
    SolverConfig,
    solve_brute_force,
    solve_dp,
    solve_hybrid,
    solve_sample_greedy,
)
from .baselines import (
    SINGLE_OBJECTIVES,
    compare_strategies,
    comparison_csv,
    random_vertex_strategy,
    single_objective_strategy,
)
from .defender import evaluate_all, solve_stackelberg
from .errors import (
    BudgetNegative,
    InfeasibleDefender,
    OutputPathError,
    ParseError,
    TableTooLarge,
    TooManyMethods,
    ValidationError,
)
from .io import bundled_scenario_path, load_bundled_scenario, load_scenario, to_payload
from .model import GameInstance, ScenarioSet
from .robust import (
    breach_regret_matrix,
    regret_matrix,
    scenario_table,
    solve_maximin,
    solve_minimax_regret,
    solve_unconstrained_case,
)

INPUT_ERRORS = (
    ParseError,
    ValidationError,
    BudgetNegative,
    TooManyMethods,
    TableTooLarge,
    OutputPathError,
)


def _finite_float(text: str) -> float:
    """argparse type for float options: NaN and infinities are rejected
    here, so the error names the option."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _budget(text: str) -> float:
    """argparse type for --budget: finite, then >= 0, as a scenario file's
    attacker budget."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
    return value


def _value(text: str) -> float:
    """argparse type for --value: finite, then > 0, as a scenario file's
    attacker value."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _finite_floats(text: str) -> tuple[float, ...]:
    """argparse type for a comma-separated list of finite numbers."""
    return tuple(_finite_float(tok) for tok in text.split(","))


def _int_at_least(text: str, low: int, expected: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _cost_scale(text: str) -> int:
    """argparse type for --scale: a positive integer that a float can hold,
    since the DP multiplies float costs and budgets by it. Checked here so
    the error names the option."""
    value = _int_at_least(text, 1, "a positive integer")
    if value > sys.float_info.max:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer within float range, got {text!r}"
        )
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for seeds and sample counts: rejected here unless >= 0."""
    return _int_at_least(text, 0, "a non-negative integer")


def _load(args) -> tuple[GameInstance, Optional[ScenarioSet]]:
    if args.scenario is None:
        return load_bundled_scenario()
    return load_scenario(args.scenario)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _check_out_file(option: str, path: Optional[str]) -> None:
    """Fail before any solving when an output file's directory does not
    exist or the path is a directory."""
    if path is None:
        return
    if os.path.isdir(path):
        raise OutputPathError(f"{option}: {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise OutputPathError(f"{option}: directory {parent} does not exist")


def _save(option: str, path, text: str) -> None:
    """Write an output file; an OSError is the user's path, not a fault."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputPathError(f"{option}: cannot write {path}: {exc.strerror or exc}") from None


def cmd_solve_attacker(args) -> int:
    instance, _ = _load(args)
    try:
        algorithm = instance.algorithm(args.algorithm)
    except KeyError:
        known = ", ".join(a.id for a in instance.algorithms)
        raise ValidationError(
            f"unknown algorithm {args.algorithm!r}; scenario has: {known}"
        ) from None
    params = instance.attacker
    if args.budget is not None:
        params = replace(params, budget=args.budget)
    if args.value is not None:
        params = replace(params, value=args.value)
    config = SolverConfig(cost_scale=args.scale, rng_seed=args.seed)
    if args.solver == "dp":
        plan, tag = solve_dp(algorithm, params, config), "dp"
    elif args.solver == "greedy":
        plan, tag = solve_sample_greedy(algorithm, params, config), "greedy"
    elif args.solver == "brute":
        plan, tag = solve_brute_force(algorithm, params), "brute"
    else:
        result = solve_hybrid(algorithm, params, config)
        plan, tag = result.plan, result.solver
    _emit(
        {
            "algorithm": algorithm.id,
            "budget": params.budget,
            "value": params.value,
            "cost_scale": args.scale,
            "solver": tag,
            "plan": to_payload(plan),
        }
    )
    return 0


def _defender_payload(instance: GameInstance, result) -> dict:
    report = result.report
    return {
        "objective": report.objective,
        "expected_breach": report.expected_breach,
        "support_size": report.support_size,
        "usage": dict(report.usage),
        "binding": list(report.binding_labels),
        "strategy": [
            {"algorithm": alg.id, "prob": p}
            for alg, p in zip(instance.algorithms, report.strategy.probs)
        ],
        "attacks": [
            {
                "algorithm": ev.algorithm_id,
                "solver": ev.solver,
                "utility": ev.utility,
                "plan": to_payload(ev.attack_plan),
            }
            for ev in result.evaluations
        ],
    }


def cmd_solve_defender(args) -> int:
    _check_out_file("--out", args.out)
    instance, _ = _load(args)
    if args.budget is not None:
        instance = replace(instance, attacker=replace(instance.attacker, budget=args.budget))
    result = solve_stackelberg(instance)
    payload = _defender_payload(instance, result)
    if args.csv:
        lines = ["algorithm,prob,utility,breach,methods"]
        for alg, p, ev in zip(
            instance.algorithms, result.report.strategy.probs, result.evaluations
        ):
            methods = ";".join(ev.attack_plan.methods)
            lines.append(
                f"{alg.id},{p!r},{ev.utility!r},{ev.p_succ_star!r},{methods}"
            )
        print("\n".join(lines))
    else:
        _emit(payload)
    if args.out:
        _save("--out", args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_solve_robust(args) -> int:
    out_dir = Path(args.out_dir)
    if args.matrices:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputPathError(
                f"--out-dir: cannot create {out_dir}: {exc.strerror or exc}"
            ) from None
    instance, file_scenarios = _load(args)
    if args.budgets:
        try:
            scenarios = ScenarioSet(budgets=args.budgets)
        except ValueError as exc:
            raise ValidationError(f"--budgets: {exc}") from None
    elif file_scenarios is not None:
        scenarios = file_scenarios
    else:
        raise ValidationError("no scenario budgets: pass --budgets or add scenario_budgets")
    table = scenario_table(instance, scenarios)
    payload: dict = {
        "budgets": list(table.budgets),
        "optima": list(table.optima),
        "optimal_breach": list(table.optimal_breach),
        "mode": args.mode,
    }
    extras: list[tuple[str, Sequence[float]]] = []
    if args.mode == "regret":
        rr = solve_minimax_regret(instance, table)
        payload["strategy"] = list(rr.strategy.probs)
        payload["per_scenario_regret"] = list(rr.per_scenario_regret)
        payload["max_regret"] = rr.max_regret
        extras.append(("mmr", rr.strategy.probs))
    elif args.mode == "maximin":
        report = solve_maximin(instance, table)
        payload["strategy"] = list(report.strategy.probs)
        payload["worst_case_value"] = report.objective
        payload["worst_case_breach"] = report.expected_breach
        extras.append(("maximin", report.strategy.probs))
    else:
        report = solve_unconstrained_case(instance)
        payload["strategy"] = list(report.strategy.probs)
        payload["objective"] = report.objective
        payload["expected_breach"] = report.expected_breach
    if args.matrices:
        utility_m = regret_matrix(instance, table, extras)
        breach_m = breach_regret_matrix(instance, table, extras)
        payload["regret_matrix"] = utility_m.to_dict()
        payload["breach_regret_matrix"] = breach_m.to_dict()
        _save("--out-dir", out_dir / "regret_matrix.csv", utility_m.as_csv())
        _save("--out-dir", out_dir / "breach_regret_matrix.csv", breach_m.as_csv())
    _emit(payload)
    return 0


def cmd_baselines(args) -> int:
    _check_out_file("--out", args.out)
    instance, _ = _load(args)
    evaluations = evaluate_all(instance)
    strategies: list[tuple[str, Sequence[float]]] = []
    for i in range(args.samples):
        seed = args.seed + i
        strategies.append((f"random-{seed}", random_vertex_strategy(instance, seed).probs))
    for objective in SINGLE_OBJECTIVES:
        strategies.append((objective, single_objective_strategy(instance, objective).probs))
    rows = compare_strategies(instance, strategies, evaluations)
    text = comparison_csv(rows)
    sys.stdout.write(text)
    if args.out:
        _save("--out", args.out, text)
    return 0


def cmd_validate(args) -> int:
    instance, scenarios = _load(args)
    _emit(
        {
            "ok": True,
            "algorithms": len(instance.algorithms),
            "attack_methods": sum(len(a.attacks) for a in instance.algorithms),
            "scenario_budgets": list(scenarios.budgets) if scenarios else [],
        }
    )
    return 0


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default=None,
        help=f"scenario JSON file (default: bundled {bundled_scenario_path().name})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptomix",
        description="Stackelberg solvers for mixing encryption algorithms "
        "against a budgeted attacker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-attacker", help="best attack plan against one algorithm")
    _add_scenario_arg(p)
    p.add_argument("--algorithm", required=True, help="algorithm id from the scenario")
    p.add_argument("--budget", type=_budget, default=None)
    p.add_argument("--value", type=_value, default=None)
    p.add_argument("--solver", choices=("dp", "greedy", "hybrid", "brute"), default="hybrid")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="greedy coin seed")
    p.add_argument("--scale", type=_cost_scale, default=10, help="DP cost discretization")
    p.set_defaults(func=cmd_solve_attacker)

    p = sub.add_parser("solve-defender", help="equilibrium mixed deployment strategy")
    _add_scenario_arg(p)
    p.add_argument(
        "--budget", type=_budget, default=None, help="override attacker budget"
    )
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.add_argument("--csv", action="store_true", help="per-algorithm CSV instead of JSON")
    p.set_defaults(func=cmd_solve_defender)

    p = sub.add_parser("solve-robust", help="budget-uncertain strategies and matrices")
    _add_scenario_arg(p)
    p.add_argument(
        "--budgets", type=_finite_floats, default=None, help="comma-separated scenario budgets"
    )
    p.add_argument("--mode", choices=("regret", "maximin", "unconstrained"), default="regret")
    p.add_argument("--matrices", action="store_true", help="write regret matrix CSVs")
    p.add_argument("--out-dir", default=".", help="directory for matrix CSVs")
    p.set_defaults(func=cmd_solve_robust)

    p = sub.add_parser("baselines", help="compare heuristic strategies to the optimum")
    _add_scenario_arg(p)
    p.add_argument("--samples", type=_non_negative_int, default=50, help="random vertex count")
    p.add_argument(
        "--seed", type=_non_negative_int, default=0, help="base seed for random vertices"
    )
    p.add_argument("--out", default=None, help="also write the CSV here")
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("validate", help="check a scenario file")
    _add_scenario_arg(p)
    p.set_defaults(func=cmd_validate)

    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the input-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleDefender as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
