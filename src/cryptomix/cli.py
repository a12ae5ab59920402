"""Command-line front end.

Subcommands: solve-attacker, solve-defender, solve-robust, baselines,
validate. Exit codes: 0 success, 1 parse/validation error or a standard
output that cannot be written (a closed pipe), 2 LP infeasible or a HiGHS
model error, 3 internal error. All output is JSON or CSV with `.`
decimals; diagnostics go to stderr.

At module level this imports only the stdlib, errors, io and model. Each
cmd_* reads its solvers from the lazy package (cm.solve_stackelberg),
whose _EXPORTS table loads a name's layer at its first read, so
`validate` and `--help` load no numpy and `solve-attacker` no LP layer.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import cryptomix as cm

from .errors import (
    BudgetNegative,
    InfeasibleDefender,
    OutputPathError,
    ParseError,
    TableTooLarge,
    TooManyMethods,
    ValidationError,
)
from .io import bundled_scenario_path, load_scenario, to_payload
from .model import GameInstance, ScenarioSet

INPUT_ERRORS = (
    ParseError,
    ValidationError,
    BudgetNegative,
    TooManyMethods,
    TableTooLarge,
    OutputPathError,
)


def _option(convert, *rules):
    """An argparse type that converts the text, then checks each (test,
    expected) rule in order, so the error names the option. Text that does
    not convert breaks the first rule."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        for test, expected in rules:
            if value is None or not test(value):
                raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


# NaN and infinities are rejected first; --budget and --value then follow
# a scenario file's attacker budget and value
_FINITE = (math.isfinite, "a finite number")
_finite_float = _option(float, _FINITE)
_budget = _option(float, _FINITE, (lambda v: v >= 0, "a non-negative number"))
_value = _option(float, _FINITE, (lambda v: v > 0, "a positive number"))
# the DP multiplies float costs and budgets by --scale, so a float must hold it
_cost_scale = _option(
    int,
    (lambda v: v >= 1, "a positive integer"),
    (lambda v: v <= sys.float_info.max, "a positive integer within float range"),
)
_non_negative_int = _option(int, (lambda v: v >= 0, "a non-negative integer"))


def _finite_floats(text: str) -> tuple[float, ...]:
    """argparse type for a comma-separated list of finite numbers."""
    return tuple(_finite_float(tok) for tok in text.split(","))


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
    instance, _ = load_scenario(args.scenario)
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
    config = cm.SolverConfig(cost_scale=args.scale, rng_seed=args.seed)
    if args.solver == "dp":
        plan, tag = cm.solve_dp(algorithm, params, config), "dp"
    elif args.solver == "greedy":
        plan, tag = cm.solve_sample_greedy(algorithm, params, config), "greedy"
    elif args.solver == "brute":
        plan, tag = cm.solve_brute_force(algorithm, params), "brute"
    else:
        result = cm.solve_hybrid(algorithm, params, config)
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
    instance, _ = load_scenario(args.scenario)
    if args.budget is not None:
        instance = replace(instance, attacker=replace(instance.attacker, budget=args.budget))
    result = cm.solve_stackelberg(instance)
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
    instance, file_scenarios = load_scenario(args.scenario)
    if args.budgets:
        try:
            scenarios = ScenarioSet(budgets=args.budgets)
        except ValueError as exc:
            raise ValidationError(f"--budgets: {exc}") from None
    elif file_scenarios is not None:
        scenarios = file_scenarios
    else:
        raise ValidationError("no scenario budgets: pass --budgets or add scenario_budgets")
    # made once the input is read, so that rejected input leaves no
    # directory behind, and before any solve
    out_dir = Path(args.out_dir)
    if args.matrices:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputPathError(
                f"--out-dir: cannot create {out_dir}: {exc.strerror or exc}"
            ) from None
    table = cm.scenario_table(instance, scenarios)
    payload: dict = {
        "budgets": list(table.budgets),
        "optima": list(table.optima),
        "optimal_breach": list(table.optimal_breach),
        "mode": args.mode,
    }
    extras: list[tuple[str, Sequence[float]]] = []
    if args.mode == "regret":
        rr = cm.solve_minimax_regret(instance, table)
        payload["strategy"] = list(rr.strategy.probs)
        payload["per_scenario_regret"] = list(rr.per_scenario_regret)
        payload["max_regret"] = rr.max_regret
        extras.append(("mmr", rr.strategy.probs))
    elif args.mode == "maximin":
        report = cm.solve_maximin(instance, table)
        payload["strategy"] = list(report.strategy.probs)
        payload["worst_case_value"] = report.objective
        payload["worst_case_breach"] = report.expected_breach
        extras.append(("maximin", report.strategy.probs))
    else:
        report = cm.solve_unconstrained_case(instance)
        payload["strategy"] = list(report.strategy.probs)
        payload["objective"] = report.objective
        payload["expected_breach"] = report.expected_breach
    if args.matrices:
        utility_m = cm.regret_matrix(instance, table, extras)
        breach_m = cm.breach_regret_matrix(instance, table, extras)
        payload["regret_matrix"] = utility_m.to_dict()
        payload["breach_regret_matrix"] = breach_m.to_dict()
        _save("--out-dir", out_dir / "regret_matrix.csv", utility_m.as_csv())
        _save("--out-dir", out_dir / "breach_regret_matrix.csv", breach_m.as_csv())
    _emit(payload)
    return 0


def cmd_baselines(args) -> int:
    _check_out_file("--out", args.out)
    instance, _ = load_scenario(args.scenario)
    evaluations = cm.evaluate_all(instance)
    strategies: list[tuple[str, Sequence[float]]] = []
    for i in range(args.samples):
        seed = args.seed + i
        strategies.append((f"random-{seed}", cm.random_vertex_strategy(instance, seed).probs))
    for objective in cm.SINGLE_OBJECTIVES:
        strategies.append((objective, cm.single_objective_strategy(instance, objective).probs))
    rows = cm.compare_strategies(instance, strategies, evaluations)
    text = cm.comparison_csv(rows)
    sys.stdout.write(text)
    if args.out:
        _save("--out", args.out, text)
    return 0


def cmd_validate(args) -> int:
    instance, scenarios = load_scenario(args.scenario)
    _emit(
        {
            "ok": True,
            "algorithms": len(instance.algorithms),
            "attack_methods": sum(len(a.attacks) for a in instance.algorithms),
            "scenario_budgets": list(scenarios.budgets) if scenarios else [],
        }
    )
    return 0


def _add_scenario_arg(parser: argparse.ArgumentParser, bundled: Path) -> None:
    parser.add_argument(
        "--scenario",
        default=bundled,
        help=f"scenario JSON file (default: bundled {bundled.name})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptomix",
        description="Stackelberg solvers for mixing encryption algorithms "
        "against a budgeted attacker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bundled = bundled_scenario_path()

    p = sub.add_parser("solve-attacker", help="best attack plan against one algorithm")
    _add_scenario_arg(p, bundled)
    p.add_argument("--algorithm", required=True, help="algorithm id from the scenario")
    p.add_argument("--budget", type=_budget, default=None)
    p.add_argument("--value", type=_value, default=None)
    p.add_argument("--solver", choices=("dp", "greedy", "hybrid", "brute"), default="hybrid")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="greedy coin seed")
    p.add_argument("--scale", type=_cost_scale, default=10, help="DP cost discretization")
    p.set_defaults(func=cmd_solve_attacker)

    p = sub.add_parser("solve-defender", help="equilibrium mixed deployment strategy")
    _add_scenario_arg(p, bundled)
    p.add_argument(
        "--budget", type=_budget, default=None, help="override attacker budget"
    )
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.add_argument("--csv", action="store_true", help="per-algorithm CSV instead of JSON")
    p.set_defaults(func=cmd_solve_defender)

    p = sub.add_parser("solve-robust", help="budget-uncertain strategies and matrices")
    _add_scenario_arg(p, bundled)
    p.add_argument(
        "--budgets", type=_finite_floats, default=None, help="comma-separated scenario budgets"
    )
    p.add_argument("--mode", choices=("regret", "maximin", "unconstrained"), default="regret")
    p.add_argument("--matrices", action="store_true", help="write regret matrix CSVs")
    p.add_argument("--out-dir", default=".", help="directory for matrix CSVs")
    p.set_defaults(func=cmd_solve_robust)

    p = sub.add_parser("baselines", help="compare heuristic strategies to the optimum")
    _add_scenario_arg(p, bundled)
    p.add_argument("--samples", type=_non_negative_int, default=50, help="random vertex count")
    p.add_argument(
        "--seed", type=_non_negative_int, default=0, help="base seed for random vertices"
    )
    p.add_argument("--out", default=None, help="also write the CSV here")
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("validate", help="check a scenario file")
    _add_scenario_arg(p, bundled)
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
        code = args.func(args)
        # a closed pipe shows at the flush where the output fits the buffer
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        print("error: cannot write standard output: the pipe is closed", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleDefender as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    """The console script: one command, then the process exits.

    The cyclic garbage collector is off for the whole command: a run leaves
    the same few hundred unreachable objects (mostly argparse's parser
    graph) whatever the scenario's size, so in a process that exits right
    after, collecting them only costs time, some 29 collections in numpy's
    import alone. run_cli leaves the collector as it finds it.
    """
    gc.disable()
    code = run_cli(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # output left in the buffer by a failed run_cli, or by --help; as in
        # the Python docs' note on SIGPIPE, point standard output at devnull
        # so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = code or 1
    sys.exit(code)


if __name__ == "__main__":
    main()
