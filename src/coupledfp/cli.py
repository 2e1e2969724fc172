"""Command-line front end.

Subcommands: solve, certify, estimate, check-monotone, probe-uniqueness,
list-builtins. Exit codes: 0 success, 1 input error, 2 a finding that
falsifies or fails a checked hypothesis (contraction violations, monotone
falsification, non-convergence, infeasible estimate, disagreeing limits),
3 divergence. Reports are human-readable text by default; --json switches
to machine-readable JSON. Output for a fixed invocation and rng seed is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .certificate import certify_region, estimate_params, sample_comparable_pairs
from .errors import CoupledFPError, DivergenceError, InputError
from .iteration import IterationConfig, iterate, uniqueness_probe
from .maps import ContractionParams, mixed_monotone_check
from .problems import BUILTINS, ProblemSpec, get_builtin, load_problem
from .spaces import Pair

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FINDING = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for findings."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(v: float) -> str:
    return format(v, ".12g")


def _vec(arr: np.ndarray) -> str:
    return "[" + ", ".join(_fmt(c) for c in arr) + "]"


def _emit(args, human_lines, payload) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _load_problem(args) -> ProblemSpec:
    if getattr(args, "problem", None) and getattr(args, "config", None):
        raise InputError("give either --problem or --config, not both")
    if getattr(args, "problem", None):
        return get_builtin(args.problem)
    if getattr(args, "config", None):
        return load_problem(args.config)
    raise InputError("a problem is required: --problem NAME or --config PATH")


def _params_from(args, problem: ProblemSpec, required: bool) -> ContractionParams | None:
    has_alpha = args.alpha is not None
    has_beta = args.beta is not None
    if has_alpha != has_beta:
        raise InputError("--alpha and --beta must be given together")
    if has_alpha:
        return ContractionParams(args.alpha, args.beta)
    if problem.suggested_params is not None:
        return problem.suggested_params
    if required:
        raise InputError(
            "this problem carries no suggested params; pass --alpha and --beta"
        )
    return None


def _cmd_solve(args) -> int:
    problem = _load_problem(args)
    params = _params_from(args, problem, required=False)
    config = IterationConfig(max_iter=args.max_iter, tol=args.tol, params=params)
    result, trace = iterate(
        problem.space, problem.map, problem.seed.first, problem.seed.second, config
    )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            trace.write_csv(fh)
    payload = {
        "problem": problem.name,
        "converged": result.converged,
        "iterations_used": result.iterations_used,
        "final_residual": result.final_residual,
        "fixed_x": result.fixed_pair.first.tolist(),
        "fixed_y": result.fixed_pair.second.tolist(),
        "components_equal": result.components_equal,
        "seed_condition_held": result.seed_condition_held,
        "tol": args.tol,
    }
    lines = [
        f"problem: {problem.name}",
        f"converged: {str(result.converged).lower()} "
        f"({result.iterations_used} iterations, residual {_fmt(result.final_residual)})",
        f"fixed pair x: {_vec(result.fixed_pair.first)}",
        f"fixed pair y: {_vec(result.fixed_pair.second)}",
        f"components equal (tol {_fmt(args.tol)}): {str(result.components_equal).lower()}",
        f"seed condition held: {str(result.seed_condition_held).lower()}",
    ]
    if args.trace:
        lines.append(f"trace written to {args.trace}")
    _emit(args, lines, payload)
    return EXIT_OK if result.converged else EXIT_FINDING


def _cmd_certify(args) -> int:
    problem = _load_problem(args)
    params = _params_from(args, problem, required=True)
    report = certify_region(
        problem.space,
        problem.map,
        params,
        region_box=None,
        count=args.samples,
        rng_seed=args.rng_seed,
    )
    payload = {"problem": problem.name, **report.to_jsonable()}
    lines = [
        f"problem: {problem.name}",
        f"params: alpha={_fmt(params.alpha)} beta={_fmt(params.beta)} "
        f"ratio={_fmt(params.ratio)}",
        f"samples evaluated: {report.sample_count}",
        f"violations: {report.violations}",
    ]
    if report.worst_margin is not None:
        lines.append(f"worst margin: {_fmt(report.worst_margin)}")
        worst = report.min_margin_pair
        lines.append(
            f"worst pair: a=({_vec(worst.a.first)}, {_vec(worst.a.second)}) "
            f"b=({_vec(worst.b.first)}, {_vec(worst.b.second)})"
        )
    verdict = (
        "contraction hypothesis FALSIFIED"
        if report.falsified
        else "not falsified at this sample count"
    )
    lines.append(verdict)
    _emit(args, lines, payload)
    return EXIT_FINDING if report.falsified else EXIT_OK


def _cmd_estimate(args) -> int:
    problem = _load_problem(args)
    samples = sample_comparable_pairs(
        problem.space, problem.map, None, args.samples, args.rng_seed
    )
    if not samples:
        raise InputError("estimate needs --samples >= 1")
    estimate = estimate_params(samples)
    payload = {"problem": problem.name, **estimate.to_jsonable()}
    if estimate.feasible:
        lines = [
            f"problem: {problem.name}",
            f"feasible: true (on {estimate.sample_count} samples)",
            f"minimal ratio: {_fmt(estimate.ratio)} (within {_fmt(estimate.ratio_tol)})",
            f"witness: alpha={_fmt(estimate.alpha)} beta={_fmt(estimate.beta)}",
        ]
    else:
        lines = [
            f"problem: {problem.name}",
            f"feasible: false (no admissible params fit {estimate.sample_count} samples)",
        ]
    _emit(args, lines, payload)
    return EXIT_OK if estimate.feasible else EXIT_FINDING


def _cmd_check_monotone(args) -> int:
    problem = _load_problem(args)
    report = mixed_monotone_check(
        problem.space, problem.map, args.samples, args.rng_seed
    )
    payload = {
        "problem": problem.name,
        "sample_count": report.sample_count,
        "violations": report.violations,
        "worst_excess": report.worst_excess,
        "falsified": report.falsified,
    }
    lines = [
        f"problem: {problem.name}",
        f"samples: {report.sample_count}",
        f"violations: {report.violations}",
        f"worst excess: {_fmt(report.worst_excess)}",
        "mixed monotonicity FALSIFIED"
        if report.falsified
        else "not falsified at this sample count",
    ]
    _emit(args, lines, payload)
    return EXIT_FINDING if report.falsified else EXIT_OK


def _cmd_probe_uniqueness(args) -> int:
    problem = _load_problem(args)
    params = _params_from(args, problem, required=False)
    config = IterationConfig(max_iter=args.max_iter, tol=args.tol, params=params)
    seeds = [problem.seed]
    extra = max(0, args.samples - 1)
    if extra:
        rng = np.random.default_rng(args.rng_seed)
        lo, hi = problem.map.lower, problem.map.upper
        draws = rng.uniform(lo, hi, size=(extra, 2, problem.space.dim))
        seeds.extend(Pair(row[0], row[1]) for row in draws)
    report = uniqueness_probe(problem.space, problem.map, seeds, config)
    payload = {
        "problem": problem.name,
        "seeds": len(seeds),
        "all_agree": report.all_agree,
        "max_pairwise_distance": report.max_pairwise_distance,
        "bridges_comparable": all(b.comparable_to_both for b in report.bridges),
        "runs": [
            {
                "seed_x0": r.seed.first.tolist(),
                "seed_y0": r.seed.second.tolist(),
                "converged": bool(r.result.converged) if r.result else False,
                "seed_condition_held": bool(r.result.seed_condition_held)
                if r.result
                else None,
                "error": r.error,
            }
            for r in report.runs
        ],
    }
    lines = [f"problem: {problem.name}", f"seeds probed: {len(seeds)}"]
    for r in report.runs:
        if r.error is not None:
            lines.append(f"  seed {_vec(r.seed.first)}/{_vec(r.seed.second)}: DIVERGED")
        else:
            state = "converged" if r.result.converged else "did not converge"
            flag = "" if r.result.seed_condition_held else " [seed condition failed]"
            lines.append(
                f"  seed {_vec(r.seed.first)}/{_vec(r.seed.second)}: {state}{flag}"
            )
    if report.max_pairwise_distance is not None:
        lines.append(f"max pairwise limit distance: {_fmt(report.max_pairwise_distance)}")
    lines.append(
        f"bridge pairs comparable to both limits: "
        f"{str(all(b.comparable_to_both for b in report.bridges)).lower()}"
    )
    lines.append(
        "limits agree within tol"
        if report.all_agree
        else "limits DISAGREE (or a run failed)"
    )
    _emit(args, lines, payload)
    return EXIT_OK if report.all_agree else EXIT_FINDING


def _cmd_list_builtins(args) -> int:
    specs = [get_builtin(name) for name in sorted(BUILTINS)]
    payload = [spec.describe() for spec in specs]
    lines = []
    for spec in specs:
        p = spec.suggested_params
        lines.append(
            f"{spec.name}: dim={spec.space.dim} metric={spec.space.metric} "
            f"seed=({_vec(spec.seed.first)}, {_vec(spec.seed.second)}) "
            f"params=(alpha={_fmt(p.alpha)}, beta={_fmt(p.beta)})"
        )
    _emit(args, lines, payload)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coupledfp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_params=True, samples_default=None):
        p.add_argument("--problem", help="builtin problem name")
        p.add_argument("--config", help="path to a JSON problem config")
        p.add_argument("--tol", type=float, default=1e-10, help="target residual")
        p.add_argument("--max-iter", type=int, default=200, help="iteration budget")
        if with_params:
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--beta", type=float, default=None)
        if samples_default is not None:
            p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--rng-seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_solve = sub.add_parser("solve", help="run the coupled iteration")
    add_common(p_solve)
    p_solve.add_argument("--trace", help="write the iteration trace CSV here")
    p_solve.set_defaults(handler=_cmd_solve)

    p_certify = sub.add_parser("certify", help="sample the contraction inequality")
    add_common(p_certify, samples_default=10_000)
    p_certify.set_defaults(handler=_cmd_certify)

    p_estimate = sub.add_parser("estimate", help="estimate minimal-ratio params")
    add_common(p_estimate, with_params=False, samples_default=10_000)
    p_estimate.set_defaults(handler=_cmd_estimate)

    p_mono = sub.add_parser("check-monotone", help="sample mixed monotonicity")
    add_common(p_mono, with_params=False, samples_default=1_000)
    p_mono.set_defaults(handler=_cmd_check_monotone)

    p_probe = sub.add_parser(
        "probe-uniqueness", help="iterate from several seeds and compare limits"
    )
    add_common(p_probe, samples_default=3)
    p_probe.set_defaults(handler=_cmd_probe_uniqueness)

    p_list = sub.add_parser("list-builtins", help="show the builtin catalog")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(handler=_cmd_list_builtins)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (InputError, CoupledFPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
