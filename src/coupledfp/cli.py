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
import math
import sys

import numpy as np

from .certificate import certify_region, estimate_params, sample_comparable_pairs
from .errors import CoupledFPError, DivergenceError, InputError
from .iteration import IterationConfig, iterate, uniqueness_probe
from .maps import ContractionParams, _box_width, _uniform_in_box, mixed_monotone_check
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


_quote = json.encoder.encode_basestring_ascii


def _float_leaf(v: float) -> str:
    return float.__repr__(v) if math.isfinite(v) else json.dumps(v)


# The text json.dumps gives a leaf of each exact type; any other leaf,
# a subclass included, goes through json.dumps itself.
_LEAVES = {
    str: _quote,
    float: _float_leaf,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}
# Number lists up to this long are cheaper to write leaf by leaf than in one
# json.dumps call.
_LEAF_BY_LEAF = 8


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for str-keyed payloads.

    ``indent=2`` makes json run its pure-Python encoder on every leaf. Here
    each leaf is written by the encoder json uses for its type (`_LEAVES`),
    and each long list of plain floats and ints as a whole by the C
    encoder, so the text is the same.
    """
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{_quote(k)}: {_dumps(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        if len(value) > _LEAF_BY_LEAF and {float, int}.issuperset(map(type, value)):
            # A number's text holds no ", ", so this splits at separators only.
            items = json.dumps(value)[1:-1].split(", ")
        else:
            items = [_dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def _load_problem(args) -> ProblemSpec:
    if args.problem and args.config:
        raise InputError("give either --problem or --config, not both")
    if args.problem:
        return get_builtin(args.problem)
    if args.config:
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


def _cmd_solve(args, problem):
    params = _params_from(args, problem, required=False)
    config = IterationConfig(max_iter=args.max_iter, tol=args.tol, params=params)
    result, trace = iterate(
        problem.space, problem.map, problem.seed.first, problem.seed.second, config
    )
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                trace.write_csv(fh)
        except OSError as exc:
            raise InputError(f"cannot write trace {args.trace}: {exc.strerror}") from exc
    payload = {
        "converged": result.converged,
        "iterations_used": result.iterations_used,
        "final_residual": result.final_residual,
        "fixed_x": result.fixed_pair.first.tolist(),
        "fixed_y": result.fixed_pair.second.tolist(),
        "components_equal": result.components_equal,
        "seed_condition_held": result.seed_condition_held,
        "tol": args.tol,
    }

    def text():
        yield (
            f"converged: {str(result.converged).lower()} "
            f"({result.iterations_used} iterations, residual {_fmt(result.final_residual)})"
        )
        yield f"fixed pair x: {_vec(result.fixed_pair.first)}"
        yield f"fixed pair y: {_vec(result.fixed_pair.second)}"
        yield f"components equal (tol {_fmt(args.tol)}): {str(result.components_equal).lower()}"
        yield f"seed condition held: {str(result.seed_condition_held).lower()}"
        if args.trace:
            yield f"trace written to {args.trace}"

    return (EXIT_OK if result.converged else EXIT_FINDING), payload, text


def _cmd_certify(args, problem):
    params = _params_from(args, problem, required=True)
    report = certify_region(
        problem.space, problem.map, params, count=args.samples, rng_seed=args.rng_seed
    )
    payload = report.to_jsonable()

    def text():
        yield (
            f"params: alpha={_fmt(params.alpha)} beta={_fmt(params.beta)} "
            f"ratio={_fmt(params.ratio)}"
        )
        yield f"samples evaluated: {report.sample_count}"
        yield f"violations: {report.violations}"
        if report.worst_margin is not None:
            yield f"worst margin: {_fmt(report.worst_margin)}"
            worst = report.min_margin_pair
            yield (
                f"worst pair: a=({_vec(worst.a.first)}, {_vec(worst.a.second)}) "
                f"b=({_vec(worst.b.first)}, {_vec(worst.b.second)})"
            )
        if report.falsified:
            yield "contraction hypothesis FALSIFIED"
        else:
            yield "not falsified at this sample count"

    return (EXIT_FINDING if report.falsified else EXIT_OK), payload, text


def _cmd_estimate(args, problem):
    samples = sample_comparable_pairs(problem.space, problem.map, args.samples, args.rng_seed)
    estimate = estimate_params(samples)
    payload = estimate.to_jsonable()

    def text():
        if estimate.feasible:
            yield f"feasible: true (on {estimate.sample_count} samples)"
            yield f"minimal ratio: {_fmt(estimate.ratio)} (within {_fmt(estimate.ratio_tol)})"
            yield f"witness: alpha={_fmt(estimate.alpha)} beta={_fmt(estimate.beta)}"
        else:
            yield f"feasible: false (no admissible params fit {estimate.sample_count} samples)"

    return (EXIT_OK if estimate.feasible else EXIT_FINDING), payload, text


def _cmd_check_monotone(args, problem):
    report = mixed_monotone_check(problem.map, args.samples, args.rng_seed)
    payload = {
        "sample_count": report.sample_count,
        "violations": report.violations,
        "worst_excess": report.worst_excess,
        "falsified": report.falsified,
    }

    def text():
        yield f"samples: {report.sample_count}"
        yield f"violations: {report.violations}"
        yield f"worst excess: {_fmt(report.worst_excess)}"
        if report.falsified:
            yield "mixed monotonicity FALSIFIED"
        else:
            yield "not falsified at this sample count"

    return (EXIT_FINDING if report.falsified else EXIT_OK), payload, text


def _cmd_probe_uniqueness(args, problem):
    params = _params_from(args, problem, required=False)
    config = IterationConfig(max_iter=args.max_iter, tol=args.tol, params=params)
    seeds = [problem.seed]
    extra = args.samples - 1
    if extra:
        rng = np.random.default_rng(args.rng_seed)
        width = _box_width(problem.map, problem.space)  # limits are compared by distance
        draws = _uniform_in_box(problem.map, rng, (extra, 2, problem.space.dim), width)
        seeds.extend(Pair(row[0], row[1]) for row in draws)
    report = uniqueness_probe(problem.space, problem.map, seeds, config)
    payload = {
        "seeds": len(seeds),
        "all_agree": report.all_agree,
        "max_pairwise_distance": report.max_pairwise_distance,
        "bridges_comparable": report.bridge_comparable,
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

    def text():
        yield f"seeds probed: {len(seeds)}"
        for r in report.runs:
            seed = f"  seed {_vec(r.seed.first)}/{_vec(r.seed.second)}"
            if r.error is not None:
                yield f"{seed}: DIVERGED"
            else:
                state = "converged" if r.result.converged else "did not converge"
                flag = "" if r.result.seed_condition_held else " [seed condition failed]"
                yield f"{seed}: {state}{flag}"
        if report.max_pairwise_distance is not None:
            yield f"max pairwise limit distance: {_fmt(report.max_pairwise_distance)}"
        yield f"bridge pairs comparable to both limits: {str(report.bridge_comparable).lower()}"
        if report.all_agree:
            yield "limits agree within tol"
        else:
            yield "limits DISAGREE (or a run failed)"

    return (EXIT_OK if report.all_agree else EXIT_FINDING), payload, text


def _cmd_list_builtins(args):
    specs = [get_builtin(name) for name in sorted(BUILTINS)]
    payload = [spec.describe() for spec in specs]

    def text():
        for spec in specs:
            p = spec.suggested_params
            yield (
                f"{spec.name}: dim={spec.space.dim} metric={spec.space.metric} "
                f"seed=({_vec(spec.seed.first)}, {_vec(spec.seed.second)}) "
                f"params=(alpha={_fmt(p.alpha)}, beta={_fmt(p.beta)})"
            )

    return EXIT_OK, payload, text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coupledfp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_params=True, samples_default=None, iterates=False):
        p.add_argument("--problem", help="builtin problem name")
        p.add_argument("--config", help="path to a JSON problem config")
        if iterates:
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
    add_common(p_solve, iterates=True)
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
    add_common(p_probe, samples_default=3, iterates=True)
    p_probe.set_defaults(handler=_cmd_probe_uniqueness)

    p_list = sub.add_parser("list-builtins", help="show the builtin catalog")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(handler=_cmd_list_builtins)

    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    Every subcommand but list-builtins gets its problem loaded here, and its
    name goes into both outputs: the "problem" key of the JSON payload and
    the first text line. Each handler returns (exit code, JSON payload,
    text), where text is a zero-argument generator of the report's lines.
    Only here is one of the two chosen and printed, so under --json no text
    is formatted.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "rng_seed", 0) < 0:
            raise InputError(f"--rng-seed must be >= 0, got {args.rng_seed}")
        if getattr(args, "samples", 1) < 1:
            raise InputError(f"{args.command} needs --samples >= 1")
        head = []
        if args.command == "list-builtins":
            code, payload, text = args.handler(args)
        else:
            problem = _load_problem(args)
            code, payload, text = args.handler(args, problem)
            payload = {"problem": problem.name, **payload}
            head = [f"problem: {problem.name}"]
        print(_dumps(payload) if args.json else "\n".join([*head, *text()]))
        return code
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
