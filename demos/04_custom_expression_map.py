#!/usr/bin/env python3
"""Define a problem from expression strings instead of Python callables.

The expression language covers + - * /, unary minus, exp/ln/atan/sqrt/abs,
and the variables x1..xd, y1..yd. Configs are plain JSON documents; the same
document drives the CLI:

    coupledfp solve --config my_problem.json --tol 1e-10
"""

import json
import os
import tempfile

from coupledfp import (
    IterationConfig,
    build_problem,
    iterate,
    load_problem,
    mixed_monotone_check,
    parse_expression,
)

# a 2-D map, contractive and mixed monotone on the box
config = {
    "dim": 2,
    "metric": "max",
    "components_F": [
        "0.2*x1 - 0.1*y2 + 0.3",
        "0.25*x2 - 0.15*atan(y1) + 0.1",
    ],
    "domain_box": [-3.0, 3.0],
    "seed": {"x0": [-1.0, -1.0], "y0": [2.0, 2.0]},
    "params": {"alpha": 0.1, "beta": 0.8},
}

prob = build_problem(config)
print(f"built: {prob.name}")

mono = mixed_monotone_check(prob.map, 500, rng_seed=8)
print(f"mixed monotonicity: {mono.violations} violations in {mono.sample_count} samples")

result, _ = iterate(
    prob.space, prob.map, prob.seed.first, prob.seed.second,
    IterationConfig(max_iter=300, tol=1e-12, params=prob.suggested_params),
)
print(f"converged: {result.converged} in {result.iterations_used} steps")
print(f"x* = {result.fixed_pair.first.round(10).tolist()}")
print(f"y* = {result.fixed_pair.second.round(10).tolist()}")
print(f"components equal: {result.components_equal}")

# expressions round-trip through their text form
expr = parse_expression("(x1 - y1)/4", dim=1)
print(f"\nparsed {'(x1 - y1)/4'!r} -> serialized {str(expr)!r}")

# the same config works from a file, as the CLI consumes it
with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
    json.dump(config, fh)
    path = fh.name
prob_again = load_problem(path)
os.remove(path)
print(f"reloaded from {path}: dim={prob_again.space.dim}")
