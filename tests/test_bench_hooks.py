"""The library names that the benchmark's tracer and self-test hook into.

`bench/tracer.py` replaces these by name, and `bench/selftest.py` calls
`CoupledMap.evaluate` on 1-D rows. A change that drops one of them, or
narrows `evaluate` to stacks, would break `bench/run.py --trace 1` or the
self-test; it fails here instead, without running the benchmark.
"""

import inspect

import numpy as np
import pytest

from coupledfp import certificate, cli, expressions, get_builtin, maps, parallel

HOOKS = [
    (parallel, "pmap"),
    (parallel, "worker_cap"),
    (certificate, "_alpha_interval"),
    (certificate, "sample_comparable_pairs"),
    (cli, "sample_comparable_pairs"),
    (expressions, "parse_expression"),
    (cli, "main"),
    (maps.CoupledMap, "evaluate"),
    (maps.CoupledMap, "__post_init__"),
]


@pytest.mark.parametrize("owner,name", HOOKS, ids=lambda v: getattr(v, "__name__", v))
def test_hooked_name_is_a_function(owner, name):
    assert inspect.isfunction(vars(owner).get(name))


def test_evaluate_takes_one_row():
    F = get_builtin("linear_demo").map
    image = F.evaluate(np.array([0.5]), np.array([-0.5]))
    assert image.shape == (1,) and image[0] == 0.25
