import inspect
import json
import tracemalloc

import numpy as np
import pytest

from coupledfp import (
    BUILTINS,
    ContractionParams,
    InputError,
    IterationConfig,
    Pair,
    build_problem,
    check_seed_condition,
    distance,
    evaluate_samples,
    get_builtin,
    iterate,
    load_problem,
    mixed_monotone_check,
    product_leq,
    uniqueness_probe,
)
from coupledfp import problems
from coupledfp.certificate import sample_comparable_pairs


class TestCatalog:
    def test_names(self):
        assert set(BUILTINS) == {"linear_demo", "affine_demo", "integral_demo"}

    def test_linear_expected(self, linear):
        assert linear.expected_fixed_pair.first[0] == 0.0

    def test_affine_expected(self, affine):
        assert affine.expected_fixed_pair.first[0] == pytest.approx(12 / 11, rel=1e-15)

    def test_unknown_builtin(self):
        with pytest.raises(InputError, match="unknown builtin"):
            get_builtin("nonexistent")

    def test_integral_dim_override(self):
        prob = get_builtin("integral_demo", dim=8)
        assert prob.space.dim == 8

    def test_dim_override_rejected_elsewhere(self):
        with pytest.raises(InputError):
            get_builtin("linear_demo", dim=2)

    def test_all_builtins_satisfy_seed_condition(self):
        for name in BUILTINS:
            prob = get_builtin(name)
            assert check_seed_condition(
                prob.space, prob.map, prob.seed.first, prob.seed.second
            ), name

    def test_no_builtin_falsified(self):
        for name in BUILTINS:
            prob = get_builtin(name)
            report = mixed_monotone_check(prob.map, 1000, rng_seed=2024)
            assert report.violations == 0, name


class TestIntegralDemo:
    def test_seed_condition_bounds(self, integral):
        # F(0-vec, 1-vec) >= 1/8 coordinatewise and F(1-vec, 0-vec) <= 3/8
        F = integral.map
        n = integral.space.dim
        up = F.evaluate(np.zeros(n), np.ones(n))
        down = F.evaluate(np.ones(n), np.zeros(n))
        assert np.all(up >= 1 / 8 - 1e-15)
        assert np.all(down <= 3 / 8 + 1e-15)

    def test_lipschitz_bound_on_comparable_pairs(self, integral):
        # |F(x,y) - F(u,v)|_inf <= (1/4)(|x-u|_inf + |y-v|_inf), the bound
        # that makes beta = 1/2 certify with any small alpha
        space, F = integral.space, integral.map
        samples = sample_comparable_pairs(space, F, 200, rng_seed=99)
        for s in samples:
            lhs = distance(
                space, F.evaluate(s.a.first, s.a.second), F.evaluate(s.b.first, s.b.second)
            )
            rhs = 0.25 * (
                distance(space, s.a.first, s.b.first)
                + distance(space, s.a.second, s.b.second)
            )
            assert lhs <= rhs + 1e-12


def integral_reference(n_nodes, X, Y):
    """0.25 + scale * (kernel @ d), one row at a time, as the operator reads."""
    nodes = np.arange(n_nodes) / n_nodes
    kernel = np.exp(-np.abs(nodes[:, None] - nodes[None, :]))
    scale = 1.0 / (4.0 * n_nodes)

    def squash(v):
        return v / (1.0 + np.abs(v))

    return np.array([0.25 + scale * (kernel @ (squash(x) - squash(y))) for x, y in zip(X, Y)])


def sharing_stack(rng, n):
    """(X, Y) rows whose d = s(x) - s(y) repeat, negate or nearly match each other."""
    x, y, u, v = rng.uniform(-2.0, 2.0, size=(4, n))
    zero = np.zeros(n)
    # s(1) = 0.5, so these rows' sums of |d| are exact and a permutation of
    # a row has the same sum.
    p = np.resize([1.0, 1.0, 0.0, -1.0], n)
    rows = [
        (x, y), (u, v), (y, x), (v, u),  # swapped pairs
        (x, y), (v, u),  # exact repeats
        (u, u), (zero, zero),  # x == y
        (np.where(np.arange(n) % 2, -0.0, 0.0), zero),  # d of -0.0 and +0.0
        (zero, np.full(n, -0.0)),
        (p, zero), (zero, p),
        (np.where(p == 0.0, -0.0, p), zero),  # a repeat up to the sign of a zero
        (np.roll(p, 1), zero),  # a permutation: same fingerprint, no share
        (p * np.resize([1.0, -1.0], n), zero),  # same |d|, some signs flipped
    ]
    order = rng.permutation(len(rows))
    return tuple(np.array([rows[k][j] for k in order]) for j in (0, 1))


@pytest.fixture
def kernel_rows(monkeypatch):
    """Rows each integral_demo kernel product is run on, one entry per call."""
    counts = []
    product = problems._kernel_product

    def counting(kernel, d):
        counts.append(len(d))
        return product(kernel, d)

    monkeypatch.setattr(problems, "_kernel_product", counting)
    return counts


class TestIntegralSharedProducts:
    """One kernel product per distinct row of s(x) - s(y) up to sign, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 16, 37, 64, 100, 256, 1024])
    def test_kernel_built_in_place_matches_reference(self, n):
        evaluator = get_builtin("integral_demo", n).map.evaluator
        kernel = inspect.getclosurevars(evaluator).nonlocals["kernel"]
        t = np.arange(n) / n
        assert kernel.tobytes() == np.exp(-np.abs(t[:, None] - t[None, :])).tobytes()

    @pytest.mark.parametrize("n", [1024, 1000], ids=["dyadic", "outer"])
    def test_kernel_build_holds_one_square_buffer(self, n):
        # Both builds make one N x N buffer and no N x N temporary; the rest
        # of the peak is the spec's own N-length arrays and a few more.
        problems.integral_demo(n)
        tracemalloc.start()
        try:
            problems.integral_demo(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * n * n < peak < 8 * n * n + 24 * 8 * n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 16, 37, 64, 100, 256, 1024])
    def test_stacks_match_per_row_reference(self, n):
        F = get_builtin("integral_demo", n).map
        rng = np.random.default_rng(n)
        for _ in range(3):
            X, Y = sharing_stack(rng, n)
            expected = integral_reference(n, X, Y).tobytes()
            assert F.evaluator(X, Y).tobytes() == expected
            assert F.evaluate_rows(X, Y).tobytes() == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 16, 37, 64, 100, 256, 1024])
    def test_one_row_matches_reference(self, n):
        F = get_builtin("integral_demo", n).map
        X, Y = sharing_stack(np.random.default_rng(n), n)
        for x, y, expected in zip(X, Y, integral_reference(n, X, Y)):
            assert F.evaluator(x[None], y[None]).tobytes() == expected.tobytes()
            assert F.evaluate(x, y).tobytes() == expected.tobytes()

    def test_certify_runs_half_the_map_rows(self, kernel_rows):
        spec = get_builtin("integral_demo", 16)
        samples = sample_comparable_pairs(spec.space, spec.map, 2500, rng_seed=3)
        evaluate_samples(ContractionParams(0.05, 0.5), samples)
        assert sum(kernel_rows) == 2 * 2500
        assert len(kernel_rows) == 3  # blocks of 1024 samples

    @pytest.mark.parametrize("seeds", [1, 5])
    def test_iteration_step_runs_one_row_per_seed(self, kernel_rows, seeds):
        spec = get_builtin("integral_demo", 16)
        rng = np.random.default_rng(seeds)
        pairs = [spec.seed] + [Pair(*rng.uniform(-2.0, 2.0, (2, 16))) for _ in range(seeds - 1)]
        totals = []
        for max_iter in (1, 4):
            kernel_rows.clear()
            config = IterationConfig(max_iter=max_iter, tol=1e-300)
            if seeds == 1:
                iterate(spec.space, spec.map, spec.seed.first, spec.seed.second, config)
            else:
                uniqueness_probe(spec.space, spec.map, pairs, config)
            totals.append(sum(kernel_rows))
        # seed check (whose images are step 0's) + max_iter - 1 further
        # steps + final iterate, one row each per seed
        assert totals == [2 * seeds, 5 * seeds]

    def test_monotone_check_shares_nothing(self, kernel_rows):
        spec = get_builtin("integral_demo", 16)
        mixed_monotone_check(spec.map, sample_count=300, rng_seed=5)
        assert kernel_rows == [4 * 300]


class TestBuildProblem:
    def test_builtin_passthrough(self):
        prob = build_problem({"builtin": "linear_demo"})
        assert prob.name == "linear_demo"
        assert prob.expected_fixed_pair is not None

    def test_builtin_with_overrides(self):
        prob = build_problem(
            {
                "builtin": "linear_demo",
                "seed": {"x0": [-0.5], "y0": [0.5]},
                "params": {"alpha": 0.2, "beta": 0.5},
            }
        )
        assert prob.seed.first[0] == -0.5
        assert prob.suggested_params.alpha == 0.2

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError, match="unknown config fields"):
            build_problem({"builtin": "linear_demo", "retries": 3})

    def test_unknown_param_field_rejected(self):
        with pytest.raises(InputError, match="unknown params fields"):
            build_problem(
                {"builtin": "linear_demo", "params": {"alpha": 0.1, "beta": 0.5, "g": 1}}
            )

    def test_builtin_rejects_custom_fields(self):
        with pytest.raises(InputError):
            build_problem({"builtin": "linear_demo", "metric": "max"})

    def test_custom_expression_problem(self):
        prob = build_problem(
            {
                "dim": 1,
                "metric": "euclidean",
                "components_F": ["(x1 - y1)/4"],
                "domain_box": [-2.0, 2.0],
                "seed": {"x0": [-1.0], "y0": [1.0]},
                "params": {"alpha": 0.1, "beta": 0.5},
            }
        )
        assert prob.map.evaluate([-1.0], [1.0])[0] == -0.5

    def test_custom_needs_seed(self):
        with pytest.raises(InputError, match="seed"):
            build_problem({"dim": 1, "components_F": ["x1"]})

    def test_component_count_must_match_dim(self):
        with pytest.raises(InputError, match="exactly 2"):
            build_problem(
                {"dim": 2, "components_F": ["x1"], "seed": {"x0": [0, 0], "y0": [1, 1]}}
            )

    def test_seed_outside_box_rejected(self):
        with pytest.raises(InputError, match="outside"):
            build_problem(
                {
                    "dim": 1,
                    "components_F": ["x1"],
                    "domain_box": [-1.0, 1.0],
                    "seed": {"x0": [5.0], "y0": [0.0]},
                }
            )

    def test_per_coordinate_box(self):
        prob = build_problem(
            {
                "dim": 2,
                "components_F": ["x1 - y2", "x2"],
                "domain_box": [[-1, 1], [-2, 2]],
                "seed": {"x0": [0, 0], "y0": [0, 1]},
            }
        )
        assert prob.map.lower.tolist() == [-1.0, -2.0]
        described = prob.describe()
        assert described["params"] is None and described["expected_fixed_pair"] is None

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"builtin": "affine_demo"}))
        prob = load_problem(path)
        assert prob.name == "affine_demo"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InputError, match="malformed"):
            load_problem(path)


class TestSamplerOnBuiltins:
    def test_pairs_are_ordered(self, linear):
        samples = sample_comparable_pairs(linear.space, linear.map, 100, 7)
        for s in samples:
            assert product_leq(linear.space, s.b, s.a)
