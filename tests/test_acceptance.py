"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come. Every tolerance is pinned here; nothing is calibrated at runtime.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from coupledfp import (
    ContractionParams,
    CoupledMap,
    IterationConfig,
    Pair,
    apriori_gap_bound,
    apriori_iteration_count,
    certify_region,
    check_monotone_chain,
    check_seed_condition,
    comparable,
    dass_gupta_margin,
    directed_pairs,
    distance,
    estimate_params,
    evaluate_samples,
    explicit_pairs,
    get_builtin,
    iterate,
    leq,
    mixed_monotone_check,
    sample_comparable_pairs,
    uniqueness_probe,
)
from test_certificate import grid_minimal_ratio


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d}: FAIL - {title}")
        raise
    print(f"[acceptance] criterion {number:02d}: PASS - {title}")


def test_criterion_01_linear_convergence_and_gap_bounds():
    with criterion(1, "linear_demo: dyadic gaps under the geometric bounds"):
        prob = get_builtin("linear_demo")
        params = ContractionParams(0.1, 0.5)
        config = IterationConfig(max_iter=40, tol=1e-10, params=params)
        result, trace = iterate(prob.space, prob.map, [-1.0], [1.0], config)

        assert result.converged
        assert result.iterations_used <= 40
        assert abs(result.fixed_pair.first[0]) <= 1e-10
        assert abs(result.fixed_pair.second[0]) <= 1e-10

        d0 = trace.initial_mean_gap()
        assert d0 == 0.5
        for e in trace:
            expected_gap = 2.0 ** -(e.n + 1)
            assert abs(e.gap_x - expected_gap) <= 1e-12
            assert abs(e.gap_y - expected_gap) <= 1e-12
            bound = apriori_gap_bound(params, d0, e.n)
            assert bound - e.gap_x >= -1e-12
            assert bound - e.gap_y >= -1e-12


def test_criterion_02_affine_component_equality():
    with criterion(2, "affine_demo: converges to (12/11, 12/11) with equal components"):
        prob = get_builtin("affine_demo")
        config = IterationConfig(max_iter=100, tol=1e-8, params=prob.suggested_params)
        result, _ = iterate(prob.space, prob.map, [0.0], [3.0], config)

        assert result.converged
        assert result.iterations_used <= 100
        assert result.fixed_pair.first[0] == pytest.approx(12 / 11, abs=1e-8)
        assert result.fixed_pair.second[0] == pytest.approx(12 / 11, abs=1e-8)
        assert result.components_equal


def test_criterion_03_monotone_chain_suite():
    with criterion(3, "all builtins: seed condition, monotone chain, ordered components"):
        for name in ("linear_demo", "affine_demo", "integral_demo"):
            prob = get_builtin(name)
            assert check_seed_condition(
                prob.space, prob.map, prob.seed.first, prob.seed.second
            ), name
            config = IterationConfig(
                max_iter=200, tol=1e-10, params=prob.suggested_params
            )
            result, trace = iterate(
                prob.space, prob.map, prob.seed.first, prob.seed.second, config
            )
            report = check_monotone_chain(prob.space, trace, result.fixed_pair)
            assert report.monotone_ok, name
            assert report.limit_ok, name
            assert leq(prob.space, prob.seed.first, prob.seed.second), name
            for e in trace:
                assert leq(prob.space, e.x, e.y), (name, e.n)


def test_criterion_04_certificates():
    with criterion(4, "certify: (0.1, 0.5) clean at 1e4 samples; (0.1, 0.4) falsified"):
        prob = get_builtin("linear_demo")
        clean = certify_region(
            prob.space, prob.map, ContractionParams(0.1, 0.5), count=10_000, rng_seed=7
        )
        assert clean.violations == 0
        assert clean.worst_margin >= 0.0

        adversarial = (Pair([0.1], [-0.29]), Pair([0.01], [-0.02]))
        pinned = explicit_pairs(prob.space, prob.map, [adversarial])
        # certify_region's families joined with the hand-made pair
        samples = (
            sample_comparable_pairs(prob.space, prob.map, 10_000, 7)
            + directed_pairs(prob.space, prob.map)
            + pinned
        )
        bad = evaluate_samples(ContractionParams(0.1, 0.4), samples)
        assert bad.violations >= 1
        assert bad.worst_margin <= -0.015
        # the registered pair is itself a hand-computable violation:
        # image distance 0.09 vs right side ~0.0722
        assert evaluate_samples(ContractionParams(0.1, 0.4), pinned).worst_margin <= -0.015


def test_criterion_05_estimate_against_grid_oracle():
    with criterion(5, "estimate: minimal ratio ~0.5, cross-checked on a 1e-3 grid"):
        prob = get_builtin("linear_demo")
        samples = sample_comparable_pairs(prob.space, prob.map, 10_000, 42)
        estimate = estimate_params(samples)
        assert estimate.feasible
        assert 0.49 <= estimate.ratio <= 0.51
        oracle = grid_minimal_ratio(samples, resolution=1e-3)
        assert oracle is not None
        assert 0.49 <= oracle <= 0.51
        assert abs(estimate.ratio - oracle) <= 3e-3


def test_criterion_06_uniqueness_probe():
    with criterion(6, "uniqueness: three seeds agree, bridges comparable to both"):
        prob = get_builtin("linear_demo")
        seeds = [Pair([-1.0], [1.0]), Pair([-2.0], [2.0]), Pair([-0.5], [0.5])]
        config = IterationConfig(
            max_iter=100, tol=1e-10, params=prob.suggested_params
        )
        report = uniqueness_probe(prob.space, prob.map, seeds, config)
        assert all(r.result is not None and r.result.converged for r in report.runs)
        assert report.max_pairwise_distance <= 1e-9
        assert report.bridge_comparable
        assert all(comparable(prob.space, report.bridge, r.result.fixed_pair)
                   for r in report.runs)


def test_criterion_07_dass_gupta_reduction():
    with criterion(7, "Dass-Gupta margins nonnegative for both 1-D builtins"):
        # In a totally ordered 1-D space the diagonal pairs ((t,t),(s,s)) are
        # product-comparable only when t = s, so the comparability filter
        # keeps nothing of interest; both builtins satisfy the stronger,
        # unfiltered property on every sampled argument pair.
        for name in ("linear_demo", "affine_demo"):
            prob = get_builtin(name)
            params = prob.suggested_params
            rng = np.random.default_rng(1234)
            lo, hi = prob.map.lower[0], prob.map.upper[0]
            draws = rng.uniform(lo, hi, size=(1000, 2))
            for x_hat, y_hat in draws:
                margin = dass_gupta_margin(
                    prob.space, prob.map, params, [x_hat], [y_hat]
                )
                assert margin >= 0.0, (name, x_hat, y_hat)


def test_criterion_08_integral_demo_against_plain_iteration_oracle():
    with criterion(8, "integral_demo: matches a 1e5-step plain-iteration oracle"):
        prob = get_builtin("integral_demo")
        config = IterationConfig(max_iter=200, tol=1e-10, params=prob.suggested_params)
        result, _ = iterate(
            prob.space, prob.map, prob.seed.first, prob.seed.second, config
        )
        assert result.converged
        assert result.final_residual <= 1e-10
        assert result.components_equal

        # oracle: raw recurrence, no stopping rule, no engine; the operator
        # is written out here from its formula in the problems docstring
        n = prob.space.dim
        t = np.arange(n) / n
        weights = np.exp(-np.abs(t[:, None] - t[None, :])) / (4.0 * n)

        def F(x, y):
            return 0.25 + weights @ (x / (1.0 + np.abs(x)) - y / (1.0 + np.abs(y)))

        x, y = np.zeros(n), np.ones(n)
        for _ in range(100_000):
            x, y = F(x, y), F(y, x)
        assert float(np.max(np.abs(result.fixed_pair.first - x))) <= 1e-8
        assert float(np.max(np.abs(result.fixed_pair.second - y))) <= 1e-8


def test_criterion_09_apriori_count_soundness():
    with criterion(9, "a-priori counts 24/49 land within eps of the reference limits"):
        cases = [
            ("linear_demo", ContractionParams(0.1, 0.5), 0.5, 24),
            ("affine_demo", ContractionParams(0.1, 2.0 / 3.0), 0.625, 49),
        ]
        for name, params, d0, expected_count in cases:
            prob = get_builtin(name)

            # independent oracle: unroll the geometric tail step by step
            tail, count_by_loop = d0 / (1.0 - params.ratio), 0
            while tail > 1e-6:
                tail *= params.ratio
                count_by_loop += 1
            assert count_by_loop == expected_count, name
            n_star = apriori_iteration_count(params, d0, 1e-6)
            assert n_star == expected_count, name

            F = prob.map.evaluator
            x, y = prob.seed.first, prob.seed.second
            for k in range(400):
                if k == n_star:
                    at_count = (x.copy(), y.copy())
                x, y = F(x, y), F(y, x)
            assert distance(prob.space, at_count[0], x) <= 1e-6, name
            assert distance(prob.space, at_count[1], y) <= 1e-6, name


def test_criterion_10_mixed_monotone_falsification():
    with criterion(10, "monotone check: falsifies x*y, clears every builtin"):
        product_map = CoupledMap(
            "product", 1, lambda x, y: x * y, lower=[-1.0], upper=[1.0]
        )
        report = mixed_monotone_check(product_map, 1000, rng_seed=99)
        assert report.falsified
        assert report.violations >= 1

        for name in ("linear_demo", "affine_demo", "integral_demo"):
            prob = get_builtin(name)
            clean = mixed_monotone_check(prob.map, 1000, rng_seed=99)
            assert clean.violations == 0, name
