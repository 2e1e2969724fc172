import io
import math
import os

import numpy as np
import pytest

from coupledfp import iteration
from coupledfp import (
    ContractionParams,
    CoupledMap,
    DivergenceError,
    DomainError,
    InputError,
    IterationConfig,
    Pair,
    SpaceDescriptor,
    apriori_gap_bound,
    apriori_iteration_count,
    check_monotone_chain,
    check_seed_condition,
    comparable,
    distance,
    find_bridge,
    get_builtin,
    iterate,
    leq,
    load_problem,
    uniqueness_probe,
    verify_coupled_fixed_point,
)

PARAMS_LINEAR = ContractionParams(0.1, 0.5)
CONFIGS = os.path.join(os.path.dirname(__file__), "data", "configs")


def probe_seeds(problem, count, rng_seed=0):
    """The problem's seed and count - 1 seeds drawn in its box, as the CLI draws them."""
    rng = np.random.default_rng(rng_seed)
    draws = rng.uniform(problem.map.lower, problem.map.upper, (count - 1, 2, problem.space.dim))
    return [problem.seed] + [Pair(x, y) for x, y in draws]


def assert_runs_match_solo(space, F, seeds, config):
    """Each probe run equals `iterate` from its seed alone, bit for bit."""
    report = uniqueness_probe(space, F, seeds, config)
    assert len(report.runs) == len(seeds)
    for run, seed in zip(report.runs, seeds):
        assert run.seed is seed
        try:
            solo, _ = iterate(space, F, seed.first, seed.second, config)
        except DivergenceError as exc:
            assert (run.result, run.error) == (None, str(exc))
            continue
        assert run.error is None
        got = run.result
        assert got.fixed_pair.first.tobytes() == solo.fixed_pair.first.tobytes()
        assert got.fixed_pair.second.tobytes() == solo.fixed_pair.second.tobytes()
        for name in ("iterations_used", "final_residual", "converged",
                     "seed_condition_held", "components_equal"):
            assert getattr(got, name) == getattr(solo, name), name
            assert type(getattr(got, name)) is type(getattr(solo, name)), name

    limits = [(i, r.result.fixed_pair) for i, r in enumerate(report.runs)
              if r.result is not None and r.result.converged]
    distances, bridges = [], []
    for k, (i, a) in enumerate(limits):
        for j, b in limits[k + 1 :]:
            distances.append(max(distance(space, a.first, b.first),
                                 distance(space, a.second, b.second)))
            z = find_bridge(space, a, b)
            bridges.append((i, j, z.first.tobytes(), z.second.tobytes(),
                            comparable(space, z, a) and comparable(space, z, b)))
    assert report.max_pairwise_distance == (max(distances) if distances else None)
    assert bridges == [(b.index_a, b.index_b, b.bridge.first.tobytes(),
                        b.bridge.second.tobytes(), b.comparable_to_both)
                       for b in report.bridges]
    return report


class TestSeedCondition:
    def test_linear_good_seed(self, linear):
        assert check_seed_condition(linear.space, linear.map, [-1.0], [1.0])

    def test_linear_bad_seed(self, linear):
        assert not check_seed_condition(linear.space, linear.map, [1.0], [-1.0])

    def test_fixed_pair_is_admissible(self, linear):
        assert check_seed_condition(linear.space, linear.map, [0.0], [0.0])


class TestIterate:
    def test_linear_closed_form(self, linear):
        config = IterationConfig(max_iter=100, tol=1e-10, params=PARAMS_LINEAR)
        result, trace = iterate(linear.space, linear.map, [-1.0], [1.0], config)
        assert result.converged
        assert result.seed_condition_held
        # iterates are -2^-n, 2^-n; spot-check the first two recorded steps
        assert trace.entries[1].x[0] == -0.5
        assert trace.entries[2].x[0] == -0.25
        for e in trace:
            assert e.x[0] == -(2.0 ** -e.n)
            assert e.y[0] == 2.0 ** -e.n
            assert e.gap_x == 2.0 ** -(e.n + 1)

    def test_start_at_fixed_pair(self, linear):
        config = IterationConfig(max_iter=10, tol=1e-10, params=PARAMS_LINEAR)
        result, _ = iterate(linear.space, linear.map, [0.0], [0.0], config)
        assert result.converged
        assert result.iterations_used == 1
        assert result.final_residual == 0.0

    def test_affine_limit(self, affine):
        config = IterationConfig(max_iter=200, tol=1e-10, params=affine.suggested_params)
        result, _ = iterate(affine.space, affine.map, [0.0], [3.0], config)
        assert result.converged
        assert result.fixed_pair.first[0] == pytest.approx(12 / 11, abs=1e-9)
        assert result.components_equal

    def test_deterministic(self, affine):
        config = IterationConfig(max_iter=50, tol=1e-8, params=affine.suggested_params)
        r1, t1 = iterate(affine.space, affine.map, [0.0], [3.0], config)
        r2, t2 = iterate(affine.space, affine.map, [0.0], [3.0], config)
        assert r1.iterations_used == r2.iterations_used
        assert np.array_equal(r1.fixed_pair.first, r2.fixed_pair.first)
        for e1, e2 in zip(t1, t2):
            assert e1.n == e2.n
            assert np.array_equal(e1.x, e2.x)
            assert e1.gap_x == e2.gap_x
            assert e1.bound == e2.bound

    def test_bad_seed_flagged_but_runs(self, linear):
        config = IterationConfig(max_iter=100, tol=1e-10)
        result, _ = iterate(linear.space, linear.map, [1.0], [-1.0], config)
        assert not result.seed_condition_held
        assert result.converged  # the map contracts from anywhere in the box

    def test_max_iter_exhaustion(self, linear):
        config = IterationConfig(max_iter=3, tol=1e-12)
        result, trace = iterate(linear.space, linear.map, [-1.0], [1.0], config)
        assert not result.converged
        assert result.iterations_used == 3
        assert len(trace) == 3

    def test_divergence_error(self):
        space = SpaceDescriptor(dim=1)
        F = CoupledMap("double", 1, lambda x, y: 2.0 * x + 0.5, [-1.0], [1.0])
        with pytest.raises(DivergenceError):
            iterate(space, F, [0.5], [0.5], IterationConfig(max_iter=50, tol=1e-8))

    def test_record_trace_off(self, linear):
        config = IterationConfig(max_iter=50, tol=1e-8, record_trace=False)
        result, trace = iterate(linear.space, linear.map, [-1.0], [1.0], config)
        assert result.converged
        assert len(trace) == 0

    def test_config_validation(self):
        with pytest.raises(InputError):
            IterationConfig(max_iter=0)
        with pytest.raises(InputError):
            IterationConfig(tol=0.0)


class TestPerStepContraction:
    def test_consecutive_gap_ratio(self, linear, affine):
        # d(x_{n+2}, x_{n+1}) <= r * (gap_x(n) + gap_y(n)) / 2 once the
        # params certify the map; same for the y chain
        for prob in (linear, affine):
            params = prob.suggested_params
            config = IterationConfig(max_iter=60, tol=1e-9, params=params)
            _, trace = iterate(
                prob.space, prob.map, prob.seed.first, prob.seed.second, config
            )
            r = params.ratio
            for prev, nxt in zip(trace.entries, trace.entries[1:]):
                mean_gap = 0.5 * (prev.gap_x + prev.gap_y)
                assert nxt.gap_x <= r * mean_gap + 1e-12
                assert nxt.gap_y <= r * mean_gap + 1e-12


class TestAprioriBounds:
    def test_bound_examples(self):
        assert apriori_gap_bound(PARAMS_LINEAR, 0.5, 0) == 0.5
        assert apriori_gap_bound(PARAMS_LINEAR, 0.5, 1) == pytest.approx(
            0.2777777777777778, rel=1e-15
        )
        assert apriori_gap_bound(PARAMS_LINEAR, 0.5, 2) == pytest.approx(
            0.15432098765432098, rel=1e-15
        )

    def test_recorded_gaps_below_bounds(self, linear):
        config = IterationConfig(max_iter=60, tol=1e-10, params=PARAMS_LINEAR)
        _, trace = iterate(linear.space, linear.map, [-1.0], [1.0], config)
        d0 = trace.initial_mean_gap()
        # the bound is claimed for steps >= 1; for this symmetric start it
        # happens to hold from step 0 as well
        for e in trace:
            bound = apriori_gap_bound(PARAMS_LINEAR, d0, e.n)
            assert e.gap_x <= bound + 1e-12
            assert e.gap_y <= bound + 1e-12
            assert e.bound == pytest.approx(bound, rel=1e-15)

    def test_affine_gap_bounds_from_step_one(self, affine):
        params = affine.suggested_params
        config = IterationConfig(max_iter=80, tol=1e-10, params=params)
        _, trace = iterate(affine.space, affine.map, [0.0], [3.0], config)
        d0 = trace.initial_mean_gap()
        assert d0 == pytest.approx(0.625, abs=1e-15)
        for e in trace.entries[1:]:
            bound = apriori_gap_bound(params, d0, e.n)
            assert e.gap_x <= bound + 1e-12
            assert e.gap_y <= bound + 1e-12

    def test_iteration_count_oracle(self):
        # independent oracle: multiply the geometric tail out step by step
        def count_by_loop(r, d0, eps):
            n, tail = 0, d0 / (1 - r)
            while tail > eps:
                tail *= r
                n += 1
            return n

        r_lin = PARAMS_LINEAR.ratio
        assert count_by_loop(r_lin, 0.5, 1e-6) == 24
        assert apriori_iteration_count(PARAMS_LINEAR, 0.5, 1e-6) == 24

        params_aff = ContractionParams(0.1, 2.0 / 3.0)
        assert count_by_loop(params_aff.ratio, 0.625, 1e-6) == 49
        assert apriori_iteration_count(params_aff, 0.625, 1e-6) == 49

    def test_count_zero_when_eps_large(self):
        assert apriori_iteration_count(PARAMS_LINEAR, 0.5, 10.0) == 0
        assert apriori_iteration_count(PARAMS_LINEAR, 0.0, 1e-12) == 0

    def test_count_matches_definition_on_grid(self):
        params = ContractionParams(0.2, 0.3)
        r = params.ratio
        for eps in (1e-2, 1e-4, 1e-8):
            n = apriori_iteration_count(params, 1.7, eps)
            assert r**n * 1.7 / (1 - r) <= eps
            if n > 0:
                assert r ** (n - 1) * 1.7 / (1 - r) > eps


class TestVerify:
    def test_exact_fixed_pair(self, linear):
        ok, residual = verify_coupled_fixed_point(
            linear.space, linear.map, Pair([0.0], [0.0]), 1e-12
        )
        assert ok and residual == 0.0

    def test_affine_fixed_pair(self, affine):
        v = 12.0 / 11.0
        ok, residual = verify_coupled_fixed_point(
            affine.space, affine.map, Pair([v], [v]), 1e-12
        )
        assert ok and residual <= 1e-12

    def test_not_a_fixed_pair(self, linear):
        ok, residual = verify_coupled_fixed_point(
            linear.space, linear.map, Pair([1.0], [1.0]), 1e-12
        )
        assert not ok
        assert residual == pytest.approx(1.0, abs=1e-15)


class TestMonotoneChain:
    def test_linear_chain_passes(self, linear):
        config = IterationConfig(max_iter=60, tol=1e-10, params=PARAMS_LINEAR)
        result, trace = iterate(linear.space, linear.map, [-1.0], [1.0], config)
        report = check_monotone_chain(linear.space, trace, result.fixed_pair)
        assert report.passed
        assert report.first_violation is None

    def test_single_entry_trace(self, linear):
        config = IterationConfig(max_iter=1, tol=1e-10)
        result, trace = iterate(linear.space, linear.map, [-1.0], [1.0], config)
        assert len(trace) == 1
        report = check_monotone_chain(linear.space, trace, result.fixed_pair)
        assert report.passed

    def test_bad_seed_reports_violation(self, linear):
        config = IterationConfig(max_iter=30, tol=1e-10)
        result, trace = iterate(linear.space, linear.map, [1.0], [-1.0], config)
        report = check_monotone_chain(linear.space, trace, result.fixed_pair)
        assert not report.passed
        assert report.first_violation is not None
        assert report.first_violation.step == 0

    def test_empty_trace_rejected(self, linear):
        from coupledfp import IterationTrace

        with pytest.raises(InputError):
            check_monotone_chain(linear.space, IterationTrace(), Pair([0.0], [0.0]))

    def test_components_ordered_when_seeds_are(self, linear, affine, integral):
        # x0 <= y0 propagates to x_n <= y_n for every n
        for prob in (linear, affine, integral):
            config = IterationConfig(max_iter=100, tol=1e-8, params=prob.suggested_params)
            result, trace = iterate(
                prob.space, prob.map, prob.seed.first, prob.seed.second, config
            )
            assert leq(prob.space, prob.seed.first, prob.seed.second)
            for e in trace:
                assert leq(prob.space, e.x, e.y)
            assert result.components_equal


class TestUniquenessProbe:
    def test_linear_seeds_agree(self, linear):
        seeds = [Pair([-1.0], [1.0]), Pair([-2.0], [2.0]), Pair([-0.5], [0.5])]
        config = IterationConfig(max_iter=100, tol=1e-10, params=PARAMS_LINEAR)
        report = uniqueness_probe(linear.space, linear.map, seeds, config)
        assert report.all_agree
        assert report.max_pairwise_distance <= 1e-9
        assert len(report.bridges) == 3
        assert all(b.comparable_to_both for b in report.bridges)

    def test_single_seed(self, linear):
        report = uniqueness_probe(
            linear.space, linear.map, [Pair([-1.0], [1.0])], IterationConfig()
        )
        assert report.all_agree
        assert report.max_pairwise_distance is None
        assert report.bridges == []

    def test_affine_two_seeds(self, affine):
        seeds = [Pair([0.0], [3.0]), Pair([-1.0], [4.0])]
        config = IterationConfig(max_iter=200, tol=1e-10, params=affine.suggested_params)
        report = uniqueness_probe(affine.space, affine.map, seeds, config)
        assert report.all_agree
        for run in report.runs:
            assert run.result.fixed_pair.first[0] == pytest.approx(12 / 11, abs=1e-9)

    def test_divergent_run_recorded(self):
        space = SpaceDescriptor(dim=1)
        F = CoupledMap("double", 1, lambda x, y: 2.0 * x + 0.5, [-1.0], [1.0])
        report = uniqueness_probe(
            space, F, [Pair([0.5], [0.5])], IterationConfig(max_iter=50, tol=1e-8)
        )
        assert report.runs[0].error is not None
        assert not report.all_agree

    @pytest.mark.parametrize("with_params", [False, True])
    @pytest.mark.parametrize(
        "problem",
        [
            lambda: get_builtin("linear_demo"),
            lambda: get_builtin("affine_demo"),
            lambda: load_problem(os.path.join(CONFIGS, "integral_16.json")),
            lambda: load_problem(os.path.join(CONFIGS, "expr_4d.json")),
        ],
        ids=["linear_demo", "affine_demo", "integral_16", "expr_4d"],
    )
    def test_runs_equal_solo_iterate(self, problem, with_params):
        problem = problem()
        params = problem.suggested_params if with_params else None
        config = IterationConfig(max_iter=200, tol=1e-10, params=params)
        assert_runs_match_solo(problem.space, problem.map, probe_seeds(problem, 8), config)

    @pytest.mark.parametrize("params", [None, PARAMS_LINEAR])
    def test_mixed_batch_equals_solo_iterate(self, params):
        space = SpaceDescriptor(dim=1)
        F = CoupledMap("double", 1, lambda x, y: 2.0 * x + 0.5, [-1.0], [1.0])
        seeds = [
            Pair([-0.5], [-0.5]),  # the fixed pair
            Pair([0.5], [0.5]),  # leaves the padded box on step 2
            Pair([-0.5 + 3e-6], [-0.5]),  # its last iterate is outside the padded box
            Pair([-0.5 + 1e-7], [-0.5 - 1e-7]),  # drifts until max_iter
            Pair([-0.5], [-0.5]),
        ]
        config = IterationConfig(max_iter=20, tol=1e-8, params=params)
        report = assert_runs_match_solo(space, F, seeds, config)
        assert "iteration escaped" in report.runs[1].error
        assert "final iterate escaped" in report.runs[2].error
        assert not report.runs[3].result.converged
        assert not report.all_agree
        assert [(b.index_a, b.index_b) for b in report.bridges] == [(0, 4)]

        outside = Pair([1.5], [-1.25])
        with pytest.raises(DomainError) as solo:
            iterate(space, F, outside.first, outside.second, config)
        with pytest.raises(DomainError) as probe:
            uniqueness_probe(space, F, seeds + [outside], config)
        assert str(probe.value) == str(solo.value)

    def test_seed_whose_swapped_image_fails(self):
        # x0 <= F(x0, y0) fails, so the seed check never evaluates F(y0, x0),
        # which raises; the first step then diverges on it.
        def halve(x, y):
            if y[0] > 0.9:
                raise DomainError("second argument above 0.9")
            return 0.5 * x

        space = SpaceDescriptor(dim=1)
        F = CoupledMap("halve", 1, halve, [-1.0], [1.0])
        seeds = [Pair([0.5], [0.0]), Pair([0.95], [0.0]), Pair([0.0], [0.5])]
        report = assert_runs_match_solo(space, F, seeds, IterationConfig(tol=1e-8))
        assert report.runs[1].error.endswith("second argument above 0.9")

    @pytest.mark.parametrize("count", [1, 2, 8, 40])
    def test_one_stacked_call_per_step(self, linear, monkeypatch, count):
        calls = {"evaluate_rows": 0, "evaluate": 0, "iterate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("evaluate_rows", "evaluate"):
            monkeypatch.setattr(CoupledMap, name, counted(name, getattr(CoupledMap, name)))
        monkeypatch.setattr(iteration, "iterate", counted("iterate", iteration.iterate))
        config = IterationConfig(max_iter=200, tol=1e-10, params=PARAMS_LINEAR)
        report = uniqueness_probe(linear.space, linear.map, probe_seeds(linear, count), config)
        assert report.all_agree
        steps = max(r.result.iterations_used for r in report.runs)
        assert calls["evaluate_rows"] <= steps + 2
        assert calls["evaluate"] == calls["iterate"] == 0

    def test_needs_a_seed(self, linear):
        with pytest.raises(InputError):
            uniqueness_probe(linear.space, linear.map, [], IterationConfig())


class TestTraceCsv:
    def test_header_and_shape(self, linear):
        config = IterationConfig(max_iter=40, tol=1e-8, params=PARAMS_LINEAR)
        _, trace = iterate(linear.space, linear.map, [-1.0], [1.0], config)
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,x_0,y_0,gap_x,gap_y,bound"
        assert len(lines) == len(trace) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == -1.0
        assert float(first[5]) == 0.5  # bound column = D0 at step 0

    def test_bound_column_empty_without_params(self, linear):
        config = IterationConfig(max_iter=40, tol=1e-8)
        _, trace = iterate(linear.space, linear.map, [-1.0], [1.0], config)
        buf = io.StringIO()
        trace.write_csv(buf)
        row = buf.getvalue().splitlines()[1]
        assert row.endswith(",")

    def test_17_digit_round_trip(self, affine):
        config = IterationConfig(max_iter=60, tol=1e-10, params=affine.suggested_params)
        _, trace = iterate(affine.space, affine.map, [0.0], [3.0], config)
        buf = io.StringIO()
        trace.write_csv(buf)
        for line, entry in zip(buf.getvalue().splitlines()[1:], trace):
            cells = line.split(",")
            assert float(cells[1]) == entry.x[0]
            assert float(cells[3]) == entry.gap_x
