import functools
import io
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coupledfp import iteration
from coupledfp import (
    ContractionParams,
    CoupledFPError,
    CoupledMap,
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    InputError,
    IterationConfig,
    IterationTrace,
    Pair,
    SolveResult,
    SpaceDescriptor,
    apriori_gap_bound,
    apriori_iteration_count,
    as_point,
    build_problem,
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
from coupledfp.iteration import ChainReport, ChainViolation, TraceEntry
from coupledfp.spaces import row_distances

PARAMS_LINEAR = ContractionParams(0.1, 0.5)
CONFIGS = os.path.join(os.path.dirname(__file__), "data", "configs")


def probe_seeds(problem, count, rng_seed=0):
    """The problem's seed and count - 1 seeds drawn in its box, as the CLI draws them."""
    rng = np.random.default_rng(rng_seed)
    draws = rng.uniform(problem.map.lower, problem.map.upper, (count - 1, 2, problem.space.dim))
    return [problem.seed] + [Pair(x, y) for x, y in draws]


def solo_reference(space, F, x0, y0, config=None):
    """The coupled iteration as a scalar loop of one-row calls, one seed alone.

    An independent reference for `iterate` and for each run of the probe.
    """

    def padded_image(x, y):
        return F.evaluate_rows(x[None], y[None], padded=True)[0]

    config = config or IterationConfig()
    x = as_point(x0, dim=F.dim)
    y = as_point(y0, dim=F.dim)
    seed_ok = check_seed_condition(space, F, x, y)

    params = config.params
    ratio = params.ratio if params is not None else None
    trace = IterationTrace()
    base_gap = None
    stopped = False
    iterations = 0

    for n in range(config.max_iter):
        try:
            x_next = padded_image(x, y)
            y_next = padded_image(y, x)
        except DomainError as exc:
            raise DivergenceError(f"iteration escaped the padded domain box: {exc}") from exc
        gap_x = distance(space, x_next, x)
        gap_y = distance(space, y_next, y)
        if base_gap is None:
            base_gap = 0.5 * (gap_x + gap_y)
        bound = None if ratio is None else ratio**n * base_gap
        trace.entries.append(TraceEntry(n, x, y, gap_x, gap_y, bound))
        x, y = x_next, y_next
        iterations = n + 1
        worst_gap = max(gap_x, gap_y)
        if ratio is None:
            stopped = worst_gap <= config.tol
        else:
            stopped = worst_gap * ratio / (1.0 - ratio) <= config.tol
        if stopped:
            break

    try:
        residual = distance(space, padded_image(x, y), x)
        residual = max(residual, distance(space, padded_image(y, x), y))
    except DomainError as exc:
        raise DivergenceError(
            f"final iterate escaped the padded domain box: {exc}"
        ) from exc
    result = SolveResult(
        fixed_pair=Pair(x, y),
        iterations_used=iterations,
        final_residual=residual,
        converged=stopped and residual <= config.tol,
        seed_condition_held=seed_ok,
        components_equal=distance(space, x, y) <= 2.0 * config.tol,
    )
    return result, trace


def bits(value):
    """A value's type and, for floats and arrays, its exact bytes."""
    if isinstance(value, (float, np.ndarray)):
        return type(value), np.asarray(value).dtype, np.asarray(value).tobytes()
    return type(value), value


def assert_same_result(got, ref):
    assert bits(got.fixed_pair.first) == bits(ref.fixed_pair.first)
    assert bits(got.fixed_pair.second) == bits(ref.fixed_pair.second)
    for name in ("iterations_used", "final_residual", "converged",
                 "seed_condition_held", "components_equal"):
        assert bits(getattr(got, name)) == bits(getattr(ref, name)), name


def assert_iterate_matches_solo(space, F, x0, y0, config):
    """`iterate` equals the reference bit for bit: result and trace, or its error."""
    try:
        ref, ref_trace = solo_reference(space, F, x0, y0, config)
    except CoupledFPError as exc:
        with pytest.raises(CoupledFPError) as got:
            iterate(space, F, x0, y0, config)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        assert type(got.value.__cause__) is type(exc.__cause__)
        return
    result, trace = iterate(space, F, x0, y0, config)
    assert_same_result(result, ref)
    assert len(trace) == len(ref_trace)
    for entry, ref_entry in zip(trace, ref_trace):
        assert [bits(v) for v in entry] == [bits(v) for v in ref_entry]


def assert_runs_match_solo(space, F, seeds, config):
    """Each probe run, and `iterate` from its seed, equal the solo reference."""
    report = uniqueness_probe(space, F, seeds, config)
    assert len(report.runs) == len(seeds)
    for run, seed in zip(report.runs, seeds):
        assert run.seed is seed
        assert_iterate_matches_solo(space, F, seed.first, seed.second, config)
        try:
            solo, _ = solo_reference(space, F, seed.first, seed.second, config)
        except DivergenceError as exc:
            assert (run.result, run.error) == (None, str(exc))
            continue
        assert run.error is None
        assert_same_result(run.result, solo)

    limits = [r.result.fixed_pair for r in report.runs
              if r.result is not None and r.result.converged]
    distances = []
    for k, a in enumerate(limits):
        for b in limits[k + 1 :]:
            distances.append(max(distance(space, a.first, b.first),
                                 distance(space, a.second, b.second)))
    assert report.max_pairwise_distance == (max(distances) if distances else None)
    assert_joint_bridge(space, report, limits)
    return report


def pairwise_diameter(space, X, Y):
    """max(d(x_a, x_b), d(y_a, y_b)) over all pairs a < b of limit rows, or
    None: the all-pairs formula, 2^16 pairs at a time to bound memory."""
    a, b = np.triu_indices(len(X), k=1)
    largest = None
    for k in range(0, a.size, 2**16):
        i, j = a[k : k + 2**16], b[k : k + 2**16]
        dist = np.maximum(row_distances(space, X[i], X[j]), row_distances(space, Y[i], Y[j]))
        largest = float(dist.max()) if largest is None else max(largest, float(dist.max()))
    return largest


def limit_sets(rng):
    """A random (space, X, Y) limit set: any metric in 1-D, or max in up to 8-D."""
    metric = str(rng.choice(["euclidean", "max", "l1"]))
    dim = 1 if metric != "max" else int(rng.integers(1, 9))
    count = int(rng.integers(1, 13))
    kind = rng.integers(4)
    if kind == 0:  # spread over many binades
        scale = 10.0 ** rng.integers(-100, 100, (2, count, dim))
        rows = rng.uniform(-1.0, 1.0, (2, count, dim)) * scale
    elif kind == 1:  # duplicate limits: rows drawn from a pool of three
        pool = rng.uniform(-1.0, 1.0, (2, 3, dim))
        rows = pool[:, rng.integers(3, size=count)]
    elif kind == 2:  # signed zeros and the smallest subnormals
        rows = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.0], (2, count, dim))
    else:
        rows = rng.uniform(-1.0, 1.0, (2, count, dim))
    return SpaceDescriptor(dim=dim, metric=metric), rows[0], rows[1]


def assert_joint_bridge(space, report, limits):
    """The report's bridge is the fold of `find_bridge` over ``limits``, comparable to each."""
    if not limits:
        assert report.bridge is None and report.bridge_comparable
        return
    z = functools.reduce(lambda a, b: find_bridge(space, a, b), limits)
    assert bits(report.bridge.first) == bits(z.first)
    assert bits(report.bridge.second) == bits(z.second)
    assert all(comparable(space, z, p) for p in limits)
    assert report.bridge_comparable


@pytest.fixture
def calls(monkeypatch):
    """Call counts of CoupledMap.evaluate_rows, CoupledMap._swap_images,
    CoupledMap.evaluate and iteration.iterate."""
    calls = {"evaluate_rows": 0, "_swap_images": 0, "evaluate": 0, "iterate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("evaluate_rows", "_swap_images", "evaluate"):
        monkeypatch.setattr(CoupledMap, name, counted(name, getattr(CoupledMap, name)))
    monkeypatch.setattr(iteration, "iterate", counted("iterate", iteration.iterate))
    return calls


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

    def test_cut_at_max_iter_is_not_converged(self, linear):
        # Gaps are 2^-(n+1); at the last step the tail 2^-5 * r / (1 - r)
        # still exceeds tol = 2^-5, though the final residual 2^-6 does not.
        config = IterationConfig(max_iter=5, tol=2.0**-5, params=PARAMS_LINEAR)
        result, _ = iterate(linear.space, linear.map, [-1.0], [1.0], config)
        assert result.iterations_used == 5
        assert result.final_residual == 2.0**-6
        assert not result.converged

    def test_divergence_error(self):
        space = SpaceDescriptor(dim=1)
        F = CoupledMap("double", 1, lambda x, y: 2.0 * x + 0.5, [-1.0], [1.0])
        with pytest.raises(DivergenceError):
            iterate(space, F, [0.5], [0.5], IterationConfig(max_iter=50, tol=1e-8))

    @pytest.mark.parametrize(
        "load",
        [
            lambda: get_builtin("linear_demo"),
            lambda: get_builtin("integral_demo", 16),
            lambda: load_problem(os.path.join(CONFIGS, "expr_4d.json")),
        ],
        ids=["linear", "integral_16", "expr_4d"],
    )
    @pytest.mark.parametrize("max_iter", [1, 3, 200])
    def test_one_stacked_call_per_step(self, calls, load, max_iter):
        # the seed check's call also gives step 0's images; one more call
        # per further step and one for the final check
        prob = load()
        config = IterationConfig(max_iter=max_iter, tol=1e-10)
        result, _ = iterate(prob.space, prob.map, prob.seed.first, prob.seed.second, config)
        assert result.iterations_used == max_iter or result.converged
        # a swap-stack call that fails its bounds comparison also calls evaluate_rows
        assert calls["_swap_images"] + calls["evaluate_rows"] == result.iterations_used + 1
        assert calls["evaluate"] == 0

    def test_config_validation(self):
        with pytest.raises(InputError):
            IterationConfig(max_iter=0)
        with pytest.raises(InputError):
            IterationConfig(tol=0.0)

    @pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InputError, match="tol must be finite and > 0"):
            IterationConfig(tol=tol)


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
    @pytest.mark.parametrize(
        "bound",
        [
            lambda gap: apriori_gap_bound(PARAMS_LINEAR, gap, 3),
            lambda gap: apriori_iteration_count(PARAMS_LINEAR, gap, 1e-6),
        ],
        ids=["gap_bound", "iteration_count"],
    )
    @pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf, -0.5])
    def test_initial_mean_gap_must_be_finite_and_nonnegative(self, bound, gap):
        message = "must be >= 0" if math.isfinite(gap) else f"must be finite, got {gap}"
        with pytest.raises(InputError, match=message):
            bound(gap)

    @pytest.mark.parametrize(
        "bound, value, message",
        [
            (apriori_gap_bound, -1, "step must be >= 0"),
            (apriori_iteration_count, 0.0, "eps must be > 0, got 0.0"),
            (apriori_iteration_count, -1e-3, "eps must be > 0, got -0.001"),
            (apriori_iteration_count, math.nan, "eps must be > 0, got nan"),
        ],
        ids=["negative-step", "zero-eps", "negative-eps", "nan-eps"],
    )
    def test_step_and_eps_rules(self, bound, value, message):
        # the step of apriori_gap_bound, the eps of apriori_iteration_count
        with pytest.raises(InputError) as exc:
            bound(PARAMS_LINEAR, 0.5, value)
        assert str(exc.value) == message

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

    @pytest.mark.parametrize("problem", ["linear_demo", "affine_demo", "integral_demo"])
    def test_trace_bounds_are_the_apriori_bounds(self, problem):
        prob = get_builtin(problem)
        config = IterationConfig(params=prob.suggested_params)
        _, trace = iterate(prob.space, prob.map, prob.seed.first, prob.seed.second, config)
        d0 = trace.initial_mean_gap()
        assert [e.bound for e in trace] == [
            apriori_gap_bound(prob.suggested_params, d0, e.n) for e in trace
        ]

    def test_non_finite_initial_gap_raises_after_the_run(self):
        # the first gaps overflow to inf in a box as wide as the floats allow
        F = CoupledMap("flip", 1, lambda x, y: -x, [-1e308], [1e308])
        config = IterationConfig(max_iter=3, params=PARAMS_LINEAR)
        with np.errstate(over="ignore"), pytest.raises(InputError) as exc:
            iterate(SpaceDescriptor(1, "max"), F, [-1e308], [1e308], config)
        assert str(exc.value) == "initial_mean_gap must be finite, got inf"

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

    @pytest.mark.parametrize(
        "alpha, beta, d0, eps, n",
        [
            # the log estimate gives 32, one step short: the first guard adds one
            (0.5, 0.05, 1.0, 1.1111111111111128e-32, 33),
            # the log estimate gives 39, one step long: the second guard takes one off
            (0.5, 0.375, 0.5, 3.5756747241377764e-05, 38),
        ],
        ids=["estimate-short", "estimate-long"],
    )
    def test_count_guards_the_rounded_log(self, alpha, beta, d0, eps, n):
        params = ContractionParams(alpha, beta)
        r, tail0 = params.ratio, d0 / (1 - params.ratio)
        assert math.ceil(math.log(eps / tail0) / math.log(r)) != n
        assert apriori_iteration_count(params, d0, eps) == n
        assert r**n * tail0 <= eps < r ** (n - 1) * tail0

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


# all four kinds fail at step 0, and again at step 1
ALL_KINDS_AT_ONCE = (
    SpaceDescriptor(dim=1),
    IterationTrace([
        TraceEntry(0, np.array([1.0]), np.array([-1.0]), 0.0, 0.0, None),
        TraceEntry(1, np.array([2.0]), np.array([-2.0]), 0.0, 0.0, None),
    ]),
    Pair([-1.0], [1.0]),
)


def chain_reference(space, trace, limit):
    """`check_monotone_chain` as it was written before it was stacked: a
    loop of `leq` calls per entry, its violations sorted by step."""
    if not trace.entries:
        raise InputError("empty trace")
    violations = []
    entries = trace.entries
    chain = [(e.n, e.x, e.y) for e in entries]
    chain.append((entries[-1].n + 1, limit.first, limit.second))
    for (n, x_cur, y_cur), (_, x_nxt, y_nxt) in zip(chain, chain[1:]):
        if not leq(space, x_cur, x_nxt):
            violations.append(ChainViolation(n, "x-monotone"))
        if not leq(space, y_nxt, y_cur):
            violations.append(ChainViolation(n, "y-monotone"))
    monotone_ok = not violations
    limit_violations = []
    for e in entries:
        if not leq(space, e.x, limit.first):
            limit_violations.append(ChainViolation(e.n, "x-limit"))
        if not leq(space, limit.second, e.y):
            limit_violations.append(ChainViolation(e.n, "y-limit"))
    all_violations = sorted(violations + limit_violations, key=lambda v: v.step)
    return ChainReport(
        entries_checked=len(entries),
        monotone_ok=monotone_ok,
        limit_ok=not limit_violations,
        first_violation=all_violations[0] if all_violations else None,
    )


@st.composite
def chains(draw):
    """A space, a trace and a limit on three coordinate values, so that ties
    and several violation kinds at one step are common. Steps count up from
    0 as in `iterate`'s traces, or are drawn, repeats and disorder included."""
    dim = draw(st.integers(1, 3))
    length = draw(st.integers(1, 6))
    point = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=dim, max_size=dim).map(np.array)
    steps = draw(
        st.just(list(range(length)))
        | st.lists(st.integers(0, 3), min_size=length, max_size=length)
    )
    entries = [TraceEntry(n, draw(point), draw(point), 0.0, 0.0, None) for n in steps]
    return SpaceDescriptor(dim=dim), IterationTrace(entries), Pair(draw(point), draw(point))


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

    @given(chains())
    @example(ALL_KINDS_AT_ONCE)
    def test_matches_per_entry_loop(self, chain):
        assert check_monotone_chain(*chain) == chain_reference(*chain)


class TestUniquenessProbe:
    def test_linear_seeds_agree(self, linear):
        seeds = [Pair([-1.0], [1.0]), Pair([-2.0], [2.0]), Pair([-0.5], [0.5])]
        config = IterationConfig(max_iter=100, tol=1e-10, params=PARAMS_LINEAR)
        report = uniqueness_probe(linear.space, linear.map, seeds, config)
        assert report.all_agree
        assert report.max_pairwise_distance <= 1e-9
        assert_joint_bridge(linear.space, report, [r.result.fixed_pair for r in report.runs])

    def test_seed_of_wrong_dimension(self, linear):
        seeds = [Pair([-1.0], [1.0]), Pair([0.0, 0.0], [1.0, 1.0])]
        with pytest.raises(DimensionMismatchError, match="expected dimension 1, got 2"):
            uniqueness_probe(linear.space, linear.map, seeds)

    def test_single_seed(self, linear):
        report = uniqueness_probe(
            linear.space, linear.map, [Pair([-1.0], [1.0])], IterationConfig()
        )
        assert report.all_agree
        assert report.max_pairwise_distance is None
        assert_joint_bridge(linear.space, report, [report.runs[0].result.fixed_pair])

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
        limits = [report.runs[k].result.fixed_pair for k in (0, 4)]
        assert_joint_bridge(space, report, limits)

        outside = Pair([1.5], [-1.25])
        assert_iterate_matches_solo(space, F, outside.first, outside.second, config)
        with pytest.raises(DomainError) as solo:
            iterate(space, F, outside.first, outside.second, config)
        with pytest.raises(DomainError) as probe:
            uniqueness_probe(space, F, seeds + [outside], config)
        assert str(probe.value) == str(solo.value)

    def test_seed_whose_swapped_image_fails(self, calls):
        # x0 <= F(x0, y0) fails, so the seed check never evaluates F(y0, x0),
        # which raises; the first step then diverges on it. The stacked seed
        # check does evaluate it and raises, so the seed-by-seed fallback is
        # what keeps the other seeds running: for a numpy map and for an
        # expression map.
        def halve(x, y):
            if np.any(y[:, 0] > 0.9):
                raise DomainError("second argument above 0.9")
            return 0.5 * x

        expression = build_problem({
            "dim": 1,
            "components_F": ["0.5*x1 + 0*ln(0.9 - y1)"],
            "domain_box": [-1.0, 1.0],
            "seed": {"x0": [0.95], "y0": [0.0]},
        }).map
        space = SpaceDescriptor(dim=1)
        seeds = [Pair([0.5], [0.0]), Pair([0.95], [0.0]), Pair([0.0], [0.5])]
        for F, message in [
            (CoupledMap("halve", 1, halve, [-1.0], [1.0]), "second argument above 0.9"),
            (expression, "ln of non-positive value -0.04999999999999993"),
        ]:
            calls["evaluate"] = 0
            report = uniqueness_probe(space, F, seeds, IterationConfig(tol=1e-8))
            # check_seed_condition ran seed by seed: seeds 0 and 1 short-circuit
            assert calls["evaluate"] == 1 + 1 + 2
            assert report.runs[1].error.endswith(message)
            assert_runs_match_solo(space, F, seeds, IterationConfig(tol=1e-8))

    @pytest.mark.parametrize("params", [None, PARAMS_LINEAR])
    def test_diverging_expression_map(self, params):
        # Every seed either leaves the padded box or takes ln of a negative
        # number; both messages come from the expression tree walk.
        problem = build_problem({
            "dim": 1,
            "components_F": ["ln(x1 + 0.5) - y1"],
            "domain_box": [-0.4, 1.0],
            "seed": {"x0": [1.0], "y0": [1.0]},
        })
        config = IterationConfig(max_iter=50, tol=1e-8, params=params)
        report = assert_runs_match_solo(problem.space, problem.map, probe_seeds(problem, 8), config)
        errors = [run.error for run in report.runs]
        assert all(errors) and not report.all_agree
        assert any("ln of non-positive value" in e for e in errors)
        assert any("outside the domain box" in e for e in errors)

    @pytest.mark.parametrize("count", [1, 2, 8, 40])
    def test_one_stacked_call_per_step(self, linear, calls, count):
        config = IterationConfig(max_iter=200, tol=1e-10, params=PARAMS_LINEAR)
        report = uniqueness_probe(linear.space, linear.map, probe_seeds(linear, count), config)
        assert report.all_agree
        steps = max(r.result.iterations_used for r in report.runs)
        assert calls["_swap_images"] + calls["evaluate_rows"] == steps + 1
        assert calls["evaluate"] == calls["iterate"] == 0

    @pytest.mark.parametrize("metric", ["euclidean", "max", "l1"])
    def test_max_distance_equals_pairwise_formula(self, metric):
        # The all-pairs formula the probe used before it took each limit
        # against the later ones; seed 1 diverges on its first step.
        def halve(x, y):
            if np.any(y > 0.9):
                raise DomainError("second argument above 0.9")
            return 0.5 * x

        space = SpaceDescriptor(dim=2, metric=metric)
        F = CoupledMap("halve", 2, halve, [-1.0, -1.0], [1.0, 1.0])
        rng = np.random.default_rng(7)
        seeds = [Pair(*rng.uniform(-1.0, 0.9, (2, 2))) for _ in range(12)]
        seeds[1] = Pair([0.95, 0.5], [0.0, 0.0])
        for count in range(1, 13):
            report = uniqueness_probe(space, F, seeds[:count], IterationConfig(tol=1e-3))
            limits = [r.result.fixed_pair for r in report.runs if r.result and r.result.converged]
            assert len(limits) == count - (count > 1)
            X = np.array([p.first for p in limits]).reshape(-1, 2)
            Y = np.array([p.second for p in limits]).reshape(-1, 2)
            a, b = np.triu_indices(len(limits), k=1)
            dist = np.maximum(row_distances(space, X[a], X[b]), row_distances(space, Y[a], Y[b]))
            expected = float(dist.max()) if dist.size else None
            assert bits(report.max_pairwise_distance) == bits(expected)
            assert_joint_bridge(space, report, limits)

    def test_limit_diameter_is_the_pairwise_formula(self, monkeypatch):
        # the max metric, and any metric in 1-D, take the max and min rows:
        # one row_distances call, equal bit for bit to all pairs
        rng = np.random.default_rng(2024)
        counted = []
        monkeypatch.setattr(
            iteration, "row_distances", lambda *a: counted.append(1) or row_distances(*a)
        )
        sizes = set()
        for _ in range(3000):
            space, X, Y = limit_sets(rng)
            counted.clear()
            got = iteration._limit_diameter(space, X, Y)
            assert bits(got) == bits(pairwise_diameter(space, X, Y))
            assert len(counted) == (len(X) > 1)
            sizes.add((space.metric, space.dim > 1, min(len(X), 3)))
        assert len(sizes) == 3 * 3 + 3  # every metric in 1-D and max above, at 1, 2 and 3+ limits

    @pytest.mark.parametrize("metric", ["l1", "euclidean"])
    def test_limit_diameter_loops_above_one_dim(self, monkeypatch, metric):
        space = SpaceDescriptor(dim=4, metric=metric)
        X, Y = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 9, 4))
        counted = []
        monkeypatch.setattr(
            iteration, "row_distances", lambda *a: counted.append(1) or row_distances(*a)
        )
        got = iteration._limit_diameter(space, X, Y)
        assert len(counted) == 2 * (9 - 1)  # each limit against the later ones
        assert bits(got) == bits(pairwise_diameter(space, X, Y))

    def test_wide_probe_diameter(self, linear):
        report = uniqueness_probe(
            linear.space, linear.map, probe_seeds(linear, 2000), IterationConfig()
        )
        assert report.all_agree
        limits = [r.result.fixed_pair for r in report.runs]
        X = np.array([p.first for p in limits])
        Y = np.array([p.second for p in limits])
        assert bits(report.max_pairwise_distance) == bits(pairwise_diameter(linear.space, X, Y))
        assert report.max_pairwise_distance > 0.0

    @pytest.mark.parametrize("count", [10, 1000])
    def test_pairs_built_grow_linearly(self, linear, monkeypatch, count):
        seeds = probe_seeds(linear, count)
        built = []
        post_init = Pair.__post_init__
        monkeypatch.setattr(Pair, "__post_init__", lambda p: built.append(1) or post_init(p))
        report = uniqueness_probe(linear.space, linear.map, seeds, IterationConfig())
        assert report.all_agree
        # one fixed pair per seed and the joint bridge
        assert len(built) == count + 1

    def test_reused_output_buffer(self):
        # An evaluator may hand back one buffer per shape on every call; the
        # iteration must copy each image before its next call.
        def linear(reuse):
            buffers = {}

            def F(x, y):
                if np.any(y > 0.9):
                    raise DomainError("second argument above 0.9")
                out = buffers.setdefault(x.shape, np.empty(x.shape)) if reuse else None
                return np.multiply(np.subtract(x, y), 0.25, out=out)

            return CoupledMap("linear", 1, F, [-1.0], [1.0])

        space = SpaceDescriptor(dim=1)
        # seed 2 diverges on its first step, so the seed-by-seed fallback runs
        seeds = [Pair([-0.5], [0.5]), Pair([0.25], [-0.75]), Pair([0.95], [0.0]),
                 Pair([-0.8], [0.3]), Pair([0.1], [0.6])]
        config = IterationConfig(tol=1e-12)
        fresh, reused = (uniqueness_probe(space, linear(r), seeds, config) for r in (False, True))
        for a, b in zip(fresh.runs, reused.runs):
            assert a.error == b.error
            if a.result is not None:
                assert_same_result(b.result, a.result)
        assert fresh.runs[2].error is not None
        assert len({r.result.iterations_used for r in fresh.runs if r.result}) > 1
        for seed in seeds[:2]:
            (r1, t1), (r2, t2) = (
                iterate(space, linear(r), seed.first, seed.second, config) for r in (False, True)
            )
            assert_same_result(r2, r1)
            assert [[bits(v) for v in e] for e in t2] == [[bits(v) for v in e] for e in t1]

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

    @pytest.mark.parametrize(
        "read",
        [IterationTrace.initial_mean_gap, lambda trace: trace.write_csv(io.StringIO())],
        ids=["initial_mean_gap", "write_csv"],
    )
    def test_empty_trace_rejected(self, read):
        with pytest.raises(InputError) as exc:
            read(IterationTrace())
        assert str(exc.value) == "empty trace"

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
