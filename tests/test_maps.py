import os

import numpy as np
import pytest

from coupledfp import (
    ComparabilityError,
    ContractionParams,
    CoupledFPError,
    CoupledMap,
    DimensionMismatchError,
    DomainError,
    InputError,
    IterationConfig,
    Pair,
    SpaceDescriptor,
    check_seed_condition,
    contraction_margin,
    dass_gupta_margin,
    distance,
    get_builtin,
    iterate,
    load_problem,
    mixed_monotone_check,
    rational_min_term,
    sample_comparable_pairs,
    verify_coupled_fixed_point,
)

from coupledfp.maps import _box_width, _uniform_in_box

SPACE1 = SpaceDescriptor(dim=1)
CONFIGS = os.path.join(os.path.dirname(__file__), "data", "configs")


def pair(x, y):
    return Pair([float(x)], [float(y)])


class TestContractionParams:
    def test_ratio(self):
        params = ContractionParams(0.1, 0.5)
        assert params.ratio == pytest.approx(5.0 / 9.0, rel=1e-15)
        assert 0 < params.ratio < 1

    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            ContractionParams(-0.1, 0.5)
        with pytest.raises(InputError):
            ContractionParams(0.1, 0.0)
        with pytest.raises(InputError):
            ContractionParams(0.6, 0.4)

    @pytest.mark.parametrize(
        "alpha, beta", [(np.nan, 0.5), (np.inf, 0.5), (0.1, np.inf), (0.1, -np.inf)]
    )
    def test_rejects_non_finite_values(self, alpha, beta):
        with pytest.raises(InputError) as exc:
            ContractionParams(alpha, beta)
        assert str(exc.value) == "alpha and beta must be finite"

    def test_alpha_zero_warns_but_works(self):
        with pytest.warns(UserWarning):
            params = ContractionParams(0.0, 0.5)
        assert params.ratio == 0.5

    def test_alpha_zero_warning_names_caller(self):
        with pytest.warns(UserWarning) as record:
            ContractionParams(0.0, 0.5)
        assert record[0].filename == __file__


class TestEvalMap:
    def test_linear_demo_values(self, linear):
        assert linear.map.evaluate([-1.0], [1.0])[0] == -0.5
        assert linear.map.evaluate([0.0], [0.0])[0] == 0.0

    def test_affine_demo_value(self, affine):
        assert affine.map.evaluate([0.0], [3.0])[0] == pytest.approx(0.25, abs=1e-15)

    def test_out_of_domain(self, linear):
        with pytest.raises(DomainError):
            linear.map.evaluate([5.0], [0.0])

    def test_evaluator_of_wrong_shape(self):
        F = CoupledMap("flat", 2, lambda x, y: x[:, 0], [-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(DomainError, match=r"'flat' returned shape \(3,\), expected \(3, 2\)"):
            F.evaluate_rows(np.zeros((3, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "X, Y", [(np.zeros(2), np.zeros(2)), (np.zeros((2, 1)), np.zeros((3, 1))),
                 (np.zeros((2, 2)), np.zeros((2, 2)))],
        ids=["one-row", "unequal-rows", "wrong-dim"],
    )
    def test_stacks_of_wrong_shape(self, linear, X, Y):
        with pytest.raises(DimensionMismatchError, match=r"expected two \(n, 1\) stacks"):
            linear.map.evaluate_rows(X, Y)

    def test_empty_box_rejected(self):
        with pytest.raises(InputError):
            CoupledMap("bad", 1, lambda x, y: x, lower=[1.0], upper=[0.0])

    def test_box_edges_are_inside(self):
        # center -/+ half width gives 1.0700000000000003 for this box's lower edge
        F = CoupledMap("edge", 1, lambda x, y: x, lower=[1.07], upper=[2.29])
        edges = np.array([[1.07], [2.29]])
        assert F.contains(edges[0]) and F.contains(edges[1])
        assert F.evaluate_rows(edges, edges[::-1]).tolist() == [[1.07], [2.29]]
        below = np.nextafter(1.07, 0.0)
        assert not F.contains(np.array([below]))
        assert F.evaluate_rows(np.array([[below]]), edges[:1], padded=True).tolist() == [[below]]
        with pytest.raises(DomainError, match="outside the domain box"):
            F.evaluate_rows(np.array([[below]]), edges[:1])


    def test_box_wider_than_the_largest_float(self):
        # upper - lower overflows to inf; the strict box is still [lower, upper]
        F = CoupledMap("wide", 1, lambda x, y: 0.5 * x, [-1e308], [1e308])
        assert F.contains(np.array([0.0]))
        assert F.evaluate([0.0], [1e308]).tolist() == [0.0]
        with pytest.raises(DomainError, match="outside the domain box"):
            F.evaluate([0.0], [1.5e308])

    def test_padded_edges_match_evaluate(self):
        F = CoupledMap("edge", 1, lambda x, y: x - 0.5 * y, [1.07], [2.29])
        grow = 0.5 * (2.29 - 1.07)
        lo, hi = 1.07 - grow, 2.29 + grow
        values = [1.0]  # inside the padded box only
        for edge in (lo, hi):
            values += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
        rows = np.array([[x, y] for x in values for y in values])
        X, Y = rows[:, :1], rows[:, 1:]

        def expected_outcome(x, y):
            for p in (x, y):
                if not lo <= p[0] <= hi:
                    return f"input {p.tolist()} outside the domain box of 'edge'"
            return (x - 0.5 * y).tolist()

        def outcome(call):
            try:
                return call().tolist()
            except DomainError as exc:
                return str(exc)

        expected = [expected_outcome(x, y) for x, y in zip(X, Y)]
        got = [outcome(lambda: F.evaluate_rows(X[k : k + 1], Y[k : k + 1], padded=True)[0])
               for k in range(len(X))]
        assert got == expected
        assert 0 < sum(isinstance(e, str) for e in expected) < len(expected)
        first_bad = next(e for e in expected if isinstance(e, str))
        with pytest.raises(DomainError) as exc:
            F.evaluate_rows(X, Y, padded=True)
        assert str(exc.value) == first_bad


def _columns(X, Y):
    # linear_demo's (x - y) / 4 on columns: it indexes a stack's second
    # axis, so it takes (n, 1) stacks and nothing else
    return (X[:, :1] - Y[:, :1]) / 4.0


def _outcome(call):
    """The image's bytes, or the error's type and message."""
    try:
        return call().tobytes()
    except CoupledFPError as exc:
        return type(exc).__name__, str(exc)


class TestOneEvaluatorContract:
    def test_stack_only_evaluator(self, linear):
        space, G = linear.space, linear.map
        F = CoupledMap("columns", 1, _columns, G.lower, G.upper)
        assert F.evaluate([0.5], [0.1]).tobytes() == G.evaluate([0.5], [0.1]).tobytes()
        for x0, y0 in [([-1.0], [1.0]), ([1.0], [-1.0])]:
            assert check_seed_condition(space, F, x0, y0) == check_seed_condition(space, G, x0, y0)
        for p in [Pair([0.0], [0.0]), Pair([0.3], [-0.2])]:
            assert verify_coupled_fixed_point(space, F, p, 1e-12) == (
                verify_coupled_fixed_point(space, G, p, 1e-12)
            )
        params = ContractionParams(0.1, 0.5)
        a, b = pair(0.5, -0.5), pair(0.25, 0.5)
        assert contraction_margin(space, F, params, a, b) == (
            contraction_margin(space, G, params, a, b)
        )
        assert dass_gupta_margin(space, F, params, [0.5], [-1.0]) == (
            dass_gupta_margin(space, G, params, [0.5], [-1.0])
        )
        config = IterationConfig(params=params)
        (got, got_trace), (want, want_trace) = (
            iterate(space, H, [-1.0], [1.0], config) for H in (F, G)
        )
        assert got.fixed_pair.first.tobytes() == want.fixed_pair.first.tobytes()
        assert got.fixed_pair.second.tobytes() == want.fixed_pair.second.tobytes()
        assert (got.iterations_used, got.final_residual, got.converged) == (
            want.iterations_used, want.final_residual, want.converged
        )
        assert len(got_trace) == len(want_trace)

    @pytest.mark.parametrize(
        "name",
        ["linear_demo", "affine_demo", "integral_demo:1", "integral_demo:16",
         "integral_demo:1024", "expr_2d.json", "expr_4d.json", "expr_ln.json"],
    )
    def test_one_row_evaluate_is_the_stacked_call(self, name):
        if name.endswith(".json"):
            F = load_problem(os.path.join(CONFIGS, name)).map
        else:
            builtin, _, dim = name.partition(":")
            F = get_builtin(builtin, int(dim) if dim else None).map
        X, Y = np.random.default_rng(17).uniform(F.lower, F.upper, (2, 12, F.dim))
        X[3] = F.upper + 1.0
        Y[6, 0] = np.nan
        X[9, 0] = -0.75  # ln of a negative number on expr_ln
        rows = [_outcome(lambda: F.evaluate(x, y)) for x, y in zip(X, Y)]
        assert rows == [
            _outcome(lambda: F.evaluate_rows(x[None], y[None])[0]) for x, y in zip(X, Y)
        ]
        assert rows[3][0] == "DomainError" and "outside the domain box" in rows[3][1]
        assert rows[6][0] == "InputError"
        assert rows[6][1].startswith("point has non-finite coordinates")
        if name == "expr_ln.json":
            assert rows[9] == ("DomainError", "ln of non-positive value -0.25")
        # a stack of the good rows gives each row's one-row image, and the
        # whole stack fails with the first bad row's error
        good = [k for k, r in enumerate(rows) if isinstance(r, bytes)]
        assert len(good) >= 6
        stacked = F.evaluate_rows(X[good], Y[good])
        assert [row.tobytes() for row in stacked] == [rows[k] for k in good]
        first_bad = next(r for r in rows if not isinstance(r, bytes))
        assert _outcome(lambda: F.evaluate_rows(X, Y)) == first_bad


    @pytest.mark.parametrize(
        "x,y,bad",
        [
            ([np.nan], [3.0], "array([nan])"),
            ([3.0], [np.nan], "array([nan])"),
            ([np.inf], [np.nan], "array([inf])"),
            ([3.0], [np.inf], "array([inf])"),
            ([3.0], [-3.0], "[3.0]"),
            ([0.5], [-3.0], "[-3.0]"),
        ],
    )
    def test_first_bad_row_error_precedence(self, linear, x, y, bad):
        # on the first bad row: x not finite, then y not finite, then x
        # outside the box, then y outside it
        F = linear.map
        if bad.startswith("array"):
            error = ("InputError", f"point has non-finite coordinates: {bad}")
        else:
            error = ("DomainError", f"input {bad} outside the domain box of 'linear_demo'")
        assert _outcome(lambda: F.evaluate(x, y)) == error
        X = np.array([[0.5], [-1.0], x, [np.nan], [-3.0]])
        Y = np.array([[0.25], [1.0], y, [3.0], [np.nan]])
        assert _outcome(lambda: F.evaluate_rows(X, Y)) == error
        assert _outcome(lambda: F.evaluate_rows(Y, X)) == _outcome(lambda: F.evaluate(y, x))


class TestRationalMinTerm:
    def test_zero_at_fixed_pair(self, linear):
        assert rational_min_term(SPACE1, linear.map, pair(0, 0), pair(0, 0)) == 0.0

    def test_zero_when_one_side_fixed(self, linear):
        # either argument being a coupled fixed pair kills one numerator
        assert rational_min_term(SPACE1, linear.map, pair(0, 0), pair(-1, 1)) == 0.0
        assert rational_min_term(SPACE1, linear.map, pair(-1, 1), pair(0, 0)) == 0.0

    def test_symmetric_seed_value(self, linear):
        # both terms equal 0.5 * (2 + 0.5 + 0.5) / 2
        got = rational_min_term(SPACE1, linear.map, pair(-1, 1), pair(-1, 1))
        assert got == pytest.approx(0.75, abs=1e-15)

    def test_affine_value(self, affine):
        got = rational_min_term(SPACE1, affine.map, pair(1, 1), pair(0, 2))
        assert got == pytest.approx(17.0 / 288.0, rel=1e-14)

    def test_nonnegative_and_denominator_floor(self, linear, rng):
        # the shared denominator is 2 + d(x,u) + d(y,v) >= 2, so the term is
        # finite and >= 0 wherever the map is defined
        draws = rng.uniform(-2, 2, size=(200, 4))
        for x, y, u, v in draws:
            a, b = pair(x, y), pair(u, v)
            denom = 2.0 + abs(x - u) + abs(y - v)
            assert denom >= 2.0
            assert rational_min_term(SPACE1, linear.map, a, b) >= 0.0


class TestContractionMargin:
    def test_tight_pair(self, linear):
        params = ContractionParams(0.1, 0.5)
        got = contraction_margin(SPACE1, linear.map, params, pair(0, 0), pair(-1, 1))
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_identical_pairs_reduce_to_alpha_term(self, linear):
        params = ContractionParams(0.1, 0.5)
        got = contraction_margin(SPACE1, linear.map, params, pair(-1, 1), pair(-1, 1))
        assert got == pytest.approx(0.075, rel=1e-13)

    def test_affine_example(self, affine):
        params = ContractionParams(0.1, 2.0 / 3.0)
        got = contraction_margin(SPACE1, affine.map, params, pair(1, 1), pair(0, 2))
        assert got == pytest.approx(0.1 * 17 / 288 + 2 / 3 - 7 / 12, rel=1e-12)

    def test_margin_zero_at_fixed_pair(self, linear):
        params = ContractionParams(0.1, 0.5)
        assert contraction_margin(SPACE1, linear.map, params, pair(0, 0), pair(0, 0)) == 0.0

    def test_requires_ordered_direction(self, linear):
        params = ContractionParams(0.1, 0.5)
        with pytest.raises(ComparabilityError):
            contraction_margin(SPACE1, linear.map, params, pair(-1, 1), pair(0, 0))


class TestDassGupta:
    def test_equal_arguments_nonnegative(self, linear):
        params = ContractionParams(0.1, 0.5)
        assert dass_gupta_margin(SPACE1, linear.map, params, [0.7], [0.7]) >= 0.0

    def test_evaluator_reusing_its_output_buffer(self):
        # f(x) = x / 4 on the diagonal; an evaluator may hand back one
        # buffer per shape, so f(x_hat) must not be overwritten by f(y_hat)
        buffers = {}

        def reuse(x, y):
            out = buffers.setdefault(x.shape, np.empty(x.shape))
            return np.multiply(2.0 * x - y, 0.25, out=out)

        params = ContractionParams(0.1, 0.5)
        fresh = CoupledMap("fresh", 1, lambda x, y: (2.0 * x - y) * 0.25, [-2.0], [2.0])
        reused = CoupledMap("reused", 1, reuse, [-2.0], [2.0])
        want = dass_gupta_margin(SPACE1, fresh, params, [1.0], [-1.0])
        assert want == pytest.approx(0.54375, abs=1e-15)
        assert dass_gupta_margin(SPACE1, reused, params, [1.0], [-1.0]) == want

    @pytest.mark.parametrize("metric", ["euclidean", "max", "l1"])
    def test_matches_four_distance_formula(self, metric, rng):
        # the margin from one row_distances call against its definition by
        # four `distance` calls, bit for bit
        space = SpaceDescriptor(dim=3, metric=metric)
        F = CoupledMap(
            "mixed3", 3, lambda X, Y: 0.3 * X - 0.2 * Y[:, ::-1] + 0.1, [-4.0] * 3, [4.0] * 3
        )
        params = ContractionParams(0.1, 0.5)
        for x_hat, y_hat in rng.uniform(-4.0, 4.0, size=(100, 2, 3)):
            f_x, f_y = F.evaluate(x_hat, x_hat), F.evaluate(y_hat, y_hat)
            gap = distance(space, x_hat, y_hat)
            want = (
                params.alpha
                * distance(space, y_hat, f_y)
                * (1.0 + distance(space, x_hat, f_x))
                / (1.0 + gap)
                + params.beta * gap
            ) - distance(space, f_x, f_y)
            got = dass_gupta_margin(space, F, params, x_hat, y_hat)
            assert type(got) is float and got.hex() == want.hex()

    def test_linear_value(self, linear):
        params = ContractionParams(0.1, 0.5)
        got = dass_gupta_margin(SPACE1, linear.map, params, [1.0], [0.0])
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_affine_value(self, affine):
        params = ContractionParams(0.1, 2.0 / 3.0)
        got = dass_gupta_margin(SPACE1, affine.map, params, [0.0], [12.0 - 8.0])
        # recompute directly: f(x) = x/12 + 1 on the diagonal
        f = lambda t: t / 12.0 + 1.0
        xh, yh = 0.0, 4.0
        expected = (
            0.1 * abs(yh - f(yh)) * (1 + abs(xh - f(xh))) / (1 + abs(xh - yh))
            + (2.0 / 3.0) * abs(xh - yh)
            - abs(f(xh) - f(yh))
        )
        assert got == pytest.approx(expected, rel=1e-14)

    def test_affine_frozen_value(self):
        # x_hat = 0, y_hat = 12 needs a wider box than the catalog affine demo
        F = CoupledMap(
            "affine_wide", 1, lambda x, y: x / 3.0 - y / 4.0 + 1.0, [-16.0], [16.0]
        )
        params = ContractionParams(0.1, 2.0 / 3.0)
        got = dass_gupta_margin(SPACE1, F, params, [0.0], [12.0])
        assert got == pytest.approx(93.0 / 13.0, rel=1e-14)

    def test_implied_by_diagonal_contraction(self, affine, rng):
        # the diagonal reduction keeps the second rational term, which is
        # >= the min of the two, so the margin can only grow
        params = ContractionParams(0.1, 2.0 / 3.0)
        space, F = affine.space, affine.map
        from coupledfp import distance

        for xh, yh in rng.uniform(-4, 4, size=(100, 2)):
            a, b = pair(xh, xh), pair(yh, yh)
            lhs = distance(
                space, F.evaluate(a.first, a.second), F.evaluate(b.first, b.second)
            )
            coupled = (
                params.alpha * rational_min_term(space, F, a, b)
                + params.beta * distance(space, a.first, b.first)
                - lhs
            )
            dg = dass_gupta_margin(space, F, params, [xh], [yh])
            assert dg >= coupled - 1e-12


class TestMixedMonotone:
    def test_linear_not_falsified(self, linear):
        report = mixed_monotone_check(linear.map, 1000, rng_seed=11)
        assert report.violations == 0
        assert not report.falsified
        assert report.worst_excess == 0.0

    def test_product_map_falsified(self):
        F = CoupledMap("xy", 1, lambda x, y: x * y, lower=[-1.0], upper=[1.0])
        report = mixed_monotone_check(F, 1000, rng_seed=11)
        assert report.falsified
        assert report.worst_excess > 0
        assert report.worst_witness is not None

    def test_constant_map_not_falsified(self):
        F = CoupledMap(
            "const", 2, lambda x, y: np.zeros_like(x), lower=[-1.0, -1.0], upper=[1.0, 1.0]
        )
        report = mixed_monotone_check(F, 300, rng_seed=5)
        assert report.violations == 0

    def test_deterministic_given_seed(self, linear):
        first = mixed_monotone_check(linear.map, 200, rng_seed=3)
        second = mixed_monotone_check(linear.map, 200, rng_seed=3)
        assert first.violations == second.violations
        assert first.worst_excess == second.worst_excess

    def test_sample_count_validated(self, linear):
        with pytest.raises(InputError):
            mixed_monotone_check(linear.map, 0, rng_seed=1)


def box_draw(F, size):
    """`_uniform_in_box` and `rng.uniform` on one seed."""
    got = _uniform_in_box(F, np.random.default_rng(7), size, _box_width(F))
    return [got], [np.random.default_rng(7).uniform(F.lower, F.upper, size=size)]


def pair_offsets(F, size):
    """`sample_comparable_pairs`' four stacks and its formula on `rng.uniform`."""
    shape = (size[0], F.dim)
    # The max metric: a euclidean distance on the huge box overflows to inf.
    (family,) = sample_comparable_pairs(SpaceDescriptor(F.dim, "max"), F, size[0], 7).parts
    got = family.rows(0, len(family))
    rng = np.random.default_rng(7)
    b_first = rng.uniform(F.lower, F.upper, size=shape)
    b_second = rng.uniform(F.lower, F.upper, size=shape)
    width = F.upper - F.lower
    a_first = np.minimum(b_first + rng.uniform(0.0, 1.0, size=shape) * width, F.upper)
    a_second = np.maximum(b_second - rng.uniform(0.0, 1.0, size=shape) * width, F.lower)
    return list(got), [a_first, a_second, b_first, b_second]


BOXES = {
    "signed-zero": ([-0.0], [0.0], (300, 1)),
    "degenerate-side": ([-1.0, 0.0, 2.0, -3.0], [1.0, 0.0, 5.0, -2.0], (400, 4)),
    "six-rows": ([-0.0, 1.0, 2.0], [0.0, 1.0, 4.0], (50, 6, 3)),
    "huge": ([-1e300], [1e300], (300, 1)),
    "tiny": ([1e-300], [2e-300], (300, 1)),
    "n1024": (np.zeros(1024), np.linspace(0.0, 3.0, 1024), (100, 6, 1024)),
}


class TestUniformInBox:
    @pytest.mark.parametrize(
        "draw, lower, upper, size",
        [pytest.param(box_draw, *box, id=name) for name, box in BOXES.items()]
        + [pytest.param(pair_offsets, *box, id=f"pair-offsets-{name}")
           for name, box in BOXES.items()],
    )
    def test_bit_equal_to_rng_uniform(self, draw, lower, upper, size):
        F = CoupledMap("box", len(lower), lambda x, y: x, lower=lower, upper=upper)
        got, want = draw(F, size)
        for g, w in zip(got, want, strict=True):
            # bit patterns, so that -0.0 and 0.0 differ
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    def test_infinite_width_rejected(self):
        F = CoupledMap("wide", 1, lambda x, y: x, lower=[-1e308], upper=[1e308])
        with pytest.raises(InputError, match="wider than the largest float"):
            mixed_monotone_check(F, 3, rng_seed=0)
