import numpy as np
import pytest

from coupledfp import (
    ComparabilityError,
    ContractionParams,
    CoupledMap,
    DomainError,
    InputError,
    Pair,
    SpaceDescriptor,
    contraction_margin,
    dass_gupta_margin,
    eval_map,
    mixed_monotone_check,
    rational_min_term,
)

SPACE1 = SpaceDescriptor(dim=1)


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

    def test_alpha_zero_warns_but_works(self):
        with pytest.warns(UserWarning):
            params = ContractionParams(0.0, 0.5)
        assert params.ratio == 0.5


class TestEvalMap:
    def test_linear_demo_values(self, linear):
        assert eval_map(linear.map, [-1.0], [1.0])[0] == -0.5
        assert eval_map(linear.map, [0.0], [0.0])[0] == 0.0

    def test_affine_demo_value(self, affine):
        assert eval_map(affine.map, [0.0], [3.0])[0] == pytest.approx(0.25, abs=1e-15)

    def test_out_of_domain(self, linear):
        with pytest.raises(DomainError):
            eval_map(linear.map, [5.0], [0.0])

    def test_empty_box_rejected(self):
        with pytest.raises(InputError):
            CoupledMap("bad", 1, lambda x, y: x, lower=[1.0], upper=[0.0])

    def test_box_edges_are_inside(self):
        # center -/+ half width gives 1.0700000000000003 for this box's lower edge
        F = CoupledMap("edge", 1, lambda x, y: x, lower=[1.07], upper=[2.29], batched=True)
        edges = np.array([[1.07], [2.29]])
        assert F.contains(edges[0]) and F.contains(edges[1])
        assert F.evaluate_rows(edges, edges[::-1]).tolist() == [[1.07], [2.29]]
        below = np.nextafter(1.07, 0.0)
        assert not F.contains(np.array([below]))
        assert F.contains(np.array([below]), padding=1.5)
        with pytest.raises(DomainError, match="outside the domain box"):
            F.evaluate_rows(np.array([[below]]), edges[:1])


    @pytest.mark.parametrize("batched", [True, False])
    def test_padded_edges_match_evaluate(self, batched):
        F = CoupledMap("edge", 1, lambda x, y: x - 0.5 * y, [1.07], [2.29], batched=batched)
        grow = 0.5 * (2.0 - 1.0) * (2.29 - 1.07)
        values = [1.0]  # inside the padded box only
        for edge in (1.07 - grow, 2.29 + grow):
            values += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
        rows = np.array([[x, y] for x in values for y in values])
        X, Y = rows[:, :1], rows[:, 1:]

        def outcome(call):
            try:
                return call().tolist()
            except DomainError as exc:
                return str(exc)

        expected = [outcome(lambda: F.evaluate(x, y, padding=2.0)) for x, y in zip(X, Y)]
        got = [outcome(lambda: F.evaluate_rows(X[k : k + 1], Y[k : k + 1], padding=2.0)[0])
               for k in range(len(X))]
        assert got == expected
        assert 0 < sum(isinstance(e, str) for e in expected) < len(expected)
        first_bad = next(e for e in expected if isinstance(e, str))
        with pytest.raises(DomainError) as exc:
            F.evaluate_rows(X, Y, padding=2.0)
        assert str(exc.value) == first_bad


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
        report = mixed_monotone_check(linear.space, linear.map, 1000, rng_seed=11)
        assert report.violations == 0
        assert not report.falsified
        assert report.worst_excess == 0.0

    def test_product_map_falsified(self):
        space = SpaceDescriptor(dim=1)
        F = CoupledMap("xy", 1, lambda x, y: x * y, lower=[-1.0], upper=[1.0])
        report = mixed_monotone_check(space, F, 1000, rng_seed=11)
        assert report.falsified
        assert report.worst_excess > 0
        assert report.worst_witness is not None

    def test_constant_map_not_falsified(self):
        space = SpaceDescriptor(dim=2)
        F = CoupledMap(
            "const", 2, lambda x, y: np.zeros(2), lower=[-1.0, -1.0], upper=[1.0, 1.0]
        )
        report = mixed_monotone_check(space, F, 300, rng_seed=5)
        assert report.violations == 0

    def test_deterministic_given_seed(self, linear):
        first = mixed_monotone_check(linear.space, linear.map, 200, rng_seed=3)
        second = mixed_monotone_check(linear.space, linear.map, 200, rng_seed=3)
        assert first.violations == second.violations
        assert first.worst_excess == second.worst_excess

    def test_sample_count_validated(self, linear):
        with pytest.raises(InputError):
            mixed_monotone_check(linear.space, linear.map, 0, rng_seed=1)
