import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coupledfp import (
    CoupledMap,
    DimensionMismatchError,
    InputError,
    IterationConfig,
    Pair,
    SpaceDescriptor,
    as_point,
    build_problem,
    comparable,
    distance,
    find_bridge,
    get_builtin,
    leq,
    mixed_monotone_check,
    product_leq,
    sample_comparable_pairs,
)
from coupledfp.spaces import row_distances

DIM3 = SpaceDescriptor(dim=3)

# The definition of `distance` before it became a one-row call of
# `row_distances`: the floats that both must keep.
NORM_ORDER = {"euclidean": 2, "max": np.inf, "l1": 1}


def coords(dim=3):
    # magnitudes kept moderate so the 1e-12 absolute triangle tolerance
    # stays far above accumulated ulp error
    finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
    return st.lists(finite, min_size=dim, max_size=dim).map(np.array)


def pairs(dim=3):
    return st.tuples(coords(dim), coords(dim)).map(lambda t: Pair(t[0], t[1]))


class TestPointValidation:
    def test_scalar_promotes_to_vector(self):
        assert as_point(1.5).shape == (1,)

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            as_point([0.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(InputError):
            as_point([float("inf")])

    def test_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            as_point([1.0, 2.0], dim=3)

    def test_pair_dims_must_match(self):
        with pytest.raises(DimensionMismatchError):
            Pair([1.0], [1.0, 2.0])


class TestSpaceDescriptor:
    def test_bad_metric(self):
        with pytest.raises(InputError):
            SpaceDescriptor(dim=1, metric="manhattan")

    def test_bad_dim(self):
        with pytest.raises(InputError):
            SpaceDescriptor(dim=0)


# Every count that must be a positive int, built from the value, and the
# message it rejects a bad value with.
POSITIVE_INT_SITES = {
    "SpaceDescriptor.dim": (
        lambda v: SpaceDescriptor(dim=v),
        "dim must be a positive integer, got {!r}",
    ),
    "CoupledMap.dim": (
        lambda v: CoupledMap("m", v, lambda x, y: x, [0.0], [1.0]),
        "dim must be a positive integer, got {!r}",
    ),
    "IterationConfig.max_iter": (
        lambda v: IterationConfig(max_iter=v),
        "max_iter must be a positive integer, got {!r}",
    ),
    "config dim": (
        lambda v: build_problem({"builtin": "integral_demo", "dim": v}),
        "dim must be a positive integer, got {!r}",
    ),
    "integral_demo n_nodes": (
        lambda v: get_builtin("integral_demo", v),
        "integral_demo needs n_nodes >= 1, got {!r}",
    ),
    "mixed_monotone_check sample_count": (
        lambda v: mixed_monotone_check(get_builtin("linear_demo").map, v, 0),
        "sample_count must be >= 1, got {!r}",
    ),
}


@pytest.mark.parametrize("site", POSITIVE_INT_SITES)
@pytest.mark.parametrize("value", [True, False, 0, -3, 2.5, "2"])
def test_one_positive_int_rule(site, value):
    make, message = POSITIVE_INT_SITES[site]
    make(1)
    with pytest.raises(InputError) as exc:
        make(value)
    assert type(exc.value) is InputError
    assert str(exc.value) == message.format(value)


@pytest.mark.parametrize("value", [True, False, -2, 2.5, "2"])
def test_one_count_rule_with_zero(value):
    # the sample count follows the positive-int rule with a minimum of 0
    linear = get_builtin("linear_demo")
    assert len(sample_comparable_pairs(linear.space, linear.map, 0, 0)) == 0
    with pytest.raises(InputError) as exc:
        sample_comparable_pairs(linear.space, linear.map, value, 0)
    assert type(exc.value) is InputError
    assert str(exc.value) == "count must be >= 0, got {!r}".format(value)


class TestDistance:
    def test_euclidean_345(self):
        space = SpaceDescriptor(dim=2, metric="euclidean")
        assert distance(space, [0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_identity_of_indiscernibles(self):
        for metric in ("euclidean", "max", "l1"):
            space = SpaceDescriptor(dim=2, metric=metric)
            assert distance(space, [1.0, -2.0], [1.0, -2.0]) == 0.0

    def test_max_metric(self):
        space = SpaceDescriptor(dim=2, metric="max")
        assert distance(space, [1.0, 2.0], [4.0, 0.0]) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            distance(DIM3, [1.0, 2.0, 3.0], [1.0, 2.0])

    @settings(max_examples=200)
    @given(coords(), coords(), coords())
    def test_metric_axioms(self, p, q, r):
        for metric in ("euclidean", "max", "l1"):
            space = SpaceDescriptor(dim=3, metric=metric)
            dpq = distance(space, p, q)
            assert dpq >= 0
            assert dpq == distance(space, q, p)
            assert distance(space, p, p) == 0.0
            assert dpq <= distance(space, p, r) + distance(space, r, q) + 1e-12


    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40) | st.sampled_from([255, 1024]), st.data())
    def test_distances_equal_norm_bit_for_bit(self, rows, dim, data):
        finite = st.floats(min_value=-1e150, max_value=1e150)
        P, Q = (data.draw(arrays(float, (rows, dim), elements=finite)) for _ in range(2))
        for metric, order in NORM_ORDER.items():
            space = SpaceDescriptor(dim=dim, metric=metric)
            want = np.array([np.linalg.norm(p - q, order) for p, q in zip(P, Q)])
            assert row_distances(space, P, Q).tobytes() == want.tobytes()
            one = np.array([distance(space, p, q) for p, q in zip(P, Q)])
            assert one.tobytes() == want.tobytes()


class TestOrder:
    def test_examples(self):
        space = SpaceDescriptor(dim=2)
        assert leq(space, [1.0, 2.0], [1.0, 3.0])
        assert not leq(space, [1.0, 2.0], [0.0, 5.0])
        assert leq(space, [1.0, 2.0], [1.0, 2.0])

    @settings(max_examples=200)
    @given(coords(), coords(), coords())
    def test_partial_order_axioms(self, p, q, r):
        assert leq(DIM3, p, p)
        if leq(DIM3, p, q) and leq(DIM3, q, p):
            assert np.array_equal(p, q)
        if leq(DIM3, p, q) and leq(DIM3, q, r):
            assert leq(DIM3, p, r)


class TestProductOrder:
    def test_examples(self):
        space = SpaceDescriptor(dim=1)
        assert product_leq(space, Pair([-1.0], [1.0]), Pair([0.0], [0.0]))
        assert not product_leq(space, Pair([0.0], [0.0]), Pair([-1.0], [1.0]))
        a = Pair([0.5], [0.25])
        assert product_leq(space, a, a)

    def test_comparable_examples(self):
        space = SpaceDescriptor(dim=1)
        assert comparable(space, Pair([-1.0], [1.0]), Pair([0.0], [0.0]))
        # neither direction: 0 <= 1 but 2 <= 1 fails, and 1 <= 0 fails
        assert not comparable(space, Pair([0.0], [1.0]), Pair([1.0], [2.0]))
        a = Pair([3.0], [-3.0])
        assert comparable(space, a, a)

    @settings(max_examples=200)
    @given(pairs(), pairs())
    def test_definition_unfolds(self, a, b):
        expected = leq(DIM3, a.first, b.first) and leq(DIM3, b.second, a.second)
        assert product_leq(DIM3, a, b) == expected


class TestFindBridge:
    def test_examples(self):
        space = SpaceDescriptor(dim=1)
        a, b = Pair([0.0], [1.0]), Pair([1.0], [2.0])
        z = find_bridge(space, a, b)
        assert z.first[0] == 1.0 and z.second[0] == 1.0
        assert product_leq(space, a, z) and product_leq(space, b, z)

        p = Pair([0.3], [0.7])
        z = find_bridge(space, p, p)
        assert np.array_equal(z.first, p.first) and np.array_equal(z.second, p.second)

        z = find_bridge(space, Pair([0.0], [3.0]), Pair([2.0], [1.0]))
        assert z.first[0] == 2.0 and z.second[0] == 1.0

    @settings(max_examples=200)
    @given(pairs(), pairs())
    def test_dominates_both(self, a, b):
        z = find_bridge(DIM3, a, b)
        assert product_leq(DIM3, a, z)
        assert product_leq(DIM3, b, z)
        assert comparable(DIM3, z, a) and comparable(DIM3, z, b)
