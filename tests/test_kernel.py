"""The batched margin kernel against scalar references written out here.

The references evaluate one sample at a time with `CoupledMap.evaluate` and
`distance`, in the order F(x,y), F(u,v), F(y,x), F(v,u), which is how the
margin was computed before evaluation was batched.
"""

import math
import os

import numpy as np
import pytest

from coupledfp import (
    ContractionParams,
    CoupledMap,
    DimensionMismatchError,
    DomainError,
    Pair,
    SpaceDescriptor,
    directed_pairs,
    distance,
    evaluate_samples,
    get_builtin,
    load_problem,
    margin_terms,
    mixed_monotone_check,
    sample_comparable_pairs,
)
from coupledfp.maps import BLOCK_FLOATS

EXPR_2D = os.path.join(os.path.dirname(__file__), "data", "configs", "expr_2d.json")


def reference_terms(space, F, a, b):
    x, y, u, v = a.first, a.second, b.first, b.second
    f_xy, f_uv = F.evaluate(x, y), F.evaluate(u, v)
    f_yx, f_vu = F.evaluate(y, x), F.evaluate(v, u)
    disp_x, disp_y = distance(space, x, f_xy), distance(space, y, f_yx)
    disp_u, disp_v = distance(space, u, f_uv), distance(space, v, f_vu)
    denom = 2.0 + distance(space, x, u) + distance(space, y, v)
    term = min(disp_x * (2.0 + disp_u + disp_v) / denom, disp_u * (2.0 + disp_x + disp_y) / denom)
    span = distance(space, x, u) + distance(space, y, v)
    return distance(space, f_xy, f_uv), term, span


def first_reference_error(space, F, stacks):
    for x, y, u, v in zip(*stacks):
        try:
            reference_terms(space, F, Pair(x, y), Pair(u, v))
        except DomainError as exc:
            return str(exc)
    return None


def reference_monotone(F, sample_count, rng_seed):
    rng = np.random.default_rng(rng_seed)
    draws = rng.uniform(F.lower, F.upper, size=(sample_count, 6, F.dim))
    violations, worst_excess, worst = 0, 0.0, None
    for k in range(sample_count):
        p, q, y_fix, x_fix, r, s = draws[k]
        x1, x2 = np.minimum(p, q), np.maximum(p, q)
        y1, y2 = np.minimum(r, s), np.maximum(r, s)
        ef = float(np.max(F.evaluate(x1, y_fix) - F.evaluate(x2, y_fix)))
        es = float(np.max(F.evaluate(x_fix, y2) - F.evaluate(x_fix, y1)))
        if ef > 0 or es > 0:
            violations += 1
            if ef >= es and ef > worst_excess:
                worst_excess, worst = ef, ("first-argument", x1, x2, y_fix, ef)
            elif es > worst_excess:
                worst_excess, worst = es, ("second-argument", y1, y2, x_fix, es)
    return violations, worst_excess, worst


def problems():
    yield get_builtin("linear_demo")
    yield get_builtin("affine_demo")
    yield get_builtin("integral_demo", 16)
    yield load_problem(EXPR_2D)


@pytest.mark.parametrize("prob", problems(), ids=lambda p: p.name[:20])
def test_sample_set_terms_match_scalar_reference_bit_for_bit(prob):
    space, F = prob.space, prob.map
    samples = sample_comparable_pairs(space, F, 300, 4) + directed_pairs(space, F)
    assert len(samples) > 300
    for s in samples:
        got = (s.image_distance, s.rational_term, s.distance_sum)
        assert got == reference_terms(space, F, s.a, s.b)


@pytest.mark.parametrize("dim,count", [(1, 40_000), (16, 3_000), (1024, 100)])
def test_certify_evaluates_four_rows_per_sample_in_blocks(dim, count):
    calls = []

    def evaluator(x, y):
        calls.append(len(x))
        return (x - y) / 4.0

    F = CoupledMap("counted", dim, evaluator, -np.ones(dim), np.ones(dim))
    samples = sample_comparable_pairs(SpaceDescriptor(dim=dim), F, count, rng_seed=3)
    report = evaluate_samples(ContractionParams(0.1, 0.5), samples)
    rows_per_block = max(1, BLOCK_FLOATS // dim)
    assert report.sample_count == count
    assert sum(calls) == 4 * count
    assert len(calls) <= 4 * math.ceil(count / rows_per_block)
    assert max(calls) <= rows_per_block


def _picky(x, y):
    bad = x[:, 0] > 0.9
    if bad.any():
        raise DomainError(f"refused first argument {x[np.argmax(bad)].tolist()}")
    return x


def _nan_rows(x, y):
    return np.where(x > 0.9, np.nan, x)


# Both fail where the first argument's first coordinate exceeds 0.9, with a
# message that shows the second coordinate, which labels the row.
FAILING_MAPS = [
    CoupledMap("picky", 2, _picky, [-1.0, -1.0], [1.0, 1.0]),
    CoupledMap("nan_rows", 2, _nan_rows, [-1.0, -1.0], [1.0, 1.0]),
]
SPACE2 = SpaceDescriptor(dim=2)


@pytest.mark.parametrize("F", FAILING_MAPS, ids=lambda F: F.name)
def test_failure_names_first_bad_row_in_sample_order(F):
    # sample 1 fails only at F(v, u); sample 2 fails already at F(x, y)
    x = np.array([[0.0, 0.01], [0.5, 0.02], [0.95, 0.03]])
    y = np.array([[0.0, 0.04], [0.5, 0.05], [0.0, 0.06]])
    u = np.zeros((3, 2))
    v = np.array([[0.0, 0.07], [0.95, 0.08], [0.5, 0.09]])
    expected = first_reference_error(SPACE2, F, (x, y, u, v))
    assert "0.08" in expected
    with pytest.raises(DomainError) as info:
        margin_terms(SPACE2, F, x, y, u, v)
    assert str(info.value) == expected


@pytest.mark.parametrize("F", FAILING_MAPS, ids=lambda F: F.name)
def test_random_failures_match_reference(F):
    rng = np.random.default_rng(8)
    b_first, b_second = rng.uniform(-1, 1, (2, 200, 2))
    a_first = np.minimum(b_first + rng.uniform(0, 0.2, (200, 2)), 1.0)
    a_second = np.maximum(b_second - rng.uniform(0, 0.2, (200, 2)), -1.0)
    stacks = (a_first, a_second, b_first, b_second)
    expected = first_reference_error(SPACE2, F, stacks)
    with pytest.raises(DomainError) as info:
        margin_terms(SPACE2, F, *stacks)
    assert str(info.value) == expected


@pytest.mark.parametrize("F", FAILING_MAPS, ids=lambda F: F.name)
def test_out_of_box_row_named_before_later_failures(F):
    x = np.array([[0.0, 0.0], [0.5, 0.0], [0.95, 0.0]])
    y = np.array([[0.0, 0.0], [-1.5, 0.0], [0.0, 0.0]])
    u = np.zeros((3, 2))
    v = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
    expected = first_reference_error(SPACE2, F, (x, y, u, v))
    assert expected.startswith("input [-1.5, 0.0] outside the domain box")
    with pytest.raises(DomainError) as info:
        margin_terms(SPACE2, F, x, y, u, v)
    assert str(info.value) == expected


def _rows(n, dim=2):
    return np.zeros((n, dim))


@pytest.mark.parametrize(
    "stacks",
    [
        (_rows(3), _rows(3), _rows(3), _rows(2)),
        (_rows(2), _rows(3), _rows(3), _rows(3)),
        (np.zeros(2),) * 4,
        (_rows(3, 1),) * 4,
        (_rows(0, 1),) * 4,
        (np.zeros((1, 3, 2)),) * 4,
    ],
    ids=["last-shorter", "first-shorter", "one-dim", "wrong-dim", "empty-wrong-dim", "three-dim"],
)
def test_margin_terms_rejects_stacks_of_wrong_shape(stacks):
    F = CoupledMap("difference", 2, lambda x, y: 0.25 * (x - y), [-1.0, -1.0], [1.0, 1.0])
    shapes = [s.shape for s in stacks]
    with pytest.raises(DimensionMismatchError) as info:
        margin_terms(SPACE2, F, *stacks)
    assert str(info.value) == f"expected four (n, 2) stacks, got {shapes}"


MONOTONE_MAPS = [
    CoupledMap("xy", 1, lambda x, y: x * y, [-1.0], [1.0]),
    CoupledMap("second_only", 1, lambda x, y: 0.5 * x + 0.25 * y, [-1.0], [1.0]),
    # integer steps make ties between samples common
    CoupledMap("steps", 2, lambda x, y: np.floor(2 * y) - np.floor(2 * x), [-1, -1], [1, 1]),
    # every excess is 0 or 1, so both directions often tie at the worst sample
    CoupledMap("switches", 1, lambda x, y: (y > 0) * 1.0 - (x > 0) * 1.0, [-1.0], [1.0]),
]


@pytest.mark.parametrize("seed", [6, 7, 8])
@pytest.mark.parametrize("F", MONOTONE_MAPS, ids=lambda F: F.name)
def test_mixed_monotone_check_matches_loop_reference(F, seed):
    report = mixed_monotone_check(F, 500, rng_seed=seed)
    violations, worst_excess, worst = reference_monotone(F, 500, seed)
    assert report.violations == violations > 0
    assert report.worst_excess == worst_excess
    w = report.worst_witness
    assert (w.kind, w.excess) == (worst[0], worst[4])
    for got, want in zip((w.lo, w.hi, w.other), worst[1:4]):
        assert np.array_equal(got, want)
    if F.name == "second_only":
        assert w.kind == "second-argument"
