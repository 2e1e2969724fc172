import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledfp import (
    ContractionParams,
    CoupledMap,
    InputError,
    Pair,
    ParamEstimate,
    SampleSet,
    SpaceDescriptor,
    certify_region,
    contraction_margin,
    directed_pairs,
    distance,
    estimate_params,
    evaluate_samples,
    explicit_pairs,
    get_builtin,
    load_problem,
    product_leq,
    rational_min_term,
    sample_comparable_pairs,
)
from coupledfp import certificate
from coupledfp.certificate import ALPHA_INSET, RATIO_TOL
from coupledfp.cli import main

ADVERSARIAL = (Pair([0.1], [-0.29]), Pair([0.01], [-0.02]))
# -2*x1 + 2*y1 on [-1, 1]: the directed walk from (-1, 1) leaves the box at
# its first step, to (4, -4).
CONFIGS = os.path.join(os.path.dirname(__file__), "data", "configs")
EXPR_FLIP = os.path.join(CONFIGS, "expr_flip.json")


def grid_minimal_ratio(samples, resolution=1e-3):
    """Brute-force oracle: scan alpha on a grid, take the smallest grid beta
    feasible against every sample, minimize beta/(1-alpha) over the grid."""
    d_img = np.array([s.image_distance for s in samples])
    term = np.array([s.rational_term for s in samples])
    span = np.array([s.distance_sum for s in samples])
    best = None
    alphas = np.arange(0.0, 1.0, resolution)
    for alpha in alphas:
        need = d_img - alpha * term
        with np.errstate(divide="ignore", invalid="ignore"):
            beta_req = np.where(span > 0, 2.0 * need / span, np.where(need > 0, np.inf, 0.0))
        beta_min = float(np.max(beta_req)) if beta_req.size else 0.0
        beta = max(resolution, np.ceil(max(beta_min, 0.0) / resolution) * resolution)
        if alpha + beta >= 1.0:
            continue
        # re-verify the candidate on every sample before accepting it
        margins = alpha * term + 0.5 * beta * span - d_img
        if np.all(margins >= 0):
            ratio = beta / (1.0 - alpha)
            if best is None or ratio < best:
                best = ratio
    return best


class TestSampler:
    def test_count_zero(self, linear):
        assert len(sample_comparable_pairs(linear.space, linear.map, 0, 1)) == 0

    @pytest.mark.parametrize("k", [5, -6])
    def test_index_out_of_range(self, linear, k):
        samples = sample_comparable_pairs(linear.space, linear.map, 5, 1)
        assert samples[-5].a.first.tolist() == samples[0].a.first.tolist()
        with pytest.raises(IndexError, match="sample .* of a set of 5"):
            samples[k]

    @pytest.mark.parametrize("k", [np.int64(3), np.int32(-2), np.uint8(3)])
    def test_numpy_integer_index(self, linear, k):
        # samples[np.argmin(margins)] is the natural idiom; `_skip` takes
        # Python ints only
        samples = sample_comparable_pairs(linear.space, linear.map, 5, 1)
        assert samples[k].a.first.tolist() == samples[3].a.first.tolist()
        with pytest.raises(IndexError, match="sample 5 of a set of 5"):
            samples[np.int64(5)]

    def test_negative_count(self, linear):
        with pytest.raises(InputError):
            sample_comparable_pairs(linear.space, linear.map, -1, 1)

    def test_all_ordered(self, linear):
        samples = sample_comparable_pairs(linear.space, linear.map, 500, 13)
        assert len(samples) == 500
        for s in samples:
            assert product_leq(linear.space, s.b, s.a)

    def test_deterministic(self, linear):
        s1 = sample_comparable_pairs(linear.space, linear.map, 50, 3)
        s2 = sample_comparable_pairs(linear.space, linear.map, 50, 3)
        for a, b in zip(s1, s2):
            assert np.array_equal(a.a.first, b.a.first)
            assert a.image_distance == b.image_distance

    def test_degenerate_box(self, linear):
        F = linear.map
        point = CoupledMap("point", 1, F.evaluator, [0.5], [0.5])
        samples = sample_comparable_pairs(linear.space, point, 20, 1)
        params = ContractionParams(0.1, 0.5)
        for s in samples:
            assert np.array_equal(s.a.first, s.b.first)
            assert s.distance_sum == 0.0
            margin = params.margin(s.image_distance, s.rational_term, s.distance_sum)
            assert margin == params.alpha * s.rational_term
            assert margin >= 0

    def test_cached_values_match_fresh(self, linear, rng):
        samples = sample_comparable_pairs(linear.space, linear.map, 100, 21)
        space, F = linear.space, linear.map
        for s in samples:
            fresh_img = distance(
                space, F.evaluate(s.a.first, s.a.second), F.evaluate(s.b.first, s.b.second)
            )
            fresh_term = rational_min_term(space, F, s.a, s.b)
            fresh_span = distance(space, s.a.first, s.b.first) + distance(
                space, s.a.second, s.b.second
            )
            assert s.image_distance == pytest.approx(fresh_img, rel=1e-15)
            assert s.rational_term == pytest.approx(fresh_term, rel=1e-15)
            assert s.distance_sum == pytest.approx(fresh_span, rel=1e-15)

    def test_rejects_unordered_pair(self, linear):
        with pytest.raises(InputError):
            explicit_pairs(linear.space, linear.map, [(Pair([-1.0], [1.0]), Pair([0.0], [0.0]))])

    def test_no_pairs_give_the_empty_set(self, linear):
        samples = explicit_pairs(linear.space, linear.map, [])
        assert len(samples) == 0
        report = evaluate_samples(ContractionParams(0.1, 0.5), samples)
        assert report.sample_count == 0
        assert report.violations == 0
        assert report.worst_margin is None
        assert report.min_margin_pair is None
        with pytest.raises(InputError):
            estimate_params(samples)
        with pytest.raises(TypeError):
            samples + 1


class TestDirected:
    @pytest.mark.parametrize(
        "box, metric", [([0.0, 1e308], "max"), ([-5e307, 5e307], "l1")], ids=["edge", "sum"]
    )
    def test_box_too_wide_for_pairs(self, box, metric):
        F = CoupledMap("near", 1, lambda x, y: 0.5 * x, [box[0]], [box[1]])
        with pytest.raises(InputError, match="too wide to build pairs on"):
            directed_pairs(SpaceDescriptor(1, metric), F)

    @pytest.mark.parametrize(
        "lo, hi, mid",
        # lo + hi overflows; halving each subnormal edge first would give 1e-323
        [(1e308, 1.1e308, 1.05e308), (5e-324, 2.5e-323, 1.5e-323)],
        ids=["sum-overflows", "subnormal"],
    )
    def test_midpoint(self, lo, hi, mid):
        F = CoupledMap("box", 1, lambda x, y: 0.5 * x + 0.5 * lo, [lo], [hi])
        samples = directed_pairs(SpaceDescriptor(1, "max"), F)
        assert (mid, mid) in [(s.a.first[0], s.a.second[0]) for s in samples]

    def test_walk_drops_pairs_that_left_the_box(self):
        prob = load_problem(EXPR_FLIP)
        F = prob.map
        samples = directed_pairs(prob.space, F)
        assert len(samples) > 0
        for s in samples:
            assert F.contains(s.a.first) and F.contains(s.a.second)

    def test_evaluator_reusing_its_output_buffer(self):
        # (x - y) / 4 on [-2, 2]: an evaluator may hand back one buffer per
        # shape, which must not overwrite the walk's earlier iterates
        buffers = {}

        def reuse(x, y):
            out = buffers.setdefault(x.shape, np.empty(x.shape))
            return np.multiply(x - y, 0.25, out=out)

        space = SpaceDescriptor(dim=1)
        fresh = CoupledMap("fresh", 1, lambda x, y: (x - y) * 0.25, [-2.0], [2.0])
        reused = CoupledMap("reused", 1, reuse, [-2.0], [2.0])
        want, got = directed_pairs(space, fresh), directed_pairs(space, reused)
        # the walk's first pair: a = F applied once to b = (-2, 2)
        assert (-1.0, 1.0) in [(s.a.first[0], s.a.second[0]) for s in got]
        assert len(want.parts) == len(got.parts) == 1
        n = len(want)
        for w, g in zip(
            (*want.parts[0].rows(0, n), want.image_distance, want.rational_term, want.distance_sum),
            (*got.parts[0].rows(0, n), got.image_distance, got.rational_term, got.distance_sum),
        ):
            assert w.tobytes() == g.tobytes()
        params = ContractionParams(0.1, 0.5)
        reports = (certify_region(space, F, params, count=50, rng_seed=3) for F in (fresh, reused))
        assert json.dumps(next(reports).to_jsonable()) == json.dumps(next(reports).to_jsonable())

    def test_certify_on_walk_leaving_box_is_a_finding(self, capsys):
        code = main(["certify", "--config", EXPR_FLIP, "--samples", "100"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "outside the domain box" not in err
        assert "samples evaluated: 112" in out


class TestCertify:
    def test_linear_certified_params_clean(self, linear):
        report = certify_region(
            linear.space, linear.map, ContractionParams(0.1, 0.5), count=10_000, rng_seed=7
        )
        assert report.violations == 0
        assert report.worst_margin >= 0.0

    def test_linear_bad_params_falsified_by_adversarial_pair(self, linear):
        pair = explicit_pairs(linear.space, linear.map, [ADVERSARIAL])
        report = evaluate_samples(ContractionParams(0.1, 0.4), pair)
        assert report.sample_count == 1
        assert report.violations == 1
        assert report.worst_margin <= -0.015
        a, b = ADVERSARIAL
        direct = contraction_margin(
            linear.space, linear.map, ContractionParams(0.1, 0.4), a, b
        )
        assert report.worst_margin == pytest.approx(direct, rel=1e-15)

    def test_directed_family_catches_bad_params_alone(self, linear):
        report = certify_region(
            linear.space, linear.map, ContractionParams(0.1, 0.4), count=0, rng_seed=7
        )
        assert report.violations >= 1

    def test_empty_report(self, linear):
        samples = sample_comparable_pairs(linear.space, linear.map, 0, 7)
        report = evaluate_samples(ContractionParams(0.1, 0.5), samples)
        assert report.sample_count == 0
        assert report.violations == 0
        assert report.worst_margin is None
        assert report.min_margin_pair is None
        assert report.to_jsonable()["min_margin_pair"] is None

    def test_nan_margin_is_a_violation(self, linear):
        # two diagonal pairs with margin 0; a NaN term makes the second NaN
        still = (Pair([0.5], [0.5]), Pair([0.5], [0.5]))
        samples = explicit_pairs(linear.space, linear.map, [still, still])
        term = samples.rational_term.copy()
        term[1] = np.nan
        report = evaluate_samples(
            ContractionParams(0.1, 0.5),
            SampleSet(samples.parts, samples.image_distance, term, samples.distance_sum),
        )
        assert report.violations == 1
        assert report.falsified
        assert math.isnan(report.worst_margin)
        assert math.isnan(report.min_margin_pair.rational_term)

    def test_worst_margin_monotone_in_params(self, linear):
        samples = sample_comparable_pairs(linear.space, linear.map, 2_000, 5)
        samples += directed_pairs(linear.space, linear.map)
        base = evaluate_samples(ContractionParams(0.1, 0.5), samples)
        more_beta = evaluate_samples(ContractionParams(0.1, 0.55), samples)
        more_alpha = evaluate_samples(ContractionParams(0.15, 0.5), samples)
        assert more_beta.worst_margin >= base.worst_margin
        assert more_alpha.worst_margin >= base.worst_margin

    def test_deterministic_reports(self, linear):
        params = ContractionParams(0.1, 0.5)
        r1 = certify_region(linear.space, linear.map, params, count=500, rng_seed=9)
        r2 = certify_region(linear.space, linear.map, params, count=500, rng_seed=9)
        assert r1.worst_margin == r2.worst_margin
        assert r1.violations == r2.violations

    def test_json_round_trip(self, linear):
        report = certify_region(
            linear.space, linear.map, ContractionParams(0.1, 0.5), count=50, rng_seed=2
        )
        doc = json.loads(json.dumps(report.to_jsonable()))
        assert doc["sample_count"] == report.sample_count
        assert doc["params"]["beta"] == 0.5
        assert doc["min_margin_pair"]["a_first"] == report.min_margin_pair.a.first.tolist()


class TestEstimate:
    def test_empty_rejected(self, linear):
        with pytest.raises(InputError):
            estimate_params(sample_comparable_pairs(linear.space, linear.map, 0, 1))

    def test_linear_demo_ratio_near_half(self, linear):
        samples = sample_comparable_pairs(linear.space, linear.map, 10_000, 42)
        estimate = estimate_params(samples)
        # F(x, y) = (x - y) / 4 on [-2, 2]: the image distance is a quarter
        # of the distance sum, so the least ratio is 1/2 at alpha = 0
        assert (estimate.ratio, estimate.alpha, estimate.beta) == (0.5, 0.0, 0.5)
        oracle = grid_minimal_ratio(samples)
        assert oracle is not None
        assert abs(estimate.ratio - oracle) <= 3e-3

    def test_self_consistency(self, linear):
        samples = sample_comparable_pairs(linear.space, linear.map, 3_000, 11)
        estimate = estimate_params(samples)
        with pytest.warns(UserWarning) if estimate.alpha == 0.0 else _noop():
            params = ContractionParams(estimate.alpha, estimate.beta)
        report = evaluate_samples(params, samples)
        assert report.violations == 0

    def test_expansive_map_infeasible(self):
        space = SpaceDescriptor(dim=1)
        F = CoupledMap("expand", 1, lambda x, y: 2.0 * x, [-1.0], [1.0])
        samples = sample_comparable_pairs(space, F, 200, 8)
        estimate = estimate_params(samples)
        assert not estimate.feasible
        assert estimate.ratio is None

    def test_expansive_map_single_witness(self):
        # one concrete sample already rules out every admissible choice:
        # (0,0) is a fixed pair so the rational term vanishes, leaving
        # 2 <= beta/2 * 1, impossible with beta < 1
        space = SpaceDescriptor(dim=1)
        F = CoupledMap("expand", 1, lambda x, y: 2.0 * x, [-1.0], [1.0])
        witness = explicit_pairs(space, F, [(Pair([1.0], [0.0]), Pair([0.0], [0.0]))])
        assert witness[0].image_distance == 2.0
        assert witness[0].rational_term == 0.0
        assert witness[0].distance_sum == 1.0
        estimate = estimate_params(witness)
        assert not estimate.feasible

    def test_infinite_distance_sum_bounds_nothing(self, linear):
        # (1.0, 1.0, inf) gives the quotient inf / inf = NaN at every ratio;
        # every alpha meets its constraint, so it may not lift the others'
        # bounds.
        def with_inf(s):
            return SampleSet(
                (),
                np.append(s.image_distance, 1.0),
                np.append(s.rational_term, 1.0),
                np.append(s.distance_sum, math.inf),
            )

        lone = SampleSet((), np.array([0.9]), np.array([0.0]), np.array([1.0]))
        assert not estimate_params(lone).feasible
        assert not estimate_params(with_inf(lone)).feasible
        samples = sample_comparable_pairs(linear.space, linear.map, 300, 42)
        want = estimate_params(samples)
        got = estimate_params(with_inf(samples))
        assert (got.ratio, got.alpha, got.beta) == (want.ratio, want.alpha, want.beta)

    def test_single_zero_sample_hits_floor(self, linear):
        s = explicit_pairs(linear.space, linear.map, [(Pair([0.0], [0.0]), Pair([0.0], [0.0]))])
        assert s[0].image_distance == 0.0
        estimate = estimate_params(s)
        assert estimate.feasible
        assert estimate.ratio == RATIO_TOL  # the floor
        assert estimate.beta > 0


from contextlib import contextmanager


@contextmanager
def _noop():
    yield


@contextmanager
def counted_passes():
    """The ratio count of each `_alpha_interval` pass made inside the block."""
    sizes = []
    alpha_interval = certificate._alpha_interval

    def counted(ratios, samples):
        sizes.append(len(ratios))
        return alpha_interval(ratios, samples)

    certificate._alpha_interval = counted
    try:
        yield sizes
    finally:
        certificate._alpha_interval = alpha_interval


def reference_alpha_interval(r: float, samples: SampleSet) -> tuple[float, float]:
    """The feasible alpha interval at one ratio, one pass per ratio: the
    search's first definition, kept as the oracle for the batched one. A
    NaN quotient (a sample with an infinite distance sum) bounds nothing."""
    with np.errstate(invalid="ignore"):
        slope = samples.rational_term - 0.5 * r * samples.distance_sum
        offset = samples.image_distance - 0.5 * r * samples.distance_sum
    lo, hi = 0.0, 1.0 - ALPHA_INSET
    pos = slope > 0
    neg = slope < 0
    zero = ~pos & ~neg
    if np.any(offset[zero] > 0):
        return 1.0, 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        if np.any(pos):
            lo = max(lo, float(np.fmax.reduce(offset[pos] / slope[pos])))
        if np.any(neg):
            hi = min(hi, float(np.fmin.reduce(offset[neg] / slope[neg])))
    return lo, hi


def reference_estimate(samples: SampleSet) -> ParamEstimate:
    """The minimal ratio by a bisection to RATIO_TOL that tests one midpoint
    per pass: an upper bound on the least feasible float, within RATIO_TOL."""

    def feasible(r: float) -> bool:
        lo, hi = reference_alpha_interval(r, samples)
        return lo <= hi

    r_hi = 1.0 - RATIO_TOL
    if not feasible(r_hi):
        return ParamEstimate(False, None, None, None, len(samples))
    r_lo = 0.0
    while r_hi - r_lo > RATIO_TOL:
        mid = 0.5 * (r_lo + r_hi)
        if feasible(mid):
            r_hi = mid
        else:
            r_lo = mid
    r_star = max(r_hi, RATIO_TOL)
    lo, hi = reference_alpha_interval(r_star, samples)
    alpha = min(hi, lo + ALPHA_INSET) if lo > 0 else lo
    beta = r_star * (1.0 - alpha)
    return ParamEstimate(True, r_star, float(alpha), float(beta), len(samples))


def same_float(a, b) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def first_midpoints(levels: int = 3) -> list[float]:
    """The midpoints the bisection can test in its first ``levels`` steps."""
    mids, brackets = [], [(0.0, 1.0 - RATIO_TOL)]
    for _ in range(levels):
        deeper = []
        for a, b in brackets:
            mid = 0.5 * (a + b)
            mids.append(mid)
            deeper += [(a, mid), (mid, b)]
        brackets = deeper
    return mids


# Sample counts drawn besides any in 1..5000, from one sample to thousands.
EDGE_COUNTS = [1, 2, 409, 410, 2730, 2731, 4096, 4097, 5000]


@st.composite
def term_sets(draw):
    """Margin terms of n samples, with rows that make ties, zero slopes at
    the first midpoints, zero distance sums under a positive image distance,
    non-finite terms, infeasible sets and sets feasible at every ratio."""
    n = draw(st.sampled_from(EDGE_COUNTS) | st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = rng.uniform(0.0, 4.0, n)
    term = rng.uniform(0.0, 2.0, n) * draw(st.sampled_from([0.0, 0.1, 1.0]))
    # image distance as a share of the span: 0 leaves every ratio feasible
    # (the floor), above 1/2 with a vanishing term none
    growth = draw(st.sampled_from([0.0, 1e-9, 0.25, 0.5, 0.9, 2.0]))
    image = growth * span * rng.uniform(0.0, 1.0, n)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=8)):
        kind = draw(st.sampled_from(["span", "flat", "image", "-0", "inf", "slope"]))
        if kind == "span":
            span[i] = 0.0
        elif kind == "flat":
            # zero distance sum under a positive image distance: a lower
            # bound on alpha when the term is larger, else no alpha at all
            span[i], image[i] = 0.0, draw(st.sampled_from([1e-3, 0.5, 1.0]))
            term[i] = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e6]))
        elif kind == "image":
            image[i] = 0.0
        elif kind == "-0":
            # offset -0.0 at every ratio: a lo of -0.0 must clip to +0.0
            span[i], image[i] = 0.0, -0.0
        elif kind == "inf":
            # non-finite terms give infinite or NaN slopes, offsets and bounds
            inf, nan = np.inf, np.nan
            span[i], term[i], image[i] = draw(
                st.sampled_from(
                    [
                        (inf, 1.0, 1.0),
                        (inf, inf, 1.0),
                        (inf, 1.0, inf),
                        (inf, inf, inf),
                        (1.0, nan, 1.0),
                        (1.0, 1.0, nan),
                        (nan, 1.0, 1.0),
                        (0.0, inf, 1.0),
                    ]
                )
            )
        else:
            # slope exactly 0 at midpoint m, with an offset of either sign or 0
            span[i] = min(span[i], 4.0)
            h = (0.5 * draw(st.sampled_from(first_midpoints()))) * span[i]
            term[i] = h
            image[i] = h * draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    return SampleSet((), image, term, span)


def float_below(r: float) -> float:
    return float(np.nextafter(r, 0.0))


def float_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def witness_holds(r: float, samples: SampleSet) -> bool:
    """Whether ratio r is feasible by `reference_alpha_interval` and the
    witness picked from its interval has no negative margin on the samples
    whose three terms are finite."""
    lo, hi = reference_alpha_interval(r, samples)
    if not lo <= hi:
        return False
    alpha = min(hi, lo + ALPHA_INSET) if lo > 0 else lo
    beta = r * (1.0 - alpha)
    image, term, span = samples.image_distance, samples.rational_term, samples.distance_sum
    finite = np.isfinite(image) & np.isfinite(term) & np.isfinite(span)
    with np.errstate(all="ignore"):
        margins = alpha * term[finite] + 0.5 * beta * span[finite] - image[finite]
    return not (margins < 0).any()


def witness_sets():
    """(label, samples) for the uniform draws of five problems at 50, 200
    and 1000 samples, seeds 0-14: 225 sets."""
    problems = [
        get_builtin("linear_demo"),
        get_builtin("affine_demo"),
        load_problem(os.path.join(CONFIGS, "integral_16.json")),
        load_problem(os.path.join(CONFIGS, "expr_2d.json")),
        load_problem(os.path.join(CONFIGS, "expr_4d.json")),
    ]
    for name, problem in zip(["linear", "affine", "integral_16", "expr_2d", "expr_4d"], problems):
        for n in (50, 200, 1000):
            for seed in range(15):
                yield f"{name} n={n} seed={seed}", sample_comparable_pairs(
                    problem.space, problem.map, n, seed
                )


class TestRatioSearch:
    @settings(max_examples=150, deadline=None)
    @given(term_sets(), st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_matches_one_midpoint_per_pass(self, samples, extra):
        ratios = np.array([1.0 - RATIO_TOL, *first_midpoints(), RATIO_TOL, *extra])
        lo, hi = certificate._alpha_interval(ratios, samples)
        for i, r in enumerate(ratios.tolist()):
            want_lo, want_hi = reference_alpha_interval(r, samples)
            assert same_float(lo[i], want_lo) and same_float(hi[i], want_hi)

        got = estimate_params(samples)
        bisection = reference_estimate(samples)
        assert got.feasible is bisection.feasible
        assert got.sample_count == len(samples)
        if not got.feasible:
            assert got.ratio is got.alpha is got.beta is None
            return
        # r* holds, the float below it does not (unless r* is the floor),
        # and r* is at most the bisection's answer
        r = got.ratio
        assert witness_holds(r, samples)
        assert r == RATIO_TOL or not witness_holds(float_below(r), samples)
        assert RATIO_TOL <= r <= bisection.ratio
        lo, hi = reference_alpha_interval(r, samples)
        want_alpha = min(hi, lo + ALPHA_INSET) if lo > 0 else lo
        assert same_float(got.alpha, want_alpha)
        assert got.beta == r * (1.0 - want_alpha)

    @pytest.mark.parametrize(
        "rows, ratio",
        [
            ([(math.inf, math.inf, 0.0)], RATIO_TOL),
            ([(math.inf, math.inf, 0.0), (0.1, 0.0, 1.0)], 0.2),
        ],
        ids=["nan-quotient", "nan-quotient-and-a-line"],
    )
    def test_zero_span_nan_quotient_takes_one_pass(self, rows, ratio):
        # (image distance, rational term, distance sum): inf / inf bounds no
        # alpha, in the guess as in `_alpha_interval`; the line asks for
        # r >= 2 * 0.1 / 1 exactly, which the guess finds
        image, term, span = np.array(rows).T
        samples = SampleSet((), image, term, span)
        with counted_passes() as passes:
            got = estimate_params(samples)
        assert len(passes) == 1
        assert got == ParamEstimate(True, ratio, 0.0, ratio, len(rows))

    def test_infinite_term_is_exempt_from_the_witness_rule(self, linear):
        # An infinite rational term at a zero distance sum allows alpha = 0
        # at every ratio, and the witness alpha = 0 then has margin -1 there,
        # which no ratio mends: the row is left out of the margin rule.
        trap = SampleSet((), np.array([1.0]), np.array([math.inf]), np.array([0.0]))
        got = estimate_params(trap)
        assert got == ParamEstimate(True, RATIO_TOL, 0.0, RATIO_TOL, 1)
        with pytest.warns(UserWarning):
            params = ContractionParams(got.alpha, got.beta)
        assert params.margin(1.0, math.inf, 0.0) == -1.0
        # beside drawn samples it changes nothing
        samples = sample_comparable_pairs(linear.space, linear.map, 300, 42)
        assert estimate_params(samples + trap).ratio == estimate_params(samples).ratio

    def test_witnesses_hold_on_their_own_samples(self):
        # The least feasible float's witness has a negative margin on 10 of
        # these sets; each estimate steps up until its witness has none.
        stepped = []
        for name, samples in witness_sets():
            got = estimate_params(samples)
            margins = (
                got.alpha * samples.rational_term
                + 0.5 * got.beta * samples.distance_sum
                - samples.image_distance
            )
            assert (margins >= 0).all(), name
            lo, hi = certificate._alpha_interval(np.array([float_below(got.ratio)]), samples)
            if got.ratio > RATIO_TOL and lo[0] <= hi[0]:
                stepped.append(name)
        assert len(stepped) == 10

    def test_witness_steps_are_capped(self, monkeypatch):
        # expr_2d at 200 samples, seed 0: the witness needs one step up
        problem = load_problem(os.path.join(CONFIGS, "expr_2d.json"))
        samples = sample_comparable_pairs(problem.space, problem.map, 200, 0)
        got = estimate_params(samples)
        assert witness_holds(got.ratio, samples)
        below = float_below(got.ratio)
        lo, hi = reference_alpha_interval(below, samples)
        assert lo <= hi and not witness_holds(below, samples)
        monkeypatch.setattr(certificate, "WITNESS_STEPS", 1)
        with pytest.raises(InputError, match="within 1 floats"):
            estimate_params(samples)

    @pytest.mark.parametrize("guess", [0.0, 0.999, math.nan])
    @pytest.mark.parametrize("n", [None, 1, 300, 3000, "infeasible"])
    def test_guess_changes_only_the_pass_count(self, linear, monkeypatch, n, guess):
        if n == "infeasible":  # image distance = distance sum, no rational term
            samples = SampleSet((), np.array([1.0]), np.array([0.0]), np.array([1.0]))
        else:
            samples = linear_samples(linear, n)
        want = json.dumps(estimate_params(samples).to_jsonable())
        monkeypatch.setattr(certificate, "_predicted_ratio", lambda samples: guess)
        with counted_passes() as passes:
            got = json.dumps(estimate_params(samples).to_jsonable())
        assert got == want
        # the first pass, then one float per pass: doubling out from the
        # guess and halving back each take at most one pass per bit of the
        # floats between the floor and the top
        span = float_bits(1.0 - RATIO_TOL) - float_bits(RATIO_TOL)
        assert len(passes) <= 1 + 2 * span.bit_length()


def linear_samples(linear, n):
    """``n`` drawn samples of linear_demo; None for one sample at its fixed
    pair, where every ratio is feasible and the estimate is the floor."""
    if n is None:
        zero = Pair([0.0], [0.0])
        return explicit_pairs(linear.space, linear.map, [(zero, zero)])
    return sample_comparable_pairs(linear.space, linear.map, n, 42)
