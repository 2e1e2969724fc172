import json
import os

import numpy as np
import pytest

from coupledfp import (
    ContractionParams,
    CoupledMap,
    InputError,
    Pair,
    SpaceDescriptor,
    certify_region,
    contraction_margin,
    directed_pairs,
    distance,
    estimate_params,
    evaluate_samples,
    explicit_pairs,
    load_problem,
    product_leq,
    rational_min_term,
    sample_comparable_pairs,
)
from coupledfp.cli import main

ADVERSARIAL = (Pair([0.1], [-0.29]), Pair([0.01], [-0.02]))
# -2*x1 + 2*y1 on [-1, 1]: the directed walk from (-1, 1) leaves the box at
# its first step, to (4, -4).
EXPR_FLIP = os.path.join(os.path.dirname(__file__), "data", "configs", "expr_flip.json")


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


class TestDirected:
    def test_walk_drops_pairs_that_left_the_box(self):
        prob = load_problem(EXPR_FLIP)
        F = prob.map
        samples = directed_pairs(prob.space, F)
        assert len(samples) > 0
        for s in samples:
            assert F.contains(s.a.first) and F.contains(s.a.second)

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

    def test_independent_of_thread_count(self, linear, monkeypatch):
        params = ContractionParams(0.1, 0.5)
        monkeypatch.setenv("COUPLED_FP_THREADS", "1")
        serial = certify_region(linear.space, linear.map, params, count=400, rng_seed=9)
        monkeypatch.setenv("COUPLED_FP_THREADS", "4")
        threaded = certify_region(linear.space, linear.map, params, count=400, rng_seed=9)
        assert serial.worst_margin == threaded.worst_margin
        assert serial.violations == threaded.violations
        assert np.array_equal(
            serial.min_margin_pair.a.first, threaded.min_margin_pair.a.first
        )

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
        assert estimate.feasible
        assert 0.49 <= estimate.ratio <= 0.51
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

    def test_single_zero_sample_hits_floor(self, linear):
        s = explicit_pairs(linear.space, linear.map, [(Pair([0.0], [0.0]), Pair([0.0], [0.0]))])
        assert s[0].image_distance == 0.0
        estimate = estimate_params(s)
        assert estimate.feasible
        assert estimate.ratio <= 2e-6  # bisection floor
        assert estimate.beta > 0


from contextlib import contextmanager


@contextmanager
def _noop():
    yield
