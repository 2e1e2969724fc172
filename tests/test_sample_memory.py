"""Sampled checks in bounded memory, bit for bit equal to one-shot draws.

`sample_comparable_pairs` and `mixed_monotone_check` draw and score their
samples one block at a time and keep only per-sample results; a row asked
for later is drawn again from the seed. The references here draw every
stack in one call, the layout the blocks must reproduce.
"""

import os
import tracemalloc

import numpy as np
import pytest

from coupledfp import (
    ContractionParams,
    CoupledMap,
    SpaceDescriptor,
    certify_region,
    directed_pairs,
    estimate_params,
    evaluate_samples,
    get_builtin,
    load_problem,
    margin_terms,
    mixed_monotone_check,
    sample_comparable_pairs,
)
from coupledfp.maps import _sample_blocks

PARAMS = ContractionParams(0.1, 0.5)
# (count, dim): one row short of, at and past a block edge, and two edges
# (16 rows per block at dim 1024 and 4096 at dim 4).
CASES = [(15, 1024), (16, 1024), (17, 1024), (33, 1024), (4095, 4), (4096, 4), (4097, 4)]
SEEDS = [1, 2, 3]


def wavy(dim):
    # decreasing in x on part of the box, so check-monotone finds witnesses
    return CoupledMap("wavy", dim, lambda x, y: 0.5 * np.sin(3.0 * x) - 0.25 * y,
                      -np.ones(dim), np.ones(dim))


def one_shot_stacks(F, count, seed):
    """The uniform family's four stacks, each drawn in one call."""
    rng = np.random.default_rng(seed)
    shape = (count, F.dim)
    b_first = rng.uniform(F.lower, F.upper, size=shape)
    b_second = rng.uniform(F.lower, F.upper, size=shape)
    width = F.upper - F.lower
    a_first = np.minimum(b_first + rng.uniform(0.0, 1.0, size=shape) * width, F.upper)
    a_second = np.maximum(b_second - rng.uniform(0.0, 1.0, size=shape) * width, F.lower)
    return a_first, a_second, b_first, b_second


def one_shot_monotone(F, count, seed):
    """`mixed_monotone_check` on one (count, 6, dim) draw: the report's fields."""
    draws = np.random.default_rng(seed).uniform(F.lower, F.upper, size=(count, 6, F.dim))
    p, q, y_fix, x_fix, r, s = (draws[:, j] for j in range(6))
    x1, x2 = np.minimum(p, q), np.maximum(p, q)
    y1, y2 = np.minimum(r, s), np.maximum(r, s)
    first = np.max(F.evaluate_rows(x1, y_fix) - F.evaluate_rows(x2, y_fix), axis=1)
    second = np.max(F.evaluate_rows(x_fix, y2) - F.evaluate_rows(x_fix, y1), axis=1)
    excess = np.maximum(first, second)
    k = int(np.argmax(excess))
    assert excess[k] > 0
    u, v, other = (p[k], q[k], y_fix[k]) if first[k] >= second[k] else (r[k], s[k], x_fix[k])
    kind = "first-argument" if first[k] >= second[k] else "second-argument"
    witness = (kind, np.minimum(u, v), np.maximum(u, v), other, float(excess[k]))
    return int(np.count_nonzero(excess > 0)), float(excess[k]), witness


def same_bytes(got, want):
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


def checked_rows(count, dim):
    """Every row of a short set, else the rows around each block edge and the ends."""
    if count <= 64:
        return range(count)
    edges = [0, count] + [lo for lo, _ in _sample_blocks(count, dim)]
    return sorted({k for e in edges for k in range(e - 3, e + 3) if 0 <= k < count})


@pytest.fixture(scope="module", params=[(c, d, s) for c, d in CASES for s in SEEDS],
                ids=lambda case: "n{}-dim{}-seed{}".format(*case))
def drawn(request):
    count, dim, seed = request.param
    F = wavy(dim)
    space = SpaceDescriptor(dim)
    samples = sample_comparable_pairs(space, F, count, seed)
    return F, space, seed, samples, one_shot_stacks(F, count, seed)


class TestBlockEdges:
    def test_redrawn_stacks(self, drawn):
        F, _, _, samples, want = drawn
        (family,) = samples.parts
        assert same_bytes(family.rows(0, len(family)), want)
        # block by block, last block first, so that every seek but one goes back
        for lo, hi in reversed(list(_sample_blocks(len(family), F.dim))):
            assert same_bytes(family.rows(lo, hi), [w[lo:hi] for w in want])

    def test_terms(self, drawn):
        F, space, _, samples, want = drawn
        got = (samples.image_distance, samples.rational_term, samples.distance_sum)
        assert same_bytes(got, margin_terms(space, F, *want))

    def test_indexed_rows(self, drawn):
        F, _, _, samples, want = drawn
        n = len(samples)
        for k in checked_rows(n, F.dim):
            for index in (k, k - n):
                s = samples[index]
                assert same_bytes((s.a.first, s.a.second, s.b.first, s.b.second),
                                  [w[k] for w in want])
                assert s.rational_term == samples.rational_term[k]

    def test_worst_pair(self, drawn):
        F, space, _, samples, want = drawn
        report = evaluate_samples(PARAMS, samples)
        margins = PARAMS.margin(*margin_terms(space, F, *want))
        k = int(np.argmin(margins))
        worst = report.min_margin_pair
        assert report.worst_margin == margins[k]
        assert same_bytes((worst.a.first, worst.a.second, worst.b.first, worst.b.second),
                          [w[k] for w in want])

    def test_monotone_report(self, drawn):
        F, _, seed, samples, _ = drawn
        report = mixed_monotone_check(F, len(samples), seed)
        violations, worst_excess, (kind, lo, hi, other, excess) = one_shot_monotone(
            F, len(samples), seed
        )
        assert (report.violations, report.worst_excess) == (violations, worst_excess)
        w = report.worst_witness
        assert (w.kind, w.excess) == (kind, excess)
        assert same_bytes((w.lo, w.hi, w.other), (lo, hi, other))


def test_every_row_of_a_two_block_set():
    F = wavy(4)
    samples = sample_comparable_pairs(SpaceDescriptor(4), F, 4097, 5)
    want = one_shot_stacks(F, 4097, 5)
    for k, s in enumerate(samples):
        assert same_bytes((s.a.first, s.a.second, s.b.first, s.b.second), [w[k] for w in want])


@pytest.mark.parametrize("problem", ["linear_demo", "integral_16.json"])
def test_iteration_crosses_families(problem):
    # iteration runs through indexing, from the uniform rows into the directed
    if problem.endswith(".json"):
        prob = load_problem(os.path.join(os.path.dirname(__file__), "data", "configs", problem))
    else:
        prob = get_builtin(problem)
    uniform = sample_comparable_pairs(prob.space, prob.map, 30, 2)
    directed = directed_pairs(prob.space, prob.map)
    samples = uniform + directed
    rows = list(samples)
    assert len(rows) == len(samples) == len(uniform) + len(directed) > len(uniform)
    for k, (s, part) in enumerate(zip(rows, [*uniform, *directed], strict=True)):
        for pair in (samples[k], part):
            assert same_bytes((s.a.first, s.a.second, s.b.first, s.b.second),
                              (pair.a.first, pair.a.second, pair.b.first, pair.b.second))
            assert (s.image_distance, s.rational_term, s.distance_sum) == (
                pair.image_distance, pair.rational_term, pair.distance_sum)


def peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("operation", ["certify", "estimate", "check-monotone"])
def test_peak_memory_does_not_grow_with_the_sample_count(operation):
    # One sample of integral_demo(256) holds 4 x 256 floats, 8 KiB: the
    # stacks of 2000 samples would add over 14 MiB to those of 200.
    prob = get_builtin("integral_demo", 256)
    space, F = prob.space, prob.map
    run = {
        "certify": lambda n: certify_region(space, F, PARAMS, count=n, rng_seed=1),
        "estimate": lambda n: estimate_params(sample_comparable_pairs(space, F, n, 1)),
        "check-monotone": lambda n: mixed_monotone_check(F, n, 1),
    }[operation]
    small, large = (peak_mib(lambda: run(n)) for n in (200, 2000))
    assert large - small < 1.0
