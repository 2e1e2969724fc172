"""Sampled certification of the rational contraction hypothesis.

The hypothesis quantifies over every ordered pair of pairs in X x X, which
no finite procedure can prove. This module does the honest finite thing:
draw ordered pairs, measure the inequality's margin at each, report the
worst, and (going the other way) search for the smallest geometric ratio
r = beta / (1 - alpha) whose parameters survive all drawn samples. A clean
report reads "not falsified at N samples, worst margin m" -- never "holds".

Samples live in a `SampleSet`, one row per ordered pair of pairs, and
scoring (`evaluate_samples`, `estimate_params`) takes nothing else. Three
builders make one: `sample_comparable_pairs` (the uniform draw),
`directed_pairs` (diagonals, box extremes and a short iteration walk) and
`explicit_pairs` (hand-made pairs), and `+` joins sets. Violations like to
hide near thin sets where the rational term vanishes, so `certify_region`
always mixes the directed family into the uniform draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, InputError
from .maps import ContractionParams, CoupledMap, _images, _uniform_in_box, margin_terms
from .spaces import Pair, SpaceDescriptor, _check_dims, _positive_int, rows_product_leq

# Resolution of the bisection search for the minimal feasible ratio.
RATIO_TOL = 1e-6
# Witness alpha is pulled this far inside its feasible interval so that the
# reported params re-certify with strictly nonnegative float margins.
ALPHA_INSET = 1e-9
# Length of the iteration walk in the directed sample family.
WALK_STEPS = 8
# `estimate_params` tests the 2^k - 1 midpoints of the next k bisection
# levels in one `_alpha_interval` pass over n samples, with k the largest,
# up to MAX_PASS_LEVELS, for which (2^k - 1) * n <= PASS_FLOATS. A pass of up
# to about 2^11 elements costs at most about 1.5 times its fixed numpy
# overhead of about 20 us (2-core VM, Python 3.11, numpy 2.4); deeper trees
# on few samples cost more Python than the passes they save.
PASS_FLOATS = 2**11
MAX_PASS_LEVELS = 5


@dataclass(frozen=True, eq=False)
class SamplePair:
    """One row of a `SampleSet`: an ordered pair of pairs and its terms.

    ``b <= a`` in the pair order always holds. ``image_distance`` is
    d(F(x,y), F(u,v)), ``rational_term`` the min rational quantity, and
    ``distance_sum`` d(x,u) + d(y,v); `ContractionParams.margin` of the
    three is the inequality's margin for any parameter choice.
    """

    a: Pair
    b: Pair
    image_distance: float
    rational_term: float
    distance_sum: float


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Ordered pairs of pairs held as arrays, one row per sample.

    ``parts`` holds one (a_first, a_second, b_first, b_second) tuple of
    (n_i, dim) stacks per sample family, in sample order; families are kept
    apart rather than copied into one stack. The three (n,) term arrays are
    those of `margin_terms` and run over all samples. Indexing and iteration
    yield a `SamplePair` with its own copy of the row; `+` joins two sets.
    """

    parts: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    image_distance: np.ndarray
    rational_term: np.ndarray
    distance_sum: np.ndarray

    def __len__(self) -> int:
        return len(self.image_distance)

    def __getitem__(self, k: int) -> SamplePair:
        n = len(self)
        if not -n <= k < n:
            raise IndexError(f"sample {k} of a set of {n}")
        k %= n
        row = k
        for part in self.parts:
            if row < len(part[0]):
                break
            row -= len(part[0])
        a_first, a_second, b_first, b_second = (stack[row].copy() for stack in part)
        return SamplePair(
            Pair(a_first, a_second),
            Pair(b_first, b_second),
            float(self.image_distance[k]),
            float(self.rational_term[k]),
            float(self.distance_sum[k]),
        )

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __add__(self, other: "SampleSet") -> "SampleSet":
        if not isinstance(other, SampleSet):
            return NotImplemented
        return SampleSet(
            self.parts + other.parts,
            np.concatenate([self.image_distance, other.image_distance]),
            np.concatenate([self.rational_term, other.rational_term]),
            np.concatenate([self.distance_sum, other.distance_sum]),
        )


def _sample_set(
    space: SpaceDescriptor, F: CoupledMap, a_first, a_second, b_first, b_second
) -> SampleSet:
    """The SampleSet of (n, dim) coordinate stacks already ordered b <= a."""
    stacks = (a_first, a_second, b_first, b_second)
    parts = (stacks,) if len(a_first) else ()
    return SampleSet(parts, *margin_terms(space, F, *stacks))


def explicit_pairs(
    space: SpaceDescriptor, F: CoupledMap, pairs: list[tuple[Pair, Pair]]
) -> SampleSet:
    """The SampleSet of given (a, b) pairs, in order; each must have b <= a."""
    if not pairs:
        empty = np.empty((0, F.dim))
        return _sample_set(space, F, empty, empty, empty, empty)
    _check_dims(space, *(p.first for pair in pairs for p in pair))
    stacks = zip(*((a.first, a.second, b.first, b.second) for a, b in pairs))
    a_first, a_second, b_first, b_second = (np.array(stack) for stack in stacks)
    if not rows_product_leq(b_first, b_second, a_first, a_second).all():
        raise InputError("sample pairs require b <= a in the pair order")
    return _sample_set(space, F, a_first, a_second, b_first, b_second)


def sample_comparable_pairs(
    space: SpaceDescriptor, F: CoupledMap, count: int, rng_seed: int
) -> SampleSet:
    """Draw ``count`` ordered pairs of pairs uniformly-ish over the map's box.

    b is uniform in the domain box; a adds a nonnegative offset to the first
    component and a nonpositive one to the second, clipped back to the box,
    so b <= a holds by construction. A box of zero width along a coordinate
    pins that coordinate. Deterministic for a given seed: all randomness is
    drawn in one fixed-layout block up front.
    """
    _positive_int(count, "count must be >= 0, got {!r}", minimum=0)
    lo, hi = F.lower, F.upper
    rng = np.random.default_rng(rng_seed)
    shape = (count, F.dim)
    b_first = _uniform_in_box(F, rng, shape)
    b_second = _uniform_in_box(F, rng, shape)
    width = hi - lo
    a_first = np.minimum(b_first + rng.uniform(0.0, 1.0, size=shape) * width, hi)
    a_second = np.maximum(b_second - rng.uniform(0.0, 1.0, size=shape) * width, lo)
    return _sample_set(space, F, a_first, a_second, b_first, b_second)


def directed_pairs(space: SpaceDescriptor, F: CoupledMap) -> SampleSet:
    """Deterministic pairs aimed at the places uniform sampling misses.

    Three families over the map's domain box: diagonal pairs a = b at box
    extremes and center (their margin degenerates to alpha * rational_term),
    the extreme ordered pair (top, bottom) vs (bottom, top) and its half-way
    variants, and WALK_STEPS consecutive iterates of a walk started from
    (bottom, top), whose rational term shrinks with the displacement.
    Non-comparable candidates, and walk pairs whose new point left the box,
    are silently skipped; the walk stops at its first point outside the box.
    """
    lo, hi = F.lower, F.upper
    mid = 0.5 * (lo + hi)
    # (a_first, a_second, b_first, b_second) per candidate
    candidates = [(p, q, p, q) for p in (lo, mid, hi) for q in (lo, mid, hi)]
    candidates += [(hi, lo, lo, hi), (mid, mid, lo, hi), (hi, lo, mid, mid)]

    x, y = lo, hi
    try:
        for _ in range(WALK_STEPS):
            # F(x, y) and F(y, x) in one stacked call, which evaluates
            # nothing when x or y lies outside the box. The rows are copied:
            # the evaluator may hand back one buffer on every call.
            x_next, y_next = (
                f[0].copy() for f in _images(F, [(x[None], y[None]), (y[None], x[None])])
            )
            candidates.append((x_next, y_next, x, y))
            x, y = x_next, y_next
    except DomainError:
        pass  # walk left the box; keep what we have

    a_first, a_second, b_first, b_second = (np.array(s) for s in zip(*candidates))
    # Keep b <= a with a in the box. Every b is in the box, so b <= a already
    # gives a_first >= lo and a_second <= hi, and a <= (hi, lo) gives the rest.
    keep = rows_product_leq(b_first, b_second, a_first, a_second)
    keep &= rows_product_leq(a_first, a_second, hi, lo)
    return _sample_set(space, F, a_first[keep], a_second[keep], b_first[keep], b_second[keep])


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Aggregated margins of one parameter choice over a sample set."""

    sample_count: int
    violations: int
    worst_margin: float | None
    min_margin_pair: SamplePair | None
    params: ContractionParams

    @property
    def falsified(self) -> bool:
        return self.violations > 0

    def to_jsonable(self) -> dict:
        worst = self.min_margin_pair
        return {
            "sample_count": self.sample_count,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "min_margin_pair": None
            if worst is None
            else {
                "a_first": worst.a.first.tolist(),
                "a_second": worst.a.second.tolist(),
                "b_first": worst.b.first.tolist(),
                "b_second": worst.b.second.tolist(),
                "image_distance": worst.image_distance,
                "rational_term": worst.rational_term,
                "distance_sum": worst.distance_sum,
            },
            "params": {"alpha": self.params.alpha, "beta": self.params.beta},
        }


def evaluate_samples(params: ContractionParams, samples: SampleSet) -> CertificateReport:
    """Margins of a fixed sample set under one parameter choice.

    Aggregation is a count and a min, so it is order independent; the worst
    pair is the first sample with the least margin.
    """
    margins = params.margin(samples.image_distance, samples.rational_term, samples.distance_sum)
    if len(margins):
        worst_idx = int(np.argmin(margins))
        worst_margin: float | None = float(margins[worst_idx])
        worst_pair: SamplePair | None = samples[worst_idx]
    else:
        worst_margin = None
        worst_pair = None
    return CertificateReport(
        sample_count=len(samples),
        violations=int(np.count_nonzero(margins < 0)),
        worst_margin=worst_margin,
        min_margin_pair=worst_pair,
        params=params,
    )


def certify_region(
    space: SpaceDescriptor,
    F: CoupledMap,
    params: ContractionParams,
    count: int = 10_000,
    rng_seed: int = 0,
) -> CertificateReport:
    """Falsification-style certificate for (alpha, beta) on the map's box.

    Draws ``count`` random ordered pairs, adds the deterministic directed
    family, and aggregates the margins. Zero violations means the
    hypothesis survived this sample set, nothing stronger. For other sample
    sets, such as the uniform draw alone or one joined with hand-made pairs
    by `+ explicit_pairs(...)`, pass the set to `evaluate_samples`.
    """
    samples = sample_comparable_pairs(space, F, count, rng_seed) + directed_pairs(space, F)
    return evaluate_samples(params, samples)


@dataclass(frozen=True)
class ParamEstimate:
    """Smallest-ratio parameters consistent with a sample set.

    ``feasible`` is False when no (alpha, beta) in the admissible triangle
    satisfies every sample, in which case the other fields are None.
    """

    feasible: bool
    ratio: float | None
    alpha: float | None
    beta: float | None
    sample_count: int
    ratio_tol: ClassVar[float] = RATIO_TOL

    def to_jsonable(self) -> dict:
        return {
            "feasible": self.feasible,
            "ratio": self.ratio,
            "alpha": self.alpha,
            "beta": self.beta,
            "sample_count": self.sample_count,
            "ratio_tol": self.ratio_tol,
        }


def _alpha_interval(ratios: np.ndarray, samples: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """Feasible alpha interval at each ratio, as (lo, hi) arrays (empty when lo > hi).

    Substituting beta = r * (1 - alpha) turns each sample constraint into
    alpha * (rational_term - r * distance_sum / 2) >= image_distance
    - r * distance_sum / 2, a one-dimensional inequality whose solutions
    form a half-line; the feasible set is the intersection over samples,
    clipped to [0, 1). All ratios go through one broadcast pass over
    (ratios x samples); row i is bit for bit the interval at ratios[i] alone,
    since broadcasting rounds each element as a scalar pass would and max and
    min are exact. The clips keep Python's ``max(0.0, raw)`` and
    ``min(cap, raw)``: a NaN bound gives the clip value, and a zero lo is +0.0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        h = (0.5 * ratios)[:, None] * samples.distance_sum
        slope = samples.rational_term - h
        offset = np.subtract(samples.image_distance, h, out=h)
        pos = slope > 0
        neg = slope < 0
        # A zero (or NaN) slope leaves the constraint 0 >= offset; for
        # booleans, a > b is a & ~b.
        blocked = ((offset > 0) > (pos | neg)).any(axis=1)
        q = np.divide(offset, slope, out=offset)
    raw_lo = np.where(pos, q, -np.inf).max(axis=1)
    raw_hi = np.where(neg, q, np.inf).min(axis=1)
    cap = 1.0 - ALPHA_INSET
    lo = np.where(raw_lo > 0.0, raw_lo, 0.0)
    hi = np.where(raw_hi < cap, raw_hi, cap)
    lo[blocked] = 1.0
    hi[blocked] = 0.0
    return lo, hi


def _levels_per_pass(n: int) -> int:
    """Bisection levels decided per feasibility pass over n samples."""
    k = 1
    while k < MAX_PASS_LEVELS and (2 ** (k + 1) - 1) * n <= PASS_FLOATS:
        k += 1
    return k


def _midpoints(r_lo: float, r_hi: float, levels: int) -> list[float]:
    """Every midpoint the bisection can test in its next ``levels`` steps from (r_lo, r_hi)."""
    mids = []
    brackets = [(r_lo, r_hi)]
    for _ in range(levels):
        deeper = []
        for a, b in brackets:
            if b - a > RATIO_TOL:
                mid = 0.5 * (a + b)
                mids.append(mid)
                deeper += [(a, mid), (mid, b)]
        brackets = deeper
    return mids


def estimate_params(samples: SampleSet) -> ParamEstimate:
    """Invert the contraction inequality: minimal ratio over the samples.

    The constraints are linear in (alpha, beta) and feasibility is monotone
    in the ratio, so a bisection on r in (0, 1) with an exact interval
    intersection in alpha at each candidate finds the minimum to RATIO_TOL.
    When even arbitrarily small ratios are feasible the bisection floor is
    reported; when no ratio below 1 works the estimate is infeasible.

    Each `_alpha_interval` pass tests every midpoint of the next few
    bisection levels (`_levels_per_pass`), and the one-at-a-time decisions
    are replayed from that table of intervals; the first pass also tests the
    top ratio, and only a ratio clamped to the floor needs a pass of its
    own. Every midpoint is built from the same bracket as in a
    one-at-a-time bisection, so the search takes the same path and returns
    the same floats.
    """
    if not len(samples):
        raise InputError("estimate_params needs at least one sample")
    levels = _levels_per_pass(len(samples))

    def run_pass(ratios: list[float]) -> None:
        lo, hi = _alpha_interval(np.array(ratios), samples)
        intervals.update(zip(ratios, zip(lo.tolist(), hi.tolist())))

    def feasible(r: float) -> bool:
        lo, hi = intervals[r]
        return lo <= hi

    intervals: dict[float, tuple[float, float]] = {}
    r_lo, r_hi = 0.0, 1.0 - RATIO_TOL
    run_pass([r_hi, *_midpoints(r_lo, r_hi, levels)])
    if not feasible(r_hi):
        return ParamEstimate(False, None, None, None, len(samples))
    while r_hi - r_lo > RATIO_TOL:
        mid = 0.5 * (r_lo + r_hi)
        if mid not in intervals:
            run_pass(_midpoints(r_lo, r_hi, levels))
        if feasible(mid):
            r_hi = mid
        else:
            r_lo = mid

    r_star = max(r_hi, RATIO_TOL)  # beta must stay positive
    if r_star not in intervals:
        run_pass([r_star])
    lo, hi = intervals[r_star]
    alpha = min(hi, lo + ALPHA_INSET) if lo > 0 else lo
    beta = r_star * (1.0 - alpha)
    return ParamEstimate(True, r_star, float(alpha), float(beta), len(samples))
