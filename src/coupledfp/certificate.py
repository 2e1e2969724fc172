"""Sampled certification of the rational contraction hypothesis.

The hypothesis quantifies over every ordered pair of pairs in X x X, which
no finite procedure can prove. This module does the honest finite thing:
draw ordered pairs, measure the inequality's margin at each, report the
worst, and (going the other way) search for the smallest geometric ratio
r = beta / (1 - alpha) whose parameters survive all drawn samples. A clean
report reads "not falsified at N samples, worst margin m" -- never "holds".

Samples live in a `SampleSet`, one row per ordered pair of pairs, and
scoring (`evaluate_samples`, `estimate_params`) takes nothing else. Three
builders pick a family, `sample_comparable_pairs` (the uniform draw),
`directed_pairs` (diagonals, box extremes and a short iteration walk) and
`explicit_pairs` (hand-made pairs), and one scorer makes each set; `+`
joins sets. Violations like to hide near thin sets where the rational term
vanishes, so `certify_region` always mixes in the directed family.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, InputError
from .maps import (
    ContractionParams,
    CoupledMap,
    _margin,
    _pair_width,
    _sample_blocks,
    _skip,
    _uniform_in_box,
    margin_terms,
)
from .spaces import Pair, SpaceDescriptor, _check_dims, _positive_int, rows_product_leq

# Floor of the minimal ratio, which keeps beta positive; the top is 1 - RATIO_TOL.
RATIO_TOL = 1e-6
# Witness alpha is pulled this far inside its feasible interval so that the
# reported params re-certify with strictly nonnegative float margins.
ALPHA_INSET = 1e-9
# Length of the iteration walk in the directed sample family.
WALK_STEPS = 8
# Cap on the crossing steps of `_predicted_ratio`.
ENVELOPE_STEPS = 64
# Cap on the floats `estimate_params` steps r up for a witness without a negative margin.
WITNESS_STEPS = 64


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


class _HeldFamily:
    """A sample family kept as its four (n, dim) stacks."""

    def __init__(self, stacks: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]):
        self.stacks = stacks

    def __len__(self) -> int:
        return len(self.stacks[0])

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """(a_first, a_second, b_first, b_second) of rows [lo, hi), as views."""
        return tuple(stack[lo:hi] for stack in self.stacks)


class _UniformFamily:
    """The uniform draw of `sample_comparable_pairs`, drawn again on demand.

    Its stacks are never kept. The one-shot layout of the random stream is
    family-major: b_first (count x dim doubles), b_second, the first
    offsets, the second offsets. So rows [lo, hi) of stack f start at double
    (f * count + lo) * dim, and `rows` skips a fresh generator from one
    stack's rows to the next, which reproduces the one-shot draw bit for bit.
    """

    def __init__(self, F: CoupledMap, count: int, rng_seed: int, width: np.ndarray):
        self.F = F
        self.count = count
        self.rng_seed = rng_seed
        self.width = width  # the box's checked `_pair_width`

    def __len__(self) -> int:
        return self.count

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """(a_first, a_second, b_first, b_second) of rows [lo, hi), drawn again."""
        F, width = self.F, self.width
        shape = (hi - lo, F.dim)
        rng = np.random.default_rng(self.rng_seed)
        # from the end of rows [lo, hi) of one stack to their start in the next
        skip = (self.count - (hi - lo)) * F.dim
        _skip(rng, lo * F.dim)
        b_first = _uniform_in_box(F, rng, shape, width)
        _skip(rng, skip)
        b_second = _uniform_in_box(F, rng, shape, width)
        # Offsets drawn in place, bit for bit rng.uniform(0.0, 1.0) * width:
        # that reads the same stream and computes 0.0 + 1.0 * u == u.
        _skip(rng, skip)
        a_first = rng.random(shape)
        a_first *= width
        a_first += b_first
        np.minimum(a_first, F.upper, out=a_first)
        _skip(rng, skip)
        a_second = rng.random(shape)
        a_second *= width
        np.subtract(b_second, a_second, out=a_second)
        np.maximum(a_second, F.lower, out=a_second)
        return a_first, a_second, b_first, b_second


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Ordered pairs of pairs and their terms, one row per sample.

    ``parts`` holds one entry per sample family, in sample order; families
    are kept apart rather than copied into one stack. An entry's
    ``rows(lo, hi)`` gives the (a_first, a_second, b_first, b_second) stacks
    of its rows [lo, hi): `directed_pairs` and `explicit_pairs` keep theirs,
    and the uniform family of `sample_comparable_pairs` keeps none and draws
    them again from its seed, without evaluating the map. The three (n,)
    term arrays are those of `margin_terms` and run over all samples.
    Indexing, and so iteration, yields a `SamplePair` with its own copy of
    the row (InputError if no family holds it); `+` joins two sets, and
    only one whose families hold every row can stand on its left.
    """

    parts: tuple[_HeldFamily | _UniformFamily, ...]
    image_distance: np.ndarray
    rational_term: np.ndarray
    distance_sum: np.ndarray

    def __len__(self) -> int:
        return len(self.image_distance)

    def __getitem__(self, k: int) -> SamplePair:
        k = operator.index(k)  # a numpy integer too, which `_skip` would reject
        n = len(self)
        if not -n <= k < n:
            raise IndexError(f"sample {k} of a set of {n}")
        k %= n
        row = k
        for part in self.parts:
            if row < len(part):
                break
            row -= len(part)
        else:
            raise InputError(f"sample {k} is held by no family of the set, only its terms")
        a_first, a_second, b_first, b_second = (s[0].copy() for s in part.rows(row, row + 1))
        return SamplePair(
            Pair(a_first, a_second),
            Pair(b_first, b_second),
            float(self.image_distance[k]),
            float(self.rational_term[k]),
            float(self.distance_sum[k]),
        )

    def __add__(self, other: "SampleSet") -> "SampleSet":
        if not isinstance(other, SampleSet):
            return NotImplemented
        if sum(map(len, self.parts)) != len(self):  # other's rows would shift
            raise InputError("only a set whose families hold every row joins on the left of +")
        return SampleSet(
            self.parts + other.parts,
            np.concatenate([self.image_distance, other.image_distance]),
            np.concatenate([self.rational_term, other.rational_term]),
            np.concatenate([self.distance_sum, other.distance_sum]),
        )


def _scored(space: SpaceDescriptor, F: CoupledMap, family) -> SampleSet:
    """The SampleSet of a family (anything with ``len`` and ``rows(lo, hi)``),
    scored one `maps._sample_blocks` block of rows at a time; ``space`` is
    checked against ``F`` as `margin_terms` does, also for no rows."""
    _check_dims(space, F.lower)
    terms = np.empty((3, len(family)))
    for lo, hi in _sample_blocks(len(family), F.dim):
        terms[:, lo:hi] = margin_terms(space, F, *family.rows(lo, hi))
    return SampleSet((family,) if len(family) else (), *terms)


def explicit_pairs(
    space: SpaceDescriptor, F: CoupledMap, pairs: list[tuple[Pair, Pair]]
) -> SampleSet:
    """The SampleSet of given (a, b) pairs, in order; each must have b <= a."""
    _check_dims(space, *(p.first for pair in pairs for p in pair))
    rows = np.array([(a.first, a.second, b.first, b.second) for a, b in pairs])
    a_first, a_second, b_first, b_second = rows.reshape(-1, 4, space.dim).transpose(1, 0, 2)
    if not rows_product_leq(b_first, b_second, a_first, a_second).all():
        raise InputError("sample pairs require b <= a in the pair order")
    return _scored(space, F, _HeldFamily((a_first, a_second, b_first, b_second)))


def sample_comparable_pairs(
    space: SpaceDescriptor, F: CoupledMap, count: int, rng_seed: int
) -> SampleSet:
    """Draw ``count`` ordered pairs of pairs uniformly-ish over the map's box.

    b is uniform in the domain box; a adds a nonnegative offset to the first
    component and a nonpositive one to the second, clipped back to the box,
    so b <= a holds by construction. A box of zero width along a coordinate
    pins that coordinate. Deterministic for a given seed: the random stream
    keeps one fixed layout (see `_UniformFamily`), and the samples are drawn
    and scored one block of `maps._sample_blocks` at a time. Only the three
    terms per sample are kept, so memory is O(block + count) floats; a row
    asked for later is drawn again.
    """
    _positive_int(count, "count must be >= 0, got {!r}", minimum=0)
    _check_dims(space, F.lower)  # before `_pair_width`, which checks no dims
    return _scored(space, F, _UniformFamily(F, count, rng_seed, _pair_width(space, F)))


def directed_pairs(space: SpaceDescriptor, F: CoupledMap) -> SampleSet:
    """Deterministic pairs aimed at the places uniform sampling misses.

    Three families over the map's domain box: diagonal pairs a = b at box
    extremes and center (their margin degenerates to alpha * rational_term),
    the extreme ordered pair (top, bottom) vs (bottom, top) and its half-way
    variants, and WALK_STEPS consecutive iterates of a walk started from
    (bottom, top), whose rational term shrinks with the displacement.
    Non-comparable candidates, and walk pairs whose new point left the box,
    are silently skipped; the walk stops at its first point outside the box.
    A box too wide for pairs of pairs (`_pair_width`) raises InputError.
    """
    _pair_width(space, F)
    lo, hi = F.lower, F.upper
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    # lo + hi overflows where both edges exceed half the largest float;
    # halve each edge first there only, so every other midpoint keeps its bits.
    wide = ~np.isfinite(mid)
    mid[wide] = 0.5 * lo[wide] + 0.5 * hi[wide]
    # (a_first, a_second, b_first, b_second) per candidate
    candidates = [(p, q, p, q) for p in (lo, mid, hi) for q in (lo, mid, hi)]
    candidates += [(hi, lo, lo, hi), (mid, mid, lo, hi), (hi, lo, mid, mid)]

    xyx = np.stack((lo, hi, lo))
    try:
        for _ in range(WALK_STEPS):
            # F(x, y) and F(y, x) in one call on [x; y; x] (it evaluates nothing if x
            # or y left the box); copied, as the evaluator may reuse its buffer.
            img = F._swap_images(xyx)
            xyx_next = np.concatenate((img, img[:1]))
            candidates.append((*xyx_next[:2], *xyx[:2]))
            xyx = xyx_next
    except DomainError:
        pass  # walk left the box; keep what we have

    a_first, a_second, b_first, b_second = (np.array(s) for s in zip(*candidates))
    # Keep b <= a with a in the box. Every b is in the box, so b <= a already
    # gives a_first >= lo and a_second <= hi, and a <= (hi, lo) gives the rest.
    keep = rows_product_leq(b_first, b_second, a_first, a_second)
    keep &= rows_product_leq(a_first, a_second, hi, lo)
    stacks = (a_first[keep], a_second[keep], b_first[keep], b_second[keep])
    return _scored(space, F, _HeldFamily(stacks))


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
    pair is the first sample with the least margin, None if no family holds
    it. A margin not >= 0, NaN included, is a violation (and, if NaN, the worst).
    """
    margins = params.margin(samples.image_distance, samples.rational_term, samples.distance_sum)
    worst_margin = worst_pair = None
    if len(margins):
        worst_idx = int(np.argmin(margins))
        worst_margin = float(margins[worst_idx])
        if worst_idx < sum(map(len, samples.parts)):  # + keeps held rows first
            worst_pair = samples[worst_idx]
    return CertificateReport(
        sample_count=len(samples),
        violations=int(np.count_nonzero(~(margins >= 0))),
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
    min are exact. A NaN quotient comes from a sample with an infinite
    distance sum (inf / inf), whose constraint every alpha meets; fmax and
    fmin skip it, so it leaves the other samples' bounds in place. The clips
    keep Python's ``max(0.0, raw)`` and ``min(cap, raw)``: a side with no
    bound but NaN ones gets the clip value, and a zero lo is +0.0. A quotient
    that overflows (a slope near 0) is the infinite bound it stands for.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = (0.5 * ratios)[:, None] * samples.distance_sum
        slope = samples.rational_term - h
        offset = np.subtract(samples.image_distance, h, out=h)
        pos = slope > 0
        neg = slope < 0
        # A zero (or NaN) slope leaves the constraint 0 >= offset; for
        # booleans, a > b is a & ~b.
        blocked = ((offset > 0) > (pos | neg)).any(axis=1)
        q = np.divide(offset, slope, out=offset)
    raw_lo = np.fmax.reduce(np.where(pos, q, -np.inf), axis=1)
    raw_hi = np.fmin.reduce(np.where(neg, q, np.inf), axis=1)
    cap = 1.0 - ALPHA_INSET
    lo = np.where(raw_lo > 0.0, raw_lo, 0.0)
    hi = np.where(raw_hi < cap, raw_hi, cap)
    lo[blocked] = 1.0
    hi[blocked] = 0.0
    return lo, hi


def _predicted_ratio(samples: SampleSet) -> float:
    """The samples' minimal ratio from its linear program.

    With t = 1 / (1 - alpha) (the Charnes-Cooper substitution) and
    h = distance_sum / 2, a sample with h > 0 holds at ratio r exactly when
    r >= a * t + b, for a = (image_distance - rational_term) / h and
    b = rational_term / h; a sample with h = 0 holds when
    alpha * rational_term >= image_distance, a lower bound t_min on t. The
    minimal ratio is the lowest point of the upper envelope of the lines
    over [t_min, 1 / ALPHA_INSET], a convex piecewise-linear function: each
    step moves to where the lines on top at the two ends of a bracket cross.
    The envelope at t = 1 is max(2 * image_distance / distance_sum).

    `estimate_params` starts its search here; since `_alpha_interval` rounds
    differently, the least ratio it finds feasible lies a few floats away.
    Lines that are not finite are left out (an infinite rational term or a
    NaN distance sum, for two, constrains nothing), and so is a NaN t_min quotient
    (inf / inf), as `_alpha_interval` skips it. A sample with h = 0 that no
    alpha satisfies gives the neutral guess 0.5; with no line left every
    ratio is feasible and the guess is 0.0.
    """
    image, term = samples.image_distance, samples.rational_term
    h = 0.5 * samples.distance_sum
    with np.errstate(all="ignore"):  # non-finite terms make a guess, not an error
        pushed = (h == 0) & (image > 0)
        alpha_min = np.fmax.reduce(image[pushed] / term[pushed], initial=0.0)
        if not alpha_min <= 1.0 - ALPHA_INSET:
            return 0.5
        a = (image - term) / h
        b = term / h
        finite = np.isfinite(a) & np.isfinite(b)  # h = 0 gives no line
        a, b = a[finite], b[finite]
        if not len(a):
            return 0.0

        def top(t: float) -> tuple[float, int]:
            k = int(np.argmax(a * t + b))
            return float(a[k] * t + b[k]), k

        r, k_lo = top(1.0 / (1.0 - alpha_min))
        if a[k_lo] >= 0:
            return r
        r, k_hi = top(1.0 / ALPHA_INSET)
        for _ in range(ENVELOPE_STEPS):
            if a[k_hi] <= 0:
                break
            r, k = top((b[k_hi] - b[k_lo]) / (a[k_lo] - a[k_hi]))
            if k in (k_lo, k_hi) or a[k] == 0:
                break
            if a[k] > 0:
                k_hi = k
            else:
                k_lo = k
    return r


def estimate_params(samples: SampleSet) -> ParamEstimate:
    """Invert the contraction inequality: minimal ratio over the samples.

    The ratio r* is the least float in [RATIO_TOL, 1 - RATIO_TOL] at which
    the feasible alphas (`_alpha_interval`) are not empty and the witness
    picked from them has no negative margin on the samples, those with a
    non-finite term exempt. The float below r* fails one of the two, unless
    r* is the floor; when the top fails, the estimate is infeasible.

    The search runs over float bit patterns. Its first pass tests the top,
    the floor, and the linear program's minimal ratio (`_predicted_ratio`)
    with its two neighbouring floats; the bracket then widens from that
    guess, doubling, and halves down to adjacent floats, so a wrong guess
    costs passes only. Then r steps up one float at a time while rounding
    leaves the witness a negative margin, up to WITNESS_STEPS floats.
    """
    if not len(samples):
        raise InputError("estimate_params needs at least one sample")
    intervals: dict[int, tuple[float, float]] = {}

    def run_pass(bits: list[int]) -> None:
        lo, hi = _alpha_interval(np.array(bits, dtype=np.int64).view(np.float64), samples)
        intervals.update(zip(bits, zip(lo.tolist(), hi.tolist())))

    def feasible(bits: int) -> bool:
        lo, hi = intervals[bits]
        return lo <= hi

    ratios = np.array([RATIO_TOL, 1.0 - RATIO_TOL, _predicted_ratio(samples)])
    floor, top, guess = ratios.view(np.int64).tolist()
    guess = min(max(guess, floor), top)  # 0.0 and -0.0 go to the floor, inf and NaN to the top
    run_pass(sorted({top, floor, max(guess - 1, floor), guess, min(guess + 1, top)}))
    if not feasible(top):
        return ParamEstimate(False, None, None, None, len(samples))
    hi = min(b for b in intervals if feasible(b))
    lo = max((b for b in intervals if b < hi), default=hi - 1)
    step = 1
    while hi - lo > 1:
        step *= 2
        mid = (lo + hi) // 2
        probe = max(hi - step, mid) if hi <= guess else min(lo + step, mid)
        run_pass([probe])
        if feasible(probe):
            hi = probe
        else:
            lo = probe
    image, term, span = samples.image_distance, samples.rational_term, samples.distance_sum
    finite = np.isfinite(image) & np.isfinite(term) & np.isfinite(span)
    for bits in range(hi, min(hi + WITNESS_STEPS, top + 1)):
        if bits not in intervals:
            run_pass([bits])
        if not feasible(bits):
            continue
        r_star = float(np.int64(bits).view(np.float64))
        alpha_lo, alpha_hi = intervals[bits]
        alpha = min(alpha_hi, alpha_lo + ALPHA_INSET) if alpha_lo > 0 else alpha_lo
        beta = r_star * (1.0 - alpha)
        with np.errstate(all="ignore"):
            margins = _margin(alpha, beta, image, term, span)
        if not (finite & (margins < 0)).any():
            return ParamEstimate(True, r_star, float(alpha), float(beta), len(samples))
    raise InputError(f"no witness without a negative margin within {WITNESS_STEPS} floats")
