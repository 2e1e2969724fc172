"""Two-variable maps F: X x X -> X and the rational contraction machinery.

This is the core of the package: the rational quantity entering the
contraction inequality, the inequality's margin at a given pair of pairs,
the mixed-monotonicity falsification check, and the single-variable
Dass-Gupta margin recovered on the diagonal f(x) = F(x, x).

Sampled checks evaluate the map on (n, dim) row stacks through
`CoupledMap.evaluate_rows`, in blocks of at most BLOCK_FLOATS floats per
stack, and `margin_terms` is the one place the inequality's ingredients are
computed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ComparabilityError, DimensionMismatchError, DomainError, InputError
from .spaces import Pair, SpaceDescriptor, as_point, product_leq, row_distances
from .spaces import _check_dims, _positive_dim, _positive_int

# Floats in one stack of map arguments: sampled checks draw, evaluate and
# score their samples in blocks of this size and keep only per-sample results,
# so memory stays bounded whatever the sample count.
BLOCK_FLOATS = 2**16


@dataclass(frozen=True)
class ContractionParams:
    """Admissible contraction parameters (alpha, beta).

    Requires alpha >= 0, beta > 0 and alpha + beta < 1, so the derived
    ratio beta / (1 - alpha) lies strictly inside (0, 1). alpha = 0 is
    accepted as the conservative limit (the rational term only ever helps)
    but a warning is emitted because the hypothesis is stated with
    alpha > 0.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        alpha = float(self.alpha)
        beta = float(self.beta)
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise InputError("alpha and beta must be finite")
        if alpha < 0:
            raise InputError(f"alpha must be >= 0, got {alpha}")
        if beta <= 0:
            raise InputError(f"beta must be > 0, got {beta}")
        if alpha + beta >= 1:
            raise InputError(f"alpha + beta must be < 1, got {alpha + beta}")
        if alpha == 0.0:
            warnings.warn(
                "alpha = 0 is the degenerate limit of the contraction hypothesis",
                UserWarning,
                stacklevel=3,
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def ratio(self) -> float:
        """Geometric rate beta / (1 - alpha) governing the gap bounds."""
        return self.beta / (1.0 - self.alpha)

    def margin(self, image_distance, rational_term, distance_sum):
        """Slack of the rational contraction inequality; >= 0 where it holds.

        alpha * rational_term + (beta / 2) * distance_sum - image_distance,
        for floats or for arrays of them (see `margin_terms`). At alpha = 0
        the rational part is 0, also where the term is infinite (its quotient
        overflowed) and 0 * inf would make the margin NaN.
        """
        rational = self.alpha * rational_term if self.alpha else 0.0
        return rational + 0.5 * self.beta * distance_sum - image_distance


@dataclass(frozen=True, eq=False)
class CoupledMap:
    """A deterministic two-variable map together with its claimed domain box.

    ``evaluator`` takes two (n, dim) float row stacks and returns the
    (n, dim) stack of images, row k equal bit for bit to the image of row k
    evaluated alone; it must be total and deterministic on the box. The box
    is the region on which the map's hypotheses (monotonicity, contraction)
    are claimed; evaluation outside it raises :class:`DomainError`. The
    iteration checks its iterates against the padded box instead, the box
    with each side moved out by half its width, so that they may drift past
    the strict box before divergence is called. Both boxes are fixed when
    the map is built.

    `evaluate_rows` makes one evaluator call per stack, and `evaluate` is
    its one-row call. The evaluator may hand back one output buffer of its
    own on every call, and both return that buffer (or a row of it), so a
    caller that keeps an image past the next call copies it. Expression
    maps from configs evaluate a stack column by column
    (`expressions.evaluate_components`), keeping every float of the one-row
    tree walk, transcendental functions included.
    """

    name: str
    dim: int
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    # (lower, upper) of the padded box, set by __post_init__.
    _padded: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _positive_dim(self.dim)
        lower = as_point(self.lower, dim=self.dim)
        upper = as_point(self.upper, dim=self.dim)
        if np.any(lower > upper):
            raise InputError(f"empty domain box for map {self.name!r}: lower > upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        with np.errstate(over="ignore"):  # a box wider than the largest float
            grow = 0.5 * (upper - lower)
        object.__setattr__(self, "_padded", (lower - grow, upper + grow))

    def contains(self, p: np.ndarray) -> bool:
        """Whether p lies in the domain box, ``lower <= p <= upper``."""
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))

    def _evaluate_stack(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """One evaluator call on in-box rows, with its images checked."""
        if not len(X):
            return np.empty((0, self.dim))
        out = np.asarray(self.evaluator(X, Y), dtype=float)
        if out.shape != X.shape:
            raise DomainError(
                f"map {self.name!r} returned shape {out.shape}, expected {X.shape}"
            )
        if not np.isfinite(out).all():
            bad = out[np.argmin(np.all(np.isfinite(out), axis=1))]
            raise DomainError(f"map {self.name!r} returned non-finite values: {bad!r}")
        return out

    def evaluate(self, x, y) -> np.ndarray:
        """Apply the map to one row: the one-row call of `evaluate_rows`."""
        x = as_point(x, dim=self.dim)
        y = as_point(y, dim=self.dim)
        return self.evaluate_rows(x[None], y[None])[0]

    def evaluate_rows(self, X, Y, padded: bool = False) -> np.ndarray:
        """F(X[k], Y[k]) for each row k of two (n, dim) stacks, as a stack.

        Checks that every argument is finite and in the box (the padded box
        when ``padded``), and that every image has the stack's shape and is
        finite. A failure names the first bad row, with the message a
        one-row call on that row gives: its first argument that is not
        finite (InputError), else its first argument outside the box
        (DomainError).
        """
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.ndim != 2 or X.shape != Y.shape or X.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected two (n, {self.dim}) stacks, got {X.shape} and {Y.shape}"
            )
        lo, hi = self._padded if padded else (self.lower, self.upper)
        # Both stacks are checked whole and at once (np.minimum and np.maximum
        # propagate NaN, so a NaN argument fails here too); row masks are
        # built only to name the first bad row.
        if ((lo <= np.minimum(X, Y)) & (np.maximum(X, Y) <= hi)).all():
            return self._evaluate_stack(X, Y)
        x_in = np.all((X >= lo) & (X <= hi), axis=1)
        good = int(np.argmin(x_in & np.all((Y >= lo) & (Y <= hi), axis=1)))
        self._evaluate_stack(X[:good], Y[:good])  # an earlier row's failure comes first
        x, y = as_point(X[good]), as_point(Y[good])  # raise for a non-finite argument
        outside = y if x_in[good] else x
        raise DomainError(f"input {outside.tolist()} outside the domain box of {self.name!r}")


def _sample_blocks(n: int, dim: int):
    """[lo, hi) sample ranges whose four image rows per sample fit in BLOCK_FLOATS."""
    step = max(1, BLOCK_FLOATS // (dim * 4))
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def _images(F: CoupledMap, args) -> list[np.ndarray]:
    """F at each (first, second) pair of row stacks, in one checked call.

    The stacks are interleaved row by row, so a failure names the same row
    that evaluating each sample's images in turn would have failed on.
    """
    first = np.concatenate([p for p, _ in args], axis=1).reshape(-1, F.dim)
    second = np.concatenate([q for _, q in args], axis=1).reshape(-1, F.dim)
    out = F.evaluate_rows(first, second).reshape(-1, len(args), F.dim)
    return [out[:, j] for j in range(len(args))]


def margin_terms(
    space: SpaceDescriptor, F: CoupledMap, x, y, u, v
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The contraction inequality's ingredients at each row of four stacks.

    Row k of the (n, dim) stacks x, y, u, v is the pair of pairs
    a = (x, y), b = (u, v). Returns three (n,) arrays: the image distance
    d(F(x,y), F(u,v)), the rational term

        min( d(x,F(x,y)) * (2 + d(u,F(u,v)) + d(v,F(v,u))) / D,
             d(u,F(u,v)) * (2 + d(x,F(x,y)) + d(y,F(y,x))) / D )

    with D = 2 + d(x,u) + d(y,v), and the distance sum d(x,u) + d(y,v).
    The rational term is always >= 0, its denominator always >= 2, and it
    vanishes whenever either pair is a coupled fixed pair. Each of the four
    images is evaluated once per row, in blocks of bounded size.
    """
    _check_dims(space, F.lower)
    n = len(x)
    image_distance, rational_term, distance_sum = np.empty(n), np.empty(n), np.empty(n)
    for lo, hi in _sample_blocks(n, F.dim):
        xs, ys, us, vs = x[lo:hi], y[lo:hi], u[lo:hi], v[lo:hi]
        f_xy, f_uv, f_yx, f_vu = _images(F, [(xs, ys), (us, vs), (ys, xs), (vs, us)])
        disp_x = row_distances(space, xs, f_xy)
        disp_y = row_distances(space, ys, f_yx)
        disp_u = row_distances(space, us, f_uv)
        disp_v = row_distances(space, vs, f_vu)
        d_xu = row_distances(space, xs, us)
        d_yv = row_distances(space, ys, vs)
        denom = 2.0 + d_xu + d_yv
        rational_term[lo:hi] = _rational_term(disp_x, disp_y, disp_u, disp_v, denom)
        image_distance[lo:hi] = row_distances(space, f_xy, f_uv)
        distance_sum[lo:hi] = d_xu + d_yv
    return image_distance, rational_term, distance_sum


def _rational_term(disp_x, disp_y, disp_u, disp_v, denom) -> np.ndarray:
    """The rational term at each row: the smaller of
    ``disp_x * (2 + disp_u + disp_v) / denom`` and
    ``disp_u * (2 + disp_x + disp_y) / denom``. On the rows where a product
    overflows (distances near 1e154 or more, as on a box that wide in the max
    or l1 metric) that side divides first, so that a finite term stays finite.
    """
    sides = []
    with np.errstate(over="ignore"):
        for disp, weight in ((disp_x, 2.0 + disp_u + disp_v), (disp_u, 2.0 + disp_x + disp_y)):
            product = disp * weight
            side = product / denom
            wide = np.isinf(product)
            if wide.any():
                side[wide] = disp[wide] / denom[wide] * weight[wide]
            sides.append(side)
    return np.minimum(*sides)


def _one_row(F: CoupledMap, a: Pair, b: Pair) -> list[np.ndarray]:
    return [as_point(p, dim=F.dim)[None, :] for p in (a.first, a.second, b.first, b.second)]


def rational_min_term(space: SpaceDescriptor, F: CoupledMap, a: Pair, b: Pair) -> float:
    """The rational quantity coupling the two self-displacements.

    With a = (x, y) and b = (u, v): the rational term of `margin_terms`.
    """
    return float(margin_terms(space, F, *_one_row(F, a, b))[1][0])


def contraction_margin(
    space: SpaceDescriptor,
    F: CoupledMap,
    params: ContractionParams,
    a: Pair,
    b: Pair,
) -> float:
    """Slack in the rational contraction inequality at an ordered pair of pairs.

    Requires b <= a in the pair order (first components ordered up, second
    components ordered down); the inequality is only claimed there. Returns

        alpha * Q(a, b) + (beta / 2) * (d(x,u) + d(y,v)) - d(F(x,y), F(u,v))

    with Q the rational min term; >= 0 means the inequality holds at (a, b).
    """
    if not product_leq(space, b, a):
        raise ComparabilityError(
            "contraction margin needs b <= a in the pair order "
            "(a.first >= b.first and a.second <= b.second)"
        )
    return float(params.margin(*margin_terms(space, F, *_one_row(F, a, b)))[0])


def dass_gupta_margin(
    space: SpaceDescriptor,
    F: CoupledMap,
    params: ContractionParams,
    x_hat,
    y_hat,
) -> float:
    """Slack in the Dass-Gupta rational inequality for f(x) = F(x, x).

    Returns

        alpha * d(yh, f(yh)) * (1 + d(xh, f(xh))) / (1 + d(xh, yh))
        + beta * d(xh, yh) - d(f(xh), f(yh)),

    the single-variable contraction the coupled condition reduces to on
    diagonal pairs.
    """
    x_hat = as_point(x_hat, dim=F.dim)
    y_hat = as_point(y_hat, dim=F.dim)
    diagonal = np.stack((x_hat, y_hat))
    f_x, f_y = F.evaluate_rows(diagonal, diagonal)
    _check_dims(space, x_hat)
    gap, disp_y, disp_x, image_gap = row_distances(
        space, np.stack((x_hat, y_hat, x_hat, f_x)), np.stack((y_hat, f_y, f_x, f_y))
    ).tolist()
    rhs = params.alpha * disp_y * (1.0 + disp_x) / (1.0 + gap) + params.beta * gap
    return rhs - image_gap


@dataclass(frozen=True)
class MonotoneWitness:
    """A sampled configuration where a monotonicity requirement failed."""

    kind: str  # "first-argument" or "second-argument"
    lo: np.ndarray
    hi: np.ndarray
    other: np.ndarray
    excess: float


@dataclass(frozen=True)
class MonotoneReport:
    """Outcome of sampling the mixed-monotone property.

    ``violations`` counts samples where either direction failed;
    ``worst_excess`` is the largest coordinatewise overshoot seen (0 when
    nothing failed). Zero violations means "not falsified at this sample
    count", never a proof.
    """

    sample_count: int
    violations: int
    worst_excess: float
    worst_witness: MonotoneWitness | None
    rng_seed: int

    @property
    def falsified(self) -> bool:
        return self.violations > 0


def _box_width(F: CoupledMap, space: SpaceDescriptor | None = None) -> np.ndarray:
    """The width ``upper - lower`` of the map's domain box, checked for sampling.

    InputError when a side of the box is wider than the largest float, where
    a draw itself would overflow, or, given ``space``, when the distance
    from ``lower`` to ``upper`` is not finite in its metric (the euclidean
    one squares the width), where distances between samples would overflow
    and their margins come out NaN.
    """
    with np.errstate(over="ignore"):
        width = F.upper - F.lower
    if not np.isfinite(width).all():
        raise InputError(
            f"domain box of map {F.name!r} is wider than the largest float; "
            "sampling needs a finite width"
        )
    if space is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            norm = row_distances(space, F.upper[None], F.lower[None])[0]
        if not np.isfinite(norm):
            raise InputError(
                f"distances across the domain box of map {F.name!r} overflow in the "
                f"{space.metric} metric; sampling needs finite distances"
            )
    return width


def _pair_width(space: SpaceDescriptor, F: CoupledMap) -> np.ndarray:
    """`_box_width` with ``space``, checked also for building pairs of pairs.

    InputError where an edge moved out by the width overflows (a uniform
    pair adds its offset before it clips to the box), or where twice the
    distance across the box does (the distance sums and denominators of
    `margin_terms` reach that far): the margins would come out of
    overflowed floats.
    """
    width = _box_width(F, space)
    with np.errstate(over="ignore"):
        across = 2.0 * row_distances(space, F.upper[None], F.lower[None])
        reach = np.concatenate((F.upper + width, F.lower - width, across))
    if not np.isfinite(reach).all():
        raise InputError(
            f"domain box of map {F.name!r} is too wide to build pairs on: its edges "
            f"moved out by its width, or twice the distance across it in the "
            f"{space.metric} metric, overflow"
        )
    return width


def _uniform_in_box(
    F: CoupledMap, rng: np.random.Generator, size, width: np.ndarray
) -> np.ndarray:
    """``rng.uniform`` over the map's domain box, the one draw of every sampler.

    Element for element ``rng.uniform(lower, upper, size)``, which computes
    ``lower + (upper - lower) * rng.random()``, in place on one buffer.
    ``width`` is the box's `_box_width`, checked once by the caller.
    """
    draw = rng.random(size)
    draw *= width
    draw += F.lower
    return draw


def _skip(rng: np.random.Generator, doubles: int) -> None:
    """Move ``rng`` past ``doubles`` uniform doubles without drawing them.

    `Generator.random` reads one step of its PCG64 stream per double, so
    the stream's `advance` by that many steps lands where the draw would.
    """
    rng.bit_generator.advance(doubles)


def mixed_monotone_check(F: CoupledMap, sample_count: int, rng_seed: int) -> MonotoneReport:
    """Sample the mixed-monotone property on the map's domain box.

    Each sample draws an ordered first-argument triple (x1 <= x2, y) and an
    ordered second-argument triple (x, y1 <= y2) uniformly in the box and
    checks F(x1, y) <= F(x2, y) and F(x, y1) >= F(x, y2) coordinatewise.
    Deterministic for a given ``rng_seed``.
    """
    _positive_int(sample_count, "sample_count must be >= 1, got {!r}")
    rng = np.random.default_rng(rng_seed)
    width = _box_width(F)
    excess_first = np.empty(sample_count)
    excess_second = np.empty(sample_count)
    # The stream is sample-major, (sample_count, 6, dim) doubles, so each
    # block's draw reads on where the last one stopped; only the per-sample
    # excesses are kept.
    for lo, hi in _sample_blocks(sample_count, F.dim):
        draws = _uniform_in_box(F, rng, (hi - lo, 6, F.dim), width)
        p, q, y_fix, x_fix, r, s = (draws[:, j] for j in range(6))
        x1, x2 = np.minimum(p, q), np.maximum(p, q)
        y1, y2 = np.minimum(r, s), np.maximum(r, s)
        f1, f2, g2, g1 = _images(F, [(x1, y_fix), (x2, y_fix), (x_fix, y2), (x_fix, y1)])
        excess_first[lo:hi] = np.max(f1 - f2, axis=1)
        excess_second[lo:hi] = np.max(g2 - g1, axis=1)

    # A sample's excess is its larger direction, the first on ties; the
    # worst witness is the earliest sample with the largest positive excess.
    excess = np.maximum(excess_first, excess_second)
    violations = int(np.count_nonzero(excess > 0))
    k = int(np.argmax(excess))
    if excess[k] <= 0:
        return MonotoneReport(sample_count, violations, 0.0, None, rng_seed)
    # Draw sample k again from a fresh stream.
    rng = np.random.default_rng(rng_seed)
    _skip(rng, k * 6 * F.dim)
    p, q, y_fix, x_fix, r, s = _uniform_in_box(F, rng, (6, F.dim), width)
    first = excess_first[k] >= excess_second[k]
    kind = "first-argument" if first else "second-argument"
    u, v, other = (p, q, y_fix) if first else (r, s, x_fix)
    worst = MonotoneWitness(kind, np.minimum(u, v), np.maximum(u, v), other, float(excess[k]))
    return MonotoneReport(sample_count, violations, float(excess[k]), worst, rng_seed)
