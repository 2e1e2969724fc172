"""The coupled Picard iteration and its runtime-checkable conclusions.

Given a map F and a seed (x0, y0), the scheme alternates

    x_{n+1} = F(x_n, y_n),   y_{n+1} = F(y_n, x_n)

and, under the rational contraction hypothesis with ratio
r = beta / (1 - alpha), consecutive gaps obey the geometric bound
r^n * D0 with D0 the mean of the first two gaps. This module runs the
iteration, checks the seed condition, verifies the resulting pair, audits
the monotone chain structure, and probes uniqueness from several seeds.

There is one iteration loop, `_run`, which steps a stack of seeds with one
`CoupledMap.evaluate_rows` call per step. `iterate` (and so `solve`) is its
one-seed run; `uniqueness_probe` runs it on all seeds at once, so each probe
run equals `iterate` from its seed alone, float for float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .errors import DimensionMismatchError, DivergenceError, DomainError, InputError
from .maps import ContractionParams, CoupledMap, _images
from .spaces import (
    Pair,
    SpaceDescriptor,
    as_point,
    distance,
    leq,
    row_distances,
    rows_leq,
)

# Iterates may drift past the strict domain box before divergence is called;
# the box is inflated by this factor about its center for the escape check.
DIVERGENCE_PADDING = 2.0


@dataclass(frozen=True)
class IterationConfig:
    """Solver knobs: iteration budget, target accuracy, optional params.

    When ``params`` is present the stopping rule is the a-posteriori
    geometric tail  max(gap_x, gap_y) * r / (1 - r) <= tol, a sound bound
    on the distance from the newest iterate to the limit; without params it
    falls back to max(gap_x, gap_y) <= tol. ``tol`` must be finite and > 0:
    an infinite one would stop every run after one step. ``tol`` also
    drives the component-equality flag (see SolveResult). `iterate` always
    records its trace, one entry per step.
    """

    max_iter: int = 200
    tol: float = 1e-10
    params: ContractionParams | None = None

    def __post_init__(self):
        if not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise InputError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        if not (0 < float(self.tol) < math.inf):
            raise InputError(f"tol must be finite and > 0, got {self.tol!r}")


class TraceEntry(NamedTuple):
    n: int
    x: np.ndarray
    y: np.ndarray
    gap_x: float
    gap_y: float
    bound: float | None


@dataclass
class IterationTrace:
    """Recorded iterates with forward gaps and optional geometric bounds."""

    entries: list[TraceEntry] = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def initial_mean_gap(self) -> float:
        """(gap_x + gap_y) / 2 at step 0: the base of the a-priori bounds."""
        if not self.entries:
            raise InputError("empty trace")
        first = self.entries[0]
        return 0.5 * (first.gap_x + first.gap_y)

    def write_csv(self, stream: TextIO) -> None:
        """Rows n,x_0..x_{d-1},y_0..y_{d-1},gap_x,gap_y,bound.

        The bound column is empty when no params were configured. Floats are
        written in decimal with 17 significant digits, enough to round-trip.
        """
        if not self.entries:
            raise InputError("empty trace")
        dim = self.entries[0].x.size
        cols = (
            ["n"]
            + [f"x_{i}" for i in range(dim)]
            + [f"y_{i}" for i in range(dim)]
            + ["gap_x", "gap_y", "bound"]
        )
        stream.write(",".join(cols) + "\n")
        for e in self.entries:
            cells = [str(e.n)]
            cells += [format(c, ".17g") for c in e.x]
            cells += [format(c, ".17g") for c in e.y]
            cells += [format(e.gap_x, ".17g"), format(e.gap_y, ".17g")]
            cells.append("" if e.bound is None else format(e.bound, ".17g"))
            stream.write(",".join(cells) + "\n")


@dataclass(frozen=True)
class SolveResult:
    """What the iteration produced and which conclusions were verified.

    ``converged`` is true only when the stopping rule fired *and* the
    returned pair passed the fixed-point verification at ``tol``, so
    ``converged`` implies ``final_residual <= tol``. ``seed_condition_held``
    records whether the starting hypothesis x0 <= F(x0,y0), y0 >= F(y0,x0)
    was satisfied; when it fails the run is still performed but its
    convergence is empirical rather than guaranteed.

    ``components_equal`` uses the threshold 2 * tol: the stop rule bounds
    each component's distance to the common limit by tol, so equal limit
    components are only guaranteed to land within 2 * tol of each other.
    """

    fixed_pair: Pair
    iterations_used: int
    final_residual: float
    converged: bool
    seed_condition_held: bool
    components_equal: bool


def check_seed_condition(space: SpaceDescriptor, F: CoupledMap, x0, y0) -> bool:
    """x0 <= F(x0, y0) and F(y0, x0) <= y0."""
    x0 = as_point(x0, dim=F.dim)
    y0 = as_point(y0, dim=F.dim)
    return leq(space, x0, F.evaluate(x0, y0)) and leq(space, F.evaluate(y0, x0), y0)


def verify_coupled_fixed_point(
    space: SpaceDescriptor,
    F: CoupledMap,
    pair: Pair,
    tol: float,
    padding: float = 1.0,
) -> tuple[bool, float]:
    """Residual max(d(F(x,y), x), d(F(y,x), y)) and whether it is <= tol."""
    residual = max(
        distance(space, F.evaluate(pair.first, pair.second, padding), pair.first),
        distance(space, F.evaluate(pair.second, pair.first, padding), pair.second),
    )
    return residual <= tol, residual


def _padded_images(F: CoupledMap, live: np.ndarray, X, Y, errors: list, what: str):
    """F(x, y) and F(y, x) in the padded box, for x = X[live] and y = Y[live].

    One stacked call. If it raises DomainError, each seed is redone as its
    own call: a seed whose call fails gets a DivergenceError saying that its
    ``what`` escaped the padded box, chained from the DomainError, and is
    dropped. Returns the seeds kept, their rows x, y and the two images.
    """
    x, y = X[live], Y[live]
    try:
        return (live, x, y, *_images(F, [(x, y), (y, x)], DIVERGENCE_PADDING))
    except DomainError:
        pass
    kept, images = [], []
    for k in range(len(live)):
        xk, yk = x[k : k + 1], y[k : k + 1]
        try:
            images.append(_images(F, [(xk, yk), (yk, xk)], DIVERGENCE_PADDING))
        except DomainError as exc:
            error = DivergenceError(f"{what} escaped the padded domain box: {exc}")
            error.__cause__ = exc
            errors[live[k]] = error
        else:
            kept.append(k)
    f_xy, f_yx = (np.array([pair[j][0] for pair in images]).reshape(-1, F.dim) for j in (0, 1))
    return live[kept], x[kept], y[kept], f_xy, f_yx


def _run(
    space: SpaceDescriptor,
    F: CoupledMap,
    seeds: Sequence,
    config: IterationConfig,
    trace: IterationTrace | None = None,
) -> tuple[list[SolveResult | None], list[DivergenceError | None]]:
    """The coupled iteration from every (x0, y0) in ``seeds``, as one stack.

    All S seeds iterate together as one (S, dim) stack: each step evaluates
    the images of every seed still running in one `evaluate_rows` call, and
    each seed stops on its own stopping rule and is then frozen. Returns one
    SolveResult or None per seed and, for a seed that diverged, the
    DivergenceError its run raised. The stacked seed check's images are
    also step 0's, so step 0 makes no call of its own. A seed check that
    fails is redone seed by seed with `check_seed_condition`, whose
    DomainError for a seed outside the box propagates, and step 0 is then
    evaluated as any other step. ``trace`` records the steps of a one-seed
    run.
    """
    tol = config.tol
    ratio = config.params.ratio if config.params is not None else None
    points = [(as_point(x0, dim=F.dim), as_point(y0, dim=F.dim)) for x0, y0 in seeds]
    X = np.array([x for x, _ in points])
    Y = np.array([y for _, y in points])
    if space.dim != F.dim:
        raise DimensionMismatchError(
            f"point of dimension {F.dim} in a space of dimension {space.dim}"
        )

    errors: list[DivergenceError | None] = [None] * len(seeds)
    iterations = np.zeros(len(seeds), dtype=int)
    stopped = np.zeros(len(seeds), dtype=bool)
    live = np.arange(len(seeds))
    try:
        f_xy, f_yx = _images(F, [(X, Y), (Y, X)])
    except DomainError:
        seed_ok = [check_seed_condition(space, F, x, y) for x, y in points]
        step = _padded_images(F, live, X, Y, errors, "iteration")
    else:
        seed_ok = rows_leq(X, f_xy) & rows_leq(f_yx, Y)
        # Every seed lies in the strict box, so inside the padded one too:
        # these are step 0's images.
        step = live, X.copy(), Y.copy(), f_xy, f_yx

    for n in range(config.max_iter):
        if n:
            step = _padded_images(F, live, X, Y, errors, "iteration")
        live, x, y, x_next, y_next = step
        gap_x, gap_y = row_distances(space, x_next, x), row_distances(space, y_next, y)
        if trace is not None and live.size:
            gap_x0, gap_y0 = float(gap_x[0]), float(gap_y[0])
            if n == 0:
                base_gap = 0.5 * (gap_x0 + gap_y0)
            bound = None if ratio is None else ratio**n * base_gap
            trace.entries.append(TraceEntry(n, x[0], y[0], gap_x0, gap_y0, bound))
        X[live], Y[live] = x_next, y_next
        iterations[live] = n + 1
        worst_gap = np.maximum(gap_x, gap_y)
        # The stopping rule of IterationConfig.
        tail = worst_gap if ratio is None else worst_gap * ratio / (1.0 - ratio)
        stopped[live] = done = tail <= tol
        live = live[~done]
        if not live.size:
            break

    ran = np.flatnonzero([e is None for e in errors])
    ran, x, y, f_xy, f_yx = _padded_images(F, ran, X, Y, errors, "final iterate")
    residual = np.maximum(row_distances(space, f_xy, x), row_distances(space, f_yx, y))
    components_equal = row_distances(space, x, y) <= 2.0 * tol
    results: list[SolveResult | None] = [None] * len(seeds)
    for i, k in enumerate(ran):
        results[k] = SolveResult(
            fixed_pair=Pair(x[i], y[i]),
            iterations_used=int(iterations[k]),
            final_residual=float(residual[i]),
            converged=bool(stopped[k] and residual[i] <= tol),
            seed_condition_held=bool(seed_ok[k]),
            components_equal=bool(components_equal[i]),
        )
    return results, errors


def iterate(
    space: SpaceDescriptor,
    F: CoupledMap,
    x0,
    y0,
    config: IterationConfig | None = None,
) -> tuple[SolveResult, IterationTrace]:
    """Run the coupled iteration from (x0, y0) until the stopping rule fires.

    The seed condition is checked but not enforced: a failing seed is
    flagged in the result and the iteration proceeds anyway. Divergence
    (non-finite values or escape from the padded box) raises
    :class:`DivergenceError`. Deterministic: identical inputs give
    identical traces. This is the one-seed run of the loop that
    `uniqueness_probe` runs on all its seeds at once.
    """
    config = config or IterationConfig()
    trace = IterationTrace()
    (result,), (error,) = _run(space, F, [(x0, y0)], config, trace)
    if error is not None:
        raise error
    return result, trace


def apriori_gap_bound(params: ContractionParams, initial_mean_gap: float, step: int) -> float:
    """Geometric bound ratio**step * D0 on the gap at the given step.

    D0 is the mean of the two first-step gaps; the claim covers steps >= 1
    (at step 0 an individual gap can exceed the mean of the two).
    """
    if initial_mean_gap < 0:
        raise InputError("initial_mean_gap must be >= 0")
    if step < 0:
        raise InputError("step must be >= 0")
    return params.ratio**step * initial_mean_gap


def apriori_iteration_count(
    params: ContractionParams, initial_mean_gap: float, eps: float
) -> int:
    """Smallest n with ratio**n * D0 / (1 - ratio) <= eps.

    Summing the geometric gap bounds gives the tail estimate
    d(limit, x_n) <= ratio**n * D0 / (1 - ratio); this inverts it.
    """
    if not (eps > 0):
        raise InputError(f"eps must be > 0, got {eps}")
    if initial_mean_gap < 0:
        raise InputError("initial_mean_gap must be >= 0")
    r = params.ratio
    tail0 = initial_mean_gap / (1.0 - r)
    if tail0 <= eps:
        return 0
    n = max(0, math.ceil(math.log(eps / tail0) / math.log(r)))
    # Guard the log against float rounding on either side.
    while r**n * tail0 > eps:
        n += 1
    while n > 0 and r ** (n - 1) * tail0 <= eps:
        n -= 1
    return n


@dataclass(frozen=True)
class ChainViolation:
    step: int
    kind: str  # "x-monotone", "y-monotone", "x-limit", "y-limit"


@dataclass(frozen=True)
class ChainReport:
    """Audit of the monotone chain structure of a recorded trace.

    ``monotone_ok``: x_n <= x_{n+1} and y_{n+1} <= y_n for consecutive
    recorded iterates and from the last iterate to the limit.
    ``limit_ok``: every x_n <= x_limit and y_limit <= y_n, the
    limit-comparison property that coordinatewise convergence makes
    automatic here.
    """

    entries_checked: int
    monotone_ok: bool
    limit_ok: bool
    first_violation: ChainViolation | None

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.limit_ok


def check_monotone_chain(
    space: SpaceDescriptor, trace: IterationTrace, limit: Pair
) -> ChainReport:
    """Check ascent of x_n, descent of y_n, and comparison with the limit."""
    if not trace.entries:
        raise InputError("empty trace")
    violations: list[ChainViolation] = []
    entries = trace.entries
    chain = [(e.n, e.x, e.y) for e in entries]
    chain.append((entries[-1].n + 1, limit.first, limit.second))
    for (n, x_cur, y_cur), (_, x_nxt, y_nxt) in zip(chain, chain[1:]):
        if not leq(space, x_cur, x_nxt):
            violations.append(ChainViolation(n, "x-monotone"))
        if not leq(space, y_nxt, y_cur):
            violations.append(ChainViolation(n, "y-monotone"))
    monotone_ok = not violations
    limit_violations: list[ChainViolation] = []
    for e in entries:
        if not leq(space, e.x, limit.first):
            limit_violations.append(ChainViolation(e.n, "x-limit"))
        if not leq(space, limit.second, e.y):
            limit_violations.append(ChainViolation(e.n, "y-limit"))
    all_violations = sorted(violations + limit_violations, key=lambda v: v.step)
    return ChainReport(
        entries_checked=len(entries),
        monotone_ok=monotone_ok,
        limit_ok=not limit_violations,
        first_violation=all_violations[0] if all_violations else None,
    )


@dataclass(frozen=True)
class SeedRun:
    """Outcome of one probe run: its seed, result, or divergence message."""

    seed: Pair
    result: SolveResult | None
    error: str | None


@dataclass(frozen=True)
class BridgeCheck:
    """Bridging witness for one pair of limits: comparable to both or not."""

    index_a: int
    index_b: int
    bridge: Pair
    comparable_to_both: bool


@dataclass(frozen=True)
class UniquenessReport:
    """Empirical uniqueness evidence from multiple seeds.

    Uniqueness is probed, not proved: the report says whether every
    converged run landed on the same pair and exhibits a bridging pair
    comparable to each pair of limits, the hypothesis a uniqueness
    argument needs. Agreement uses the threshold 2 * tol: each run only
    guarantees its result within tol of the true limit, so two runs on the
    same limit can sit up to 2 * tol apart.
    """

    runs: list[SeedRun]
    max_pairwise_distance: float | None
    all_agree: bool
    bridges: list[BridgeCheck]
    tol: float


def _rows_comparable(z1, z2, p1, p2) -> np.ndarray:
    """`comparable` of the pairs (z1[k], z2[k]) and (p1[k], p2[k]), per row."""
    below = rows_leq(z1, p1) & rows_leq(p2, z2)
    above = rows_leq(p1, z1) & rows_leq(z2, p2)
    return below | above


def uniqueness_probe(
    space: SpaceDescriptor,
    F: CoupledMap,
    seeds: Sequence[Pair],
    config: IterationConfig | None = None,
) -> UniquenessReport:
    """Iterate from every seed and compare the limits pairwise.

    Seeds violating the seed condition are still run (and flagged in their
    SolveResult); a diverging run is recorded per-seed without aborting the
    probe. For every pair of converged limits a bridge element is produced
    and checked for comparability with both.

    All seeds iterate together in the loop `iterate` runs on one seed, so
    each seed's result equals that of `iterate` run from it alone, float for
    float. A stacked call that fails is redone seed by seed, so a diverging
    seed records the message its solo run would raise and the other seeds
    go on.
    """
    if not seeds:
        raise InputError("at least one seed is required")
    config = config or IterationConfig()
    tol = config.tol
    results, errors = _run(space, F, [(s.first, s.second) for s in seeds], config)
    runs = [
        SeedRun(seed, result, None if error is None else str(error))
        for seed, result, error in zip(seeds, results, errors)
    ]

    limits = [k for k, r in enumerate(results) if r is not None and r.converged]
    X = np.array([results[k].fixed_pair.first for k in limits]).reshape(-1, F.dim)
    Y = np.array([results[k].fixed_pair.second for k in limits]).reshape(-1, F.dim)
    a, b = np.triu_indices(len(limits), k=1)
    dist = np.maximum(row_distances(space, X[a], X[b]), row_distances(space, Y[a], Y[b]))
    max_dist = float(dist.max()) if dist.size else None
    z1, z2 = np.maximum(X[a], X[b]), np.minimum(Y[a], Y[b])
    both = _rows_comparable(z1, z2, X[a], Y[a]) & _rows_comparable(z1, z2, X[b], Y[b])
    bridges = [
        BridgeCheck(limits[i], limits[j], Pair(p, q), bool(ok))
        for i, j, p, q, ok in zip(a, b, z1, z2, both)
    ]
    agree = len(limits) == len(runs) and (max_dist is None or max_dist <= 2.0 * tol)
    return UniquenessReport(
        runs=runs,
        max_pairwise_distance=max_dist,
        all_agree=agree,
        bridges=bridges,
        tol=tol,
    )
