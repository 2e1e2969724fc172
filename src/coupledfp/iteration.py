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
run equals `iterate` from its seed alone, float for float. Iterates are
checked against the map's padded box (`CoupledMap`), so they may drift past
the strict domain box before divergence is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .errors import DimensionMismatchError, DivergenceError, DomainError, InputError
from .maps import ContractionParams, CoupledMap
from .spaces import (
    Pair,
    SpaceDescriptor,
    _check_dims,
    _positive_int,
    as_point,
    leq,
    row_distances,
    rows_leq,
    rows_product_leq,
)


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
        _positive_int(self.max_iter, "max_iter must be a positive integer, got {!r}")
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
) -> tuple[bool, float]:
    """Residual max(d(F(x,y), x), d(F(y,x), y)) and whether it is <= tol.

    One `evaluate_rows([x; y], [y; x])` call and one `row_distances` call,
    the computation of `_run`'s final check.
    """
    _check_dims(space, F.lower)
    xyx = np.stack((pair.first, pair.second, pair.first))
    img = F.evaluate_rows(xyx[:2], xyx[1:])
    residual = float(row_distances(space, img, xyx[:2]).max())
    return residual <= tol, residual


def _step_images(F: CoupledMap, live: np.ndarray, xyx: np.ndarray, errors: list, what: str):
    """F(x, y) over F(y, x) in the padded box, for the seeds ``live``.

    ``xyx`` is the (3m, dim) stack [x; y; x] of their rows, so that
    cur = [x; y] and swapped = [y; x] are its first and last 2m rows and
    one call evaluates both images of every seed. If that call raises
    DomainError, each seed is redone as its own two-row call: a seed whose
    call fails gets a DivergenceError saying that its ``what`` escaped the
    padded box, chained from the DomainError, and is dropped. Returns the
    seeds kept, their stack and its (2m, dim) images. These may be the
    evaluator's own output buffer, which its next call can overwrite.
    """
    m = len(live)
    try:
        return live, xyx, F.evaluate_rows(xyx[: 2 * m], xyx[m:], padded=True)
    except DomainError:
        pass
    img = np.empty((2, m, F.dim))
    kept = np.ones(m, dtype=bool)
    for k in range(m):
        try:
            img[:, k] = F.evaluate_rows(xyx[[k, m + k]], xyx[[m + k, k]], padded=True)
        except DomainError as exc:
            error = DivergenceError(f"{what} escaped the padded domain box: {exc}")
            error.__cause__ = exc
            errors[live[k]] = error
            kept[k] = False
    return live[kept], xyx[np.concatenate((kept, kept, kept))], img[:, kept].reshape(-1, F.dim)


def _run(
    space: SpaceDescriptor,
    F: CoupledMap,
    X: np.ndarray,
    Y: np.ndarray,
    config: IterationConfig,
    trace: IterationTrace | None = None,
) -> tuple[list[SolveResult | None], list[DivergenceError | None]]:
    """The coupled iteration from every seed (X[k], Y[k]), as one stack.

    X and Y are (S, dim) stacks of finite seed rows, owned by the run: it
    writes each seed's last iterate over its rows. The m seeds still
    running form the stack cur = [x; y] of 2m rows, and each step is one
    `evaluate_rows(cur, [y; x])` call, whose images [F(x, y); F(y, x)] are
    the next stack, and one `row_distances` call for both gaps. Each seed
    stops on its own stopping rule; only at a step where some seed stops,
    or at ``max_iter``, are the stopped seeds' last iterates, step counts
    and stop flags written out and their rows dropped from the stack.
    Returns one SolveResult or None per seed and, for a seed that diverged,
    the DivergenceError its run raised.

    The seed check is one such call on the strict box, and its images are
    also step 0's, since the strict box lies inside the padded one. A seed
    check that raises is redone seed by seed with `check_seed_condition`,
    whose DomainError for a seed outside the box propagates, and step 0 is
    then evaluated as any other step. ``trace`` records the steps of a
    one-seed run, each with its bound ratio**n * D0 when params are set.
    """
    _check_dims(space, F.lower)
    tol = config.tol
    ratio = config.params.ratio if config.params is not None else None
    S = len(X)
    errors: list[DivergenceError | None] = [None] * S
    iterations = np.zeros(S, dtype=int)
    stopped = np.zeros(S, dtype=bool)
    live = np.arange(S)
    xyx = np.concatenate((X, Y, X))
    try:
        img = F.evaluate_rows(xyx[: 2 * S], xyx[S:])
    except DomainError:
        seed_ok = [check_seed_condition(space, F, x, y) for x, y in zip(X, Y)]
        live, xyx, img = _step_images(F, live, xyx, errors, "iteration")
    else:
        seed_ok = rows_product_leq(X, Y, img[:S], img[S:])

    for n in range(config.max_iter):
        if n:
            live, xyx, img = _step_images(F, live, xyx, errors, "iteration")
        m = len(live)
        gaps = row_distances(space, img, xyx[: 2 * m])
        if trace is not None and m:
            gap_x, gap_y = float(gaps[0]), float(gaps[m])
            if not n:
                d0 = 0.5 * (gap_x + gap_y)  # the D0 of `IterationTrace.initial_mean_gap`
            bound = None if ratio is None else ratio**n * d0
            trace.entries.append(TraceEntry(n, xyx[0], xyx[m], gap_x, gap_y, bound))
        worst_gap = np.maximum(gaps[:m], gaps[m:])
        # The stopping rule of IterationConfig.
        tail = worst_gap if ratio is None else worst_gap * ratio / (1.0 - ratio)
        done = tail <= tol
        last = n + 1 == config.max_iter
        if last or done.any():
            halt = done | last
            k = live[halt]
            X[k], Y[k] = img[:m][halt], img[m:][halt]
            iterations[k] = n + 1
            stopped[k] = done[halt]
            live, img = live[~halt], img[np.concatenate((~halt, ~halt))]
            m = len(live)
        if not m:
            break
        # A new array, never written in place: the trace keeps views of it,
        # and the evaluator may reuse its output buffer on the next call.
        xyx = np.concatenate((img, img[:m]))

    ran = np.flatnonzero([e is None for e in errors])
    xyx = np.concatenate((X[ran], Y[ran], X[ran]))
    ran, xyx, img = _step_images(F, ran, xyx, errors, "final iterate")
    m = len(ran)
    x, y = xyx[:m], xyx[m : 2 * m]
    gaps = row_distances(space, img, xyx[: 2 * m])
    residual = np.maximum(gaps[:m], gaps[m:])
    components_equal = row_distances(space, x, y) <= 2.0 * tol
    results: list[SolveResult | None] = [None] * S
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
    `uniqueness_probe` runs on all its seeds at once. With params, each
    trace entry gets its `apriori_gap_bound` when the step is recorded.
    """
    config = config or IterationConfig()
    X = np.array([as_point(x0, dim=F.dim)])
    Y = np.array([as_point(y0, dim=F.dim)])
    trace = IterationTrace()
    (result,), (error,) = _run(space, F, X, Y, config, trace)
    if error is not None:
        raise error
    if config.params is not None:
        _check_mean_gap(trace.initial_mean_gap())
    return result, trace


def _check_mean_gap(initial_mean_gap: float) -> None:
    if not math.isfinite(initial_mean_gap):
        raise InputError(f"initial_mean_gap must be finite, got {initial_mean_gap}")
    if initial_mean_gap < 0:
        raise InputError("initial_mean_gap must be >= 0")


def apriori_gap_bound(params: ContractionParams, initial_mean_gap: float, step: int) -> float:
    """Geometric bound ratio**step * D0 on the gap at the given step.

    D0 is the mean of the two first-step gaps; the claim covers steps >= 1
    (at step 0 an individual gap can exceed the mean of the two).
    """
    _check_mean_gap(initial_mean_gap)
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
    _check_mean_gap(initial_mean_gap)
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
    """Check ascent of x_n, descent of y_n, and comparison with the limit.

    Each check is one `rows_leq` call over the stacked trace. The first
    violation is one at the least step; within a step, the monotone checks
    come before the limit checks and x before y.
    """
    entries = trace.entries
    if not entries:
        raise InputError("empty trace")
    X = np.array([e.x for e in entries])
    Y = np.array([e.y for e in entries])
    _check_dims(space, X[0], Y[0], limit.first)
    X_next = np.concatenate((X[1:], limit.first[None]))
    Y_next = np.concatenate((Y[1:], limit.second[None]))
    # failed[g, k, i]: check k of group g (monotone, then limit) fails at entry i
    failed = ~np.array([
        [rows_leq(X, X_next), rows_leq(Y_next, Y)],
        [rows_leq(X, limit.first), rows_leq(limit.second, Y)],
    ])
    # np.nonzero walks (g, i, k) in the order the report ranks a step's failures
    g, i, k = np.nonzero(failed.transpose(0, 2, 1))
    first = None
    if len(i):
        steps = np.array([e.n for e in entries])[i]
        j = int(np.argmin(steps))
        kinds = ("x-monotone", "y-monotone", "x-limit", "y-limit")
        first = ChainViolation(int(steps[j]), kinds[2 * g[j] + k[j]])
    return ChainReport(
        entries_checked=len(entries),
        monotone_ok=not failed[0].any(),
        limit_ok=not failed[1].any(),
        first_violation=first,
    )


@dataclass(frozen=True)
class SeedRun:
    """Outcome of one probe run: its seed, result, or divergence message."""

    seed: Pair
    result: SolveResult | None
    error: str | None


@dataclass(frozen=True)
class UniquenessReport:
    """Empirical uniqueness evidence from multiple seeds.

    Uniqueness is probed, not proved: the report says whether every
    converged run landed on the same pair, and gives one joint bridge, a
    pair comparable to every converged limit, the hypothesis a uniqueness
    argument needs. ``bridge`` is the coordinatewise max of the limits'
    first components and min of their second components, the fold of
    `spaces.find_bridge` over the limits; it is None when no run
    converged, and ``bridge_comparable`` then holds vacuously. Agreement
    uses the threshold 2 * tol: each run only guarantees its result within
    tol of the true limit, so two runs on the same limit can sit up to
    2 * tol apart.
    """

    runs: list[SeedRun]
    max_pairwise_distance: float | None
    all_agree: bool
    bridge: Pair | None
    bridge_comparable: bool
    tol: float


def uniqueness_probe(
    space: SpaceDescriptor,
    F: CoupledMap,
    seeds: Sequence[Pair],
    config: IterationConfig | None = None,
) -> UniquenessReport:
    """Iterate from every seed and compare the limits pairwise.

    Seeds violating the seed condition are still run (and flagged in their
    SolveResult); a diverging run is recorded per-seed without aborting the
    probe. ``max_pairwise_distance`` is the largest max(d(x_a, x_b),
    d(y_a, y_b)) over pairs of converged limits, each limit taken against
    the later ones in one `row_distances` call. One joint bridge, which
    dominates every converged limit in the pair order, is checked against
    all of them at once, so the probe's work past the iteration grows
    linearly in the seeds.

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
    for seed in seeds:
        if seed.dim != F.dim:
            raise DimensionMismatchError(f"expected dimension {F.dim}, got {seed.dim}")
    X0 = np.array([s.first for s in seeds])
    Y0 = np.array([s.second for s in seeds])
    results, errors = _run(space, F, X0, Y0, config)
    runs = [
        SeedRun(seed, result, None if error is None else str(error))
        for seed, result, error in zip(seeds, results, errors)
    ]

    limits = [r.fixed_pair for r in results if r is not None and r.converged]
    X = np.array([p.first for p in limits]).reshape(-1, F.dim)
    Y = np.array([p.second for p in limits]).reshape(-1, F.dim)
    # Each limit against the later ones, so memory stays O(S).
    pair_max = [
        np.maximum(
            row_distances(space, X[i : i + 1], X[i + 1 :]),
            row_distances(space, Y[i : i + 1], Y[i + 1 :]),
        ).max()
        for i in range(len(limits) - 1)
    ]
    max_dist = float(max(pair_max)) if pair_max else None
    bridge = Pair(X.max(axis=0), Y.min(axis=0)) if limits else None
    bridge_ok = bridge is None or bool(
        rows_product_leq(X, Y, bridge.first, bridge.second).all()
    )
    agree = len(limits) == len(runs) and (max_dist is None or max_dist <= 2.0 * tol)
    return UniquenessReport(
        runs=runs,
        max_pairwise_distance=max_dist,
        all_agree=agree,
        bridge=bridge,
        bridge_comparable=bridge_ok,
        tol=tol,
    )
