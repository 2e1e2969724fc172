"""Concrete ordered metric spaces: R^d with a norm metric and the
coordinatewise partial order, plus the reversed-second-component order on
pairs.

Points are plain 1-D float arrays (scalars are promoted to 1-vectors).
All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputError

METRICS = ("euclidean", "max", "l1")


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Validate and normalize a point to a finite 1-D float array.

    Scalars become 1-vectors. Raises :class:`InputError` on coordinates
    that are not numbers or not finite and :class:`DimensionMismatchError`
    when ``dim`` is given and does not match.
    """
    try:
        arr = np.atleast_1d(np.asarray(coords, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InputError(f"a point needs numeric coordinates, got {coords!r}") from exc
    if arr.ndim != 1:
        raise InputError(f"a point must be a flat sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError("a point needs at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"point has non-finite coordinates: {arr!r}")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.size}")
    return arr


def _positive_int(value, message: str, minimum: int = 1) -> int:
    """``value`` if it is an int >= ``minimum`` and not a bool, else
    InputError with ``message.format(value)``: the one rule for dimensions
    and counts."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InputError(message.format(value))
    return value


def _positive_dim(dim) -> int:
    """``dim`` if it is a positive int, else InputError: the rule for every dimension."""
    return _positive_int(dim, "dim must be a positive integer, got {!r}")


@dataclass(frozen=True, eq=False)
class Pair:
    """An element of the product space: two points of equal dimension."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "first", as_point(self.first))
        object.__setattr__(self, "second", as_point(self.second, dim=self.first.size))

    @property
    def dim(self) -> int:
        return self.first.size

    def __repr__(self):
        return f"Pair({self.first.tolist()}, {self.second.tolist()})"


@dataclass(frozen=True)
class SpaceDescriptor:
    """The ambient space (X, d, <=): dimension and metric.

    The order is the coordinatewise one, p <= q iff p_i <= q_i for all i, a
    genuine partial order on which the solver's correctness arguments rest.
    """

    dim: int
    metric: str = "euclidean"

    def __post_init__(self):
        _positive_dim(self.dim)
        if self.metric not in METRICS:
            raise InputError(f"unknown metric {self.metric!r}; choose from {METRICS}")


def _check_dims(space: SpaceDescriptor, *points: np.ndarray) -> None:
    for p in points:
        if p.size != space.dim:
            raise DimensionMismatchError(
                f"point of dimension {p.size} in a space of dimension {space.dim}"
            )


def distance(space: SpaceDescriptor, p, q) -> float:
    """Metric distance between two points: the one-row call of `row_distances`."""
    p = as_point(p)
    q = as_point(q)
    _check_dims(space, p, q)
    return float(row_distances(space, p[None], q[None])[0])


def row_distances(space: SpaceDescriptor, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Distances between matching rows of two (n, dim) stacks.

    Each entry is the chosen norm of its row of P - Q, equal bit for bit to
    `np.linalg.norm` of that row: the euclidean norm takes one dot product
    per row, as `np.linalg.norm` does for a single vector, where
    `norm(..., axis=1)` would round differently.
    """
    D = P - Q
    if space.metric == "euclidean":
        return np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
    if space.metric == "max":
        return np.abs(D).max(axis=1)
    return np.abs(D).sum(axis=1)


def leq(space: SpaceDescriptor, p, q) -> bool:
    """Coordinatewise order p <= q: the one-row call of `rows_leq`."""
    p = as_point(p)
    q = as_point(q)
    _check_dims(space, p, q)
    return bool(rows_leq(p[None], q[None])[0])


def rows_leq(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Coordinatewise order of each row of P with the matching row of Q.

    Row k is True iff P[k, i] <= Q[k, i] for all i.
    """
    return np.all(P <= Q, axis=1)


def rows_product_leq(U: np.ndarray, V: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pair order of each row pair (U[k], V[k]) against (X[k], Y[k]).

    The order on pairs reverses the second component: (u, v) <= (x, y)
    holds iff u <= x and y <= v, so a pair grows when its first component
    rises and its second component falls. Either side may be one pair of
    1-D points, compared against every row of the other.
    """
    return rows_leq(U, X) & rows_leq(Y, V)


def product_leq(space: SpaceDescriptor, a: Pair, b: Pair) -> bool:
    """Pair order a <= b: the one-row call of `rows_product_leq`."""
    _check_dims(space, a.first, b.first)
    return bool(rows_product_leq(a.first[None], a.second[None], b.first, b.second)[0])


def comparable(space: SpaceDescriptor, a: Pair, b: Pair) -> bool:
    """True when the two pairs are ordered in either direction."""
    return product_leq(space, a, b) or product_leq(space, b, a)


def find_bridge(space: SpaceDescriptor, a: Pair, b: Pair) -> Pair:
    """A pair that dominates both inputs in the pair order.

    Takes the coordinatewise max of the first components and min of the
    second, so the result is >= both inputs and hence comparable to both.
    In a coordinatewise-ordered R^d such an element always exists, which is
    what makes the uniqueness hypothesis checkable here. Max and min are
    exact and associative, so folding this over any number of pairs gives
    one pair that dominates them all: `uniqueness_probe`'s joint bridge is
    that fold over the converged limits.
    """
    _check_dims(space, a.first, b.first, b.second)
    return Pair(np.maximum(a.first, b.first), np.minimum(a.second, b.second))
