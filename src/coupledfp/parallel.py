"""Thread-pool plumbing capped by the COUPLED_FP_THREADS environment variable."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import InputError

T = TypeVar("T")
R = TypeVar("R")

ENV_VAR = "COUPLED_FP_THREADS"


def worker_cap() -> int:
    """Worker count: COUPLED_FP_THREADS if set and not empty, else machine parallelism."""
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError(f"{ENV_VAR} must be >= 1, got {cap}")
    return cap


def pmap(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map preserving order; parallel when allowed and worth it.

    Results are collected in input order, so output is identical to a
    sequential map regardless of scheduling.
    """
    cap = worker_cap()
    if cap == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(cap, len(items))) as pool:
        return list(pool.map(fn, items))
