"""Two stand-ins kept for the benchmark's tracer.

No library code calls `pmap` or `worker_cap`: sampling and the uniqueness
probe are vectorized. The tracer (`bench/tracer.py`) imports this module and
wraps both by name, so they stay, sequential, until the next change to the
benchmark removes them (ROADMAP item 4).
"""

from __future__ import annotations


def worker_cap() -> int:
    """Always 1: `pmap` runs on the calling thread."""
    return 1


def pmap(fn, items):
    """``[fn(item) for item in items]``."""
    return [fn(item) for item in items]
