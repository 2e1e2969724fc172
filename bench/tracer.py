"""Spans around the calls into each coupledfp module, installed from outside.

`Tracer.install()` replaces every public function of the package's modules
(in every module namespace that holds it), `CoupledMap.evaluate`, each map's
evaluator, each parsed expression's `eval` and the bisection's feasibility
test with wrappers that record one span per call. `uninstall()` puts the
originals back. Each span is one row

    (id, parent id, name id, operation id, start ns, end ns, v0, v1, v2)

in a per-thread buffer kept in memory. v0..v2 hold counts taken at the same
boundary: iterations for `iterate`, the sample count for
`sample_comparable_pairs`, and items, workers and summed item time for
`pmap`. Spans opened on pool threads take the enclosing `pmap` span as their
parent. Self time is a span's duration minus the union of its children.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from array import array

import numpy as np

import coupledfp
from coupledfp import certificate, cli, expressions, iteration, maps, parallel, problems, spaces

MODULES = (spaces, maps, certificate, iteration, expressions, problems, parallel)
ROOT = -1
FIELDS = ("id", "parent", "name", "op", "start", "end", "v0", "v1", "v2")


def public_functions(module) -> dict[str, object]:
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[array] = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _state(self, parent: int = ROOT):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [parent]
            local.buf = array("q")
            self.buffers.append(local.buf)
        return local

    def span(self, name: str, fn, values=None):
        """`fn` wrapped to record a span; `values(result)` gives v0, v1, v2."""
        nid = self._name_id(name)
        ids, clock, tracer = self._ids, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                local.buf.extend((sid, parent, nid, tracer.op, t0, t1, 0, 0, 0))
                raise
            t1 = clock()
            stack.pop()
            v = values(result) if values else (0, 0, 0)
            local.buf.extend((sid, parent, nid, tracer.op, t0, t1, *v))
            return result

        traced.__wrapped__ = fn
        return traced

    def _pmap(self, original):
        """pmap whose items run with the pmap span as their parent, on any thread."""
        nid = self._name_id("parallel.pmap")
        ids, clock, tracer = self._ids, time.perf_counter_ns, self
        worker_cap = parallel.worker_cap  # the original, so that it records no span

        def traced_pmap(fn, items):
            local = tracer._state()
            sid = next(ids)
            parent = local.stack[-1]
            caller = threading.get_ident()
            item_ns: list[int] = []

            def item(x):
                if threading.get_ident() != caller:
                    worker = tracer._state(sid)
                    worker.stack[:] = [sid]
                s = clock()
                try:
                    return fn(x)
                finally:
                    item_ns.append(clock() - s)

            items = list(items)
            local.stack.append(sid)
            t0 = clock()
            try:
                result = original(item, items)
            finally:
                t1 = clock()
                local.stack.pop()
            cap = worker_cap()
            workers = 1 if cap == 1 or len(items) <= 1 else min(cap, len(items))
            local.buf.extend((sid, parent, nid, tracer.op, t0, t1, len(items), workers, sum(item_ns)))
            return result

        return traced_pmap

    # -- installing ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers = {}
        for module in MODULES:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in public_functions(module).items():
                wrappers[fn] = self.span(f"{short}.{name}", fn, _VALUES.get(name))
        wrappers[parallel.pmap] = self._pmap(parallel.pmap)
        wrappers[cli.main] = self.span("cli.main", cli.main)
        alpha_interval = certificate._alpha_interval
        wrappers[alpha_interval] = self.span("certificate._alpha_interval", alpha_interval)
        parse = wrappers[expressions.parse_expression]
        wrappers[expressions.parse_expression] = self._parse_hook(parse)
        for module in (*MODULES, cli, coupledfp):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replace(module, attr, wrappers[value])
        self._replace(maps.CoupledMap, "evaluate", self.span("maps.evaluate", maps.CoupledMap.evaluate))
        self._replace(maps.CoupledMap, "__post_init__", self._map_hook(maps.CoupledMap.__post_init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _parse_hook(self, parse):
        def parse_expression(text, dim):
            expr = parse(text, dim)
            object.__setattr__(expr, "eval", self.span("expressions.eval", expr.eval))
            return expr

        return parse_expression

    def _map_hook(self, post_init):
        def __post_init__(cmap):
            post_init(cmap)
            object.__setattr__(cmap, "evaluator", self.span("maps.evaluator", cmap.evaluator))

        return __post_init__

    # -- reading -------------------------------------------------------------

    def take(self) -> np.ndarray:
        """The spans recorded since the last take, as an (n, 9) int64 array sorted by id."""
        parts = [np.frombuffer(buf, dtype=np.int64).copy() for buf in self.buffers]
        for buf in self.buffers:
            del buf[:]
        rows = np.concatenate(parts).reshape(-1, len(FIELDS))
        return rows[np.argsort(rows[:, 0], kind="stable")]


_VALUES = {
    "iterate": lambda result: (result[0].iterations_used, 0, 0),
    "sample_comparable_pairs": lambda result: (len(result), 0, 0),
}


class SpanTable:
    """Spans with parent indices and self times, for per-layer sums."""

    def __init__(self, rows: np.ndarray, names: list[str]):
        self.rows = rows
        self.names = names
        ids, parent = rows[:, 0], rows[:, 1]
        start, end = rows[:, 4], rows[:, 5]
        self.duration = end - start
        pos = np.searchsorted(ids, parent)
        pos = np.minimum(pos, max(len(ids) - 1, 0))
        has_parent = (parent != ROOT) & (len(ids) > 0) & (ids[pos] == parent)
        self.parent_index = np.where(has_parent, pos, -1)
        self.self_ns = self.duration - self._covered(start, end)

    def _covered(self, start, end) -> np.ndarray:
        """Per span, the length of the union of its children's intervals."""
        covered = np.zeros(len(start), dtype=np.int64)
        child = np.flatnonzero(self.parent_index >= 0)
        if child.size == 0:
            return covered
        par = self.parent_index[child]
        order = np.lexsort((start[child], par))
        child, par = child[order], par[order]
        t0 = start.min()
        width = int(end.max() - t0) + 1
        group = np.cumsum(np.r_[1, par[1:] != par[:-1]]) - 1
        s = start[child] - t0 + group * width
        e = end[child] - t0 + group * width
        reach = np.maximum.accumulate(e)
        prev = np.r_[np.int64(-1), reach[:-1]]
        gain = np.maximum(0, e - np.maximum(s, prev))
        np.add.at(covered, par, gain)
        return covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.rows), dtype=bool)
        return self.rows[:, 2] == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        """Spans that have an ancestor called `name`."""
        hit = self.mask(name)
        valid = self.parent_index >= 0
        parent = np.where(valid, self.parent_index, 0)
        inside = np.zeros(len(self.rows), dtype=bool)
        while True:  # one pass per level of nesting
            grown = valid & (hit[parent] | inside[parent])
            if np.array_equal(grown, inside):
                return inside
            inside = grown
