"""Workloads of the benchmark and the checks made on every output.

Each problem carries its own numpy copy of the map's formula, written here
apart from the program, so that the checks never trust the code they
check. The margin of the rational contraction inequality is recomputed
from the paper's formula:

    alpha * min(dx*(2+du+dv), du*(2+dx+dy)) / (2 + d(x,u) + d(y,v))
      + (beta/2) * (d(x,u) + d(y,v)) - d(F(x,y), F(u,v))

with dx = d(x, F(x,y)), dy = d(y, F(y,x)), du = d(u, F(u,v)),
dv = d(v, F(v,u)).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import make_expr_4d

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")

# Target accuracy of solve and probe-uniqueness.
TOL = 1e-10
MAX_ITER = 200
# Resolution of the program's ratio bisection (certificate.RATIO_TOL).
RATIO_TOL = 1e-6
# Float slack on recomputed margins and on analytic bounds.
FLOAT_SLACK = 1e-9
# The estimate-then-certify round trip does not depend on --seed: it is the
# one operation allowed to fail, and must fail the same way in every run.
ROUNDTRIP_RNG_SEED = 0

_NORM = {"euclidean": 2, "max": np.inf, "l1": 1}


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def _integral_map(n: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    t = np.arange(n) / n
    kernel = np.exp(-np.abs(t[:, None] - t[None, :]))

    def F(x, y):
        sx = x / (1.0 + np.abs(x))
        sy = y / (1.0 + np.abs(y))
        return 0.25 + (kernel @ (sx - sy)) / (4.0 * n)

    return F


@dataclass
class Problem:
    """One problem of a workload, with the benchmark's own view of it."""

    label: str
    argv: list[str]  # --problem NAME or --config PATH
    metric: str
    dim: int
    F: Callable[[np.ndarray, np.ndarray], np.ndarray]
    seed_x0: np.ndarray
    seed_y0: np.ndarray
    params: tuple[float, float]  # (alpha, beta) that satisfy the hypothesis analytically
    ratio_bound: float  # analytic upper bound on the minimal ratio
    fixed_value: float | None  # analytic fixed pair, the same in every coordinate

    def dist(self, p, q) -> float:
        return float(np.linalg.norm(np.asarray(p) - np.asarray(q), ord=_NORM[self.metric]))


@dataclass
class Workload:
    name: str
    problems: list[Problem]
    samples: int  # --samples of certify and estimate
    monotone_samples: int
    probe_seeds: int
    solves: int  # solves per problem per round
    roundtrip_samples: int


def _linear() -> Problem:
    return Problem(
        "linear_demo", ["--problem", "linear_demo"], "euclidean", 1,
        lambda x, y: (x - y) / 4.0,
        np.array([-1.0]), np.array([1.0]), (0.1, 0.5), 0.5, 0.0,
    )


def _affine() -> Problem:
    return Problem(
        "affine_demo", ["--problem", "affine_demo"], "euclidean", 1,
        lambda x, y: x / 3.0 - y / 4.0 + 1.0,
        np.array([0.0]), np.array([3.0]), (0.1, 2.0 / 3.0), 2.0 / 3.0, 12.0 / 11.0,
    )


def _integral(n: int, path: str) -> Problem:
    return Problem(
        f"integral_demo_{n}", ["--config", path], "max", n, _integral_map(n),
        np.zeros(n), np.ones(n), (0.05, 0.5), 0.5, 0.25,
    )


def _expr_4d(path: str) -> Problem:
    cfg = make_expr_4d.CONFIG
    return Problem(
        "expr_4d", ["--config", path], cfg["metric"], cfg["dim"],
        lambda x, y: make_expr_4d.F(x, y)[0],
        np.array(cfg["seed"]["x0"], float), np.array(cfg["seed"]["y0"], float),
        (cfg["params"]["alpha"], cfg["params"]["beta"]),
        2.0 * make_expr_4d.LIPSCHITZ, None,
    )


def build(name: str, short: bool = False) -> Workload:
    """The named workload; `short` shrinks every size for a quick self-test."""
    # Sizes keep every operation above ~30 ms and a round within ~3 s, so that
    # a 40 s run holds at least ten rounds to take medians over.
    if name == "scalar_1d":
        w = Workload(name, [_linear(), _affine()], samples=300, monotone_samples=800,
                     probe_seeds=8, solves=6, roundtrip_samples=200)
    elif name == "integral_1024":
        path = os.path.join(CONFIGS, "integral_1024.json")
        w = Workload(name, [_integral(1024, path)], samples=200, monotone_samples=100,
                     probe_seeds=4, solves=4, roundtrip_samples=50)
    elif name == "expr_4d":
        path = os.path.join(CONFIGS, "expr_4d.json")
        w = Workload(name, [_expr_4d(path)], samples=400, monotone_samples=500,
                     probe_seeds=8, solves=8, roundtrip_samples=100)
    else:
        raise KeyError(name)
    if short:
        w.samples, w.monotone_samples, w.roundtrip_samples = 20, 20, 20
        w.probe_seeds, w.solves = 2, 1
    return w


NAMES = ("scalar_1d", "integral_1024", "expr_4d")


# --- checks ---------------------------------------------------------------


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _margin(p: Problem, alpha: float, beta: float, x, y, u, v) -> dict:
    F, d = p.F, p.dist
    dx, dy = d(x, F(x, y)), d(y, F(y, x))
    du, dv = d(u, F(u, v)), d(v, F(v, u))
    span = d(x, u) + d(y, v)
    q = min(dx * (2.0 + du + dv), du * (2.0 + dx + dy)) / (2.0 + span)
    image = d(F(x, y), F(u, v))
    return {
        "margin": alpha * q + 0.5 * beta * span - image,
        "rational_term": q,
        "distance_sum": span,
        "image_distance": image,
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_SLACK * (1.0 + abs(b))


def check_solve(p: Problem, code: int, out: str) -> None:
    doc = json.loads(out)
    _require(code == 0 and doc["converged"], f"{p.label}: solve did not converge")
    x, y = np.array(doc["fixed_x"]), np.array(doc["fixed_y"])
    _require(x.shape == (p.dim,) and y.shape == (p.dim,), f"{p.label}: fixed pair shape")
    if p.fixed_value is not None:
        star = np.full(p.dim, p.fixed_value)
        err = max(p.dist(x, star), p.dist(y, star))
        _require(err <= TOL, f"{p.label}: fixed pair is {err:.3g} from the analytic pair")
    else:
        res = max(p.dist(p.F(x, y), x), p.dist(p.F(y, x), y))
        _require(res <= TOL, f"{p.label}: residual {res:.3g} of the reported pair > tol")


def check_certify(p: Problem, code: int, out: str, samples: int, params) -> dict:
    """Checks a certify report and returns it; a nonzero exit is left to the caller."""
    doc = json.loads(out)
    alpha, beta = params
    _require(doc["params"] == {"alpha": alpha, "beta": beta}, f"{p.label}: params echoed wrong")
    _require(doc["sample_count"] > samples, f"{p.label}: fewer samples than asked")
    _require((code == 2) == (doc["violations"] > 0), f"{p.label}: exit code {code} vs violations")
    _require(code in (0, 2), f"{p.label}: certify exit code {code}")
    worst = doc["min_margin_pair"]
    x, y = np.array(worst["a_first"]), np.array(worst["a_second"])
    u, v = np.array(worst["b_first"]), np.array(worst["b_second"])
    _require(bool(np.all(u <= x) and np.all(y <= v)), f"{p.label}: worst pair is not b <= a")
    ref = _margin(p, alpha, beta, x, y, u, v)
    _require(_close(ref["margin"], doc["worst_margin"]),
             f"{p.label}: worst margin {doc['worst_margin']!r}, recomputed {ref['margin']!r}")
    for key in ("rational_term", "distance_sum", "image_distance"):
        _require(_close(ref[key], worst[key]), f"{p.label}: {key} of the worst pair")
    _require((doc["worst_margin"] < 0) == (doc["violations"] > 0),
             f"{p.label}: worst margin sign vs violations")
    return doc


def check_certify_holds(p: Problem, code: int, out: str, samples: int) -> None:
    doc = check_certify(p, code, out, samples, p.params)
    _require(code == 0 and doc["violations"] == 0,
             f"{p.label}: {doc['violations']} violations with params that hold analytically")


def check_estimate(p: Problem, code: int, out: str, samples: int) -> dict:
    doc = json.loads(out)
    _require(code == 0 and doc["feasible"], f"{p.label}: estimate infeasible")
    _require(doc["sample_count"] == samples, f"{p.label}: estimate sample count")
    alpha, beta, ratio = doc["alpha"], doc["beta"], doc["ratio"]
    _require(alpha >= 0 and beta > 0 and alpha + beta < 1, f"{p.label}: witness not admissible")
    _require(0 < ratio <= p.ratio_bound + RATIO_TOL + FLOAT_SLACK,
             f"{p.label}: ratio {ratio!r} outside (0, {p.ratio_bound!r} + RATIO_TOL]")
    _require(_close(beta / (1.0 - alpha), ratio), f"{p.label}: ratio != beta / (1 - alpha)")
    return doc


def check_monotone(p: Problem, code: int, out: str, samples: int) -> None:
    doc = json.loads(out)
    _require(doc["sample_count"] == samples, f"{p.label}: monotone sample count")
    _require(code == 0 and doc["violations"] == 0 and not doc["falsified"],
             f"{p.label}: {doc['violations']} monotonicity violations")


def check_probe(p: Problem, code: int, out: str, seeds: int) -> None:
    """Every seed converges and the limits agree within 2 * tol.

    The report does not print the limits. Its first seed is the problem's
    own seed, which `solve` runs with the same settings and `check_solve`
    checks, so agreement puts every limit within 3 * tol of a checked pair.
    """
    doc = json.loads(out)
    runs = doc["runs"]
    _require(doc["seeds"] == seeds and len(runs) == seeds, f"{p.label}: probe seed count")
    _require(all(r["converged"] and r["error"] is None for r in runs),
             f"{p.label}: a probe seed did not converge")
    _require(runs[0]["seed_x0"] == p.seed_x0.tolist() and runs[0]["seed_y0"] == p.seed_y0.tolist(),
             f"{p.label}: first probe seed is not the problem seed")
    _require(code == 0 and doc["all_agree"], f"{p.label}: probe limits disagree")
    far = doc["max_pairwise_distance"]
    _require(seeds < 2 or far <= 2 * TOL, f"{p.label}: limits {far!r} apart")
