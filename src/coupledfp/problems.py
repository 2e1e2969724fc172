"""Builtin problem catalog and problem construction from JSON-style configs.

The three builtins are desk-scale instances engineered so that every
hypothesis the solver checks (seed condition, mixed monotonicity, the
rational contraction) demonstrably holds:

* ``linear_demo``    F(x, y) = (x - y) / 4 on [-2, 2], fixed pair (0, 0).
* ``affine_demo``    F(x, y) = x/3 - y/4 + 1 on [-4, 4], fixed pair
  (12/11, 12/11).
* ``integral_demo``  a discretized Hammerstein-type operator on N nodes:
  F(x, y)_i = 1/4 + (1/(4N)) * sum_j exp(-|t_i - t_j|) (s(x_j) - s(y_j))
  with s(t) = t / (1 + |t|) and t_i = i/N, in the max metric. s is
  nondecreasing and 1-Lipschitz, which makes the operator mixed monotone
  and contractive with beta = 1/2 by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError
from .expressions import Expression, evaluate_components, parse_expression
from .maps import ContractionParams, CoupledMap
from .spaces import Pair, SpaceDescriptor, _positive_int, as_point


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A ready-to-solve instance: space, map, seed, optional extras."""

    name: str
    space: SpaceDescriptor
    map: CoupledMap
    seed: Pair
    suggested_params: ContractionParams | None = None
    expected_fixed_pair: Pair | None = None

    def __post_init__(self):
        if not (
            self.map.contains(self.seed.first) and self.map.contains(self.seed.second)
        ):
            raise InputError(
                f"seed {self.seed!r} lies outside the domain box of {self.name!r}"
            )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "dim": self.space.dim,
            "metric": self.space.metric,
            "domain_lower": self.map.lower.tolist(),
            "domain_upper": self.map.upper.tolist(),
            "seed_x0": self.seed.first.tolist(),
            "seed_y0": self.seed.second.tolist(),
            "params": None
            if self.suggested_params is None
            else {
                "alpha": self.suggested_params.alpha,
                "beta": self.suggested_params.beta,
            },
            "expected_fixed_pair": None
            if self.expected_fixed_pair is None
            else {
                "x": self.expected_fixed_pair.first.tolist(),
                "y": self.expected_fixed_pair.second.tolist(),
            },
        }


def linear_demo() -> ProblemSpec:
    space = SpaceDescriptor(dim=1, metric="euclidean")
    F = CoupledMap(
        name="linear_demo",
        dim=1,
        evaluator=lambda x, y: (x - y) / 4.0,
        lower=[-2.0],
        upper=[2.0],
    )
    return ProblemSpec(
        name="linear_demo",
        space=space,
        map=F,
        seed=Pair([-1.0], [1.0]),
        suggested_params=ContractionParams(0.1, 0.5),
        expected_fixed_pair=Pair([0.0], [0.0]),
    )


def affine_demo() -> ProblemSpec:
    space = SpaceDescriptor(dim=1, metric="euclidean")
    F = CoupledMap(
        name="affine_demo",
        dim=1,
        evaluator=lambda x, y: x / 3.0 - y / 4.0 + 1.0,
        lower=[-4.0],
        upper=[4.0],
    )
    value = 12 / 11
    return ProblemSpec(
        name="affine_demo",
        space=space,
        map=F,
        seed=Pair([0.0], [3.0]),
        suggested_params=ContractionParams(0.1, 2.0 / 3.0),
        expected_fixed_pair=Pair([value], [value]),
    )


def _kernel_product(kernel: np.ndarray, d: np.ndarray) -> np.ndarray:
    """kernel @ row for each row of the (n, N) stack d, as an (n, N) stack.

    One (1, N) @ (N, N) product per row rounds as kernel @ row does; a
    single d @ kernel.T over the stack (one matrix product) rounds
    differently. Kept apart so that tests can count the rows sent through it.
    """
    return (d[:, None, :] @ kernel.T)[:, 0, :]


def _share_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of the (n, N) stack d, the row whose product it takes.

    Returns (j, flip): row k equals row j[k], negated where flip[k], and
    j[k] == k means row k computes its own product. Rows are grouped by the
    fingerprint sum |d|, each row is matched only against the earliest row
    of its group (which computes its own), and every match is confirmed on
    the whole row, so a fingerprint collision only costs a product. Since
    a - b == -(b - a) and rounding to nearest is symmetric, kernel @ -d is
    -(kernel @ d) up to the sign of zeros, which 0.25 + erases; zeros of
    either sign therefore compare equal here.
    """
    _, first, group = np.unique(np.abs(d).sum(axis=1), return_index=True, return_inverse=True)
    j = first[group]
    match = d[j]
    same = np.all(d == match, axis=1)
    flip = ~same & np.all(d == np.negative(match, out=match), axis=1)
    return np.where(same | flip, j, np.arange(len(d))), flip


def integral_demo(n_nodes: int = 16) -> ProblemSpec:
    _positive_int(n_nodes, "integral_demo needs n_nodes >= 1, got {!r}")
    nodes = np.arange(n_nodes) / n_nodes
    # exp(-|t_i - t_j|), built in one N x N buffer.
    if n_nodes & (n_nodes - 1) == 0:
        # N = 2^k: t_i - t_j = (i - j)/N is exact, so |t_i - t_j| is the
        # double t_|i-j| and the kernel is the Toeplitz matrix of its first
        # row, the same bits from N exps and one copy.
        row = np.exp(-nodes)
        windows = sliding_window_view(np.concatenate((row[:0:-1], row)), n_nodes)
        kernel = windows[::-1].copy()
    else:
        kernel = np.subtract.outer(nodes, nodes)
        np.abs(kernel, out=kernel)
        np.negative(kernel, out=kernel)
        np.exp(kernel, out=kernel)
    scale = 1.0 / (4.0 * n_nodes)

    def squash(v: np.ndarray) -> np.ndarray:
        return v / (1.0 + np.abs(v))

    def evaluator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # A stack holds F(x, y) next to F(y, x), whose d is exactly -d: the
        # product is computed once per distinct row up to sign (see
        # _share_rows) and negated for the other, bit for bit.
        d = squash(x) - squash(y)
        j, flip = _share_rows(d)
        own = j == np.arange(len(d))
        products = _kernel_product(kernel, d[own])
        products *= scale
        # products holds the own rows in order: own row j is number cumsum(own)[j] - 1.
        out = products[(np.cumsum(own) - 1)[j]]
        np.negative(out, out=out, where=flip[:, None])
        out += 0.25
        return out

    space = SpaceDescriptor(dim=n_nodes, metric="max")
    F = CoupledMap(
        name="integral_demo",
        dim=n_nodes,
        evaluator=evaluator,
        lower=np.full(n_nodes, -2.0),
        upper=np.full(n_nodes, 2.0),
    )
    quarter = np.full(n_nodes, 0.25)
    return ProblemSpec(
        name="integral_demo",
        space=space,
        map=F,
        seed=Pair(np.zeros(n_nodes), np.ones(n_nodes)),
        suggested_params=ContractionParams(0.05, 0.5),
        expected_fixed_pair=Pair(quarter, quarter),
    )


BUILTINS: dict[str, Callable[..., ProblemSpec]] = {
    "linear_demo": linear_demo,
    "affine_demo": affine_demo,
    "integral_demo": integral_demo,
}


def get_builtin(name: str, dim: int | None = None) -> ProblemSpec:
    if name not in BUILTINS:
        raise InputError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}"
        )
    if dim is not None:
        if name != "integral_demo":
            raise InputError(f"builtin {name!r} has a fixed dimension")
        return integral_demo(dim)
    return BUILTINS[name]()


_TOP_KEYS = {"builtin", "dim", "metric", "components_F", "domain_box", "seed", "params"}
_BUILTIN_KEYS = {"builtin", "dim", "seed", "params"}
_SEED_KEYS = {"x0", "y0"}
_PARAM_KEYS = {"alpha", "beta"}


def _reject_unknown(doc: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise InputError(f"unknown {where} fields: {sorted(unknown)}")


def _parse_params(doc) -> ContractionParams:
    if not isinstance(doc, Mapping):
        raise InputError("params must be an object with alpha and beta")
    _reject_unknown(doc, _PARAM_KEYS, "params")
    missing = _PARAM_KEYS - set(doc)
    if missing:
        raise InputError(f"params is missing {sorted(missing)}")
    try:
        return ContractionParams(float(doc["alpha"]), float(doc["beta"]))
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"params alpha and beta must be numbers, got {doc['alpha']!r} and {doc['beta']!r}"
        ) from exc


def _parse_seed(doc, dim: int) -> Pair:
    if not isinstance(doc, Mapping):
        raise InputError("seed must be an object with x0 and y0")
    _reject_unknown(doc, _SEED_KEYS, "seed")
    missing = _SEED_KEYS - set(doc)
    if missing:
        raise InputError(f"seed is missing {sorted(missing)}")
    return Pair(as_point(doc["x0"], dim=dim), as_point(doc["y0"], dim=dim))


def _parse_dim(dim) -> int:
    return _positive_int(dim, "dim must be a positive integer, got {!r}")


def _parse_box(doc, dim: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        box = np.asarray(doc, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"domain_box must hold numbers, got {doc!r}") from exc
    if box.shape == (2,):
        lower = np.full(dim, box[0])
        upper = np.full(dim, box[1])
    elif box.shape == (dim, 2):
        lower, upper = box[:, 0].copy(), box[:, 1].copy()
    else:
        raise InputError(
            "domain_box must be [lo, hi] or one [lo, hi] pair per coordinate"
        )
    if np.any(lower > upper):
        raise InputError("domain_box has lower > upper")
    return lower, upper

# Custom maps default to this box per coordinate when none is given.
DEFAULT_BOX = (-10.0, 10.0)


def build_problem(config: Mapping) -> ProblemSpec:
    """Validate a config document and construct the problem it describes.

    Either ``builtin`` names a catalog entry (with optional seed/params
    overrides, and dim for integral_demo), or ``components_F`` +
    ``dim`` + ``seed`` define a custom expression map. Unknown fields are
    rejected outright.
    """
    if not isinstance(config, Mapping):
        raise InputError("problem config must be a JSON object")
    _reject_unknown(config, _TOP_KEYS, "config")

    if "builtin" in config:
        _reject_unknown(config, _BUILTIN_KEYS, "builtin config")
        dim = None if config.get("dim") is None else _parse_dim(config["dim"])
        spec = get_builtin(str(config["builtin"]), dim)
        seed = spec.seed if "seed" not in config else _parse_seed(config["seed"], spec.space.dim)
        params = (
            spec.suggested_params
            if "params" not in config
            else _parse_params(config["params"])
        )
        return replace(spec, seed=seed, suggested_params=params)

    if "components_F" not in config:
        raise InputError("config needs either 'builtin' or 'components_F'")
    if "dim" not in config:
        raise InputError("custom maps need an explicit 'dim'")
    dim = _parse_dim(config["dim"])
    components = config["components_F"]
    if not isinstance(components, (list, tuple)) or len(components) != dim:
        raise InputError(f"components_F must list exactly {dim} expressions")
    exprs: list[Expression] = [parse_expression(str(c), dim) for c in components]

    space = SpaceDescriptor(dim=dim, metric=config.get("metric", "euclidean"))
    lower, upper = _parse_box(config.get("domain_box", DEFAULT_BOX), dim)
    if "seed" not in config:
        raise InputError("custom maps need a 'seed' with x0 and y0")
    seed = _parse_seed(config["seed"], dim)

    def evaluator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return evaluate_components(exprs, x, y)

    name = "custom[" + "; ".join(str(e) for e in exprs) + "]"
    F = CoupledMap(name=name, dim=dim, evaluator=evaluator, lower=lower, upper=upper)
    params = _parse_params(config["params"]) if "params" in config else None
    return ProblemSpec(
        name=name,
        space=space,
        map=F,
        seed=seed,
        suggested_params=params,
    )


def load_problem(path) -> ProblemSpec:
    """Read a JSON config file and build the problem it describes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read problem config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path!r}: {exc}") from exc
    return build_problem(doc)
