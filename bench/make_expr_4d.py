#!/usr/bin/env python3
"""The `expr_4d` workload: a 4-D expression map, its config and a numpy twin.

Every coordinate of F is a constant plus terms that are nondecreasing in
one x_j or nonincreasing in one y_j on the box [0, 2]^4, so F is mixed
monotone by construction. Together the terms use all five functions and
`/`. With the l1 metric,

    d(F(x,y), F(u,v)) <= Lx * d(x,u) + Ly * d(y,v)

where Lx (Ly) is the largest column sum over j of sup |dF_i/dx_j|
(|dF_i/dy_j|) on the box. `LIPSCHITZ` is max(Lx, Ly); see the README for
the column sums. Since the rational term is >= 0, params with
beta / 2 >= LIPSCHITZ satisfy the contraction at every ordered pair, and
the minimal ratio beta / (1 - alpha) is at most 2 * LIPSCHITZ (alpha = 0).

Run `python3 bench/make_expr_4d.py` to rewrite bench/configs/expr_4d.json.
"""

from __future__ import annotations

import json
import os

import numpy as np

COMPONENTS = [
    "0.3 + 0.06*ln(1 + x1) + 0.05*sqrt(1 + x2) - 0.04*atan(y3) + 0.03*exp(-y4)",
    "0.25 + 0.05*abs(x2) + 0.04*x3/(2 + y1) + 0.05*exp(-y2)",
    "0.35 + 0.06*atan(x4) + 0.04*sqrt(1 + x1) - 0.05*ln(1 + y3)",
    "0.2 + 0.05*x1/(3 + y2) + 0.05*ln(1 + x4) + 0.04*exp(-y1) - 0.03*atan(y4)",
]

# Column sums of sup |dF_i/dx_j| on [0, 2]^4:
#   x1: 0.06 + 0.04/2 + 0.05/3 = 0.0967   x2: 0.05/2 + 0.05 = 0.075
#   x3: 0.04/2 = 0.02                     x4: 0.06 + 0.05 = 0.11
# and of sup |dF_i/dy_j|:
#   y1: 0.04*2/2**2 + 0.04 = 0.06         y2: 0.05 + 0.05*2/3**2 = 0.0611
#   y3: 0.04 + 0.05 = 0.09                y4: 0.03 + 0.03 = 0.06
LIPSCHITZ = 0.11

BOX = (0.0, 2.0)
PARAMS = {"alpha": 0.1, "beta": 0.5}

CONFIG = {
    "dim": 4,
    "metric": "l1",
    "components_F": COMPONENTS,
    "domain_box": list(BOX),
    "seed": {"x0": [BOX[0]] * 4, "y0": [BOX[1]] * 4},
    "params": PARAMS,
}

CONFIG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs", "expr_4d.json")


def F(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The same map as COMPONENTS, written in numpy over rows of (n, 4) arrays."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    x1, x2, x3, x4 = x.T
    y1, y2, y3, y4 = y.T
    return np.stack(
        [
            0.3 + 0.06 * np.log1p(x1) + 0.05 * np.sqrt(1 + x2) - 0.04 * np.arctan(y3)
            + 0.03 * np.exp(-y4),
            0.25 + 0.05 * np.abs(x2) + 0.04 * x3 / (2 + y1) + 0.05 * np.exp(-y2),
            0.35 + 0.06 * np.arctan(x4) + 0.04 * np.sqrt(1 + x1) - 0.05 * np.log1p(y3),
            0.2 + 0.05 * x1 / (3 + y2) + 0.05 * np.log1p(x4) + 0.04 * np.exp(-y1)
            - 0.03 * np.arctan(y4),
        ],
        axis=-1,
    )


def config_text() -> str:
    return json.dumps(CONFIG, indent=2) + "\n"


if __name__ == "__main__":
    with open(CONFIG_PATH, "w", encoding="utf-8") as fh:
        fh.write(config_text())
    print(f"wrote {CONFIG_PATH}")
