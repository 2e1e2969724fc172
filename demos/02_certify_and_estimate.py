#!/usr/bin/env python3
"""Sampled contraction certificates and parameter estimation.

The contraction inequality

    d(F(x,y), F(u,v)) <= alpha * Q((x,y),(u,v)) + (beta/2) * (d(x,u) + d(y,v))

is quantified over every ordered pair of pairs, so it can be falsified but
never proved by sampling. A certificate reports the worst margin seen; the
estimator goes the other way and finds the smallest ratio beta/(1-alpha)
that survives all samples.
"""

import json

from coupledfp import (
    ContractionParams,
    Pair,
    certify_region,
    estimate_params,
    evaluate_samples,
    explicit_pairs,
    sample_comparable_pairs,
    get_builtin,
)

prob = get_builtin("linear_demo")
space, F = prob.space, prob.map

# --- certify the catalog params (alpha, beta) = (0.1, 0.5) ------------------
good = ContractionParams(0.1, 0.5)
report = certify_region(space, F, good, count=10_000, rng_seed=7)
print(f"(0.1, 0.5): {report.sample_count} samples, {report.violations} violations, "
      f"worst margin {report.worst_margin:.3e}")

# --- beta = 0.4 is too small: the directed family finds violations ----------
bad = ContractionParams(0.1, 0.4)
report = certify_region(space, F, bad, count=10_000, rng_seed=7)
print(f"(0.1, 0.4): {report.violations} violations, "
      f"worst margin {report.worst_margin:.4f}")
worst = report.min_margin_pair
print(f"  worst pair: a=({worst.a.first[0]:.3f}, {worst.a.second[0]:.3f}) "
      f"b=({worst.b.first[0]:.3f}, {worst.b.second[0]:.3f})")

# violations hide near the set where the rational term vanishes; here is a
# hand-checkable one: image distance 0.09 vs right side ~0.0722
pinned = explicit_pairs(space, F, [(Pair([0.1], [-0.29]), Pair([0.01], [-0.02]))])
margin = evaluate_samples(bad, pinned).worst_margin
print(f"  hand-checkable pair margin at (0.1, 0.4): {margin:.4f}")

# --- estimate the minimal ratio from samples alone ---------------------------
samples = sample_comparable_pairs(space, F, 10_000, rng_seed=42)
estimate = estimate_params(samples)
print(f"\nestimated minimal ratio: {estimate.ratio:.6f} "
      f"(alpha={estimate.alpha:.3g}, beta={estimate.beta:.6f})")
print("for this map |F(x,y)-F(u,v)| = (d(x,u)+d(y,v))/4 on ordered pairs,")
print("so beta ~ 1/2 at small alpha is the analytic answer")

# reports serialize to JSON for scripting
doc = certify_region(space, F, good, count=100, rng_seed=1).to_jsonable()
print(f"\nJSON report keys: {sorted(doc)}")
print(json.dumps(doc, indent=2)[:200], "...")
