#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that the expr_4d config is what make_expr_4d.py writes, that the
benchmark's numpy twins agree with the program's maps, that the expr_4d
Lipschitz bound and mixed monotonicity hold numerically, that every
checker accepts the program's real output and rejects a doctored one, and
that a short run of every workload, traced and untraced, ends with a
correct result carrying every metric named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import make_expr_4d  # noqa: E402
import workloads as W  # noqa: E402
from coupledfp import cli, get_builtin, load_problem  # noqa: E402


def cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--json"])
    return code, out.getvalue()


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except W.CheckError:
        return True
    return False


def test_expr_config():
    with open(make_expr_4d.CONFIG_PATH, encoding="utf-8") as fh:
        assert fh.read() == make_expr_4d.config_text(), "run python3 bench/make_expr_4d.py"


def test_twins_match_program():
    rng = np.random.default_rng(5)
    for name in W.NAMES:
        for p in W.build(name).problems:
            prog = program_problem(p)
            lo, hi = prog.map.lower, prog.map.upper
            for _ in range(5):
                x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
                assert np.allclose(p.F(x, y), prog.map.evaluate(x, y), rtol=0, atol=1e-13), p.label


def program_problem(p):
    return load_problem(p.argv[1]) if p.argv[0] == "--config" else get_builtin(p.argv[1])


def test_expr_lipschitz_and_monotone():
    rng = np.random.default_rng(6)
    lo, hi = make_expr_4d.BOX
    h = 1e-6
    for _ in range(200):
        x, y = rng.uniform(lo + h, hi - h, size=(2, 4))
        jx = np.stack([(make_expr_4d.F(x + h * e, y) - make_expr_4d.F(x - h * e, y))[0] / (2 * h)
                       for e in np.eye(4)], axis=1)
        jy = np.stack([(make_expr_4d.F(x, y + h * e) - make_expr_4d.F(x, y - h * e))[0] / (2 * h)
                       for e in np.eye(4)], axis=1)
        assert np.all(jx >= -1e-9) and np.all(jy <= 1e-9), "not mixed monotone"
        assert np.all((0.15 <= make_expr_4d.F(x, y)) & (make_expr_4d.F(x, y) <= 0.5)), "F leaves [0.15, 0.5]"
        worst = max(np.abs(jx).sum(axis=0).max(), np.abs(jy).sum(axis=0).max())
        assert worst <= make_expr_4d.LIPSCHITZ + 1e-6, worst


def test_checkers_reject_doctored_output():
    for name in W.NAMES:
        w = W.build(name, short=True)
        for p in w.problems:
            tol = ["--tol", repr(W.TOL), "--max-iter", str(W.MAX_ITER)]
            code, out = cli_json(["solve", *p.argv, *tol])
            W.check_solve(p, code, out)
            doc = json.loads(out)
            doc["fixed_x"][0] += 1e-6
            assert rejects(W.check_solve, p, code, json.dumps(doc)), p.label

            n = w.samples
            code, out = cli_json(["certify", *p.argv, "--samples", str(n)])
            W.check_certify_holds(p, code, out, n)
            doc = json.loads(out)
            doc["violations"] = 1
            assert rejects(W.check_certify_holds, p, code, json.dumps(doc), n), p.label
            doc = json.loads(out)
            doc["worst_margin"] += 1e-6
            assert rejects(W.check_certify_holds, p, code, json.dumps(doc), n), p.label

            code, out = cli_json(["estimate", *p.argv, "--samples", str(n)])
            W.check_estimate(p, code, out, n)
            doc = json.loads(out)
            doc["ratio"] = p.ratio_bound + 1e-3
            assert rejects(W.check_estimate, p, code, json.dumps(doc), n), p.label

            code, out = cli_json(["check-monotone", *p.argv, "--samples", str(n)])
            W.check_monotone(p, code, out, n)
            doc = json.loads(out)
            doc["violations"] = 1
            assert rejects(W.check_monotone, p, code, json.dumps(doc), n), p.label

            code, out = cli_json(["probe-uniqueness", *p.argv, "--samples", "2", *tol])
            W.check_probe(p, code, out, 2)
            doc = json.loads(out)
            doc["runs"][1]["converged"] = False
            assert rejects(W.check_probe, p, code, json.dumps(doc), 2), p.label


def test_self_time_subtracts_the_union_of_children():
    from tracer import ROOT, SpanTable

    # id, parent, name, op, start, end, v0, v1, v2; children 2 and 3 overlap, as on two threads
    rows = np.array([
        [1, ROOT, 0, 1, 0, 100, 0, 0, 0],
        [2, 1, 1, 1, 10, 30, 0, 0, 0],
        [3, 1, 1, 1, 20, 50, 0, 0, 0],
        [4, 1, 1, 1, 60, 70, 0, 0, 0],
        [5, 4, 1, 1, 61, 65, 0, 0, 0],
    ])
    table = SpanTable(rows, ["outer", "inner"])
    assert table.self_ns.tolist() == [50, 20, 30, 6, 4], table.self_ns
    assert table.under("outer").tolist() == [False, True, True, True, True]


def test_short_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--short"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["attempted"] >= 1, proc.stderr
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload["name"], trace, set(got) ^ set(want))


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
