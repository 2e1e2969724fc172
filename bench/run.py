#!/usr/bin/env python3
"""Benchmark of the coupledfp command line, end to end and layer by layer.

    python3 bench/run.py --workload scalar_1d --seed 1 --seconds 30 --trace 0

Drives the five subcommands through `coupledfp.cli.main(argv)` in this
process, with stdout captured, as one closed-loop caller. A round is every
operation of the workload once: `solve` (several times), `certify`,
`estimate`, `check-monotone`, `probe-uniqueness` and an estimate-then-
certify round trip, for each problem of the workload. Rounds repeat the
same inputs until `--seconds` have passed; every output is checked against
the benchmark's own computation and must be byte-identical across rounds.

With `--trace 0` the last stdout line holds the end-to-end metrics, each the
median over the timed rounds. With `--trace 1` the run instead alternates
untraced and traced rounds and reports per-layer metrics per round from the
spans (see tracer.py). Details of each run go to bench/results/.
Human-readable notes go to stderr. `--short` shrinks every size for a
quick self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# Fewest set-up timings behind the setup_s median, even in a short run.
SETUP_MIN = 7
# Traced rounds per traced run; the run goes on with untraced rounds after them.
TRACED_ROUNDS = 3
# Times `import coupledfp` plus building each named problem in a fresh interpreter.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import coupledfp
for arg in sys.argv[2:]:
    coupledfp.load_problem(arg) if arg.endswith(".json") else coupledfp.get_builtin(arg)
print(time.perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import coupledfp from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "coupledfp", "cli.py")):
        fail(f"no coupledfp sources under {SRC}")
    sys.path.insert(0, SRC)
    import coupledfp.cli

    if os.path.dirname(os.path.abspath(coupledfp.__file__)) != os.path.join(SRC, "coupledfp"):
        fail(f"imported coupledfp from {coupledfp.__file__}, not from {SRC}")
    return coupledfp.cli


# --- operations ---------------------------------------------------------------


class Runner:
    """Calls cli.main with output captured, timed and compared with the first round's.

    Counts the operations attempted and failed. While `tracer` is set, each
    call gets the next operation id.
    """

    def __init__(self, cli):
        self.cli = cli
        self.first_out: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def call(self, argv: list[str]) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            dt = time.perf_counter() - t0
        text = out.getvalue()
        key = tuple(argv)
        if self.first_out.setdefault(key, text) != text:
            raise W.CheckError(f"output of {' '.join(argv)} changed between rounds")
        return dt, code, text


def make_round(w, seeds: dict) -> list:
    """The operations of one round as (kind, callable) pairs.

    Each callable runs its operation, checks the output and returns
    (seconds, work done, failed). Work is samples or seeds, as the metric counts it.
    """
    tol = ["--tol", repr(W.TOL), "--max-iter", str(W.MAX_ITER)]
    ops = []
    for p in w.problems:
        s = seeds[p.label]

        def solve(run, p=p):
            dt, code, out = run.call(["solve", *p.argv, *tol, "--json"])
            W.check_solve(p, code, out)
            return dt, 1, False

        def certify(run, p=p, s=s):
            argv = ["certify", *p.argv, "--samples", str(w.samples), "--rng-seed", str(s["certify"])]
            dt, code, out = run.call([*argv, "--json"])
            W.check_certify_holds(p, code, out, w.samples)
            return dt, json.loads(out)["sample_count"], False

        def estimate(run, p=p, s=s):
            argv = ["estimate", *p.argv, "--samples", str(w.samples), "--rng-seed", str(s["estimate"])]
            dt, code, out = run.call([*argv, "--json"])
            W.check_estimate(p, code, out, w.samples)
            return dt, w.samples, False

        def monotone(run, p=p, s=s):
            argv = ["check-monotone", *p.argv, "--samples", str(w.monotone_samples),
                    "--rng-seed", str(s["monotone"])]
            dt, code, out = run.call([*argv, "--json"])
            W.check_monotone(p, code, out, w.monotone_samples)
            return dt, w.monotone_samples, False

        def probe(run, p=p, s=s):
            argv = ["probe-uniqueness", *p.argv, "--samples", str(w.probe_seeds),
                    "--rng-seed", str(s["probe"]), *tol]
            dt, code, out = run.call([*argv, "--json"])
            W.check_probe(p, code, out, w.probe_seeds)
            return dt, w.probe_seeds, False

        def roundtrip(run, p=p):
            same = ["--samples", str(w.roundtrip_samples), "--rng-seed", str(W.ROUNDTRIP_RNG_SEED)]
            dt1, code, out = run.call(["estimate", *p.argv, *same, "--json"])
            est = W.check_estimate(p, code, out, w.roundtrip_samples)
            witness = (est["alpha"], est["beta"])
            dt2, code, out = run.call(["certify", *p.argv, *same, "--alpha", repr(witness[0]),
                                       "--beta", repr(witness[1]), "--json"])
            W.check_certify(p, code, out, w.roundtrip_samples, witness)
            return dt1 + dt2, 1, code != 0

        ops += [("solve", solve)] * w.solves
        ops += [("certify", certify), ("estimate", estimate), ("monotone", monotone),
                ("probe", probe), ("roundtrip", roundtrip)]
    return ops


def run_round(runner: Runner, ops, on_op=None) -> dict:
    """Runs one round; returns per kind [seconds, work, operations]."""
    totals: dict[str, list] = {}
    for kind, op in ops:
        if on_op is not None:
            on_op(kind)
        dt, work, failed = op(runner)
        runner.attempted += 1
        runner.failed += failed
        acc = totals.setdefault(kind, [0.0, 0, 0])
        acc[0] += dt
        acc[1] += work
        acc[2] += 1
    return totals


END_TO_END = {
    "certify_samples_per_s": ("1/s", lambda t: t["certify"][1] / t["certify"][0]),
    "estimate_samples_per_s": ("1/s", lambda t: t["estimate"][1] / t["estimate"][0]),
    "monotone_samples_per_s": ("1/s", lambda t: t["monotone"][1] / t["monotone"][0]),
    "probe_seeds_per_s": ("1/s", lambda t: t["probe"][1] / t["probe"][0]),
    "solve_s": ("s", lambda t: t["solve"][0] / t["solve"][2]),
}


def derive_seeds(w, seed: int) -> dict:
    rng = np.random.default_rng(seed % 2**64)
    kinds = ("certify", "estimate", "monotone", "probe")
    return {p.label: {k: int(v) for k, v in zip(kinds, rng.integers(0, 2**31, len(kinds)))}
            for p in w.problems}


def measure_setup(w) -> float:
    """Seconds from a fresh interpreter to the workload's problems being built."""
    problems = [p.argv[1] for p in w.problems]  # builtin names and config paths
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, *problems],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise W.CheckError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


# --- per-layer metrics --------------------------------------------------------

COUNTS = {
    # metric: the span it counts
    "expressions.eval.calls": "expressions.eval",
    "maps.evaluate.calls": "maps.evaluate",
    "maps.rational_min_term.calls": "maps.rational_min_term",
    "spaces.distance.calls": "spaces.distance",
    "spaces.as_point.calls": "spaces.as_point",
    "spaces.leq.calls": "spaces.leq",
    "certificate.make_sample_pair.calls": "certificate.make_sample_pair",
    "certificate.bisection_steps": "certificate._alpha_interval",
    "iteration.iterate.calls": "iteration.iterate",
    "parallel.pmap.calls": "parallel.pmap",
}
SELF_TIMES = {
    "cli.main.self_s": "cli.main",
    "expressions.eval.self_s": "expressions.eval",
    "maps.evaluate.self_s": "maps.evaluate",
    "maps.rational_min_term.self_s": "maps.rational_min_term",
    "maps.mixed_monotone_check.self_s": "maps.mixed_monotone_check",
    "spaces.distance.self_s": "spaces.distance",
    "spaces.as_point.self_s": "spaces.as_point",
    "certificate.sample_comparable_pairs.self_s": "certificate.sample_comparable_pairs",
    "iteration.iterate.self_s": "iteration.iterate",
    "iteration.uniqueness_probe.self_s": "iteration.uniqueness_probe",
}
DURATIONS = {
    "maps.evaluator_s": "maps.evaluator",
    "certificate.directed_pairs_s": "certificate.directed_pairs",
    "certificate.evaluate_samples_s": "certificate.evaluate_samples",
    "certificate.estimate_params_s": "certificate.estimate_params",
    "parallel.pmap_s": "parallel.pmap",
}
EXACT = set(COUNTS) | {"iteration.steps", "parallel.pmap.items", "parallel.pmap.workers",
                       "maps.rows_per_certify_sample"}


def layer_metrics(table, op_kind: list[str]) -> dict[str, float]:
    """Per-layer sums over the spans of one round."""
    rows = table.rows
    ns = 1e-9
    m = {}
    for metric, name in COUNTS.items():
        m[metric] = int(table.mask(name).sum())
    for metric, name in SELF_TIMES.items():
        m[metric] = float(table.self_ns[table.mask(name)].sum() * ns)
    for metric, name in DURATIONS.items():
        m[metric] = float(table.duration[table.mask(name)].sum() * ns)

    has_parent = table.parent_index >= 0
    parent = np.where(has_parent, table.parent_index, 0)
    loads = np.array([n.startswith("problems.") for n in table.names])[rows[:, 2]]
    loads &= has_parent & table.mask("cli.main")[parent]
    m["problems.load_s"] = float(table.duration[loads].sum() * ns)

    m["iteration.steps"] = int(rows[table.mask("iteration.iterate"), 6].sum())
    pmap = table.mask("parallel.pmap")
    m["parallel.pmap.items"] = int(rows[pmap, 6].sum())
    m["parallel.pmap.workers"] = int(rows[pmap, 7].max()) if pmap.any() else 0
    m["parallel.pmap.items_s"] = float(rows[pmap, 8].sum() * ns)

    certify_ops = np.array([k == "certify" for k in op_kind])[rows[:, 3]]
    scp = table.mask("certificate.sample_comparable_pairs") & certify_ops
    rows_in_scp = table.mask("maps.evaluate") & certify_ops & table.under("certificate.sample_comparable_pairs")
    m["maps.rows_per_certify_sample"] = float(rows_in_scp.sum() / rows[scp, 6].sum())
    return m


def memory_round(runner: Runner, ops, certificate, cli) -> float:
    """Largest tracemalloc peak, in MB, inside one sample_comparable_pairs call."""
    original = certificate.sample_comparable_pairs
    peaks = [0.0]

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    certificate.sample_comparable_pairs = cli.sample_comparable_pairs = measured
    try:
        run_round(runner, ops)
    finally:
        certificate.sample_comparable_pairs = cli.sample_comparable_pairs = original
    return max(peaks)


def run_traced(runner: Runner, ops, seconds: float, out_base: str):
    from coupledfp import certificate, cli

    from tracer import FIELDS, SpanTable, Tracer

    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    alloc_mb = memory_round(runner, ops, certificate, cli)
    run_round(runner, ops)  # warm-up
    op_kind = ["none"]  # operation id -> kind; id 0 is outside any operation

    def on_op(kind):
        op_kind.extend([kind] * (2 if kind == "roundtrip" else 1))  # CLI calls it makes

    plain, traced, per_round, kept = [], [], [], []
    while not traced or time.perf_counter() < deadline:
        plain.append(sum(t[0] for t in run_round(runner, ops).values()))
        if len(traced) == TRACED_ROUNDS:
            continue
        runner.tracer = tracer
        tracer.install()
        try:
            traced.append(sum(t[0] for t in run_round(runner, ops, on_op).values()))
        finally:
            tracer.uninstall()
            runner.tracer = None
        rows = tracer.take()
        per_round.append(layer_metrics(SpanTable(rows, tracer.names), op_kind))
        kept.append(rows)

    for name in EXACT:
        values = {m[name] for m in per_round}
        if len(values) != 1:
            raise W.CheckError(f"count {name} differs between rounds: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["certificate.sample_alloc_peak_mb"] = alloc_mb
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    rows = np.concatenate(kept)
    np.savez_compressed(out_base + ".spans.npz", rows=rows, names=np.array(tracer.names),
                        op_kind=np.array(op_kind), fields=np.array(FIELDS))
    repeats = {"traced_rounds": len(traced), "untraced_rounds": len(plain),
               "spans": int(len(rows))}
    return metrics, repeats, {"plain_round_s": plain, "traced_round_s": traced,
                              "per_round": per_round}


# --- reporting ----------------------------------------------------------------

UNITS = {"_s": "s", "_mb": "MB", "_pct": "%", "rows_per_certify_sample": "rows/sample"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "coupledfp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass  # no git on this machine; the source digest still names the code
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "COUPLED_FP_THREADS": os.environ.get("COUPLED_FP_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)

    cli = import_program()
    if args.workload not in W.NAMES:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(W.NAMES)}")
    w = W.build(args.workload, short=args.short)
    seeds = derive_seeds(w, args.seed)
    ops = make_round(w, seeds)
    runner = Runner(cli)
    os.makedirs(RESULTS, exist_ok=True)
    out_base = os.path.join(RESULTS, f"{w.name}_seed{args.seed}_trace{args.trace}")
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "short": args.short, "rng_seeds": seeds, "environment": environment()}
    correct = True
    metrics: dict[str, float] = {}
    try:
        if args.trace:
            metrics, repeats, detail = run_traced(runner, ops, args.seconds, out_base)
        else:
            deadline = time.perf_counter() + args.seconds
            measure_setup(w)  # writes the bytecode caches; not counted
            run_round(runner, ops)  # warm-up, checked and counted but not timed
            per_round, setup = [], []
            while not per_round or time.perf_counter() < deadline:
                # one set-up per round, so that both sample the whole run
                setup.append(measure_setup(w))
                totals = run_round(runner, ops)
                per_round.append({name: fn(totals) for name, (_, fn) in END_TO_END.items()})
            while len(setup) < SETUP_MIN:
                setup.append(measure_setup(w))
            metrics = {name: statistics.median(r[name] for r in per_round) for name in END_TO_END}
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            repeats = {"rounds": len(per_round), "setup": len(setup),
                       "solves_per_round": w.solves * len(w.problems)}
            detail = {"per_round": per_round, "setup_s": setup}
        record.update(repeats=repeats, detail=detail)
    except W.CheckError as exc:
        correct = False
        print(f"bench: CHECK FAILED: {exc}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    record["result"] = result
    with open(out_base + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    env = record["environment"]
    print(f"bench: {w.name} seed {args.seed}: {record.get('repeats')}; nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit_of(name)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
