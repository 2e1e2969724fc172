#!/usr/bin/env python3
"""Write cli_golden.json: argv -> exit code and stdout of `coupledfp.cli.main`.

    python tests/data/make_cli_golden.py
    python tests/data/make_cli_golden.py --check

Run it without --check only against a commit whose output the file pins,
never to refresh the file after a change to the program:
tests/test_cli_golden.py replays every entry and requires byte-identical
output. The first 118 entries pin the commit before batched margin
evaluation. The last ten, `estimate` at 1, 100, 500, 3000 and the default
10 000 samples with their --json twins, were appended at the commit before
the batched ratio search, which printed the first 118 byte for byte, so
writing the file there only appended entries. The last six, `solve`,
`certify --samples 50` and `probe-uniqueness --samples 3` on
configs/integral_100.json with their --json twins, were appended at the
commit before integral_demo built dyadic kernels from their first row; N =
100 pins the outer build end to end. When the ratio search became an exact
search for the least feasible float, the 18 `estimate` entries whose output
changed were re-recorded in place on parent commit 6adc3f2: linear_demo and affine_demo at 200 samples with
seeds 0 and 1, configs/expr_2d.json at 200 samples with seeds 0 and 1 and at
500, affine_demo at 100 and linear_demo at the default 10 000, each with its
--json twin. Every other entry kept its bytes. --check replays the file
the same way without pytest and never writes it: it prints the first
differing argv with a unified diff of its stdout or stderr and exits 1, or
exits 0 when every entry is byte-identical. Entries that exit 1 also keep stderr, so that error
messages naming the first bad row stay pinned. Config paths in argv are
relative to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "cli_golden.json")
# this checkout's sources, which the script imports without an install
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

PROBLEMS = [
    ["--problem", "linear_demo"],
    ["--problem", "affine_demo"],
    ["--config", "configs/integral_16.json"],
    ["--config", "configs/integral_1024.json"],
    ["--config", "configs/expr_2d.json"],
]

EXTRA = [
    ["certify", "--problem", "linear_demo", "--alpha", "0.1", "--beta", "0.4", "--samples", "200"],
    ["certify", "--problem", "linear_demo", "--samples", "10", "--alpha", "0.01", "--beta", "0.02"],
    ["certify", "--problem", "linear_demo", "--alpha", "0", "--beta", "0.5", "--samples", "50"],
    ["check-monotone", "--config", "configs/expr_xy.json", "--samples", "200"],
    ["check-monotone", "--config", "configs/expr_second.json", "--samples", "200"],
    ["estimate", "--config", "configs/expr_expand.json", "--samples", "100"],
    ["certify", "--config", "configs/expr_ln.json", "--samples", "100"],
    ["certify", "--config", "configs/expr_flip.json", "--samples", "100"],
    ["list-builtins"],
    # estimate from one sample to the default 10 000
    ["estimate", "--problem", "linear_demo", "--samples", "1"],
    ["estimate", "--problem", "affine_demo", "--samples", "100"],
    ["estimate", "--config", "configs/expr_2d.json", "--samples", "500"],
    ["estimate", "--config", "configs/expr_4d.json", "--samples", "3000"],
    ["estimate", "--problem", "linear_demo"],
    # N = 100 is not a power of two, so its kernel keeps the outer build.
    ["solve", "--config", "configs/integral_100.json"],
    ["certify", "--config", "configs/integral_100.json", "--samples", "50"],
    ["probe-uniqueness", "--config", "configs/integral_100.json", "--samples", "3"],
]


def invocations() -> list[list[str]]:
    out = []
    for problem in PROBLEMS:
        for seed in ("0", "1"):
            for fmt in ([], ["--json"]):
                tail = ["--rng-seed", seed, *fmt]
                out += [
                    ["solve", *problem, *tail],
                    ["certify", *problem, "--samples", "200", *tail],
                    ["estimate", *problem, "--samples", "200", *tail],
                    ["check-monotone", *problem, "--samples", "200", *tail],
                    ["probe-uniqueness", *problem, "--samples", "3", *tail],
                ]
    for argv in EXTRA:
        out += [argv, [*argv, "--json"]]
    return out


def resolve(argv: list[str]) -> list[str]:
    """argv with every --config path made absolute under this directory."""
    return [
        os.path.join(HERE, arg) if i > 0 and argv[i - 1] == "--config" else arg
        for i, arg in enumerate(argv)
    ]


def run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(resolve(argv))
    return code, out.getvalue(), err.getvalue()


def check(main, entries: list[dict]) -> int:
    """Replay entries; print the first that differs, with a diff. 0 if none does."""
    for entry in entries:
        code, stdout, stderr = run(main, entry["argv"])
        got = {"exit": code, "stdout": stdout, "stderr": stderr}
        if all(got[key] == want for key, want in entry.items() if key != "argv"):
            continue
        print("differs:", " ".join(entry["argv"]))
        if code != entry["exit"]:
            print(f"exit code {entry['exit']} -> {code}")
        for stream in ("stdout", "stderr"):
            if stream in entry:
                sys.stdout.writelines(
                    difflib.unified_diff(
                        entry[stream].splitlines(keepends=True),
                        got[stream].splitlines(keepends=True),
                        f"golden {stream}",
                        f"current {stream}",
                    )
                )
        return 1
    print(f"{len(entries)} invocations byte-identical")
    return 0


def main() -> None:
    sys.path.insert(0, SRC)
    from coupledfp.cli import main as cli_main

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="replay the file and report the first difference"
    )
    if parser.parse_args().check:
        with open(OUT, encoding="utf-8") as fh:
            golden = json.load(fh)
        if [e["argv"] for e in golden] != invocations():
            print("cli_golden.json does not hold exactly the argv lists of invocations()")
            sys.exit(1)
        sys.exit(check(cli_main, golden))

    entries = []
    for argv in invocations():
        code, stdout, stderr = run(cli_main, argv)
        entry = {"argv": argv, "exit": code, "stdout": stdout}
        if code == 1:
            entry["stderr"] = stderr
        entries.append(entry)
        print(code, " ".join(argv), file=sys.stderr)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
