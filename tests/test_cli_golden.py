"""Every invocation pinned in data/cli_golden.json gives the same exit code
and byte-identical stdout (and, for input errors, stderr)."""

import json
import os
import sys

import pytest

from coupledfp.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "data"))
import make_cli_golden  # noqa: E402

with open(make_cli_golden.OUT, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def test_golden_covers_every_invocation():
    assert [e["argv"] for e in GOLDEN] == make_cli_golden.invocations()


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_byte_identical(entry):
    code, stdout, stderr = make_cli_golden.run(main, entry["argv"])
    assert code == entry["exit"]
    assert stdout == entry["stdout"]
    if "stderr" in entry:
        assert stderr == entry["stderr"]
