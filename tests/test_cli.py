import glob
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coupledfp import cli
from coupledfp.cli import _dumps, main
from coupledfp.expressions import MAX_DEPTH
from coupledfp.parallel import worker_cap


DATA = os.path.join(os.path.dirname(__file__), "data")
BOX_EDGE = os.path.join(DATA, "configs", "box_edge.json")
DEGENERATE_BOX = os.path.join(DATA, "configs", "degenerate_box.json")
EXPR_EXPAND = os.path.join(DATA, "configs", "expr_expand.json")
EXPR_FLIP = os.path.join(DATA, "configs", "expr_flip.json")
CONFIGS = sorted(glob.glob(os.path.join(DATA, "configs", "*.json")))
sys.path.insert(0, DATA)
import make_cli_golden  # noqa: E402


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(capsys, argv, message):
    """The run exits 1 with one "error:" line that holds ``message``, and no output."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def program_env(**variables):
    """The environment with ``variables`` set and this checkout's `src` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestSolve:
    def test_linear_converges_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "linear_demo", "--tol", "1e-10",
            "--max-iter", "100",
        )
        assert code == 0
        assert "converged: true" in out
        assert "seed condition held: true" in out

    def test_unknown_builtin_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--problem", "nonexistent")
        assert code == 1
        assert "unknown builtin" in err

    def test_non_convergence_exit_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "linear_demo", "--tol", "1e-10",
            "--max-iter", "2",
        )
        assert code == 2
        assert "converged: false" in out

    def test_divergence_exit_three(self, capsys, tmp_path):
        config = {
            "dim": 1,
            "components_F": ["2*x1"],
            "domain_box": [-1.0, 1.0],
            "seed": {"x0": [0.5], "y0": [0.5]},
        }
        path = tmp_path / "expanding.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "solve", "--config", str(path))
        assert code == 3
        assert "divergence" in err

    @pytest.mark.parametrize(
        "argv", [["solve"], ["certify", "--samples", "500"], ["estimate", "--samples", "500"]]
    )
    def test_seed_on_box_edge(self, capsys, argv):
        # the seed sits on both edges of [1.07, 2.29], and the sampled
        # families reach them too
        code, _, err = run_cli(capsys, *argv, "--config", BOX_EDGE)
        assert code == 0, err

    @pytest.mark.parametrize(
        "command", ["solve", "certify", "estimate", "check-monotone", "probe-uniqueness"]
    )
    def test_degenerate_box(self, capsys, command):
        # the box is a single value along its second coordinate
        code, _, err = run_cli(capsys, command, "--config", DEGENERATE_BOX)
        assert code == 0, err

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--problem", "linear_demo", "--trace", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "n,x_0,y_0,gap_x,gap_y,bound"
        assert len(lines) > 2

    def test_unwritable_trace_exit_one(self, capsys, tmp_path):
        path = tmp_path / "missing" / "t.csv"
        code, out, err = run_cli(
            capsys, "solve", "--problem", "linear_demo", "--trace", str(path)
        )
        assert code == 1
        assert err.startswith(f"error: cannot write trace {path}: ")
        assert out == ""

    def test_infinite_tol_exit_one(self, capsys):
        # an infinite tol would report convergence after one step
        code, out, err = run_cli(capsys, "solve", "--problem", "linear_demo", "--tol", "inf")
        assert code == 1
        assert err == "error: tol must be finite and > 0, got inf\n"
        assert out == ""

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--problem", "affine_demo", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["components_equal"] is True
        assert doc["fixed_x"][0] == pytest.approx(12 / 11, abs=1e-8)

    def test_config_and_problem_conflict(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"builtin": "linear_demo"}))
        code, _, err = run_cli(
            capsys, "solve", "--problem", "linear_demo", "--config", str(path)
        )
        assert code == 1
        assert "either" in err

    CUSTOM = {"dim": 1, "components_F": ["0.5*x1"], "seed": {"x0": [0], "y0": [0]}}

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"builtin": "integral_demo", "dim": "16"}, "dim must be a positive integer"),
            ({"builtin": "integral_demo", "dim": True}, "dim must be a positive integer"),
            (
                {"dim": True, "components_F": ["x1"], "seed": {"x0": [0.0], "y0": [0.0]}},
                "dim must be a positive integer",
            ),
            (
                {"builtin": "linear_demo", "seed": {"x0": ["abc"], "y0": [0.0]}},
                "a point needs numeric coordinates",
            ),
            ({**CUSTOM, "domain_box": ["a", 1]}, "domain_box must hold numbers"),
            (
                {"builtin": "linear_demo", "params": {"alpha": "abc", "beta": 0.5}},
                "params alpha and beta must be numbers",
            ),
            (
                {"builtin": "linear_demo", "params": {"alpha": None, "beta": 0.5}},
                "params alpha and beta must be numbers",
            ),
            ({"builtin": "linear_demo", "params": [0.1, 0.5]}, "params must be an object"),
            ({"builtin": "linear_demo", "params": {"alpha": 0.1}}, "params is missing ['beta']"),
            ({"builtin": "linear_demo", "seed": [0, 0]}, "seed must be an object"),
            ({"builtin": "linear_demo", "seed": {"x0": [0]}}, "seed is missing ['y0']"),
            ({**CUSTOM, "domain_box": [[0, 1, 2]]}, "domain_box must be [lo, hi]"),
            ({**CUSTOM, "domain_box": [1, -1]}, "domain_box has lower > upper"),
            ([1, 2], "problem config must be a JSON object"),
            ({"dim": 1}, "config needs either 'builtin' or 'components_F'"),
            ({"components_F": ["x1"]}, "custom maps need an explicit 'dim'"),
            ({**CUSTOM, "metric": "taxicab"}, "unknown metric 'taxicab'"),
            # the metric is checked before the box
            ({**CUSTOM, "metric": "taxicab", "domain_box": [1, -1]}, "unknown metric 'taxicab'"),
            (
                {"builtin": "linear_demo", "params": 0.5},
                "error: params must be an object with alpha and beta\n",
            ),
            (
                {"builtin": "linear_demo", "seed": "origin"},
                "error: seed must be an object with x0 and y0\n",
            ),
            (
                {"builtin": "linear_demo", "seed": {"x0": [0], "y0": [0], "z0": [0]}},
                "error: unknown seed fields: ['z0']\n",
            ),
            (
                {"builtin": "linear_demo", "seed": {"x0": [[0.0]], "y0": [0.0]}},
                "error: a point must be a flat sequence, got shape (1, 1)\n",
            ),
            (
                {"builtin": "linear_demo", "seed": {"x0": [], "y0": [0.0]}},
                "error: a point needs at least one coordinate\n",
            ),
            # numbers that break a rule of the params report that rule
            (
                {"builtin": "linear_demo", "params": {"alpha": 0.6, "beta": 0.5}},
                "error: alpha + beta must be < 1, got 1.1\n",
            ),
            (
                {"builtin": "linear_demo", "params": {"alpha": "nan", "beta": 0.5}},
                "error: alpha and beta must be finite\n",
            ),
            (
                {"builtin": "linear_demo", "params": {"alpha": -1, "beta": 0.5}},
                "error: alpha must be >= 0, got -1.0\n",
            ),
        ],
        ids=[
            "dim-string", "dim-bool", "custom-dim-bool", "x0-string", "box-string",
            "alpha-string", "alpha-null", "params-not-object", "params-missing-key",
            "seed-not-object", "seed-missing-key", "box-shape", "box-lower-above-upper",
            "config-not-object", "no-map", "custom-no-dim", "unknown-metric",
            "metric-before-box", "params-number", "seed-string", "seed-unknown-key",
            "x0-nested", "x0-empty", "params-sum-too-big", "alpha-nan", "alpha-negative",
        ],
    )
    def test_malformed_config_exit_one(self, capsys, tmp_path, config, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert_input_error(capsys, ["solve", "--config", str(path)], message)

    def test_unreadable_config_exit_one(self, capsys, tmp_path):
        path = str(tmp_path / "missing.json")
        assert_input_error(
            capsys, ["solve", "--config", path], f"cannot read problem config {path!r}"
        )

    def test_no_problem_exit_one(self, capsys):
        assert_input_error(capsys, ["solve"], "a problem is required")

    def test_alpha_without_beta(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--problem", "linear_demo", "--alpha", "0.1"
        )
        assert code == 1
        assert "together" in err


class TestCertify:
    def test_good_params_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--problem", "linear_demo", "--alpha", "0.1",
            "--beta", "0.5", "--samples", "2000", "--rng-seed", "7",
        )
        assert code == 0
        assert "violations: 0" in out

    def test_bad_params_exit_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--problem", "linear_demo", "--alpha", "0.1",
            "--beta", "0.4", "--samples", "10000", "--rng-seed", "7",
        )
        assert code == 2
        assert "FALSIFIED" in out

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_no_samples_exit_one(self, capsys, samples):
        for command in ("certify", "estimate", "check-monotone", "probe-uniqueness"):
            code, out, err = run_cli(
                capsys, command, "--problem", "linear_demo", "--samples", samples
            )
            assert code == 1
            assert err == f"error: {command} needs --samples >= 1\n"
            assert out == ""

    def test_byte_identical_outputs(self, capsys):
        argv = (
            "certify", "--problem", "linear_demo", "--alpha", "0.1", "--beta", "0.5",
            "--samples", "500", "--rng-seed", "3", "--json",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


    def test_config_without_params_exit_one(self, capsys):
        assert_input_error(
            capsys, ["certify", "--config", EXPR_EXPAND], "carries no suggested params"
        )


class TestEstimate:
    def test_linear_feasible(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--problem", "linear_demo", "--samples", "3000",
            "--rng-seed", "42", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert 0.49 <= doc["ratio"] <= 0.51

    def test_expansive_infeasible(self, capsys, tmp_path):
        config = {
            "dim": 1,
            "components_F": ["2*x1"],
            "domain_box": [-1.0, 1.0],
            "seed": {"x0": [0.0], "y0": [0.0]},
        }
        path = tmp_path / "expanding.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(
            capsys, "estimate", "--config", str(path), "--samples", "300"
        )
        assert code == 2
        assert "feasible: false" in out


class TestCheckMonotone:
    def test_builtin_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-monotone", "--problem", "linear_demo",
            "--samples", "1000", "--rng-seed", "1",
        )
        assert code == 0
        assert "violations: 0" in out

    def test_product_map_falsified(self, capsys, tmp_path):
        config = {
            "dim": 1,
            "components_F": ["x1 * y1"],
            "domain_box": [-1.0, 1.0],
            "seed": {"x0": [0.0], "y0": [0.0]},
        }
        path = tmp_path / "xy.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(
            capsys, "check-monotone", "--config", str(path), "--samples", "1000",
            "--rng-seed", "1",
        )
        assert code == 2
        assert "FALSIFIED" in out


class TestProbeUniqueness:
    def test_linear_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe-uniqueness", "--problem", "linear_demo",
            "--samples", "3", "--rng-seed", "5", "--tol", "1e-10",
        )
        assert code == 0
        assert "limits agree" in out

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_no_seeds_exit_one(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "probe-uniqueness", "--problem", "linear_demo", "--samples", samples
        )
        assert code == 1
        assert "--samples >= 1" in err
        assert out == ""

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe-uniqueness", "--problem", "affine_demo",
            "--samples", "2", "--rng-seed", "5", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_agree"] is True
        assert doc["bridges_comparable"] is True
        assert len(doc["runs"]) == 2

    def test_diverging_seeds_text(self, capsys):
        # -2*x1 + 2*y1 sends every drawn seed out of [-1, 1]; only the
        # problem's own seed (0, 0) converges, so no two limits are compared
        code, out, err = run_cli(
            capsys, "probe-uniqueness", "--config", EXPR_FLIP, "--samples", "4", "--rng-seed", "1"
        )
        assert code == 2 and err == ""
        lines = out.splitlines()
        assert lines[2] == "  seed [0]/[0]: converged"
        assert [line.endswith(": DIVERGED") for line in lines[3:6]] == [True] * 3
        assert lines[6:] == [
            "bridge pairs comparable to both limits: true",
            "limits DISAGREE (or a run failed)",
        ]


class TestListBuiltins:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "list-builtins")
        assert code == 0
        for name in ("linear_demo", "affine_demo", "integral_demo"):
            assert name in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "list-builtins", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [d["name"] for d in doc] == ["affine_demo", "integral_demo", "linear_demo"]


class TestRngSeed:
    @pytest.mark.parametrize(
        "command", ["certify", "estimate", "check-monotone", "probe-uniqueness"]
    )
    def test_negative_exit_one(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, "--problem", "linear_demo", "--samples", "5", "--rng-seed", "-1"
        )
        assert code == 1
        assert err == "error: --rng-seed must be >= 0, got -1\n"
        assert out == ""


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.text()
)
json_payloads = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


class _Count(int):
    """An int subclass whose repr is not the number json writes."""

    def __repr__(self):
        return f"_Count({int(self)})"


class TestJsonEncoder:
    @given(json_payloads)
    @example({"c, d": ["a, b", 1.0, True]})
    @example([True, 1, False, 0, {"true": True, "one": 1, "false": False, "zero": 0}])
    @example({"float": np.float64(0.1), "int": _Count(3), "both": [np.float64(-2.5), _Count(7)]})
    @example({"tiny": 5e-324, "big": 1e16, "small": 1e-5, "all": [5e-324, 1e16, 1e-5]})
    @example({'"\\\u2028\ud800': ['"\\\u2028\ud800']})
    def test_matches_indented_sorted_dumps(self, payload):
        assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @given(st.lists(st.floats() | st.integers(), min_size=1), st.integers(0, 3))
    @example([0.5, -0.0, math.nan, math.inf, -math.inf, 2**64, 1e16, 5e-324], 1)
    @example([0.5, -0.0, math.nan, math.inf, -math.inf, 2**64, 1e16, 5e-324, 1e-5], 1)
    def test_number_lists_at_any_depth(self, numbers, depth):
        payload = numbers
        for _ in range(depth):
            payload = {"k": [payload, None]}
        assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["certify", "--samples", "20", "--alpha", "0.05", "--beta", "0.5"],
            ["estimate", "--samples", "20"],
            ["check-monotone", "--samples", "20"],
            ["probe-uniqueness"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("config", CONFIGS, ids=os.path.basename)
    def test_cli_output_is_indented_sorted_json(self, capsys, argv, config):
        code, out, _ = run_cli(capsys, *argv, "--config", config, "--json")
        if code == 1:  # an input error prints nothing on stdout
            assert out == ""
        else:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestJsonFormatsNoText:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "affine_demo"],
            ["certify", "--problem", "linear_demo", "--samples", "20"],
            ["certify", "--problem", "linear_demo", "--samples", "20",
             "--alpha", "0.01", "--beta", "0.02"],
            ["estimate", "--problem", "linear_demo", "--samples", "20"],
            ["check-monotone", "--problem", "linear_demo", "--samples", "20"],
            ["probe-uniqueness", "--problem", "linear_demo"],
            ["list-builtins"],
        ],
        ids=["solve", "certify", "certify-finding", "estimate", "check-monotone",
             "probe-uniqueness", "list-builtins"],
    )
    def test_same_output_with_formatters_raising(self, capsys, monkeypatch, argv):
        want = run_cli(capsys, *argv, "--json")

        def refuse(*args):
            raise AssertionError("a text line was formatted under --json")

        monkeypatch.setattr(cli, "_fmt", refuse)
        monkeypatch.setattr(cli, "_vec", refuse)
        assert run_cli(capsys, *argv, "--json") == want


class TestUsageErrors:
    def test_bad_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--no-such-flag"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["certify", "estimate", "check-monotone"])
    @pytest.mark.parametrize("flag", [["--tol", "1e-5"], ["--tol", "inf"], ["--max-iter", "-5"]])
    def test_iteration_flags_only_where_read(self, capsys, command, flag):
        # Only solve and probe-uniqueness iterate, so only they take these.
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", "linear_demo", "--samples", "10", *flag])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestBoxWiderThanTheLargestFloat:
    # upper - lower overflows: the map accepts the box, the samplers refuse it
    CONFIG = {
        "dim": 1,
        "components_F": ["x1/2"],
        "domain_box": [-1e308, 1e308],
        "seed": {"x0": [0], "y0": [1]},
    }

    @pytest.mark.parametrize(
        "command",
        [
            ["certify", "--alpha", "0.1", "--beta", "0.4"],
            ["estimate"],
            ["check-monotone"],
            ["probe-uniqueness"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_sampling_subcommands_exit_one(self, capsys, tmp_path, command):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(self.CONFIG))
        code, out, err = run_cli(capsys, *command, "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "wider than the largest float" in err
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_solve_still_runs(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(self.CONFIG))
        code, _, err = run_cli(capsys, "solve", "--config", str(path))
        assert code == 0 and err == ""


class TestDistancesOverflowAcrossTheBox:
    # The width 2e300 is a float, but its euclidean norm squares it to inf.
    CONFIG = {
        "dim": 1,
        "components_F": ["0.5*x1"],
        "domain_box": [-1e300, 1e300],
        "metric": "euclidean",
        "seed": {"x0": [0], "y0": [1]},
    }

    @pytest.mark.parametrize(
        "command",
        [["certify", "--alpha", "0.1", "--beta", "0.4"], ["estimate"], ["probe-uniqueness"]],
        ids=lambda argv: argv[0],
    )
    def test_certify_and_estimate_exit_one(self, capsys, tmp_path, command):
        path = tmp_path / "far.json"
        path.write_text(json.dumps(self.CONFIG))
        code, out, err = run_cli(capsys, *command, "--config", str(path), "--samples", "50")
        assert code == 1 and out == ""
        assert err.startswith("error: distances across the domain box of map ")
        assert "overflow in the euclidean metric" in err
        assert err.count("\n") == 1


class TestRationalTermOnAWideBox:
    # In the max metric distances across [-1e300, 1e300] are finite, but the
    # rational term's product of two of them is not; its quotient is.
    CONFIG = {**TestDistancesOverflowAcrossTheBox.CONFIG, "metric": "max"}

    def run(self, capsys, tmp_path, scale, *command):
        config = dict(self.CONFIG, domain_box=[-scale, scale])
        path = tmp_path / f"box{scale:g}.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *command, "--config", str(path), "--samples", "50", "--json")
        assert err == ""
        return code, json.loads(out)

    @pytest.mark.filterwarnings("error")
    def test_certify_scores_the_finite_quotient(self, capsys, tmp_path):
        # the map is linear, so a box 1e200 times narrower scores the same
        argv = ["certify", "--alpha", "0.1", "--beta", "0.4"]
        code, wide = self.run(capsys, tmp_path, 1e300, *argv)
        _, narrow = self.run(capsys, tmp_path, 1e100, *argv)
        assert code == 2 and wide["violations"] == narrow["violations"] > 0
        for key in ("rational_term", "image_distance", "distance_sum"):
            got = wide["min_margin_pair"][key]
            assert got == pytest.approx(narrow["min_margin_pair"][key] * 1e200, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_estimate_is_not_fooled_by_infinite_terms(self, capsys, tmp_path):
        code, wide = self.run(capsys, tmp_path, 1e300, "estimate")
        _, narrow = self.run(capsys, tmp_path, 1e100, "estimate")
        assert code == 0 and wide["ratio"] == pytest.approx(narrow["ratio"], rel=1e-9)

    def test_alpha_zero_ignores_infinite_terms(self, capsys, tmp_path):
        # at alpha = 0 an infinite term adds 0 to a margin, not 0 * inf = NaN
        argv = ["certify", "--alpha", "0", "--beta", "0.99"]
        with pytest.warns(UserWarning) as record:
            code, doc = self.run(capsys, tmp_path, 1e200, *argv)
        assert [str(w.message) for w in record] == [
            "alpha = 0 is the degenerate limit of the contraction hypothesis"
        ]
        assert (code, doc["violations"], doc["worst_margin"]) == (0, 0, 0.0)


class TestPairsOnABoxNearTheLargestFloat:
    # The width is a float, but an edge moved out by it, or twice the
    # distance across the box, is not: pair sampling refuses such a box.
    def write(self, tmp_path, box, metric):
        config = dict(TestDistancesOverflowAcrossTheBox.CONFIG, domain_box=box, metric=metric)
        path = tmp_path / "near.json"
        path.write_text(json.dumps(config))
        return str(path)

    @pytest.mark.parametrize(
        "box, metric",
        [([-8e307, 8e307], "max"), ([0, 1e308], "max"), ([-5e307, 5e307], "l1")],
        ids=["both-edges", "upper-edge", "l1-distance-sum"],
    )
    @pytest.mark.parametrize(
        "command", [["certify", "--alpha", "0.1", "--beta", "0.5"], ["estimate"]],
        ids=lambda argv: argv[0],
    )
    def test_certify_and_estimate_exit_one(self, capsys, tmp_path, box, metric, command):
        path = self.write(tmp_path, box, metric)
        argv = [*command, "--config", path, "--samples", "50"]
        assert_input_error(capsys, argv, "too wide to build pairs on")

    @pytest.mark.parametrize("metric", ["max", "l1"])
    @pytest.mark.parametrize(
        "command, want", [(["certify", "--alpha", "0.1", "--beta", "0.5"], 2), (["estimate"], 0)],
        ids=["certify", "estimate"],
    )
    def test_half_that_box_still_samples(self, capsys, tmp_path, metric, command, want):
        path = self.write(tmp_path, [-4e307, 4e307], metric)
        code, _, err = run_cli(capsys, *command, "--config", path, "--samples", "50")
        assert (code, err) == (want, "")

    @pytest.mark.parametrize(
        "command, want", [(["probe-uniqueness"], 2), (["check-monotone"], 0), (["solve"], 0)],
        ids=["probe-uniqueness", "check-monotone", "solve"],
    )
    def test_other_subcommands_unchanged(self, capsys, tmp_path, command, want):
        path = self.write(tmp_path, [-8e307, 8e307], "max")
        code, out, err = run_cli(capsys, *command, "--config", path)
        assert (code, err) == (want, "") and out

    def test_midpoint_of_a_box_above_half_the_largest_float(self, capsys, tmp_path):
        # lo + hi overflows here, but the box's midpoint is a float.
        config = {
            "dim": 1,
            "metric": "max",
            "components_F": ["0.5*x1 + 5e307"],
            "domain_box": [1e308, 1.1e308],
            "seed": {"x0": [1e308], "y0": [1.1e308]},
        }
        path = tmp_path / "high.json"
        path.write_text(json.dumps(config))
        argv = ["certify", "--config", str(path), "--alpha", "0.1", "--beta", "0.5"]
        code, out, err = run_cli(capsys, *argv, "--samples", "50")
        assert (code, err) == (2, "")
        assert "violations: 14\n" in out


class TestDeepExpressions:
    # An expression of depth d in MAX_DEPTH's levels; "x1/2" is 2 deep.
    SHAPES = {
        "parentheses": lambda d: "(" * (d - 2) + "x1/2" + ")" * (d - 2),
        "calls": lambda d: "abs(" * (d - 2) + "x1/2" + ")" * (d - 2),
        "sum": lambda d: " + ".join(["x1/400"] * (d - 1)),
    }

    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1], ids=["limit", "past"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_depth_limit(self, capsys, tmp_path, shape, depth):
        config = {
            "dim": 1,
            "components_F": [self.SHAPES[shape](depth)],
            "domain_box": [0.0, 1.0],
            "seed": {"x0": [0.0], "y0": [1.0]},
        }
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "solve", "--config", str(path))
        if depth <= MAX_DEPTH:
            assert code == 0 and "converged: true" in out, err
        else:
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"nests deeper than {MAX_DEPTH} levels" in err


class TestModuleEntryPoints:
    ARGV = ["certify", "--problem", "linear_demo", "--samples", "10",
            "--alpha", "0.01", "--beta", "0.02"]

    @pytest.mark.parametrize("module", ["coupledfp", "coupledfp.cli"])
    def test_python_m_matches_in_process(self, capsys, module):
        code, out, _ = run_cli(capsys, *self.ARGV)
        proc = subprocess.run(
            [sys.executable, "-m", module, *self.ARGV],
            capture_output=True, text=True, env=program_env(), timeout=120,
        )
        assert code == 2
        assert proc.returncode == 2
        assert proc.stdout == out


class TestBlasThreadCount:
    # `integral_demo`'s kernel product is a BLAS matrix-vector product. At
    # N = 1020 and 1500 one and two OpenBLAS threads round it differently;
    # at these sizes they agree, and so must every printed digit. At
    # N = 1024 the product is taken in 512-row slices of the kernel.
    def output(self, subcommand, config):
        argv = [sys.executable, "-m", "coupledfp", subcommand, "--samples", "20",
                "--config", os.path.join(DATA, "configs", config)]
        runs = [
            subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             env=program_env(OPENBLAS_NUM_THREADS=threads))
            for threads in ("1", "2")
        ]
        outs = [proc.communicate(timeout=120)[0] for proc in runs]
        assert [proc.returncode for proc in runs] == [0, 0]
        assert outs[0] == outs[1]
        return outs[0]

    @pytest.mark.parametrize("config", ["integral_16.json", "integral_1024.json"])
    def test_certify_output_does_not_depend_on_it(self, config):
        assert "violations: 0" in self.output("certify", config)

    def test_monotone_output_does_not_depend_on_it(self):
        # every row of check-monotone goes through the sliced product
        assert "violations: 0" in self.output("check-monotone", "integral_1024.json")


class TestThreadsVariable:
    # nothing in `src/` reads COUPLED_FP_THREADS: the `parallel` stub runs on
    # one thread whatever it holds, and the CLI prints what it prints unset
    ARGV = ("probe-uniqueness", "--problem", "linear_demo", "--samples", "2")

    def test_empty_counts_as_unset(self, capsys, monkeypatch):
        monkeypatch.delenv("COUPLED_FP_THREADS", raising=False)
        unset = run_cli(capsys, *self.ARGV)
        monkeypatch.setenv("COUPLED_FP_THREADS", "")
        assert worker_cap() == 1
        assert run_cli(capsys, *self.ARGV) == unset
        assert unset[0] == 0, unset[2]

    @pytest.mark.parametrize("raw", ["two", "0", "-1"])
    def test_bad_values_ignored(self, capsys, monkeypatch, raw):
        monkeypatch.delenv("COUPLED_FP_THREADS", raising=False)
        unset = run_cli(capsys, *self.ARGV)
        monkeypatch.setenv("COUPLED_FP_THREADS", raw)
        assert worker_cap() == 1
        assert run_cli(capsys, *self.ARGV) == unset
        assert unset[0] == 0, unset[2]


class TestGoldenCheck:
    def entry(self, argv):
        code, stdout, stderr = make_cli_golden.run(main, argv)
        return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr}

    def test_identical_entries_pass(self, capsys):
        entries = [self.entry(["list-builtins"]), self.entry(["solve", "--problem", "nope"])]
        assert make_cli_golden.check(main, entries) == 0
        assert "2 invocations byte-identical" in capsys.readouterr().out

    def test_runs_from_a_bare_checkout(self, tmp_path):
        # the script finds src/ itself; --help gets past its import
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, os.path.join(DATA, "make_cli_golden.py"), "--help"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_first_difference_printed_as_diff(self, capsys):
        argv = ["solve", "--problem", "linear_demo"]
        doctored = self.entry(argv)
        doctored["stdout"] = doctored["stdout"].replace("converged: true", "converged: false")
        later = self.entry(["list-builtins"])
        later["exit"] = 3
        assert make_cli_golden.check(main, [self.entry(["list-builtins"]), doctored, later]) == 1
        out = capsys.readouterr().out
        assert out.startswith("differs: solve --problem linear_demo\n")
        assert "\n-converged: false" in out and "\n+converged: true" in out
        assert "exit code" not in out
