import json
import math
import os
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledfp import (
    CoupledMap,
    DomainError,
    ExpressionError,
    directed_pairs,
    evaluate_samples,
    load_problem,
    mixed_monotone_check,
    parse_expression,
    sample_comparable_pairs,
)
from coupledfp.expressions import (
    FUNCTIONS,
    BinaryOp,
    Expression,
    FunctionCall,
    Literal,
    Negate,
    Variable,
    WALK_ROWS,
    _GuardTripped,
    _Token,
    _tokenize,
    evaluate_components,
)
from coupledfp.maps import BLOCK_FLOATS

CONFIGS = os.path.join(os.path.dirname(__file__), "data", "configs")
NODES = (Literal, Variable, Negate, BinaryOp, FunctionCall)


def ev(text, x, y, dim=1):
    expr = parse_expression(text, dim)
    return expr.eval(np.atleast_1d(np.asarray(x, float)), np.atleast_1d(np.asarray(y, float)))


class TestParsing:
    def test_linear_demo_expression(self):
        assert ev("(x1 - y1)/4", -1.0, 1.0) == -0.5

    def test_affine_demo_expression(self):
        assert ev("x1/3 - y1/4 + 1", 0.0, 3.0) == 0.25

    def test_precedence(self):
        assert ev("2 + 3 * 4", 0, 0) == 14.0
        assert ev("2 * 3 + 4", 0, 0) == 10.0
        assert ev("(2 + 3) * 4", 0, 0) == 20.0

    def test_left_associativity(self):
        assert ev("8 - 4 - 2", 0, 0) == 2.0
        assert ev("8 / 4 / 2", 0, 0) == 1.0

    def test_unary_minus_binds_tighter_than_mul(self):
        assert ev("-2 * 3", 0, 0) == -6.0
        assert ev("5 - -3", 0, 0) == 8.0

    def test_functions(self):
        assert ev("exp(0)", 0, 0) == 1.0
        assert ev("ln(exp(2))", 0, 0) == pytest.approx(2.0, rel=1e-15)
        assert ev("sqrt(9)", 0, 0) == 3.0
        assert ev("abs(-4)", 0, 0) == 4.0
        assert ev("atan(1)", 0, 0) == pytest.approx(math.pi / 4, rel=1e-15)

    def test_multidim_variables(self):
        assert ev("x2 + y1", [1.0, 5.0], [10.0, 0.0], dim=2) == 15.0

    def test_scientific_literals(self):
        assert ev("1e-3 + 2.5E2", 0, 0) == pytest.approx(250.001)


class TestErrors:
    def test_incomplete_input_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x1 +", 1)
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(ExpressionError, match="unknown variable"):
            parse_expression("x2", 1)

    def test_variable_index_zero(self):
        with pytest.raises(ExpressionError, match="unknown variable"):
            parse_expression("x0", 1)

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier"):
            parse_expression("frob(x1)", 1)

    def test_function_without_parens_is_arity_error(self):
        with pytest.raises(ExpressionError, match="argument"):
            parse_expression("exp + 1", 1)

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionError, match="'\\)'"):
            parse_expression("(x1 + 1", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 2", 1)
        assert err.value.position == 2

    def test_stray_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x1 ^ 2", 1)
        assert err.value.position == 3


class TestDomainErrors:
    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1 / x1", 0.0, 0.0)

    def test_ln_of_zero(self):
        with pytest.raises(DomainError):
            ev("ln(x1)", 0.0, 0.0)

    def test_ln_negative(self):
        with pytest.raises(DomainError):
            ev("ln(-1)", 0.0, 0.0)

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            ev("sqrt(x1 - 1)", 0.0, 0.0)

    def test_sqrt_zero_ok(self):
        assert ev("sqrt(0)", 0.0, 0.0) == 0.0

    def test_exp_overflow(self):
        with pytest.raises(DomainError):
            ev("exp(1000)", 0.0, 0.0)


def expressions(dim=2, depth=3, ops="+-*", functions=("atan", "abs")):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Literal),
        st.tuples(st.sampled_from("xy"), st.integers(1, dim)).map(
            lambda t: Variable(t[0], t[1])
        ),
    )

    def extend(children):
        return st.one_of(
            children.map(Negate),
            st.tuples(st.sampled_from(ops), children, children).map(
                lambda t: BinaryOp(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(functions), children).map(
                lambda t: FunctionCall(t[0], t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=depth * 4)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(expressions(), st.integers(0, 2**32 - 1))
    def test_serialize_parse_agrees(self, expr: Expression, seed):
        text = str(expr)
        reparsed = parse_expression(text, 2)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, 2)
        y = rng.uniform(-5, 5, 2)
        original = expr.eval(x, y)
        again = reparsed.eval(x, y)
        assert again == pytest.approx(original, rel=1e-15, abs=1e-300)

    def test_handwritten_round_trip(self):
        text = "-(x1 + y1) * 3 - x1/(y1 - 2) + exp(x1)"
        expr = parse_expression(text, 1)
        again = parse_expression(str(expr), 1)
        x, y = np.array([0.7]), np.array([-1.3])
        assert again.eval(x, y) == expr.eval(x, y)


def expression_map(exprs, lower, upper):
    """A map with the given components, as `build_problem` makes them."""
    dim = len(exprs)
    return CoupledMap(
        "stacked", dim, lambda x, y: evaluate_components(exprs, x, y),
        np.full(dim, lower), np.full(dim, upper),
    )


def pointwise(F, X, Y):
    """F.evaluate row by row (the tree walk): the images, or the first failure's message."""
    rows = []
    for x, y in zip(X, Y):
        try:
            rows.append(F.evaluate(x, y))
        except DomainError as exc:
            return None, str(exc)
    return np.array(rows).reshape(X.shape), None


def stacked(F, X, Y):
    try:
        return F.evaluate_rows(X, Y), None
    except DomainError as exc:
        return None, str(exc)


class TestRowStacks:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(expressions(ops="+-*/", functions=FUNCTIONS), min_size=2, max_size=2),
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
    )
    def test_stack_equals_tree_walk_bit_for_bit(self, exprs, seed, n):
        rng = np.random.default_rng(seed)
        X, Y = rng.uniform(-3, 3, (2, n, 2))
        # signed zeros make divisions by zero and ln(0) common
        X[rng.random((n, 2)) < 0.1] = 0.0
        Y[rng.random((n, 2)) < 0.1] = -0.0
        F = expression_map(exprs, -3.0, 3.0)
        want, want_error = pointwise(F, X, Y)
        got, got_error = stacked(F, X, Y)
        assert got_error == want_error
        if want_error is None:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_functions_round_as_math(self, name):
        # np.exp, np.log and np.arctan round differently on 0.1% to 5% of
        # such arguments, so this many rows would show them
        expr = parse_expression(f"{name}(x1)", 1)
        X = np.random.default_rng(11).uniform(0.0, 10.0, (20_000, 1))
        want = [expr.eval(x, x) for x in X]
        assert evaluate_components([expr], X, X).tobytes() == np.array(want).tobytes()

    # component, x1 of each row (y1 = 0.25), and a part of the expected
    # message that identifies the first bad row
    FAILURES = [
        ("1/x1 + ln(x1 + 0.5)", [0.5, 0.0, -0.75], "division by zero in '1.0 / x1'"),
        ("1/x1 + ln(x1 + 0.5)", [0.5, -0.0, -0.75], "division by zero in '1.0 / x1'"),
        ("1/x1 + ln(x1 + 0.5)", [0.5, -0.75, 0.0], "ln of non-positive value -0.25"),
        ("ln(x1)", [0.5, 0.0, -0.5], "ln of non-positive value 0.0"),
        ("ln(x1)", [0.5, -0.5, 0.0], "ln of non-positive value -0.5"),
        ("sqrt(x1)", [0.25, 0.0, -0.5, -0.25], "sqrt of negative value -0.5"),
        ("exp(1000*x1)", [0.5, 0.8, 0.9], "exp overflow at argument 800.0"),
        ("1e300*x1*1e300", [1e-300, -1.0, 1.0], "non-finite values: array([-inf])"),
        ("ln(x1*1e300*1e300 - x1*1e300*1e300)", [1.0, 0.5], "non-finite values: array([nan])"),
        ("1e300*x1*1e300 + 1/x1", [1e-300, 1.0, 0.0], "non-finite values: array([inf])"),
        ("1e300*x1*1e300 + 1/x1", [1e-300, 0.0, 1.0], "division by zero in '1.0 / x1'"),
        ("x1 + ln(y1 - x1)", [0.0, 0.25, 0.5], "ln of non-positive value 0.0"),
    ]

    @pytest.mark.parametrize("text,column,first_bad", FAILURES)
    def test_first_bad_row_matches_pointwise_loop(self, text, column, first_bad):
        F = expression_map([parse_expression(text, 1)], -1.0, 1.0)
        # good rows appended after the column make a stack that eval_rows takes
        for pad in (0, WALK_ROWS):
            X = np.array(column + [0.5] * pad)[:, None]
            Y = np.full_like(X, 0.25)
            _, want_error = pointwise(F, X, Y)
            assert first_bad in want_error
            _, got_error = stacked(F, X, Y)
            assert got_error == want_error

    @pytest.mark.parametrize("name", ["expr_2d.json", "expr_4d.json", "box_edge.json"])
    def test_config_maps_match_tree_walk_bit_for_bit(self, name):
        path = os.path.join(CONFIGS, name)
        prob = load_problem(path)
        space, F = prob.space, prob.map
        with open(path, encoding="utf-8") as fh:
            exprs = [parse_expression(c, F.dim) for c in json.load(fh)["components_F"]]

        def tree_walk(X, Y):
            # the reference: the tree walk, one row at a time
            return np.array([[e.eval(x, y) for e in exprs] for x, y in zip(X, Y)]).reshape(X.shape)

        walk = CoupledMap(F.name, F.dim, tree_walk, F.lower, F.upper)

        def terms(G):
            s = sample_comparable_pairs(space, G, 2000, 5) + directed_pairs(space, G)
            return [t.tobytes() for t in (s.image_distance, s.rational_term, s.distance_sum)]

        assert terms(F) == terms(walk)
        got = mixed_monotone_check(F, 1000, 5)
        want = mixed_monotone_check(walk, 1000, 5)
        assert (got.violations, got.worst_excess) == (want.violations, want.worst_excess)


def _counting(counts, key, method):
    def counted(self, *args):
        counts[key] += 1
        return method(self, *args)

    return counted


class TestWorkCounts:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"eval": 0, "eval_rows": 0}
        for cls in NODES:
            for key in counts:
                monkeypatch.setattr(cls, key, _counting(counts, key, getattr(cls, key)))
        return counts

    def test_certify_makes_no_tree_walk(self, counts):
        prob = load_problem(os.path.join(CONFIGS, "expr_4d.json"))
        F = prob.map
        calls = []

        def evaluator(x, y):
            calls.append(len(x))
            return F.evaluator(x, y)

        counted = CoupledMap(F.name, F.dim, evaluator, F.lower, F.upper)
        n = 10_000
        samples = sample_comparable_pairs(prob.space, counted, n, rng_seed=3)
        report = evaluate_samples(prob.suggested_params, samples)
        rows_per_block = max(1, BLOCK_FLOATS // F.dim)
        assert report.sample_count == n
        assert counts["eval"] == 0 and counts["eval_rows"] > 0
        assert sum(calls) == 4 * n
        assert len(calls) <= 4 * math.ceil(n / rows_per_block)

    def test_single_evaluation_walks_the_tree(self, counts):
        prob = load_problem(os.path.join(CONFIGS, "expr_4d.json"))
        prob.map.evaluate(prob.seed.first, prob.seed.second)
        assert counts["eval"] > 0 and counts["eval_rows"] == 0

    @pytest.mark.parametrize("rows", [WALK_ROWS, WALK_ROWS + 1])
    def test_small_stacks_walk_the_tree(self, counts, rows):
        prob = load_problem(os.path.join(CONFIGS, "expr_4d.json"))
        X = np.random.default_rng(7).uniform(0.0, 2.0, (2, rows, 4))
        prob.map.evaluate_rows(X[0], X[1])
        if rows <= WALK_ROWS:
            assert counts["eval"] > 0 and counts["eval_rows"] == 0
        else:
            assert counts["eval"] == 0 and counts["eval_rows"] > 0


# --- references ---------------------------------------------------------------
# Node evaluation and the tokenizer as they were written before every node
# had one `_eval`: a tree walk and a column pass per node class, and one
# branch per token kind. The current code must agree with them bit for bit.


def reference_eval(node, x, y):
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Variable):
        vec = x if node.axis == "x" else y
        return float(vec[node.index - 1])
    if isinstance(node, Negate):
        return -reference_eval(node.operand, x, y)
    if isinstance(node, BinaryOp):
        lhs = reference_eval(node.left, x, y)
        rhs = reference_eval(node.right, x, y)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if rhs == 0.0:
            raise DomainError(f"division by zero in {node.to_text()!r}")
        return lhs / rhs
    t = reference_eval(node.arg, x, y)
    if node.name == "exp":
        try:
            return math.exp(t)
        except OverflowError as exc:
            raise DomainError(f"exp overflow at argument {t}") from exc
    if node.name == "ln":
        if t <= 0.0:
            raise DomainError(f"ln of non-positive value {t}")
        return math.log(t)
    if node.name == "atan":
        return math.atan(t)
    if node.name == "sqrt":
        if t < 0.0:
            raise DomainError(f"sqrt of negative value {t}")
        return math.sqrt(t)
    return abs(t)


def _map_math(fn, t):
    return np.fromiter(map(fn, t.tolist()), float, len(t))


def reference_eval_rows(node, X, Y):
    if isinstance(node, Literal):
        return np.full(len(X), node.value)
    if isinstance(node, Variable):
        return (X if node.axis == "x" else Y)[:, node.index - 1]
    if isinstance(node, Negate):
        return -reference_eval_rows(node.operand, X, Y)
    if isinstance(node, BinaryOp):
        lhs = reference_eval_rows(node.left, X, Y)
        rhs = reference_eval_rows(node.right, X, Y)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if np.any(rhs == 0.0):
            raise _GuardTripped
        return lhs / rhs
    t = reference_eval_rows(node.arg, X, Y)
    if node.name == "exp":
        try:
            return _map_math(math.exp, t)
        except OverflowError:
            raise _GuardTripped from None
    if node.name == "ln":
        if np.any(t <= 0.0):
            raise _GuardTripped
        return _map_math(math.log, t)
    if node.name == "atan":
        return _map_math(math.atan, t)
    if node.name == "sqrt":
        if np.any(t < 0.0):
            raise _GuardTripped
        return np.sqrt(t)
    return np.abs(t)


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def reference_tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens


def outcome(evaluate, *args):
    """The value's bytes, DomainError's message, or _GuardTripped."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(evaluate(*args), dtype=float).tobytes()
    except DomainError as exc:
        return str(exc)
    except _GuardTripped:
        return _GuardTripped


# signed zeros, huge values and each guard's edge: division and ln at zero,
# sqrt just below it, exp on either side of its overflow
EDGES = [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 709.782712893384, 709.7827128933841]
ROW_VALUES = st.one_of(st.sampled_from(EDGES), st.floats(-10.0, 10.0))


class TestReferences:
    @settings(max_examples=400, deadline=None)
    @given(
        expressions(ops="+-*/", functions=FUNCTIONS),
        st.lists(st.lists(ROW_VALUES, min_size=4, max_size=4), min_size=1, max_size=8),
    )
    def test_eval_and_eval_rows_match_the_references(self, expr, rows):
        X, Y = np.array(rows)[:, :2], np.array(rows)[:, 2:]
        for x, y in zip(X, Y):
            assert outcome(expr.eval, x, y) == outcome(reference_eval, expr, x, y)
        assert outcome(expr.eval_rows, X, Y) == outcome(reference_eval_rows, expr, X, Y)

    ALPHABET = (
        string.digits + ".e" + string.ascii_letters + "_" + "+-*/()" + " \t\n\v^" + "\u0663"
    )

    @settings(max_examples=1000, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=30))
    def test_tokenize_matches_the_reference(self, text):
        def tokens(tokenize):
            try:
                return tokenize(text)
            except ExpressionError as exc:
                return str(exc), exc.position

        assert tokens(_tokenize) == tokens(reference_tokenize)
