"""Tests for the derived-metric formula language."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.formula import (Binary, Call, Num, Ref, derive,
                                    evaluate, evaluate_str, parse, tokenize)
from repro.analysis.transform import top_down
from repro.errors import FormulaError, Span


class TestLexer:
    def test_numbers(self):
        kinds = [(t.kind.value, t.text) for t in tokenize("1 2.5 1e3 .5")]
        assert kinds[:-1] == [("number", "1"), ("number", "2.5"),
                              ("number", "1e3"), ("number", ".5")]

    def test_identifiers_with_dots_and_at(self):
        tokens = tokenize("inclusive.bytes@2")
        assert tokens[0].text == "inclusive.bytes@2"

    def test_backquoted_names(self):
        tokens = tokenize("`cache misses` / cycles")
        assert tokens[0].text == "cache misses"

    def test_unterminated_backquote_raises(self):
        with pytest.raises(FormulaError):
            tokenize("`oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(FormulaError, match="unexpected character"):
            tokenize("a ? b")


class TestParser:
    def test_precedence(self):
        ast = parse("1 + 2 * 3")
        assert isinstance(ast, Binary) and ast.op == "+"
        assert isinstance(ast.right, Binary) and ast.right.op == "*"

    def test_parentheses(self):
        assert evaluate_str("(1 + 2) * 3", {}) == 9.0

    def test_unary_minus(self):
        assert evaluate_str("-3 + 5", {}) == 2.0
        assert evaluate_str("--4", {}) == 4.0

    def test_power_right_associative(self):
        assert evaluate_str("2 ^ 3 ^ 2", {}) == 512.0

    def test_power_binds_tighter_than_unary(self):
        assert evaluate_str("-2 ^ 2", {}) == -4.0

    def test_function_calls(self):
        assert evaluate_str("max(3, 7)", {}) == 7.0
        assert evaluate_str("if(1, 10, 20)", {}) == 10.0
        assert evaluate_str("if(0, 10, 20)", {}) == 20.0

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormulaError):
            parse("1 + 2 3")

    def test_missing_operand_rejected(self):
        with pytest.raises(FormulaError):
            parse("1 +")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(FormulaError):
            parse("(1 + 2")

    def test_wrong_arity_rejected(self):
        with pytest.raises(FormulaError, match="arguments"):
            evaluate_str("max(1)", {})

    def test_unknown_function_rejected(self):
        with pytest.raises(FormulaError, match="unknown function"):
            evaluate_str("frob(1)", {})


class TestEvaluation:
    def test_metric_references(self):
        env = {"cycles": 3000.0, "instructions": 1500.0}
        assert evaluate_str("cycles / instructions", env) == 2.0

    def test_mpki_formula(self):
        env = {"cache_misses": 40.0, "instructions": 10_000.0}
        assert evaluate_str("1000 * cache_misses / instructions", env) == 4.0

    def test_unknown_metric_raises(self):
        with pytest.raises(FormulaError, match="unknown metric"):
            evaluate_str("nope + 1", {"a": 1.0})

    def test_division_by_zero_is_zero(self):
        assert evaluate_str("a / b", {"a": 5.0, "b": 0.0}) == 0.0
        assert evaluate_str("a % b", {"a": 5.0, "b": 0.0}) == 0.0

    def test_log_of_nonpositive_is_zero(self):
        assert evaluate_str("log(0)", {}) == 0.0
        assert evaluate_str("sqrt(-1)", {}) == 0.0

    def test_math_functions(self):
        assert evaluate_str("log2(8)", {}) == 3.0
        assert evaluate_str("log10(100)", {}) == 2.0
        assert evaluate_str("abs(-4)", {}) == 4.0

    @given(st.floats(min_value=-1e9, max_value=1e9),
           st.floats(min_value=-1e9, max_value=1e9))
    def test_addition_matches_python(self, a, b):
        assert evaluate_str("x + y", {"x": a, "y": b}) == pytest.approx(a + b)

    @given(st.integers(min_value=-100, max_value=100),
           st.integers(min_value=-100, max_value=100),
           st.integers(min_value=-100, max_value=100))
    def test_distributive_property(self, a, b, c):
        env = {"a": float(a), "b": float(b), "c": float(c)}
        left = evaluate_str("a * (b + c)", env)
        right = evaluate_str("a * b + a * c", env)
        assert left == pytest.approx(right)


class TestDerive:
    def test_derive_adds_column_per_node(self, simple_profile):
        tree = top_down(simple_profile)
        index = derive(tree, "cpu_us", "cpu / 1000", unit="microseconds")
        work = tree.find_by_name("work")[0]
        assert work.inclusive[index] == pytest.approx(0.9)
        assert tree.schema[index].name == "cpu_us"

    def test_derive_exclusive_mode(self, simple_profile):
        tree = top_down(simple_profile)
        index = derive(tree, "cpu_x", "cpu * 2", inclusive=False)
        work = tree.find_by_name("work")[0]
        assert work.exclusive[index] == 400.0

    def test_derived_column_usable_in_next_formula(self, simple_profile):
        tree = top_down(simple_profile)
        derive(tree, "double", "cpu * 2")
        index = derive(tree, "quad", "double * 2")
        assert tree.root.inclusive[index] == 4000.0


class TestEdgeCases:
    """Satellite coverage: backticks, @N refs, %, ^, zero-division."""

    def test_backquoted_name_evaluates(self):
        env = {"cache misses": 40.0, "instructions": 20.0}
        assert evaluate_str("`cache misses` / instructions", env) == 2.0

    def test_profile_suffix_refs_evaluate(self):
        env = {"bytes@1": 100.0, "bytes@2": 250.0}
        assert evaluate_str("bytes@2 - bytes@1", env) == 150.0

    def test_modulo(self):
        assert evaluate_str("7 % 3", {}) == 1.0
        assert evaluate_str("a % 4", {"a": 10.0}) == 2.0

    def test_power_chain_right_associative_with_refs(self):
        assert evaluate_str("x ^ y ^ z",
                            {"x": 2.0, "y": 3.0, "z": 2.0}) == 512.0

    def test_modulo_by_zero_constant_is_zero(self):
        assert evaluate_str("5 % 0", {}) == 0.0
        assert evaluate_str("5 / 0", {}) == 0.0

    def test_percent_binds_like_multiplication(self):
        assert evaluate_str("1 + 7 % 3", {}) == 2.0

    # Values never raise: each of these escaped as a Python exception.

    def test_zero_to_negative_power_is_zero(self):
        assert evaluate_str("0 ^ -1", {}) == 0.0  # was ZeroDivisionError

    def test_negative_base_fractional_power_is_zero(self):
        assert evaluate_str("(-8) ^ 0.5", {}) == 0.0  # was TypeError

    def test_infinite_modulo_is_zero(self):
        assert evaluate_str("a % 2", {"a": math.inf}) == 0.0  # ValueError


class TestFailedDerive:
    """A formula error raises before the tree changes at all."""

    @pytest.mark.parametrize("source", ["cpu / nosuch", "frob(cpu)",
                                        "max(cpu)", "cpu +"])
    @pytest.mark.parametrize("columnar", [True, False])
    def test_failed_derive_changes_nothing(self, simple_profile, source,
                                           columnar):
        from repro.core.cct_columnar import from_cct
        from repro.core.digest import viewtree_digest
        from repro.engine import AnalysisEngine
        if columnar:
            simple_profile.attach_columnar(
                from_cct(simple_profile.cct, len(simple_profile.schema)))
        engine = AnalysisEngine()
        tree = engine.transform(simple_profile, "top_down")
        snapshot = tree.columnar()
        names = tree.schema.names()
        digest = viewtree_digest(tree)
        with pytest.raises(FormulaError):
            derive(tree, "x", source)
        assert tree.schema.names() == names
        assert tree.columnar() is snapshot
        assert viewtree_digest(tree) == digest
        assert engine.transform(simple_profile, "top_down") is tree
        assert derive(tree, "good", "cpu * 2") == len(names)


class TestSpans:
    """Every FormulaError carries the offending character span."""

    def test_lex_error_span_points_at_character(self):
        with pytest.raises(FormulaError) as info:
            tokenize("a ? b")
        assert info.value.span is not None
        assert "a ? b"[info.value.span.start] == "?"

    def test_unterminated_backquote_span(self):
        with pytest.raises(FormulaError) as info:
            tokenize("a + `oops")
        assert info.value.span.start == 4

    def test_parse_error_span(self):
        with pytest.raises(FormulaError) as info:
            parse("cycles + * 2")
        assert "cycles + * 2"[info.value.span.start] == "*"

    def test_trailing_garbage_span(self):
        with pytest.raises(FormulaError) as info:
            parse("1 2")
        assert info.value.span.start == 2

    def test_unknown_metric_error_span(self):
        with pytest.raises(FormulaError) as info:
            evaluate_str("a + missing", {"a": 1.0})
        span = info.value.span
        assert "a + missing"[span.start:span.end] == "missing"

    def test_arity_error_span_covers_call(self):
        with pytest.raises(FormulaError) as info:
            evaluate_str("1 + max(2)", {})
        span = info.value.span
        assert "1 + max(2)"[span.start:span.end] == "max(2)"

    def test_ast_nodes_carry_spans(self):
        ast = parse("cycles + max(1, 2)")
        assert ast.span.slice("cycles + max(1, 2)") == "cycles + max(1, 2)"
        assert ast.left.span.slice("cycles + max(1, 2)") == "cycles"
        assert ast.right.span.slice("cycles + max(1, 2)") == "max(1, 2)"

    def test_token_spans_cover_text(self):
        tokens = tokenize("ab + `c d`")
        assert tokens[0].span() == Span(0, 2)
        assert tokens[2].span() == Span(5, 10)  # includes the backquotes
