"""Unit tests for the ProfLint analyzers: one class per rule family."""

import math

import pytest

from repro.builder import ProfileBuilder
from repro.core.cct import CCTNode
from repro.core.frame import intern_frame
from repro.core.monitor import MonitoringPoint, PointKind
from repro.errors import Span
from repro.lint import (DEFAULT_CONFIG, LintConfig, Severity, all_rules,
                        get_rule, has_errors, lint_callback, lint_formula,
                        lint_pprof, lint_profile, lint_source,
                        sort_diagnostics, worst_severity)
from repro.proto import pprof_pb

import repro.sa  # noqa: F401 — registers the EV4xx "selfcheck" family

METRICS = ["cycles", "instructions", "cache misses", "bytes"]


def rules_of(diagnostics):
    return {d.rule for d in diagnostics}


class TestFormulaRules:
    def test_clean_formula_has_no_findings(self):
        assert lint_formula("cycles / instructions", metrics=METRICS) == []

    def test_ev100_parse_error_with_span(self):
        [diag] = lint_formula("cycles +", metrics=METRICS)
        assert diag.rule == "EV100"
        assert diag.severity is Severity.ERROR
        assert diag.span is not None

    def test_ev101_undefined_metric_carries_rule_id_and_span(self):
        # The ISSUE acceptance check: rule ID plus character span.
        [diag] = lint_formula("cycles / cyclez", metrics=METRICS)
        assert diag.rule == "EV101"
        assert diag.severity is Severity.ERROR
        assert diag.span == Span(9, 15)
        assert "cycles / cyclez"[diag.span.start:diag.span.end] == "cyclez"

    def test_ev101_skipped_without_metric_environment(self):
        assert lint_formula("anything_goes + 1", metrics=None) == []

    def test_ev101_accepts_inclusive_prefix_and_backquotes(self):
        assert lint_formula("inclusive.cycles + `cache misses`",
                            metrics=METRICS) == []

    def test_ev102_unknown_function(self):
        [diag] = lint_formula("frob(cycles)", metrics=METRICS)
        assert diag.rule == "EV102"
        assert diag.span.slice("frob(cycles)") == "frob(cycles)"

    def test_ev103_wrong_arity(self):
        [diag] = lint_formula("max(cycles)", metrics=METRICS)
        assert diag.rule == "EV103"

    def test_ev104_constant_subexpression(self):
        diags = lint_formula("cycles * (1000 / 8)", metrics=METRICS)
        [diag] = [d for d in diags if d.rule == "EV104"]
        assert "125" in diag.message
        assert diag.span.slice("cycles * (1000 / 8)") == "(1000 / 8)"

    def test_ev104_whole_constant_formula(self):
        diags = lint_formula("2 ^ 10", metrics=METRICS)
        assert rules_of(diags) == {"EV104"}
        assert "1024" in diags[0].message

    @pytest.mark.parametrize("constant", ["(0 ^ -1)", "((-8) ^ 0.5)"])
    def test_ev104_folds_constants_that_used_to_raise(self, constant):
        source = "cycles * %s" % constant
        [diag] = lint_formula(source, metrics=METRICS)
        assert diag.rule == "EV104" and "evaluates to 0" in diag.message

    def test_ev104_not_raised_for_plain_literals(self):
        assert lint_formula("cycles * 2", metrics=METRICS) == []
        assert lint_formula("cycles + -3", metrics=METRICS) == []

    def test_ev105_constant_zero_division(self):
        diags = lint_formula("cycles / 0", metrics=METRICS)
        assert "EV105" in rules_of(diags)

    def test_ev105_modulo_zero(self):
        diags = lint_formula("cycles % 0", metrics=METRICS)
        assert "EV105" in rules_of(diags)

    def test_ev106_constant_if_condition(self):
        diags = lint_formula("if(1, cycles, instructions)", metrics=METRICS)
        [diag] = [d for d in diags if d.rule == "EV106"]
        assert "else" in diag.message  # cond truthy → else branch dead

    def test_ev107_out_of_range_profile_ref(self):
        [diag] = lint_formula("bytes@3 - bytes@1", metrics=METRICS,
                              profile_count=2)
        assert diag.rule == "EV107"
        assert diag.span.slice("bytes@3 - bytes@1") == "bytes@3"

    def test_ev107_in_range_refs_pass(self):
        assert lint_formula("bytes@2 - bytes@1", metrics=METRICS,
                            profile_count=2) == []


class TestCallbackRules:
    def test_clean_callback_has_no_findings(self):
        assert lint_source("def elide(node):\n"
                           "    return node.frame.name == 'idle'\n") == []

    def test_ev200_syntax_error(self):
        [diag] = lint_source("def elide(node) return False")
        assert diag.rule == "EV200"
        assert diag.span is not None

    def test_ev201_import(self):
        diags = lint_source("import os\n")
        assert rules_of(diags) == {"EV201"}

    def test_ev202_open_call_is_flagged(self):
        # The ISSUE acceptance check: a callback calling open().
        diags = lint_source("def remap(frame):\n"
                            "    return open('/etc/passwd').read()\n")
        assert "EV202" in rules_of(diags)

    def test_ev202_structural_not_substring(self):
        # `reopen(x)` contains "open(" but is a different callee.
        assert lint_source("def f(x):\n    return reopen(x)\n") == []

    def test_ev203_eval(self):
        diags = lint_source("lambda node: eval('1+1')")
        assert "EV203" in rules_of(diags)

    def test_ev204_nondeterminism_is_warning(self):
        [diag] = lint_source("lambda node: random.random()")
        assert diag.rule == "EV204"
        assert diag.severity is Severity.WARNING

    def test_ev205_mutating_parameter(self):
        diags = lint_source("def elide(n):\n    n.metrics.clear()\n")
        assert "EV205" in rules_of(diags)

    def test_ev205_assignment_into_shared_tree(self):
        diags = lint_source("tree.root.metrics[0] = 0\n")
        assert "EV205" in rules_of(diags)

    def test_ev206_dunder_attribute(self):
        diags = lint_source("lambda node: node.__class__")
        assert "EV206" in rules_of(diags)

    def test_lint_callback_accepts_function_objects(self):
        def bad_elide(node):
            return open("x")  # noqa: SIM115 — the point of the test

        diags = lint_callback(bad_elide)
        assert "EV202" in rules_of(diags)
        assert diags[0].subject == "bad_elide"


class TestProfileRules:
    def build(self):
        builder = ProfileBuilder(tool="t")
        cpu = builder.metric("cpu", unit="ns")
        builder.sample(["main", "work"], {cpu: 5.0})
        return builder, cpu

    def built(self):
        """The built profile, its metric and its ``work`` node."""
        builder, cpu = self.build()
        profile = builder.build()
        (node,) = profile.find_by_name("work")
        return profile, cpu, node

    def test_clean_profile_has_no_findings(self):
        builder, _ = self.build()
        assert lint_profile(builder.build()) == []

    def test_ev303_nan_metric(self):
        profile, cpu, node = self.built()
        node.metrics[cpu] = float("nan")
        assert "EV303" in rules_of(lint_profile(profile))

    def test_ev304_negative_summed_metric(self):
        profile, cpu, node = self.built()
        node.metrics[cpu] = -1.0
        diags = [d for d in lint_profile(profile) if d.rule == "EV304"]
        assert diags and diags[0].severity is Severity.WARNING

    def test_ev305_inclusive_smaller_than_exclusive(self):
        profile, cpu, node = self.built()
        node.inclusive[cpu] = 1.0  # exclusive is 5.0
        assert "EV305" in rules_of(lint_profile(profile))

    def test_ev306_cct_cycle(self):
        profile, cpu, node = self.built()
        node.children[profile.root.frame] = profile.root  # cycle
        profile.root.parent = node
        assert "EV306" in rules_of(lint_profile(profile))

    def test_ev307_broken_parent_link(self):
        profile, cpu, node = self.built()
        node.parent = CCTNode(intern_frame("elsewhere"))
        assert "EV307" in rules_of(lint_profile(profile))

    def test_ev307_point_context_outside_tree(self):
        profile, cpu, node = self.built()
        stray = CCTNode(intern_frame("stray"))
        profile.points.append(MonitoringPoint(kind=PointKind.PLAIN,
                                              contexts=[stray],
                                              values={cpu: 1.0}))
        assert "EV307" in rules_of(lint_profile(profile))

    def test_ev308_wrong_point_arity(self):
        profile, cpu, node = self.built()
        profile.points.append(MonitoringPoint(kind=PointKind.USE_REUSE,
                                              contexts=[node],
                                              values={cpu: 1.0}))
        assert "EV308" in rules_of(lint_profile(profile))

    def test_ev309_unused_metric_is_info(self):
        builder, cpu = self.build()
        builder.metric("unused")
        profile = builder.build()
        diags = [d for d in lint_profile(profile) if d.rule == "EV309"]
        assert diags and diags[0].severity is Severity.INFO

    def test_ev310_out_of_schema_column(self):
        profile, cpu, node = self.built()
        node.metrics[9] = 1.0
        assert "EV310" in rules_of(lint_profile(profile))

    def test_ev312_negative_time_always_flagged(self):
        profile, _, _ = self.built()
        profile.meta.time_nanos = -5
        assert "EV312" in rules_of(lint_profile(profile))

    def test_ev312_negative_duration_always_flagged(self):
        profile, _, _ = self.built()
        profile.meta.duration_nanos = -1
        assert "EV312" in rules_of(lint_profile(profile))

    def test_ev312_missing_time_only_when_required(self):
        profile, _, _ = self.built()
        assert profile.meta.time_nanos == 0
        # Ordinary lint tolerates a missing stamp (fixtures, conversions)...
        assert "EV312" not in rules_of(lint_profile(profile))
        # ...but the store's ingest path demands one.
        assert "EV312" in rules_of(lint_profile(profile, require_time=True))

    def test_ev312_stamped_profile_is_clean_even_when_required(self):
        profile, _, _ = self.built()
        profile.meta.time_nanos = 1_700_000_000_000_000_000
        assert "EV312" not in rules_of(lint_profile(profile,
                                                    require_time=True))

    def test_workload_fixtures_are_clean_of_errors(self, simple_profile,
                                                   recursive_profile):
        for profile in (simple_profile, recursive_profile):
            assert not has_errors(lint_profile(profile))


class TestPprofRules:
    def message(self):
        msg = pprof_pb.Profile()
        msg.string_table = ["", "cpu", "ns", "main"]
        msg.sample_type.append(pprof_pb.ValueType(type=1, unit=2))
        msg.function.append(pprof_pb.Function(id=1, name=3))
        msg.location.append(pprof_pb.Location(
            id=1, line=[pprof_pb.Line(function_id=1, line=4)]))
        msg.sample.append(pprof_pb.Sample(location_id=[1], value=[7]))
        return msg

    def test_clean_message(self):
        assert lint_pprof(self.message()) == []

    def test_ev301_dangling_string_index(self):
        msg = self.message()
        msg.function[0].name = 42
        [diag] = lint_pprof(msg)
        assert diag.rule == "EV301"

    def test_ev302_undefined_location_and_function(self):
        msg = self.message()
        msg.sample[0].location_id = [9]
        msg.location[0].line[0].function_id = 8
        assert rules_of(lint_pprof(msg)) == {"EV302"}

    def test_ev311_value_count_mismatch(self):
        msg = self.message()
        msg.sample[0].value = [7, 8]
        diags = [d for d in lint_pprof(msg) if d.rule == "EV311"]
        assert diags and diags[0].severity is Severity.WARNING


class TestConfigAndRegistry:
    def test_disable_by_rule_id(self):
        config = LintConfig.from_directives(["EV104=off"])
        assert lint_formula("cycles * (1000/8)", metrics=METRICS,
                            config=config) == []

    def test_disable_whole_family(self):
        config = LintConfig.from_directives(["formula"])
        assert lint_formula("cycles / cyclez", metrics=METRICS,
                            config=config) == []

    def test_severity_override(self):
        config = LintConfig.from_directives(["EV101=warning"])
        [diag] = lint_formula("cyclez", metrics=METRICS, config=config)
        assert diag.severity is Severity.WARNING

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError):
            LintConfig.from_directives(["EV101=loud"])

    def test_every_rule_has_summary_and_example(self):
        rules = all_rules()
        assert len(rules) >= 33
        for rule in rules:
            assert rule.summary and rule.bad and rule.good

    def test_registry_families(self):
        assert {r.family for r in all_rules()} == {"formula", "callback",
                                                   "profile", "selfcheck"}
        assert get_rule("EV101").family == "formula"
        assert get_rule("EV401").family == "selfcheck"

    def test_family_prefix_aliases(self):
        config = LintConfig.from_directives(["EV1xx=off"])
        assert lint_formula("cycles / cyclez", metrics=METRICS,
                            config=config) == []

    def test_family_severity_override(self):
        config = LintConfig.from_directives(["formula=hint"])
        [diag] = lint_formula("cyclez", metrics=METRICS, config=config)
        assert diag.severity is Severity.HINT

    def test_formula_rule_examples_trigger_their_own_rule(self):
        # The documented bad/good examples are executable documentation.
        for rule in all_rules("formula"):
            bad = lint_formula(rule.bad, metrics=METRICS, profile_count=2)
            assert rule.id in rules_of(bad), rule.id
            good = lint_formula(rule.good, metrics=METRICS, profile_count=2)
            assert rule.id not in rules_of(good), rule.id

    def test_sort_and_worst_severity(self):
        diags = lint_formula("cyclez + (1+1)", metrics=METRICS)
        ordered = sort_diagnostics(diags)
        assert [d.rule for d in ordered] == ["EV101", "EV104"]
        assert worst_severity(ordered) is Severity.ERROR
        assert worst_severity([]) is None
