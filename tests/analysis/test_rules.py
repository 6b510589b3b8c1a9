"""Per-rule good/bad fixture tests for reprolint (repro.analysis)."""

import pathlib

import pytest

import reprolint_fixtures as fx
from repro.analysis import all_rules, analyze_source, resolve_rules

OPTIM_PY = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "nn" / "optim.py"


def names(findings):
    return [f.rule for f in findings]


def run(source, path, only=None):
    rules = resolve_rules(select=[only]) if only else None
    return analyze_source(source, path, rules)


class TestBackendDispatch:
    def test_fires_on_direct_kernels(self):
        findings = run(fx.BAD_DISPATCH, fx.NN_PATH, only="backend-dispatch")
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "numpy.matmul" in messages
        assert "numpy.einsum" in messages
        assert "numpy.dot" in messages
        assert "scipy" in messages

    def test_silent_on_backend_routed_code(self):
        assert run(fx.GOOD_DISPATCH, fx.NN_PATH, only="backend-dispatch") == []

    def test_resolves_import_aliases(self):
        findings = run(fx.BAD_DISPATCH_ALIASED, fx.SERVING_PATH, only="backend-dispatch")
        assert len(findings) == 2  # numpy.dot + scipy.linalg.solve

    def test_scoped_to_nn_and_serving(self):
        # The same kernel calls are legal outside the dispatch boundary...
        assert run(fx.BAD_DISPATCH, "src/repro/hardware/cost.py", only="backend-dispatch") == []
        assert run(fx.BAD_DISPATCH, fx.TEST_PATH, only="backend-dispatch") == []
        # ...and inside the one sanctioned module.
        assert run(fx.BAD_DISPATCH, fx.BACKEND_PATH, only="backend-dispatch") == []

    def test_fires_under_serving(self):
        assert len(run(fx.BAD_DISPATCH, fx.SERVING_PATH, only="backend-dispatch")) == 4


class TestDeterminism:
    def test_fires_on_global_rng_and_unseeded_default_rng(self):
        findings = run(fx.BAD_DETERMINISM, fx.LIB_PATH, only="determinism")
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "np.random.seed" in messages
        assert "np.random.rand" in messages
        assert "unseeded" in messages

    def test_silent_on_seeded_generator_flow(self):
        assert run(fx.GOOD_DETERMINISM, fx.LIB_PATH, only="determinism") == []

    def test_checkpoint_module_exception(self):
        # get_state/set_state are sanctioned in repro/train/checkpoint.py...
        assert run(fx.CHECKPOINT_EXCEPTION, fx.CHECKPOINT_PATH, only="determinism") == []
        # ...and only there.
        findings = run(fx.CHECKPOINT_EXCEPTION, fx.LIB_PATH, only="determinism")
        assert len(findings) == 2

    def test_checkpoint_exception_is_not_blanket(self):
        findings = run(fx.BAD_DETERMINISM, fx.CHECKPOINT_PATH, only="determinism")
        assert len(findings) == 3  # seed/rand/unseeded still fire there

    def test_tests_and_benchmarks_out_of_scope(self):
        assert run(fx.BAD_DETERMINISM, fx.TEST_PATH, only="determinism") == []
        assert run(fx.BAD_DETERMINISM, "benchmarks/bench_example.py", only="determinism") == []


class TestLockDiscipline:
    def test_fires_on_unlocked_write(self):
        findings = run(fx.BAD_LOCKS, fx.SERVING_PATH, only="lock-discipline")
        assert len(findings) == 1
        assert "Cache.clear" in findings[0].message
        assert "_cache" in findings[0].message

    def test_silent_when_disciplined(self):
        assert run(fx.GOOD_LOCKS, fx.SERVING_PATH, only="lock-discipline") == []

    def test_condition_aliases_count_as_the_lock(self):
        assert run(fx.GOOD_LOCKS_CONDITION, fx.SERVING_PATH, only="lock-discipline") == []

    def test_catches_seeded_cache_clear_regression(self):
        # The PR 4 regression class: RingConv2d._clear_weight_cache with
        # the locked clear moved back outside the lock.
        bad = fx.GOOD_LOCKS.replace(
            "    def clear(self):\n        with self._lock:\n            self._cache = None",
            "    def clear(self):\n        self._cache = None",
        )
        assert bad != fx.GOOD_LOCKS
        findings = run(bad, fx.NN_PATH, only="lock-discipline")
        assert names(findings) == ["lock-discipline"]

    def test_checks_subclass_of_a_front_end_in_another_module(self):
        findings = run(fx.BAD_LOCKS_FRONT_END_SUBCLASS, fx.SERVING_PATH, only="lock-discipline")
        assert len(findings) == 1
        assert "Server.reset" in findings[0].message
        assert "_pending" in findings[0].message


class TestStateDictCompleteness:
    def test_fires_on_missing_buffer_in_both_methods(self):
        findings = run(fx.BAD_STATE_DICT_ADAM, fx.LIB_PATH, only="state-dict-completeness")
        assert len(findings) == 2  # _t missing from state_dict AND load_state_dict
        assert all("_t" in f.message for f in findings)

    def test_silent_on_complete_round_trip(self):
        assert run(fx.GOOD_STATE_DICT_ADAM, fx.LIB_PATH, only="state-dict-completeness") == []

    def test_fires_when_subclass_adds_buffer_without_state_dict(self):
        findings = run(fx.BAD_STATE_DICT_SCHED, fx.LIB_PATH, only="state-dict-completeness")
        assert len(findings) == 2
        assert all("seen" in f.message for f in findings)

    def test_config_only_subclass_is_clean(self):
        assert run(fx.GOOD_STATE_DICT_SCHED, fx.LIB_PATH, only="state-dict-completeness") == []

    def test_catches_seeded_adam_regression(self):
        # Mutate the repo's real Adam: drop `t` from both ends of the
        # round-trip and the rule must fire on each.
        real = OPTIM_PY.read_text()
        mutated = real.replace('state["t"] = self._t\n        ', "").replace(
            'self._t = int(state["t"])\n', "pass\n"
        )
        assert mutated != real
        findings = run(mutated, "src/repro/nn/optim.py", only="state-dict-completeness")
        assert len(findings) == 2
        assert all("Adam" in f.message and "_t" in f.message for f in findings)

    def test_repo_optimizers_are_currently_complete(self):
        real = OPTIM_PY.read_text()
        assert run(real, "src/repro/nn/optim.py", only="state-dict-completeness") == []


class TestPublicApi:
    def test_fires_on_ghost_export_and_api_leak(self):
        findings = run(fx.BAD_PUBLIC_API, fx.LIB_PATH, only="public-api")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "ghost" in messages
        assert "leaked" in messages

    def test_silent_with_lazy_getattr_and_private_helpers(self):
        assert run(fx.GOOD_PUBLIC_API, fx.LIB_PATH, only="public-api") == []

    def test_modules_without_all_are_skipped(self):
        assert run("def anything():\n    pass\n", fx.LIB_PATH, only="public-api") == []


class TestPublicDocstring:
    def test_fires_on_bare_export_at_warn_severity(self):
        findings = run(fx.BAD_PUBLIC_DOCSTRING, fx.LIB_PATH, only="public-docstring")
        assert len(findings) == 1
        assert "bare" in findings[0].message
        assert findings[0].severity == "warn"

    def test_silent_on_documented_exports_and_constants(self):
        findings = run(fx.GOOD_PUBLIC_DOCSTRING, fx.LIB_PATH, only="public-docstring")
        assert findings == []

    def test_modules_without_all_are_skipped(self):
        source = "def anything():\n    pass\n"
        assert run(source, fx.LIB_PATH, only="public-docstring") == []

    def test_warn_findings_do_not_gate_the_report(self):
        from repro.analysis.engine import Report

        report = Report()
        analyze_source(
            fx.BAD_PUBLIC_DOCSTRING,
            fx.LIB_PATH,
            resolve_rules(select=["public-docstring"]),
            report=report,
        )
        assert len(report.findings) == 1
        assert report.errors == []
        assert report.clean

    def test_suppression_directive_silences_it(self):
        source = fx.BAD_PUBLIC_DOCSTRING.replace(
            "def bare():", "def bare():  # reprolint: disable=public-docstring"
        )
        assert run(source, fx.LIB_PATH, only="public-docstring") == []


class TestSuppressions:
    def test_matching_rule_suppressed(self):
        assert run(fx.SUPPRESSED_DISPATCH, fx.NN_PATH) == []

    def test_wrong_rule_does_not_suppress(self):
        findings = run(fx.SUPPRESSED_WRONG_RULE, fx.NN_PATH)
        assert names(findings) == ["backend-dispatch"]

    def test_disable_all(self):
        assert run(fx.SUPPRESSED_ALL, fx.NN_PATH) == []

    def test_directive_anywhere_in_multiline_span(self):
        assert run(fx.SUPPRESSED_MULTILINE, fx.NN_PATH) == []


class TestFramework:
    def test_repo_rules_registered(self):
        rules = all_rules()
        assert set(rules) >= {
            "backend-dispatch",
            "determinism",
            "lock-discipline",
            "state-dict-completeness",
            "public-api",
            "public-docstring",
        }
        assert all(r.description for r in rules.values())
        assert all(r.severity in ("error", "warn") for r in rules.values())

    def test_unknown_rule_name_raises(self):
        with pytest.raises(KeyError, match="unknown rule"):
            resolve_rules(select=["no-such-rule"])

    def test_syntax_error_becomes_finding(self):
        findings = analyze_source("def broken(:\n", fx.LIB_PATH)
        assert names(findings) == ["syntax-error"]

    def test_findings_sorted_and_renderable(self):
        findings = run(fx.BAD_DISPATCH, fx.NN_PATH)
        assert findings == sorted(findings)
        line = findings[0].render()
        assert fx.NN_PATH in line and "[backend-dispatch]" in line
