"""The diff and verdict logic of ``scripts/audit_behaviour_delta.py``."""

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "audit_behaviour_delta.py"


@pytest.fixture(scope="module")
def audit():
    spec = importlib.util.spec_from_file_location("audit_behaviour_delta", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _case(dispatches=10.0, mtps=5.0, ok=True):
    return {"instrumented": {
        "result": {"phases": {"Set": {"repetitions": [
            {"mtps": mtps, "invariants": {"ok": ok, "violations": []}}]}}},
        "metrics": {"counters": {"sim/sim.dispatches": {"value": dispatches}}},
        "trace": {"digest": "abc"},
    }}


def _observed(**cases):
    return {"repro": "src/repro", "cases": cases}


def test_identical_trees_pass(audit, capsys):
    assert audit.audit(_observed(a=_case()), _observed(a=_case()), frozenset()) == 0
    assert "same a" in capsys.readouterr().out


def test_an_allowed_field_may_change(audit, capsys):
    problems = audit.audit(_observed(a=_case(10.0)), _observed(a=_case(8.0)),
                           frozenset({"sim.dispatches"}))
    assert problems == 0
    assert ("allowed a: instrumented/metrics/counters/sim/sim.dispatches/value: 10.0 -> 8.0"
            in capsys.readouterr().out)


def test_any_other_changed_field_fails(audit, capsys):
    problems = audit.audit(_observed(a=_case(mtps=5.0)), _observed(a=_case(mtps=6.0)),
                           frozenset({"sim.dispatches"}))
    assert problems == 1
    assert "FAIL a: instrumented/result/phases/Set/repetitions/0/mtps: 5.0 -> 6.0" in (
        capsys.readouterr().out)


def test_a_failed_oracle_fails_even_without_a_delta(audit):
    assert audit.audit(_observed(a=_case(ok=False)), _observed(a=_case(ok=False)),
                       frozenset()) == 2


def test_a_case_without_an_invariant_report_fails(audit):
    unchecked = {"instrumented": {"result": {"phases": {}}}}
    assert audit.oracle_failures(unchecked) == ["<no invariant report>"]


def test_a_case_missing_from_one_tree_fails(audit):
    assert audit.audit(_observed(a=_case()), _observed(a=_case(), b=_case()),
                       frozenset()) == 1


def test_fields_present_on_one_side_only_are_changes(audit):
    assert audit.changed_fields({"x": [1, 2]}, {"x": [1]}) == [(("x", "1"), 2, "<absent>")]
