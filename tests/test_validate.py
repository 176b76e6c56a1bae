import math

import pytest

from quatgrad import validate
from quatgrad.validate import CheckResult, SuiteReport, _tally, run_suites

NAN = math.nan


# -- a NaN error is the worst error, wherever it sits ---------------------------

def test_tally_nan_is_worst_in_either_order():
    for errors in ([0.5, NAN], [NAN, 0.5]):
        check = _tally("x", errors, 1.0)
        assert (check.passed, check.failed) == (1, 1)
        assert math.isnan(check.worst_error), errors


def test_suite_report_nan_is_worst_in_either_order():
    passing = CheckResult("passing", 3, 0, 0.1)
    broken = CheckResult("broken", 0, 1, NAN)
    for checks in ([passing, broken], [broken, passing]):
        report = SuiteReport("s", checks)
        assert not report.ok
        assert math.isnan(report.worst_error), [c.name for c in checks]


def test_worst_error_without_nan_is_the_largest():
    assert _tally("x", [0.5, 2.0, 1.0], 1.0).worst_error == 2.0
    assert _tally("x", [], 1.0).worst_error == 0.0
    assert SuiteReport("s", [CheckResult("a", 1, 0, 0.1),
                             CheckResult("b", 1, 0, 0.3)]).worst_error == 0.3


# -- the runner -------------------------------------------------------------------

def test_run_suites_rejects_unknown_name_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setitem(validate._SUITES, "algebra",
                        lambda rng: ran.append(rng) or iter(()))
    with pytest.raises(ValueError, match="nonsense"):
        run_suites(("algebra", "nonsense"))
    assert ran == []


def test_run_suites_seeds_each_suite_afresh():
    first, second = run_suites(("algebra", "algebra"), 3)
    assert first == second
    assert first.suite == "algebra" and first.ok
    assert first.checks[0].name == "multiplication table (exact)"
