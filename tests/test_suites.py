"""The suite runner's bookkeeping: counts, labels and the failure cap."""

from tropwitt import suites
from tropwitt.quantale import ZERO
from tropwitt.suites import SuiteResult


def test_the_nine_suites_in_run_order():
    assert list(suites.SUITES) == [
        "identities", "witt-rig-laws", "theta-functor", "negative-results", "adjunction",
        "enriched-axioms", "root-calculus", "residuation", "plancherel",
    ]


def test_a_failing_check_records_its_formatted_label():
    res = SuiteResult("s", "m")
    calls = []

    def label():
        calls.append(None)
        return "x=1/3"

    res.check(True, label)
    assert calls == []  # a passing check formats nothing
    res.check(False, label)
    res.check(False, "plain")
    assert (res.passed, res.failed, res.failures) == (1, 2, ["x=1/3", "plain"])
    assert calls == [None]
    assert not res.ok


def test_failures_are_capped_at_twelve():
    res = SuiteResult("s", "m")
    for i in range(20):
        res.check(False, lambda: f"#{i}")
    for i in range(3):
        res.check(False, f"plain #{i}")
    assert res.failed == 23
    assert res.failures == [f"#{i}" for i in range(12)]
    assert res.to_json()["failures"] == res.failures


def test_residuation_failures_name_their_witness(monkeypatch):
    # with y ⊖ x read as 0, z ≼ y ⊖ x always holds; x + z ≼ y does not
    monkeypatch.setattr(suites, "monus", lambda y, x: ZERO)
    res = suites.SUITES["residuation"]()
    assert res.failed > 12
    assert res.failures[:2] == [
        "residuation at x=0, y=1/3, z=0",
        "residuation at x=0, y=1/2, z=0",
    ]
    assert len(res.failures) == 12
