"""Acceptance gate: the nine headline checks, at their full stated scale.

Each test runs one named law suite and prints a single summary line, so a
`pytest -s tests/test_acceptance.py` gives one PASS/FAIL line per item.
The same suites back the CLI's `suite run`.
"""

import time

from tropwitt import suites


def _run(name: str, minimum_checks: int) -> suites.SuiteResult:
    result = suites.SUITES[name]()
    status = "PASS" if result.ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({result.passed} checks)")
    for failure in result.failures:
        print(f"    {failure}")
    assert result.failed == 0, f"{name}: {result.failures}"
    assert result.passed >= minimum_checks
    return result


def test_01_identity_suite():
    # coproduct expansions, counit values, complete elements, row compositions
    _run("identities", minimum_checks=8 + 1 + 8 + 2 * 29 + 8 + 10)


def test_02_witt_rig_laws():
    # seven laws on each of at least 200 random point-evaluation triples
    _run("witt-rig-laws", minimum_checks=200 * 7)


def test_03_theta_theorem():
    # validation plus multiplicativity and monotonicity per sampled pair
    _run("theta-functor", minimum_checks=200 * 3)


def test_04_negative_results():
    _run("negative-results", minimum_checks=3 + 2 * 50)


def test_05_adjunction():
    _run("adjunction", minimum_checks=500)


def test_06_enriched_propositions():
    _run("enriched-axioms", minimum_checks=50 * (1 + 2 * 6 + 29))


def test_07_root_calculus():
    _run("root-calculus", minimum_checks=100 * 2)


def test_08_residuation():
    # exhaustive grid of rationals plus infinity, cubed
    _run("residuation", minimum_checks=26**3)


def test_09_plancherel():
    start = time.monotonic()
    _run("plancherel", minimum_checks=12 + 8 + 1 + 18)
    assert time.monotonic() - start < 60

