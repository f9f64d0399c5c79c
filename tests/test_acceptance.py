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
    # Δ+ of m(1)..m(8) and of m(2,1), Δ× of m(1)..m(8), both counits on the
    # 30 partitions of size at most 6 (∅ included), h_1..h_8, the 20 row
    # compositions m(n) ∘ m(n') with nn' ≤ 8, then m(2) ∘ m(3) and the unit
    _run("identities", minimum_checks=8 + 1 + 8 + 2 * 30 + 8 + 20 + 2)


def test_02_witt_rig_laws():
    # seven laws on each of at least 200 random point-evaluation triples
    _run("witt-rig-laws", minimum_checks=200 * 7)


def test_03_theta_theorem():
    # θ(0) is the unit, then validation plus multiplicativity and
    # monotonicity per sampled pair
    _run("theta-functor", minimum_checks=1 + 200 * 3)


def test_04_negative_results():
    _run("negative-results", minimum_checks=3 + 2 * 50)


def test_05_adjunction():
    _run("adjunction", minimum_checks=500)


def test_06_enriched_propositions():
    # per space: validation, its row and complete slices of sizes 1..6, the
    # triangle on its 29 nonempty slices; then one finite nonzero self-distance
    _run("enriched-axioms", minimum_checks=50 * (1 + 2 * 6 + 29) + 1)


def test_07_root_calculus():
    _run("root-calculus", minimum_checks=100 * 2)


def test_08_residuation():
    # the 27 values p/q, p ≤ 12, q ≤ 3, and ∞: the order against addition on
    # each pair, residuation on each triple
    _run("residuation", minimum_checks=28**2 + 28**3)


def test_09_plancherel():
    start = time.monotonic()
    _run("plancherel", minimum_checks=12 + 8 + 1 + 18)
    assert time.monotonic() - start < 60

