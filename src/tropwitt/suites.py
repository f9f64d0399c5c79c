"""Executable law suites: every proposition the library claims, as checks.

Each suite returns exact pass/fail counts; the CLI's ``suite run`` and the
acceptance tests both call these functions, so there is a single place
where the laws are spelled out.  All arithmetic is exact; a failure lists
the witness that broke.  The structure tables are not laws: the tests
check them against brute-force routes kept in ``tests/oracles.py``.

Each suite fixes its degree bound and its sample counts in its body and
takes only a seed, so ``suite run``, the acceptance gate and the benchmark
run the same checks.  A suite reads each public name beyond the base
modules as ``T.<name>``, which loads just its module, so one suite loads
only what it computes with.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import tropwitt as T

# the base modules, which the CLI loads anyway; the residuation suite reads
# leq, monus and tropical_* in its innermost loop
from .partitions import EMPTY, Partition, partitions_of, partitions_up_to
from .quantale import INF, ZERO, LValue, _ratio, leq, monus, tropical_add, tropical_mul
from .report import DEFAULT_SEED

_MAX_FAILURES = 12


class SuiteResult:
    def __init__(self, name: str, module: str) -> None:
        self.name = name
        self.module = module
        self.passed = 0
        self.failed = 0
        self.failures: list[str] = []
        self.seconds = 0.0  # wall time of the run

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, cond: bool, label: str | Callable[[], str]) -> None:
        """Count one check.  A failure records its label, the first
        _MAX_FAILURES of them; a callable label is formatted only then."""
        if cond:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < _MAX_FAILURES:
                self.failures.append(label() if callable(label) else label)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "module": self.module,
            "passed": self.passed,
            "failed": self.failed,
            "failures": self.failures,
            "seconds": self.seconds,
        }


class _Suite(NamedTuple):
    """A registered law: ``suite(seed)`` runs it on a fresh ``SuiteResult``
    tagged with the suite's name and module."""

    name: str
    module: str
    law: Callable[[SuiteResult, int], None]

    def __call__(self, seed: int = DEFAULT_SEED) -> SuiteResult:
        res = SuiteResult(self.name, self.module)
        start = time.perf_counter()
        self.law(res, seed)
        res.seconds = time.perf_counter() - start
        return res


# every suite, by name, in the order `run_all` runs them
SUITES: dict[str, _Suite] = {}


def _suite(name: str, module: str):
    def register(law) -> _Suite:
        SUITES[name] = _Suite(name, module, law)
        return SUITES[name]

    return register


def _rationals_with_units(rng: random.Random, count: int) -> list[LValue]:
    from . import generate

    values = [ZERO, INF]
    while len(values) < count:
        values.append(generate.random_rational(rng))
    return values


# -- 1: identities carried over from the source formulas -------------------------


@_suite("identities", "symfunc")
def suite_identities(res: SuiteResult, seed: int) -> None:
    N = 8
    m = lambda *parts: T.monomial(Partition(parts), N)
    one = T.SymFunc.one(N)

    for n in range(1, N + 1):
        cop = T.coproduct_add(m(n))
        expected = {
            (Partition([n]), EMPTY): 1,
            (EMPTY, Partition([n])): 1,
        }
        res.check(
            dict(cop.items()) == expected, f"coproduct_add(m({n})) two-term form"
        )
    cop21 = T.coproduct_add(m(2, 1))
    expected21 = {
        (Partition([2, 1]), EMPTY): 1,
        (Partition([2]), Partition([1])): 1,
        (Partition([1]), Partition([2])): 1,
        (EMPTY, Partition([2, 1])): 1,
    }
    res.check(dict(cop21.items()) == expected21, "coproduct_add(m(2,1)) four-term form")

    for n in range(1, N + 1):
        cop = T.coproduct_mult(m(n))
        res.check(
            dict(cop.items()) == {(Partition([n]), Partition([n])): 1},
            f"coproduct_mult(m({n})) = m({n})⊗m({n})",
        )

    for lam in partitions_up_to(6):
        f = T.monomial(lam, N)
        res.check(
            T.counit_add(f) == (1 if lam.is_empty() else 0),
            f"counit_add(m{lam})",
        )
        res.check(
            T.counit_mult(f) == (1 if lam.is_empty() or lam.is_row() else 0),
            f"counit_mult(m{lam})",
        )

    for n in range(1, N + 1):
        total = T.SymFunc.zero(N)
        for lam in partitions_of(n):
            total = total + T.monomial(lam, N)
        res.check(T.complete(n, N) == total, f"h_{n} = sum of m over size {n}")

    for n in range(1, N + 1):
        for np in range(1, N + 1):
            if n * np > N:
                continue
            res.check(
                T.plethysm(m(n), m(np)) == T.monomial(Partition([n * np]), N),
                f"m({n}) ∘ m({np}) = m({n * np})",
            )
    res.check(T.plethysm(m(2), m(3)) == m(6), "composition sends rows to their product")
    res.check(one * m(2, 1) == m(2, 1), "multiplicative unit")


# -- 2: rig laws in the Witt rig -------------------------------------------------


@_suite("witt-rig-laws", "witt")
def suite_witt_rig_laws(res: SuiteResult, seed: int) -> None:
    from . import generate

    N = 6
    TRIPLES = 200
    rng = random.Random(seed)
    zero = T.additive_unit(N)
    one = T.multiplicative_unit(N)
    for i in range(TRIPLES):
        f = generate.random_witt_elem(rng, N)
        g = generate.random_witt_elem(rng, N)
        h = generate.random_witt_elem(rng, N)
        res.check(f.add(g) == g.add(f), f"add commutative #{i}")
        res.check(f.mul(g) == g.mul(f), f"mul commutative #{i}")
        res.check(f.add(g).add(h) == f.add(g.add(h)), f"add associative #{i}")
        res.check(f.mul(g).mul(h) == f.mul(g.mul(h)), f"mul associative #{i}")
        res.check(
            f.mul(g.add(h)) == f.mul(g).add(f.mul(h)), f"distributivity #{i}"
        )
        res.check(f.add(zero) == f, f"additive unit #{i}")
        res.check(f.mul(one) == f, f"multiplicative unit #{i}")


# -- 3: the scalar embedding is monoidal and lands in valid elements ----------------


@_suite("theta-functor", "witt")
def suite_theta_functor(res: SuiteResult, seed: int) -> None:
    from . import generate

    N = 8
    PAIRS = 200
    rng = random.Random(seed)
    values = _rationals_with_units(rng, PAIRS)
    res.check(T.theta(ZERO, N) == T.multiplicative_unit(N), "theta(0) is the unit")
    boundary = [
        (ZERO, ZERO),
        (ZERO, INF),
        (INF, INF),
        (ZERO, generate.random_rational(rng)),
        (INF, generate.random_rational(rng)),
    ]
    for i in range(PAIRS):
        if i < len(boundary):
            r, rp = boundary[i]
        else:
            r = values[rng.randrange(len(values))]
            rp = values[rng.randrange(len(values))]
        res.check(T.theta(r, N).validate().ok, f"theta({r}) validates #{i}")
        res.check(
            T.theta(r, N).mul(T.theta(rp, N)) == T.theta(r + rp, N),
            f"theta({r})·theta({rp}) = theta({r}+{rp}) #{i}",
        )
        lo, hi = (r, rp) if leq(r, rp) else (rp, r)
        res.check(
            T.theta(lo, N).leq(T.theta(hi, N)), f"theta monotone at ({r},{rp}) #{i}"
        )


# -- 4: the two negative results, reproduced exactly ---------------------------------


@_suite("negative-results", "witt")
def suite_negative_results(res: SuiteResult, seed: int) -> None:
    from . import generate

    N = 6
    PAIRS = 50
    rng = random.Random(seed)
    lam = Partition([2, 1])
    one = T.multiplicative_unit(N)
    doubled = one.add(one)
    res.check(doubled.value(lam) == ZERO, "unit ⊕ unit hits 0 at (2,1)")
    res.check(one.value(lam) == INF, "unit itself is ∞ at (2,1)")
    res.check(doubled != one, "the rig is not of characteristic one")
    for i in range(PAIRS):
        r = generate.random_rational(rng)
        rp = generate.random_rational(rng)
        got = T.theta(r, N).add(T.theta(rp, N)).value(lam)
        want = tropical_add(2 * r + rp, r + 2 * rp)
        res.check(got == want, f"(θ{r} ⊕ θ{rp})(m(2,1)) = min(2r+r', r+2r') #{i}")
        res.check(
            T.theta(tropical_add(r, rp), N).value(lam) == INF
            and got != INF,
            f"θ(min) differs from θ⊕θ at (2,1) for ({r},{rp}) #{i}",
        )


# -- 5: adjunction between the embedding and the initial value ------------------------


@_suite("adjunction", "witt")
def suite_adjunction(res: SuiteResult, seed: int) -> None:
    from . import generate

    N = 6
    SAMPLES = 500
    rng = random.Random(seed)
    for i in range(SAMPLES):
        f = generate.random_witt_elem(rng, N, max_points=4)
        if rng.random() < 0.25:
            f = f.mul(generate.random_witt_elem(rng, N, max_points=2))
        if not f.is_lipschitz():
            res.check(False, f"generated element outside the adjunction domain #{i}")
            continue
        mode = i % 3
        if mode == 0:
            r = T.tau(f)  # boundary case
        elif mode == 1:
            r = generate.random_lvalue(rng)
        else:
            r = T.tau(f) + generate.random_rational(rng, 4)
        lhs = T.theta(r, N).leq(f)
        rhs = leq(r, T.tau(f))
        res.check(lhs == rhs, f"adjunction at r={r}, tau={T.tau(f)} #{i}")


# -- 6: enriched axioms and slice propositions -----------------------------------------


@_suite("enriched-axioms", "enriched")
def suite_enriched(res: SuiteResult, seed: int) -> None:
    from . import generate

    N = 6
    SPACES = 50
    rng = random.Random(seed)
    labels = ("a", "b", "c", "d")
    saw_nonzero_self = False
    for i in range(SPACES):
        if i % 2 == 0:
            space = generate.random_theta_space(rng, labels, N)
        else:
            space = generate.random_point_eval_space(rng, labels, N)
        res.check(space.validate().ok, f"space #{i} validates")
        for n in range(1, N + 1):
            row = T.table_space(space, T.slice_table(space, Partition([n])))
            res.check(row.validate().ok, f"space #{i} slice ({n}) is metric")
            hn = T.table_space(space, T.slice_complete(space, n))
            res.check(hn.validate().ok, f"space #{i} complete slice {n} is metric")
        for lam in partitions_up_to(N):
            if lam.is_empty():
                continue
            table = T.slice_table(space, lam)
            ok = all(
                table[(x, z)] <= table[(x, y)] + table[(y, z)]
                for x in labels
                for y in labels
                for z in labels
            )
            res.check(ok, f"space #{i} slice {lam} triangle inequality")
            if not lam.is_row() and any(
                table[(x, x)] != ZERO and table[(x, x)] != INF for x in labels
            ):
                saw_nonzero_self = True
    res.check(
        saw_nonzero_self, "some generated slice has finite nonzero self-distance"
    )


# -- 7: point evaluation turns unions into sums ------------------------------------------


@_suite("root-calculus", "witt")
def suite_root_calculus(res: SuiteResult, seed: int) -> None:
    from . import generate

    N = 6
    SAMPLES = 100
    rng = random.Random(seed)
    for i in range(SAMPLES):
        a = [generate.random_rational(rng) for _ in range(rng.randint(1, 3))]
        b = [generate.random_rational(rng) for _ in range(rng.randint(1, 3))]
        fa, fb = T.from_points(a, N), T.from_points(b, N)
        res.check(
            fa.add(fb) == T.from_points(a + b, N),
            f"addition is multiset union #{i}",
        )
        res.check(
            fa.mul(fb) == T.from_points([x + y for x in a for y in b], N),
            f"multiplication is pairwise sum #{i}",
        )


# -- 8: truncated subtraction is the internal hom -----------------------------------------


@_suite("residuation", "quantale")
def suite_residuation(res: SuiteResult, seed: int) -> None:
    grid = sorted(
        {_ratio(p, q) for p in range(13) for q in (1, 2, 3)}
    ) + [INF]
    for x in grid:
        for y in grid:
            # the order is definable from addition alone
            res.check(
                leq(x, y) == (tropical_add(x, y) == y),
                lambda: f"order vs addition at x={x}, y={y}",
            )
            for z in grid:
                lhs = leq(tropical_mul(x, z), y)
                rhs = leq(z, monus(y, x))
                # 22,736 checks: format a label only for a failure
                res.check(lhs == rhs, lambda: f"residuation at x={x}, y={y}, z={z}")


# -- 9: measure and growth-chain identities ------------------------------------------------


@_suite("plancherel", "plancherel")
def suite_plancherel(res: SuiteResult, seed: int) -> None:
    PATHS = 10_000
    for n in range(1, 13):
        total = sum(T.plancherel_measure(n).values())
        res.check(total == 1, f"measure on size {n} sums to 1")
    for n in range(1, 9):
        pushed: dict[Partition, Fraction] = {}
        for lam, p in T.plancherel_measure(n).items():
            for mu, q in T.growth_step(lam).items():
                pushed[mu] = pushed.get(mu, Fraction(0)) + p * q
        res.check(
            pushed == T.plancherel_measure(n + 1),
            f"pushforward of size-{n} measure is the size-{n + 1} measure",
        )
    res.check(
        T.sample_path(6, seed) == T.sample_path(6, seed), "same seed, same path"
    )

    horizon = 5
    counts: dict[int, dict[Partition, int]] = {
        n: {} for n in range(1, horizon + 1)
    }
    for i in range(PATHS):
        path = T.sample_path(horizon, seed + i)
        for n, lam in enumerate(path.steps, start=1):
            counts[n][lam] = counts[n].get(lam, 0) + 1
    for n in range(1, horizon + 1):
        for lam, p in T.plancherel_measure(n).items():
            freq = Fraction(counts[n].get(lam, 0), PATHS)
            sigma = (float(p) * (1 - float(p)) / PATHS) ** 0.5
            res.check(
                abs(float(freq - p)) <= 3 * sigma + 1e-12,
                f"marginal at size {n}, partition {lam}: freq {float(freq):.4f} "
                f"vs exact {float(p):.4f}",
            )


def run_all(module: str | None = None, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run every suite (optionally only those tagged with one module)."""
    return [
        suite(seed)
        for suite in SUITES.values()
        if module is None or suite.module == module
    ]
