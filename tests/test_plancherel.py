import hashlib
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from documents import loaded, near_miss_growth_documents
from oracles import sample_path_by_fractions
from tropwitt import plancherel
from tropwitt.enriched import theta_space
from tropwitt.errors import DegreeOverflowError, FormatError
from tropwitt.generate import random_metric_space, random_point_eval_space
from tropwitt.partitions import Partition, covers, hook_dimension, partitions_up_to
from tropwitt.plancherel import (
    GrowthPath,
    _thresholds,
    growth_step,
    observe,
    plancherel_measure,
    sample_path,
)
from tropwitt.quantale import ZERO


def P(*parts):
    return Partition(parts)


def test_measure_examples():
    assert plancherel_measure(1) == {P(1): Fraction(1)}
    assert plancherel_measure(3) == {
        P(3): Fraction(1, 6),
        P(2, 1): Fraction(4, 6),
        P(1, 1, 1): Fraction(1, 6),
    }


def test_measure_rejects_out_of_range():
    with pytest.raises(ValueError):
        plancherel_measure(0)
    with pytest.raises(ValueError):
        plancherel_measure(21)


def test_growth_step_examples():
    assert growth_step(P(1)) == {P(2): Fraction(1, 2), P(1, 1): Fraction(1, 2)}
    step = growth_step(P(2, 1))
    assert P(4) not in step  # not a cover: probability zero
    assert set(step) == set(covers(P(2, 1)))


def test_growth_step_sums_to_one():
    for lam in partitions_up_to(10):
        assert sum(growth_step(lam).values()) == 1


def test_growth_step_matches_hook_dimension_ratio():
    # dim(μ)/((|λ|+1)·dim(λ)) from the hook-length formula, cover by cover
    for lam in partitions_up_to(10):
        scale = (lam.size + 1) * hook_dimension(lam)
        want = {mu: Fraction(hook_dimension(mu), scale) for mu in covers(lam)}
        assert list(growth_step(lam).items()) == list(want.items()), lam


def test_sample_path_reproducible_and_valid():
    a = sample_path(8, 42)
    b = sample_path(8, 42)
    assert a == b
    assert a.seed == 42
    assert [lam.size for lam in a.steps] == list(range(1, 9))
    for cur, nxt in zip(a.steps, a.steps[1:]):
        assert nxt in covers(cur)


def test_sample_path_pinned_at_the_step_cap():
    # the JSON of a 500-step path, as sampled with hook_dimension ratios
    text = json.dumps(sample_path(500, 2026).to_json())
    digest = "0ff64c2f230a67162f6abb4545df7a997885bb465430ad342095722b5bb18094"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@given(st.integers(min_value=-(2**70), max_value=2**70), st.integers(min_value=1, max_value=80))
def test_sample_path_matches_the_fraction_walk(seed, steps):
    assert sample_path(steps, seed) == sample_path_by_fractions(steps, seed)


def test_thresholds_are_the_ceilings_of_the_cumulative_sums():
    for lam in partitions_up_to(10):
        mus, thresholds = _thresholds(lam)
        step = growth_step(lam)
        assert mus == tuple(step)
        acc = Fraction(0)
        for mu, t in zip(mus, thresholds):
            acc += step[mu]
            assert t == math.ceil(acc * 2**64), (lam, mu)
        assert thresholds[-1] == 2**64


class _Draws:
    """Stands in for ``random.Random``: hands out the given draws in turn."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def getrandbits(self, k):
        assert k == 64
        return next(self._draws)


@pytest.mark.parametrize("draw, cover", [(0, P(2)), (2**63 - 1, P(2)), (2**63, P(1, 1)), (2**64 - 1, P(1, 1))])
def test_sample_path_at_the_one_half_threshold(monkeypatch, draw, cover):
    # both covers of (1) have probability 1/2, so the first threshold is 2⁶³
    assert list(growth_step(P(1)).items()) == [(P(2), Fraction(1, 2)), (P(1, 1), Fraction(1, 2))]
    assert _thresholds(P(1)) == ((P(2), P(1, 1)), (2**63, 2**64))
    assert sample_path_by_fractions(2, 0, _Draws([draw])).steps == (P(1), cover)
    monkeypatch.setattr(plancherel, "random", SimpleNamespace(Random=lambda seed: _Draws([draw])))
    assert sample_path(2, 0).steps == (P(1), cover)


def test_different_seeds_differ_eventually():
    paths = {sample_path(7, seed).steps for seed in range(12)}
    assert len(paths) > 1


def test_sample_path_rejects_zero_steps():
    with pytest.raises(ValueError):
        sample_path(0, 1)


def test_growth_path_json_round_trip():
    path = sample_path(5, 7)
    assert GrowthPath.from_json(path.to_json()) == path


@pytest.mark.parametrize(
    "data",
    [
        {"seed": "12", "steps": [[1]]},
        {"seed": True, "steps": [[1]]},
        {"seed": 1.7, "steps": [[1]]},
        {"seed": 1, "steps": [[1], [3]]},
        {"seed": 1, "steps": [[2], [3]]},
        {"seed": 1, "steps": []},
        {"seed": 1, "steps": "1"},
        {"seed": 1, "steps": [[1], [0]]},
        {"seed": 1, "steps": [[1], [True, 1]]},
    ],
)
def test_growth_path_from_json_rejects_bad_input(data):
    with pytest.raises(FormatError):
        GrowthPath.from_json(data)


@given(near_miss_growth_documents())
@example({"seed": 1, "steps": [[1], [10**5000]]})
def test_growth_path_loader_on_near_miss_documents(data):
    got = loaded(GrowthPath.from_json, data)
    assert got is FormatError or GrowthPath.from_json(got.to_json()) == got


def test_observe_on_theta_image_flags_rows_only():
    rng = random.Random(3)
    space = theta_space(random_metric_space(rng, ("a", "b", "c")), 6)
    path = sample_path(6, 11)
    steps = observe(space, path)
    assert len(steps) == 6
    for got, lam in zip(steps, path.steps):
        assert got.partition == lam
        assert got.is_metric == lam.is_row()


def test_observe_flags_never_recover_for_theta_images():
    # once the path leaves the single-row spine it never returns
    rng = random.Random(5)
    space = theta_space(random_metric_space(rng, ("a", "b")), 6)
    for seed in range(20):
        flags = [s.is_metric for s in observe(space, sample_path(6, seed))]
        if False in flags:
            first = flags.index(False)
            assert not any(flags[first:])


def test_observe_one_point_space():
    space = theta_space(random_metric_space(random.Random(7), ("pt",)), 4)
    steps = observe(space, sample_path(4, 2))
    for s in steps:
        assert set(s.table) == {("pt", "pt")}


def test_observe_nonrow_slices_can_stay_metric_for_point_eval_spaces():
    rng = random.Random(9)
    space = random_point_eval_space(rng, ("a", "b"), 6)
    # diagonal entries evaluate to 0 on every stored partition, so each
    # observed slice keeps zero self-distance
    path = sample_path(6, 13)
    for step in observe(space, path):
        for x in space.points:
            assert step.table[(x, x)] == ZERO or not step.partition.is_row()


def test_observe_rejects_paths_beyond_bound():
    rng = random.Random(11)
    space = theta_space(random_metric_space(rng, ("a", "b")), 3)
    with pytest.raises(DegreeOverflowError):
        observe(space, sample_path(4, 1))
