import hashlib
import json
import random
from fractions import Fraction

import pytest

from tropwitt.enriched import theta_space
from tropwitt.errors import DegreeOverflowError, FormatError
from tropwitt.generate import random_metric_space, random_point_eval_space
from tropwitt.partitions import Partition, covers, hook_dimension, partitions_up_to
from tropwitt.plancherel import (
    GrowthPath,
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


@pytest.mark.parametrize("n", range(1, 13))
def test_measure_sums_to_one(n):
    assert sum(plancherel_measure(n).values()) == 1


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


@pytest.mark.parametrize("n", range(1, 9))
def test_pushforward_is_next_measure(n):
    pushed = {}
    for lam, p in plancherel_measure(n).items():
        for mu, q in growth_step(lam).items():
            pushed[mu] = pushed.get(mu, Fraction(0)) + p * q
    assert pushed == plancherel_measure(n + 1)


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


def test_marginal_matches_measure_small_sample():
    # a light version of the acceptance check: size-3 marginal over 2000 paths
    paths = 2000
    counts = {}
    for i in range(paths):
        lam = sample_path(3, 1000 + i).steps[-1]
        counts[lam] = counts.get(lam, 0) + 1
    for lam, p in plancherel_measure(3).items():
        freq = counts.get(lam, 0) / paths
        sigma = (float(p) * (1 - float(p)) / paths) ** 0.5
        assert abs(freq - float(p)) <= 4 * sigma
