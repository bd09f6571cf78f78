"""Timing harness sanity: monotone-ish cost and the complexity envelope."""

import numpy as np
import pytest

from gpnav import bench
from gpnav.bench import bench_barrier, max_dataset_size, random_dataset


def test_sizes_validate():
    with pytest.raises(ValueError):
        bench_barrier([0], repetitions=2)


def test_random_dataset_keeps_min_spacing():
    rng = np.random.default_rng(0)
    points, velocities = random_dataset(rng, 40)
    assert points.shape == (40, 2) and velocities.shape == (40, 2)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= 0.2


def test_sizes_over_the_placement_bound_raise_before_any_work(monkeypatch):
    # random placement at 0.2 m jams near 1,700 points in the 10 x 10 m
    # square and then never returns; the bound stays well below that
    limit = max_dataset_size()
    assert limit == 1000

    def refuse(*args, **kwargs):
        raise AssertionError("placed or evaluated a dataset")

    monkeypatch.setattr(bench, "random_dataset", refuse)
    with pytest.raises(ValueError, match=f"1..{limit}, got {limit + 1}"):
        bench_barrier([5, limit + 1], repetitions=1)

    class NoDraws:
        uniform = staticmethod(refuse)

    rng = NoDraws()
    with pytest.raises(ValueError, match=f"{limit + 1} is over {limit}"):
        random_dataset(rng, limit + 1)
    small = max_dataset_size(spread=3.0)
    with pytest.raises(ValueError, match=f"{small + 1} is over {small}"):
        random_dataset(rng, small + 1, spread=3.0)


def test_single_point_no_slower_than_thirty():
    rows = bench_barrier([1, 30], repetitions=30, seed=1)
    assert rows[0].mean_ms <= rows[1].mean_ms + 0.05


def test_doubling_envelope():
    # 15 -> 30 -> 60: full evaluation cost grows no worse than ~cubic,
    # i.e. at most a factor 10 per doubling (generous: numpy overhead
    # dominates at these sizes)
    rows = bench_barrier([15, 30, 60], repetitions=30, seed=2)
    assert rows[1].mean_ms <= 10.0 * rows[0].mean_ms
    assert rows[2].mean_ms <= 10.0 * rows[1].mean_ms
