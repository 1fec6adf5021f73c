import numpy as np
import pytest
from scipy import stats

from dpgs.exceptions import PreconditionViolated, SubsetTooLarge
from dpgs.randomness import RngStream, sphere_batch, sphere_point, subset_indices


def test_same_stream_reproduces():
    a = sphere_point(RngStream(42, 3).generator(), 7)
    b = sphere_point(RngStream(42, 3).generator(), 7)
    assert np.array_equal(a, b)
    ga = RngStream(1, 0).generator().standard_normal(2)
    gb = RngStream(1, 0).generator().standard_normal(2)
    assert np.array_equal(ga, gb)


def test_distinct_streams_differ():
    a = sphere_point(RngStream(42, 0).generator(), 7)
    b = sphere_point(RngStream(42, 1).generator(), 7)
    c = sphere_point(RngStream(43, 0).generator(), 7)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_streams_are_disjoint():
    base = RngStream(5)
    kids = {base.child(i) for i in range(20)}
    assert len(kids) == 20
    assert base not in kids


def test_unit_sphere_has_unit_norm():
    for n in (1, 2, 3, 10, 100):
        v = sphere_point(RngStream(0, n).generator(), n)
        assert v.shape == (n,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_unit_sphere_dim_one_is_sign():
    vals = {float(sphere_point(RngStream(0, i).generator(), 1)[0]) for i in range(40)}
    assert vals <= {-1.0, 1.0}
    assert len(vals) == 2


@pytest.mark.parametrize("n", [0, -1])
def test_sphere_point_rejects_empty_dimension(n):
    # standard_normal(0) has norm 0, so without the guard the resample loop
    # would never return
    with pytest.raises(PreconditionViolated):
        sphere_point(np.random.default_rng(0), n)


def test_sphere_first_coordinate_uniform_in_dim_three():
    # first coordinate of a uniform point on S^2 is uniform on [-1, 1]
    gen = np.random.default_rng(2024)
    pts = sphere_batch(gen, 3, 100_000)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    ks = stats.kstest(pts[:, 0], stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert ks.statistic <= 0.01


def test_uniform_subset_sorted_distinct_in_range():
    for i in range(30):
        s = subset_indices(RngStream(9, i).generator(), 50, 12)
        assert s.shape == (12,)
        assert np.all(np.diff(s) > 0)
        assert s.min() >= 0 and s.max() < 50


def test_uniform_subset_full_set():
    # m == n has one answer, so it is returned without a draw; m < n draws
    gen = RngStream(1, 1).generator()
    before = gen.bit_generator.state
    for n in (0, 1, 3, 428):
        full = subset_indices(gen, n, n)
        assert full.dtype == np.int64
        assert np.array_equal(full, np.arange(n))
    assert gen.bit_generator.state == before
    subset_indices(gen, 3, 2)
    assert gen.bit_generator.state != before


def test_uniform_subset_too_large():
    with pytest.raises(SubsetTooLarge):
        subset_indices(RngStream(0).generator(), 4, 5)


def test_subset_indices_frequencies():
    # singleton from {0..4}: each index should land near probability 1/5
    gen = np.random.default_rng(555)
    counts = np.zeros(5)
    trials = 100_000
    for _ in range(trials):
        counts[subset_indices(gen, 5, 1)[0]] += 1
    assert np.all(np.abs(counts / trials - 0.2) <= 0.01)


def test_subset_indices_pair_inclusion():
    # every element of {0..3} appears in a 2-subset with probability 1/2
    gen = np.random.default_rng(556)
    hit = np.zeros(4)
    trials = 40_000
    for _ in range(trials):
        hit[subset_indices(gen, 4, 2)] += 1
    assert np.all(np.abs(hit / trials - 0.5) <= 0.015)
