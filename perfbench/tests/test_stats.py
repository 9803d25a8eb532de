import pytest

from perfbench.stats import InsufficientSamples, percentile, windowed_percentile


def test_p95_needs_ten_samples_beyond_its_rank():
    assert percentile(range(200), 95) == 189.0
    with pytest.raises(InsufficientSamples):
        percentile(range(199), 95)


def test_median_needs_ten_samples_above_it():
    assert percentile(range(1, 21), 50) == 10.0
    with pytest.raises(InsufficientSamples):
        percentile(range(19), 50)


def test_refuses_empty_and_out_of_range_requests():
    with pytest.raises(InsufficientSamples):
        percentile([], 50, min_beyond=0)
    for q in (0, 100, -1, 101):
        with pytest.raises(ValueError):
            percentile(range(1000), q)


def test_nearest_rank_returns_a_sample_regardless_of_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50, min_beyond=2) == 3.0
    assert percentile(values, 60, min_beyond=2) == 3.0
    with pytest.raises(InsufficientSamples):
        percentile(values, 70, min_beyond=2)


def test_windowed_percentile_ignores_one_disturbed_window():
    steady = [float(i % 100) for i in range(200)]
    disturbed = [10.0 * x for x in steady]
    values = steady + disturbed + steady
    assert windowed_percentile(values, 95) == percentile(steady, 95)


def test_windowed_percentile_refuses_what_a_window_cannot_support():
    with pytest.raises(InsufficientSamples):
        windowed_percentile(range(199), 95)
    with pytest.raises(InsufficientSamples):
        windowed_percentile(range(49), 50)
    # 399 samples make one window, which supports p95 on its own.
    assert windowed_percentile(range(399), 95) == percentile(range(399), 95)
    # 100 samples make two median windows: medians 24 and 74.
    assert windowed_percentile(range(100), 50) == 49.0
