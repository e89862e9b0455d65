"""Percentiles and the sample-support rule."""

from pipebench.stats import percentile, supported


def test_support_needs_ten_samples_beyond_the_percentile():
    assert not supported(999, 99)
    assert supported(1000, 99)
    assert supported(20, 50) and not supported(19, 50)
    assert not supported(0, 50)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 99) == 3.0
    assert percentile([5, 1, 3], 50) == 3

