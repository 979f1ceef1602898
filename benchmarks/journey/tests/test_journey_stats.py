"""The percentile rule and the contract's spread statistic."""

import statistics

import numpy as np
import pytest

import stats


@pytest.mark.parametrize(
    "n, expected",
    [(5, 50.0), (19, 50.0), (20, 50.0), (48, 100.0 * 38 / 48), (1600, 99.375)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    q = stats.tail_percentile(n)
    assert q == pytest.approx(expected)
    assert n * (100.0 - q) / 100.0 >= min(stats.TAIL_SAMPLES_BEYOND, n / 2) - 1e-9


def test_median_and_tail_says_how_the_tail_was_taken():
    values = list(range(1, 101))
    p50, tail, how = stats.median_and_tail(values)
    assert (p50, how) == (50.5, "p90.0 of 100")
    assert tail == pytest.approx(np.percentile(values, 90.0))


def test_a_long_run_reports_the_median_of_its_rounds_tails():
    # Ten rounds of 40; one round holds a stall that would own the
    # whole-run tail but is one outlier among the rounds.
    values = [float(i % 40) for i in range(400)]
    values[120:160] = [1000.0] * 40
    p50, tail, how = stats.median_and_tail(values)
    assert how == "p75.0 of each 40, median of 10 rounds"
    assert tail == pytest.approx(np.percentile(range(40), 75.0))
    assert stats.percentile(values, stats.tail_percentile(400)) == 1000.0


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (third - first) / statistics.median(values)
    )


def test_worse_by_follows_the_direction():
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 90.0, "lower") < 0
