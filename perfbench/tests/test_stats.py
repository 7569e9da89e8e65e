import pytest

from stats import quartile_spread, tail


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail(list(range(19))) is None
    assert tail(list(range(20))) == (50.0, 9)


@pytest.mark.parametrize("n", [20, 37, 100, 2561])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    samples = [float((7 * i) % n) for i in range(n)]  # distinct, shuffled
    pct, value = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert quartile_spread([0.9, 1.0, 1.0, 1.1]) == pytest.approx(0.15)
