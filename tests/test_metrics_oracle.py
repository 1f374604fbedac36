"""Order statistics match numpy bit for bit.

The simulator computes percentiles, means and CDFs in pure Python, so
it runs without numpy.  numpy's default ``"linear"`` quantile is the
oracle: every pinned result digest was first produced with it, and any
last-bit difference would move those digests.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.cdf import Cdf
from repro.metrics.stats import percentile, quantile_sorted, summarize_ns

np = pytest.importorskip("numpy")


def bits(x: float) -> bytes:
    """The IEEE-754 encoding, so -0.0 != 0.0 and NaN compares."""
    return struct.pack("<d", x)


#: Latency-like integer nanoseconds, a narrow range that forces ties,
#: integers around 2**53 where float conversion rounds, and finite
#: doubles.
INTS = st.integers(0, 10**9)
TIES = st.integers(0, 3)
NEAR_2_53 = st.integers(2**53 - 64, 2**53 + 64)
FLOATS = st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
                   allow_infinity=False)
SAMPLES = st.one_of(
    st.lists(INTS, min_size=1, max_size=200),
    st.lists(TIES, min_size=1, max_size=50),
    st.lists(NEAR_2_53, min_size=1, max_size=50),
    st.lists(FLOATS, min_size=1, max_size=200),
)
PCTS = st.one_of(st.sampled_from([0, 50, 90, 99, 99.9, 100]),
                 st.floats(0, 100))
QS = st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.0]), st.floats(0, 1))


def as_array(samples):
    return np.asarray(samples, dtype=np.float64)


@settings(max_examples=400, deadline=None)
@given(SAMPLES, QS)
def test_helper_matches_np_quantile(samples, q):
    xs = sorted(map(float, samples))
    expected = float(np.quantile(as_array(samples), q))
    assert bits(quantile_sorted(xs, q)) == bits(expected)


@settings(max_examples=400, deadline=None)
@given(SAMPLES, PCTS)
def test_percentile_matches_np_percentile(samples, pct):
    expected = float(np.percentile(as_array(samples), pct))
    assert bits(percentile(samples, pct)) == bits(expected)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(INTS, min_size=1, max_size=300),
                 st.lists(TIES, min_size=1, max_size=50),
                 # Near 2**53 only a single sample keeps the sum exact.
                 st.lists(NEAR_2_53, min_size=1, max_size=1)))
def test_summary_matches_numpy(samples):
    array = as_array(samples)
    summary = summarize_ns(samples)
    assert summary.count == array.size
    assert bits(summary.min_ns) == bits(float(array.min()))
    assert bits(summary.max_ns) == bits(float(array.max()))
    assert bits(summary.avg_ns) == bits(float(array.mean()))
    for field, pct in (("p50_ns", 50), ("p90_ns", 90), ("p99_ns", 99),
                       ("p999_ns", 99.9)):
        expected = float(np.percentile(array, pct))
        assert bits(getattr(summary, field)) == bits(expected), field


@settings(max_examples=300, deadline=None)
@given(SAMPLES, QS, st.integers(-10, 2**53 + 128))
def test_cdf_matches_numpy(samples, q, probe):
    cdf = Cdf(samples)
    ordered = np.sort(as_array(samples))
    assert cdf.count == ordered.size
    assert bits(cdf.quantile(q)) == bits(float(np.quantile(ordered, q)))
    for value in (probe, float(probe), samples[0], samples[-1]):
        expected = float(np.searchsorted(ordered, value, side="right")
                         / ordered.size)
        assert bits(cdf.at(value)) == bits(expected), value


@settings(max_examples=100, deadline=None)
@given(SAMPLES, st.integers(2, 300))
def test_cdf_points_match_linspace_quantiles(samples, n):
    qs = np.linspace(0, 1, n)
    values = np.quantile(np.sort(as_array(samples)), qs)
    expected = [(float(v), float(q)) for v, q in zip(values, qs)]
    got = Cdf(samples).points(n)
    assert [(bits(v), bits(q)) for v, q in got] \
        == [(bits(v), bits(q)) for v, q in expected]


def test_points_grid_is_linspace_for_every_small_n():
    # i / (n - 1) differs from linspace's i * (1 / (n - 1)) for most n.
    cdf = Cdf([0.0, 1.0])
    for n in range(2, 3000):
        assert [q for _v, q in cdf.points(n)] \
            == np.linspace(0, 1, n).tolist(), n


def test_single_sample_and_extremes():
    assert percentile([7], 0) == percentile([7], 100) == 7.0
    assert percentile([1, 2, 3, 4], 0) == 1.0
    assert percentile([1, 2, 3, 4], 100) == 4.0
    summary = summarize_ns([5])
    assert (summary.min_ns, summary.avg_ns, summary.p999_ns,
            summary.max_ns) == (5.0, 5.0, 5.0, 5.0)


@pytest.mark.parametrize("call", [
    lambda: percentile([], 50),
    lambda: percentile([1], -0.1),
    lambda: percentile([1], 100.1),
    lambda: Cdf([]),
    lambda: Cdf([1]).quantile(1.5),
    lambda: Cdf([1]).quantile(-0.5),
    lambda: Cdf([1, 2]).points(1),
])
def test_invalid_input_raises(call):
    with pytest.raises(ValueError):
        call()
