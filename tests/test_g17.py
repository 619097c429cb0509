"""The vectorized ``%.17g`` kernel against ``'%.17g' % x``, byte for byte."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaosmask.g17 import _PIECE, g17_rows, join_rows

#: The fast path's edges: 2**-249 <= |x| < 2**50.
LOW, HIGH = 2.0 ** -249, 2.0 ** 50


def kernel_text(values) -> list[bytes]:
    """Each value's text from the kernel, one value per line."""
    v = np.asarray(values, dtype=float)
    rows, layout = g17_rows(v)
    text = join_rows(rows, layout, np.arange(v.size)[:, None]).tobytes()
    return text.split(b"\n")[1:]


def assert_matches_percent(values) -> None:
    values = np.asarray(values, dtype=float)
    expected = [b"%.17g" % x for x in values.tolist()]
    got = kernel_text(values)
    assert len(got) == len(expected)
    wrong = [(x, e, g) for x, e, g in zip(values.tolist(), expected, got) if e != g]
    assert not wrong, wrong[:5]


def neighbours(x: np.ndarray) -> np.ndarray:
    return np.concatenate([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300))
def test_random_bit_patterns(patterns):
    assert_matches_percent(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_zeros_nan_and_infinities():
    assert kernel_text([0.0, -0.0, np.nan, np.inf, -np.inf]) == \
        [b"0", b"-0", b"nan", b"inf", b"-inf"]


def test_subnormal_and_normal_extremes():
    tiny = np.finfo(float).smallest_normal
    values = np.array([5e-324, np.nextafter(tiny, 0.0), tiny, np.finfo(float).max])
    assert_matches_percent(np.concatenate([values, -values]))


def test_edges_of_the_fast_window():
    values = neighbours(np.array([LOW, HIGH, 1.0, 0.5, 1e-4, 1e-5, 1e15, 1e16, 1e17]))
    assert_matches_percent(np.concatenate([values, -values]))


def test_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-76, 17)
    assert_matches_percent(neighbours(np.concatenate([powers, -powers])))


def test_exact_ties_at_the_17th_digit():
    # m / 2**q with m odd has the exact expansion m * 5**q / 10**q; with 18
    # digits, its last is 5, and rounding to 17 digits is a tie.
    rng = np.random.default_rng(17)
    values = []
    for q in range(2, 26):
        lo = -(-10 ** 17 // 5 ** q)
        hi = min((10 ** 18 - 1) // 5 ** q, 2 ** 53 - 1)
        m = rng.integers(lo, hi + 1, 400) | 1
        m = m[m <= hi]
        assert all(len(str(int(k) * 5 ** q)) == 18 for k in m[:5])
        values.append(m / 2.0 ** q)
    values = np.concatenate(values)
    assert values.size > 9000
    assert_matches_percent(np.concatenate([values, -values]))


def test_values_where_floor_log10_is_off_by_one():
    candidates = []
    for p in 10.0 ** np.arange(-75, 16):
        x = p
        for _ in range(40):
            x = np.nextafter(x, 0.0)
            candidates.append(x)
    candidates = np.array(candidates)
    candidates = candidates[(candidates >= LOW) & (candidates < HIGH)]
    # The estimate the kernel corrects is numpy's, not libm's; Decimal gives
    # the true exponent.
    estimate = np.floor(np.log10(candidates)).astype(int).tolist()
    off = [x for x, e in zip(candidates.tolist(), estimate) if e != Decimal(x).adjusted()]
    assert len(off) > 100
    assert_matches_percent(np.array(off))


def test_log_uniform_values():
    rng = np.random.default_rng(3)
    values = np.exp(rng.uniform(-180.0, 40.0, 20000)) * rng.choice([-1.0, 1.0], 20000)
    assert_matches_percent(values)


@pytest.mark.parametrize("n", [_PIECE - 1, _PIECE, _PIECE + 1])
def test_piece_edges(n):
    # The last value of a piece, the first of the next, and fallback values
    # on both sides of the edge.
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-80, 80, n)
    edge = np.arange(_PIECE - 3, min(n, _PIECE + 1))
    values[edge] = [np.nan, -0.0, 1e300, -np.inf][:edge.size]
    assert_matches_percent(values)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
def test_join_rows_lines(n):
    # Pieces of the kernel and lines of several values, with fallback values.
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-80, 80, n)
    values[::7] = np.nan
    values[::11] = 0.0
    rows, layout = g17_rows(values)
    width = 3 if n % 3 == 0 else 1
    index = np.arange(n - n % width).reshape(-1, width)
    text = [b"%.17g" % x for x in values.tolist()]
    expected = b"".join(b"\n" + b",".join(text[j] for j in line) for line in index.tolist())
    assert join_rows(rows, layout, index).tobytes() == expected
