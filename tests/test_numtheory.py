"""Farey enumeration and the bad-interval cover, against brute force."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsparse.numtheory import (
    BadIntervalSet,
    bad_intervals,
    farey,
    is_good_bruteforce,
    scatter_constant,
)


def farey_oracle(order):
    """All reduced fractions with denominator <= order, by exhaustion."""
    fracs = {Fraction(0), Fraction(1)}
    for q in range(1, order + 1):
        for p in range(1, q):
            fracs.add(Fraction(p, q))
    return np.array(sorted(float(f) for f in fracs))


@pytest.mark.parametrize("order", [1, 2, 5, 9, 16])
def test_farey_matches_exhaustive(order):
    np.testing.assert_allclose(farey(order), farey_oracle(order), atol=0)


def test_farey_frozen_counts():
    # |F_n| = 1 + sum_{q<=n} phi(q)
    assert len(farey(7)) == 19
    assert len(farey(8)) == 23
    assert len(farey(1)) == 2


def test_farey_validation():
    with pytest.raises(ValueError):
        farey(0)


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=30, deadline=None)
def test_farey_sorted_and_reduced(order):
    vals = farey(order)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) > 0)
    # neighbor mediant property: b*c - a*d = 1 for consecutive a/b, c/d
    fracs = [Fraction(v).limit_denominator(order) for v in vals]
    for x, y in zip(fracs, fracs[1:]):
        assert y.numerator * x.denominator - x.numerator * y.denominator == 1


# ---------------------------------------------------------------------------
# bad interval cover


def test_interval_count_matches_farey_cardinality():
    # with N large enough that nothing merges, one interval per fraction
    assert len(bad_intervals(200, 1.0)) == len(farey(4))
    assert len(bad_intervals(200, 0.5)) == len(farey(8))


def test_intervals_merge_when_n_small():
    cover = bad_intervals(4, 0.5)  # half-width 1/4 swallows neighbors
    assert len(cover) < len(farey(8))
    assert cover.contains(0.5)


def merge_by_loop(centers, n):
    """Sweep the width-2/N intervals around ascending centres, merging each
    into the last kept one when it starts at or before that one's end."""
    half = 1.0 / n
    keep_lo, keep_hi = [centers[0] - half], [centers[0] + half]
    for c in centers[1:]:
        a, b = c - half, c + half
        if a <= keep_hi[-1]:
            keep_hi[-1] = max(keep_hi[-1], b)
        else:
            keep_lo.append(a)
            keep_hi.append(b)
    return np.array(keep_lo), np.array(keep_hi)


def _sorted_centres(seed):
    rng = np.random.default_rng(seed)
    return np.sort(rng.random(int(rng.integers(1, 400))))


@pytest.mark.parametrize("centers", [farey(o) for o in (1, 2, 3, 8, 40, 315)]
                         + [_sorted_centres(seed) for seed in range(20)])
def test_merge_matches_the_sequential_loop(centers):
    for n in (2, 3, 4, 7, 64, 1000, 4097, 2**20):
        cover = BadIntervalSet(n, centers)
        want_lo, want_hi = merge_by_loop(centers, n)
        np.testing.assert_array_equal(cover.lo, want_lo)
        np.testing.assert_array_equal(cover.hi, want_hi)


def test_contains_scalar_and_array():
    cover = bad_intervals(100, 0.5)
    assert cover.contains(0.5)          # 1/2 is as bad as it gets
    assert cover.contains(1.0 / 3.0 + 0.001)
    assert not cover.contains(0.5 + 0.2)  # far from every low-order rational?
    ys = np.array([0.0, 0.25, 0.123456])
    hits = cover.contains(ys)
    assert hits.dtype == bool and hits.shape == (3,)
    assert hits[0] and hits[1]


def test_known_good_and_bad_values():
    n, eps = 200, 0.25
    # 1/2 has a 2-point orbit: catastrophically bad
    assert not is_good_bruteforce(0.5, n, eps)
    # the golden ratio's dilates are the classic well-spread sequence (it
    # still sits inside the cover here: 8/13 is within 1/200 of it, and the
    # cover is only a superset of the bad set)
    golden = (math.sqrt(5) - 1) / 2
    assert is_good_bruteforce(golden, n, eps)
    # midpoint of the widest Farey-16 gap is outside the cover
    assert not bad_intervals(n, eps).contains(1.0 / 32.0)


def test_superset_soundness_spot():
    # every brute-force-bad y must fall inside the cover
    n, eps = 120, 0.4
    cover = bad_intervals(n, eps)
    rng = np.random.default_rng(5)
    for y in rng.uniform(0, 1, 300):
        if not cover.contains(y):
            assert is_good_bruteforce(y, n, eps), y


def test_is_good_degenerate_window_grid():
    # eps grid must clip at 1.0 exactly; no index error at the right edge
    assert is_good_bruteforce(0.618, 50, 0.9) in (True, False)


def test_bad_intervals_validation():
    with pytest.raises(ValueError):
        bad_intervals(1, 0.5)
    with pytest.raises(ValueError):
        bad_intervals(100, 0.0)
    with pytest.raises(ValueError):
        bad_intervals(100, 1.5)


def test_scatter_constant():
    # spacing wider than the 1/4-window: each window holds only its anchor
    assert scatter_constant(np.array([0.0, 0.3, 0.6, 0.9])) == 1
    # exact 1/4 spacing: the closed window picks up the next point too
    assert scatter_constant(np.array([0.0, 0.25, 0.5, 0.75])) == 2
    # all clumped: the window captures everything
    assert scatter_constant(np.array([0.1, 0.1001, 0.1002, 0.1003])) == 4


def test_interval_set_len_and_edges():
    cover = BadIntervalSet(50, farey(3))
    assert len(cover) == len(cover.lo) == len(cover.hi)
    assert cover.contains(cover.lo[0])
    assert cover.contains(cover.hi[-1])
    assert not cover.contains(cover.hi[0] + 1e-9)
