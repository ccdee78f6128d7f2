"""Recurrence kernels at their edges: the Newton root polish against
closed-form roots, the degree-0 paths, the rotation of the sweep's in-place
buffers, the parity fold against the unfolded sweep, the fold of a plan's
roots, and the stacked forward map.  The table values, ``sumsq_maxabs`` and
the adjoint map are checked against references through their callers in
``test_jacobi.py`` and ``test_plan.py``."""

import numpy as np
import pytest

from opsparse import _kernels, build_plan, load_plan, save_plan
from opsparse.jacobi import JacobiParams, _slope_coeffs, orthonormal_coeffs


def test_refine_roots_polishes_chebyshev_roots(rng):
    # T_n(cos theta) = cos(n theta): one Newton step from a 1e-7 perturbation
    # lands on the closed-form roots (2k+1) pi / (2n)
    n = 64
    p = JacobiParams(-0.5, -0.5)
    exact = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    start = exact + rng.uniform(-1e-7, 1e-7, n)
    theta = _kernels.refine_roots(*orthonormal_coeffs(p, n), *_slope_coeffs(p, n),
                                  p.alpha, p.beta, start)
    np.testing.assert_allclose(theta, exact, rtol=0, atol=1e-14)


def test_jmax_zero_paths():
    p0 = 0.75
    empty = np.zeros(1)
    x = np.array([0.5, -0.5])
    prev, last = _kernels.recurrence_last(p0, empty, empty, empty, x)
    np.testing.assert_array_equal(prev, [0.0, 0.0])
    np.testing.assert_array_equal(last, [p0, p0])
    tab = _kernels.recurrence_table(p0, empty, empty, empty, x)
    assert tab.shape == (2, 1)


@pytest.mark.parametrize("jmax", [1, 2, 3, 17])
def test_recurrence_last_matches_table(jmax):
    # jmax 1..3 are the steps where the three buffers first rotate
    coeffs = orthonormal_coeffs(JacobiParams(1.5, -0.3), jmax)
    x = np.linspace(-1.0, 1.0, 9)
    tab = _kernels.recurrence_table(*coeffs, x)
    prev, last = _kernels.recurrence_last(*coeffs, x)
    np.testing.assert_array_equal(prev, tab[:, -2])
    np.testing.assert_array_equal(last, tab[:, -1])


@pytest.mark.parametrize("ab", [-0.9, -0.5, 0.0, 0.5, 2.0])
def test_fold_is_bit_exact(ab, rng):
    # at alpha = beta the table-valued kernels sweep the leading half of
    # plan-shaped points (x, an optional 0, then -x reversed) and unfold the
    # rest by parity; they must return what the unfolded sweep returns, and
    # so must the same points shuffled, which are swept as they are
    jmax = 57
    coeffs = orthonormal_coeffs(JacobiParams(ab, ab), jmax)
    parity = np.where(np.arange(jmax + 1) % 2, -1.0, 1.0)
    pos = np.append(rng.uniform(0.0, 1.0, 9), 1.0)
    for middle in ([], [0.0]):
        mirrored = np.concatenate((pos, middle, -pos[::-1]))
        shuffled = rng.permutation(mirrored)
        n = len(mirrored)
        assert len(_kernels._Fold(coeffs[2], mirrored).u) == n - n // 2
        assert len(_kernels._Fold(coeffs[2], shuffled).u) == n
        for x in (mirrored, shuffled):
            sweep = np.array([p.copy() for p in _kernels._sweep(*coeffs, x)]).T
            table = _kernels.recurrence_table(*coeffs, x)
            np.testing.assert_array_equal(table, sweep)
            np.testing.assert_array_equal(_kernels.recurrence_table(*coeffs, -x),
                                          table * parity)
            for xs, sign in ((x, 1.0), (-x, -1.0)):
                prev, last = _kernels.recurrence_last(*coeffs, xs)
                np.testing.assert_array_equal(prev, sweep[:, -2] * sign ** (jmax - 1))
                np.testing.assert_array_equal(last, sweep[:, -1] * sign ** jmax)
                # the final set-up sweep: sums below jmax, the last two
                # degrees, and p_jmax at the ends 1 and -1
                ss, mx, pm, pn, ends = _kernels.sumsq_maxabs(*coeffs, xs)
                np.testing.assert_array_equal(ss, sumsq_unfolded(sweep[:, :-1]))
                np.testing.assert_array_equal(mx, np.abs(sweep[:, :-1]).max(axis=1))
                np.testing.assert_array_equal(pm, prev)
                np.testing.assert_array_equal(pn, last)
                np.testing.assert_array_equal(
                    ends, _kernels.recurrence_last(*coeffs, np.array([1.0, -1.0]))[1])


@pytest.mark.parametrize("alpha, beta", [(15.0, 0.0), (0.0, 15.0)])
def test_sumsq_maxabs_max_is_bit_exact_at_large_exponents(alpha, beta):
    # the max is taken over the squares the sums hold and square-rooted
    # once; at the largest exponents a plan builds at, over its roots and a
    # grid up to the ends, it is still max |p_j| bit for bit
    n = 64
    p = JacobiParams(alpha, beta)
    coeffs = orthonormal_coeffs(p, n)
    x = np.concatenate((build_plan(p, n).lam, np.linspace(-1.0, 1.0, 65)))
    table = _kernels.recurrence_table(*coeffs, x)
    np.testing.assert_array_equal(_kernels.sumsq_maxabs(*coeffs, x)[1],
                                  np.abs(table[:, :-1]).max(axis=1))


@pytest.mark.parametrize("n", [1, 2, 3, 65, 2048])
def test_plan_roots_are_swept_once_per_mirror_pair(n, tmp_path):
    # root_cosines negates a plan's right half exactly, so at alpha = beta
    # every sweep over its roots, built or loaded, runs over ceil(N/2) of
    # them; a negation off by a bit would double every sweep and change no
    # result
    path = tmp_path / "plan.bin"
    for alpha, beta in ((0.0, 0.0), (0.5, 0.5), (1.5, -0.3)):
        plan = build_plan(JacobiParams(alpha, beta), n)
        save_plan(plan, path)
        b = orthonormal_coeffs(plan.params, n - 1)[2]
        swept = n - n // 2 if alpha == beta else n
        for p in (plan, load_plan(path)):
            assert len(_kernels._Fold(b, p.lam).u) == swept


@pytest.mark.parametrize("jmax", [0, 1, 63, 64, 65, 127, 128, 129])
def test_recurrence_table_blocks_match_the_sweep(jmax, rng):
    # the table is filled _kernels._TABLE_BLOCK = 64 degrees at a time: full
    # blocks and a short last one give the per-degree sweep bit for bit, at
    # mirrored points (the mirror rows filled from the swept ones), the same
    # points shuffled (swept as they are), unfolded ones and one point
    assert _kernels._TABLE_BLOCK == 64  # the jmax values straddle its edges
    pos = np.sort(rng.uniform(0.0, 1.0, 7))
    mirrored = np.concatenate((pos, [0.0, 1.0], -pos[:4], [-1.0]))
    shuffled = rng.permutation(mirrored)
    for (alpha, beta), x in (((0.5, 0.5), mirrored), ((0.5, 0.5), shuffled),
                             ((1.5, -0.3), shuffled), ((1.5, -0.3), pos[3:4]),
                             ((0.0, 0.0), pos[3:4])):
        coeffs = orthonormal_coeffs(JacobiParams(alpha, beta), jmax)
        sweep = np.array([p.copy() for p in _kernels._sweep(*coeffs, x)]).T
        np.testing.assert_array_equal(_kernels.recurrence_table(*coeffs, x), sweep)


def sumsq_unfolded(table):
    """sum_j p_j^2 in the kernel's order: degree by degree."""
    ss = table[:, 0] * table[:, 0]
    for j in range(1, table.shape[1]):
        ss += table[:, j] * table[:, j]
    return ss


@pytest.mark.parametrize("alpha, beta, n", [(0.0, 0.0, 40), (1.5, -0.3, 33), (0.5, 0.5, 1),
                                            (0.5, 0.5, 41)])
def test_apply_forward_stack_equals_rows(alpha, beta, n, rng):
    plan = build_plan(JacobiParams(alpha, beta), n)
    x = rng.standard_normal((4, n))
    x[1] = 0.0  # an all-zero row
    x[2, ::3] = 0.0  # skipped coefficients inside a row
    coeffs = orthonormal_coeffs(plan.params, n - 1)
    full = _kernels.apply_forward(*coeffs, plan.lam, plan.sqw, x)
    # even roots hold no mirror pair; the second subset holds mirror pairs,
    # a root without its mirror, and straddles pi/2
    for cand in (np.arange(0, n, 2), np.unique(np.r_[1, n // 2 - 3 : n // 2 + 3] % n)):
        for lam, sqw in ((plan.lam, plan.sqw), (plan.lam[cand], plan.sqw[cand])):
            got = _kernels.apply_forward(*coeffs, lam, sqw, x)
            assert got.shape == (4, len(lam))
            for r in range(4):
                one = _kernels.apply_forward(*coeffs, lam, sqw, x[r : r + 1])
                np.testing.assert_array_equal(got[r], one[0])
            np.testing.assert_array_equal(got[1], 0.0)
        np.testing.assert_array_equal(full[:, cand], got)
    np.testing.assert_allclose(full, x @ plan.matrix().T, rtol=0, atol=1e-12)
