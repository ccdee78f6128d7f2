"""Recurrence kernels at their edges: the Newton root polish against
closed-form roots, the degree-0 paths, the rotation of the sweep's in-place
buffers, and the stacked forward map.  The table values, ``sumsq_maxabs`` and
the adjoint map are checked through their callers in ``test_jacobi.py`` and
``test_plan.py``."""

import numpy as np
import pytest

from opsparse import _kernels, build_plan
from opsparse.jacobi import JacobiParams, _slope_coeffs, orthonormal_coeffs


def test_refine_roots_polishes_chebyshev_roots(rng):
    # T_n(cos theta) = cos(n theta): one Newton step from a 1e-7 perturbation
    # lands on the closed-form roots (2k+1) pi / (2n)
    n = 64
    p = JacobiParams(-0.5, -0.5)
    exact = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    start = exact + rng.uniform(-1e-7, 1e-7, n)
    theta = _kernels.refine_roots(*orthonormal_coeffs(p, n), *_slope_coeffs(p, n), start)
    np.testing.assert_allclose(theta, exact, rtol=0, atol=1e-14)


def test_jmax_zero_paths():
    p0 = 0.75
    empty = np.zeros(1)
    x = np.array([0.5, -0.5])
    prev, last = _kernels.recurrence_last(p0, empty, empty, empty, x)
    np.testing.assert_array_equal(prev, [0.0, 0.0])
    np.testing.assert_array_equal(last, [p0, p0])
    tab = _kernels.recurrence_table(p0, empty, empty, empty, x)
    assert tab.shape == (1, 2)


@pytest.mark.parametrize("jmax", [1, 2, 3, 17])
def test_recurrence_last_matches_table(jmax):
    # jmax 1..3 are the steps where the three buffers first rotate
    coeffs = orthonormal_coeffs(JacobiParams(1.5, -0.3), jmax)
    x = np.linspace(-1.0, 1.0, 9)
    tab = _kernels.recurrence_table(*coeffs, x)
    prev, last = _kernels.recurrence_last(*coeffs, x)
    np.testing.assert_array_equal(prev, tab[-2])
    np.testing.assert_array_equal(last, tab[-1])


@pytest.mark.parametrize("alpha, beta, n", [(0.0, 0.0, 40), (1.5, -0.3, 33), (0.5, 0.5, 1)])
def test_apply_forward_stack_equals_rows(alpha, beta, n, rng):
    plan = build_plan(JacobiParams(alpha, beta), n)
    x = rng.standard_normal((4, n))
    x[1] = 0.0  # an all-zero row
    x[2, ::3] = 0.0  # skipped coefficients inside a row
    cand = np.arange(0, n, 2)
    for lam, sqw in ((plan.lam, plan.sqw), (plan.lam[cand], plan.sqw[cand])):
        got = _kernels.apply_forward(*plan.coeffs, lam, sqw, x)
        assert got.shape == (4, len(lam))
        for r in range(4):
            one = _kernels.apply_forward(*plan.coeffs, lam, sqw, x[r : r + 1])
            np.testing.assert_array_equal(got[r], one[0])
        np.testing.assert_array_equal(got[1], 0.0)
    full = _kernels.apply_forward(*plan.coeffs, plan.lam, plan.sqw, x)
    np.testing.assert_array_equal(full[:, cand], got)
    np.testing.assert_allclose(full, x @ plan.matrix().T, rtol=0, atol=1e-12)
