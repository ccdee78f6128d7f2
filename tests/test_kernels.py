"""Recurrence kernels at their edges: the Newton root polish against
closed-form roots, and the degree-0 paths.  The table, ``sumsq_maxabs`` and
the forward and adjoint maps are checked through their callers in
``test_jacobi.py`` and ``test_plan.py``."""

import numpy as np

from opsparse import _kernels
from opsparse.jacobi import JacobiParams, _derivative_prefactor, orthonormal_coeffs


def test_refine_roots_polishes_chebyshev_roots(rng):
    # T_n(cos theta) = cos(n theta): one Newton step from a 1e-7 perturbation
    # lands on the closed-form roots (2k+1) pi / (2n)
    n = 64
    p0, a, b, c = orthonormal_coeffs(JacobiParams(-0.5, -0.5), n)
    q0, aq, bq, cq = orthonormal_coeffs(JacobiParams(0.5, 0.5), n - 1)
    dpref = _derivative_prefactor(JacobiParams(-0.5, -0.5), n)
    exact = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    start = exact + rng.uniform(-1e-7, 1e-7, n)
    theta = _kernels.refine_roots(p0, a, b, c, q0, aq, bq, cq, dpref, start)
    np.testing.assert_allclose(theta, exact, rtol=0, atol=1e-14)


def test_jmax_zero_paths():
    p0 = 0.75
    empty = np.zeros(1)
    x = np.array([0.5, -0.5])
    np.testing.assert_array_equal(
        _kernels.recurrence_last(p0, empty, empty, empty, x), [p0, p0]
    )
    tab = _kernels.recurrence_table(p0, empty, empty, empty, x)
    assert tab.shape == (1, 2)
