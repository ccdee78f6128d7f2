"""The jit kernels and the numpy fallbacks must agree bit-for-bit where the
operation order is identical (per-point recurrences) and to rounding where
it is not (the adjoint's dot products).  The Newton root polish has one
implementation and is checked against closed-form roots."""

import os
import subprocess
import sys

import numpy as np
import pytest

from opsparse import _kernels
from opsparse.jacobi import JacobiParams, _derivative_prefactor, orthonormal_coeffs


@pytest.fixture(scope="module")
def setup():
    params = JacobiParams(0.25, -0.5)
    p0, a, b, c = orthonormal_coeffs(params, 63)
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-1, 1, 200))
    return p0, a, b, c, x, rng


def test_backend_is_numba_here():
    # the suite runs with numba available; the numpy-only path is exercised
    # in a subprocess below
    assert _kernels.BACKEND == "numba"
    assert _kernels.HAS_NUMBA


def test_table_matches_numpy(setup):
    p0, a, b, c, x, _ = setup
    jit = _kernels.recurrence_table(p0, a, b, c, x)
    ref = _kernels.table_numpy(p0, a, b, c, x)
    np.testing.assert_array_equal(jit, ref)


def test_last_matches_numpy(setup):
    p0, a, b, c, x, _ = setup
    np.testing.assert_array_equal(
        _kernels.recurrence_last(p0, a, b, c, x),
        _kernels.last_numpy(p0, a, b, c, x),
    )


def test_sumsq_maxabs_matches_numpy(setup):
    p0, a, b, c, x, _ = setup
    ss_j, mx_j = _kernels.sumsq_maxabs(p0, a, b, c, x)
    ss_n, mx_n = _kernels.sumsq_maxabs_numpy(p0, a, b, c, x)
    np.testing.assert_array_equal(ss_j, ss_n)
    np.testing.assert_array_equal(mx_j, mx_n)


def test_forward_matches_numpy(setup):
    p0, a, b, c, x, rng = setup
    lam = x[:64]
    sqw = rng.uniform(0.5, 1.5, 64)
    vec = rng.standard_normal(64)
    np.testing.assert_array_equal(
        _kernels.apply_forward(p0, a, b, c, lam, sqw, vec),
        _kernels.forward_numpy(p0, a, b, c, lam, sqw, vec),
    )


def test_adjoint_matches_numpy(setup):
    p0, a, b, c, x, rng = setup
    lam = x[:64]
    sqw = rng.uniform(0.5, 1.5, 64)
    vec = rng.standard_normal(64)
    jit = _kernels.apply_adjoint(p0, a, b, c, lam, sqw, vec)
    ref = _kernels.adjoint_numpy(p0, a, b, c, lam, sqw, vec)
    # accumulation order differs (scalar loop vs BLAS dot)
    np.testing.assert_allclose(jit, ref, rtol=1e-12, atol=1e-12)


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


def test_pure_numpy_env_flag():
    code = (
        "import opsparse._kernels as k; "
        "assert k.BACKEND == 'numpy' and not k.HAS_NUMBA, k.BACKEND; "
        "print('ok')"
    )
    env = dict(os.environ, OPSPARSE_PURE_NUMPY="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_package_works_without_numba_path():
    # a tiny end-to-end run on the fallback backend
    code = (
        "from opsparse import JacobiParams, build_plan; "
        "import numpy as np; "
        "plan = build_plan(JacobiParams(0.0, 0.0), 32, degree=4); "
        "x = np.random.default_rng(1).standard_normal(32); "
        "err = np.abs(plan.inverse(plan.forward(x)) - x).max(); "
        "assert err < 1e-12, err; print('ok')"
    )
    env = dict(os.environ, OPSPARSE_PURE_NUMPY="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
