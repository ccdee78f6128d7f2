"""Transform plans: roots, quadrature weights, Chebyshev moments, I/O.

A plan packages everything the sublinear recovery pipeline needs about a fixed
(alpha, beta, N) transform: the root angles, the Gauss weights and the
flatness constant U = max |F|.  Filtered samples need F^T T_r(D_lambda) F for
r <= d, and none of it is stored: F is square and orthogonal with
F^T D_lambda F = J, the tridiagonal Jacobi matrix, so F^T T_r(D_lambda) F =
T_r(J) exactly, which is r-banded.  ``moments`` applies T_0(J)..T_d(J) to one
vector by the three-term recurrence and returns the whole stack; callers
pick the positions they sample.  ``filter_band`` probes it for the dense band
of a filter.

The on-disk format (v2) is a little-endian binary blob: magic ``OPSP``, a u32
version, f64 alpha/beta, u64 N, f64 U, the theta and weight arrays (N f64
each), and a trailing CRC-32 of everything after the version field.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .jacobi import (
    _MIRROR_TOL,
    JacobiParams,
    compute_roots,
    compute_weights,
    gauss_rule,
    jacobi_matrix,
    log_norm_factor,
    orthonormal_coeffs,
    root_cosines,
)

__all__ = [
    "TransformPlan",
    "build_plan",
    "save_plan",
    "load_plan",
    "PlanFormatError",
    "PlanMagicError",
    "PlanVersionError",
    "PlanTruncatedError",
    "PlanChecksumError",
    # set-up's layers under their old names; build_plan calls gauss_rule
    "compute_roots",
    "compute_weights",
]

MAGIC = b"OPSP"
VERSION = 2

# Up to this N the one-sparse solver correlates against the cached dense F
# (128 MiB at f64), in row blocks that stay in cache while every round's
# product passes over them, above it through ``forward``; ``matrix()``
# caches at any N.
DENSE_CACHE_LIMIT = 4096


class PlanFormatError(Exception):
    """Base class for malformed plan files."""


class PlanMagicError(PlanFormatError):
    pass


class PlanVersionError(PlanFormatError):
    pass


class PlanTruncatedError(PlanFormatError):
    pass


class PlanChecksumError(PlanFormatError):
    pass


@dataclass
class TransformPlan:
    """Precomputed transform data for one (alpha, beta, N)."""

    params: JacobiParams
    n: int
    theta: np.ndarray
    weights: np.ndarray
    U: float
    lam: np.ndarray = field(init=False, repr=False)
    sqw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lam = root_cosines(self.params, self.theta)
        self.sqw = np.sqrt(self.weights)
        self._coeffs = orthonormal_coeffs(self.params, self.n - 1)
        self._dense = None
        self._jacobi = None
        self._side = None

    def __getstate__(self):
        # the caches are derived data; workers rebuild what they use
        return (self.params, self.n, self.theta, self.weights, self.U)

    def __setstate__(self, state):
        self.params, self.n, self.theta, self.weights, self.U = state
        self.__post_init__()

    # -- dense access -------------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Dense F, the root-by-degree recurrence table with each root's row
        scaled by sqrt(w) as it is filled; cached and read-only.

        One N x N buffer: at alpha = beta the sweep fills the left half's
        rows and the mirror rows are copied from them, signed by parity,
        which holds because w_{N-1-l} = w_l bit for bit (``load_plan``
        refuses other weights).  ``row`` hands out views of it, so a write
        through any of them would change every later correlation; numpy
        refuses it."""
        if self._dense is None:
            table = _kernels.recurrence_table(*self._coeffs, self.lam, self.sqw)
            table.flags.writeable = False
            self._dense = table
        return self._dense

    def row(self, ell: int) -> np.ndarray:
        """Row F[ell, :] = sqrt(w_ell) * (p_0..p_{N-1})(lambda_ell).

        A read-only view of ``matrix()`` when it is cached, else one
        recurrence.
        """
        if not 0 <= ell < self.n:
            raise IndexError(f"row {ell} out of range for N={self.n}")
        if self._dense is not None:
            return self._dense[ell]
        table = _kernels.recurrence_table(*self._coeffs, self.lam[ell : ell + 1])
        return self.sqw[ell] * table[0]

    def side_weights(self) -> np.ndarray:
        """sqrt(h_j * j) for j = 0..N-1, h_j the squared norm of the
        classical P_j from ``log_norm_factor``, that is from the recurrence's
        own ratios h_{j-1}/h_j: exactly zero at j = 0.  ``query_cos``'s ratio
        weights, derived on first use in O(N), cached and read-only."""
        if self._side is None:
            j = np.arange(1, self.n, dtype=np.float64)
            side = np.zeros(self.n)
            side[1:] = np.exp(0.5 * (log_norm_factor(self.params, j) + np.log(j)))
            side.flags.writeable = False
            self._side = side
        return self._side

    # -- transforms ---------------------------------------------------------

    def forward(self, x: np.ndarray, roots=slice(None)) -> np.ndarray:
        """F[roots] @ x for x of shape (N,) or (B, N), from one recurrence sweep,
        never through F: its BLAS product sums in another order, and results
        must not depend on whether ``matrix()`` was built.  Each row equals
        the unstacked full transform at ``roots`` bit for bit."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError(f"expected shape ({self.n},) or (B, {self.n}), got {x.shape}")
        y = _kernels.apply_forward(*self._coeffs, self.lam[roots], self.sqw[roots],
                                   x.reshape(-1, self.n))
        return y if x.ndim == 2 else y[0]

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """F^T @ y; the exact inverse of forward since F is orthogonal."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},)")
        return _kernels.apply_adjoint(*self._coeffs, self.lam, self.sqw, y)

    # -- Chebyshev moments ----------------------------------------------------

    def moments(self, y: np.ndarray, d: int) -> np.ndarray:
        """T_r(J) y for r = 0..d, shape (d+1, N): row r is the r-th step.

        One three-term recurrence T_{r+1}(J) y = 2 J T_r(J) y - T_{r-1}(J) y
        on whole N-vectors, each step written in place into its own row,
        with J the tridiagonal Jacobi matrix (derived on first use).  Entry j
        of step r is computed from entries j-1..j+1 of step r-1 alone, so
        (T_r(J) y)_j reads y only within r of j, in its floating-point
        operations as well as its algebra: entries of y farther than d from
        j change no bit of column j.  Steps r >= 1 use J's entries
        pre-doubled, and at alpha = beta, where J's diagonal is zero, skip
        it: both give the textbook step's bits, an exact zero's sign aside.
        """
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {y.shape}")
        if d < 0:
            raise ValueError(f"moment degree must be >= 0, got {d}")
        if self._jacobi is None:
            diag, off = jacobi_matrix(self.params, self.n)
            self._jacobi = (diag, off, 2.0 * diag, 2.0 * off, bool(diag.any()))
        diag, off, diag2, off2, has_diag = self._jacobi
        out = np.empty((d + 1, self.n))
        out[0] = y
        tmp = np.empty(self.n - 1)
        for r in range(d):
            cur, nxt = out[r], out[r + 1]
            a, b = (diag2, off2) if r else (diag, off)
            if has_diag:
                np.multiply(a, cur, out=nxt)
                nxt[:-1] += np.multiply(b, cur[1:], out=tmp)
            else:
                np.multiply(b, cur[1:], out=nxt[:-1])
                nxt[-1] = 0.0
            nxt[1:] += np.multiply(b, cur[:-1], out=tmp)
            if r:
                nxt -= out[r - 1]
        return out

    def filter_band(self, filt) -> np.ndarray:
        """Banded p(J) = sum_r b_r T_r(J) for a Chebyshev-coefficient filter.

        Returns shape (N, 2d+1) with row j holding columns j-d..j+d (zeros
        outside the matrix).  ``filt`` needs ``coeffs`` and ``degree``.  A
        probe of ``moments``, not used by the solver: p(J) is d-banded, so
        applied to the comb with ones at i = c mod 2d+1 its row j meets one
        tooth, column i = j + o with o = (c - j + d) mod (2d+1) - d.
        """
        d = filt.degree
        if d >= self.n:
            raise ValueError(f"filter degree {d} must be < N = {self.n}")
        coeffs = np.asarray(filt.coeffs, dtype=np.float64)
        n, w = self.n, 2 * d + 1
        rows = np.arange(n)
        out = np.zeros((n, w))
        for c in range(min(w, n)):
            comb = np.zeros(n)
            comb[c::w] = 1.0
            vals = np.einsum("ri,r->i", self.moments(comb, d), coeffs)
            col = (c - rows + d) % w  # o + d
            inside = (rows + col >= d) & (rows + col - d < n)
            out[rows[inside], col[inside]] = vals[inside]
        return out


def build_plan(params: JacobiParams, n: int, degree: int = 0) -> TransformPlan:
    """Roots, weights and flatness from ``gauss_rule``.  ``degree``, the
    highest filter degree a caller means to use, is range-checked and fills
    nothing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= degree < n:
        # T_{n-1}(J) is already dense: a higher degree would add no band
        raise ValueError(f"moment degree must be in [0, n) = [0, {n}), got {degree}")
    return TransformPlan(params, n, *gauss_rule(params, n))


# ---------------------------------------------------------------------------
# persistence


_HEAD = "<ddQd"
# Relative rounding allowed on the bounds of the stored flatness constant U.
_U_SLACK = 1e-9


def save_plan(plan: TransformPlan, path) -> None:
    head = struct.pack(_HEAD, plan.params.alpha, plan.params.beta, plan.n, plan.U)
    body = (
        head
        + plan.theta.astype("<f8").tobytes()
        + plan.weights.astype("<f8").tobytes()
    )
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(body)
        fh.write(struct.pack("<I", crc))


def load_plan(path) -> TransformPlan:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise PlanMagicError("not a plan file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise PlanVersionError(f"unsupported plan version {version}")
    if len(blob) < 12:
        raise PlanTruncatedError("plan file truncated")
    body = blob[8:-4]
    (crc_stored,) = struct.unpack_from("<I", blob, len(blob) - 4)
    head_size = struct.calcsize(_HEAD)
    if len(body) < head_size:
        raise PlanTruncatedError("plan file truncated")
    alpha, beta, n, u = struct.unpack_from(_HEAD, body, 0)
    n = int(n)
    if n < 1:
        raise PlanFormatError(f"plan header has N={n}; need N >= 1")
    try:
        params = JacobiParams(alpha, beta)
    except ValueError as exc:
        raise PlanFormatError(f"plan header: {exc}") from None
    expect = head_size + 16 * n
    if len(body) != expect:
        raise PlanTruncatedError(
            f"plan file has {len(body)} payload bytes, expected {expect}"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise PlanChecksumError("plan file checksum mismatch")

    off = 8 + head_size
    theta = np.frombuffer(blob, dtype="<f8", count=n, offset=off).copy()
    weights = np.frombuffer(blob, dtype="<f8", count=n, offset=off + 8 * n).copy()
    # the CRC vouches for the bytes, not for the values they hold
    if not (np.all(np.diff(theta) > 0.0) and 0.0 < theta[0] and theta[-1] < np.pi):
        raise PlanFormatError("plan theta must be finite and increase strictly "
                              "inside (0, pi)")
    if not np.all((weights > 0.0) & np.isfinite(weights)):
        raise PlanFormatError("plan weights must be finite and > 0")
    # F is orthogonal, so its largest entry U lies in [N^-1/2, 1]
    if not n**-0.5 * (1.0 - _U_SLACK) <= u <= 1.0 + _U_SLACK:
        raise PlanFormatError(f"plan header has U={u!r}; need N^-1/2 <= U <= 1")
    try:
        plan = TransformPlan(params, n, theta, weights, u)
    except ValueError as exc:
        raise PlanFormatError(f"plan header: {exc}") from None
    if alpha == beta and not np.all(np.abs(theta + theta[::-1] - np.pi) <= _MIRROR_TOL):
        raise PlanFormatError(f"plan theta at alpha = beta must be symmetric about "
                              f"pi/2 within {_MIRROR_TOL:g}")
    # matrix() copies the mirror rows of F from rows already scaled by sqrt(w)
    if alpha == beta and not np.array_equal(weights, weights[::-1]):
        raise PlanFormatError("plan weights at alpha = beta must be their own mirror "
                              "bit for bit")
    return plan
