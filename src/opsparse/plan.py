"""Transform plans: roots, quadrature weights, banded moment matrices, I/O.

A plan packages everything the sublinear recovery pipeline needs about a fixed
(alpha, beta, N) transform: the root angles, the Gauss weights and the
flatness constant U = max |F|.  The banded matrices M_r = F^T T_r(D_lambda) F
that filtered queries read are derived, not stored: F is square and
orthogonal with F^T D_lambda F = J, the tridiagonal Jacobi matrix, so
M_r = T_r(J) exactly, which is r-banded.  ``filter_band`` builds the diagonals
of M_0..M_d from J on first use and caches them.  At alpha = beta J's diagonal
is exactly zero, so T_r(J) has the parity of r: superdiagonal o of M_r is
exactly zero unless r - o is even, and the cache keeps only the rows
r = o, o+2, ... of each diagonal's stack, half of them.

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
    JacobiParams,
    compute_roots,
    compute_weights,
    jacobi_matrix,
    orthonormal_coeffs,
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
]

MAGIC = b"OPSP"
VERSION = 2

# Up to this N the one-sparse solver correlates against the cached dense F
# (128 MiB at f64), above it through ``forward``; ``matrix()`` caches at any N.
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
        self.lam = np.cos(self.theta)
        self.sqw = np.sqrt(self.weights)
        self._coeffs = orthonormal_coeffs(self.params, self.n - 1)
        self._dense = None
        self._stacks: tuple[int, list[np.ndarray]] | None = None

    def __getstate__(self):
        # the caches are derived data; workers rebuild what they use
        return (self.params, self.n, self.theta, self.weights, self.U)

    def __setstate__(self, state):
        self.params, self.n, self.theta, self.weights, self.U = state
        self.__post_init__()

    # -- dense access -------------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Dense F, the root-by-degree recurrence table times sqrt(w) in place; cached."""
        if self._dense is None:
            table = _kernels.recurrence_table(*self._coeffs, self.lam)
            self._dense = np.multiply(table, self.sqw[:, None], out=table)
        return self._dense

    def row(self, ell: int) -> np.ndarray:
        """Row F[ell, :] = sqrt(w_ell) * (p_0..p_{N-1})(lambda_ell).

        Read from ``matrix()`` when it is cached, else one recurrence.
        """
        if not 0 <= ell < self.n:
            raise IndexError(f"row {ell} out of range for N={self.n}")
        if self._dense is not None:
            return self._dense[ell]
        table = _kernels.recurrence_table(*self._coeffs, self.lam[ell : ell + 1])
        return self.sqw[ell] * table[0]

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

    # -- moment combination -------------------------------------------------

    def filter_band(self, filt) -> np.ndarray:
        """Banded sum_r b_r M_r for a Chebyshev-coefficient filter.

        Returns shape (N, 2d+1) with row j holding columns j-d..j+d (zeros
        outside the matrix).  ``filt`` needs ``coeffs`` and ``degree``.  The
        moment diagonals are built from J on first use and rebuilt only for
        a higher degree.  Diagonal o contracts only the coefficients
        b_o, b_{o+step}, ... against the stored rows of its stack
        (``_chebyshev_stacks``): with step 2 the skipped M_r hold zeros there.
        """
        d = filt.degree
        if d >= self.n:
            raise ValueError(f"filter degree {d} must be < N = {self.n}")
        if self._stacks is None or len(self._stacks[1]) <= d:
            self._stacks = None  # release the smaller cache before building the next
            self._stacks = _chebyshev_stacks(self.params, self.n, d)
        step, stacks = self._stacks
        coeffs = np.asarray(filt.coeffs, dtype=np.float64)
        n = self.n
        out = np.zeros((n, 2 * d + 1))
        for o in range(0, d + 1):
            c = coeffs[o::step]
            vals = c @ stacks[o][: c.size]
            out[: n - o, d + o] = vals
            if o:
                out[o:, d - o] = vals
        return out


def _chebyshev_stacks(params: JacobiParams, n: int, d: int) -> tuple[int, list[np.ndarray]]:
    """(step, stacks): the nonzero diagonals of M_r = T_r(J) for r = 0..d.

    ``step`` is 2 when J's diagonal is exactly zero (alpha = beta), else 1.
    With a zero diagonal T_r(J) is even or odd with r, so its o-th
    superdiagonal is exactly zero unless r - o is even.  ``stacks[o]`` has
    shape (len(range(o, d+1, step)), N-o) and its row i is the o-th
    superdiagonal of M_{o + i*step}; subdiagonals follow by symmetry.
    T_r(J) is r-banded, so T_{r+1} = 2 J T_r - T_{r-1} runs on (r+2) x N
    arrays whose row o holds superdiagonal o, zero-padded at the end.
    M_0 = I exactly.
    """
    diag, off = jacobi_matrix(params, n)
    step = 2 if not diag.any() else 1
    stacks = [np.empty((len(range(o, d + 1, step)), n - o)) for o in range(d + 1)]
    prev = np.zeros((d + 2, n))
    cur = np.zeros((d + 2, n))
    cur[0] = 1.0
    for r in range(d + 1):
        for o in range(r % step, r + 1, step):
            stacks[o][(r - o) // step] = cur[o, : n - o]
        if r == d:
            break
        rows = r + 2  # T_{r+1} has superdiagonals 0..r+1
        nxt = diag * cur[:rows]
        nxt[:-1, 1:] += off * cur[1:rows, : n - 1]  # J[i, i-1] X[i-1, i+o]
        nxt[1:, : n - 1] += off * cur[: rows - 1, 1:]  # J[i, i+1] X[i+1, i+o]
        nxt[0, : n - 1] += off * cur[1, : n - 1]  # o = 0: X[i+1, i] = X[i, i+1]
        if r:
            nxt *= 2.0
            nxt -= prev[:rows]
        prev, cur = cur, prev
        cur[:rows] = nxt
    return step, stacks


def build_plan(params: JacobiParams, n: int, degree: int = 0) -> TransformPlan:
    """Compute roots, weights and flatness; ``degree`` > 0 also fills the
    moment cache up to that Chebyshev degree."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= degree < n:
        # M_{n-1} is already dense: a higher degree would add no band
        raise ValueError(f"moment degree must be in [0, n) = [0, {n}), got {degree}")
    theta = compute_roots(params, n)
    weights, u = compute_weights(params, theta, n)
    plan = TransformPlan(params, n, theta, weights, u)
    if degree:
        plan._stacks = _chebyshev_stacks(params, n, degree)
    return plan


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
        return TransformPlan(params, n, theta, weights, u)
    except ValueError as exc:
        raise PlanFormatError(f"plan header: {exc}") from None
