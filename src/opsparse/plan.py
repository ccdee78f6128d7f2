"""Transform plans: roots, quadrature weights, banded moment matrices, I/O.

A plan packages everything the sublinear recovery pipeline needs about a fixed
(alpha, beta, N) transform: the root angles, the Gauss weights and the
flatness constant U = max |F|.  The banded matrices M_r = F^T T_r(D_lambda) F
that filtered queries read are derived, not stored: F is square and
orthogonal with F^T D_lambda F = J, the tridiagonal Jacobi matrix, so
M_r = T_r(J) exactly, which is r-banded.  ``filter_band`` builds the diagonals
of M_0..M_d from J on first use and caches them.

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

# Dense transform matrices are cached up to this size (128 MB at f64).
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
    # recurrence coefficients (p0, a, b, c) of p_0..p_{N-1}, for ``_kernels``
    coeffs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.lam = np.cos(self.theta)
        self.sqw = np.sqrt(self.weights)
        self.coeffs = orthonormal_coeffs(self.params, self.n - 1)
        self._dense = None
        self._stacks: list[np.ndarray] | None = None

    def __getstate__(self):
        # the caches are derived data; workers rebuild what they use
        return (self.params, self.n, self.theta, self.weights, self.U)

    def __setstate__(self, state):
        self.params, self.n, self.theta, self.weights, self.U = state
        self.__post_init__()

    # -- dense access -------------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Dense F (rows indexed by root, columns by degree); cached."""
        if self._dense is None:
            p0, a, b, c = self.coeffs
            table = _kernels.recurrence_table(p0, a, b, c, self.lam)
            self._dense = (table * self.sqw).T.copy()
        return self._dense

    def row(self, ell: int) -> np.ndarray:
        """Row F[ell, :] = sqrt(w_ell) * (p_0..p_{N-1})(lambda_ell).

        Read from ``matrix()`` when it is cached, else one recurrence.
        """
        if self._dense is not None:
            return self._dense[ell]
        p0, a, b, c = self.coeffs
        table = _kernels.recurrence_table(p0, a, b, c, self.lam[ell : ell + 1])
        return self.sqw[ell] * table[:, 0]

    # -- transforms ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """F @ x: coefficients to weighted samples at the roots.

        Always evaluated through the recurrence kernels, never the cached
        dense matrix: a BLAS matmul sums in a different order, and results
        must not depend on whether some earlier caller materialized
        ``matrix()`` in this process.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},)")
        p0, a, b, c = self.coeffs
        return _kernels.apply_forward(p0, a, b, c, self.lam, self.sqw, x[None])[0]

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """F^T @ y; the exact inverse of forward since F is orthogonal."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},)")
        p0, a, b, c = self.coeffs
        return _kernels.apply_adjoint(p0, a, b, c, self.lam, self.sqw, y)

    # -- moment combination -------------------------------------------------

    def filter_band(self, filt) -> np.ndarray:
        """Banded sum_r b_r M_r for a Chebyshev-coefficient filter.

        Returns shape (N, 2d+1) with row j holding columns j-d..j+d (zeros
        outside the matrix).  ``filt`` needs ``coeffs`` and ``degree``.  The
        moment diagonals are built from J on first use and rebuilt only for
        a higher degree.
        """
        d = filt.degree
        if d >= self.n:
            raise ValueError(f"filter degree {d} must be < N = {self.n}")
        if self._stacks is None or len(self._stacks) <= d:
            self._stacks = _chebyshev_stacks(self.params, self.n, d)
        coeffs = np.asarray(filt.coeffs, dtype=np.float64)
        n = self.n
        out = np.zeros((n, 2 * d + 1))
        for o in range(0, d + 1):
            stack = self._stacks[o][: d + 1 - o]
            vals = coeffs[o:] @ stack
            out[: n - o, d + o] = vals
            if o:
                out[o:, d - o] = vals
        return out


def _chebyshev_stacks(params: JacobiParams, n: int, d: int) -> list[np.ndarray]:
    """Diagonal stacks of M_r = T_r(J) for r = 0..d.

    ``stacks[o]`` has shape (d+1-o, N-o) and its row r-o is the o-th
    superdiagonal of M_r; subdiagonals follow by symmetry.  T_r(J) is
    r-banded, so T_{r+1} = 2 J T_r - T_{r-1} runs on (r+2) x N arrays whose
    row o holds superdiagonal o, zero-padded at the end.  M_0 = I exactly.
    """
    diag, off = jacobi_matrix(params, n)
    stacks = [np.empty((d + 1 - o, n - o)) for o in range(d + 1)]
    prev = np.zeros((d + 2, n))
    cur = np.zeros((d + 2, n))
    cur[0] = 1.0
    for r in range(d + 1):
        for o in range(r + 1):
            stacks[o][r - o] = cur[o, : n - o]
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
    return stacks


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
    try:
        return TransformPlan(params, n, theta, weights, u)
    except ValueError as exc:
        raise PlanFormatError(f"plan header: {exc}") from None
