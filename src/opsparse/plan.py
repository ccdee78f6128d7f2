"""Transform plans: roots, quadrature weights, banded moment matrices, I/O.

A plan packages everything the sublinear recovery pipeline needs about a fixed
(alpha, beta, N) transform: the root angles, the Gauss weights, the flatness
constant U = max |F|, and the banded matrices M_r = F^T T_r(D_lambda) F for
Chebyshev degrees r = 0..d.  M_r is exactly r-banded because the quadrature is
exact through degree 2N-1, so only the diagonals |i-j| <= r are stored.

The on-disk format is a little-endian binary blob: magic ``OPSP``, a u32
version, f64 alpha/beta, u64 N and d, f64 U, the theta/lambda/weight arrays,
the moment bands row-major (row j holding columns max(0,j-r)..min(N-1,j-r+2r)),
and a trailing CRC-32 of everything after the version field.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from . import _kernels
from .jacobi import JacobiParams, compute_roots, compute_weights, orthonormal_coeffs

__all__ = [
    "MomentMatrices",
    "TransformPlan",
    "build_plan",
    "save_plan",
    "load_plan",
    "apply_forward",
    "apply_inverse",
    "flatness",
    "PlanFormatError",
    "PlanMagicError",
    "PlanVersionError",
    "PlanTruncatedError",
    "PlanChecksumError",
]

MAGIC = b"OPSP"
VERSION = 1

# Dense transform matrices are cached up to this size (128 MB at f64).
DENSE_CACHE_LIMIT = 4096
# Cap for the per-row cache, in total cached floats.
_ROW_CACHE_FLOATS = 2**25


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


class MomentMatrices:
    """Banded M_r = F^T T_r(D_lambda) F for r = 0..degree, stored as diagonals.

    ``stacks[o]`` is an array of shape (degree+1-o, N-o) whose row (r-o) is the
    o-th superdiagonal of M_r; subdiagonals follow by symmetry.  Entries with
    |i-j| > r are exactly zero by storage.
    """

    def __init__(self, degree: int, n: int, stacks: list[np.ndarray]):
        self.degree = int(degree)
        self.n = int(n)
        self.stacks = stacks

    def diagonal(self, r: int, o: int) -> np.ndarray:
        """The o-th (o >= 0) diagonal of M_r."""
        if not (0 <= o <= r <= self.degree):
            raise ValueError(f"need 0 <= o <= r <= {self.degree}")
        return self.stacks[o][r - o]

    def entry(self, r: int, j: int, i: int) -> float:
        o = abs(i - j)
        if o > r:
            return 0.0
        return float(self.stacks[o][r - o][min(i, j)])

    def band_matrix(self, r: int) -> np.ndarray:
        """Row-major band of M_r, shape (N, 2r+1); out-of-range cells are 0.

        Column c of row j holds M_r[j, j - r + c].
        """
        n = self.n
        out = np.zeros((n, 2 * r + 1))
        for o in range(0, r + 1):
            vals = self.stacks[o][r - o]
            out[: n - o, r + o] = vals
            if o:
                out[o:, r - o] = vals
        return out

    def dense(self, r: int) -> np.ndarray:
        """Dense N x N M_r (tests and small N only)."""
        n = self.n
        out = np.zeros((n, n))
        for o in range(0, r + 1):
            vals = self.stacks[o][r - o]
            idx = np.arange(n - o)
            out[idx, idx + o] = vals
            out[idx + o, idx] = vals
        return out


@dataclass
class TransformPlan:
    """Precomputed transform data for one (alpha, beta, N)."""

    params: JacobiParams
    n: int
    theta: np.ndarray
    lam: np.ndarray
    weights: np.ndarray
    U: float
    moments: MomentMatrices
    sqw: np.ndarray = field(init=False, repr=False)
    bucket_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.sqw = np.sqrt(self.weights)
        edges = np.arange(self.n + 1) * (math.pi / self.n)
        self.bucket_offsets = np.searchsorted(self.theta, edges, side="left")
        self._coeffs = orthonormal_coeffs(self.params, self.n - 1)
        self._dense = None
        self._rows: dict[int, np.ndarray] = {}

    def __getstate__(self):
        # the caches are derived data; workers rebuild what they use
        return (self.params, self.n, self.theta, self.lam, self.weights,
                self.U, self.moments)

    def __setstate__(self, state):
        (self.params, self.n, self.theta, self.lam, self.weights,
         self.U, self.moments) = state
        self.__post_init__()

    # -- dense access -------------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Dense F (rows indexed by root, columns by degree); cached."""
        if self._dense is None:
            p0, a, b, c = self._coeffs
            table = _kernels.recurrence_table(p0, a, b, c, self.lam)
            self._dense = (table * self.sqw).T.copy()
        return self._dense

    def row(self, ell: int) -> np.ndarray:
        """Row F[ell, :] = sqrt(w_ell) * (p_0..p_{N-1})(lambda_ell); cached."""
        if self._dense is not None:
            return self._dense[ell]
        got = self._rows.get(ell)
        if got is None:
            p0, a, b, c = self._coeffs
            table = _kernels.recurrence_table(p0, a, b, c, self.lam[ell : ell + 1])
            got = self.sqw[ell] * table[:, 0]
            if len(self._rows) * self.n < _ROW_CACHE_FLOATS:
                self._rows[ell] = got
        return got

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
        p0, a, b, c = self._coeffs
        return _kernels.apply_forward(p0, a, b, c, self.lam, self.sqw, x)

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """F^T @ y; the exact inverse of forward since F is orthogonal."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},)")
        p0, a, b, c = self._coeffs
        return _kernels.apply_adjoint(p0, a, b, c, self.lam, self.sqw, y)

    # -- moment combination -------------------------------------------------

    def filter_band(self, filt) -> np.ndarray:
        """Banded sum_r b_r M_r for a Chebyshev-coefficient filter.

        Returns shape (N, 2d+1) with row j holding columns j-d..j+d (zeros
        outside the matrix).  ``filt`` needs ``coeffs`` and ``degree``.
        """
        d = filt.degree
        if d > self.moments.degree:
            raise ValueError(
                f"filter degree {d} exceeds plan moment degree {self.moments.degree}"
            )
        coeffs = np.asarray(filt.coeffs, dtype=np.float64)
        n = self.n
        out = np.zeros((n, 2 * d + 1))
        for o in range(0, d + 1):
            stack = self.moments.stacks[o][: d + 1 - o]
            vals = coeffs[o:] @ stack
            out[: n - o, d + o] = vals
            if o:
                out[o:, d - o] = vals
        return out

    def bucket_count(self, i: int) -> int:
        return int(self.bucket_offsets[i + 1] - self.bucket_offsets[i])


def _build_moments(params, n, d, lam, sqw) -> MomentMatrices:
    """Diagonal stacks of M_0..M_d.

    M_0 = F^T F is the identity because F is square and orthogonal, so it is
    stored exactly; M_1..M_d are accumulated in one pass chunked over roots.
    """
    stacks = [np.zeros((d + 1 - o, n - o)) for o in range(d + 1)]
    stacks[0][0] = 1.0
    if d == 0:
        return MomentMatrices(d, n, stacks)
    p0, a, b, c = orthonormal_coeffs(params, n - 1)
    chunk = max(128, min(n, int(2.0e7) // n))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        table = _kernels.recurrence_table(p0, a, b, c, lam[start:stop])
        fchunk = (table * sqw[start:stop]).T  # (rows, degrees)
        tm = chebvander(lam[start:stop], d)  # (rows, d+1)
        for o in range(d + 1):
            r0 = max(o, 1)  # first Chebyshev degree accumulated on diagonal o
            b_o = fchunk[:, : n - o] * fchunk[:, o:]
            stacks[o][r0 - o :] += tm[:, r0:].T @ b_o
    return MomentMatrices(d, n, stacks)


def build_plan(params: JacobiParams, n: int, degree: int = 0) -> TransformPlan:
    """Compute roots, weights, flatness, and moments up to ``degree``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if degree < 0 or degree >= 2 * n:
        raise ValueError("moment degree must be in [0, 2n)")
    theta = compute_roots(params, n)
    weights, u = compute_weights(params, theta, n)
    lam = np.cos(theta)
    moments = _build_moments(params, n, degree, lam, np.sqrt(weights))
    return TransformPlan(params, n, theta, lam, weights, u, moments)


def apply_forward(plan: TransformPlan, x: np.ndarray) -> np.ndarray:
    return plan.forward(x)


def apply_inverse(plan: TransformPlan, y: np.ndarray) -> np.ndarray:
    return plan.inverse(y)


def flatness(plan: TransformPlan) -> float:
    """Largest absolute entry of F (the flatness constant U)."""
    return plan.U


# ---------------------------------------------------------------------------
# persistence


def _band_payload(moments: MomentMatrices) -> bytes:
    parts = []
    n = moments.n
    for r in range(moments.degree + 1):
        band = moments.band_matrix(r)
        if r == 0:
            parts.append(band[:, 0].tobytes())
            continue
        j = np.arange(n)[:, None]
        cols = j + (np.arange(2 * r + 1)[None, :] - r)
        mask = (cols >= 0) & (cols < n)
        parts.append(band[mask].tobytes())
    return b"".join(parts)


def save_plan(plan: TransformPlan, path) -> None:
    head = struct.pack(
        "<ddQQd",
        plan.params.alpha,
        plan.params.beta,
        plan.n,
        plan.moments.degree,
        plan.U,
    )
    body = (
        head
        + plan.theta.astype("<f8").tobytes()
        + plan.lam.astype("<f8").tobytes()
        + plan.weights.astype("<f8").tobytes()
        + _band_payload(plan.moments)
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
    head_size = struct.calcsize("<ddQQd")
    if len(body) < head_size:
        raise PlanTruncatedError("plan file truncated")
    alpha, beta, n, degree, u = struct.unpack_from("<ddQQd", body, 0)
    n = int(n)
    degree = int(degree)
    band_floats = sum(
        (2 * r + 1) * n - r * (r + 1) for r in range(degree + 1)
    )
    expect = head_size + 8 * (3 * n + band_floats)
    if len(body) != expect:
        raise PlanTruncatedError(
            f"plan file has {len(body)} payload bytes, expected {expect}"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise PlanChecksumError("plan file checksum mismatch")

    off = head_size
    theta = np.frombuffer(blob, dtype="<f8", count=n, offset=8 + off).copy()
    off += 8 * n
    lam = np.frombuffer(blob, dtype="<f8", count=n, offset=8 + off).copy()
    off += 8 * n
    weights = np.frombuffer(blob, dtype="<f8", count=n, offset=8 + off).copy()
    off += 8 * n

    stacks = [np.zeros((degree + 1 - o, n - o)) for o in range(degree + 1)]
    for r in range(degree + 1):
        count = (2 * r + 1) * n - r * (r + 1)
        flat = np.frombuffer(blob, dtype="<f8", count=count, offset=8 + off)
        off += 8 * count
        if r == 0:
            stacks[0][0] = flat
            continue
        band = np.zeros((n, 2 * r + 1))
        j = np.arange(n)[:, None]
        cols = j + (np.arange(2 * r + 1)[None, :] - r)
        mask = (cols >= 0) & (cols < n)
        band[mask] = flat
        for o in range(r + 1):
            stacks[o][r - o] = band[: n - o, r + o]
    moments = MomentMatrices(degree, n, stacks)
    return TransformPlan(JacobiParams(alpha, beta), n, theta, lam, weights, u, moments)
