"""Recurrence kernels for the orthonormal Jacobi polynomials, in numpy.

``_sweep`` is the one place the orthonormal three-term recurrence

    p_0(x) = p0,   p_1(x) = (a[1] x + b[1]) p0,
    p_j(x) = (a[j] x + b[j]) p_{j-1}(x) - c[j] p_{j-2}(x)

is written, with coefficient arrays indexed so that entry 0 is unused.  It
steps the degree with whole-array operations over the evaluation points, in
place: three preallocated buffers rotate, and a step adds b[j] only when it
is nonzero (every b[j] is exactly 0 when alpha = beta).  Each element goes
through the same IEEE operations in the same order as the expression above;
a skipped addition of an exact zero could change only the sign of a zero.
A yielded p_j is overwritten while p_{j+2} is computed, so a consumer may
hold the current and the previous value, no more; every kernel below uses
them in time, and ``recurrence_last``, which keeps the last two, relies on
that.  ``value_and_slope`` and ``refine_roots``, the Newton step that finds
the plan's roots, are built on it.  ``sumsq_maxabs`` is the plan's last
set-up sweep: over its roots and the ends +-1 it gives the weights' sums
and the root gate's p_{n-1} and p_n together.
``recurrence_table`` is point-major, the layout of the transform matrix F.
It fills the table in blocks of ``_TABLE_BLOCK`` degrees: the sweep's values
go, one contiguous row per degree, into a small degree-major buffer, and each
full block (and the short last one) goes into the table's columns in one
strided copy, which writes a block's degrees of a point side by side.  A
per-degree column write touches one cache line per point for every degree
instead.  Copies change no bit.  A per-point scale, F's sqrt(w), is applied
as each degree goes into the buffer, with the bits of scaling the finished
table.

Parity fold.  When every b[j] is 0 (alpha = beta) the family has
p_j(-x) = (-1)^j p_j(x) (Szego, Orthogonal Polynomials, 4.1), and it holds
bit for bit in the sweep: IEEE negation commutes with multiplication and
subtraction, and the zero additions are skipped, so the sweep at -x yields
p_j(x) with its sign flipped at odd j, up to the sign of a zero.  A plan's
roots are laid out for it: ``jacobi.root_cosines`` makes the last h = n // 2
points the first h negated and reversed, exactly.  Every kernel checks that
mirror (``_Fold``); where it holds it sweeps the leading n - h points, a
middle one included, and fills point n-1-l from point l by parity, so a
plan's sweeps run over half its roots.  Any other point set, a subset of a
plan's roots too, and any other b are swept point by point.
``recurrence_table``, ``recurrence_last`` and ``sumsq_maxabs`` return what
the unfolded sweep returns, bit for bit.

``apply_forward`` maps a (B, jmax+1) stack of coefficient rows to
(B, len(lam)) in one sweep, adding v p_j into row r only where row r's
coefficient v at degree j is nonzero; under parity it sums the even and the
odd degrees apart and gives each point E + O or, at a mirror point, E - O.
Each row gets the sum it would get alone at each point alone, so evaluating
at a subset of the points, or stacking rows, changes no bit of any output.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "recurrence_table",
    "recurrence_last",
    "value_and_slope",
    "theta_slope",
    "sumsq_maxabs",
    "apply_forward",
    "apply_adjoint",
    "refine_roots",
]

BACKEND = "numpy"
# Degrees per block of ``recurrence_table``'s fill (64 measured faster than 16
# and 256 at N = 2048 and 4096).
_TABLE_BLOCK = 64


def _sweep(p0, a, b, c, x):
    """Yield p_0(x), p_1(x), ..., p_jmax(x) with jmax = len(a) - 1.

    The yielded arrays are reused buffers: p_j stays valid until p_{j+2} is
    computed.
    """
    jmax = a.shape[0] - 1
    x = np.asarray(x, dtype=np.float64)
    pm = np.full(x.shape[0], p0)
    yield pm
    if jmax == 0:
        return
    pc = (a[1] * x + b[1]) * p0
    yield pc
    t = np.empty_like(pc)
    for j in range(2, jmax + 1):
        np.multiply(x, a[j], out=t)
        if b[j] != 0.0:
            t += b[j]
        t *= pc
        pm *= c[j]
        t -= pm
        pm, pc, t = pc, t, pm
        yield pc


class _Fold:
    """The points a sweep evaluates, and the way back to every point.

    ``mirror`` holds under parity (every b[j] is 0) when the last h = n // 2
    points are the first h negated and reversed, x[n-1-l] = -x[l] bit for bit,
    as ``jacobi.root_cosines`` makes a plan's roots.  Then ``u`` is the
    leading m = n - h points, a middle point included, and point n-1-l takes
    point l's values, negated at odd degrees.  Otherwise h is 0, u is x and
    every point is swept.
    """

    def __init__(self, b, x):
        x = np.asarray(x, dtype=np.float64)
        self.n = n = x.shape[0]
        h = n // 2
        self.parity = int(not np.any(b[1:]))
        self.mirror = bool(self.parity and h and np.array_equal(x[n - h:], -x[:h][::-1]))
        self.h = h if self.mirror else 0
        self.u = x[: n - self.h]

    def unfold(self, v, j):
        """Values of degree parity j at every point from v, the values at u
        along v's last axis."""
        if not self.mirror:
            return v
        tail = v[..., self.h - 1 :: -1]
        return np.concatenate((v, -tail if j % 2 else tail), axis=-1)

    def unfold_rows(self, table):
        """Fill, in place, the mirror rows of a point-major table from the
        swept ones: one reversed-slice copy, odd degrees negated."""
        if not self.mirror:
            return
        tail = table[self.n - self.h :]
        tail[...] = table[self.h - 1 :: -1]
        tail[:, 1::2] *= -1.0


def recurrence_table(p0, a, b, c, x, scale=None):
    """Table of p_j(x_i), shape (len(x), jmax+1): row i is one point, column
    j one degree, filled ``_TABLE_BLOCK`` degrees at a time; under the fold
    the mirror rows are filled from the swept ones in place.  With ``scale``
    row i is scale[i] p_j(x_i), multiplied as each degree goes into the
    block buffer; under the fold the mirror rows copy scaled rows, so scale
    must be its own mirror, scale[n-1-l] = scale[l] bit for bit, as a plan's
    sqrt(w) is."""
    fold = _Fold(b, x)
    m = fold.u.shape[0]
    ncol = a.shape[0]
    out = np.empty((fold.n, ncol))
    buf = np.empty((min(_TABLE_BLOCK, ncol), m))
    if scale is not None:
        scale = np.asarray(scale, dtype=np.float64)[:m]
    for j, p in enumerate(_sweep(p0, a, b, c, fold.u)):
        k = j % _TABLE_BLOCK
        if scale is None:
            buf[k] = p
        else:
            np.multiply(p, scale, out=buf[k])
        if k == _TABLE_BLOCK - 1 or j == ncol - 1:
            out[:m, j - k : j + 1] = buf[: k + 1].T
    fold.unfold_rows(out)
    return out


def recurrence_last(p0, a, b, c, x):
    """(p_{jmax-1}(x), p_jmax(x)) without materializing the table; p_{-1} = 0."""
    fold = _Fold(b, x)
    jmax = a.shape[0] - 1
    prev = last = np.zeros(fold.u.shape[0])
    for p in _sweep(p0, a, b, c, fold.u):
        prev, last = last, p
    return fold.unfold(prev, jmax - 1), fold.unfold(last, jmax)


def theta_slope(u, kappa, n, x, theta, pm, pn):
    """d/dtheta p_n at x = cos theta from p_{n-1} and p_n, by the identity
    (1 - x^2) p_n'(x) = (u - n x) p_n(x) + kappa p_{n-1}(x)."""
    return -((u - n * x) * pn + kappa * pm) / np.sin(theta)


def value_and_slope(p0, a, b, c, u, kappa, theta):
    """(p_n, d/dtheta p_n) at cos theta, n = jmax, from one sweep."""
    x = np.cos(theta)
    pm, pn = recurrence_last(p0, a, b, c, x)
    return pn, theta_slope(u, kappa, a.shape[0] - 1, x, theta, pm, pn)


def sumsq_maxabs(p0, a, b, c, x):
    """One sweep to degree jmax over the points x and the ends 1 and -1:
    (sum_{j<jmax} p_j(x)^2, max_{j<jmax} |p_j(x)|, p_{jmax-1}(x), p_jmax(x),
    p_jmax at (1, -1)).  The sums run degree by degree and leave the ends
    out: p_j(1) grows like j^(alpha+1/2), and its square would overflow at
    large alpha or beta.  The ends are swept after the points a fold keeps,
    so under the fold they cost two points and the mirror none.  The max is
    taken over the squares the sums already hold, with one square root at
    the end: sqrt(fl(x^2)) = |x| in binary64 whenever x^2 is a normal,
    finite number, so it is max |p_j| bit for bit, at three array operations
    per degree on top of the sweep.  Where a square overflows (alpha = 150
    near theta = 0.01, far past the exponents a plan builds at) the max is
    inf, as the sum is."""
    fold = _Fold(b, x)
    jmax = a.shape[0] - 1
    m = fold.u.shape[0]
    ss, mx, tmp = np.zeros(m), np.zeros(m), np.empty(m)
    prev = last = np.zeros(m + 2)
    for j, p in enumerate(_sweep(p0, a, b, c, np.concatenate((fold.u, (1.0, -1.0))))):
        if j < jmax:
            q = p[:m]
            np.multiply(q, q, out=tmp)
            ss += tmp
            np.maximum(mx, tmp, out=mx)
        prev, last = last, p
    np.sqrt(mx, out=mx)
    return (fold.unfold(ss, 0), fold.unfold(mx, 0), fold.unfold(prev[:m], jmax - 1),
            fold.unfold(last[:m], jmax), last[m:])


def apply_forward(p0, a, b, c, lam, sqw, x):
    """y[r, l] = sqw[l] * sum_j x[r, j] p_j(lam[l]) for a (B, jmax+1) stack x,
    from one sweep and without building the table."""
    fold = _Fold(b, lam)
    degs, rows = np.nonzero(x.T)  # ordered by degree
    vals = x[rows, degs]
    # acc[0] sums the even degrees and acc[1] the odd ones under parity;
    # without it acc[0] sums them all
    acc = np.zeros((1 + fold.parity, x.shape[0], fold.u.shape[0]))
    k = 0
    for j, p in enumerate(_sweep(p0, a, b, c, fold.u)):
        while k < len(degs) and degs[k] == j:
            acc[j & fold.parity, rows[k]] += vals[k] * p
            k += 1
    y = fold.unfold(acc[0], 0)
    if fold.parity:
        y += fold.unfold(acc[1], 1)
    return sqw * y


def apply_adjoint(p0, a, b, c, lam, sqw, yvec):
    """out[j] = sum_l sqw[l] p_j(lam[l]) yvec[l]; under parity the even and
    the odd degrees take their own weights, and under the mirror point l < h
    is weighted by its sum with point n-1-l at even degrees and by their
    difference at odd ones."""
    fold = _Fold(b, lam)
    z = sqw * yvec
    if fold.parity:
        m = fold.u.shape[0]
        tail = z[m:][::-1]  # the mirrors of points 0..h-1
        z = np.stack((z[:m], z[:m]))
        z[0, : fold.h] += tail
        z[1, : fold.h] -= tail
    else:
        z = z[None]
    return np.array([z[j & fold.parity] @ p
                     for j, p in enumerate(_sweep(p0, a, b, c, fold.u))])


def refine_roots(p0, a, b, c, u, kappa, alpha, beta, theta):
    """One Newton step in theta on
    f = sin(theta/2)^(alpha+1/2) cos(theta/2)^(beta+1/2) p_jmax(cos theta),
    which behaves like a cosine in theta, so the step reaches every root from
    an asymptotic guess.  With p_jmax and its theta slope from
    ``value_and_slope`` and g = d/dtheta log of the factor, the step is
    p / (p' + p g).  It starts from arccos(cos theta), the angle whose cosine
    the sweep evaluates; angles where p' + p g vanishes are returned there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.arccos(np.cos(theta))
        f, fp = value_and_slope(p0, a, b, c, u, kappa, theta)
        tan_half = np.tan(0.5 * theta)
        den = fp + 0.5 * f * ((alpha + 0.5) / tan_half - (beta + 0.5) * tan_half)
        return theta - np.where(den != 0.0, f / den, 0.0)
