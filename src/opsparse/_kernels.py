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
the plan's roots, are built on it.
``recurrence_table`` is point-major, the layout of the transform matrix F.
It fills the table in blocks of ``_TABLE_BLOCK`` degrees: the sweep's values
go, one contiguous row per degree, into a small degree-major buffer, and each
full block (and the short last one) goes into the table's columns in one
strided copy, which writes a block's degrees of a point side by side.  A
per-degree column write touches one cache line per point for every degree
instead.  Copies change no bit.

Parity fold.  When every b[j] is 0 (alpha = beta) the family has
p_j(-x) = (-1)^j p_j(x) (Szego, Orthogonal Polynomials, 4.1), and it holds
bit for bit in the sweep: IEEE negation commutes with multiplication and
subtraction, and the zero additions are skipped, so the sweep at -x yields
p_j(x) with its sign flipped at odd j, up to the sign of a zero.  Every
kernel therefore sweeps each distinct |x| once, at the first point that has
it, and unfolds the other points by parity (``_Fold``); a plan's roots come
in exact +- pairs, so its sweeps run over half of them.  Any other b is the
identity fold: every point is swept.
``recurrence_table``, ``recurrence_last`` and ``sumsq_maxabs`` return what
the unfolded sweep returns, bit for bit.

``apply_forward`` maps a (B, jmax+1) stack of coefficient rows to
(B, len(lam)) in one sweep, adding v p_j into row r only where row r's
coefficient v at degree j is nonzero; under the fold it sums the even and the
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

    Under the parity fold (every b[j] is 0) ``u`` holds each distinct |x|
    once, signed as at ``first``, the first point that has it, in the order
    of those points; point i takes the values at u[inv[i]], with odd degrees
    negated where ``flip[i]``.  ``rows`` indexes the representatives in a
    point-major table: a slice when they are the leading points, as a plan's
    left half is.  Otherwise the fold is the identity and u is x.
    """

    def __init__(self, b, x):
        x = np.asarray(x, dtype=np.float64)
        self.n = x.shape[0]
        self.parity = int(not np.any(b[1:]))
        if not self.parity:
            self.u, self.rows = x, slice(None)
            return
        # group the points by |x|; a stable sort puts each group's first point
        # at its head (np.unique would do, but its first call imports numpy.ma,
        # about 1 MB of resident memory)
        ax = np.abs(x)
        order = np.argsort(ax, kind="stable")
        s = ax[order]
        head = np.empty(self.n, dtype=bool)
        head[:1] = True
        head[1:] = s[1:] != s[:-1]
        first = order[head]
        is_first = np.zeros(self.n, dtype=bool)
        is_first[first] = True
        self.first = np.flatnonzero(is_first)
        # each point's group, by ascending |x|, then that group's place in first
        self.inv = np.searchsorted(self.first, first)[np.searchsorted(s[head], ax)]
        self.u = x[self.first]
        self.flip = (x < 0.0) != (self.u[self.inv] < 0.0)
        m = self.first.shape[0]
        self.rows = slice(0, m) if m == 0 or self.first[-1] == m - 1 else self.first

    def unfold(self, v, j):
        """Values of degree parity j at every point from v, the values at u
        along v's last axis."""
        if not self.parity:
            return v
        out = v[..., self.inv]
        if j % 2:
            np.negative(out, out=out, where=self.flip)
        return out

    def unfold_rows(self, table):
        """Fill, in place, the rows of a point-major table that are not
        representatives from theirs, one row at a time."""
        if not self.parity:
            return
        src = self.first[self.inv]
        sign = np.where(np.arange(table.shape[1]) % 2, -1.0, 1.0)
        for i in np.flatnonzero(src != np.arange(self.n)):
            if self.flip[i]:
                np.multiply(table[src[i]], sign, out=table[i])
            else:
                table[i] = table[src[i]]


def recurrence_table(p0, a, b, c, x):
    """Table of p_j(x_i), shape (len(x), jmax+1): row i is one point, column
    j one degree, filled ``_TABLE_BLOCK`` degrees at a time; under the fold
    the mirror rows are filled from the swept ones in place."""
    fold = _Fold(b, x)
    ncol = a.shape[0]
    out = np.empty((fold.n, ncol))
    buf = np.empty((min(_TABLE_BLOCK, ncol), fold.u.shape[0]))
    for j, p in enumerate(_sweep(p0, a, b, c, fold.u)):
        k = j % _TABLE_BLOCK
        buf[k] = p
        if k == _TABLE_BLOCK - 1 or j == ncol - 1:
            out[fold.rows, j - k : j + 1] = buf[: k + 1].T
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


def value_and_slope(p0, a, b, c, u, kappa, theta):
    """(p_n, d/dtheta p_n) at cos theta, n = jmax, from one sweep, by the
    identity (1 - x^2) p_n'(x) = (u - n x) p_n(x) + kappa p_{n-1}(x)."""
    x = np.cos(theta)
    pm, pn = recurrence_last(p0, a, b, c, x)
    return pn, -((u - (a.shape[0] - 1) * x) * pn + kappa * pm) / np.sin(theta)


def sumsq_maxabs(p0, a, b, c, x):
    """(sum_j p_j(x)^2, max_j |p_j(x)|) accumulated over j = 0..jmax."""
    fold = _Fold(b, x)
    sweep = _sweep(p0, a, b, c, fold.u)
    p = next(sweep)
    ss = p * p
    mx = np.abs(p)
    for p in sweep:
        ss += p * p
        np.maximum(mx, np.abs(p), out=mx)
    return fold.unfold(ss, 0), fold.unfold(mx, 0)


def apply_forward(p0, a, b, c, lam, sqw, x):
    """y[r, l] = sqw[l] * sum_j x[r, j] p_j(lam[l]) for a (B, jmax+1) stack x,
    from one sweep and without building the table."""
    fold = _Fold(b, lam)
    degs, rows = np.nonzero(x.T)  # ordered by degree
    vals = x[rows, degs]
    # acc[0] sums the even degrees and acc[1] the odd ones under the fold;
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
    """out[j] = sum_l sqw[l] p_j(lam[l]) yvec[l]; under the fold the points
    of one |lambda| are summed first, signed by parity at odd degrees."""
    fold = _Fold(b, lam)
    z = sqw * yvec
    if fold.parity:
        m = fold.u.shape[0]
        z = np.stack([np.bincount(fold.inv, z, m),
                      np.bincount(fold.inv, np.where(fold.flip, -z, z), m)])
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
