"""Low-degree Chebyshev filters approximating an angular indicator bump.

A boxcar for (center, width, eps) is a polynomial p of modest degree with
p(cos(phi)) within eps of 1 for |phi - center| <= width, within eps of 0 for
|phi - center| >= 2*width, and bounded by 1 + eps everywhere on [0, pi].

Construction: take the indicator of the symmetric angular set
{+-center +- 1.5*width} on the circle (merging across 0 or pi when the bump
sits near an endpoint), whose cosine coefficients are available in closed
form, and damp coefficient m by the heat-kernel factor exp(-m^2 sigma^2 / 2).
The smoothed indicator stays in [0, 1] exactly, so only the series truncation
and the Gaussian blur eat into the eps budget; sigma is sized so each
contributes a fraction of eps.  Every filter is verified on a dense angle
grid before being returned; if verification fails the degree grows by a
quarter, with sigma held, a bounded number of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.special import erfcinv

__all__ = ["BoxcarFilter", "BoxcarConstructionError", "build_boxcar"]

# Half-width of the sharp box relative to the filter width; leaves a margin
# of width/2 on each side for the Gaussian roll-off.
_BOX_FACTOR = 1.5
# At most this many degree increases before giving up.
_MAX_GROWTHS = 6
# Relaxation applied to eps during grid verification.
SLACK = 0.1


class BoxcarConstructionError(Exception):
    """Verification kept failing; eps is too small for float64 headroom."""


@dataclass(frozen=True, eq=False)
class BoxcarFilter:
    """Chebyshev coefficients of one verified boxcar polynomial."""

    center: float
    width: float
    eps: float
    degree: int
    coeffs: np.ndarray

    def __call__(self, x):
        """Evaluate sum_r b_r T_r(x) by Clenshaw backward recurrence."""
        return chebval(x, self.coeffs)


def _indicator_coeffs(center: float, half: float, degree: int) -> np.ndarray:
    """Cosine coefficients a_0..a_d of the symmetrized box indicator.

    The target is the indicator of ([c-h, c+h] union [-c-h, -c+h]) mod 2pi,
    restricted to even functions.  On [0, pi] that is the single interval
    [max(0, c-h), min(pi, c+h)]: overlaps across theta = 0 or theta = pi
    merge, so the target never exceeds 1.
    """
    lo, hi = max(0.0, center - half), min(math.pi, center + half)
    if lo == 0.0 and hi == math.pi:
        out = np.zeros(degree + 1)
        out[0] = 1.0
        return out
    m = np.arange(1, degree + 1, dtype=np.float64)
    a0 = (hi - lo) / math.pi
    am = (2.0 / (math.pi * m)) * (np.sin(m * hi) - np.sin(m * lo))
    return np.concatenate(([a0], am))


def _verify(coeffs: np.ndarray, center: float, width: float, eps: float) -> bool:
    degree = len(coeffs) - 1
    phi = np.linspace(0.0, math.pi, 64 * degree + 1)
    vals = chebval(np.cos(phi), coeffs)
    tol = eps * (1.0 + SLACK)
    inside = np.abs(phi - center) <= width
    outside = np.abs(phi - center) >= 2.0 * width
    if np.any(np.abs(vals[inside] - 1.0) > tol):
        return False
    if np.any(np.abs(vals[outside]) > tol):
        return False
    return not np.any(np.abs(vals) > 1.0 + tol)


def build_boxcar(center: float, width: float, eps: float) -> BoxcarFilter:
    """Construct and grid-verify a boxcar filter."""
    if not 0.0 <= center <= math.pi:
        raise ValueError("center must lie in [0, pi]")
    if not 0.0 < width <= math.pi / 2.0:
        raise ValueError("width must lie in (0, pi/2]")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    center, width, eps = float(center), float(width), float(eps)
    half = _BOX_FACTOR * width
    margin = half - width  # distance from the pass band edge to the box edge
    # Gaussian tail at the margin <= eps/4.
    q = math.sqrt(2.0) * float(erfcinv(eps / 2.0))
    sigma = margin / q
    # Truncate where the damped coefficient tail is below eps/8.
    d = 4
    while (4.0 / (math.pi * d)) * math.exp(-0.5 * (d * sigma) ** 2) > eps / 8.0:
        d += 1
    for _ in range(_MAX_GROWTHS + 1):
        m = np.arange(d + 1, dtype=np.float64)
        coeffs = _indicator_coeffs(center, half, d) * np.exp(-0.5 * (m * sigma) ** 2)
        if _verify(coeffs, center, width, eps):
            return BoxcarFilter(center, width, eps, d, coeffs)
        # the first guess falls a few percent short (its tail bound is loose);
        # a quarter more keeps the degree inside ReductionConfig.degree_budget,
        # which grows like the first guess, as log(1/eps) / width
        d += d // 4
    raise BoxcarConstructionError(
        f"boxcar verification failed for center={center!r} width={width!r} "
        f"eps={eps!r} after {_MAX_GROWTHS} degree increases"
    )
