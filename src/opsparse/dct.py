"""Bridge between the Chebyshev-node cosine transform and the length-2N DFT.

A length-N coefficient vector c maps to a complex length-2N signal f whose
DFT carries the cosine transform of c in every bin, twice, under a fixed
modulation.  Sparsity transfers exactly: |supp(f)| = 2|supp(c)| minus one if
index 0 is occupied, so a sparse-FFT black box yields a sparse cosine
transform.  The Fourier step is pluggable; a dense FFT is the default.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EmbeddingConsistencyError",
    "chebyshev_transform_direct",
    "embed",
    "extract",
    "chebyshev_via_fourier",
]


class EmbeddingConsistencyError(ValueError):
    """The two DFT bins that should duplicate each coefficient disagree."""


def chebyshev_transform_direct(c: np.ndarray) -> np.ndarray:
    """Dense O(N^2) transform: chat[j] = sum_l c[l] cos((pi/2N) l (2j+1))."""
    c = np.asarray(c, dtype=np.float64)
    n = len(c)
    ell = np.arange(n)
    j = np.arange(n)
    return np.cos((np.pi / (2 * n)) * np.outer(2 * j + 1, ell)) @ c


def embed(c: np.ndarray) -> np.ndarray:
    """Fold c into the complex length-2N signal whose DFT duplicates chat.

    x places c symmetrically on a length-4N circle (index 0 doubled), y
    rotates by N, z modulates by powers of omega = exp(-2 pi i / 4N), and f
    keeps the first 2N entries.  The kept half of y is
    [0, c[N-1..1], 2 c[0], c[1..N-1]], built here directly.
    """
    c = np.asarray(c, dtype=np.float64)
    n = len(c)
    y = np.zeros(2 * n)
    y[1:n] = c[:0:-1]
    y[n] = 2.0 * c[0]
    y[n + 1 :] = c[1:]
    j = np.arange(2 * n)
    omega_pow = np.exp((-2j * np.pi / (4 * n)) * j)
    return omega_pow * y


def extract(fhat: np.ndarray) -> np.ndarray:
    """Recover chat from the length-2N DFT of an embedded signal.

    Each coefficient appears in two bins (j and 2N-1-j) with opposite signs
    after demodulation; the pair must agree to 1e-6 of the largest bin (or
    of 1), and is averaged.
    """
    fhat = np.asarray(fhat, dtype=np.complex128)
    if len(fhat) % 2:
        raise ValueError("expected an even-length spectrum")
    n = len(fhat) // 2
    j = np.arange(n)
    low = fhat[:n]
    high = fhat[2 * n - 1 - j]
    scale = max(1.0, float(np.abs(fhat).max()))
    bad = np.abs(low + high) > 1e-6 * scale
    if np.any(bad):
        raise EmbeddingConsistencyError(
            f"duplicated spectrum bins disagree at {int(np.argmax(bad))} "
            f"(|sum| up to {float(np.abs(low + high).max()):.3e})"
        )
    # f_hat[j] = 2 * omega^{(2j+1)N} * chat[j] with omega^{(2j+1)N} = -i(-1)^j
    phase = -1j * np.where(j % 2 == 0, 1.0, -1.0)
    chat = (low - high) / (4.0 * phase)
    return chat.real


def chebyshev_via_fourier(c: np.ndarray, fourier=None) -> np.ndarray:
    """chat computed through the embedding and a (pluggable) DFT oracle."""
    if fourier is None:
        fourier = np.fft.fft
    return extract(fourier(embed(c)))
