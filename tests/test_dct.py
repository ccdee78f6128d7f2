"""Cosine-transform bridge: the direct transform is cross-checked against
scipy's DCT, then the embedding round trip against the direct transform."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from opsparse.dct import (
    EmbeddingConsistencyError,
    chebyshev_transform_direct,
    chebyshev_via_fourier,
    embed,
    extract,
)


def scipy_oracle(c):
    """DCT-III computes the same sum once the j=0 term is rescaled."""
    x = np.asarray(c, dtype=np.float64).copy()
    x[1:] *= 0.5
    return scipy.fft.dct(x, type=3)


def test_direct_matches_scipy(rng):
    for n in (1, 2, 3, 17, 256):
        c = rng.standard_normal(n)
        np.testing.assert_allclose(
            chebyshev_transform_direct(c), scipy_oracle(c), atol=1e-11
        )


def test_roundtrip_matches_direct(rng):
    for n in (1, 2, 5, 64, 333, 1024):
        c = rng.standard_normal(n)
        got = chebyshev_via_fourier(c)
        np.testing.assert_allclose(got, chebyshev_transform_direct(c), atol=1e-9)


@given(hnp.arrays(np.float64, st.integers(min_value=1, max_value=80),
                  elements=st.floats(min_value=-100, max_value=100)))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(c):
    np.testing.assert_allclose(
        chebyshev_via_fourier(c), chebyshev_transform_direct(c),
        atol=1e-9 * max(1.0, np.abs(c).max()))


def test_embedding_shape_and_sparsity(rng):
    n = 128
    for _ in range(20):
        k = int(rng.integers(1, 9))
        support = rng.choice(n, size=k, replace=False)
        c = np.zeros(n)
        c[support] = rng.standard_normal(k)
        emb = embed(c)
        assert emb.shape == (2 * n,)
        # coefficient j lands at carrier positions n-j and n+j, so sparsity
        # transfers exactly (the j=0 term occupies a single position)
        nonzero = np.nonzero(np.abs(emb) > 0)[0]
        expect = sorted({n - j for j in support} | {n + j for j in support})
        assert list(nonzero) == expect
        assert len(nonzero) == 2 * k - (1 if 0 in support else 0)


def test_extract_checks_bin_consistency(rng):
    c = rng.standard_normal(32)
    fhat = np.fft.fft(embed(c))
    fhat[3] += 1.0  # break one bin of the duplicated pair
    with pytest.raises(EmbeddingConsistencyError):
        extract(fhat)


def test_extract_validation():
    with pytest.raises(ValueError, match="even-length"):
        extract(np.zeros(7, dtype=complex))


def test_pluggable_fourier_backend(rng):
    c = rng.standard_normal(50)
    calls = []

    def counting_fft(x):
        calls.append(len(x))
        return np.fft.fft(x)

    got = chebyshev_via_fourier(c, fourier=counting_fft)
    assert calls == [100]
    np.testing.assert_allclose(got, chebyshev_transform_direct(c), atol=1e-10)


def test_single_coefficient():
    np.testing.assert_allclose(chebyshev_via_fourier(np.array([3.5])), [3.5], atol=1e-12)
