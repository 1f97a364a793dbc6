"""The periodogram kernel against numpy's full complex FFT, for single series
and for a stack of series transformed in one call."""

import numpy as np

from tsboost import periodogram


def test_periodogram_matches_fft():
    rng = np.random.default_rng(5)
    for n in (8, 20, 33):
        y = rng.normal(size=n)
        ords = periodogram(y)
        # numpy's FFT indexes from t = 0; our series index starts at t = 1,
        # which only rotates the phase and leaves the modulus unchanged
        fft = np.abs(np.fft.fft(y))[1 : n // 2 + 1] ** 2 / n
        assert ords.shape == fft.shape
        assert np.max(np.abs(ords - fft)) < 1e-10

        Y = rng.normal(size=(4, n))
        rows = periodogram(Y)
        for i in range(4):
            assert np.max(np.abs(rows[i] - periodogram(Y[i]))) < 1e-12
