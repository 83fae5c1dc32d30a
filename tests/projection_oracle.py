"""The dense coefficient tensor of a projected potential, for tests."""

import numpy as np


def dense_coefficients(proj):
    """c_k G_{nm} as one (nmax+1, nmax+1, 2 mfourier+1) array indexed [n, m, k + mfourier]."""
    out = np.zeros((proj.nmax + 1, proj.nmax + 1, 2 * proj.mfourier + 1), dtype=complex)
    for k, c in proj.fourier:
        out[:, :, k + proj.mfourier] = c * proj.overlap
    return out
