"""Hermite basis tabulation and potential projection coefficients."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_hermite

from channel_spectra import (
    FourierXPotential,
    GaussianProfile,
    HermiteBasis,
    PolynomialProfile,
    SeparableFourierPotential,
    TransverseProfilePotential,
    ZeroPotential,
    derive_params,
    hermite_eval,
    project_potential,
)


def _coeff(proj, n, m, k):
    """c^{(n,m)}_k of a projection."""
    return proj.coeffs[n, m, k + proj.mfourier]


def _project_generic(spec, params, nmax, mfourier):
    """Oracle for project_potential: the same projection by brute force, on a
    tensor grid (Gauss-Hermite in s, uniform DFT in x), for any periodic W."""
    basis = HermiteBasis.build(nmax)
    nx = 8
    while nx < 4 * (mfourier + 2):
        nx *= 2
    x = 2.0 * math.pi * np.arange(nx) / nx
    wgrid = spec.evaluate(x[None, :], basis.nodes[:, None] / math.sqrt(params.alpha))
    # g[n, m, j] = <phi_n| W(x_j, .) |phi_m>
    g = np.einsum("ni,mi,ij->nmj", basis.weights * basis.phi, basis.phi, wgrid)
    spec_x = np.fft.fft(g, axis=-1) / nx  # coefficient of e^{ikx} at index k mod nx
    ks = np.arange(-mfourier, mfourier + 1)
    return spec_x[:, :, ks % nx]


def test_hermite_eval_matches_polynomial_formula():
    # independent route: H_n(s) e^{-s^2/2} / sqrt(2^n n! sqrt(pi))
    s = np.linspace(-4.0, 4.0, 57)
    for n in range(15):
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        expected = eval_hermite(n, s) * np.exp(-0.5 * s * s) / norm
        got = hermite_eval(n, s)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_hermite_eval_degree_guard():
    with pytest.raises(ValueError):
        hermite_eval(1001, np.array([0.0]))
    with pytest.raises(ValueError):
        hermite_eval(-1, np.array([0.0]))


def test_basis_orthonormality():
    basis = HermiteBasis.build(nmax=40)
    gram = basis.overlap(np.ones_like(basis.nodes))
    assert np.max(np.abs(gram - np.eye(41))) < 1e-12


def test_overlap_s_squared_matches_ladder():
    basis = HermiteBasis.build(nmax=12)
    got = basis.overlap(basis.nodes**2)
    expected = np.zeros((13, 13))
    for n in range(13):
        expected[n, n] = n + 0.5
        if n + 2 <= 12:
            expected[n, n + 2] = expected[n + 2, n] = math.sqrt((n + 1) * (n + 2)) / 2.0
    assert np.max(np.abs(got - expected)) < 1e-12


def test_zero_potential_projects_to_zero():
    p = derive_params(3.0, 4.0)
    proj = project_potential(ZeroPotential(), p, nmax=5, mfourier=4)
    assert proj.max_abs_coeff() == 0.0


def test_pure_cosine_projection_is_diagonal():
    p = derive_params(3.0, 4.0)
    spec = FourierXPotential.from_cosines({1: 2.0})
    proj = project_potential(spec, p, nmax=6, mfourier=5)
    for n in range(7):
        assert abs(_coeff(proj, n, n, 1) - 1.0) < 1e-13
        assert abs(_coeff(proj, n, n, -1) - 1.0) < 1e-13
        assert abs(_coeff(proj, n, n, 0)) < 1e-13
    assert abs(_coeff(proj, 0, 1, 1)) < 1e-13
    assert abs(_coeff(proj, 2, 4, 1)) < 1e-13


def test_linear_profile_projection_reference_value():
    # W = y cos x: <phi_0 | y | phi_1> = 1/sqrt(2 alpha)
    for B, omega in ((0.0, 1.0), (3.0, 4.0)):
        p = derive_params(B, omega)
        spec = SeparableFourierPotential({1: 0.5, -1: 0.5}, PolynomialProfile([0.0, 1.0]))
        proj = project_potential(spec, p, nmax=3, mfourier=3)
        expected = 0.5 / math.sqrt(2.0 * p.alpha)
        assert abs(_coeff(proj, 0, 1, 1) - expected) < 1e-13
        assert abs(_coeff(proj, 1, 0, 1) - expected) < 1e-13
        assert abs(_coeff(proj, 0, 0, 1)) < 1e-13  # odd profile kills the diagonal


def test_profile_only_potential_has_constant_fourier_slot():
    p = derive_params(1.0, 2.0)
    spec = TransverseProfilePotential(GaussianProfile(0.7), amplitude=0.4)
    proj = project_potential(spec, p, nmax=4, mfourier=3)
    coeffs = proj.coeffs
    nonzero = np.abs(coeffs) > 1e-15
    # only the k = 0 slot may be populated
    assert not np.any(np.delete(nonzero, proj.mfourier, axis=2))
    # symmetric profile: parity forbids odd n - m couplings
    assert abs(_coeff(proj, 0, 1, 0)) < 1e-14
    assert abs(_coeff(proj, 0, 2, 0)) > 1e-6


def test_generic_fft_path_agrees_with_separable():
    p = derive_params(2.0, 3.0)
    spec = SeparableFourierPotential(
        {0: 0.3, 1: 0.25, -1: 0.25, 2: -0.1, -2: -0.1}, GaussianProfile(1.1)
    )
    fast = project_potential(spec, p, nmax=5, mfourier=6)
    slow = _project_generic(spec, p, nmax=5, mfourier=6)
    assert np.max(np.abs(fast.coeffs - slow)) < 1e-10


def test_generic_fft_path_agrees_for_pure_profile():
    p = derive_params(1.0, 1.0)
    spec = TransverseProfilePotential(GaussianProfile(0.8), amplitude=-0.6)
    fast = project_potential(spec, p, nmax=4, mfourier=4)
    slow = _project_generic(spec, p, nmax=4, mfourier=4)
    assert np.max(np.abs(fast.coeffs - slow)) < 1e-10


def test_projection_cache_hits():
    p = derive_params(3.0, 4.0)
    spec = FourierXPotential.from_cosines({1: 2.0})
    a = project_potential(spec, p, nmax=4, mfourier=4)
    b = project_potential(spec, p, nmax=4, mfourier=4)
    assert a is b
    c = project_potential(spec, derive_params(3.0, 5.0), nmax=4, mfourier=4)
    assert c is not a


def test_nonperiodic_potential_rejected():
    from channel_spectra import GaussianBumpPotential

    p = derive_params(3.0, 4.0)
    with pytest.raises(ValueError):
        project_potential(GaussianBumpPotential([(0.1, 0.0, 0.0, 1.0)]), p, nmax=2, mfourier=2)


def test_dropped_harmonics_warn():
    p = derive_params(3.0, 4.0)
    spec = FourierXPotential.from_cosines({5: 1.0})
    with pytest.warns(UserWarning):
        project_potential(spec, p, nmax=2, mfourier=3)


def test_toeplitz_block_layout():
    p = derive_params(3.0, 4.0)
    spec = FourierXPotential.from_cosines({1: 2.0, 2: 0.6})
    proj = project_potential(spec, p, nmax=3, mfourier=6)
    window = np.arange(-2, 3)
    block = proj.toeplitz_block(1, 1, window)
    # block[i, j] = c_{window[i] - window[j]}
    assert abs(block[2, 1] - _coeff(proj, 1, 1, 1)) < 1e-15
    assert abs(block[1, 2] - _coeff(proj, 1, 1, -1)) < 1e-15
    assert abs(block[4, 2] - _coeff(proj, 1, 1, 2)) < 1e-15
    assert abs(block[0, 0] - _coeff(proj, 1, 1, 0)) < 1e-15
    with pytest.raises(ValueError):
        proj.toeplitz_block(1, 1, np.arange(-7, 8))  # window wider than cutoff


def test_projection_of_one_cosine_has_only_its_harmonics():
    p = derive_params(1.0, 1.0)
    spec = FourierXPotential.from_cosines({1: 1.0})
    proj = project_potential(spec, p, nmax=1, mfourier=1)
    nonzero = {(n, m, k - proj.mfourier) for n, m, k in zip(*np.nonzero(proj.coeffs))}
    assert nonzero == {(0, 0, 1), (0, 0, -1), (1, 1, 1), (1, 1, -1)}
    assert abs(proj.coeffs[0, 0, 1 + proj.mfourier] - 0.5) < 1e-13


def test_quadrature_weights_do_not_overflow():
    basis = HermiteBasis.build(nmax=120, order=300)
    assert np.all(np.isfinite(basis.weights))
    gram = basis.overlap(np.ones_like(basis.nodes))
    assert np.max(np.abs(gram - np.eye(121))) < 1e-10
