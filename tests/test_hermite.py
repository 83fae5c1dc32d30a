"""Hermite basis tabulation and potential projection coefficients."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_hermite

from channel_spectra import (
    GaussianProfile,
    PolynomialProfile,
    SeparableFourierPotential,
    ZeroPotential,
    derive_params,
    project_potential,
)
from channel_spectra.hermite import _hermite_table, gauss_hermite

from projection_oracle import dense_coefficients


def _coeff(proj, n, m, k):
    """c^{(n,m)}_k of a projection."""
    return dense_coefficients(proj)[n, m, k + proj.mfourier]


def _toeplitz_block(proj, n, m, m_window):
    """Matrix [c^{(n,m)}_{mu - nu}] over a Fourier window."""
    kdiff = m_window[:, None] - m_window[None, :]
    if np.max(np.abs(kdiff)) > proj.mfourier:
        raise ValueError("Fourier cutoff of the projection is too small for this window")
    return dense_coefficients(proj)[n, m, kdiff + proj.mfourier]


def _overlap(nmax, order, f):
    """<phi_n| f(s) |phi_m> for n, m <= nmax by the Gauss-Hermite rule of ``order``."""
    nodes, weights = gauss_hermite(order)
    phi = _hermite_table(nmax, nodes)
    return (phi * (weights * f(nodes))) @ phi.T


def _max_abs_coeff(proj):
    return float(np.max(np.abs(dense_coefficients(proj))))


def _project_generic(spec, params, nmax, mfourier):
    """Oracle for project_potential: the same projection by brute force, on a
    tensor grid (Gauss-Hermite in s, uniform DFT in x), for any periodic W."""
    nodes, weights = gauss_hermite(2 * nmax + 16)
    phi = _hermite_table(nmax, nodes)
    nx = 8
    while nx < 4 * (mfourier + 2):
        nx *= 2
    x = 2.0 * math.pi * np.arange(nx) / nx
    wgrid = spec.evaluate(x[None, :], nodes[:, None] / math.sqrt(params.alpha))
    # g[n, m, j] = <phi_n| W(x_j, .) |phi_m>
    g = np.einsum("ni,mi,ij->nmj", weights * phi, phi, wgrid)
    spec_x = np.fft.fft(g, axis=-1) / nx  # coefficient of e^{ikx} at index k mod nx
    ks = np.arange(-mfourier, mfourier + 1)
    return spec_x[:, :, ks % nx]


def test_hermite_eval_matches_polynomial_formula():
    # independent route: H_n(s) e^{-s^2/2} / sqrt(2^n n! sqrt(pi))
    s = np.linspace(-4.0, 4.0, 57)
    for n in range(15):
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        expected = eval_hermite(n, s) * np.exp(-0.5 * s * s) / norm
        got = _hermite_table(n, s)[n]
        assert np.max(np.abs(got - expected)) < 1e-12


def test_basis_orthonormality():
    gram = _overlap(40, 96, np.ones_like)
    assert np.max(np.abs(gram - np.eye(41))) < 1e-12


def _s_squared_ladder(nmax):
    """<phi_n| s^2 |phi_m> for n, m <= nmax, from the ladder identity."""
    expected = np.zeros((nmax + 1, nmax + 1))
    for n in range(nmax + 1):
        expected[n, n] = n + 0.5
        if n + 2 <= nmax:
            expected[n, n + 2] = expected[n + 2, n] = math.sqrt((n + 1) * (n + 2)) / 2.0
    return expected


def test_overlap_s_squared_matches_ladder():
    got = _overlap(12, 40, np.square)
    assert np.max(np.abs(got - _s_squared_ladder(12))) < 1e-12


def test_projection_of_y_squared_matches_ladder_at_a_high_order():
    # nmax = 199 takes the rule of order 414; NumPy's hermgauss gives no
    # positive weight from order 371 on
    p = derive_params(1.0, 2.0)
    spec = SeparableFourierPotential({0: 1.0}, PolynomialProfile([0.0, 0.0, 1.0]))
    got = project_potential(spec, p, nmax=199, mfourier=0).overlap
    assert np.max(np.abs(got - _s_squared_ladder(199) / p.alpha)) < 1e-10


def test_zero_potential_projects_to_zero():
    p = derive_params(3.0, 4.0)
    proj = project_potential(ZeroPotential(), p, nmax=5, mfourier=4)
    assert _max_abs_coeff(proj) == 0.0


def test_projection_degree_cap_applies_to_every_kind():
    # checked before the allocation
    p = derive_params(3.0, 4.0)
    for spec in (ZeroPotential(), SeparableFourierPotential.from_cosines({1: 2.0})):
        with pytest.raises(ValueError, match="nmax"):
            project_potential(spec, p, nmax=1199)
        with pytest.raises(ValueError, match="nmax"):
            project_potential(spec, p, nmax=-1)
    assert project_potential(ZeroPotential(), p, nmax=1000, mfourier=0).overlap.shape == (1001, 1001)


def test_pure_cosine_projection_is_diagonal():
    p = derive_params(3.0, 4.0)
    spec = SeparableFourierPotential.from_cosines({1: 2.0})
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
    spec = SeparableFourierPotential({0: 0.4}, GaussianProfile(0.7))
    proj = project_potential(spec, p, nmax=4, mfourier=3)
    coeffs = dense_coefficients(proj)
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
    assert np.max(np.abs(dense_coefficients(fast) - slow)) < 1e-10


def test_generic_fft_path_agrees_for_pure_profile():
    p = derive_params(1.0, 1.0)
    spec = SeparableFourierPotential({0: -0.6}, GaussianProfile(0.8))
    fast = project_potential(spec, p, nmax=4, mfourier=4)
    slow = _project_generic(spec, p, nmax=4, mfourier=4)
    assert np.max(np.abs(dense_coefficients(fast) - slow)) < 1e-10


def test_unknown_periodic_kind_rejected_before_the_cache():
    from channel_spectra import Potential

    class Unhashable(Potential):
        kind = "unhashable"
        __hash__ = None

    with pytest.raises(ValueError, match="unhashable"):
        project_potential(Unhashable(), derive_params(3.0, 4.0), nmax=2, mfourier=2)


def test_nonperiodic_potential_rejected():
    from channel_spectra import GaussianBumpPotential

    p = derive_params(3.0, 4.0)
    with pytest.raises(ValueError):
        project_potential(GaussianBumpPotential([(0.1, 0.0, 0.0, 1.0)]), p, nmax=2, mfourier=2)


def test_dropped_harmonics_warn():
    p = derive_params(3.0, 4.0)
    spec = SeparableFourierPotential.from_cosines({5: 1.0})
    with pytest.warns(UserWarning):
        project_potential(spec, p, nmax=2, mfourier=3)


def test_a_projection_without_a_cutoff_keeps_every_harmonic():
    # the fiber builder cuts the harmonics at its window; the projection keeps cos 30x
    spec = SeparableFourierPotential({1: 0.3, -1: 0.3, 30: 0.5, -30: 0.5}, GaussianProfile(1.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proj = project_potential(spec, derive_params(3.0, 4.0), nmax=3)
    assert proj.mfourier is None and proj.fourier == spec.coeffs
    assert {k for k, _ in proj.fourier} == {-30, -1, 1, 30}


def test_toeplitz_block_layout():
    p = derive_params(3.0, 4.0)
    spec = SeparableFourierPotential.from_cosines({1: 2.0, 2: 0.6})
    proj = project_potential(spec, p, nmax=3, mfourier=6)
    window = np.arange(-2, 3)
    block = _toeplitz_block(proj, 1, 1, window)
    # block[i, j] = c_{window[i] - window[j]}
    assert abs(block[2, 1] - _coeff(proj, 1, 1, 1)) < 1e-15
    assert abs(block[1, 2] - _coeff(proj, 1, 1, -1)) < 1e-15
    assert abs(block[4, 2] - _coeff(proj, 1, 1, 2)) < 1e-15
    assert abs(block[0, 0] - _coeff(proj, 1, 1, 0)) < 1e-15
    with pytest.raises(ValueError):
        _toeplitz_block(proj, 1, 1, np.arange(-7, 8))  # window wider than cutoff


def test_projection_of_one_cosine_has_only_its_harmonics():
    p = derive_params(1.0, 1.0)
    spec = SeparableFourierPotential.from_cosines({1: 1.0})
    proj = project_potential(spec, p, nmax=1, mfourier=1)
    nonzero = {(n, m, k - proj.mfourier) for n, m, k in zip(*np.nonzero(dense_coefficients(proj)))}
    assert nonzero == {(0, 0, 1), (0, 0, -1), (1, 1, 1), (1, 1, -1)}
    assert abs(dense_coefficients(proj)[0, 0, 1 + proj.mfourier] - 0.5) < 1e-13


def test_quadrature_weights_do_not_overflow():
    assert np.all(np.isfinite(gauss_hermite(300)[1]))
    gram = _overlap(120, 300, np.ones_like)
    assert np.max(np.abs(gram - np.eye(121))) < 1e-10
