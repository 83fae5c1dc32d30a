"""The displaced Landau basis for x-only potentials and its residual estimate."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln

from channel_spectra import SeparableFourierPotential, assemble_fiber, derive_params, project_potential
from channel_spectra.bands import _floors, _kinematic_m_cover, error_estimates
from channel_spectra.fiber import displacement_overlaps, fiber_at, landau_block, truncation_residuals

_TWO_COS = SeparableFourierPotential.from_cosines({1: 2.0})
_COMPLEX = SeparableFourierPotential({1: 0.6 + 0.3j, -1: 0.6 - 0.3j, 2: 0.2 - 0.4j, -2: 0.2 + 0.4j})


def _closed_form(n: int, k: int, d: float) -> float:
    """sqrt(lo!/hi!) a^|n-k| e^{-a^2/2} L_lo^{(|n-k|)}(a^2), a = d / sqrt(2),
    with the sign (-1)^{k-n} when k > n."""
    a = d / math.sqrt(2.0)
    lo, hi = min(n, k), max(n, k)
    value = (
        math.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) - 0.5 * a * a)
        * a ** (hi - lo)
        * eval_genlaguerre(lo, hi - lo, a * a)
    )
    return (-1) ** (k - n) * value if k > n else value


@pytest.mark.parametrize("size", [1, 7, 30, 60])
@pytest.mark.parametrize("d", [-2.0, -0.9, 0.0, 0.35, 1.3, 2.0])
def test_displacement_overlaps_match_closed_form(size, d):
    got = displacement_overlaps(size, size, d)
    want = np.array([[_closed_form(n, k, d) for k in range(size)] for n in range(size)])
    assert np.max(np.abs(got - want)) < 1e-13


def test_displacement_overlaps_rectangular_and_transposed():
    tall = displacement_overlaps(40, 6, 0.7)
    assert np.max(np.abs(tall[:6] - displacement_overlaps(6, 6, 0.7))) < 1e-14
    assert np.max(np.abs(displacement_overlaps(6, 40, -0.7) - tall.T)) < 1e-14


@pytest.mark.parametrize("spec", [_TWO_COS, _COMPLEX], ids=["two-cos", "complex"])
@pytest.mark.parametrize("omega", [4.0, 10.0, 40.0])
def test_landau_fiber_matches_hermite_fiber(spec, omega):
    # the same Fourier window in both bases; 80 Hermite functions and 20
    # Landau levels each resolve the transverse direction below the ceiling
    params = derive_params(3.0, omega)
    ceiling = 3.0 * params.alpha + 2.0
    m_max = 6
    proj = project_potential(spec, params, nmax=79, mfourier=16)
    block, _ = landau_block(params, spec.coeffs, 20, m_max)
    for theta in (0.0, 0.27, 0.5):
        ref = scipy.linalg.eigvalsh(
            assemble_fiber(params, proj, theta, 80, m_max), subset_by_value=(-np.inf, ceiling)
        )
        got = scipy.linalg.eigvalsh(fiber_at(block, theta))
        assert ref.size >= 12
        assert np.max(np.abs(got[: ref.size] - ref)) < 1e-10


@pytest.mark.parametrize("n_levels", [1, 3])
def test_free_landau_fiber_is_diagonal_and_exact(n_levels):
    params = derive_params(3.0, 4.0)
    block, _ = landau_block(params, (), n_levels, 5)
    for theta in (0.0, 0.3, -0.5):
        entries = fiber_at(block, theta)
        assert not np.any(entries - np.diag(np.diag(entries)))
        exact = [
            params.alpha * (2 * n + 1) + params.beta * (m + theta) ** 2
            for m in range(-5, 6)
            for n in range(n_levels)
        ]
        assert np.max(np.abs(np.diag(entries) - exact)) < 1e-13


def test_landau_block_is_hermitian_and_real_for_real_coefficients():
    params = derive_params(2.0, 1.5)
    real, _ = landau_block(params, _TWO_COS.coeffs, 6, 4)
    cplx, _ = landau_block(params, _COMPLEX.coeffs, 6, 4)
    assert not np.iscomplexobj(real.base) and np.iscomplexobj(cplx.base)
    for block in (real, cplx):
        assert np.array_equal(block.base, block.base.conj().T)


def test_residual_vanishes_without_coupling_harmonics():
    # W = 0 and a constant W leave the Landau levels uncoupled
    params = derive_params(3.0, 4.0)
    for coeffs in ((), ((0, 1.5 + 0j),)):
        block, terms = landau_block(params, coeffs, 4, 3)
        _, vecs = scipy.linalg.eigh(fiber_at(block, 0.2))
        levels, window = truncation_residuals(block, terms, vecs)
        assert not levels.any() and not window.any()


@st.composite
def _weak_x_potentials(draw):
    coeffs = {}
    for k in range(1, draw(st.integers(1, 3)) + 1):
        c = complex(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3)))
        coeffs[k], coeffs[-k] = c, c.conjugate()
    coeffs[0] = draw(st.floats(-0.3, 0.3))
    return SeparableFourierPotential(coeffs)


@settings(max_examples=15, deadline=None)
@given(
    spec=_weak_x_potentials(),
    B=st.floats(0.5, 3.0),
    omega=st.floats(3.0, 10.0),
    n_levels=st.sampled_from([2, 3, 4, 6]),
    narrower=st.integers(0, 3),
    theta=st.floats(-0.5, 0.5),
)
# the pair m = 2, m = -3 nearly coincides at 13.2: a per-pair r^2 / gap undershoots
@example(
    spec=SeparableFourierPotential({-1: -0.25j, 1: 0.25j}), B=1.0, omega=7.0, n_levels=2, narrower=3, theta=0.5
)
def test_residual_estimate_bounds_the_truncation_error(spec, B, omega, n_levels, narrower, theta):
    params = derive_params(B, omega)
    ceiling = 2.0 * params.alpha
    # up to 3 indices short of the window compute_bands would take, so that
    # both shares of the estimate are exercised
    m_max = _kinematic_m_cover(params, ceiling) - narrower
    w0 = spec.norm_estimates().w0
    block, terms = landau_block(params, spec.coeffs, n_levels, m_max)
    floors = _floors(block, w0, 0.0, False)
    [(vals, levels, window, _)] = error_estimates(block, terms, 0.0, floors, ceiling, [theta])
    ref = scipy.linalg.eigvalsh(fiber_at(landau_block(params, spec.coeffs, 30, m_max + 8)[0], theta))
    # min-max: a truncation only raises eigenvalues; the estimate bounds by
    # how much, up to the rounding of the reference solve (dim about 1000,
    # diagonal up to 60 alpha), which reaches 1e-12 relative to the ceiling
    err = vals - ref[: vals.size]
    rounding = 1e-12 * ceiling
    assert np.all(err >= -rounding)
    assert np.all(err <= levels + window + rounding)
