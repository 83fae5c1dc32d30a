"""Fiber matrix assembly, free-spectrum reproduction, resolvent bound."""

import math
import os

import numpy as np
import pytest
import scipy.linalg

from channel_spectra import (
    EigensolverError,
    GaussianProfile,
    PolynomialProfile,
    SeparableFourierPotential,
    ZeroPotential,
    assemble_fiber,
    complex_theta_resolvent_bound,
    derive_params,
    eigenvalues_fiber,
    project_potential,
)
from channel_spectra.fiber import fiber_at, fiber_block, hill_block, landau_block

from projection_oracle import dense_coefficients


def _entry(mat, n_hermite, m_max, n, m, n2, m2):
    """Matrix element between the basis functions (Hermite n, Fourier m) and
    (n2, m2) of a fiber truncated to n_hermite levels and |m| <= m_max."""

    def index(n, m):
        return (m + m_max) * n_hermite + n

    return mat[index(n, m), index(n2, m2)]


def _free_proj(params, nmax=15, mfourier=16):
    return project_potential(ZeroPotential(), params, nmax=nmax, mfourier=mfourier)


def test_entries_match_operator_blocks():
    p = derive_params(3.0, 4.0)
    spec = SeparableFourierPotential.from_cosines({1: 2.0})
    proj = project_potential(spec, p, nmax=39, mfourier=16)
    mat = assemble_fiber(p, proj, 0.25, n_hermite=40, m_max=4)
    # diagonal: alpha (2n+1) + (m + theta)^2 plus the k=0 projection (zero here)
    assert abs(_entry(mat, 40, 4, 0, 0, 0, 0) - (5.0 + 0.25**2)) < 1e-13
    assert abs(_entry(mat, 40, 4, 2, -3, 2, -3) - (25.0 + 2.75**2)) < 1e-13
    # magnetic ladder: B sqrt(2 max(n, n') / alpha) (m + theta)
    expected = 3.0 * math.sqrt(2 * 5 / 5.0) * 0.25
    assert abs(_entry(mat, 40, 4, 4, 0, 5, 0) - expected) < 1e-13
    assert abs(_entry(mat, 40, 4, 5, 0, 4, 0) - expected) < 1e-13
    # potential couples m to m +- 1 diagonally in n
    assert abs(_entry(mat, 40, 4, 1, 0, 1, 1) - 1.0) < 1e-13
    assert abs(_entry(mat, 40, 4, 1, 0, 0, 1)) < 1e-13


def test_fiber_matrix_is_hermitian():
    p = derive_params(2.0, 1.5)
    spec = SeparableFourierPotential({1: 0.3 + 0.2j, -1: 0.3 - 0.2j})
    proj = project_potential(spec, p, nmax=9, mfourier=8)
    mat = assemble_fiber(p, proj, 0.1, n_hermite=10, m_max=3)
    assert np.max(np.abs(mat - mat.conj().T)) == 0.0


def test_free_spectrum_low_lying_levels():
    p = derive_params(3.0, 4.0)
    proj = _free_proj(p, nmax=39)
    for theta in (0.0, 0.25, -0.25, 0.49):
        ev = eigenvalues_fiber(assemble_fiber(p, proj, theta, n_hermite=40, m_max=4))
        for n in range(5):
            for m in range(-3, 4):
                target = p.alpha * (2 * n + 1) + p.beta * (m + theta) ** 2
                assert np.min(np.abs(ev - target)) < 1e-8
        assert abs(ev[0] - (p.alpha + p.beta * theta**2)) < 1e-10


def test_free_spectrum_other_parameters():
    for B, omega in ((0.0, 1.0), (1.0, 1.0)):
        p = derive_params(B, omega)
        proj = _free_proj(p, nmax=39)
        ev = eigenvalues_fiber(assemble_fiber(p, proj, 0.2, n_hermite=40, m_max=3))
        for n in range(3):
            for m in range(-2, 3):
                target = p.alpha * (2 * n + 1) + p.beta * (m + 0.2) ** 2
                assert np.min(np.abs(ev - target)) < 1e-8


def test_count_argument_truncates():
    p = derive_params(1.0, 1.0)
    proj = _free_proj(p, nmax=7)
    mat = assemble_fiber(p, proj, 0.0, n_hermite=8, m_max=2)
    ev5 = eigenvalues_fiber(mat, count=5)
    ev = eigenvalues_fiber(mat)
    assert ev5.shape == (5,)
    assert np.array_equal(ev5, ev[:5])


def test_gauge_shift_symmetry():
    # theta and theta - 1 describe the same operator once the Fourier
    # window shifts by one: spec(theta=1/2, [-M, M]) = spec(-1/2, [-M+1, M+1])
    p = derive_params(3.0, 4.0)
    spec = SeparableFourierPotential.from_cosines({1: 2.0})
    proj = project_potential(spec, p, nmax=19, mfourier=16)
    a = eigenvalues_fiber(assemble_fiber(p, proj, 0.5, n_hermite=20, m_max=4))
    b = eigenvalues_fiber(assemble_fiber(p, proj, -0.5, n_hermite=20, m_max=4, m_offset=1))
    assert np.max(np.abs(a - b)) < 1e-10


def test_endpoint_identification_on_symmetric_window():
    # with a symmetric window the +-1/2 fibers are unitarily equivalent
    p = derive_params(3.0, 4.0)
    spec = SeparableFourierPotential.from_cosines({1: 2.0})
    proj = project_potential(spec, p, nmax=19, mfourier=16)
    a = eigenvalues_fiber(assemble_fiber(p, proj, 0.5, n_hermite=20, m_max=5))
    b = eigenvalues_fiber(assemble_fiber(p, proj, -0.5, n_hermite=20, m_max=5))
    assert np.max(np.abs(a - b)) < 1e-10


def test_theta_outside_zone_rejected():
    p = derive_params(1.0, 1.0)
    proj = _free_proj(p, nmax=3)
    with pytest.raises(ValueError):
        assemble_fiber(p, proj, 0.75, n_hermite=4, m_max=2)


def test_projection_cutoffs_validated():
    p = derive_params(1.0, 1.0)
    proj = project_potential(ZeroPotential(), p, nmax=3, mfourier=4)
    with pytest.raises(ValueError):
        assemble_fiber(p, proj, 0.0, n_hermite=8, m_max=2)  # nmax too small
    with pytest.raises(ValueError):
        assemble_fiber(p, proj, 0.0, n_hermite=4, m_max=4)  # mfourier too small


def test_eigensolver_failure_dumps_matrix(monkeypatch, tmp_path):
    p = derive_params(1.0, 1.0)
    proj = _free_proj(p, nmax=3)
    mat = assemble_fiber(p, proj, 0.0, n_hermite=4, m_max=1)

    def boom(*args, **kwargs):
        raise scipy.linalg.LinAlgError("synthetic")

    import tempfile

    monkeypatch.setattr(scipy.linalg, "eigh", boom)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(EigensolverError) as err:
        eigenvalues_fiber(mat)
    assert err.value.dump_path and os.path.exists(err.value.dump_path)
    assert err.value.dump_path.startswith(str(tmp_path))
    assert np.array_equal(np.load(err.value.dump_path), mat)


@pytest.mark.parametrize(
    "spec, real",
    [
        (SeparableFourierPotential.from_cosines({1: 2.0, 2: 0.5}), True),
        (SeparableFourierPotential({1: 0.3 + 0.2j, -1: 0.3 - 0.2j}), False),
    ],
)
def test_block_reused_across_phases_matches_fresh_assembly(spec, real):
    p = derive_params(2.0, 1.5)
    proj = project_potential(spec, p, nmax=9, mfourier=8)
    block = fiber_block(p, proj, n_hermite=10, m_max=3, m_offset=1)
    base = block.base.copy()
    for theta in (0.0, 0.1, -0.5, 0.5):
        fresh = assemble_fiber(p, proj, theta, n_hermite=10, m_max=3, m_offset=1)
        assert np.array_equal(fiber_at(block, theta), fresh)
    assert np.array_equal(block.base, base)  # each phase works on its own copy
    assert np.array_equal(block.base, block.base.conj().T)
    assert np.iscomplexobj(block.base) != real
    with pytest.raises(ValueError):
        fiber_at(block, 0.75)


def _gathered_base(params, proj, n_hermite, m_max, m_offset):
    """Oracle for ``fiber_block(...).base``: a gather from the dense tensor
    of the coefficients c_k G_{nn'}, symmetrised, plus alpha (2n+1)."""
    N = n_hermite
    ms = np.arange(-m_max, m_max + 1) + m_offset
    dim = N * ms.size
    coeffs = dense_coefficients(proj)
    kdiff = ms[:, None] - ms[None, :]
    pot = coeffs[:N, :N, kdiff + proj.mfourier]  # (n, n', mu, nu)
    if not pot.imag.any():
        pot = pot.real
    h = np.transpose(pot, (2, 0, 3, 1)).reshape(dim, dim)
    base = h + h.conj().T
    base *= 0.5
    base.flat[:: dim + 1] += np.tile(params.alpha * (2.0 * np.arange(N) + 1.0), ms.size)
    return base


@pytest.mark.parametrize(
    "spec",
    [
        SeparableFourierPotential.from_cosines({1: 2.0, 2: 0.5}),
        SeparableFourierPotential({1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: -0.05j, -2: 0.05j}, GaussianProfile(0.8)),
        ZeroPotential(),
        SeparableFourierPotential({1: 0.5, -1: 0.5, 0: -0.2}, PolynomialProfile([1.0, 0.5, 0.05])),
    ],
    ids=["real", "complex", "zero", "polynomial-profile"],
)
@pytest.mark.parametrize("m_offset", [0, 3])
@pytest.mark.parametrize("B, omega", [(3.0, 4.0), (1.3, 6.2)])
def test_block_assembly_matches_the_dense_gather(spec, m_offset, B, omega):
    p = derive_params(B, omega)
    for n_hermite, m_max in ((8, 9), (16, 3)):
        proj = project_potential(spec, p, nmax=2 * n_hermite - 1, mfourier=2 * m_max + 8)
        base = fiber_block(p, proj, n_hermite, m_max, m_offset).base
        oracle = _gathered_base(p, proj, n_hermite, m_max, m_offset)
        assert base.dtype == oracle.dtype
        assert base.tobytes() == oracle.tobytes()


def test_resolvent_bound_reference_value():
    p = derive_params(3.0, 4.0)
    check = complex_theta_resolvent_bound(p, 10.0)
    assert check.passed
    assert abs(check.bound - 0.0244140625) < 1e-15  # 1 / (beta theta2)^2
    assert check.sup_value <= check.bound


@pytest.mark.parametrize("B,omega", [(3.0, 4.0), (0.0, 1.0)])
@pytest.mark.parametrize("theta2", [1.0, 10.0, 100.0])
def test_resolvent_bound_passes(B, omega, theta2):
    p = derive_params(B, omega)
    check = complex_theta_resolvent_bound(p, theta2)
    assert check.passed
    assert check.sup_value <= 1.0 / (p.beta * theta2) ** 2 + 1e-15


def test_resolvent_bound_sup_value_formula():
    # the sup is attained at small n, m; recompute one term by hand
    p = derive_params(3.0, 4.0)
    check = complex_theta_resolvent_bound(p, 10.0)
    n, m = check.argmax
    denom = p.alpha * (2 * n + 1) + p.beta * (m + 0.5 + 10.0j) ** 2 + 1.0
    assert math.isclose(check.sup_value, 1.0 / abs(denom) ** 2, rel_tol=1e-12)


@pytest.mark.parametrize("B,omega,theta2", [(3.0, 4.0, 10.0), (1.0, 8.0, 0.01), (4.0, 3.0, 0.3), (0.5, 2.0, 100.0)])
def test_resolvent_bound_matches_the_loop_over_levels_and_indices(B, omega, theta2):
    p = derive_params(B, omega)
    best, arg = 0.0, None
    for n in range(11):
        for m in range(-10, 11):
            val = 1.0 / abs(p.alpha * (2 * n + 1) + p.beta * complex(m + 0.5, theta2) ** 2 + 1.0) ** 2
            if val > best:  # the first maximum in n-major order
                best, arg = val, (n, m)
    check = complex_theta_resolvent_bound(p, theta2, n_range=10, m_range=10)
    assert check.argmax == arg
    assert math.isclose(check.sup_value, best, rel_tol=1e-12)


def _hermite_block(coeffs, m_max):
    params = derive_params(2.0, 3.0)
    spec = SeparableFourierPotential(coeffs, GaussianProfile(1.2))
    return fiber_block(params, project_potential(spec, params, nmax=7), 4, m_max)


def _landau_block(coeffs, m_max):
    return landau_block(derive_params(2.0, 3.0), coeffs, 4, m_max)


@pytest.mark.parametrize(
    "build, rounding",
    # the tall overlaps of the Landau block take rows by the largest |k| (64
    # past the levels for k = 9, 16 for k = 1 alone), so the quadrature forms
    # the D of k = 1 with more nodes and rounds it differently
    [(_hermite_block, 0.0), (_landau_block, 1e-15), (hill_block, 0.0)],
    ids=["hermite", "landau", "hill"],
)
def test_a_harmonic_past_the_window_leaves_the_block_as_it_is(build, rounding):
    # k = 9 couples no two indices of |m| <= 4: only the discarded space sees it
    near = {1: 0.3, -1: 0.3}
    near_block = build(near, 4)
    block = build({**near, 9: 0.2 + 0.1j, -9: 0.2 - 0.1j}, 4)
    assert block.base.dtype == near_block.base.dtype == np.float64
    assert np.max(np.abs(block.base - near_block.base)) <= rounding
    assert (9 in {k for k, *_ in block.coupling}) == (block.params is not None)


@pytest.mark.parametrize("basis", ["hermite", "landau"])
def test_fiber_is_a_quadratic_pencil_in_theta(basis):
    params = derive_params(2.0, 3.0)
    if basis == "hermite":
        spec = SeparableFourierPotential({1: 0.3 + 0.1j, -1: 0.3 - 0.1j}, GaussianProfile(1.2))
        block = fiber_block(params, project_potential(spec, params, nmax=7, mfourier=16), 6, 3)
        assert block.ladder.any()  # the magnetic ladder enters H'(theta)
        # it couples levels of one Fourier index only
        assert not block.ladder[block.n_hermite - 1 :: block.n_hermite].any()
    else:
        block = landau_block(params, [(1, 0.3 + 0.1j), (-1, 0.3 - 0.1j)], 4, 3)
        assert block.ladder.shape == (len(block.row_m) - 1,) and not block.ladder.any()
    theta, h = 0.13, 0.21
    slope = block.slope(theta, np.eye(len(block.row_m)))
    step = fiber_at(block, theta + h) - fiber_at(block, theta)
    assert np.max(np.abs(step - h * slope - block.kinetic * h * h * np.eye(len(slope)))) < 1e-12
    assert np.array_equal(slope, slope.conj().T)


@pytest.mark.parametrize("basis", ["hermite", "landau"])
def test_truncation_residuals_match_the_larger_fiber(basis):
    from channel_spectra.fiber import truncation_residuals

    params, theta, n_levels, m_max = derive_params(2.0, 3.0), 0.27, 5, 3
    if basis == "hermite":
        spec = SeparableFourierPotential({1: 0.3 + 0.1j, -1: 0.3 - 0.1j, 2: 0.2, -2: 0.2}, GaussianProfile(1.2))
        proj = project_potential(spec, params, nmax=2 * n_levels - 1, mfourier=16)

        def build(n, m):
            return fiber_block(params, proj, n, m)

    else:
        coeffs = [(1, 0.3 + 0.1j), (-1, 0.3 - 0.1j), (3, 0.1), (-3, 0.1)]

        def build(n, m):
            return landau_block(params, coeffs, n, m)

    block = build(n_levels, m_max)
    assert (block.boundary > 0.0) == (basis == "hermite")
    # a truncation holding every level and index that the kept ones couple to
    wide_n = max(overlap.shape[0] for *_, overlap in block.coupling)
    wide_m = m_max + max(abs(k) for k, _, _ in block.coupling)
    wide = build(wide_n, wide_m)
    _, vecs = scipy.linalg.eigh(fiber_at(block, theta), subset_by_index=(0, 7))
    embedded = np.zeros((2 * wide_m + 1, wide_n, vecs.shape[1]), dtype=complex)
    window = slice(wide_m - m_max, wide_m + m_max + 1)
    embedded[window, :n_levels] = vecs.reshape(2 * m_max + 1, n_levels, -1)
    image = (fiber_at(wide, theta) @ embedded.reshape(-1, vecs.shape[1])).reshape(embedded.shape)
    r2 = np.abs(image) ** 2
    inside = r2[window, n_levels:].sum(axis=(0, 1))
    outside = r2[: window.start].sum(axis=(0, 1)) + r2[window.stop :].sum(axis=(0, 1))
    levels, beyond = truncation_residuals(block, vecs, theta)
    assert np.all(inside > 0.0) and np.all(outside > 0.0)
    np.testing.assert_allclose(levels, inside, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(beyond, outside, rtol=1e-12, atol=0.0)


def test_vectors_mode_returns_the_lowest_eigenpairs():
    params = derive_params(2.0, 3.0)
    spec = SeparableFourierPotential({1: 0.2, -1: 0.2, 2: 0.1j, -2: -0.1j})
    mat = assemble_fiber(params, project_potential(spec, params, nmax=7, mfourier=16), 0.2, 6, 3)
    vals, vecs = eigenvalues_fiber(mat, 5, vectors=True)
    assert vals.shape == (5,) and vecs.shape == (mat.shape[0], 5)
    assert np.max(np.abs(vals - eigenvalues_fiber(mat, 5))) < 1e-12
    assert np.max(np.abs(mat @ vecs - vecs * vals)) < 1e-12
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(5))) < 1e-12
    # without a count every pair is returned
    assert eigenvalues_fiber(mat, vectors=True)[1].shape == mat.shape
