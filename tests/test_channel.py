"""Channel parameters, potential evaluation and certified norm estimates."""

import math

import numpy as np
import pytest

from channel_spectra import (
    ChannelParams,
    GaussianBumpPotential,
    GaussianProfile,
    GridSampledPotential,
    PolynomialProfile,
    SeparableFourierPotential,
    ZeroPotential,
    derive_params,
    potential_from_dict,
    project_potential,
)

from projection_oracle import dense_coefficients


def test_derive_params_reference_values():
    p = derive_params(3.0, 4.0)
    assert p.alpha == 5.0
    assert abs(p.beta - 0.64) < 1e-15
    assert abs(p.mu - 0.12) < 1e-15


def test_derive_params_identities():
    rng = np.random.default_rng(7)
    for _ in range(50):
        B = float(rng.uniform(0.0, 10.0))
        omega = float(rng.uniform(1e-3, 10.0))
        p = derive_params(B, omega)
        assert abs(p.alpha**2 - (B * B + omega * omega)) < 1e-12 * p.alpha**2
        assert abs(p.beta - omega**2 / p.alpha**2) < 1e-15
        assert abs(p.mu - B / p.alpha**2) < 1e-15
        # beta + B*mu = 1 splits the kinetic weight between drift and field
        assert abs(p.beta + B * p.mu - 1.0) < 1e-14


@pytest.mark.parametrize("B,omega", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)])
def test_derive_params_rejects_bad_input(B, omega):
    with pytest.raises(ValueError):
        derive_params(B, omega)


def test_fourier_x_evaluation_matches_cosine_sum():
    spec = SeparableFourierPotential.from_cosines({0: 0.5, 1: 2.0, 3: -0.7})
    x = np.linspace(-7.0, 7.0, 201)
    expected = 0.5 + 2.0 * np.cos(x) - 0.7 * np.cos(3 * x)
    got = spec(x, np.zeros_like(x))
    assert np.max(np.abs(got - expected)) < 1e-13
    # independent of y
    assert np.max(np.abs(spec(x, 5.0 + 0.0 * x) - got)) == 0.0


def test_fourier_x_norm_estimates_single_harmonic_exact():
    spec = SeparableFourierPotential.from_cosines({1: 2.0})
    b = spec.norm_estimates()
    assert b.w0 == 2.0
    assert math.isinf(b.w0_prime)  # periodic, so x dW/dx is unbounded
    assert abs(b.dxx - 2.0) < 1e-15
    assert b.dyy == 0.0 and b.dxy == 0.0


def test_fourier_x_norm_estimates_dominate_dense_grid():
    rng = np.random.default_rng(21)
    for _ in range(10):
        amps = {k: float(rng.uniform(-1.5, 1.5)) for k in range(4)}
        spec = SeparableFourierPotential.from_cosines(amps)
        b = spec.norm_estimates()
        x = np.linspace(0.0, 2 * math.pi, 20001)
        brute = float(np.max(np.abs(spec(x, 0.0 * x))))
        assert brute <= b.w0 + 1e-12
        # certified sup = grid max + Lipschitz padding, so it sits slightly above
        assert b.w0 <= brute + 0.02


def test_fourier_conjugate_symmetry_enforced():
    with pytest.raises(ValueError):
        SeparableFourierPotential({1: 1.0 + 0.5j, -1: 1.0 + 0.5j})  # needs conj pairing
    SeparableFourierPotential({1: 1.0 + 0.5j, -1: 1.0 - 0.5j})  # fine


def _sup_second_difference(g, half_width: float, h: float = 1e-3) -> float:
    """max |g''| over [-half_width, half_width] by central second differences."""
    y = np.linspace(-half_width, half_width, 20001)
    return float(np.max(np.abs(g(y + h) - 2.0 * g(y) + g(y - h)))) / h**2


def test_gaussian_profile_derivatives_match_finite_differences():
    g = GaussianProfile(sigma=0.8)
    y = np.linspace(-3.0, 3.0, 41)
    h = 1e-6
    fd1 = (g(y + h) - g(y - h)) / (2 * h)
    assert np.max(np.abs(g.derivative(y) - fd1)) < 1e-8
    # sup |g''| bounds d^2W/dy^2 in the certificates (norm_estimates' dyy)
    assert g.sup_abs_second() == 1.0 / 0.8**2
    assert abs(_sup_second_difference(g, 6.0) / g.sup_abs_second() - 1.0) < 1e-4
    quadratic = PolynomialProfile([0.3, -0.7, 1.25])
    assert quadratic.sup_abs_second() == 2.5
    assert abs(_sup_second_difference(quadratic, 5.0) - 2.5) < 1e-6
    cubic = PolynomialProfile([0.3, -0.7, 1.25, 0.5])
    assert cubic.sup_abs_second() == math.inf
    # and g'' = 3 y + 2.5 is indeed unbounded
    assert _sup_second_difference(cubic, 100.0) > 9.0 * _sup_second_difference(cubic, 10.0)


def test_profiles_know_whether_they_are_even():
    assert GaussianProfile(0.7).is_even
    assert PolynomialProfile((2.0,)).is_even
    assert PolynomialProfile((1.0, 0.0, -0.3, 0.0, 0.05)).is_even
    assert not PolynomialProfile((1.0, 0.5)).is_even
    assert not PolynomialProfile((0.0, 0.0, 0.0, 1e-3)).is_even


def test_transverse_profile_potential_is_x_independent():
    spec = SeparableFourierPotential({0: 0.5}, GaussianProfile(1.0))
    y = np.linspace(-2.0, 2.0, 11)
    a = spec(np.zeros_like(y), y)
    b = spec(np.full_like(y, 17.3), y)
    assert np.array_equal(a, b)
    bounds = spec.norm_estimates()
    assert bounds.w0_prime == 0.0  # no x dependence at all
    assert abs(bounds.w0 - 0.5) < 1e-12


_COS = {"1": [0.3, 0.2], "-1": [0.3, -0.2], "0": 0.1, "3": [-0.05, 0.0], "-3": [-0.05, 0.0]}
_PROFILES = {
    "gaussian": ({"shape": "gaussian", "sigma": 0.8}, -1.3),
    "y^2": ({"shape": "polynomial", "coeffs": [0.0, 0.0, 1.0]}, 0.01),
    "polynomial": ({"shape": "polynomial", "coeffs": [0.2, -0.4, 0.9]}, 0.6),
    "constant": ({"shape": "constant", "value": 2.0}, -0.7),
}
_SPELLINGS = {
    "fourier_x": (
        {"kind": "fourier_x", "coeffs": _COS},
        {"kind": "fourier_x_profile", "coeffs": _COS, "profile": {"shape": "constant", "value": 1.0}},
    ),
    **{
        f"profile_y-{name}": (
            {"kind": "profile_y", "profile": g, "amplitude": a},
            {"kind": "fourier_x_profile", "coeffs": {"0": a}, "profile": g},
        )
        for name, (g, a) in _PROFILES.items()
    },
}


@pytest.mark.parametrize("name", sorted(_SPELLINGS))
def test_spellings_of_one_separable_potential_agree(name):
    a, b = (potential_from_dict(d) for d in _SPELLINGS[name])
    rng = np.random.default_rng(17)
    x = rng.uniform(-4.0, 4.0, 50)
    y = rng.uniform(-2.0, 2.0, 50)
    assert np.array_equal(a.evaluate(x, y), b.evaluate(x, y))
    for ga, gb in zip(a.gradient(x, y), b.gradient(x, y)):
        assert np.array_equal(ga, gb)
    for xp, yp in zip(x[:10].tolist(), y[:10].tolist()):
        assert a.evaluate(xp, yp) == b.evaluate(xp, yp)
        assert a.gradient(xp, yp) == b.gradient(xp, yp)
    assert a.norm_estimates() == b.norm_estimates()
    assert a == b
    p = derive_params(3.0, 4.0)
    projections = [dense_coefficients(project_potential(spec, p, nmax=5, mfourier=4)) for spec in (a, b)]
    assert np.array_equal(*projections)


def test_zero_factor_times_unbounded_profile_has_finite_bounds():
    # 0 * sup|g| = 0 * inf must not make a NaN bound
    for d in (
        {"kind": "profile_y", "profile": {"shape": "polynomial", "coeffs": [0, 1]}, "amplitude": 0},
        {"kind": "fourier_x_profile", "coeffs": {"0": 0.01},
         "profile": {"shape": "polynomial", "coeffs": [0, 0, 1]}},
        {"kind": "fourier_x_profile", "coeffs": {"1": 0.5, "-1": 0.5},
         "profile": {"shape": "constant", "value": 0.0}},
    ):
        b = potential_from_dict(d).norm_estimates()
        values = [b.w0, b.w0_prime, b.dxx, b.dyy, b.dxy, b.x2_dxx]
        assert not any(map(math.isnan, values)), d
    zero = potential_from_dict(
        {"kind": "profile_y", "profile": {"shape": "polynomial", "coeffs": [0, 1]}, "amplitude": 0}
    )
    assert zero.norm_estimates() == ZeroPotential().norm_estimates()
    y2 = potential_from_dict(
        {"kind": "profile_y", "profile": {"shape": "polynomial", "coeffs": [0, 0, 1]}, "amplitude": 0.01}
    ).norm_estimates()
    assert (y2.w0, y2.dxx, y2.dyy, y2.dxy) == (math.inf, 0.0, 0.02, 0.0)


def test_separable_fourier_matches_product():
    spec = SeparableFourierPotential({1: 0.5, -1: 0.5}, GaussianProfile(1.3))
    x = np.linspace(-3.0, 9.0, 31)
    y = np.linspace(-2.0, 2.0, 31)
    xx, yy = np.meshgrid(x, y)
    expected = np.cos(xx) * np.exp(-(yy**2) / (2 * 1.3**2))
    assert np.max(np.abs(spec(xx, yy) - expected)) < 1e-13


def test_gaussian_bump_analytic_bounds():
    a, s = 0.7, 1.4
    spec = GaussianBumpPotential([(a, 0.0, 0.0, s)])
    b = spec.norm_estimates()
    assert b.method == "analytic"
    assert b.w0 == a
    assert abs(b.w0_prime - a * 2.0 / math.e) < 1e-15
    assert abs(b.dxx - a / s**2) < 1e-15
    assert abs(b.dxy - a / (math.e * s**2)) < 1e-15
    # brute-force sups on a dense grid must never exceed the certified ones
    x = np.linspace(-12.0, 12.0, 4001)
    w0p_brute = np.max(np.abs(x * spec.gradient(x, 0.0 * x)[0]))
    assert w0p_brute <= b.w0_prime + 1e-10
    assert b.w0_prime <= w0p_brute + 1e-4
    h = 1e-4
    wxx = (spec(x + h, 0 * x) - 2 * spec(x, 0 * x) + spec(x - h, 0 * x)) / h**2
    assert np.max(np.abs(x * x * wxx)) <= b.x2_dxx + 1e-5


def test_gaussian_bump_offcenter_grid_bounds_cover_brute_force():
    spec = GaussianBumpPotential([(0.4, 1.0, -0.5, 0.9), (-0.3, -2.0, 0.3, 1.2)])
    b = spec.norm_estimates()
    assert b.method == "grid"
    x = np.linspace(-15.0, 15.0, 3001)
    y = np.linspace(-12.0, 12.0, 601)
    xx, yy = np.meshgrid(x, y)
    vals = spec(xx, yy)
    assert np.max(np.abs(vals)) <= b.w0 + 1e-9
    wx = spec.gradient(xx, yy)[0]
    assert np.max(np.abs(xx * wx)) <= b.w0_prime + 1e-9


def test_grid_sampled_bilinear_and_clipping():
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 2.0])
    vals = np.array([[0.0, 4.0], [2.0, 10.0]])  # vals[i, j] = W(x_i, y_j)
    spec = GridSampledPotential(x, y, vals)
    assert abs(spec(0.5, 1.0) - 4.0) < 1e-12  # bilinear mean of the corners
    assert abs(spec(0.0, 2.0) - 4.0) < 1e-12
    assert spec(0.5, 5.0) == 0.0  # outside the covered strip
    b = spec.norm_estimates()
    assert b.w0 == 10.0
    assert math.isinf(b.dxx)  # piecewise linear: second derivatives unbounded


def test_grid_sampled_w0_prime_covers_fine_sampling():
    rng = np.random.default_rng(3)
    x = np.linspace(-2.0, 3.0, 7)
    y = np.linspace(-1.0, 1.0, 5)
    vals = rng.uniform(-1.0, 1.0, size=(7, 5))
    spec = GridSampledPotential(x, y, vals)
    b = spec.norm_estimates()
    # stay clear of the covered-rectangle edge: the zero fill makes the
    # potential jump there, so the bound only speaks for the interior
    xf = np.linspace(-1.99, 2.99, 2001)
    yf = np.linspace(-1.0, 1.0, 401)
    xx, yy = np.meshgrid(xf, yf)
    h = 1e-7
    wx = (spec(xx + h, yy) - spec(xx - h, yy)) / (2 * h)
    brute = float(np.max(np.abs(xx * wx)))
    assert brute <= b.w0_prime + 1e-5


def test_grid_roundtrip_through_dict():
    x = [0.0, 1.0, 2.0]
    y = [0.0, 1.0]
    vals = np.arange(6.0).reshape(3, 2)
    spec = GridSampledPotential(x, y, vals)
    clone = potential_from_dict({"kind": "grid", "x": x, "y": y, "values": vals.tolist()})
    pts = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(clone(pts, 0.5 + 0 * pts), spec(pts, 0.5 + 0 * pts))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        potential_from_dict({"kind": "mystery"})


def test_default_gradient_matches_analytic():
    spec = GaussianBumpPotential([(0.5, 1.0, -0.3, 1.1)])
    x = np.linspace(-2.0, 4.0, 23)
    y = np.linspace(-2.0, 2.0, 23)
    wx, wy = spec.gradient(x, y)
    h = 1e-6
    fx = (spec(x + h, y) - spec(x - h, y)) / (2 * h)
    fy = (spec(x, y + h) - spec(x, y - h)) / (2 * h)
    assert np.max(np.abs(wx - fx)) < 1e-8
    assert np.max(np.abs(wy - fy)) < 1e-8


def test_channel_params_is_frozen():
    p = derive_params(1.0, 1.0)
    with pytest.raises(AttributeError):
        p.alpha = 2.0
    assert isinstance(p, ChannelParams)
