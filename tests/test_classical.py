"""Classical guiding-center dynamics: closed form, RK4 cross-check,
conserved quantities and the ballistic transport observable."""

import math

import numpy as np
import pytest

from channel_spectra import (
    ClassicalState,
    GaussianBumpPotential,
    GaussianProfile,
    GridSampledPotential,
    PolynomialProfile,
    SeparableFourierPotential,
    ZeroPotential,
    closed_form_trajectory,
    derive_params,
    integrate,
    mourre_observable,
)
from channel_spectra.channel import Potential
from channel_spectra.classical import _BLOWUP_LIMIT, _free_orbit, _hamiltonian, _trajectory_arrays
from channel_spectra.schema import ConfigError

_P34 = derive_params(3.0, 4.0)
_INIT = ClassicalState(t=0.0, x=0.0, y=0.0, px=1.0, py=0.0)


def closed_form_state(params, initial, t):
    """Exact W = 0 orbit at time t (initial.t is the reference time)."""
    x, y, px, py = _free_orbit(params, initial, np.array([t - initial.t]))[0].tolist()
    return ClassicalState(t=t, x=x, y=y, px=px, py=py)


def _sample(traj, i):
    """The state of a trajectory at its i-th sample time."""
    x, y, px, py = traj.states[i]
    return ClassicalState(t=float(traj.times[i]), x=x, y=y, px=px, py=py)


def energy(params, state):
    return float(_hamiltonian(params, state.x, state.y, state.px, state.py))


def guiding_center(params, state):
    """(S_x, S_y) = (x + mu p_y, -mu p_x)."""
    return state.x + params.mu * state.py, -params.mu * state.px


def _reference_rhs(params, spec, state):
    x, y, px, py = state
    if spec is None:
        wx = wy = 0.0
    else:
        wx, wy = spec.gradient(np.asarray(x), np.asarray(y))
        wx, wy = float(wx), float(wy)
    vx = 2.0 * (px + params.B * y)
    return np.array([vx, 2.0 * py, -wx, -params.B * vx - 2.0 * params.omega**2 * y - wy])


def _reference_integrate(params, spec, initial, t_end, dt):
    """Oracle for integrate: the same RK4 on the state as a length-4 array,
    with the gradient taken at 0-d arrays."""
    if isinstance(spec, ZeroPotential):
        spec = None
    n = int(round(t_end / dt))
    states = np.empty((n + 1, 4))
    states[0] = (initial.x, initial.y, initial.px, initial.py)
    aborted = False
    steps = 0
    s = states[0]
    for i in range(n):
        k1 = _reference_rhs(params, spec, s)
        k2 = _reference_rhs(params, spec, s + 0.5 * dt * k1)
        k3 = _reference_rhs(params, spec, s + 0.5 * dt * k2)
        k4 = _reference_rhs(params, spec, s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(s)) or np.max(np.abs(s)) > _BLOWUP_LIMIT:
            aborted = True
            break
        states[i + 1] = s
        steps = i + 1
    times = initial.t + dt * np.arange(steps + 1)
    return _trajectory_arrays(params, "rk4", "", times, states[: steps + 1], spec=spec, aborted=aborted)


class _NanOnCall(Potential):
    """dW/dx is NaN at the 40th gradient call only, the last stage of step
    10, so that step ends with p_x NaN and x, y, p_y finite."""

    kind = "nan_on_call"

    def __init__(self):
        self.calls = 0

    def evaluate(self, x, y):
        return 0.0 * np.asarray(x, dtype=float)

    def gradient(self, x, y):
        self.calls += 1
        return (math.nan if self.calls == 40 else 0.0), 0.0


def _bits(a):
    """Bit patterns of floats, so that equality tells -0.0 from 0.0."""
    return np.asarray(a, dtype=float).view(np.uint64)


_GRID_X = np.linspace(-3.0, 3.0, 7)
_GRID_Y = np.linspace(-2.0, 2.0, 5)
_TWO_BUMPS = GaussianBumpPotential([(0.8, 0.3, -0.2, 0.9), (-0.4, -1.0, 0.5, 1.3)])
_COMPLEX_COS = {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 3: 0.1 - 0.05j, -3: 0.1 + 0.05j, 0: 0.2}
_ANALYTIC = {
    "gaussian_bumps": _TWO_BUMPS,
    "fourier_x": SeparableFourierPotential(_COMPLEX_COS),
    "fourier_x_profile": SeparableFourierPotential(_COMPLEX_COS, GaussianProfile(0.8)),
    "fourier_x_profile-polynomial": SeparableFourierPotential(
        {2: 0.5j, -2: -0.5j}, PolynomialProfile([0.1, 0.3, -0.7])
    ),
    "fourier_x_profile-constant": SeparableFourierPotential(_COMPLEX_COS, PolynomialProfile([-1.5])),
    "profile_y": SeparableFourierPotential({0: -1.3}, GaussianProfile(0.7)),
    "profile_y-polynomial": SeparableFourierPotential({0: 0.6}, PolynomialProfile([0.0, 0.4, 0.9])),
    "profile_y-constant": SeparableFourierPotential({0: -1.3}, PolynomialProfile([2.0])),
}


def test_reference_orbit_formulas():
    # B = 3, omega = 4, px = 1 from the origin:
    # x = 1.28 t + 0.072 sin 10t, y = 0.12 (cos 10t - 1), py = -0.6 sin 10t
    for t in (0.0, 0.1, 0.37, 1.0, 2.5):
        s = closed_form_state(_P34, _INIT, t)
        assert abs(s.x - (1.28 * t + 0.072 * math.sin(10 * t))) < 1e-12
        assert abs(s.y - 0.12 * (math.cos(10 * t) - 1.0)) < 1e-12
        assert abs(s.py - (-0.6) * math.sin(10 * t)) < 1e-12
        assert s.px == 1.0


def test_trajectory_matches_pointwise_closed_form():
    traj = closed_form_trajectory(_P34, _INIT, t_end=0.5, dt=1e-2)
    assert traj.times.shape == (51,)
    for i in (0, 7, 50):
        s = closed_form_state(_P34, _INIT, float(traj.times[i]))
        got = _sample(traj, i)
        assert abs(got.x - s.x) < 1e-12
        assert abs(got.y - s.y) < 1e-12
        assert abs(got.py - s.py) < 1e-12


def test_closed_form_satisfies_equations_of_motion():
    rng = np.random.default_rng(7)
    for _ in range(10):
        B, om = rng.uniform(0.0, 4.0), rng.uniform(0.5, 4.0)
        p = derive_params(B, om)
        init = ClassicalState(0.0, *rng.uniform(-2.0, 2.0, size=4))
        t = rng.uniform(0.1, 3.0)
        h = 1e-5
        plus = closed_form_state(p, init, t + h)
        minus = closed_form_state(p, init, t - h)
        here = closed_form_state(p, init, t)
        assert abs((plus.x - minus.x) / (2 * h) - 2 * (here.px + B * here.y)) < 1e-6
        assert abs((plus.y - minus.y) / (2 * h) - 2 * here.py) < 1e-6
        vy = -2 * B * (here.px + B * here.y) - 2 * om**2 * here.y
        assert abs((plus.py - minus.py) / (2 * h) - vy) < 1e-5


def test_closed_form_group_property():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = derive_params(rng.uniform(0.0, 3.0), rng.uniform(0.5, 3.0))
        init = ClassicalState(0.0, *rng.uniform(-1.0, 1.0, size=4))
        t1, t2 = rng.uniform(0.1, 1.0, size=2)
        mid = closed_form_state(p, init, t1)
        assert abs(mid.t - t1) < 1e-15
        end_two_hops = closed_form_state(p, mid, t1 + t2)
        end_direct = closed_form_state(p, init, t1 + t2)
        assert abs(end_two_hops.x - end_direct.x) < 1e-10
        assert abs(end_two_hops.y - end_direct.y) < 1e-10
        assert abs(end_two_hops.py - end_direct.py) < 1e-10


def test_rk4_matches_closed_form():
    rk = integrate(_P34, None, _INIT, t_end=0.5, dt=5e-4)
    cf = closed_form_trajectory(_P34, _INIT, t_end=0.5, dt=5e-4)
    assert rk.method == "rk4" and cf.method == "closed_form"
    assert np.max(np.hypot(rk.x - cf.x, rk.y - cf.y)) < 1e-9
    assert np.array_equal(rk.times, cf.times)


def test_momentum_and_energy_are_conserved():
    cf = closed_form_trajectory(_P34, _INIT, t_end=1.0, dt=1e-3)
    assert np.all(cf.px == 1.0)  # free motion never touches p_x
    assert cf.energy_drift < 1e-12
    rk = integrate(_P34, None, _INIT, t_end=1.0, dt=1e-3)
    assert np.all(rk.px == 1.0)
    assert rk.energy_drift < 1e-9
    e0 = energy(_P34, _INIT)
    assert abs(e0 - cf.energies[0]) < 1e-14


def test_guiding_center_moves_ballistically():
    cf = closed_form_trajectory(_P34, _INIT, t_end=2.0, dt=1e-3)
    sx = cf.guiding_center_x
    # S_x = x + mu p_y is exactly linear with slope 2 beta p_x
    expected = sx[0] + 2.0 * _P34.beta * 1.0 * cf.times
    assert np.max(np.abs(sx - expected)) < 1e-10
    assert np.max(np.abs(cf.guiding_center_y + _P34.mu * 1.0)) < 1e-15
    sx0, sy0 = guiding_center(_P34, _INIT)
    assert abs(sx0 - sx[0]) < 1e-15 and abs(sy0 + 0.12) < 1e-15


def test_transport_observable_slope():
    cf = closed_form_trajectory(_P34, _INIT, t_end=1.0, dt=1e-3)
    series = mourre_observable(cf)
    assert abs(series.slope - 1.28) < 1e-10  # 2 beta p_x^2
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = derive_params(rng.uniform(0.0, 4.0), rng.uniform(0.5, 4.0))
        init = ClassicalState(0.0, *rng.uniform(-1.5, 1.5, size=4))
        series = mourre_observable(closed_form_trajectory(p, init, 1.0, 1e-3))
        assert abs(series.slope - 2.0 * p.beta * init.px**2) < 1e-9


def test_rk4_conserves_energy_with_bump_potential():
    spec = GaussianBumpPotential(bumps=((0.5, 0.3, 0.0, 0.7),))
    traj = integrate(_P34, spec, _INIT, t_end=1.0, dt=1e-3)
    assert not traj.aborted
    assert traj.energy_drift < 1e-8
    assert traj.source_potential == spec.kind


def test_unbounded_potential_aborts_cleanly():
    # W = -10 y^2 overturns the confinement; the orbit grows like e^{6t}
    spec = SeparableFourierPotential({0: 1.0}, PolynomialProfile([0.0, 0.0, -10.0]))
    p = derive_params(0.0, 1.0)
    traj = integrate(p, spec, ClassicalState(0.0, 0.0, 0.1, 0.0, 0.0), t_end=10.0, dt=1e-3)
    assert traj.aborted
    assert traj.times[-1] < 5.0
    assert np.all(np.isfinite(traj.states))


def test_zero_potential_object_equals_none():
    a = integrate(_P34, ZeroPotential(), _INIT, t_end=0.2, dt=1e-3)
    b = integrate(_P34, None, _INIT, t_end=0.2, dt=1e-3)
    assert np.array_equal(a.states, b.states)
    assert a.source_potential == "zero"


def test_time_step_validation():
    with pytest.raises(ValueError):
        integrate(_P34, None, _INIT, t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate(_P34, None, _INIT, t_end=-1.0)
    with pytest.raises(ValueError):
        integrate(_P34, None, _INIT, t_end=1.0, dt=math.nan)
    with pytest.raises(ValueError):
        closed_form_trajectory(_P34, _INIT, t_end=0.0, dt=1e-3)
    # more than 1e7 steps is refused before the (n + 1, 4) state array exists
    for t_end, dt in ((1e9, 1e-3), (1e7 + 1.0, 1.0), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="cap"):
            integrate(_P34, None, _INIT, t_end=t_end, dt=dt)
        with pytest.raises(ValueError, match="cap"):
            closed_form_trajectory(_P34, _INIT, t_end=t_end, dt=dt)


@pytest.mark.parametrize("t_end, dt", [(1.0, 2.0), (0.3, 1.0), (1e-9, 1.0)])
def test_a_step_count_that_rounds_to_zero_is_refused(t_end, dt):
    # round(0.5) is 0: such an orbit would be its initial state alone
    with pytest.raises(ConfigError, match="0 steps"):
        integrate(_P34, None, _INIT, t_end=t_end, dt=dt)
    with pytest.raises(ConfigError, match="0 steps"):
        closed_form_trajectory(_P34, _INIT, t_end=t_end, dt=dt)
    # just past half a step rounds up to one
    assert integrate(_P34, None, _INIT, t_end=0.5000001, dt=1.0).times.size == 2


@pytest.mark.parametrize(
    "params, spec, initial, t_end",
    [
        (_P34, None, _INIT, 1.0),
        (_P34, ZeroPotential(), ClassicalState(0.0, 0.3, -0.1, 0.7, 0.4), 1.0),
        (_P34, _TWO_BUMPS, ClassicalState(0.0, -1.5, 0.1, 1.2, 0.2), 1.5),
        (_P34, _ANALYTIC["fourier_x"], ClassicalState(0.0, 0.0, 0.1, 1.0, 0.2), 1.5),
        (_P34, _ANALYTIC["fourier_x_profile"], ClassicalState(0.0, 0.0, 0.1, 1.0, 0.2), 1.5),
        (_P34, _ANALYTIC["profile_y"], ClassicalState(0.0, 0.0, 0.1, 1.0, 0.2), 1.5),
        (
            _P34,
            GridSampledPotential(
                _GRID_X, _GRID_Y, np.outer(np.cos(_GRID_X), _GRID_Y**2)
            ),
            ClassicalState(0.0, 0.0, 0.1, 1.0, 0.2),
            0.5,
        ),
        (
            derive_params(0.0, 1.0),
            SeparableFourierPotential({0: 1.0}, PolynomialProfile([0.0, 0.0, -10.0])),
            ClassicalState(0.0, 0.0, 0.1, 0.0, 0.0),
            10.0,
        ),
    ],
    ids=[
        "none", "zero", "gaussian_bumps", "fourier_x", "fourier_x_profile", "profile_y",
        "grid", "aborting-polynomial",
    ],
)
def test_integrate_is_bit_identical_to_the_array_form(params, spec, initial, t_end):
    got = integrate(params, spec, initial, t_end=t_end, dt=1e-3)
    want = _reference_integrate(params, spec, initial, t_end, 1e-3)
    assert got.aborted == want.aborted
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(_bits(got.states), _bits(want.states))
    assert np.array_equal(got.energies, want.energies)


def test_a_nan_in_one_component_aborts_the_step():
    got = integrate(_P34, _NanOnCall(), _INIT, t_end=0.1, dt=1e-3)
    want = _reference_integrate(_P34, _NanOnCall(), _INIT, 0.1, 1e-3)
    assert got.aborted and want.aborted
    assert got.times.size == want.times.size == 10
    assert np.array_equal(got.states, want.states)
    assert np.all(np.isfinite(got.states))


@pytest.mark.parametrize("name", sorted(_ANALYTIC))
def test_gradient_at_a_float_point_is_the_array_gradient(name):
    spec = _ANALYTIC[name]
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-4.0, 4.0, 200), [0.0, -0.0, 0.3]])
    y = np.concatenate([rng.uniform(-2.0, 2.0, 200), [0.0, -0.0, -0.2]])
    wx, wy = spec.gradient(x, y)
    points = [spec.gradient(a, b) for a, b in zip(x.tolist(), y.tolist())]
    for w in points[0]:
        assert np.ndim(w) == 0 and isinstance(w, float)
    sx, sy = (np.array(c, dtype=float) for c in zip(*points))
    assert np.array_equal(_bits(wx), _bits(sx))
    assert np.array_equal(_bits(wy), _bits(sy))


@pytest.mark.parametrize("name", sorted(_ANALYTIC))
def test_gradient_of_arrays_has_the_broadcast_shape(name):
    spec = _ANALYTIC[name]
    x = np.linspace(-2.0, 2.0, 6)
    y = np.linspace(-1.0, 1.0, 4)
    for xs, ys, shape in (
        (x, 0.25, (6,)),
        (0.25, y, (4,)),
        (x[:, None] + 0.0 * y, 0.0 * x[:, None] + y, (6, 4)),
        (x[:, None], y[None, :], (6, 4)),
    ):
        wx, wy = spec.gradient(xs, ys)
        assert np.shape(wx) == shape and np.shape(wy) == shape
        # each entry is the gradient at that point
        xb, yb = np.broadcast_arrays(xs, ys)
        i = (1,) * len(shape)
        px, py = spec.gradient(float(xb[i]), float(yb[i]))
        assert abs(wx[i] - px) <= 1e-15 and abs(wy[i] - py) <= 1e-15
