"""Classical guiding-center dynamics in the channel.

The classical Hamiltonian (symbol of the operator, kinetic normalization
matching it) is

    H_cl = (p_x + B y)^2 + p_y^2 + omega^2 y^2 + W(x, y)

giving Hamilton's equations

    x' = 2 (p_x + B y),   y' = 2 p_y,
    p_x' = -dW/dx,        p_y' = -2 B (p_x + B y) - 2 omega^2 y - dW/dy.

For W = 0 the motion is a cyclotron rotation at frequency 2*alpha about a
drifting guiding center: with A = y(0) + mu p_x(0), c = cos(2 alpha t),
s = sin(2 alpha t),

    y(t)   = -mu p_x + A c + (p_y(0)/alpha) s
    p_y(t) = p_y(0) c - alpha A s
    x(t)   = x(0) + 2 beta p_x t + (B/alpha) A s + mu p_y(0) (1 - c)
    p_x(t) = p_x(0).

The guiding center S_x = x + mu p_y then moves ballistically,
S_x' = 2 beta p_x exactly, and S_y = -mu p_x is frozen; p_x S_x grows with
slope 2 beta p_x^2, the classical counterpart of the commutator [H, iA].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, Potential, ZeroPotential
from .schema import ConfigError

__all__ = [
    "ClassicalState",
    "Trajectory",
    "closed_form_trajectory",
    "integrate",
    "mourre_observable",
    "MourreSeries",
]

_BLOWUP_LIMIT = 1e9
# 320 MB of states, and about two minutes of RK4 at some 13 us a step with a potential
_MAX_STEPS = 10**7


def _step_count(t_end: float, dt: float) -> int:
    """round(t_end / dt), refused when it is 0 or above _MAX_STEPS, before
    anything is allocated."""
    if not (dt > 0 and t_end > 0):
        raise ConfigError("need positive dt and t_end")
    if not t_end / dt <= _MAX_STEPS:
        raise ConfigError(f"t_end / dt = {t_end / dt:.3g} exceeds the cap of {_MAX_STEPS:.0e} steps")
    n = int(round(t_end / dt))
    if n == 0:
        raise ConfigError(f"t_end / dt = {t_end / dt:.3g} rounds to 0 steps; need dt < 2 t_end")
    return n


@dataclass(frozen=True)
class ClassicalState:
    t: float
    x: float
    y: float
    px: float
    py: float


def _hamiltonian(params: ChannelParams, x, y, px, py, spec: Potential | None = None):
    """H_cl at one phase-space point or elementwise over arrays of them."""
    h = (px + params.B * y) ** 2 + py**2 + params.omega**2 * y**2
    return h if spec is None else h + spec.evaluate(x, y)


@dataclass(eq=False)
class Trajectory:
    """Time series of a classical orbit with per-sample derived quantities."""

    params: ChannelParams
    method: str  # "closed_form" or "rk4"
    source_potential: str
    times: np.ndarray
    states: np.ndarray  # (n, 4) columns x, y, px, py
    energies: np.ndarray
    aborted: bool = False

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def px(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def py(self) -> np.ndarray:
        return self.states[:, 3]

    @property
    def guiding_center_x(self) -> np.ndarray:
        return self.x + self.params.mu * self.py

    @property
    def guiding_center_y(self) -> np.ndarray:
        return -self.params.mu * self.px

    @property
    def px_sx(self) -> np.ndarray:
        return self.px * self.guiding_center_x

    @property
    def energy_drift(self) -> float:
        """max |H(t) - H(0)| / max(|H(0)|, 1)."""
        e0 = self.energies[0]
        return float(np.max(np.abs(self.energies - e0)) / max(abs(e0), 1.0))


def _free_orbit(params: ChannelParams, initial: ClassicalState, elapsed: np.ndarray) -> np.ndarray:
    """Exact W = 0 states (x, y, px, py), one row per elapsed time since initial.t."""
    a = params.alpha
    amp = initial.y + params.mu * initial.px
    tau = 2.0 * a * elapsed
    c, s = np.cos(tau), np.sin(tau)
    y = -params.mu * initial.px + amp * c + (initial.py / a) * s
    py = initial.py * c - a * amp * s
    x = (
        initial.x
        + 2.0 * params.beta * initial.px * elapsed
        + (params.B / a) * amp * s
        + params.mu * initial.py * (1.0 - c)
    )
    px = np.full_like(elapsed, initial.px)
    return np.column_stack([x, y, px, py])


def _trajectory_arrays(params, method, source, times, states, spec=None, aborted=False) -> Trajectory:
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    return Trajectory(
        params=params,
        method=method,
        source_potential=source,
        times=times,
        states=states,
        energies=_hamiltonian(params, *states.T, spec),
        aborted=aborted,
    )


def closed_form_trajectory(
    params: ChannelParams, initial: ClassicalState, t_end: float, dt: float
) -> Trajectory:
    """Sampled exact W = 0 orbit from initial.t to initial.t + t_end."""
    n = _step_count(t_end, dt)
    times = initial.t + dt * np.arange(n + 1)
    states = _free_orbit(params, initial, times - initial.t)
    return _trajectory_arrays(params, "closed_form", "zero", times, states)


def integrate(
    params: ChannelParams,
    spec: Potential | None,
    initial: ClassicalState,
    t_end: float,
    dt: float = 1e-3,
) -> Trajectory:
    """Fixed-step RK4 integration of Hamilton's equations.

    The state is carried as four Python floats, the four stages are written
    out in the loop, and the potential gradient is taken at one float point
    per stage.  Every operation is the one the length-4 state array would
    do, in the same order, so the trajectory is the array form's bit for
    bit.  Accepted states go into a preallocated (n + 1, 4) array.  From 1
    to 10^7 steps are taken: a t_end / dt above 1e7, or one that rounds to
    0, raises ValueError before anything is allocated.

    Aborts (returning the partial trajectory flagged ``aborted``) when any
    phase-space component exceeds 1e9 or is not finite, which only happens
    for unbounded potential data.
    """
    n = _step_count(t_end, dt)
    if isinstance(spec, ZeroPotential):
        spec = None
    B, w2 = params.B, 2.0 * params.omega**2

    if spec is None:

        def force(x, y):
            return 0.0, 0.0

    else:
        gradient = spec.gradient

        def force(x, y):
            wx, wy = gradient(x, y)
            return float(wx), float(wy)

    states = np.empty((n + 1, 4))
    states[0] = (initial.x, initial.y, initial.px, initial.py)
    x, y, px, py = states[0].tolist()
    half, sixth, limit = 0.5 * dt, dt / 6.0, _BLOWUP_LIMIT
    aborted = False
    steps = 0
    for i in range(n):
        # stage k: the derivative (dxk, dyk, dpxk, dpyk) at the stage point (xk, yk, pxk, pyk)
        wx, wy = force(x, y)
        dx1 = 2.0 * (px + B * y)
        dy1, dpx1, dpy1 = 2.0 * py, -wx, -B * dx1 - w2 * y - wy
        x2, y2, px2, py2 = x + half * dx1, y + half * dy1, px + half * dpx1, py + half * dpy1
        wx, wy = force(x2, y2)
        dx2 = 2.0 * (px2 + B * y2)
        dy2, dpx2, dpy2 = 2.0 * py2, -wx, -B * dx2 - w2 * y2 - wy
        x3, y3, px3, py3 = x + half * dx2, y + half * dy2, px + half * dpx2, py + half * dpy2
        wx, wy = force(x3, y3)
        dx3 = 2.0 * (px3 + B * y3)
        dy3, dpx3, dpy3 = 2.0 * py3, -wx, -B * dx3 - w2 * y3 - wy
        x4, y4, px4, py4 = x + dt * dx3, y + dt * dy3, px + dt * dpx3, py + dt * dpy3
        wx, wy = force(x4, y4)
        dx4 = 2.0 * (px4 + B * y4)
        dy4, dpx4, dpy4 = 2.0 * py4, -wx, -B * dx4 - w2 * y4 - wy
        x = x + sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
        y = y + sixth * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
        px = px + sixth * (dpx1 + 2.0 * dpx2 + 2.0 * dpx3 + dpx4)
        py = py + sixth * (dpy1 + 2.0 * dpy2 + 2.0 * dpy3 + dpy4)
        # one test per component: a NaN fails its own, where max() could pass it over
        if not (abs(x) <= limit and abs(y) <= limit and abs(px) <= limit and abs(py) <= limit):
            aborted = True
            break
        states[i + 1] = (x, y, px, py)
        steps = i + 1
    times = initial.t + dt * np.arange(steps + 1)
    return _trajectory_arrays(
        params,
        "rk4",
        "zero" if spec is None else spec.kind,
        times,
        states[: steps + 1],
        spec=spec,
        aborted=aborted,
    )


@dataclass(frozen=True)
class MourreSeries:
    """p_x S_x along an orbit and its least-squares growth rate."""

    times: np.ndarray
    values: np.ndarray
    slope: float


def mourre_observable(traj: Trajectory) -> MourreSeries:
    """Least-squares slope of t -> p_x(t) S_x(t).

    For W = 0 this equals 2 beta p_x^2 exactly; a positive slope is the
    classical transport signature mirrored by the commutator estimate.
    """
    values = traj.px_sx
    slope = float(np.polyfit(traj.times, values, 1)[0]) if traj.times.size > 1 else 0.0
    return MourreSeries(times=traj.times, values=values, slope=slope)
