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

__all__ = [
    "ClassicalState",
    "Trajectory",
    "closed_form_state",
    "closed_form_trajectory",
    "integrate",
    "guiding_center",
    "mourre_observable",
    "MourreSeries",
]

_BLOWUP_LIMIT = 1e9


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


def energy(params: ChannelParams, state: ClassicalState, spec: Potential | None = None) -> float:
    return float(_hamiltonian(params, state.x, state.y, state.px, state.py, spec))


def guiding_center(params: ChannelParams, state: ClassicalState) -> tuple[float, float]:
    """(S_x, S_y) = (x + mu p_y, -mu p_x)."""
    return state.x + params.mu * state.py, -params.mu * state.px


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

    def state(self, i: int) -> ClassicalState:
        x, y, px, py = self.states[i]
        return ClassicalState(t=float(self.times[i]), x=x, y=y, px=px, py=py)


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


def closed_form_state(params: ChannelParams, initial: ClassicalState, t: float) -> ClassicalState:
    """Exact W = 0 orbit at time t (initial.t is the reference time)."""
    x, y, px, py = _free_orbit(params, initial, np.array([t - initial.t]))[0].tolist()
    return ClassicalState(t=t, x=x, y=y, px=px, py=py)


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
    if dt <= 0 or t_end <= 0:
        raise ValueError("need positive dt and t_end")
    n = int(round(t_end / dt))
    times = initial.t + dt * np.arange(n + 1)
    states = _free_orbit(params, initial, times - initial.t)
    return _trajectory_arrays(params, "closed_form", "zero", times, states)


def _rhs(params: ChannelParams, spec: Potential | None, state: np.ndarray) -> np.ndarray:
    x, y, px, py = state
    if spec is None:
        wx = wy = 0.0
    else:
        wx, wy = spec.gradient(x, y)
        wx, wy = float(wx), float(wy)
    vx = 2.0 * (px + params.B * y)
    return np.array(
        [
            vx,
            2.0 * py,
            -wx,
            -params.B * vx - 2.0 * params.omega**2 * y - wy,
        ]
    )


def integrate(
    params: ChannelParams,
    spec: Potential | None,
    initial: ClassicalState,
    t_end: float,
    dt: float = 1e-3,
) -> Trajectory:
    """Fixed-step RK4 integration of Hamilton's equations.

    Aborts (returning the partial trajectory flagged ``aborted``) when any
    phase-space component exceeds 1e9, which only happens for unbounded
    potential data.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("need positive dt and t_end")
    if isinstance(spec, ZeroPotential):
        spec = None
    n = int(round(t_end / dt))
    states = np.empty((n + 1, 4))
    states[0] = (initial.x, initial.y, initial.px, initial.py)
    aborted = False
    steps = 0
    s = states[0]
    for i in range(n):
        k1 = _rhs(params, spec, s)
        k2 = _rhs(params, spec, s + 0.5 * dt * k1)
        k3 = _rhs(params, spec, s + 0.5 * dt * k2)
        k4 = _rhs(params, spec, s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(s)) or np.max(np.abs(s)) > _BLOWUP_LIMIT:
            aborted = True
            break
        states[i + 1] = s
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
