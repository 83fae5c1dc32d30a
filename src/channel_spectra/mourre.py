"""Positive-commutator transport certificates and resolvent norm checks.

With A = sym(x1 p1) + mu p1 p2 the free commutator is [H_0, iA] =
2 beta p1^2, which is strictly positive on spectral windows separated from
the Landau thresholds (2n+1) alpha.  For energies below E, a window
half-width delta and a margin eps, the certificate evaluates two smallness
conditions on a bounded perturbation W:

    (I)   W_0  <  delta / ( 2 (delta/alpha + beta C) (1 + E/eps) )
    (II)  W_0' + (B/alpha^2) sqrt(c C) W_0 (E + W_0)  <  delta / 2

where W_0 = ||W||_inf, W_0' = ||x dW/dx||_inf, c = sqrt(6) and
C = C(omega, B) = c (1 + alpha^2) / omega^2 is the weighted resolvent
constant.  When both hold (together with W_0 < alpha and E outside the
padded threshold intervals), energies in

    {lambda <= E} \\ I(alpha, delta + eps),
    I(alpha, d) = union_n [ (2n+1) alpha - d, (2n+1) alpha + d ]

carry no eigenvalues, and transport through the channel persists there.
A report's ``conclusion`` is "none" when the certificate is inadmissible.
An admissible one concludes "absolutely_continuous" when W_xx, W_yy, W_xy
and x^2 W_xx are bounded (``PotentialBounds.second_derivatives_bounded``),
and only "no_eigenvalues" when they are not.

The constant C comes from bounds on second-derivative operators against the
transverse resolvent: after Fourier transform in x with dual variable u the
free operator fibers into

    H0(u) = -d_v^2 + (u + B v)^2 + omega^2 v^2,

a shifted oscillator that is exactly diagonal in Hermite functions centered
at v_c = -mu u, with eigenvalues alpha (2n+1) + beta u^2.  The quadratic
form (u + Bv)^2 + omega^2 v^2 has eigenvalues

    lambda_+- = ( 1 + alpha^2 +- sqrt((1 + alpha^2)^2 - 4 omega^2) ) / 2,

and lambda_- >= omega^2 / (1 + alpha^2) quantifies its non-degeneracy.
``appendix_norm_checks`` verifies the operator bounds behind C numerically:
compressions of Op * R0(lambda) in the shifted basis never exceed the true
norm, so the checks are honest one-sided tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, Potential, derive_params
from .numutil import complement_within
from .schema import ConfigError

__all__ = [
    "RELATIVE_BOUND_CONSTANT",
    "resolvent_constant",
    "condition_one_threshold",
    "MourreReport",
    "evaluate_certificate",
    "ScalingSweepReport",
    "scaling_sweep",
    "AppendixReport",
    "appendix_norm_checks",
]

# the constant exhibited by the weighted resolvent estimates below
RELATIVE_BOUND_CONSTANT = math.sqrt(6.0)


def resolvent_constant(params: ChannelParams, c: float = RELATIVE_BOUND_CONSTANT) -> float:
    """C(omega, B) = c (1 + alpha^2) / omega^2."""
    return c * (1.0 + params.alpha**2) / params.omega**2


# more threshold windows than this below one energy means E / alpha is absurd
_MAX_WINDOWS = 100_000


def _threshold_windows(alpha: float, half_width: float, ceiling: float) -> list[tuple[float, float]]:
    """Windows (2n+1) alpha +- half_width for every n whose window starts at or
    below the ceiling.  The count comes in closed form and is refused above
    _MAX_WINDOWS."""
    if not math.isfinite(ceiling):
        raise ConfigError(f"threshold windows need a finite ceiling, got {ceiling}")

    def starts_below(n: int) -> bool:
        return (2 * n + 1) * alpha - half_width <= ceiling

    count = max(math.floor(((ceiling + half_width) / alpha - 1.0) / 2.0) + 1, 0)
    if count > _MAX_WINDOWS:
        raise ConfigError(
            f"{count} threshold windows below {ceiling:g} (alpha = {alpha:g}); "
            f"at most {_MAX_WINDOWS} are supported"
        )
    # settle rounding at the boundary so the count agrees with starts_below
    while count > 0 and not starts_below(count - 1):
        count -= 1
    while starts_below(count):
        count += 1
    return [((2 * n + 1) * alpha - half_width, (2 * n + 1) * alpha + half_width) for n in range(count)]


def condition_one_threshold(
    params: ChannelParams,
    E: float,
    delta: float,
    eps: float,
    c: float = RELATIVE_BOUND_CONSTANT,
) -> float:
    """Largest W_0 allowed by condition (I)."""
    bc = params.beta * resolvent_constant(params, c)
    return delta / (2.0 * (delta / params.alpha + bc) * (1.0 + E / eps))


@dataclass(frozen=True)
class MourreReport:
    """Outcome of the transport certificate for one (spec, E, delta, eps)."""

    params: ChannelParams
    E: float
    delta: float
    eps: float
    c: float
    C: float
    w0: float
    w0_prime: float
    condition_one_threshold: float
    condition_one_ok: bool
    condition_two_lhs: float
    condition_two_rhs: float
    condition_two_ok: bool
    w0_below_alpha: bool
    energy_outside_thresholds: bool
    intervals_disjoint: bool
    second_derivatives_bounded: bool
    admissible: bool
    excluded: tuple[tuple[float, float], ...]
    certified_set: tuple[tuple[float, float], ...]
    reasons: tuple[str, ...]

    @property
    def conclusion(self) -> str:
        if not self.admissible:
            return "none"
        return "absolutely_continuous" if self.second_derivatives_bounded else "no_eigenvalues"

    @property
    def verdict(self) -> str:
        if self.admissible:
            return "admissible"
        return "inadmissible: non-localized" if math.isinf(self.w0_prime) else "inadmissible"


def evaluate_certificate(
    params: ChannelParams,
    spec: Potential,
    E: float,
    delta: float,
    eps: float,
    c: float = RELATIVE_BOUND_CONSTANT,
) -> MourreReport:
    """Evaluate conditions (I) and (II); inadmissibility is a result, not an error."""
    if not all(math.isfinite(v) for v in (E, delta, eps)):
        raise ConfigError("E, delta and eps must be finite")
    # condition (I) divides by 1 + E / eps; at E <= 0 nothing is certified
    if E <= 0.0 or delta <= 0.0 or eps <= 0.0:
        raise ConfigError("need E > 0, delta > 0 and eps > 0")
    if delta >= params.alpha:
        raise ConfigError("need delta < alpha")
    bounds = spec.norm_estimates()
    w0, w0p = bounds.w0, bounds.w0_prime
    reasons: list[str] = []

    big_c = resolvent_constant(params, c)
    thr1 = condition_one_threshold(params, E, delta, eps, c)
    ok1 = w0 < thr1
    if not ok1:
        reasons.append("condition (I) fails: W0 too large for the window")

    if math.isinf(w0p):
        lhs2 = math.inf
        reasons.append("inadmissible: non-localized (||x dW/dx|| is infinite)")
    elif math.isinf(w0):
        lhs2 = math.inf
    else:
        lhs2 = w0p + params.B / params.alpha**2 * math.sqrt(c * big_c) * w0 * (E + w0)
    rhs2 = 0.5 * delta
    ok2 = lhs2 < rhs2
    if not ok2 and not math.isinf(w0p):
        reasons.append("condition (II) fails")

    w0_small = w0 < params.alpha
    if not w0_small:
        reasons.append("W0 >= alpha: perturbation can close the Landau structure")

    pad = delta + eps
    disjoint = pad < params.alpha
    if not disjoint:
        reasons.append("delta + eps >= alpha: threshold windows overlap, certificate vacuous")

    windows = _threshold_windows(params.alpha, pad, max(E, params.alpha) + pad)
    outside = all(not (lo <= E <= hi) for lo, hi in windows)
    if not outside:
        reasons.append("E lies inside a padded threshold window")

    lower = max(params.alpha - w0, 0.0) if math.isfinite(w0) else 0.0
    certified = (
        complement_within(windows, lower, E) if (disjoint and E > lower) else []
    )

    admissible = ok1 and ok2 and w0_small and disjoint and outside
    if admissible and not certified:
        admissible = False
        reasons.append("certified set is empty below E")

    return MourreReport(
        params=params,
        E=float(E),
        delta=float(delta),
        eps=float(eps),
        c=float(c),
        C=big_c,
        w0=w0,
        w0_prime=w0p,
        condition_one_threshold=thr1,
        condition_one_ok=ok1,
        condition_two_lhs=lhs2,
        condition_two_rhs=rhs2,
        condition_two_ok=ok2,
        w0_below_alpha=w0_small,
        energy_outside_thresholds=outside,
        intervals_disjoint=disjoint,
        second_derivatives_bounded=bounds.second_derivatives_bounded,
        admissible=admissible,
        excluded=tuple(windows),
        certified_set=tuple(certified),
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class ScalingSweepRow:
    omega: float
    alpha: float
    E: float
    delta: float
    eps: float
    condition_one_threshold: float
    condition_two_headroom: float
    admissible: bool


@dataclass(frozen=True)
class ScalingSweepReport:
    """Certificate thresholds under the scaling E = E0 a, delta = d0 a, eps = e0 a.

    In this regime the condition (I) threshold

        d0 e0 alpha / ( 2 (d0 + c (1 + alpha^2)/alpha^2) (e0 + E0) )

    grows linearly in alpha, so any fixed bounded, localized W is eventually
    admissible as the confinement grows.
    """

    B: float
    E0: float
    delta0: float
    eps0: float
    rows: tuple[ScalingSweepRow, ...]
    thresholds_increasing: bool
    smallest_admissible_omega: float | None


def scaling_sweep(
    B: float,
    E0: float,
    delta0: float,
    eps0: float,
    spec: Potential,
    omega_list,
    c: float = RELATIVE_BOUND_CONSTANT,
) -> ScalingSweepReport:
    if not all(math.isfinite(v) and v > 0 for v in (E0, delta0, eps0)):
        raise ConfigError("scaled parameters must be finite and positive")
    # E0 must stay clear of the scaled threshold windows (2n+1) +- (d0+e0)
    pad = delta0 + eps0
    if pad >= 1.0:
        raise ConfigError("delta0 + eps0 must be < 1 for disjoint scaled windows")
    if any(lo <= E0 <= hi for lo, hi in _threshold_windows(1.0, pad, E0 + pad)):
        raise ConfigError("E0 lies inside a scaled threshold window")
    rows = []
    smallest = None
    for omega in omega_list:
        params = derive_params(B, omega)
        a = params.alpha
        report = evaluate_certificate(params, spec, E0 * a, delta0 * a, eps0 * a, c)
        headroom = report.condition_two_rhs - report.condition_two_lhs
        rows.append(
            ScalingSweepRow(
                omega=float(omega),
                alpha=a,
                E=E0 * a,
                delta=delta0 * a,
                eps=eps0 * a,
                condition_one_threshold=report.condition_one_threshold,
                condition_two_headroom=headroom,
                admissible=report.admissible,
            )
        )
        if report.admissible and smallest is None:
            smallest = float(omega)
    thresholds = [r.condition_one_threshold for r in rows]
    increasing = all(b > a for a, b in zip(thresholds, thresholds[1:]))
    return ScalingSweepReport(
        B=float(B),
        E0=float(E0),
        delta0=float(delta0),
        eps0=float(eps0),
        rows=tuple(rows),
        thresholds_increasing=increasing,
        smallest_admissible_omega=smallest,
    )


# ---------------------------------------------------------------------------
# appendix norm checks


def transverse_quadratic_eigenvalues(params: ChannelParams) -> tuple[float, float]:
    """(lambda_+, lambda_-) of the form (u + B v)^2 + omega^2 v^2."""
    one_a2 = 1.0 + params.alpha**2
    disc = math.sqrt(one_a2 * one_a2 - 4.0 * params.omega**2)
    return 0.5 * (one_a2 + disc), 0.5 * (one_a2 - disc)


def _ladder_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact matrix elements of s, d/ds, s^2 and d^2/ds^2 on degrees < n.

    The ladder couples n only to n +- 1 (n +- 2 for the quadratic ones), so
    every entry between retained basis functions is exact; truncation only
    discards rows and columns.  d^2/ds^2 uses the oscillator identity
    (d^2/ds^2) phi_n = (s^2 - (2n+1)) phi_n.
    """
    rng = np.arange(1, n)
    s_mat = np.zeros((n, n))
    s_mat[rng - 1, rng] = s_mat[rng, rng - 1] = np.sqrt(rng / 2.0)
    d1 = np.zeros((n, n))
    d1[rng - 1, rng] = np.sqrt(rng / 2.0)
    d1[rng, rng - 1] = -np.sqrt(rng / 2.0)
    s2 = np.zeros((n, n))
    s2[np.arange(n), np.arange(n)] = np.arange(n) + 0.5
    rng2 = np.arange(2, n)
    s2[rng2 - 2, rng2] = s2[rng2, rng2 - 2] = np.sqrt(rng2 * (rng2 - 1.0)) / 2.0
    d2 = s2 - np.diag(2.0 * np.arange(n) + 1.0)
    return s_mat, d1, s2, d2


@dataclass(frozen=True)
class AppendixReport:
    """Closed-form spectral data and one-sided resolvent norm checks.

    estimates are sups over a grid of longitudinal momenta u of
    || Op P R0(lambda) P || computed in the Hermite basis centered at the
    fiber's own oscillator, where the truncated resolvent is exact; they
    are compressions, hence lower bounds of the true norms, and must stay
    below the stated closed-form bounds.
    """

    params: ChannelParams
    lam: float
    lambda_plus: float
    lambda_minus: float
    lambda_minus_lower_bound: float
    trace_dev: float
    det_dev: float
    estimates: dict
    bounds: dict
    passed: dict
    all_passed: bool


_SLACK = 1e-6


def appendix_norm_checks(
    params: ChannelParams,
    lam: float = 0.0,
    n_hermite: int = 60,
    m_range: int = 12,
    theta_count: int = 9,
    c: float = RELATIVE_BOUND_CONSTANT,
) -> AppendixReport:
    """Verify the closed-form resolvent bounds behind C(omega, B).

    lam >= 0 shifts the resolvent R0(lam) = (H0 + lam)^{-1}.  Checked with
    relative slack 1e-6:

        ||d_y^2 R0||                        <= c
        ||d_x^2 R0||, 2||y d_x R0||, ||y^2 R0||  <= c (1 + alpha^2) / omega^2
        ||d_x d_y R0||                      <= c sqrt((1 + alpha^2)) / omega
    """
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    lp, lm = transverse_quadratic_eigenvalues(params)
    one_a2 = 1.0 + params.alpha**2
    trace_dev = abs((lp + lm) - one_a2)
    det_dev = abs(lp * lm - params.omega**2)

    alpha = params.alpha
    sqrt_a = math.sqrt(alpha)
    s_mat, d1, s2, d2 = _ladder_matrices(n_hermite)
    eye = np.eye(n_hermite)

    thetas = np.linspace(-0.5, 0.5, theta_count)
    u_values = np.unique(
        np.concatenate([m + thetas for m in range(-m_range, m_range + 1)])
    )

    ests = {"dyy": 0.0, "dxx": 0.0, "two_y_dx": 0.0, "yy": 0.0, "dxdy": 0.0}
    for u in u_values.tolist():  # Python floats, so the estimates and flags are too
        # fiber at momentum u: oscillator centered at vc, R0 exactly diagonal
        r_diag = 1.0 / (alpha * (2.0 * np.arange(n_hermite) + 1.0) + params.beta * u * u + lam)
        vc = -params.mu * u
        y_mat = vc * eye + s_mat / sqrt_a
        y2_mat = (vc * vc) * eye + (2.0 * vc / sqrt_a) * s_mat + s2 / alpha
        ests["dyy"] = max(ests["dyy"], _op_norm(alpha * d2 * r_diag))
        ests["dxx"] = max(ests["dxx"], (u * u) * float(np.max(r_diag)))
        ests["two_y_dx"] = max(ests["two_y_dx"], 2.0 * abs(u) * _op_norm(y_mat * r_diag))
        ests["yy"] = max(ests["yy"], _op_norm(y2_mat * r_diag))
        ests["dxdy"] = max(ests["dxdy"], abs(u) * sqrt_a * _op_norm(d1 * r_diag))

    weighted = c * one_a2 / params.omega**2
    bounds = {
        "dyy": c,
        "dxx": weighted,
        "two_y_dx": weighted,
        "yy": weighted,
        "dxdy": c * math.sqrt(one_a2) / params.omega,
    }
    passed = {k: ests[k] <= bounds[k] * (1.0 + _SLACK) for k in ests}
    return AppendixReport(
        params=params,
        lam=float(lam),
        lambda_plus=lp,
        lambda_minus=lm,
        lambda_minus_lower_bound=params.omega**2 / one_a2,
        trace_dev=trace_dev,
        det_dev=det_dev,
        estimates=ests,
        bounds=bounds,
        passed=passed,
        all_passed=bool(all(passed.values()) and lm >= params.omega**2 / one_a2 - 1e-12),
    )


def _op_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))
