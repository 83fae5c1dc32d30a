"""Physical parameters and potential descriptors for the magnetic channel.

The model Hamiltonian is

    H = -d_y^2 + (-i d_x + B y)^2 + omega^2 y^2 + W(x, y)

with field strength B >= 0 and confinement omega > 0.  Everything downstream
is phrased through the derived constants

    alpha = sqrt(B^2 + omega^2),   beta = omega^2 / alpha^2,   mu = B / alpha^2,

so that beta + B*mu = 1 and the unperturbed dispersion in the longitudinal
momentum p is alpha*(2n+1) + beta*p^2.

Periodic potentials have the period fixed to 2*pi in x.  A channel with
period l rescales onto this one via (x, y) -> (l x / (2 pi), l y / (2 pi)),
which maps (B, omega, W) -> (c B, c omega, c^2 W) with c = (2 pi / l)^2; only
the 2*pi normalization is implemented.  Fourier convention throughout:

    W(x) = sum_k c_k exp(i k x),       c_{-k} = conj(c_k)  for real W.

Potential kinds split into x-periodic ones (usable by the Bloch fiber and
band modules) and localized ones (classical scattering, transport
certificates).  The x-periodic ones are the separable type
SeparableFourierPotential W = f(x) g(y), which the config kinds
``fourier_x``, ``fourier_x_profile`` and ``profile_y`` spell, and its
subclass ZeroPotential (``zero``, no harmonics).  All descriptor types are
immutable after construction and safe to share across threads or worker
processes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .schema import ConfigError, Key, OneOf, parse

__all__ = [
    "ChannelParams",
    "derive_params",
    "Potential",
    "ZeroPotential",
    "SeparableFourierPotential",
    "GaussianBumpPotential",
    "GridSampledPotential",
    "GaussianProfile",
    "PolynomialProfile",
    "PotentialBounds",
    "POTENTIAL",
    "PERIODIC_POTENTIAL",
    "potential_from_dict",
]


@dataclass(frozen=True)
class ChannelParams:
    """Field strength, confinement and the derived channel constants."""

    B: float
    omega: float
    alpha: float
    beta: float
    mu: float


def derive_params(B: float, omega: float) -> ChannelParams:
    """Derive (alpha, beta, mu) from the field B >= 0 and confinement omega > 0.

    alpha = sqrt(B^2 + omega^2) is half the cyclotron frequency of the
    confined orbit, beta = omega^2/alpha^2 the dispersion flattening factor
    and mu = B/alpha^2 the guiding-center weight.
    """
    B = float(B)
    omega = float(omega)
    if not (math.isfinite(B) and math.isfinite(omega)):
        raise ValueError("B and omega must be finite")
    if B < 0.0:
        raise ValueError("B must be >= 0")
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    alpha_sq = B * B + omega * omega
    return ChannelParams(
        B=B,
        omega=omega,
        alpha=math.sqrt(alpha_sq),
        beta=omega * omega / alpha_sq,
        mu=B / alpha_sq,
    )


# ---------------------------------------------------------------------------
# transverse profiles


@dataclass(frozen=True)
class GaussianProfile:
    """g(y) = exp(-y^2 / (2 sigma^2))."""

    sigma: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(-(y * y) / (2.0 * self.sigma**2))

    def derivative(self, y):
        return -(y / self.sigma**2) * self(y)

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def is_even(self) -> bool:
        return True

    @property
    def bounded_second_derivative(self) -> bool:
        return True

    def sup_abs(self) -> float:
        return 1.0


@dataclass(frozen=True)
class PolynomialProfile:
    """g(y) = sum_j coeffs[j] * y^j.  Unbounded in y unless constant.

    The config shape ``constant`` with value v is the one-coefficient
    profile (v,).
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("polynomial profile needs at least one coefficient")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.polynomial.polynomial.polyval(y, np.asarray(self.coeffs))

    def derivative(self, y):
        der = np.polynomial.polynomial.polyder(np.asarray(self.coeffs))
        return np.polynomial.polynomial.polyval(y, der)

    @property
    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[1:])

    @property
    def is_even(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[1::2])

    @property
    def bounded_second_derivative(self) -> bool:
        """g'' is bounded exactly when the degree is at most 2."""
        return all(c == 0.0 for c in self.coeffs[3:])

    def sup_abs(self) -> float:
        return abs(self.coeffs[0]) if self.is_constant else math.inf


# ---------------------------------------------------------------------------
# norm estimates


@dataclass(frozen=True)
class PotentialBounds:
    """What the transport certificate reads of W.

    w0       : certified upper bound on ||W||_inf
    w0_prime : certified upper bound on ||x dW/dx||_inf (infinite for
               potentials whose x-dependence does not decay, e.g.
               nonconstant periodic ones)
    second_derivatives_bounded : whether W_xx, W_yy, W_xy and x^2 W_xx are
               all bounded, which lets the certificate conclude absolute
               continuity rather than only the absence of eigenvalues
    """

    w0: float
    w0_prime: float
    second_derivatives_bounded: bool


def _certified_grid_sup(values: np.ndarray, *steps: float) -> float:
    """Grid maximum of |values| padded by a finite-difference Lipschitz term
    L*step/2 for each axis, ``steps`` giving their grid steps.

    With L estimated from first differences this is an upper bound up to
    curvature of order step^2; inputs are sampled densely enough that this
    is far below the quantities bounded.
    """
    lipschitz = [np.max(np.abs(np.diff(values, axis=axis))) / step for axis, step in enumerate(steps)]
    return float(np.max(np.abs(values)) + 0.5 * sum(lip * step for lip, step in zip(lipschitz, steps)))


# ---------------------------------------------------------------------------
# potential kinds


class Potential:
    """Base class for potential descriptors.

    Subclasses provide vectorized ``evaluate``, an analytic or
    finite-difference ``gradient`` and ``norm_estimates``: certified sup
    bounds on W and x dW/dx, and whether the second derivatives of W are
    bounded.  Instances are immutable; the x-periodic ones are exactly the
    SeparableFourierPotential ones.
    """

    kind: ClassVar[str] = ""

    def evaluate(self, x, y):
        raise NotImplementedError

    def __call__(self, x, y):
        return self.evaluate(x, y)

    def gradient(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(dW/dx, dW/dy)."""
        raise NotImplementedError

    def norm_estimates(self) -> PotentialBounds:
        raise NotImplementedError


def _as_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    xb, yb = np.broadcast_arrays(x, y)
    return xb, yb, scalar


def _ret(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def _ones(x, y):
    """1.0 at a point given by floats, else ones of the broadcast shape of x and y.

    The analytic gradients compute on their inputs as given.  Multiplying by
    this broadcasts a component that depends on one coordinate only, or
    builds an identically zero one, without changing a bit of it.
    """
    if isinstance(x, float) and isinstance(y, float):
        return 1.0
    return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))


def _canonical_coeffs(coeffs: Mapping[int, complex]) -> tuple[tuple[int, complex], ...]:
    """Validate c_{-k} = conj(c_k) and return a sorted, conjugate-exact tuple."""
    cleaned: dict[int, complex] = {}
    for k, v in coeffs.items():
        k = int(k)
        v = complex(v)
        if not cmath.isfinite(v):
            raise ValueError(f"Fourier coefficient at k={k} must be finite")
        if v != 0.0:
            cleaned[k] = v
    scale = max((abs(v) for v in cleaned.values()), default=0.0)
    tol = 1e-12 * max(scale, 1.0)
    for k, v in cleaned.items():
        other = cleaned.get(-k, 0.0)
        if abs(other - v.conjugate()) > tol:
            raise ValueError(f"Fourier coefficients must satisfy c_-k = conj(c_k); violated at k={k}")
    # symmetrize exactly so evaluation is real to round-off
    out: dict[int, complex] = {}
    for k in sorted(cleaned):
        if k < 0:
            continue
        if k == 0:
            out[0] = complex(cleaned[0].real, 0.0)
        else:
            ck = 0.5 * (cleaned[k] + cleaned.get(-k, cleaned[k].conjugate()).conjugate())
            out[k] = ck
            out[-k] = ck.conjugate()
    return tuple(sorted(out.items()))


def _fourier_eval(coeffs: tuple[tuple[int, complex], ...], x, out=0.0):
    """f(x) = sum_k c_k e^{ikx} added term by term onto ``out``."""
    for k, c in coeffs:
        if k == 0:
            out = out + c.real
        elif k > 0:
            out = out + 2.0 * (c.real * np.cos(k * x) - c.imag * np.sin(k * x))
    return out


def _fourier_eval_deriv(coeffs, x, out=0.0):
    """f'(x) added term by term onto ``out``."""
    for k, c in coeffs:
        if k > 0:
            out = out + 2.0 * k * (-c.real * np.sin(k * x) - c.imag * np.cos(k * x))
    return out


def _fourier_sup(coeffs) -> float:
    """sup |f| for f(x) = sum c_k e^{ikx}.

    Single-harmonic profiles (optionally with a constant term) admit the
    closed form |c_0| + 2|c_k|; otherwise a padded grid maximum is used.
    """
    nonzero = [(k, c) for k, c in coeffs if k > 0]
    c0 = next((c.real for k, c in coeffs if k == 0), 0.0)
    if not nonzero:
        return abs(c0)
    if len(nonzero) == 1:
        return abs(c0) + 2.0 * abs(nonzero[0][1])
    kmax = max(k for k, _ in nonzero)
    n = max(4096, 64 * kmax)
    x = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return _certified_grid_sup(_fourier_eval(coeffs, x), 2.0 * math.pi / n)


def _times(a: float, b: float) -> float:
    """a * b for a product of sup bounds: 0 when either factor is 0.

    A factor that vanishes identically vanishes the product, even against
    an unbounded one (a polynomial profile has sup |g| = inf).
    """
    return 0.0 if a == 0.0 or b == 0.0 else a * b


@dataclass(frozen=True)
class SeparableFourierPotential(Potential):
    """W(x, y) = f(x) g(y) with f a 2*pi-periodic Fourier sum and g a profile.

    The one x-periodic type.  The config kinds ``fourier_x`` (g = 1),
    ``fourier_x_profile`` and ``profile_y`` (f = amplitude) all build it,
    and ``zero`` its subclass ZeroPotential (no harmonics, g = 1).
    """

    coeffs: tuple[tuple[int, complex], ...]
    profile: GaussianProfile | PolynomialProfile
    kind: ClassVar[str] = "fourier_x_profile"

    def __init__(self, coeffs: Mapping[int, complex], profile=PolynomialProfile((1.0,))) -> None:
        object.__setattr__(self, "coeffs", _canonical_coeffs(coeffs))
        object.__setattr__(self, "profile", profile)
        # g itself when g is constant: the gradient then skips g and g' = 0
        object.__setattr__(self, "_g", float(profile(0.0)) if profile.is_constant else None)

    @classmethod
    def from_cosines(cls, amplitudes: Mapping[int, float]) -> "SeparableFourierPotential":
        """Build sum_k a_k cos(k x) (k >= 0); a_0 is the constant term."""
        coeffs: dict[int, complex] = {}
        for k, a in amplitudes.items():
            k = int(k)
            if k == 0:
                coeffs[0] = complex(a)
            elif k > 0:
                coeffs[k] = complex(a) / 2.0
                coeffs[-k] = complex(a) / 2.0
            else:
                raise ValueError("cosine harmonics must have k >= 0")
        return cls(coeffs)

    def evaluate(self, x, y):
        xb, yb, scalar = _as_xy(x, y)
        return _ret(_fourier_eval(self.coeffs, xb, np.zeros_like(xb)) * self.profile(yb), scalar)

    def gradient(self, x, y):
        zero = _ones(x, y) * 0.0
        if self._g is not None:
            return _fourier_eval_deriv(self.coeffs, x, zero) * self._g, zero
        return (
            _fourier_eval_deriv(self.coeffs, x, zero) * self.profile(y),
            _fourier_eval(self.coeffs, x, zero) * self.profile.derivative(y),
        )

    def norm_estimates(self) -> PotentialBounds:
        fsup = _fourier_sup(self.coeffs)
        w0 = _times(fsup, self.profile.sup_abs())
        # a nonconstant periodic f makes x dW/dx and x^2 W_xx unbounded unless W = 0
        if any(k != 0 for k, _ in self.coeffs) and w0 > 0:
            return PotentialBounds(w0, math.inf, False)
        # otherwise f'' g = 0 and f' g' = 0, and W_yy = f g'' is bounded when f = 0 or g'' is
        return PotentialBounds(w0, 0.0, fsup == 0.0 or self.profile.bounded_second_derivative)


class ZeroPotential(SeparableFourierPotential):
    """W = 0, the free channel: the separable potential with no harmonics
    and g = 1, whose methods give zeros and the bounds (0, 0, True)."""

    kind: ClassVar[str] = "zero"

    def __init__(self) -> None:
        super().__init__({})


@dataclass(frozen=True)
class _Bump:
    amplitude: float
    x0: float
    y0: float
    width: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.x0, self.y0))):
            raise ValueError("bump amplitude and center must be finite")
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError("bump width must be positive and finite")


def _as_bump(b) -> _Bump:
    if isinstance(b, _Bump):
        return b
    if len(b) != 4:
        raise ValueError(f"a bump is [amplitude, x0, y0, width], got {list(b)!r}")
    return _Bump(*map(float, b))


@dataclass(frozen=True)
class GaussianBumpPotential(Potential):
    """Sum of isotropic Gaussian bumps a * exp(-((x-x0)^2+(y-y0)^2)/(2 s^2)).

    Localized in both directions; not periodic in x, so usable for classical
    scattering and transport certificates but rejected by the Bloch modules.
    """

    bumps: tuple[_Bump, ...]
    kind: ClassVar[str] = "gaussian_bumps"

    def __init__(self, bumps: Iterable[Sequence[float]]):
        parsed = tuple(map(_as_bump, bumps))
        if not parsed:
            raise ValueError("need at least one bump")
        object.__setattr__(self, "bumps", parsed)

    def evaluate(self, x, y):
        xb, yb, scalar = _as_xy(x, y)
        out = np.zeros_like(xb)
        for b in self.bumps:
            # d * d, not d ** 2: C pow rounds a float differently from an array
            dx, dy = xb - b.x0, yb - b.y0
            out = out + b.amplitude * np.exp(-(dx * dx + dy * dy) / (2.0 * b.width**2))
        return _ret(out, scalar)

    def gradient(self, x, y):
        wx = wy = 0.0
        for b in self.bumps:
            dx, dy = x - b.x0, y - b.y0
            g = b.amplitude * np.exp(-(dx * dx + dy * dy) / (2.0 * b.width**2))
            wx = wx - dx / b.width**2 * g
            wy = wy - dy / b.width**2 * g
        return wx, wy

    def _box(self) -> tuple[float, float, float, float]:
        # 10-sigma box: boundary values are below 2e-22 of the amplitudes
        pad = 10.0 * max(b.width for b in self.bumps)
        xs = [b.x0 for b in self.bumps]
        ys = [b.y0 for b in self.bumps]
        return min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad

    def norm_estimates(self) -> PotentialBounds:
        # a sum of Gaussians has bounded derivatives of every order, x-weighted too
        if len(self.bumps) == 1 and self.bumps[0].x0 == 0.0:
            a = abs(self.bumps[0].amplitude)
            # |x dW/dx| = a * u^2 exp(-u^2/2) with u = x/s, peak 2/e
            return PotentialBounds(a, a * 2.0 / math.e, True)
        return PotentialBounds(_grid_sup_weighted(self, False), _grid_sup_weighted(self, True), True)


def _grid_sup_weighted(pot: GaussianBumpPotential, x_derivative: bool) -> float:
    """Padded grid sup of |W|, or of |x dW/dx| with ``x_derivative``, over a
    box containing all bumps.

    The 10-sigma box makes the truncated tail negligible against the interior
    maximum for the Gaussian kinds this is used with.
    """
    xlo, xhi, ylo, yhi = pot._box()
    nx = max(512, int((xhi - xlo) / min(b.width for b in pot.bumps) * 24))
    ny = max(128, int((yhi - ylo) / min(b.width for b in pot.bumps) * 12))
    nx = min(nx, 4096)
    ny = min(ny, 1024)
    xg = np.linspace(xlo, xhi, nx)
    yg = np.linspace(ylo, yhi, ny)
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    vals = X * pot.gradient(X, Y)[0] if x_derivative else pot.evaluate(X, Y)
    return _certified_grid_sup(vals, xg[1] - xg[0], yg[1] - yg[0])


class GridSampledPotential(Potential):
    """Bilinear interpolation of tabulated samples on a rectangular grid.

    Outside the covered rectangle the potential is 0 (localized convention).
    """

    kind: ClassVar[str] = "grid"

    def __init__(self, x: Sequence[float], y: Sequence[float], values: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or values.shape != (x.size, y.size):
            raise ValueError("values must have shape (len(x), len(y))")
        if x.size < 2 or y.size < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        for arr in (x, y, values):
            arr.setflags(write=False)
        self.x = x
        self.y = y
        self.values = values
        from scipy.interpolate import RegularGridInterpolator

        self._interp = RegularGridInterpolator(
            (x, y), values, method="linear", bounds_error=False, fill_value=0.0
        )

    def evaluate(self, x, y):
        xb, yb, scalar = _as_xy(x, y)
        pts = np.stack([xb.ravel(), yb.ravel()], axis=-1)
        out = self._interp(pts).reshape(xb.shape)
        return _ret(out, scalar)

    def gradient(self, x, y):
        xb, yb, _ = _as_xy(x, y)
        hx = float(np.min(np.diff(self.x))) * 0.5
        hy = float(np.min(np.diff(self.y))) * 0.5
        wx = (self.evaluate(xb + hx, yb) - self.evaluate(xb - hx, yb)) / (2.0 * hx)
        wy = (self.evaluate(xb, yb + hy) - self.evaluate(xb, yb - hy)) / (2.0 * hy)
        return wx, wy

    def norm_estimates(self) -> PotentialBounds:
        # a bilinear interpolant attains its sup at the nodes
        w0 = float(np.max(np.abs(self.values)))
        dx = np.diff(self.x)[:, None]
        slopes = np.abs(np.diff(self.values, axis=0)) / dx
        xedge = np.maximum(np.abs(self.x[:-1]), np.abs(self.x[1:]))[:, None]
        # the x-slope varies linearly in y inside a cell, so cell sup is at a y-edge
        cell_slope = np.maximum(slopes[:, :-1], slopes[:, 1:])
        # piecewise-bilinear data has no classical second derivatives
        return PotentialBounds(w0, float(np.max(xedge * cell_slope)), False)

    def __repr__(self) -> str:
        return f"GridSampledPotential(nx={self.x.size}, ny={self.y.size})"


# ---------------------------------------------------------------------------
# config: the schema of a potential dict, one constructor argument
# per key (see schema.py)


def _fourier_coeffs(value, where: str) -> dict[str, list[float]]:
    """Harmonic k -> c_k as [re, im]; a plain number is taken as [re, 0]."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be an object")
    out = {}
    for k, c in value.items():
        try:
            k = int(str(k))
        except ValueError:
            raise ConfigError(f"{where} keys must be integers, got {k!r}") from None
        pair = parse(list[float], c if isinstance(c, list) else [c, 0.0], f"{where}.{k}")
        if len(pair) != 2:
            raise ConfigError(f"{where}.{k} must be [re, im]")
        out[str(k)] = pair
    return out


_COEFFS = Key(_fourier_coeffs)
_SHAPES: dict[str, tuple[Callable, dict]] = {
    "constant": (lambda value: PolynomialProfile((value,)), {"value": Key(float, 1.0)}),
    "gaussian": (GaussianProfile, {"sigma": Key(float, 1.0, gt=0.0)}),
    "polynomial": (PolynomialProfile, {"coeffs": Key(list[float])}),
}
_PROFILE = Key(OneOf("shape", {shape: keys for shape, (_, keys) in _SHAPES.items()}))
_KINDS: dict[str, tuple[type, dict]] = {
    "zero": (ZeroPotential, {}),
    "fourier_x": (SeparableFourierPotential, {"coeffs": _COEFFS}),
    "fourier_x_profile": (SeparableFourierPotential, {"coeffs": _COEFFS, "profile": _PROFILE}),
    "profile_y": (SeparableFourierPotential, {"profile": _PROFILE, "amplitude": Key(float, 1.0)}),
    "gaussian_bumps": (GaussianBumpPotential, {"bumps": Key(list[list[float]])}),
    "grid": (
        GridSampledPotential,
        {"x": Key(list[float]), "y": Key(list[float]), "values": Key(list[list[float]])},
    ),
}
POTENTIAL = OneOf("kind", {kind: keys for kind, (_, keys) in _KINDS.items()})
PERIODIC_POTENTIAL = OneOf(
    "kind", {kind: keys for kind, (cls, keys) in _KINDS.items() if issubclass(cls, SeparableFourierPotential)}
)


def potential_from_dict(d: Mapping) -> Potential:
    """Build a potential from its config dict.

    The dict is checked against POTENTIAL first: an unknown kind or key, a
    value of the wrong type or a non-finite number raises ConfigError.
    """
    args = parse(POTENTIAL, d, "potential")
    cls, _ = _KINDS[args.pop("kind")]
    if "coeffs" in args:
        args["coeffs"] = {int(k): complex(*c) for k, c in args["coeffs"].items()}
    if "amplitude" in args:
        args["coeffs"] = {0: args.pop("amplitude")}
    if "profile" in args:
        shape = args["profile"].pop("shape")
        args["profile"] = _SHAPES[shape][0](**args["profile"])
    return cls(**args)
