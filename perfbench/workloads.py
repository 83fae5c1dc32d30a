"""Seeded request lists for the two benchmark workloads.

A workload is a list of CLI requests (argv lists for
``channel_spectra.cli.main``).  Every number in it is drawn from the seed;
the program only ever sees the argv.  Draws are stratified (one value per
equal-width slice of each range, in shuffled order), and the settings that
set the amount of work (truncation, band count, theta grid, RK4 steps) are
chosen so that two seeds cost about the same.

The truncations, ceilings and tolerances are far below the CLI defaults:
at the defaults one ``gaps`` request takes about 50 s on two cores and one
criterion-4 sweep about 95 s, which does not fit a run of a few tens of
seconds.  The reduced sizes keep every code path (Cauchy probe, theta grid,
golden-section refinement, real and complex eigensolves, Hill reference,
FD oracle) and pass the probe without raising the truncation, which would
multiply the cost of one request by about ten.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("bands-2d", "hill-orbits")

# properties that optimisations key on (real even Fourier coefficients,
# complex fibers, W = 0, x-independent profile_y); BENCHMARK.json records
# their shares
PROPERTIES = ("real-even", "complex", "zero-W", "profile-y")


@dataclass(frozen=True)
class Request:
    """One CLI call plus what its checker needs to know about the inputs."""

    kind: str
    command: str
    settings: dict
    properties: frozenset = field(default_factory=frozenset)
    flags: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        args = [self.command, *self.flags]
        for key, value in self.settings.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        return args


def derived(B: float, omega: float) -> tuple[float, float, float]:
    """(alpha, beta, mu) of the channel, computed here from the definitions."""
    alpha_sq = B * B + omega * omega
    return math.sqrt(alpha_sq), omega * omega / alpha_sq, B / alpha_sq


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws, one from each equal slice of [lo, hi], in shuffled order."""
    width = (hi - lo) / n
    values = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(values)
    return [round(v, 6) for v in values]


def _cos_coeffs(amplitudes: dict[int, float]) -> dict[str, list[float]]:
    """Fourier coefficients of sum_k a_k cos(k x) in the config format."""
    out: dict[str, list[float]] = {}
    for k, a in amplitudes.items():
        out[str(k)] = [a / 2.0, 0.0]
        out[str(-k)] = [a / 2.0, 0.0]
    return out


# ---------------------------------------------------------------------------
# bands-2d

_BAND_KINDS = ("even-cosine", "non-even", "x-profile", "profile-y", "zero")


def _band_potential(kind: str, rng: random.Random, beta: float) -> tuple[dict, frozenset]:
    """A potential of the given kind with sup |W| below BAND_SHIFT * beta."""

    def amp(lo: float, hi: float) -> float:
        return round(beta * rng.uniform(lo, hi), 6)

    if kind == "even-cosine":
        coeffs = _cos_coeffs({1: amp(0.08, 0.16), 2: amp(0.02, 0.06)})
        return {"kind": "fourier_x", "coeffs": coeffs}, frozenset({"real-even"})
    if kind == "non-even":
        # c (cos x + a sin 2x): c_{+-2} = -+ i c a / 2, so the fibers are complex
        c, a = amp(0.1, 0.14), round(rng.uniform(0.3, 0.7), 6)
        coeffs = _cos_coeffs({1: c})
        coeffs["2"] = [0.0, round(-c * a / 2.0, 6)]
        coeffs["-2"] = [0.0, round(c * a / 2.0, 6)]
        return {"kind": "fourier_x", "coeffs": coeffs}, frozenset({"complex"})
    if kind == "x-profile":
        coeffs = _cos_coeffs({1: amp(0.1, 0.2)})
        profile = {"shape": "gaussian", "sigma": round(rng.uniform(1.0, 2.0), 6)}
        return (
            {"kind": "fourier_x_profile", "coeffs": coeffs, "profile": profile},
            frozenset({"real-even"}),
        )
    if kind == "profile-y":
        profile = {"shape": "gaussian", "sigma": round(rng.uniform(1.0, 2.0), 6)}
        return (
            {"kind": "profile_y", "profile": profile, "amplitude": amp(0.1, 0.2)},
            frozenset({"real-even", "profile-y"}),
        )
    return {"kind": "zero"}, frozenset({"real-even", "zero-W"})


# With W = 0 the lowest Landau level gives bands starting at alpha + beta k^2 / 4
# (k = 0, 1, 2, 3, ...: alpha, alpha + beta / 4, alpha + beta, alpha + 9 beta / 4).
# A ceiling at alpha + 1.6 beta sits at least 0.6 beta from every band start,
# and a potential with sup |W| < BAND_SHIFT * beta moves no start by more than
# that, so every request has exactly three bands and the refinement work,
# which is most of a request, does not depend on the seed.
CEILING_BETAS = 1.6
BAND_SHIFT = 0.25


def _bands_2d(rng: random.Random) -> list[Request]:
    n = len(_BAND_KINDS)
    bs = _strata(rng, n, 1.0, 4.0)
    omegas = _strata(rng, n, 3.0, 8.0)
    thetas = rng.sample([17, 33, 17, 33, 17], n)
    first = rng.randrange(2)
    out = []
    for i, kind in enumerate(_BAND_KINDS):
        command = ("gaps", "bands")[(i + first) % 2]
        alpha, beta, _ = derived(bs[i], omegas[i])
        potential, props = _band_potential(kind, rng, beta)
        settings = {
            "B": bs[i],
            "omega": omegas[i],
            "potential": potential,
            "theta_count": thetas[i],
            "n_hermite": 8,
            "ceiling": round(alpha + CEILING_BETAS * beta, 6),
            "xtol": 1e-6,
        }
        out.append(Request(f"{command}:{kind}", command, settings, props))
    out.append(_sweep(rng))
    return out


def _sweep(rng: random.Random) -> Request:
    # one ladder shaped like acceptance criterion 4 (B = 3, W = 2 cos x,
    # omega = 4, 10, 40), jittered by the seed; W is halved to keep a sweep
    # near 3 s
    a = round(rng.uniform(0.45, 0.5), 6)
    settings = {
        "B": round(rng.uniform(2.75, 3.25), 6),
        "omega_list": [round(rng.uniform(lo, hi), 6) for lo, hi in ((4.0, 4.5), (9.5, 10.5), (36.0, 40.0))],
        "potential": {"kind": "fourier_x", "coeffs": _cos_coeffs({1: 2.0 * a})},
        "theta_count": 9,
        "hill_m_max": 5,
        "n_hermite": 8,
        "target_gap_count": 1,
    }
    return Request("sweep-omega", "sweep-omega", settings, frozenset({"real-even"}))


# ---------------------------------------------------------------------------
# hill-orbits


def _hill_orbits(rng: random.Random) -> list[Request]:
    bs = iter(_strata(rng, 6, 1.0, 4.0))
    omegas = iter(_strata(rng, 6, 3.0, 8.0))
    # RK4 cost is set by t_end / dt alone; a fixed t_end keeps the middle
    # request of the list (a W = 0 orbit) at the same cost for any seed
    t_end = 10.0
    # without W the Hill bands start at alpha + k^2 / 4 (alpha + 4 and
    # alpha + 6.25 for k = 4, 5); with sup |W| <= 0.8 a ceiling at alpha + 5.1
    # keeps exactly five of them below it, so the work does not depend on
    # the seed
    B, omega = next(bs), next(omegas)
    hill = {
        "B": B,
        "omega": omega,
        "potential": {
            "kind": "fourier_x",
            "coeffs": _cos_coeffs({1: round(rng.uniform(0.4, 0.6), 6), 2: round(rng.uniform(0.0, 0.2), 6)}),
        },
        "m_max": 10,
        "theta_count": 17,
        "band_count": 6,
        "ceiling": round(derived(B, omega)[0] + 5.1, 6),
        "fd_check": True,
    }
    out = [Request("hill", "hill", hill, frozenset({"real-even"}))]
    orbit_potentials = (
        ("zero", {"kind": "zero"}, frozenset({"zero-W"})),
        (
            "bump",
            {
                "kind": "gaussian_bumps",
                "bumps": [[round(rng.uniform(0.5, 2.0), 6), 0.0, 0.0, round(rng.uniform(0.5, 1.5), 6)]],
            },
            frozenset(),
        ),
        (
            "cosine",
            {"kind": "fourier_x", "coeffs": _cos_coeffs({1: round(rng.uniform(0.5, 2.0), 6)})},
            frozenset({"real-even"}),
        ),
    )
    for name, potential, props in orbit_potentials:
        settings = {
            "B": next(bs),
            "omega": next(omegas),
            "potential": potential,
            "px0": round(rng.uniform(0.5, 1.5), 6),
            "py0": round(rng.uniform(-0.5, 0.5), 6),
            "y0": round(rng.uniform(-0.2, 0.2), 6),
            "t_end": t_end,
            "dt": 1e-3,
        }
        out.append(Request(f"classical:{name}", "classical", settings, props))
    mourre = {
        "B": next(bs),
        "omega": next(omegas),
        "potential": {
            "kind": "gaussian_bumps",
            "bumps": [[round(rng.uniform(0.01, 0.1), 6), 0.0, 0.0, round(rng.uniform(0.5, 1.5), 6)]],
        },
        "E": round(rng.uniform(1.5, 2.5), 6),
        "delta": round(rng.uniform(0.2, 0.4), 6),
        "eps": round(rng.uniform(0.2, 0.4), 6),
        "scaling": {
            "E0": 2.0,
            "delta0": round(rng.uniform(0.1, 0.3), 6),
            "eps0": round(rng.uniform(0.1, 0.3), 6),
            "omega_list": sorted(_strata(rng, 6, 2.0, 40.0)),
        },
    }
    out.append(Request("mourre", "mourre", mourre))
    out.append(Request("commutator", "commutator", {"B": next(bs), "omega": next(omegas)}, flags=("--gen-nogo",)))
    # diagnostics runs fixed-size self checks at the given B and omega; its
    # free-fiber check (16 Hermite functions) misses its 1e-8 tolerance when
    # B is large against omega (B = 3.3, omega = 3.05 fails), so it gets a
    # range where that truncation holds
    diagnostics = {"B": round(rng.uniform(1.0, 2.0), 6), "omega": round(rng.uniform(4.0, 8.0), 6)}
    out.append(Request("diagnostics", "diagnostics", diagnostics))
    return out


_MAKERS = {"bands-2d": _bands_2d, "hill-orbits": _hill_orbits}


def requests(workload: str, seed: int) -> list[Request]:
    """The request list of a workload; the same seed gives the same list."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))


def property_shares(workload: str, seed: int = 0) -> dict[str, float]:
    """Share of a workload's requests that carry each property."""
    reqs = requests(workload, seed)
    return {p: round(sum(p in r.properties for r in reqs) / len(reqs), 2) for p in PROPERTIES}


def shares_text(workload: str) -> str:
    """The property shares as BENCHMARK.json quotes them in each ``why``."""
    return "shares: " + ", ".join(f"{p} {v:g}" for p, v in property_shares(workload).items())
