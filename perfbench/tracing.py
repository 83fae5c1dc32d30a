"""Wrapper spans around the public functions of each channel_spectra module.

The tracer is installed from outside the program: for every target it
replaces each binding of the function in the package (``from .fiber import
assemble_fiber`` copies the name into ``bands``, ``cli`` and the package
root, so patching ``fiber`` alone would miss those calls) with a wrapper
that records a span.  A span holds name, start, end, parent and request id,
stays in memory and is written out by the caller at the end of the run.
A target that no longer exists is reported as absent, with the reason, and
its metrics are marked absent instead of failing the run.

Modules are the layers; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

PACKAGE = "channel_spectra"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    info: dict | None = None
    # time the tracer spent after ``end`` on this span's info; charged to
    # no layer, so it is left out of the parent's self time
    tail: float = 0.0


def _matrix_info(args, kwargs, result):
    mat = args[0] if args else kwargs.get("mat")
    entries = getattr(mat, "entries", mat)
    n = int(np.shape(entries)[0])
    # eigenvalues_fiber takes the real path when the imaginary part vanishes
    is_complex = bool(np.iscomplexobj(entries) and np.asarray(entries).imag.any())
    return {"n": n, "complex": is_complex}


def _projection_info(args, kwargs, result):
    names = ("spec", "params", "nmax", "mfourier", "order")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    spec = bound.get("spec")
    key_fn = getattr(spec, "cache_key", None)
    spec_key = key_fn() if callable(key_fn) else repr(spec)
    params = bound.get("params")
    return {
        "key": repr((spec_key, getattr(params, "alpha", None), bound.get("nmax"), bound.get("mfourier", 16), bound.get("order")))
    }


def _bands_info(args, kwargs, result):
    return {"theta_count": int(len(getattr(result, "theta_grid", ())))}


def _steps_info(args, kwargs, result):
    return {"steps": max(int(len(getattr(result, "times", ()))) - 1, 0)}


def _bytes_info(args, kwargs, result):
    try:
        return {"bytes": int(result.stat().st_size)}
    except (AttributeError, OSError):
        return {"bytes": 0}


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.name`` in the package.

    ``name`` may be ``*.method`` to wrap that method on every class of the
    module that defines it.  ``span`` may contain ``{binder}``, replaced by
    the short name of the module whose binding is wrapped.
    """

    module: str
    name: str
    span: str
    info: object = None


TARGETS = (
    Target("cli", "main", "cli.main"),
    Target("fiber", "assemble_fiber", "fiber.assemble_fiber"),
    Target("fiber", "eigenvalues_fiber", "fiber.eigenvalues_fiber", _matrix_info),
    Target("bands", "compute_bands", "bands.compute_bands", _bands_info),
    Target("bands", "detect_gaps", "bands.detect_gaps"),
    Target("bands", "gap_persistence_sweep", "bands.gap_persistence_sweep"),
    Target("numutil", "golden_section_minimize", "{binder}.refine"),
    Target("hermite", "project_potential", "hermite.project_potential", _projection_info),
    Target("hill", "hill_matrix", "hill.hill_matrix"),
    Target("hill", "hill_spectrum", "hill.hill_spectrum"),
    Target("hill", "hill_bands", "hill.hill_bands"),
    Target("hill", "fd_hill_eigenvalues", "hill.fd_hill_eigenvalues"),
    Target("hill", "h00_gaps", "hill.h00_gaps"),
    Target("classical", "integrate", "classical.integrate", _steps_info),
    Target("classical", "closed_form_trajectory", "classical.closed_form_trajectory"),
    Target("classical", "mourre_observable", "classical.mourre_observable"),
    Target("mourre", "evaluate_certificate", "mourre.evaluate_certificate"),
    Target("mourre", "scaling_sweep", "mourre.scaling_sweep"),
    Target("mourre", "appendix_norm_checks", "mourre.appendix_norm_checks"),
    Target("quadratic", "gen_nogo_scan", "quadratic.gen_nogo_scan"),
    Target("quadratic", "commutator_iA", "quadratic.commutator_iA"),
    Target("channel", "*.norm_estimates", "channel.norm_estimates"),
    Target("output", "write_csv", "output.write_csv", _bytes_info),
    Target("output", "write_json", "output.write_json", _bytes_info),
    Target("output", "write_band_svg", "output.write_band_svg", _bytes_info),
)


class Tracer:
    """Records spans while installed; ``with tracer.installed(): ...``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self.installed_spans: set[str] = set()
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, span_name, info_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(span_name, clock(), 0.0, stack[-1] if stack else None, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if info_fn is not None:
                span.info = info_fn(args, kwargs, result)
                span.tail = clock() - span.end
            return result

        wrapper.__span__ = span_name
        return wrapper

    def _bindings(self, func):
        """(owner, attribute) pairs in the package that hold ``func``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is func:
                    yield mod, attr

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{target.module}")
            except ImportError as exc:
                self.absent[target.span] = f"module {target.module} cannot be imported: {exc}"
                continue
            if target.name.startswith("*."):
                method = target.name[2:]
                owners = [
                    cls
                    for cls in vars(module).values()
                    if inspect.isclass(cls) and cls.__module__ == module.__name__ and method in vars(cls)
                ]
                if not owners:
                    self.absent[target.span] = f"no class in {target.module} defines {method}"
                for cls in owners:
                    self._patch(cls, method, self._wrap(vars(cls)[method], target.span, target.info))
                continue
            func = getattr(module, target.name, None)
            if not callable(func):
                self.absent[target.span] = f"{target.module}.{target.name} no longer exists"
                continue
            for owner, attr in self._bindings(func):
                binder = owner.__name__.rpartition(".")[2]
                if binder == PACKAGE:
                    binder = target.module
                span = target.span.format(binder=binder)
                self._patch(owner, attr, self._wrap(func, span, target.info))

    def _patch(self, owner, attr, wrapper) -> None:
        self.installed_spans.add(wrapper.__span__)
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# analysis


def _children_map(spans: list[Span]) -> dict[int | None, list[int]]:
    kids: dict[int | None, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= (s.end - s.start) + s.tail
    return out


def _ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p is not None:
        yield p
        p = spans[p].parent


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers from one traced run (see BENCHMARK.json)."""
    dur = [s.end - s.start for s in spans]
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return float(sum(dur[i] for i in by_name.get(name, ())))

    def under(i, name):
        return any(spans[a].name == name for a in _ancestors(spans, i))

    m: dict[str, float] = {}
    for name in (
        "fiber.assemble_fiber",
        "fiber.eigenvalues_fiber",
        "hermite.project_potential",
        "hill.hill_matrix",
        "hill.hill_spectrum",
        "hill.fd_hill_eigenvalues",
        "channel.norm_estimates",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    for name in (
        "bands.compute_bands",
        "bands.gap_persistence_sweep",
        "hill.h00_gaps",
        "mourre.evaluate_certificate",
        "mourre.scaling_sweep",
        "mourre.appendix_norm_checks",
        "quadratic.gen_nogo_scan",
        "quadratic.commutator_iA",
        "output.write_csv",
        "output.write_json",
        "output.write_band_svg",
        "classical.integrate",
    ):
        m[f"{name}.s"] = total(name)

    eig = by_name.get("fiber.eigenvalues_fiber", [])
    infos = [spans[i].info or {} for i in eig]
    m["fiber.eigenvalues_fiber.dim_max"] = max((x.get("n", 0) for x in infos), default=0)
    # model count for dense Hermitian tridiagonal reduction: 4/3 n^3 real
    # flops, four times that in complex arithmetic
    m["fiber.eigenvalues_fiber.flops"] = float(
        sum(4.0 / 3.0 * x.get("n", 0) ** 3 * (4.0 if x.get("complex") else 1.0) for x in infos)
    )
    m["fiber.eigenvalues_fiber.complex_share"] = (
        sum(bool(x.get("complex")) for x in infos) / len(infos) if infos else 0.0
    )

    # bands phases: refine solves sit under a golden-section span; the grid is
    # the last theta_count non-refine solves of each compute_bands call; the
    # probe is everything else inside compute_bands
    kids = _children_map(spans)
    grid_solves = probe_solves = refine_solves = 0
    grid_s = 0.0
    for cb in by_name.get("bands.compute_bands", []):
        subtree = []
        todo = list(kids.get(cb, ()))
        while todo:
            i = todo.pop()
            subtree.append(i)
            todo.extend(kids.get(i, ()))
        subtree.sort(key=lambda i: spans[i].start)
        solves = [i for i in subtree if spans[i].name == "fiber.eigenvalues_fiber"]
        plain = [i for i in solves if not under(i, "bands.refine")]
        refine_solves += len(solves) - len(plain)
        count = min((spans[cb].info or {}).get("theta_count", 0), len(plain))
        grid = plain[len(plain) - count :] if count else []
        grid_solves += len(grid)
        probe_solves += len(plain) - len(grid)
        if grid:
            first = grid[0]
            assembles = [
                i
                for i in subtree
                if spans[i].name == "fiber.assemble_fiber" and spans[i].end <= spans[first].start
            ]
            start = spans[assembles[-1]].start if assembles else spans[first].start
            grid_s += spans[grid[-1]].end - start
    refine_s = total("bands.refine")
    m["bands.probe.solves"] = probe_solves
    m["bands.grid.solves"] = grid_solves
    m["bands.refine.solves"] = refine_solves
    m["bands.grid.s"] = grid_s
    m["bands.refine.s"] = refine_s
    m["bands.probe.s"] = max(total("bands.compute_bands") - grid_s - refine_s, 0.0)
    m["bands.refine.solves_per_extremum"] = (
        refine_solves / calls("bands.refine") if calls("bands.refine") else 0.0
    )

    proj = by_name.get("hermite.project_potential", [])
    distinct = len({(spans[i].request, (spans[i].info or {}).get("key")) for i in proj})
    m["hermite.project_potential.hit_ratio"] = 1.0 - distinct / len(proj) if proj else 0.0

    m["hill.refine.solves"] = sum(
        1 for i in by_name.get("hill.hill_spectrum", []) if under(i, "hill.refine")
    )

    steps = sum((spans[i].info or {}).get("steps", 0) for i in by_name.get("classical.integrate", []))
    m["classical.integrate.steps"] = steps
    m["classical.integrate.us_per_step"] = total("classical.integrate") / steps * 1e6 if steps else 0.0

    m["output.bytes"] = sum(
        (spans[i].info or {}).get("bytes", 0)
        for name in ("output.write_csv", "output.write_json", "output.write_band_svg")
        for i in by_name.get(name, [])
    )

    m["cli.main.self_s"] = float(sum(selfs[i] for i in by_name.get("cli.main", [])))
    for module in LAYERS:
        m[f"{module}.self_s"] = float(
            sum(selfs[i] for i, s in enumerate(spans) if s.name.partition(".")[0] == module)
        )
    return m


# modules whose self time is reported; cli's is cli.main.self_s
LAYERS = ("bands", "fiber", "hermite", "hill", "classical", "mourre", "quadratic", "channel", "output")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".calls", ".solves", ".steps", ".solves_per_extremum")):
        return "count"
    if metric.endswith((".complex_share", ".hit_ratio")):
        return "ratio"
    if metric.endswith(".dim_max"):
        return "rows"
    if metric.endswith(".flops"):
        return "flop"
    if metric.endswith(".us_per_step"):
        return "us"
    if metric.endswith(".bytes"):
        return "bytes"
    return "s"

# spans behind the metrics not named "<span>.<quantity>"; every other metric
# comes from the span its name gives without the last component
DERIVED_SOURCES = {
    "bands.probe": ("bands.compute_bands", "fiber.eigenvalues_fiber"),
    "bands.grid": ("bands.compute_bands", "fiber.eigenvalues_fiber"),
    "bands.refine.solves": ("bands.refine", "fiber.eigenvalues_fiber"),
    "bands.refine.solves_per_extremum": ("bands.refine", "fiber.eigenvalues_fiber"),
    "hill.refine.solves": ("hill.refine", "hill.hill_spectrum"),
    "output.bytes": ("output.write_csv", "output.write_json", "output.write_band_svg"),
}


def _sources(metric: str) -> tuple[str, ...]:
    for prefix, spans in DERIVED_SOURCES.items():
        if metric == prefix or metric.startswith(prefix + "."):
            return spans
    return (metric.rpartition(".")[0],)


def absent_metrics(metrics, installed: set[str], reasons: dict[str, str]) -> dict[str, str]:
    """Metric name -> reason, for every metric fed by a span never installed.

    Only spans that some target can produce count; module self times and
    the ``trace.*`` totals are never absent.
    """
    spans = {t.span for t in TARGETS}
    out: dict[str, str] = {}
    for metric in metrics:
        for span in _sources(metric):
            template = "{binder}." + span.partition(".")[2]
            if span in installed or not {span, template} & spans:
                continue
            out[metric] = reasons.get(span) or reasons.get(template) or f"{span} is not bound in any module"
            break
    return out
