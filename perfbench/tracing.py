"""In-memory span tracing of gardner5's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper in
every gardner5 module namespace that binds it.  `from .breather import
eval_rational` gives `experiment` and `residuals` their own name for the
function, so patching only `gardner5.breather` would miss their calls.

`experiment.run_scan` runs its rows on a ThreadPoolExecutor, whose workers do
not inherit the submitting thread's contextvars.  The tracer therefore also
swaps `gardner5.experiment.ThreadPoolExecutor` for a subclass that hands each
task the span that submitted it, so worker spans have `run_scan` as parent.

Spans stay in memory; `spans_to_json` writes them out once the run is over,
and `self_times` derives each span's self time from them.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import gardner5
from gardner5 import breather, cli, experiment, fourier, residuals, solver

MODULES = (gardner5, breather, fourier, residuals, solver, experiment, cli)

# the scan rows reported one by one: the headline scan's alphas
ROW_ALPHAS = (8, 16, 32, 64)


def _steps(args, kwargs):
    # the solver's own rule: nsteps = max(1, round(t_end / dt)), 0 if t_end = 0
    config = args[2] if len(args) > 2 else kwargs["config"]
    if config.t_end == 0.0 or config.dt is None:
        return {"steps": 0}
    return {"steps": max(1, int(round(config.t_end / config.dt)))}


def _union_points(args, kwargs):
    """Points of the zero-filled union lattice, sized as fourier._place_on_union does.

    `covered_points` are the lattice points inside either window: both
    windows' points when they are disjoint, fewer when they overlap.  Calls
    on one shared grid, or whose union exceeds max_union_points, build no
    union lattice and count nothing.
    """
    a, b = args[0].grid, args[1].grid
    max_points = args[3] if len(args) > 3 else kwargs.get("max_union_points", 2**22)
    if (a.points == b.points and abs(a.length - b.length) <= 1e-12 * a.length
            and abs(a.center - b.center) <= 1e-9 * max(1.0, abs(a.center))):
        return {"union_points": 0, "covered_points": 0}
    k = round((b.left - a.left) / a.spacing)
    n = max(a.points, k + b.points) - min(0, k)
    n += n % 2
    if n > max_points:
        return {"union_points": 0, "covered_points": 0}
    shared = max(0, min(a.points, k + b.points) - max(0, k))
    return {"union_points": n, "covered_points": a.points + b.points - shared}


# traced function -> tagger(args, kwargs) giving the span's work counters
TRACED = {
    breather.eval_rational: lambda a, k: {"points": int(getattr(a[2], "size", 1))},
    breather.eval_arctan_derivative: None,
    breather.eval_approx: None,
    fourier.derivative: None,
    fourier.sobolev_norm: lambda a, k: {"points": a[0].grid.points},
    fourier.window_union_distance: _union_points,
    fourier.window_union_inner: None,
    residuals.pde_residual: None,
    residuals.elliptic_residual: None,
    residuals.mkdv5_residual: None,
    solver.evolve: _steps,
    solver.stable_time_step: None,
    solver.conserved_diagnostics: None,
    experiment.run_scan: None,
    experiment.measure_pair: lambda a, k: {"alpha": float(a[1])},
    experiment.scan_to_csv: None,
    cli.main: None,
}


def span_name(fn) -> str:
    """`breather.eval_rational` for gardner5.breather.eval_rational."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    tags: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._current = contextvars.ContextVar("gardner5_span", default=None)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, tagger):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._lock:
                sid = next(self._ids)
            parent = self._current.get()
            token = self._current.set(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                tags = tagger(args, kwargs) if tagger else {}
                with self._lock:
                    self.spans.append(Span(sid, name, start, end, parent,
                                           threading.get_ident(), tags))

        return traced

    def _linked_executor(self):
        current = self._current

        class LinkedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = current.get()

                def run():
                    token = current.set(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        current.reset(token)

                return super().submit(run)

        return LinkedExecutor

    def _set(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for fn, tagger in TRACED.items():
            wrapped = self._wrap(fn, tagger)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapped)
        self._set(experiment, "ThreadPoolExecutor", self._linked_executor())

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children of one span may overlap (rows run on parallel threads), so the
    covered part is the length of the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def spans_to_json(spans) -> list[dict]:
    return [asdict(s) for s in spans]


def layer_metrics(spans, units: int) -> dict[str, float]:
    """Per-layer metrics per unit of work, from the spans of `units` traced units."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    tags: Counter = Counter()       # (span name, tag) -> sum over spans
    rows: Counter = Counter()       # alpha -> measure_pair seconds
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        for key, value in s.tags.items():
            tags[s.name, key] += value
        if s.name == "experiment.measure_pair":
            rows[s.tags["alpha"]] += s.end - s.start

    def ratio(num, den):
        return num / den if den else 0.0

    n = max(units, 1)
    union = tags["fourier.window_union_distance", "union_points"]
    steps = tags["solver.evolve", "steps"]
    out = {
        "breather.eval_rational.calls": calls["breather.eval_rational"] / n,
        "breather.eval_rational.s": total["breather.eval_rational"] / n,
        "breather.eval_rational.ns_per_point": 1e9 * ratio(
            total["breather.eval_rational"], tags["breather.eval_rational", "points"]),
        "breather.eval_arctan_derivative.s": total["breather.eval_arctan_derivative"] / n,
        "breather.eval_approx.s": total["breather.eval_approx"] / n,
        "fourier.derivative.calls": calls["fourier.derivative"] / n,
        "fourier.derivative.s": total["fourier.derivative"] / n,
        "fourier.sobolev_norm.calls": calls["fourier.sobolev_norm"] / n,
        "fourier.sobolev_norm.s": total["fourier.sobolev_norm"] / n,
        "fourier.sobolev_norm.points": tags["fourier.sobolev_norm", "points"] / n,
        "fourier.window_union_distance.s": total["fourier.window_union_distance"] / n,
        "fourier.window_union_distance.union_points": union / n,
        "fourier.window_union_distance.zero_fill_frac": 1.0 - ratio(
            tags["fourier.window_union_distance", "covered_points"], union)
            if union else 0.0,
        "fourier.window_union_inner.s": total["fourier.window_union_inner"] / n,
        "residuals.pde_residual.self_s": own["residuals.pde_residual"] / n,
        "residuals.elliptic_residual.self_s": own["residuals.elliptic_residual"] / n,
        "residuals.mkdv5_residual.s": total["residuals.mkdv5_residual"] / n,
        "solver.evolve.self_s": own["solver.evolve"] / n,
        "solver.steps": steps / n,
        "solver.rhs_calls": 4.0 * steps / n,
        "solver.step_us": 1e6 * ratio(own["solver.evolve"], steps),
        "solver.stable_time_step.s": total["solver.stable_time_step"] / n,
        "solver.conserved_diagnostics.s": total["solver.conserved_diagnostics"] / n,
        "experiment.run_scan.s": total["experiment.run_scan"] / n,
        "experiment.scan_to_csv.s": total["experiment.scan_to_csv"] / n,
        "cli.main.self_s": own["cli.main"] / n,
    }
    for alpha in ROW_ALPHAS:
        out[f"experiment.measure_pair.alpha{alpha}.s"] = rows[float(alpha)] / n
    return out
