"""Ill-posedness scan: loss of uniform continuity of the data-to-solution map.

For a Sobolev index s < 3/4 the scan builds breather pairs with nearby
carrier frequencies alpha_1,2 = alpha +- delta / (2 alpha^{2s}) and common
amplitude beta = alpha^{-2s}, evolves them to T = margin * alpha^{4s-3} /
delta by evaluating the exact solutions, and tabulates H^s norms and
distances at t = 0 and t = T.  The signature of ill-posedness: the initial
distance stays O(delta) while the time-T distance stays at the O(1) level of
the norms themselves, uniformly as alpha grows.

Time-T states are exact closed forms, not solver output: the envelope
centers travel to ~5 alpha^4 T (e.g. ~1e9 length units at alpha = 64),
far beyond any direct evolution, and only solution values are needed.
Per-solution windows there are disjoint by a factor ~margin/4, so H^s
distances decompose Pythagorean-fashion with exponentially small cross
terms.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field, asdict

import numpy as np

from .breather import (
    eval_approx,
    eval_rational,
    envelope_center,
    validate_params,
    velocities,
)
from .fourier import (
    Grid,
    SampledField,
    sobolev_norm,
    window_overlap,
    window_union_distance,
    window_union_inner,
)

CSV_HEADER = "alpha,alpha1,alpha2,beta,T,norm0_1,norm0_2,dist0,distT,cross_T,separation_ratio"

VERDICT_SIGNATURE = "ILL_POSED_SIGNATURE"
VERDICT_NOT_OBSERVED = "SIGNATURE_NOT_OBSERVED"
VERDICT_NONE = "NO_VERDICT"

# minimal separation-condition quality for a row to support the verdict
MIN_SEPARATION_RATIO = 10.0


class ExperimentConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One scan's inputs.

    s >= 3/4 is allowed for contrast runs, which carry no verdict; the
    headline regime is s < 3/4.  Window widths are in envelope multiples
    (width = window_widths / beta), and the grid resolves the carrier with
    points_per_period nodes per period.
    """

    s: float = 0.5
    delta: float = 0.1
    mu: float = 0.05
    alphas: tuple = (8.0, 16.0, 32.0, 64.0)
    T_margin: float = 100.0
    window_widths: float = 80.0
    points_per_period: float = 10.0
    max_union_points: int = 2**22

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ExperimentConfigError(f"s must be finite, got {self.s}")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ExperimentConfigError(f"delta must be > 0, got {self.delta}")
        if self.mu < 0:
            raise ExperimentConfigError(f"mu must be >= 0, got {self.mu}")
        if len(self.alphas) == 0:
            raise ExperimentConfigError("alphas must be nonempty")
        if any(a < 8.0 for a in self.alphas):
            raise ExperimentConfigError(
                f"every alpha must be >= 8, got {min(self.alphas)}"
            )
        if self.T_margin < 10.0:
            raise ExperimentConfigError(
                f"T_margin must be >= 10, got {self.T_margin}"
            )
        if self.window_widths < 40.0:
            raise ExperimentConfigError(
                f"window_widths must be >= 40 envelope multiples, got {self.window_widths}"
            )
        if self.points_per_period < 6.0:
            raise ExperimentConfigError(
                f"points_per_period must be >= 6, got {self.points_per_period}"
            )
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ExperimentConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(doc)
        if "alphas" in kwargs:
            kwargs["alphas"] = tuple(kwargs["alphas"])
        try:
            return cls(**kwargs)
        except TypeError as e:
            raise ExperimentConfigError(str(e)) from e

    def to_dict(self) -> dict:
        d = asdict(self)
        d["alphas"] = list(self.alphas)
        return d


@dataclass(frozen=True)
class ExperimentRow:
    """Measurements for one alpha of the scan."""

    alpha: float
    alpha1: float
    alpha2: float
    beta: float
    T: float
    norm0_1: float
    norm0_2: float
    dist0: float
    distT: float
    cross_T: float
    separation_ratio: float
    # diagnostics beyond the pinned CSV columns
    normT_1: float = 0.0
    normT_2: float = 0.0
    approx_gap0: float = 0.0
    grid_points: int = 0
    separation_ok: bool = True

    def csv_line(self) -> str:
        cols = (
            self.alpha, self.alpha1, self.alpha2, self.beta, self.T,
            self.norm0_1, self.norm0_2, self.dist0, self.distT,
            self.cross_T, self.separation_ratio,
        )
        return ",".join(format(c, ".17e") for c in cols)


@dataclass
class ScanResult:
    config: ExperimentConfig
    rows: list[ExperimentRow]
    verdict: str
    bands: dict = dataclass_field(default_factory=dict)


def choose_beta(alpha: float, s: float) -> float:
    """Amplitude selection beta = alpha^{-2s}."""
    if alpha <= 0:
        raise ExperimentConfigError(f"alpha must be > 0, got {alpha}")
    return float(alpha) ** (-2.0 * s)


def choose_frequencies(alpha: float, s: float, delta: float) -> tuple[float, float]:
    """alpha_{1,2} = alpha +- delta/(2 alpha^{2s}); alpha^{2s}(a1-a2) = delta exactly."""
    if alpha <= 0 or delta <= 0:
        raise ExperimentConfigError("alpha and delta must be > 0")
    half = delta / (2.0 * alpha ** (2.0 * s))
    # chain the second endpoint off the first so the difference a1 - a2
    # carries a single rounding instead of two cancelling ones
    a1 = alpha + half
    a2 = a1 - 2.0 * half
    if a2 <= 0:
        raise ExperimentConfigError(
            f"alpha2 = {a2} <= 0; separation delta too large for alpha = {alpha}"
        )
    return a1, a2


def choose_T(alpha: float, s: float, delta: float, margin: float) -> float:
    """Observation time T = margin * alpha^{4s-3} / delta (margin >= 10)."""
    if margin < 10.0:
        raise ExperimentConfigError(f"margin must be >= 10, got {margin}")
    return margin * float(alpha) ** (4.0 * s - 3.0) / delta


def separation_ratio(alpha: float, alpha1: float, alpha2: float, T: float, beta: float) -> float:
    """Disjoint-support quality alpha^3 (alpha1 - alpha2) T / beta^{-1}."""
    return alpha**3 * (alpha1 - alpha2) * T * beta


def experiment_grid(alpha_resolve: float, beta: float, widths: float,
                    points_per_period: float, center: float = 0.0) -> Grid:
    """Window of widths/beta length resolving the carrier, power-of-two points.

    The center is snapped to the grid spacing so that windows of equal
    resolution share one lattice (exact zero-extension onto union grids).
    """
    length = widths / beta
    per_unit = points_per_period * alpha_resolve / (2.0 * math.pi)
    n = 2 ** max(8, math.ceil(math.log2(length * per_unit)))
    h = length / n
    return Grid(round(center / h) * h, length, n)


def _cross_tail_bound(beta: float, separation: float) -> float:
    """|<v1, v2>_{L^2}| bound from Schwartz envelopes 10 beta e^{-0.95 beta |x - c|}."""
    rate = 0.95 * beta
    exponent = -rate * separation
    if exponent < -700.0:
        return 0.0
    return 100.0 * beta**2 * math.exp(exponent) * (separation + 1.0 / rate)


def measure_pair(config: ExperimentConfig, alpha: float) -> ExperimentRow:
    """All measurements for one alpha: norms and distances at t = 0 and t = T."""
    s = config.s
    beta = choose_beta(alpha, s)
    a1, a2 = choose_frequencies(alpha, s, config.delta)
    T = choose_T(alpha, s, config.delta, config.T_margin)
    ratio = separation_ratio(alpha, a1, a2, T, beta)

    # shared t=0 window resolving the faster carrier
    grid0 = experiment_grid(max(a1, a2), beta, config.window_widths,
                            config.points_per_period)
    x0 = grid0.nodes
    p1 = validate_params(a1, beta, config.mu)
    p2 = validate_params(a2, beta, config.mu)
    v1 = SampledField(grid0, eval_rational(p1, 0.0, x0))
    v2 = SampledField(grid0, eval_rational(p2, 0.0, x0))
    norm0_1 = sobolev_norm(v1, s)
    norm0_2 = sobolev_norm(v2, s)
    dist0 = sobolev_norm(SampledField(grid0, v1.values - v2.values), s)
    approx_gap0 = float(np.max(np.abs(v1.values - eval_approx(p1, 0.0, x0))))

    # per-solution windows at t = T, on the same lattice spacing
    h = grid0.spacing
    gT1 = Grid(round(envelope_center(p1, T) / h) * h, grid0.length, grid0.points)
    gT2 = Grid(round(envelope_center(p2, T) / h) * h, grid0.length, grid0.points)
    u1 = SampledField(gT1, eval_rational(p1, T, gT1.nodes))
    u2 = SampledField(gT2, eval_rational(p2, T, gT2.nodes))
    normT_1 = sobolev_norm(u1, s)
    normT_2 = sobolev_norm(u2, s)

    overlap = window_overlap(gT1, gT2)
    if overlap > 0.5:
        warnings.warn(
            f"alpha={alpha}: time-T windows overlap by {overlap:.0%}; "
            f"forcing the common-grid slow path",
            stacklevel=2,
        )
    distT = window_union_distance(u1, u2, s, config.max_union_points)
    if overlap > 0.0:
        cross_T = abs(window_union_inner(u1, u2, config.max_union_points))
    else:
        cross_T = _cross_tail_bound(beta, abs(gT1.center - gT2.center))

    return ExperimentRow(
        alpha=alpha, alpha1=a1, alpha2=a2, beta=beta, T=T,
        norm0_1=norm0_1, norm0_2=norm0_2, dist0=dist0, distT=distT,
        cross_T=cross_T, separation_ratio=ratio,
        normT_1=normT_1, normT_2=normT_2, approx_gap0=approx_gap0,
        grid_points=grid0.points,
        separation_ok=ratio >= MIN_SEPARATION_RATIO,
    )


def _scan_workers(n_rows: int) -> int:
    env = os.environ.get("GARDNER5_THREADS", "0")
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_rows))


def run_scan(config: ExperimentConfig) -> ScanResult:
    """One row per alpha (concurrently, deterministic order) plus the verdict.

    Verdict conditions over rows meeting the separation requirement:
      (a) all t=0 norms within a factor-2 band,
      (b) every dist0 <= 2 * delta * sqrt(C_band) with C_band the band's top,
      (c) every distT >= half the band's floor.
    Runs with s >= 3/4 are contrast runs and always carry NO_VERDICT.
    """
    alphas = sorted(config.alphas)
    workers = _scan_workers(len(alphas))
    if workers == 1:
        rows = [measure_pair(config, a) for a in alphas]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda a: measure_pair(config, a), alphas))

    bands: dict = {}
    if config.s >= 0.75:
        verdict = VERDICT_NONE
        bands["reason"] = "contrast run (s >= 3/4): descriptive rows only"
        return ScanResult(config, rows, verdict, bands)

    ok_rows = [r for r in rows if r.separation_ok]
    if not ok_rows:
        return ScanResult(
            config, rows, VERDICT_NOT_OBSERVED,
            {"reason": "no rows met the separation condition"},
        )
    norms = [r.norm0_1 for r in ok_rows] + [r.norm0_2 for r in ok_rows]
    band_top, band_floor = max(norms), min(norms)
    c_band = band_top**2
    dist0_cap = 2.0 * config.delta * math.sqrt(c_band)
    distT_floor = 0.5 * band_floor
    cond_band = band_top / band_floor <= 2.0
    cond_dist0 = all(r.dist0 <= dist0_cap for r in ok_rows)
    cond_distT = all(r.distT >= distT_floor for r in ok_rows)
    bands = {
        "norm0_band_top": band_top,
        "norm0_band_floor": band_floor,
        "norm0_band_ratio": band_top / band_floor,
        "dist0_cap": dist0_cap,
        "distT_floor": distT_floor,
        "cond_norm_band": cond_band,
        "cond_dist0_bounded": cond_dist0,
        "cond_distT_floored": cond_distT,
        "rows_in_verdict": len(ok_rows),
    }
    verdict = (
        VERDICT_SIGNATURE if (cond_band and cond_dist0 and cond_distT)
        else VERDICT_NOT_OBSERVED
    )
    return ScanResult(config, rows, verdict, bands)


def scan_to_csv(rows: list[ExperimentRow]) -> str:
    """The pinned CSV table (LF line endings, 17-digit scientific floats)."""
    lines = [CSV_HEADER]
    lines.extend(r.csv_line() for r in rows)
    return "\n".join(lines) + "\n"


def scan_to_json_doc(result: ScanResult) -> dict:
    rows = []
    for r in result.rows:
        d = asdict(r)
        rows.append(d)
    return {
        "config": result.config.to_dict(),
        "rows": rows,
        "bands": result.bands,
        "verdict": result.verdict,
    }
