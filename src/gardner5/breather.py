"""Closed-form breather of the 5th-order Gardner equation.

The breather is a two-phase solution built from a carrier phase
y1 = x + delta5*t + x1 and an envelope phase y2 = x + gamma5*t + x2:

    B(t, x) = 2 d/dx [ arctan(G(t,x) / F(t,x)) ] = 2 M / N

with

    G = (beta*sqrt(alpha^2+beta^2) / (alpha*sqrt(Delta))) * sin(alpha*y1)
        - 2*mu*beta*exp(beta*y2) / Delta,
    F = cosh(beta*y2)
        - 2*mu*beta*(alpha*cos(alpha*y1) - beta*sin(alpha*y1))
          / (alpha*sqrt(alpha^2+beta^2)*sqrt(Delta)),
    M = Gx*F - Fx*G,   N = F^2 + G^2,   Delta = alpha^2 + beta^2 - 4*mu^2 > 0.

Two genuinely independent evaluation paths are provided: the rational form
2M/N evaluated pointwise, and spectral differentiation of the sampled phase
2*arctan(G/F).  All hyperbolic quantities are rescaled by exp(-|beta*y2|) so
that evaluation stays finite for |beta*y2| up to ~1e4 (the raw cosh overflows
near 710).

Note: the spatial integral of B equals 2*arctan(-4*mu*beta/Delta).  It
vanishes only in the mu = 0 limit (the 5th-order mKdV breather).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fourier import Grid, SampledField, derivative

# Largest |beta*y2| that eval_approx passes to cosh; beyond it the envelope
# is below 1e-260 and is flushed to zero.
GF_EXP_LIMIT = 600.0

# The default grid resolves the breather when its top-quarter spectrum is at
# most this fraction of the peak.  On the benchmark's verify pools of seeds
# 1-40 (5,120 tuples) every check passed from 1e-8 to 1e-11; 1e-7
# under-resolves (436 misses) and 1e-12 over-resolves (1 miss, from
# 5th-derivative roundoff).
RESOLVED_TAIL = 1e-10
MAX_POINTS = 2**20

# eval_arctan_derivative refuses a phase whose edge slope exceeds this
# fraction of its peak slope: the envelope has not decayed on the grid
EDGE_SLOPE_TOL = 1e-10


class ParameterError(ValueError):
    """Breather parameters violate a validity constraint."""


@dataclass(frozen=True)
class BreatherParams:
    """Validated parameter tuple (alpha, beta, mu, x1, x2).

    alpha, beta > 0 are the carrier frequency and the amplitude parameter,
    mu >= 0 the background parameter (mu = 0 is the 5th-order mKdV limit),
    x1, x2 the carrier/envelope phase shifts.  Requires
    Delta = alpha^2 + beta^2 - 4 mu^2 > 0.
    """

    alpha: float
    beta: float
    mu: float
    x1: float = 0.0
    x2: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "mu", "x1", "x2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v!r}")
        if self.alpha <= 0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        if self.beta <= 0:
            raise ParameterError(f"beta must be > 0, got {self.beta}")
        if self.mu < 0:
            raise ParameterError(f"mu must be >= 0, got {self.mu}")
        if self.delta <= 0:
            raise ParameterError(
                f"Delta = alpha^2 + beta^2 - 4 mu^2 = {self.delta} must be > 0"
            )

    @property
    def delta(self) -> float:
        """Discriminant Delta = alpha^2 + beta^2 - 4 mu^2."""
        return self.alpha**2 + self.beta**2 - 4.0 * self.mu**2


class Velocities(NamedTuple):
    delta5: float   # carrier phase speed: y1 = x + delta5*t + x1
    gamma5: float   # envelope phase speed: y2 = x + gamma5*t + x2


def validate_params(alpha, beta, mu, x1=0.0, x2=0.0) -> BreatherParams:
    """Validate raw reals into BreatherParams (see class docstring)."""
    return BreatherParams(float(alpha), float(beta), float(mu), float(x1), float(x2))


def velocities(params: BreatherParams) -> Velocities:
    """Exact polynomial phase velocities of the two breather phases."""
    a2, b2, m2 = params.alpha**2, params.beta**2, params.mu**2
    d5 = -a2**2 + 10 * a2 * b2 - 5 * b2**2 + 10 * (a2 - 3 * b2) * m2 - 30 * m2**2
    g5 = -b2**2 + 10 * a2 * b2 - 5 * a2**2 + 10 * (3 * a2 - b2) * m2 - 30 * m2**2
    return Velocities(d5, g5)


def envelope_center(params: BreatherParams, t: float) -> float:
    """x at which the envelope phase y2 vanishes (sech peak location)."""
    return -velocities(params).gamma5 * t - params.x2


def _phases(params, t, x):
    d5, g5 = velocities(params)
    y1 = x + d5 * t + params.x1
    y2 = x + g5 * t + params.x2
    return params.alpha * y1, params.beta * y2


def _scaled_parts(params, t, x, time_partials=False):
    """G, F, Gx, Fx all rescaled by exp(-|beta*y2|), plus |beta*y2|.

    The common rescaling cancels in any quotient (B = 2M/N, arctan(G/F)),
    which is what makes evaluation at |beta*y2| ~ 1e4 possible.  With
    `time_partials`, Gt, Ft, Gxt and Fxt follow, under the same scaling.  B
    depends on t only through the phases a = alpha*y1 and z = beta*y2, so a
    t-partial is an x-partial with the phase rates (alpha, beta) replaced by
    (alpha*delta5, beta*gamma5).
    """
    al, be, mu = params.alpha, params.beta, params.mu
    a, z = _phases(params, t, np.asarray(x, dtype=float))
    az = np.abs(z)
    em = np.exp(z - az)        # e^{z} / e^{|z|}
    ep = np.exp(-z - az)       # e^{-z} / e^{|z|}
    unit = np.exp(-az)         # 1 / e^{|z|}
    ch = 0.5 * (em + ep)
    sh = 0.5 * (em - ep)
    sab = math.sqrt(al**2 + be**2)
    sD = math.sqrt(params.delta)
    c1 = be * sab / (al * sD)
    c2 = 2.0 * mu * be / params.delta
    c3 = 2.0 * mu * be / (al * sab * sD)
    sin_a, cos_a = np.sin(a), np.cos(a)

    def along(ka, kz):
        # G and F differentiated along the phase rates (da, dz) = (ka, kz)
        return (c1 * ka * cos_a * unit - c2 * kz * em,
                kz * sh + c3 * ka * (al * sin_a + be * cos_a) * unit)

    G = c1 * sin_a * unit - c2 * em
    F = ch - c3 * (al * cos_a - be * sin_a) * unit
    parts = (G, F, *along(al, be), az)
    if not time_partials:
        return parts
    d5, g5 = velocities(params)
    ka, kz = al * d5, be * g5
    Gxt = -c1 * al * ka * sin_a * unit - c2 * be * kz * em
    Fxt = be * kz * ch + c3 * al * ka * (al * cos_a - be * sin_a) * unit
    return (*parts, *along(ka, kz), Gxt, Fxt)


def _denominator(G, F):
    N = F * F + G * G
    if np.min(N) <= 1e-300:
        raise ParameterError(
            "denominator N = F^2 + G^2 vanished; parameters outside the "
            "validated range (Delta > 0 should prevent this)"
        )
    return N


def eval_rational(params: BreatherParams, t, x):
    """Breather values via the rational form 2M/N.  Vectorized in x."""
    G, F, Gx, Fx, _ = _scaled_parts(params, t, x)
    return 2.0 * (Gx * F - Fx * G) / _denominator(G, F)


def eval_rational_dt(params: BreatherParams, t, x):
    """B_t of the rational form, pointwise and exact.  Vectorized in x.

    With M = Gx F - Fx G and N = F^2 + G^2 from `_scaled_parts`,

        B_t = 2 (M_t N - M N_t) / N^2,
        M_t = Gxt F + Gx Ft - Fxt G - Fx Gt,   N_t = 2 (F Ft + G Gt).
    """
    G, F, Gx, Fx, _, Gt, Ft, Gxt, Fxt = _scaled_parts(params, t, x, time_partials=True)
    M = Gx * F - Fx * G
    Mt = Gxt * F + Gx * Ft - Fxt * G - Fx * Gt
    N = _denominator(G, F)
    Nt = 2.0 * (F * Ft + G * Gt)
    return 2.0 * (Mt * N - M * Nt) / (N * N)


def eval_arctan_derivative(params: BreatherParams, t: float, grid: Grid) -> SampledField:
    """Breather via spectral differentiation of the sampled phase.

    Samples the continuous branch of 2*arctan(G/F) on the grid (arctan2 plus
    unwrapping), removes the linear ramp between the two asymptotic edge
    constants (they differ by 2*arctan(-4 mu beta / Delta) for mu > 0), and
    differentiates spectrally.  Independent of eval_rational.

    Raises GridTooNarrowError when the phase is not flat at the window
    edges (edge slope above EDGE_SLOPE_TOL of the peak slope).
    """
    x = grid.nodes
    G, F, _, _, _ = _scaled_parts(params, t, x)
    A = 2.0 * np.unwrap(np.arctan2(G, F))
    h = grid.spacing
    # Edge-flatness diagnostic from A itself (keeps this path independent of
    # the rational form): finite-difference slope at the edges vs the peak.
    slopes = np.abs(np.diff(A)) / h
    peak = np.max(slopes)
    m = max(4, grid.points // 256)
    edge = max(np.max(slopes[:m]), np.max(slopes[-m:]))
    if peak > 0 and edge > EDGE_SLOPE_TOL * peak:
        raise GridTooNarrowError(
            f"envelope not decayed at window edges: edge/peak slope ratio "
            f"{edge / peak:.2e} exceeds {EDGE_SLOPE_TOL:.1e}; widen the grid"
        )
    a_left = np.mean(A[:m])
    a_right = np.mean(A[-m:])
    jump = a_right - a_left
    ramp = jump * (x - x[0]) / grid.length
    periodic = SampledField(grid, A - ramp)
    dA = derivative(periodic, 1, edge_check=False)
    return SampledField(grid, dA.values + jump / grid.length)


class GridTooNarrowError(ValueError):
    """Evaluation grid too narrow or too coarse for spectral differentiation."""


def eval_approx(params: BreatherParams, t, x):
    """Large-alpha approximation 2 beta cos(alpha(x+delta5 t)) sech(beta(x+gamma5 t)).

    Equals sqrt(2) Re[exp(i alpha(x+delta5 t)) Q_beta(x+gamma5 t)].  Phase
    shifts x1, x2 are not part of this form.  Intended regime beta/alpha << 1
    but evaluable everywhere.
    """
    d5, g5 = velocities(params)
    x = np.asarray(x, dtype=float)
    env = params.beta * (x + g5 * t)
    out = 2.0 * params.beta * np.cos(params.alpha * (x + d5 * t)) / np.cosh(
        np.minimum(np.abs(env), GF_EXP_LIMIT)
    )
    # beyond the cosh guard the envelope is < 1e-260; flush to zero
    return np.where(np.abs(env) > GF_EXP_LIMIT, 0.0, out)


def breather_integral(params: BreatherParams) -> float:
    """Closed-form spatial integral of B: 2*arctan(-4 mu beta / Delta).

    Zero exactly when mu = 0; negative for mu > 0.
    """
    return 2.0 * math.atan2(-4.0 * params.mu * params.beta, params.delta)


def sample_breather(params: BreatherParams, t: float,
                    grid: Grid | None = None) -> SampledField:
    """Rational-form breather sampled on `grid`, or on the coarsest grid that resolves it.

    With no grid, the window is max(80/beta, 40/alpha) long, centred on the
    envelope and snapped to its spacing.  The point count starts at the
    carrier's band edge, the least power of two >= 256 and >= length *
    (alpha + beta) / pi, and doubles until no |rfft| coefficient in the top
    quarter of the band (bins k >= 3n/8) exceeds RESOLVED_TAIL times the
    largest one; that last sample is returned.  Raises GridTooNarrowError if
    MAX_POINTS points do not resolve the spectrum.
    """
    if grid is not None:
        return SampledField(grid, eval_rational(params, t, grid.nodes))
    length = max(80.0 / params.beta, 40.0 / params.alpha)
    center = envelope_center(params, t)
    # start at the carrier's band edge: a coarser grid aliases the carrier
    # into the lower band, where the top-quarter test cannot see it
    edge = length * (params.alpha + params.beta) / math.pi
    n = max(256, 2 ** math.ceil(math.log2(edge)))
    while n <= MAX_POINTS:
        h = length / n
        field = sample_breather(params, t, Grid(round(center / h) * h, length, n))
        spectrum = np.abs(np.fft.rfft(field.values))
        if np.max(spectrum[3 * n // 8:]) <= RESOLVED_TAIL * np.max(spectrum):
            return field
        n *= 2
    raise GridTooNarrowError(
        f"breather spectrum not resolved on {MAX_POINTS} points: its top "
        f"quarter exceeds {RESOLVED_TAIL:.0e} of the peak"
    )
