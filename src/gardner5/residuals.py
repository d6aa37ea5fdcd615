"""Residual verification of the closed-form breather.

Checks that the sampled breather satisfies the 5th-order Gardner equation

    v_t + 10 mu^2 v_xxx + v_5x + [K_mu(v)]_x = 0,

the fourth-order elliptic equation characterizing its spatial profile, and
(at mu = 0) the 5th-order mKdV equation.  The time derivative is obtained by
4th-order central differencing of the closed form with Richardson
extrapolation, keeping the check independent of the equation being verified.

K_mu is the exact reduction of the 5th-order mKdV flux under u = mu + v:

    K_mu(v) = 10 (mu + v) v_x^2 + 20 mu v v_xx + 10 v^2 v_xx
              + 30 mu^4 v + 60 mu^3 v^2 + 60 mu^2 v^3 + 30 mu v^4 + 6 v^5.

The linear transport term 30 mu^4 v comes from the binomial expansion of
6 u^5 = 6 (mu + v)^5 and is required for the breather, whose phase
velocities carry the matching -30 mu^4 contribution, to be an exact
solution; without it the residual is O(mu^4) instead of roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .breather import BreatherParams, eval_rational, velocities
from .fourier import Grid, SampledField, derivative, derivatives, l2_norm


class StepSizeError(RuntimeError):
    """Time-differencing step failed its consistency check."""


@dataclass(frozen=True)
class ResidualReport:
    """Norms of an equation residual, absolute and relative.

    sup_rel divides by the sup-norm of the largest single term of the
    equation: the terms cancel to roundoff, so only the relative figure is
    meaningful across parameter scales.
    """

    sup_abs: float
    l2_abs: float
    sup_rel: float
    terms_scale: float
    residual: SampledField = dataclass_field(repr=False, compare=False, default=None)


def _report(terms: list[np.ndarray], grid: Grid) -> ResidualReport:
    res = np.sum(terms, axis=0)
    scale = max(float(np.max(np.abs(t))) for t in terms)
    scale = max(scale, 1e-300)
    sup = float(np.max(np.abs(res)))
    fld = SampledField(grid, res)
    return ResidualReport(sup, l2_norm(fld), sup / scale, scale, fld)


def flux_polynomial(v, vx, vxx, mu: float):
    """K_mu pointwise from samples of v, v_x and v_xx, in Horner form.

    The v-only terms 30 mu^4 v + 60 mu^3 v^2 + 60 mu^2 v^3 + 30 mu v^4 + 6 v^5
    are nested as v (30 mu^4 + v (60 mu^3 + v (60 mu^2 + v (30 mu + 6 v)))),
    and 20 mu v v_xx + 10 v^2 v_xx as 10 v (2 mu + v) v_xx.  The solver's
    nonlinear term and `k_mu` both evaluate the flux here.
    """
    inner = 60.0 * mu**2 + v * (30.0 * mu + 6.0 * v)
    return (
        10.0 * ((mu + v) * vx * vx + v * (2.0 * mu + v) * vxx)
        + v * (30.0 * mu**4 + v * (60.0 * mu**3 + v * inner))
    )


def k_mu(field: SampledField, mu: float) -> SampledField:
    """Nonlinear flux K_mu evaluated pointwise with spectral derivatives."""
    vx, vxx = (d.values for d in derivatives(field, (1, 2)))
    return SampledField(field.grid, flux_polynomial(field.values, vx, vxx, mu))


def _spatial_terms(field: SampledField, mu: float) -> list[np.ndarray]:
    """10 mu^2 v_xxx, v_5x and [K_mu(v)]_x from one spectrum of v."""
    vx, vxx, v3, v5 = (d.values for d in derivatives(field, (1, 2, 3, 5)))
    flux = SampledField(field.grid, flux_polynomial(field.values, vx, vxx, mu))
    kx = derivative(flux, 1, edge_check=False).values
    return [10.0 * mu**2 * v3, v5, kx]


def default_time_step(params: BreatherParams) -> float:
    """Phase motion of ~1e-4 length units per differencing step."""
    d5, g5 = velocities(params)
    return 1e-4 / max(abs(d5), abs(g5), 1.0)


def _time_derivative(params, t, grid, h_t, extrapolate, pair_tol):
    x = grid.nodes
    # the h and h/2 stencils share t +- h, since 2 * (h/2) == h exactly
    samples = {}

    def b(tt):
        if tt not in samples:
            samples[tt] = eval_rational(params, tt, x)
        return samples[tt]

    def central(hh):
        return (-b(t + 2 * hh) + 8 * b(t + hh) - 8 * b(t - hh) + b(t - 2 * hh)) / (12 * hh)

    d_h = central(h_t)
    if not extrapolate:
        return d_h
    d_h2 = central(h_t / 2)
    disagreement = float(np.max(np.abs(d_h - d_h2)))
    scale = 1.0 + float(np.max(np.abs(d_h2)))
    if disagreement > pair_tol * scale:
        raise StepSizeError(
            f"time-differencing pair disagreement {disagreement:.2e} exceeds "
            f"{pair_tol:.1e} * {scale:.2e}; adjust the time step"
        )
    return (16.0 * d_h2 - d_h) / 15.0


def pde_residual(
    params: BreatherParams,
    t: float,
    grid: Grid,
    time_step: float | None = None,
    extrapolate: bool = True,
    pair_tol: float = 1e-3,
    field: SampledField | None = None,
) -> ResidualReport:
    """Residual of the 5th-order Gardner equation for the sampled breather.

    `field` substitutes other samples (e.g. the breather plus a bump, for
    sensitivity checks) in the spatial terms; the time derivative still
    uses the exact closed form.
    """
    h_t = default_time_step(params) if time_step is None else float(time_step)
    d_t = _time_derivative(params, t, grid, h_t, extrapolate, pair_tol)
    if field is None:
        field = SampledField(grid, eval_rational(params, t, grid.nodes))
    return _report([d_t, *_spatial_terms(field, params.mu)], grid)


def elliptic_residual(params: BreatherParams, t: float, grid: Grid,
                      field: SampledField | None = None) -> ResidualReport:
    """Residual of the fourth-order elliptic equation for the profile at time t.

    B_4x + 2(a^2-b^2)(B_xx + 6 mu B^2 + 2 B^3) + (a^2+b^2)^2 B
        + 10 B^2 B_xx + 10 B B_x^2 + 6 B^5
        + 10 mu B_x^2 + 20 mu B B_xx + 40 mu^2 B^3 + 30 mu B^4 = 0.

    `field` substitutes other samples (e.g. the large-alpha approximation)
    for the exact breather.
    """
    al2, be2, mu = params.alpha**2, params.beta**2, params.mu
    if field is None:
        field = SampledField(grid, eval_rational(params, t, grid.nodes))
    B = field.values
    Bx, Bxx, B4 = (d.values for d in derivatives(field, (1, 2, 4)))
    B2, B3, Bx2 = B**2, B**3, Bx**2
    terms = [
        B4,
        2.0 * (al2 - be2) * (Bxx + 6.0 * mu * B2 + 2.0 * B3),
        (al2 + be2) ** 2 * B,
        10.0 * B2 * Bxx,
        10.0 * B * Bx2,
        6.0 * B**5,
        10.0 * mu * Bx2,
        20.0 * mu * B * Bxx,
        40.0 * mu**2 * B3,
        30.0 * mu * B**4,
    ]
    return _report(terms, grid)


def mkdv5_residual(
    params: BreatherParams,
    t: float,
    grid: Grid,
    time_step: float | None = None,
    extrapolate: bool = True,
) -> ResidualReport:
    """Residual of the 5th-order mKdV equation (the mu = 0 specialization).

    At mu = 0 the Gardner flux reduces term by term to the mKdV flux, so the
    computation shares the mu = 0 path of pde_residual and agrees with it
    pointwise by construction.
    """
    if params.mu != 0.0:
        raise ValueError(f"mkdv5_residual requires mu = 0, got mu = {params.mu}")
    return pde_residual(params, t, grid, time_step=time_step, extrapolate=extrapolate)
