"""Pseudospectral time evolution of the 5th-order Gardner equation.

Integrating-factor RK4: the dispersive linear part exp(t * L) with symbol
L = i xi^3 (10 mu^2 - xi^2) is applied exactly in Fourier space; classical
RK4 integrates the nonlinearity in the interaction picture.  Nonlinear
products are formed on a grid zero-padded by DEALIAS_FACTOR = 3 (the least
alias-free factor for the quintic flux) and truncated back.  The state is
kept as a real-input FFT spectrum, so reality is enforced structurally.

Stability is limited by the dispersive part of the flux (terms like
10 v^2 v_xx differentiate to 10 v^2 v_xxx), giving an effective frozen
-coefficient rate (10 |v|^2 + 20 mu |v|) xi_max^3; time steps are sized
against that cubic rate, not the advective xi_max rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import Grid, SampledField, l2_norm, mean
from .residuals import flux_polynomial

# padded/unpadded grid ratio for the nonlinear products: 3 keeps the
# quintic flux v^5 free of aliasing
DEALIAS_FACTOR = 3

# fraction of the RK4 imaginary-axis bound 2.8 that `stable_time_step` uses
CFL = 0.2


class BlowUpError(RuntimeError):
    """Evolution guard tripped: non-finite values or runaway amplitude."""


class SolverConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    dt = None defers to the stability rule `stable_time_step` at evolve time.
    """

    t_end: float
    dt: float | None = None
    diagnostics_every: int = 50

    def __post_init__(self):
        if not math.isfinite(self.t_end) or self.t_end < 0:
            raise SolverConfigError(f"t_end must be >= 0, got {self.t_end}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise SolverConfigError(f"dt must be > 0, got {self.dt}")
        if self.diagnostics_every < 1:
            raise SolverConfigError("diagnostics_every must be >= 1")


@dataclass
class EvolutionTrace:
    times: list[float]
    fields: list[SampledField]
    mass_drift: float
    l2_drift: float
    dt: float
    steps: int


def linear_symbol(mu: float, xi):
    """Fourier symbol of -(10 mu^2 d_x^3 + d_x^5): i xi^3 (10 mu^2 - xi^2)."""
    xi = np.asarray(xi, dtype=float)
    return 1j * xi**3 * (10.0 * mu**2 - xi**2)


def stable_time_step(initial: SampledField, mu: float) -> float:
    """Step bound CFL * 2.8 / lambda_max for the frozen-coefficient nonlinear rate.

    The flux terms (20 mu v + 10 v^2) v_xx differentiate into third-order
    dispersion with state-dependent coefficients, so the rate is cubic in
    xi_max, not linear:

        lambda_max = (10 |v|^2 + 20 mu |v|) xi_max^3
                     + 20 (mu + |v|) |v_x| xi_max^2 + 30 mu^4 xi_max.

    2.8 is the RK4 imaginary-axis stability bound.  CFL = 0.2 is
    deliberately far below it: near the bound the breather's moving
    coefficients parametrically pump the near-Nyquist band over thousands of
    steps (observed growth for lambda*dt >~ 1), which inflates the L^2 drift
    long before outright blow-up.
    """
    vmax = float(np.max(np.abs(initial.values)))
    xi = 2.0 * np.pi * np.fft.rfftfreq(initial.grid.points, d=initial.grid.spacing)
    vx = np.fft.irfft(1j * xi * np.fft.rfft(initial.values), n=initial.grid.points)
    vxmax = float(np.max(np.abs(vx)))
    xi_max = math.pi / initial.grid.spacing
    lam = (
        (10.0 * vmax**2 + 20.0 * mu * vmax) * xi_max**3
        + 20.0 * (mu + vmax) * vxmax * xi_max**2
        + 30.0 * mu**4 * xi_max
    )
    return 2.8 * CFL / (lam + 1e-12)


class _NonlinearRHS:
    """-d_x K_mu(v) in rfft space with zero-padded products.

    One call makes one batched inverse FFT of (v, v_x, v_xx) onto the padded
    grid and one forward FFT of the flux.  The padding scale m/n is folded
    into the input multipliers and n/m into the output one.
    """

    def __init__(self, grid: Grid, mu: float, factor: int):
        n = grid.points
        self.m = factor * n
        self.mu = mu
        self.nspec = n // 2 + 1
        xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.spacing)
        self.mult_in = np.stack([np.ones_like(xi), 1j * xi, -(xi**2)]) * (self.m / n)
        # the n-point Nyquist mode is an ordinary mode of the padded grid,
        # which would count it twice: halve it, and zero its odd derivative,
        # so the padded fields interpolate the n-point ones
        self.mult_in[:, -1] *= (0.5, 0.0, 0.5)
        # Nyquist zeroed for the odd-order output derivative
        self.mult_out = -1j * xi * (n / self.m)
        self.mult_out[-1] = 0.0
        # columns past nspec stay zero: they are the padding
        self.padded = np.zeros((3, self.m // 2 + 1), dtype=complex)

    def __call__(self, vh):
        np.multiply(self.mult_in, vh, out=self.padded[:, : self.nspec])
        v, vx, vxx = np.fft.irfft(self.padded, n=self.m, axis=-1)
        # overflow here just feeds the per-step finiteness guard
        with np.errstate(over="ignore", invalid="ignore"):
            K = flux_polynomial(v, vx, vxx, self.mu)
        return self.mult_out * np.fft.rfft(K)[: self.nspec]


def evolve(initial: SampledField, mu: float, config: SolverConfig) -> EvolutionTrace:
    """Integrate the 5th-order Gardner equation from the given data.

    Checkpoints (including the initial and final states) are recorded every
    diagnostics_every steps; mass and L^2 drifts are the largest deviations
    of h*sum(v) and h*sum(v^2) across checkpoints.  Guards abort on a
    non-finite spectrum after any step, and on amplitude growth beyond 1e3x
    the initial sup-norm at a checkpoint.  The trace records the step
    actually taken, t_end / steps (0.0 with no steps when t_end = 0).
    """
    grid = initial.grid
    if config.t_end == 0.0:
        return EvolutionTrace([0.0], [initial], 0.0, 0.0, 0.0, 0)
    dt = config.dt if config.dt is not None else stable_time_step(initial, mu)
    nsteps = max(1, int(round(config.t_end / dt)))
    dt = config.t_end / nsteps

    xi = 2.0 * np.pi * np.fft.rfftfreq(grid.points, d=grid.spacing)
    lsym = linear_symbol(mu, xi)
    e_full = np.exp(lsym * dt)
    e_half = np.exp(lsym * dt / 2.0)
    # stage and update weights: vh <- e_full vh
    #   + dt/6 (e_full k1 + 2 e_half (k2 + k3) + k4)
    half_e = 0.5 * dt * e_half
    dt_e = dt * e_half
    third_e = dt / 3.0 * e_half
    sixth_f = dt / 6.0 * e_full
    rhs = _NonlinearRHS(grid, mu, DEALIAS_FACTOR)

    sup0 = float(np.max(np.abs(initial.values)))
    guard = 1e3 * max(sup0, 1e-300)

    vh = np.fft.rfft(initial.values)
    times = [0.0]
    fields = [initial]

    def snapshot(step):
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.fft.irfft(vh, n=grid.points)
        if not np.all(np.isfinite(v)):
            raise BlowUpError(f"non-finite values at step {step} (t={step * dt:.6g})")
        if np.max(np.abs(v)) > guard:
            raise BlowUpError(
                f"amplitude exceeded 1e3 * sup|v0| at step {step} (t={step * dt:.6g})"
            )
        return v

    for step in range(1, nsteps + 1):
        # a non-finite stage propagates into vh, where the guard below raises
        with np.errstate(over="ignore", invalid="ignore"):
            half_vh = e_half * vh
            full_vh = e_full * vh
            k1 = rhs(vh)
            k2 = rhs(half_vh + half_e * k1)
            k3 = rhs(half_vh + 0.5 * dt * k2)
            k4 = rhs(full_vh + dt_e * k3)
            full_vh += sixth_f * k1
            full_vh += third_e * (k2 + k3)
            full_vh += dt / 6.0 * k4
            vh = full_vh
        if not np.isfinite(vh).all():
            raise BlowUpError(f"non-finite spectrum at step {step} (t={step * dt:.6g})")
        if step % config.diagnostics_every == 0 or step == nsteps:
            v = snapshot(step)
            times.append(step * dt)
            fields.append(SampledField(grid, v))

    trace = EvolutionTrace(times, fields, 0.0, 0.0, dt, nsteps)
    trace.mass_drift, trace.l2_drift = conserved_diagnostics(trace)
    return trace


def conserved_diagnostics(trace: EvolutionTrace) -> tuple[float, float]:
    """Largest drifts of the integral and of the squared L^2 norm."""
    if not trace.fields:
        raise ValueError("trace is empty")
    m0 = mean(trace.fields[0])
    e0 = l2_norm(trace.fields[0]) ** 2
    mass_drift = max(abs(mean(f) - m0) for f in trace.fields)
    l2_drift = max(abs(l2_norm(f) ** 2 - e0) for f in trace.fields)
    return mass_drift, l2_drift
