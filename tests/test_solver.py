"""Integrating-factor RK4 evolution against the exact breather."""

import itertools

import numpy as np
import pytest

from gardner5 import (
    BlowUpError,
    Grid,
    SampledField,
    SolverConfig,
    conserved_diagnostics,
    derivative,
    eval_rational,
    evolve,
    k_mu,
    l2_norm,
    linear_symbol,
    make_grid,
    sample_breather,
    stable_time_step,
    validate_params,
)
from gardner5.solver import SolverConfigError, _NonlinearRHS


class TestLinearSymbol:
    def test_zero_frequency(self):
        assert linear_symbol(0.3, 0.0) == 0.0

    def test_mkdv_unit(self):
        assert linear_symbol(0.0, 1.0) == pytest.approx(-1j, abs=1e-15)

    def test_gardner_example(self):
        # i * 8 * (0.9 - 4) = -24.8i
        assert linear_symbol(0.3, 2.0) == pytest.approx(-24.8j, rel=1e-13)

    def test_purely_imaginary(self):
        xi = np.linspace(-30, 30, 101)
        assert np.all(linear_symbol(0.7, xi).real == 0.0)


class TestConfig:
    def test_dealias_factor_floor(self):
        with pytest.raises(SolverConfigError, match="dealias"):
            SolverConfig(t_end=1.0, dealias_factor=2)

    def test_negative_t_end(self):
        with pytest.raises(SolverConfigError):
            SolverConfig(t_end=-1.0)

    def test_bad_dt(self):
        with pytest.raises(SolverConfigError):
            SolverConfig(t_end=1.0, dt=0.0)


class TestNonlinearRHS:
    """The fused kernel against an independent path and across padding factors."""

    @pytest.mark.parametrize("mu", [0.3, 0.0])
    def test_matches_padded_k_mu(self, mu):
        # independent path: zero-pad the breather onto the m = 3n grid, form
        # K_mu there with fourier.derivative, then take -i xi of its low modes.
        # That padding copies the Nyquist mode to an ordinary mode, counting
        # it twice, so the data drop it (test_nyquist_padded_once covers it)
        p = validate_params(2, 1, mu)
        g = make_grid(0.0, 24 * np.pi, 640)
        n, m = g.points, 3 * g.points
        vh = np.fft.rfft(sample_breather(p, 0.0, g).values)
        vh[-1] = 0.0
        padded = np.zeros(m // 2 + 1, dtype=complex)
        padded[: n // 2 + 1] = vh
        fine = SampledField(Grid(g.center, g.length, m), np.fft.irfft(padded, n=m) * m / n)
        xi = 2 * np.pi * np.fft.rfftfreq(n, d=g.spacing)
        want = -1j * xi * np.fft.rfft(k_mu(fine, mu).values)[: n // 2 + 1] * n / m
        want[-1] = 0.0
        got = _NonlinearRHS(g, mu, 3)(vh)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_alias_free_from_factor_3(self):
        # random data filling every mode below Nyquist: the quintic products
        # reach 5 (n/2 - 1), whose alias on the factor-3 grid lies past n/2
        g = make_grid(0.0, 2 * np.pi, 64)
        rng = np.random.default_rng(11)
        vh = np.zeros(g.points // 2 + 1, dtype=complex)
        vh[1:-1] = rng.standard_normal(31) + 1j * rng.standard_normal(31)
        vh *= 1.0 / np.max(np.abs(np.fft.irfft(vh, n=g.points)))  # sup|v| = 1
        r3, r4 = (_NonlinearRHS(g, 0.3, f)(vh) for f in (3, 4))
        scale = np.max(np.abs(r4))
        assert np.max(np.abs(r3 - r4)) <= 1e-12 * scale
        # factor 2 aliases on the same data, so the comparison has teeth
        assert np.max(np.abs(_NonlinearRHS(g, 0.3, 2)(vh) - r4)) >= 1e-6 * scale

    def test_nyquist_padded_once(self):
        # cos(8x) on 16 points is the pure Nyquist mode, samples +-1; the
        # padded fields must interpolate v, v_x and v_xx at the coarse nodes
        g = make_grid(np.pi, 2 * np.pi, 16)
        f = SampledField(g, np.cos(8 * g.nodes))
        np.testing.assert_allclose(np.abs(f.values), 1.0, atol=1e-13)
        rhs = _NonlinearRHS(g, 0.3, 3)
        rhs(np.fft.rfft(f.values))
        v, vx, vxx = np.fft.irfft(rhs.padded, n=rhs.m, axis=-1)[:, ::3]
        np.testing.assert_allclose(v, f.values, atol=1e-13)
        # the n-point spectral derivatives (top-octave data: no edge check)
        np.testing.assert_allclose(vx, derivative(f, 1, edge_check=False).values,
                                   atol=1e-12)
        np.testing.assert_allclose(vxx, derivative(f, 2, edge_check=False).values,
                                   atol=1e-11)


class TestEvolve:
    def test_zero_stays_zero(self):
        g = make_grid(0.0, 20 * np.pi, 256)
        v0 = SampledField(g, np.zeros(g.points))
        tr = evolve(v0, 0.3, SolverConfig(t_end=1e-3, dt=1e-5))
        assert all(np.all(f.values == 0.0) for f in tr.fields)
        assert tr.mass_drift == 0.0 and tr.l2_drift == 0.0

    def test_breather_short_run(self):
        p = validate_params(2, 1, 0.3)
        g = make_grid(0.0, 20 * np.pi, 512)
        v0 = sample_breather(p, 0.0, g)
        tr = evolve(v0, p.mu, SolverConfig(t_end=2e-3, dt=5e-7, diagnostics_every=1000))
        exact = eval_rational(p, tr.times[-1], g.nodes)
        err = np.sqrt(np.sum((tr.fields[-1].values - exact) ** 2) / np.sum(exact**2))
        assert err <= 1e-5
        assert tr.mass_drift <= 1e-12

    def test_tiny_amplitude_matches_linear_flow(self):
        # cubic-quintic nonlinearity at 1e-8 amplitude is O(1e-24): the
        # evolution must coincide with the exact dispersive rotation
        g = make_grid(0.0, 20 * np.pi, 256)
        v0 = SampledField(g, 1e-8 / np.cosh(g.nodes))
        t_end = 1e-3
        tr = evolve(v0, 0.0, SolverConfig(t_end=t_end, dt=1e-5))
        xi = 2 * np.pi * np.fft.rfftfreq(g.points, d=g.spacing)
        want = np.fft.irfft(
            np.exp(linear_symbol(0.0, xi) * t_end) * np.fft.rfft(v0.values),
            n=g.points,
        )
        num = np.sqrt(np.sum((tr.fields[-1].values - want) ** 2))
        den = np.sqrt(np.sum(want**2))
        assert num / den <= 1e-12

    def test_linear_exactness_with_nonlinearity_zeroed(self, monkeypatch):
        # band-limited data, mu arbitrary, any dt: exp(L t) is reproduced
        g = make_grid(0.0, 2 * np.pi, 64)
        v0 = SampledField(g, np.cos(3 * g.nodes) + 0.5 * np.sin(7 * g.nodes))
        monkeypatch.setattr(
            _NonlinearRHS, "__call__",
            lambda self, vh: np.zeros_like(vh),
        )
        mu, t_end = 0.4, 0.37
        tr = evolve(v0, mu, SolverConfig(t_end=t_end, dt=t_end / 7))
        xi = 2 * np.pi * np.fft.rfftfreq(g.points, d=g.spacing)
        want = np.fft.irfft(
            np.exp(linear_symbol(mu, xi) * t_end) * np.fft.rfft(v0.values),
            n=g.points,
        )
        assert np.max(np.abs(tr.fields[-1].values - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fields_stay_real_and_finite(self):
        p = validate_params(2, 1, 0.3)
        g = make_grid(0.0, 20 * np.pi, 256)
        tr = evolve(sample_breather(p, 0.0, g), p.mu,
                    SolverConfig(t_end=1e-3, dt=2e-6, diagnostics_every=100))
        for f in tr.fields:
            assert f.values.dtype == np.float64
            assert np.all(np.isfinite(f.values))


class TestConvergence:
    def test_fourth_order_in_dt(self):
        p = validate_params(2, 1, 0.3)
        g = make_grid(0.0, 20 * np.pi, 256)
        v0 = sample_breather(p, 0.0, g)
        t_end = 4e-3
        sols = {}
        for dt in (4e-6, 2e-6, 1e-6, 5e-7):
            tr = evolve(v0, p.mu, SolverConfig(t_end=t_end, dt=dt, diagnostics_every=10**6))
            sols[dt] = tr.fields[-1].values
        errs = [
            np.sqrt(np.mean((sols[dt] - sols[5e-7]) ** 2))
            for dt in (4e-6, 2e-6, 1e-6)
        ]
        assert 8.0 <= errs[0] / errs[1] <= 32.0
        assert 8.0 <= errs[1] / errs[2] <= 32.0


class TestGuardsAndDiagnostics:
    def test_coarser_dt_larger_l2_drift(self):
        # mass is conserved to roundoff at any dt (the k=0 mode is inert),
        # so the drift comparison is meaningful for the L^2 functional only
        p = validate_params(2, 1, 0.3)
        g = make_grid(0.0, 20 * np.pi, 256)
        v0 = sample_breather(p, 0.0, g)
        drifts = {}
        for dt in (4e-6, 2e-6):
            tr = evolve(v0, p.mu, SolverConfig(t_end=4e-3, dt=dt, diagnostics_every=500))
            drifts[dt] = tr.l2_drift
            assert tr.mass_drift <= 1e-12
        assert drifts[4e-6] > drifts[2e-6]

    def test_blowup_guard(self):
        p = validate_params(2, 1, 0.3)
        g = make_grid(0.0, 20 * np.pi, 256)
        v0 = sample_breather(p, 0.0, g)
        dt = 40.0 * stable_time_step(v0, p.mu)
        with pytest.raises(BlowUpError):
            evolve(v0, p.mu, SolverConfig(t_end=2000 * dt, dt=dt, diagnostics_every=5))

    @pytest.mark.parametrize("k", [1, 4, 5, 10])
    def test_finiteness_guard_names_step(self, monkeypatch, k):
        # NaN from the k-th RHS call on must stop the run in the step that
        # made call k, not at the next checkpoint
        calls = itertools.count(1)
        call = _NonlinearRHS.__call__

        def poisoned(self, vh):
            out = call(self, vh)
            if next(calls) >= k:
                out[:] = np.nan
            return out

        monkeypatch.setattr(_NonlinearRHS, "__call__", poisoned)
        p = validate_params(2, 1, 0.3)
        g = make_grid(0.0, 20 * np.pi, 256)
        step = (k - 1) // 4 + 1
        with pytest.raises(BlowUpError, match=rf"non-finite spectrum at step {step} "):
            evolve(sample_breather(p, 0.0, g), p.mu,
                   SolverConfig(t_end=1e-4, dt=1e-6, diagnostics_every=10**6))

    def test_stable_time_step_scales_down_with_resolution(self):
        p = validate_params(2, 1, 0.3)
        dts = []
        for n in (256, 512):
            g = make_grid(0.0, 20 * np.pi, n)
            dts.append(stable_time_step(sample_breather(p, 0.0, g), p.mu))
        assert dts[1] < dts[0] / 6  # ~ ximax^-3

    def test_conserved_diagnostics_zero_field(self):
        g = make_grid(0.0, 20 * np.pi, 256)
        v0 = SampledField(g, np.zeros(g.points))
        tr = evolve(v0, 0.1, SolverConfig(t_end=1e-4, dt=1e-5))
        assert conserved_diagnostics(tr) == (0.0, 0.0)

    def test_trace_recomputation_matches(self):
        p = validate_params(2, 1, 0.3)
        g = make_grid(0.0, 20 * np.pi, 256)
        tr = evolve(sample_breather(p, 0.0, g), p.mu,
                    SolverConfig(t_end=1e-3, dt=2e-6, diagnostics_every=200))
        assert conserved_diagnostics(tr) == (tr.mass_drift, tr.l2_drift)
        assert l2_norm(tr.fields[0]) > 0
