"""Closed-form breather: validation, velocities, dual evaluation paths."""

import math

import mpmath
import numpy as np
import pytest

from gardner5 import (
    GridTooNarrowError,
    ParameterError,
    breather_integral,
    envelope_center,
    eval_approx,
    eval_arctan_derivative,
    eval_rational,
    sample_breather,
    validate_params,
    velocities,
)
from gardner5.fourier import Grid, l2_norm, mean

from gardner5.breather import _scaled_parts

from conftest import mp_breather, mp_breather_value, random_valid_params


class TestValidate:
    def test_valid_tuple(self):
        p = validate_params(2, 1, 0.3)
        assert p.delta == pytest.approx(4.64, abs=1e-14)

    def test_mkdv_limit(self):
        p = validate_params(1, 1, 0)
        assert p.delta == 2.0

    def test_delta_nonpositive(self):
        with pytest.raises(ParameterError, match="Delta"):
            validate_params(1, 1, 1)  # Delta = -2

    def test_alpha_nonpositive(self):
        with pytest.raises(ParameterError, match="alpha"):
            validate_params(-2, 1, 0.1)

    def test_beta_nonpositive(self):
        with pytest.raises(ParameterError, match="beta"):
            validate_params(2, 0, 0.1)

    def test_mu_negative(self):
        with pytest.raises(ParameterError, match="mu"):
            validate_params(2, 1, -0.1)


class TestVelocities:
    @pytest.mark.parametrize(
        "abm,expected",
        [
            ((1, 1, 0), (4.0, 4.0)),
            ((2, 1, 0), (19.0, -41.0)),
            ((2, 1, 0.3), (19.657, -31.343)),
        ],
    )
    def test_examples(self, abm, expected):
        d5, g5 = velocities(validate_params(*abm))
        assert d5 == pytest.approx(expected[0], rel=1e-13)
        assert g5 == pytest.approx(expected[1], rel=1e-13)


class TestEvalGF:
    # G and F come from _scaled_parts, shared by the rational and arctan
    # paths, rescaled by exp(-|beta*y2|) so that their quotient never overflows
    def test_identity_point(self):
        g, f, _, _, az = _scaled_parts(validate_params(1, 1, 0), 0.0, 0.0)
        assert g == 0.0
        assert f == 1.0
        assert az == 0.0

    def test_against_mp_oracle(self):
        p = validate_params(2, 1, 0.3)
        g, f, _, _, az = _scaled_parts(p, 0.0, 0.5)
        G, F, _ = mp_breather(p, 0.0, 0.5)
        assert az == pytest.approx(0.5, rel=1e-15)
        assert g * math.exp(az) == pytest.approx(float(G), rel=1e-12)
        assert f * math.exp(az) == pytest.approx(float(F), rel=1e-12)

    def test_overflow_regime(self):
        # beta*y2 = 800: raw cosh overflows, the rescaled quotient must not
        p = validate_params(2, 1, 0.3)
        g, f, _, _, az = _scaled_parts(p, 0.0, 800.0)
        assert np.isfinite(g) and np.isfinite(f)
        assert az == pytest.approx(800.0, abs=1e-9)
        G, F, _ = mp_breather(p, 0.0, 800.0, dps=500)
        assert g / f == pytest.approx(float(G / F), rel=1e-12)


class TestRational:
    def test_mkdv_peak_value(self):
        # direct evaluation of 2M/N at the origin for alpha = beta = 1, mu = 0
        p = validate_params(1, 1, 0)
        b = eval_rational(p, 0.0, np.array([0.0]))[0]
        assert b == pytest.approx(2.0, abs=1e-14)
        assert b == pytest.approx(mp_breather_value(p, 0.0, 0.0), rel=1e-13)

    def test_matches_mp_oracle_along_line(self, rng):
        for _ in range(10):
            p = random_valid_params(rng)
            t = float(rng.uniform(-0.5, 0.5))
            xc = envelope_center(p, t)
            xs = xc + rng.uniform(-5 / p.beta, 5 / p.beta, size=6)
            got = eval_rational(p, t, xs)
            want = [mp_breather_value(p, t, x) for x in xs]
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_schwartz_decay_to_zero(self):
        p = validate_params(2, 1, 0.3)
        far = eval_rational(p, 0.0, np.array([-1e7, -500.0, 500.0, 1e7]))
        assert np.max(np.abs(far[:1])) == 0.0
        assert np.max(np.abs(far)) < 1e-100

    @pytest.mark.parametrize("abm", [(2, 1, 0.3), (2, 1, 0), (0.8, 1, 0.5, 1, -2)])
    def test_overflow_regime_against_mp_oracle(self, abm):
        # |beta*y2| > 600, where cosh(beta*y2) alone is ~e^650.  Behind the
        # envelope (y2 < 0) the rescaled quotient keeps B ~ e^-650 to full
        # relative precision; ahead of it, for mu > 0, the leading
        # exponentials cancel, so B is exact only to ~e^-|beta*y2|
        p = validate_params(*abm)
        for z in (-690.0, -650.0, -620.0, 620.0, 650.0, 690.0):
            x = z / p.beta - p.x2
            got = eval_rational(p, 0.0, np.array([x]))[0]
            want = float(mp_breather(p, 0.0, x, dps=400)[2])
            if z < 0:
                assert got == pytest.approx(want, rel=1e-12)
            else:
                assert abs(got - want) <= 1e-260

    def test_overflow_safe_at_huge_offsets(self):
        p = validate_params(2, 1, 0.3)
        vals = eval_rational(p, 0.0, np.array([800.0, -800.0, 9.5e3]))
        assert np.all(np.isfinite(vals))

    def test_cross_path_point(self):
        # rational vs spectral-arctan path at a single probe point
        p = validate_params(2, 1, 0.3)
        t = 0.1
        grid = sample_breather(p, t).grid
        arct = eval_arctan_derivative(p, t, grid)
        j = int(np.argmin(np.abs(grid.nodes - 1.0)))
        rat = eval_rational(p, t, grid.nodes[j])
        assert rat == pytest.approx(arct.values[j], abs=1e-9)

    def test_translation_covariance(self, rng):
        for _ in range(20):
            p = random_valid_params(rng)
            c = float(rng.uniform(-10, 10))
            t = float(rng.uniform(-0.3, 0.3))
            x = float(rng.uniform(-3, 3)) + envelope_center(p, t)
            shifted = validate_params(p.alpha, p.beta, p.mu, p.x1 + c, p.x2 + c)
            a = eval_rational(shifted, t, x)
            b = eval_rational(p, t, x + c)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)

    def test_mu_to_zero_continuity(self):
        x = np.linspace(-20, 20, 257)
        near = eval_rational(validate_params(2, 1, 1e-8), 0.0, x)
        limit = eval_rational(validate_params(2, 1, 0), 0.0, x)
        assert np.max(np.abs(near - limit)) < 1e-6


class TestSchwartzDecay:
    def test_envelope_bound(self, rng):
        # |B(t, xc +- w)| <= 10 beta exp(-0.95 beta w) far into the tails
        for _ in range(50):
            p = random_valid_params(rng)
            t = float(rng.uniform(-0.5, 0.5))
            xc = envelope_center(p, t)
            for w in (5.0 / p.beta, 20.0 / p.beta, 100.0 / p.beta, 1e4 / p.beta):
                cap = 10.0 * p.beta * math.exp(-p.beta * w * 0.95)
                vals = eval_rational(p, t, np.array([xc - w, xc + w]))
                assert np.max(np.abs(vals)) <= cap


class TestArctanPath:
    def test_agrees_with_rational(self, rng):
        for _ in range(25):
            p = random_valid_params(rng)
            t = float(rng.uniform(-0.5, 0.5))
            fld = sample_breather(p, t)
            arct = eval_arctan_derivative(p, t, fld.grid).values
            rat = fld.values
            cap = 1e-9 * (1.0 + np.max(np.abs(rat)))
            assert np.max(np.abs(arct - rat)) <= cap

    def test_mkdv_against_mp_oracle(self):
        p = validate_params(1, 1, 0)
        grid = sample_breather(p, 0.0).grid
        arct = eval_arctan_derivative(p, 0.0, grid)
        idx = np.linspace(0, grid.points - 1, 9, dtype=int)
        want = [mp_breather_value(p, 0.0, grid.nodes[j]) for j in idx]
        np.testing.assert_allclose(arct.values[idx], want, rtol=1e-10, atol=1e-12)

    def test_narrow_grid_rejected(self):
        p = validate_params(2, 1, 0.3)
        grid = Grid(0.0, 14.0, 512)  # envelope decay only ~1e-3 at the edges
        with pytest.raises(GridTooNarrowError):
            eval_arctan_derivative(p, 0.0, grid)


class TestApprox:
    def test_peak(self):
        p = validate_params(16, 0.5, 0.05)
        assert eval_approx(p, 0.0, 0.0) == pytest.approx(2 * p.beta, rel=1e-14)

    def test_gap_shrinks_with_alpha(self):
        # fixed beta = 1; beta/alpha = 1/16 vs 1/64
        gaps = []
        for alpha in (16.0, 64.0):
            p = validate_params(alpha, 1.0, 0.0)
            fld = sample_breather(p, 0.0)
            gaps.append(np.max(np.abs(fld.values - eval_approx(p, 0.0, fld.grid.nodes))))
        assert gaps[1] < gaps[0]

    def test_monotone_convergence(self):
        gaps = []
        for alpha in (16.0, 32.0, 64.0):
            p = validate_params(alpha, 1.0, 0.0)
            fld = sample_breather(p, 0.0)
            gaps.append(np.max(np.abs(fld.values - eval_approx(p, 0.0, fld.grid.nodes))))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_q_peak(self):
        # the envelope is sqrt(2) Q_beta with Q_1(0) = sqrt(2)
        p = validate_params(16, 1, 0)
        assert eval_approx(p, 0.0, 0.0) / math.sqrt(2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )


class TestSechProfile:
    # eval_approx at mu = 0, t = 0 is sqrt(2) cos(alpha x) Q_beta(x), with
    # Q_beta(xi) = beta sqrt(2) sech(beta xi); at the carrier crests
    # x = 2 pi k / alpha it is sqrt(2) Q_beta(x)
    def test_ode_residual(self):
        # Q'' - Q + Q^3 = 0 with the exact second derivative of sech
        alpha = 16.0
        xi = 2.0 * np.pi * np.arange(-25, 26) / alpha
        q = eval_approx(validate_params(alpha, 1, 0), 0.0, xi) / math.sqrt(2.0)
        s = 1 / np.cosh(xi)
        qpp = math.sqrt(2.0) * s * (1.0 - 2.0 * s**2)  # (sech)'' = sech(1 - 2 sech^2)
        residual = qpp - q + q**3
        assert np.max(np.abs(residual)) <= 1e-12

    def test_scaled_peak(self):
        # Q_beta(xi) = beta Q_1(beta xi): alpha scales with beta to keep the crests
        beta = 0.0625
        x = np.linspace(-10.0, 10.0, 41)
        unit = eval_approx(validate_params(16, 1, 0), 0.0, x)
        scaled = eval_approx(validate_params(16 * beta, beta, 0), 0.0, x / beta)
        np.testing.assert_allclose(scaled, beta * unit, rtol=1e-12, atol=1e-15)
        assert scaled[20] / math.sqrt(2.0) == pytest.approx(math.sqrt(2.0) * beta, rel=1e-15)


def resolved(values):
    """No |rfft| coefficient in the top quarter of the band above 1e-10 of the peak."""
    spectrum = np.abs(np.fft.rfft(values))
    return np.max(spectrum[3 * values.size // 8:]) <= 1e-10 * np.max(spectrum)


class TestSampleBreather:
    @pytest.mark.parametrize("abm, t", [
        ((2, 1, 0.3), 0.0),
        ((1, 1, 0), 0.37),
        ((0.8, 1, 0.5, 1, -2), 0.1),        # winding: 2 mu > alpha
        ((3.9, 0.4, 0.0, 1.0, 2.0), -0.3),  # wide window, fast carrier
        ((64, 1, 0), 0.0),
    ])
    def test_default_grid_is_coarsest_resolving(self, abm, t):
        p = validate_params(*abm)
        fld = sample_breather(p, t)
        g = fld.grid
        assert g.length == max(80.0 / p.beta, 40.0 / p.alpha)
        assert g.center == round(envelope_center(p, t) / g.spacing) * g.spacing
        assert np.array_equal(fld.values, eval_rational(p, t, g.nodes))
        assert resolved(fld.values)
        if g.points > 256:
            h = 2.0 * g.spacing
            coarse = Grid(round(envelope_center(p, t) / h) * h, g.length, g.points // 2)
            assert not resolved(eval_rational(p, t, coarse.nodes))

    def test_given_grid_is_used(self):
        p = validate_params(2, 1, 0.3)
        g = Grid(0.5, 60.0, 512)
        fld = sample_breather(p, 0.1, g)
        assert fld.grid == g
        assert np.array_equal(fld.values, eval_rational(p, 0.1, g.nodes))


class TestEnvelopeCenter:
    def test_origin(self):
        assert envelope_center(validate_params(2, 1, 0.3), 0.0) == 0.0

    def test_travel(self):
        c = envelope_center(validate_params(2, 1, 0.3), 1.0)
        assert c == pytest.approx(31.343, rel=1e-13)

    def test_phase_shift(self):
        p = validate_params(2, 1, 0.3, 0.0, 5.0)
        assert envelope_center(p, 0.0) == -5.0


class TestIntegral:
    def test_closed_form_integral(self, rng):
        # window integral h*sum(B) equals 2*arctan(-4 mu beta / Delta);
        # it vanishes only at mu = 0
        for _ in range(8):
            p = random_valid_params(rng)
            fld = sample_breather(p, 0.0)
            want = breather_integral(p)
            assert mean(fld) == pytest.approx(want, abs=1e-10 * (1 + l2_norm(fld)))

    @pytest.mark.parametrize("abm", [(2, 1, 0.3), (0.8, 1, 0.5, 1, -2)])
    def test_closed_form_against_mp_quadrature(self, abm):
        # 30-digit quadrature of the oracle's B over the envelope window,
        # split at carrier periods; the second tuple winds (2 mu > alpha)
        p = validate_params(*abm)
        grid = sample_breather(p, 0.0).grid
        lo, hi = grid.center - grid.length / 2, grid.center + grid.length / 2
        n = math.ceil(grid.length * p.alpha / (2 * math.pi))
        with mpmath.workdps(30):
            got = mpmath.quad(
                lambda x: mp_breather(p, 0.0, x, dps=30)[2],
                mpmath.linspace(lo, hi, n + 1),
            )
        assert abs(float(got) - breather_integral(p)) <= 1e-12

    def test_zero_mean_at_mu_zero(self, rng):
        for _ in range(5):
            p = random_valid_params(rng, mu_zero=True)
            fld = sample_breather(p, 0.0)
            assert abs(mean(fld)) <= 1e-10 * (1.0 + l2_norm(fld))
