"""Residual checks: the sampled breather satisfies its equations."""

import mpmath
import numpy as np
import pytest

from gardner5 import (
    SampledField,
    derivative,
    elliptic_residual,
    envelope_center,
    eval_approx,
    k_mu,
    make_grid,
    mean,
    mkdv5_residual,
    pde_residual,
    sample_breather,
    validate_params,
)
from gardner5.residuals import _spatial_terms, flux_polynomial

from conftest import mp_breather

ACCEPTANCE_GRID = dict(length=80 * np.pi, points=8192)


def acceptance_grid():
    return make_grid(0.0, **ACCEPTANCE_GRID)


def sech_field(grid, amp=1.0, width=1.0):
    return SampledField(grid, amp / np.cosh(width * grid.nodes))


def gardner5_rhs(field, mu):
    """The v_t implied by the equation: -(10 mu^2 v_xxx + v_5x + [K_mu(v)]_x)."""
    v3_term, v5, kx = _spatial_terms(field, mu)
    return SampledField(field.grid, -(v3_term + v5 + kx))


class TestKmu:
    def test_zero_field(self):
        g = make_grid(0.0, 40.0, 256)
        out = k_mu(SampledField(g, np.zeros(256)), 0.3)
        assert np.all(out.values == 0.0)

    def test_mu_zero_reduction(self):
        g = make_grid(0.0, 80.0, 1024)
        f = sech_field(g)
        v = f.values
        vx = derivative(f, 1).values
        vxx = derivative(f, 2).values
        want = 10 * v * vx**2 + 10 * v**2 * vxx + 6 * v**5
        np.testing.assert_allclose(k_mu(f, 0.0).values, want, atol=1e-14)

    def test_against_finite_differences(self):
        # term-by-term oracle with Richardson-extrapolated central differences
        g = make_grid(0.0, 80.0, 4096)
        f = sech_field(g)
        mu = 0.3
        h = g.spacing
        v = f.values

        def fd(order, stride=1):
            if order == 1:
                raw = (
                    -np.roll(v, -2 * stride) + 8 * np.roll(v, -stride)
                    - 8 * np.roll(v, stride) + np.roll(v, 2 * stride)
                ) / (12 * stride * h)
            else:
                raw = (
                    -np.roll(v, -2 * stride) + 16 * np.roll(v, -stride) - 30 * v
                    + 16 * np.roll(v, stride) - np.roll(v, 2 * stride)
                ) / (12 * (stride * h) ** 2)
            return raw

        vx = (16 * fd(1, 1) - fd(1, 2)) / 15
        vxx = (16 * fd(2, 1) - fd(2, 2)) / 15
        want = (
            10 * (mu + v) * vx**2 + 20 * mu * v * vxx + 10 * v**2 * vxx
            + 30 * mu**4 * v + 60 * mu**3 * v**2 + 60 * mu**2 * v**3
            + 30 * mu * v**4 + 6 * v**5
        )
        got = k_mu(f, mu).values
        assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


class TestRHS:
    def test_zero_field(self):
        g = make_grid(0.0, 40.0, 256)
        out = gardner5_rhs(SampledField(g, np.zeros(256)), 0.3)
        assert np.all(out.values == 0.0)

    def test_linear_regime(self):
        # 1e-8 sech: rhs collapses to the linearization
        # -(10 mu^2 v_xxx + v_5x + 30 mu^4 v_x)
        g = make_grid(0.0, 80.0, 2048)
        f = sech_field(g, amp=1e-8)
        mu = 0.3
        got = gardner5_rhs(f, mu).values
        lin = -(
            10 * mu**2 * derivative(f, 3).values
            + derivative(f, 5).values
            + 30 * mu**4 * derivative(f, 1).values
        )
        assert np.max(np.abs(got - lin)) <= 1e-6 * np.max(np.abs(lin))

    def test_matches_time_difference_of_breather(self):
        # tolerance scales with the largest equation term: the residual floor
        # is the spectral roundoff of the 5th derivative, not of v_t itself
        p = validate_params(2, 1, 0.3)
        g = acceptance_grid()
        field = sample_breather(p, 0.0, g)
        rhs = gardner5_rhs(field, p.mu).values
        ht = 1e-5
        x = g.nodes
        from gardner5 import eval_rational
        dt = (
            -eval_rational(p, 2 * ht, x) + 8 * eval_rational(p, ht, x)
            - 8 * eval_rational(p, -ht, x) + eval_rational(p, -2 * ht, x)
        ) / (12 * ht)
        scale = np.max(np.abs(derivative(field, 5).values))
        assert np.max(np.abs(rhs - dt)) <= 1e-6 * scale

    def test_rhs_is_perfect_derivative(self):
        # zero-mean conservation: the flux form integrates to zero exactly
        p = validate_params(2, 1, 0.3)
        g = acceptance_grid()
        rhs = gardner5_rhs(sample_breather(p, 0.0, g), p.mu)
        assert abs(mean(rhs)) <= 1e-10


class TestPDEResidual:
    @pytest.mark.parametrize("t", [0.0, 0.01])
    def test_acceptance_tolerance(self, t):
        p = validate_params(2, 1, 0.3)
        rep = pde_residual(p, t, sample_breather(p, t, acceptance_grid()))
        assert rep.sup_rel <= 1e-6
        assert rep.sup_rel == rep.sup_abs / rep.terms_scale

    def test_sensitivity_to_corruption(self):
        p = validate_params(2, 1, 0.3)
        g = acceptance_grid()
        bump = 1e-3 / np.cosh(g.nodes)
        corrupted = SampledField(g, sample_breather(p, 0.0, g).values + bump)
        rep = pde_residual(p, 0.0, corrupted)
        assert rep.sup_rel >= 1e-4

    def test_random_params(self, rng):
        from conftest import random_valid_params
        for _ in range(3):
            p = random_valid_params(rng)
            t = float(rng.uniform(-0.2, 0.2))
            rep = pde_residual(p, t, sample_breather(p, t))
            assert rep.sup_rel <= 1e-6

    def test_grid_refinement_plateau(self):
        # sup_rel does not increase under N-doubling in the resolution
        # -limited regime (beyond it, roundoff in the 5th derivative grows
        # like ximax^5 sqrt(N) and the comparison is no longer meaningful)
        p = validate_params(2, 1, 0.3)
        grids = [make_grid(0.0, 80 * np.pi, n) for n in (1024, 2048, 4096)]
        sups = [pde_residual(p, 0.0, sample_breather(p, 0.0, g)).sup_rel for g in grids]
        assert sups[1] <= sups[0]
        assert sups[2] <= sups[1]


class TestEllipticResidual:
    def test_acceptance_tolerance(self):
        p = validate_params(2, 1, 0.3)
        rep = elliptic_residual(p, sample_breather(p, 0.0, acceptance_grid()))
        assert rep.sup_rel <= 1e-7

    def test_mkdv_case_any_time(self):
        p = validate_params(1, 1, 0)
        rep = elliptic_residual(p, sample_breather(p, 0.37, acceptance_grid()))
        assert rep.sup_rel <= 1e-7

    def test_approximation_is_not_a_solution(self):
        # beta/alpha = 1/2: the modulated-sech form badly misses the ODE
        p = validate_params(2, 1, 0)
        g = acceptance_grid()
        approx = SampledField(g, eval_approx(p, 0.0, g.nodes))
        rep = elliptic_residual(p, approx)
        assert rep.sup_rel >= 1e-2

    def test_grid_refinement_plateau(self):
        p = validate_params(2, 1, 0.3)
        grids = [make_grid(0.0, 80 * np.pi, n) for n in (1024, 2048, 4096)]
        sups = [elliptic_residual(p, sample_breather(p, 0.0, g)).sup_rel for g in grids]
        assert sups[1] <= sups[0]
        assert sups[2] <= sups[1]


class TestMkdv5:
    def test_breather_residual(self):
        p = validate_params(1, 1, 0)
        rep = mkdv5_residual(p, 0.0, sample_breather(p, 0.0, acceptance_grid()))
        assert rep.sup_rel <= 1e-6

    def test_pointwise_consistency_with_gardner(self):
        p = validate_params(1, 1, 0)
        b0 = sample_breather(p, 0.0, acceptance_grid())
        a = mkdv5_residual(p, 0.0, b0).residual.values
        b = pde_residual(p, 0.0, b0).residual.values
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_zero_field(self):
        g = make_grid(0.0, 40.0, 256)
        out = gardner5_rhs(SampledField(g, np.zeros(256)), 0.0)
        assert np.all(out.values == 0.0)

    def test_requires_mu_zero(self):
        p = validate_params(2, 1, 0.3)
        b = sample_breather(p, 0.0, acceptance_grid())
        with pytest.raises(ValueError, match="mu"):
            mkdv5_residual(p, 0.0, b)


ORACLE_TUPLES = [(2, 1, 0.3), (0.8, 1, 0.5, 1, -2), (3, 0.5, 1.2, 0.4, 0.7)]
ORACLE_T = 0.1


def k_mu_expanded(v, vx, vxx, mu):
    """K_mu term by term, as the README writes it."""
    return (10 * (mu + v) * vx**2 + 20 * mu * v * vxx + 10 * v**2 * vxx
            + 30 * mu**4 * v + 60 * mu**3 * v**2 + 60 * mu**2 * v**3
            + 30 * mu * v**4 + 6 * v**5)


def oracle_jet(p, t, x, mu4_scale=1):
    """B and its x-derivatives of orders 1..5, and B_t, of the closed form at 60 digits.

    mpmath's finite differences raise the working precision (to ~400 digits
    for order 5), so the closed form is evaluated at whatever precision is
    current when they call it.  The t-derivative uses a central step of
    1e-30: its truncation error is ~1e-60 relative.
    """
    def B(tt, xx):
        return mp_breather(p, tt, xx, dps=mpmath.mp.dps, mu4_scale=mu4_scale)[2]

    t, x = mpmath.mpf(t), mpmath.mpf(x)
    jet = list(mpmath.diffs(lambda xx: B(t, xx), x, 5))
    vt = mpmath.diff(lambda tt: B(tt, x), t, h=mpmath.mpf(10) ** -30)
    return jet, vt


def relative(terms):
    return abs(sum(terms)) / max(abs(c) for c in terms)


def oracle_pde_residual(p, t, x, mu4_scale=1):
    """Relative residual of v_t + 10 mu^2 v_xxx + v_5x + [K_mu]_x, grid-free.

    [K_mu]_x comes from `k_mu_expanded` by the chain rule, not from
    `flux_polynomial`.
    """
    (v, vx, vxx, v3, _, v5), vt = oracle_jet(p, t, x, mu4_scale)
    mu = mpmath.mpf(p.mu)
    kx = (10 * vx**3 + 20 * (mu + v) * vx * vxx + 20 * mu * (vx * vxx + v * v3)
          + 20 * v * vx * vxx + 10 * v**2 * v3
          + (30 * mu**4 + 120 * mu**3 * v + 180 * mu**2 * v**2
             + 120 * mu * v**3 + 30 * v**4) * vx)
    return relative([vt, 10 * mu**2 * v3, v5, kx])


def oracle_points(p):
    # within a few envelope widths of the center: far out every term is
    # tiny and a relative residual means nothing
    c = envelope_center(p, ORACLE_T)
    return [c + k / p.beta for k in (-2.0, 0.5, 3.0)]


class TestGridFreeOracle:
    """The closed form satisfies its equations to 60 digits, with no grid."""

    @pytest.mark.parametrize("params", ORACLE_TUPLES)
    def test_pde(self, params):
        p = validate_params(*params)
        with mpmath.workdps(60):
            for x in oracle_points(p):
                assert oracle_pde_residual(p, ORACLE_T, x) <= 1e-40

    @pytest.mark.parametrize("params", ORACLE_TUPLES)
    def test_elliptic(self, params):
        p = validate_params(*params)
        with mpmath.workdps(60):
            al2, be2 = mpmath.mpf(p.alpha) ** 2, mpmath.mpf(p.beta) ** 2
            mu = mpmath.mpf(p.mu)
            for x in oracle_points(p):
                (B, Bx, Bxx, _, B4, _), _ = oracle_jet(p, ORACLE_T, x)
                assert relative([
                    B4,
                    2 * (al2 - be2) * (Bxx + 6 * mu * B**2 + 2 * B**3),
                    (al2 + be2) ** 2 * B,
                    10 * B**2 * Bxx, 10 * B * Bx**2, 6 * B**5,
                    10 * mu * Bx**2, 20 * mu * B * Bxx,
                    40 * mu**2 * B**3, 30 * mu * B**4,
                ]) <= 1e-40

    @pytest.mark.parametrize("params", ORACLE_TUPLES)
    def test_notices_a_wrong_velocity(self, params):
        # the -30 mu^4 velocity term off by 1e-9 relative
        p = validate_params(*params)
        with mpmath.workdps(60):
            for x in oracle_points(p):
                assert oracle_pde_residual(p, ORACLE_T, x, 1 + mpmath.mpf(1e-9)) >= 1e-13

    @pytest.mark.parametrize("params", ORACLE_TUPLES)
    def test_flux_polynomial_is_the_expanded_flux(self, params):
        p = validate_params(*params)
        with mpmath.workdps(60):
            mu = mpmath.mpf(p.mu)
            for x in oracle_points(p):
                (v, vx, vxx, *_), _ = oracle_jet(p, ORACLE_T, x)
                want = k_mu_expanded(v, vx, vxx, mu)
                got = flux_polynomial(v, vx, vxx, mu)
                assert abs(got - want) <= 1e-50 * abs(want)
