"""Residual checks: the sampled breather satisfies its equations."""

import numpy as np
import pytest

from gardner5 import (
    SampledField,
    StepSizeError,
    derivative,
    elliptic_residual,
    eval_approx,
    k_mu,
    make_grid,
    mean,
    mkdv5_residual,
    pde_residual,
    sample_breather,
    validate_params,
)
from gardner5.residuals import _spatial_terms

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
        rep = pde_residual(p, t, acceptance_grid())
        assert rep.sup_rel <= 1e-6
        assert rep.sup_rel == rep.sup_abs / rep.terms_scale

    def test_sensitivity_to_corruption(self):
        p = validate_params(2, 1, 0.3)
        g = acceptance_grid()
        bump = 1e-3 / np.cosh(g.nodes)
        corrupted = SampledField(g, sample_breather(p, 0.0, g).values + bump)
        rep = pde_residual(p, 0.0, g, field=corrupted)
        assert rep.sup_rel >= 1e-4

    def test_field_defaults_to_closed_form_samples(self):
        p = validate_params(2, 1, 0.3)
        g = acceptance_grid()
        given = pde_residual(p, 0.0, g, field=sample_breather(p, 0.0, g))
        assert given == pde_residual(p, 0.0, g)

    def test_step_size_guard(self):
        p = validate_params(2, 1, 0.3)
        with pytest.raises(StepSizeError):
            pde_residual(p, 0.0, acceptance_grid(), time_step=0.05)

    def test_random_params(self, rng):
        from conftest import random_valid_params
        for _ in range(3):
            p = random_valid_params(rng)
            t = float(rng.uniform(-0.2, 0.2))
            rep = pde_residual(p, t, sample_breather(p, t).grid)
            assert rep.sup_rel <= 1e-6

    def test_time_difference_convergence_order(self):
        # plain 4th-order differencing: halving the step cuts the residual
        # by >= 8x while truncation dominates, then hits the spectral floor
        p = validate_params(2, 1, 0.3)
        g = acceptance_grid()
        steps = [4e-3, 2e-3, 1e-3]
        sups = [
            pde_residual(p, 0.0, g, time_step=ht, extrapolate=False).sup_rel
            for ht in steps
        ]
        assert sups[0] / sups[1] >= 8.0
        assert sups[1] / sups[2] >= 8.0
        floor = pde_residual(p, 0.0, g).sup_rel
        assert floor <= sups[2]

    def test_grid_refinement_plateau(self):
        # sup_rel does not increase under N-doubling in the resolution
        # -limited regime (beyond it, roundoff in the 5th derivative grows
        # like ximax^5 sqrt(N) and the comparison is no longer meaningful)
        p = validate_params(2, 1, 0.3)
        sups = [
            pde_residual(p, 0.0, make_grid(0.0, 80 * np.pi, n)).sup_rel
            for n in (1024, 2048, 4096)
        ]
        assert sups[1] <= sups[0]
        assert sups[2] <= sups[1]


class TestEllipticResidual:
    def test_acceptance_tolerance(self):
        p = validate_params(2, 1, 0.3)
        rep = elliptic_residual(p, 0.0, acceptance_grid())
        assert rep.sup_rel <= 1e-7

    def test_mkdv_case_any_time(self):
        p = validate_params(1, 1, 0)
        rep = elliptic_residual(p, 0.37, acceptance_grid())
        assert rep.sup_rel <= 1e-7

    def test_approximation_is_not_a_solution(self):
        # beta/alpha = 1/2: the modulated-sech form badly misses the ODE
        p = validate_params(2, 1, 0)
        g = acceptance_grid()
        approx = SampledField(g, eval_approx(p, 0.0, g.nodes))
        rep = elliptic_residual(p, 0.0, g, field=approx)
        assert rep.sup_rel >= 1e-2

    def test_grid_refinement_plateau(self):
        p = validate_params(2, 1, 0.3)
        sups = [
            elliptic_residual(p, 0.0, make_grid(0.0, 80 * np.pi, n)).sup_rel
            for n in (1024, 2048, 4096)
        ]
        assert sups[1] <= sups[0]
        assert sups[2] <= sups[1]


class TestMkdv5:
    def test_breather_residual(self):
        p = validate_params(1, 1, 0)
        rep = mkdv5_residual(p, 0.0, acceptance_grid())
        assert rep.sup_rel <= 1e-6

    def test_pointwise_consistency_with_gardner(self):
        p = validate_params(1, 1, 0)
        g = acceptance_grid()
        a = mkdv5_residual(p, 0.0, g).residual.values
        b = pde_residual(p, 0.0, g).residual.values
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_zero_field(self):
        g = make_grid(0.0, 40.0, 256)
        out = gardner5_rhs(SampledField(g, np.zeros(256)), 0.0)
        assert np.all(out.values == 0.0)

    def test_requires_mu_zero(self):
        with pytest.raises(ValueError, match="mu"):
            mkdv5_residual(validate_params(2, 1, 0.3), 0.0, acceptance_grid())
