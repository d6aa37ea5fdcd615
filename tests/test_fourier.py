"""Grids, spectral derivatives, Sobolev norms, union-window distances."""

import math

import numpy as np
import pytest

from gardner5 import (
    EdgeDecayError,
    Grid,
    GridError,
    GridMismatchError,
    SampledField,
    derivative,
    derivatives,
    inner_product,
    l2_norm,
    make_grid,
    mean,
    sample_breather,
    sobolev_norm,
    validate_params,
    window_union_distance,
    window_union_inner,
)
from gardner5.fourier import window_overlap


def gaussian_field(length=200.0, points=4096, width=1.0, center=0.0):
    g = make_grid(center, length, points)
    return SampledField(g, np.exp(-((g.nodes - center) ** 2) / (2 * width**2)))


class TestMakeGrid:
    def test_basic_nodes(self):
        g = make_grid(0.0, 2 * np.pi, 16)
        assert g.nodes[0] == pytest.approx(-np.pi)
        assert g.spacing == pytest.approx(np.pi / 8)

    def test_wide_window(self):
        g = make_grid(1e7, 5120.0, 2**20)
        assert g.points == 2**20
        assert g.nodes[-1] == pytest.approx(1e7 + 2560.0 - g.spacing)

    def test_negative_length(self):
        with pytest.raises(GridError):
            make_grid(0.0, -1.0, 64)

    def test_odd_points(self):
        with pytest.raises(GridError):
            make_grid(0.0, 1.0, 65)

    def test_tiny_points(self):
        with pytest.raises(GridError):
            make_grid(0.0, 1.0, 8)


class TestDerivative:
    def test_sin_first(self):
        g = make_grid(np.pi, 2 * np.pi, 16)
        f = SampledField(g, np.sin(g.nodes))
        d = derivative(f, 1)
        np.testing.assert_allclose(d.values, np.cos(g.nodes), atol=1e-12)

    def test_sin_fifth(self):
        g = make_grid(np.pi, 2 * np.pi, 16)
        f = SampledField(g, np.sin(g.nodes))
        d = derivative(f, 5)
        np.testing.assert_allclose(d.values, np.cos(g.nodes), atol=1e-10)

    def test_breather_vs_richardson_fd(self):
        p = validate_params(2, 1, 0.3)
        g = make_grid(0.0, 80 * np.pi, 16384)
        f = sample_breather(p, 0.0, g)
        d = derivative(f, 1).values
        h = g.spacing
        v = f.values

        def central(stride):
            return (
                -np.roll(v, -2 * stride) + 8 * np.roll(v, -stride)
                - 8 * np.roll(v, stride) + np.roll(v, 2 * stride)
            ) / (12 * stride * h)

        fd = (16 * central(1) - central(2)) / 15
        assert np.max(np.abs(d - fd)) <= 1e-7 * np.max(np.abs(d))

    def test_composition_matches_second_order(self):
        f = gaussian_field()
        d2 = derivative(f, 2).values
        d11 = derivative(derivative(f, 1), 1).values
        assert np.max(np.abs(d11 - d2)) <= 1e-9 * np.max(np.abs(d2))

    def test_edge_violation(self):
        g = make_grid(0.0, 10.0, 64)
        with pytest.raises(EdgeDecayError):
            derivative(SampledField(g, g.nodes.copy()), 1)  # linear ramp

    def test_order_range(self):
        f = gaussian_field()
        with pytest.raises(ValueError):
            derivative(f, 6)
        with pytest.raises(ValueError):
            derivative(f, 0)


class TestDerivatives:
    """Several orders from one forward FFT, each as `derivative` computes it."""

    def counting_fft(self, monkeypatch):
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls

    def test_bitwise_equal_to_per_order(self, monkeypatch):
        p = validate_params(2, 1, 0.3)
        f = sample_breather(p, 0.0)
        single = [derivative(f, k).values for k in range(1, 6)]
        calls = self.counting_fft(monkeypatch)
        batch = derivatives(f, (1, 2, 3, 4, 5))
        assert calls == {"fft": 1, "ifft": 5}
        for got, want in zip(batch, single):
            assert np.array_equal(got.values, want)

    def test_invalid_order_raises_before_fft(self, monkeypatch):
        f = gaussian_field()
        calls = self.counting_fft(monkeypatch)
        for bad in ((1, 6), (2, 0), (1, 2.0)):
            with pytest.raises(ValueError, match="order"):
                derivatives(f, bad)
        assert calls == {"fft": 0, "ifft": 0}

    @pytest.mark.parametrize("bad_call", range(5))
    def test_residue_checked_for_each_order(self, monkeypatch, bad_call):
        # an imaginary part injected into one inverse transform trips the
        # check at that order, before any later transform runs
        f = gaussian_field()
        original = np.fft.ifft
        calls = []

        def ifft(spec):
            out = original(spec)
            if len(calls) == bad_call:
                out = out + 1j * np.max(np.abs(out))
            calls.append(1)
            return out

        monkeypatch.setattr(np.fft, "ifft", ifft)
        with pytest.raises(EdgeDecayError, match="imaginary residue"):
            derivatives(f, (1, 2, 3, 4, 5))
        assert len(calls) == bad_call + 1


class TestNorms:
    def test_h0_is_l2(self):
        f = gaussian_field()
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_h1_identity(self):
        f = gaussian_field()
        lhs = sobolev_norm(f, 1.0) ** 2
        rhs = l2_norm(f) ** 2 + l2_norm(derivative(f, 1)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_modulated_profile_norm_constancy(self):
        # 2 beta cos(alpha x) sech(beta x) with beta = alpha^{-2s}, s = 1/2:
        # H^s norm should be constant in alpha within a factor 2
        s = 0.5
        norms = []
        for alpha in (16.0, 32.0, 64.0):
            beta = alpha ** (-2 * s)
            length = 80.0 / beta
            n = 2 ** math.ceil(math.log2(length * 10 * alpha / (2 * np.pi)))
            g = make_grid(0.0, length, n)
            v = 2 * beta * np.cos(alpha * g.nodes) / np.cosh(beta * g.nodes)
            norms.append(sobolev_norm(SampledField(g, v), s) ** 2)
        assert max(norms) / min(norms) < 2.0

    def test_monotone_in_s(self, rng):
        f = gaussian_field()
        ss = sorted(rng.uniform(-2, 3, size=6))
        ns = [sobolev_norm(f, s) for s in ss]
        assert all(a <= b * (1 + 1e-13) for a, b in zip(ns, ns[1:]))

    def test_sech_l2(self):
        g = make_grid(0.0, 200.0, 4096)
        f = SampledField(g, 1 / np.cosh(g.nodes))
        assert l2_norm(f) ** 2 == pytest.approx(2.0, abs=1e-10)

    def test_inner_product_definition(self):
        f = gaussian_field()
        assert inner_product(f, f) == pytest.approx(l2_norm(f) ** 2, rel=1e-14)

    def test_separated_bumps_orthogonal(self):
        g = make_grid(0.0, 200.0, 8192)
        a = SampledField(g, 1 / np.cosh(g.nodes + 40.0))
        b = SampledField(g, 1 / np.cosh(g.nodes - 40.0))
        assert abs(inner_product(a, b)) <= 1e-12

    def test_inner_product_grid_mismatch(self):
        a = gaussian_field(points=4096)
        b = gaussian_field(points=2048)
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    def test_parseval(self, rng):
        # h*sum(v^2) vs the continuum-normalized spectral sum
        g = make_grid(0.0, 100.0, 1024)
        for _ in range(100):
            spec = np.zeros(g.points, dtype=complex)
            band = rng.integers(1, 60)
            coeffs = rng.normal(size=band) + 1j * rng.normal(size=band)
            spec[1 : band + 1] = coeffs
            spec[-band:] = np.conj(coeffs[::-1])
            v = np.fft.ifft(spec).real
            f = SampledField(g, v)
            direct = g.spacing * np.sum(v**2)
            spectral = g.spacing**2 / g.length * np.sum(np.abs(np.fft.fft(v)) ** 2)
            assert spectral == pytest.approx(direct, rel=1e-10)
            assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(direct), rel=1e-10)

    def test_modulation_preserves_l2(self):
        # ||exp(i alpha x) f||_L2 = ||f||_L2 with alpha on the frequency grid
        g = make_grid(0.0, 100.0, 2048)
        f = np.exp(-g.nodes**2 / 8.0)
        alpha = 2 * np.pi * 40 / g.length
        w = np.exp(1j * alpha * g.nodes) * f
        n_f = math.sqrt(g.spacing * np.sum(np.abs(f) ** 2))
        n_w = math.sqrt(g.spacing * np.sum(np.abs(w) ** 2))
        assert n_w == pytest.approx(n_f, rel=1e-10)


class TestMean:
    def test_constant(self):
        g = make_grid(0.0, 7.0, 64)
        assert mean(SampledField(g, np.full(64, 3.0))) == pytest.approx(21.0, rel=1e-14)

    def test_odd_function(self):
        g = make_grid(0.0, 40.0, 512)
        v = g.nodes * np.exp(-g.nodes**2)
        assert abs(mean(SampledField(g, v))) <= 1e-14


class TestUnionDistance:
    def test_identical_fields(self):
        f = gaussian_field()
        assert window_union_distance(f, f, 0.5) == 0.0

    def test_shared_grid_s0_is_l2(self):
        a = gaussian_field(width=1.0)
        b = gaussian_field(width=2.0)
        d = window_union_distance(a, b, 0.0)
        diff = SampledField(a.grid, a.values - b.values)
        assert d == pytest.approx(l2_norm(diff), rel=1e-12)

    def test_disjoint_pythagoras(self):
        # union-grid FFT against the direct sum of squared norms
        p = validate_params(8.0, 0.125, 0.05)
        s = 0.5
        v1 = sample_breather(p, 0.0)
        g1 = v1.grid
        h = g1.spacing
        shift = round(1.5 * g1.length / h) * h
        g2 = Grid(g1.center + shift, g1.length, g1.points)
        p2 = validate_params(p.alpha, p.beta, p.mu, x1=-shift, x2=-shift)
        v2 = sample_breather(p2, 0.0, g2)
        du = window_union_distance(v1, v2, s)
        dp = math.sqrt(sobolev_norm(v1, s) ** 2 + sobolev_norm(v2, s) ** 2)
        assert du == pytest.approx(dp, rel=1e-8)
        assert window_union_inner(v1, v2) == 0.0

    def test_far_separated_falls_back_to_pythagoras(self):
        p = validate_params(8.0, 0.125, 0.05)
        v1 = sample_breather(p, 0.0)
        g1 = v1.grid
        h = g1.spacing
        shift = round(1e7 / h) * h
        g2 = Grid(g1.center + shift, g1.length, g1.points)
        p2 = validate_params(p.alpha, p.beta, p.mu, x1=-shift, x2=-shift)
        v2 = sample_breather(p2, 0.0, g2)
        d = window_union_distance(v1, v2, 0.5, max_union_points=2**22)
        want = math.sqrt(sobolev_norm(v1, 0.5) ** 2 + sobolev_norm(v2, 0.5) ** 2)
        assert d == pytest.approx(want, rel=1e-13)

    def test_overlapping_windows_identical_content(self):
        # the same function seen through two half-overlapping windows:
        # the union difference must vanish, Pythagoras would be badly wrong
        p = validate_params(8.0, 0.125, 0.05)
        v1 = sample_breather(p, 0.0)
        g1 = v1.grid
        h = g1.spacing
        g2 = Grid(g1.center + round(0.125 * g1.length / h) * h, g1.length, g1.points)
        v2 = sample_breather(p, 0.0, g2)
        assert window_overlap(g1, g2) == pytest.approx(0.875, abs=1e-12)
        d = window_union_distance(v1, v2, 0.5)
        assert d <= 1e-9
        assert window_union_inner(v1, v2) == pytest.approx(l2_norm(v1) ** 2, rel=1e-10)

    def test_spacing_mismatch_rejected(self):
        a = gaussian_field(points=4096)
        b = gaussian_field(length=100.0, points=4096, center=300.0)
        with pytest.raises(GridMismatchError):
            window_union_distance(a, b, 0.5)

    def test_misaligned_lattice_rejected(self):
        a = gaussian_field()
        g = Grid(a.grid.center + 0.4 * a.grid.spacing + 60.0, a.grid.length, a.grid.points)
        b = SampledField(g, np.exp(-((g.nodes - g.center) ** 2) / 2))
        with pytest.raises(GridMismatchError):
            window_union_distance(a, b, 0.5)
