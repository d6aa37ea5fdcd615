"""Frequency-pair selection, scan rows, verdict logic, CSV determinism."""

import numpy as np
import pytest

from gardner5 import (
    ExperimentConfig,
    breather_integral,
    choose_T,
    choose_beta,
    choose_frequencies,
    eval_approx,
    eval_rational,
    l2_norm,
    mean,
    measure_pair,
    run_scan,
    sample_breather,
    scan_to_csv,
    separation_ratio,
    validate_params,
)
from gardner5 import experiment
from gardner5.experiment import (
    CSV_HEADER,
    VERDICT_NONE,
    VERDICT_SIGNATURE,
    ExperimentConfigError,
)

SMALL_SCAN = ExperimentConfig(alphas=(8.0, 16.0))


class TestSelection:
    def test_choose_beta_examples(self):
        assert choose_beta(16.0, 0.5) == pytest.approx(0.0625, rel=1e-15)
        assert choose_beta(64.0, 0.5) == pytest.approx(0.015625, rel=1e-15)
        assert choose_beta(5.0, 0.0) == 1.0

    def test_choose_frequencies_example(self):
        a1, a2 = choose_frequencies(16.0, 0.5, 0.1)
        assert a1 == pytest.approx(16.003125, rel=1e-14)
        assert a2 == pytest.approx(15.996875, rel=1e-14)

    def test_selection_identity_example(self):
        a1, a2 = choose_frequencies(16.0, 0.5, 0.1)
        assert abs(16.0 * (a1 - a2) - 0.1) <= 1e-14

    def test_selection_identity(self, rng):
        # exact up to the single rounding that float subtraction of the
        # nearly equal endpoints admits: eps * alpha^(1+2s)
        for _ in range(25):
            alpha = float(rng.uniform(8, 128))
            s = float(rng.uniform(0.1, 0.74))
            delta = float(rng.uniform(0.01, 1.0))
            a1, a2 = choose_frequencies(alpha, s, delta)
            cap = 2.3e-16 * alpha ** (1 + 2 * s)
            assert abs(alpha ** (2 * s) * (a1 - a2) - delta) <= cap

    def test_degenerate_separation(self):
        a1, a2 = choose_frequencies(16.0, 0.5, 1e-13)
        assert a1 == pytest.approx(16.0, abs=1e-13)
        assert a2 == pytest.approx(16.0, abs=1e-13)

    def test_negative_alpha2_rejected(self):
        with pytest.raises(ExperimentConfigError):
            choose_frequencies(8.0, 0.5, 200.0)

    def test_choose_T_examples(self):
        assert choose_T(16.0, 0.5, 0.1, 100.0) == pytest.approx(62.5, rel=1e-14)
        assert choose_T(64.0, 0.5, 0.1, 100.0) == pytest.approx(15.625, rel=1e-14)
        # boundary index: T independent of alpha
        assert choose_T(8.0, 0.75, 0.1, 100.0) == choose_T(64.0, 0.75, 0.1, 100.0)

    def test_choose_T_margin_floor(self):
        with pytest.raises(ExperimentConfigError):
            choose_T(16.0, 0.5, 0.1, 5.0)

    def test_separation_ratio_matches_margin(self):
        alpha, s, delta, margin = 16.0, 0.5, 0.1, 100.0
        beta = choose_beta(alpha, s)
        a1, a2 = choose_frequencies(alpha, s, delta)
        T = choose_T(alpha, s, delta, margin)
        assert separation_ratio(alpha, a1, a2, T, beta) == pytest.approx(margin, rel=1e-12)
        assert separation_ratio(alpha, a1, a2, 0.0, beta) == 0.0


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ExperimentConfigError, match="unknown"):
            ExperimentConfig.from_dict({"s": 0.5, "bogus": 1})

    def test_alpha_floor(self):
        with pytest.raises(ExperimentConfigError, match="alpha"):
            ExperimentConfig(alphas=(4.0,))

    def test_roundtrip(self):
        cfg = ExperimentConfig.from_dict({"s": 0.25, "alphas": [8, 32]})
        assert cfg.alphas == (8.0, 32.0)
        assert cfg.to_dict()["s"] == 0.25


class TestBuildInitial:
    # the scan's t = 0 data: exact breathers sampled on experiment_grid
    def test_norm_and_mean(self):
        # the t = 0 norms of alphas 8 and 16 share a factor-2 band, and the
        # scan's t = 0 window holds the closed-form integral of each breather
        cfg = ExperimentConfig()
        rows = [measure_pair(cfg, alpha) for alpha in (8.0, 16.0)]
        norms = [r.norm0_1 for r in rows]
        assert max(norms) / min(norms) <= 2.0
        for r in rows:
            p = validate_params(r.alpha1, r.beta, cfg.mu)
            grid = experiment.experiment_grid(r.alpha1, r.beta, cfg.window_widths,
                                              cfg.points_per_period)
            fld = sample_breather(p, 0.0, grid)
            cap = 1e-10 * (1 + l2_norm(fld))
            assert abs(mean(fld) - breather_integral(p)) <= cap

    def test_approximation_gap_small_regime(self):
        # beta/alpha = 1/256: sup gap below 5% of the 2*beta peak
        p = validate_params(256.0, 1.0, 0.0)
        x = experiment.experiment_grid(256.0, 1.0, 80.0, 10.0).nodes
        gap = np.max(np.abs(eval_rational(p, 0.0, x) - eval_approx(p, 0.0, x)))
        assert gap <= 0.05 * 2.0 * 1.0


class TestMeasurePair:
    def test_headline_row_figures(self):
        cfg = ExperimentConfig()
        row = measure_pair(cfg, 8.0)
        assert row.beta == pytest.approx(0.125, rel=1e-15)
        assert row.separation_ratio == pytest.approx(100.0, rel=1e-12)
        assert row.separation_ok
        # Pythagorean split at large separation
        assert row.distT**2 == pytest.approx(
            row.normT_1**2 + row.normT_2**2, rel=1e-6
        )
        assert row.cross_T <= 0.01 * row.beta
        assert row.dist0 < 0.25
        assert 1.5 < row.norm0_1 < 2.5

    def test_norm_time_invariance(self):
        row = measure_pair(ExperimentConfig(), 8.0)
        assert row.normT_1 == pytest.approx(row.norm0_1, rel=1e-6)
        assert row.normT_2 == pytest.approx(row.norm0_2, rel=1e-6)

    def test_l2_norm_time_invariance(self):
        # the rigidly transported profile: carrier-phase effects on the L^2
        # norm are exp(-pi alpha/beta)-suppressed, far below 1e-8
        from gardner5 import envelope_center, eval_rational
        from gardner5.fourier import Grid, SampledField

        cfg = ExperimentConfig()
        p = validate_params(8.0, choose_beta(8.0, cfg.s), cfg.mu)
        T = choose_T(8.0, cfg.s, cfg.delta, cfg.T_margin)
        g0 = experiment.experiment_grid(8.01, p.beta, cfg.window_widths,
                                        cfg.points_per_period)
        h = g0.spacing
        gT = Grid(round(envelope_center(p, T) / h) * h, g0.length, g0.points)
        n0 = l2_norm(SampledField(g0, eval_rational(p, 0.0, g0.nodes)))
        nT = l2_norm(SampledField(gT, eval_rational(p, T, gT.nodes)))
        assert nT == pytest.approx(n0, rel=1e-8)

    def test_delta_scaling(self):
        a = measure_pair(ExperimentConfig(delta=0.1, alphas=(8.0,)), 8.0)
        b = measure_pair(ExperimentConfig(delta=0.05, alphas=(8.0,)), 8.0)
        assert 1.8 <= a.dist0 / b.dist0 <= 2.2
        # squared distance scales like delta^2
        assert 3.2 <= a.dist0**2 / b.dist0**2 <= 4.8
        assert a.distT == pytest.approx(b.distT, rel=0.1)

    def test_overlap_forces_common_grid(self, monkeypatch):
        # shrink T so the time-T windows overlap: slow path plus warning
        monkeypatch.setattr(experiment, "choose_T", lambda *a: 1e-4)
        with pytest.warns(UserWarning, match="common-grid"):
            row = measure_pair(ExperimentConfig(), 8.0)
        assert not row.separation_ok
        # the waves have barely moved: the union-grid distance resolves the
        # true (small) separation instead of the Pythagorean overcount
        assert row.distT == pytest.approx(row.dist0, rel=0.05)
        assert row.distT < 0.2 * row.normT_1
        # actual inner product ~ ||v||_L2^2 = 0.5, not a tail bound
        assert row.cross_T == pytest.approx(0.5, rel=0.2)


class TestRunScan:
    def test_small_scan_signature(self):
        res = run_scan(SMALL_SCAN)
        assert res.verdict == VERDICT_SIGNATURE
        assert [r.alpha for r in res.rows] == [8.0, 16.0]
        assert res.bands["cond_norm_band"]
        assert res.bands["cond_dist0_bounded"]
        assert res.bands["cond_distT_floored"]
        for r in res.rows:
            # selection identity at the float-cancellation limit, and the
            # normalized time-T distance floor distT^2 >= 0.25 beta alpha^2s
            s = res.config.s
            cap = 2.3e-16 * r.alpha ** (1 + 2 * s)
            assert abs(r.alpha ** (2 * s) * (r.alpha1 - r.alpha2) - res.config.delta) <= cap
            assert r.distT**2 >= 0.25 * r.beta * r.alpha ** (2 * s)

    def test_contrast_run_no_verdict(self):
        res = run_scan(ExperimentConfig(s=0.75, alphas=(8.0, 16.0)))
        assert res.verdict == VERDICT_NONE
        assert len(res.rows) == 2

    def test_csv_shape_and_determinism(self):
        res1 = run_scan(SMALL_SCAN)
        res2 = run_scan(SMALL_SCAN)
        csv1 = scan_to_csv(res1.rows)
        csv2 = scan_to_csv(res2.rows)
        assert csv1 == csv2
        lines = csv1.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert all(len(line.split(",")) == 11 for line in lines[1:])

    def test_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("GARDNER5_THREADS", "1")
        seq = scan_to_csv(run_scan(SMALL_SCAN).rows)
        monkeypatch.setenv("GARDNER5_THREADS", "2")
        par = scan_to_csv(run_scan(SMALL_SCAN).rows)
        assert seq == par

    def test_mu_zero_scan(self):
        res = run_scan(ExperimentConfig(mu=0.0, alphas=(8.0, 16.0)))
        assert res.verdict == VERDICT_SIGNATURE
