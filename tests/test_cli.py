"""Command-line surface: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from gardner5 import breather, eval_rational, residuals, validate_params
from gardner5.cli import main
from gardner5.experiment import CSV_HEADER


def read_csv_column(path, col):
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index(col)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


class TestEval:
    def test_writes_profile(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["eval", "--params", "1,1,0", "--grid", "0,100,2048",
                   "--out", str(out)])
        assert rc == 0
        vals = read_csv_column(out, "value")
        xs = read_csv_column(out, "x")
        p = validate_params(1, 1, 0)
        np.testing.assert_allclose(vals, eval_rational(p, 0.0, xs), atol=1e-14)
        assert np.max(np.abs(vals)) == pytest.approx(2.0, abs=1e-3)

    def test_approx_vs_rational_gap(self, tmp_path):
        # beta/alpha = 1/64: columns differ below 5% of the 2*beta peak
        a = tmp_path / "approx.csv"
        r = tmp_path / "rational.csv"
        for form, path in (("approx", a), ("rational", r)):
            rc = main(["eval", "--params", "64,1,0", "--form", form,
                       "--out", str(path)])
            assert rc == 0
        gap = np.max(np.abs(read_csv_column(a, "value") - read_csv_column(r, "value")))
        assert gap <= 0.05 * 2.0

    def test_arctan_form(self, tmp_path):
        out = tmp_path / "arc.csv"
        rc = main(["eval", "--params", "2,1,0.3", "--form", "arctan",
                   "--out", str(out)])
        assert rc == 0
        p = validate_params(2, 1, 0.3)
        xs = read_csv_column(out, "x")
        vals = read_csv_column(out, "value")
        ref = eval_rational(p, 0.0, xs)
        assert np.max(np.abs(vals - ref)) <= 1e-9 * (1 + np.max(np.abs(ref)))

    def test_invalid_delta_exit2_no_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["eval", "--params", "1,1,1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "Delta" in capsys.readouterr().err


class TestVerify:
    def test_mkdv_all_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--params", "1,1,0", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert rc == 0
        assert doc["all_pass"]
        assert set(doc["checks"]) == {"pde", "elliptic", "dual_form", "zero_mean", "mkdv5"}
        assert all(c["pass"] for c in doc["checks"].values())

    def test_gardner_zero_mean_fails_at_default_tolerance(self, tmp_path):
        # for mu > 0 the breather integral is 2*arctan(-4 mu beta / Delta),
        # so the zero-mean check cannot pass at its default tolerance even
        # though the residual and dual-form checks do
        out = tmp_path / "verify.json"
        rc = main(["verify", "--params", "2,1,0.3", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert rc == 1
        checks = doc["checks"]
        assert checks["pde"]["pass"]
        assert checks["elliptic"]["pass"]
        assert checks["dual_form"]["pass"]
        assert not checks["zero_mean"]["pass"]
        assert checks["zero_mean"]["value"] == pytest.approx(
            checks["zero_mean"]["closed_form"], rel=1e-8
        )

    def test_tolerance_override(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--params", "2,1,0.3", "--out", str(out),
                   "--tolerance", "zero_mean=1.0"])
        assert rc == 0
        assert json.loads(out.read_text())["all_pass"]

    def test_unknown_tolerance_key(self, tmp_path):
        rc = main(["verify", "--params", "2,1,0.3", "--tolerance", "bogus=1"])
        assert rc == 2

    def test_negative_scientific_time(self, tmp_path):
        # argparse alone rejects "--time -1.2e-05" as a missing argument
        out = tmp_path / "verify.json"
        rc = main(["verify", "--params", "2,1,0", "--time", "-1.2e-05",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["time"] == -1.2e-05

    def test_negative_grid_center(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["eval", "--params", "1,1,0", "--grid", "-5,100,2048",
                   "--out", str(out)])
        assert rc == 0
        assert read_csv_column(out, "x").mean() == pytest.approx(-5.0, abs=0.1)

    def test_unresolvable_spectrum_exit2(self, tmp_path, monkeypatch, capsys):
        # white noise never resolves: the grid doubling stops at 2^20 points
        rng = np.random.default_rng(0)
        sizes = []

        def noise(params, t, x):
            sizes.append(np.size(x))
            return rng.standard_normal(np.size(x))

        monkeypatch.setattr(breather, "eval_rational", noise)
        out = tmp_path / "verify.json"
        rc = main(["verify", "--params", "2,1,0.3", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert sizes == [2**k for k in range(8, 21)]
        assert "not resolved" in capsys.readouterr().err

    def test_corruption_injection_detected(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--params", "2,1,0.3", "--inject-corruption",
                   "--tolerance", "zero_mean=1.0", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert rc == 1
        assert not doc["checks"]["pde"]["pass"]
        assert doc["checks"]["pde"]["sup_rel"] >= 1e-4


class TestVerifyCost:
    """Each verify samples its breather once on its grid: 6 stencil times plus t.

    Sizing the default grid samples each coarser power of two at most once.
    """

    def sample_sizes(self, monkeypatch, argv):
        sizes = []

        def counted(params, t, x):
            sizes.append(np.size(x))
            return eval_rational(params, t, x)

        for module in (breather, residuals):
            monkeypatch.setattr(module, "eval_rational", counted)
        main(argv)
        return sizes

    @pytest.mark.parametrize("params, corrupt, samples", [
        ("2,1,0.3", False, 7),
        ("1,1,0", False, 7),
        ("1,1,0", True, 14),    # mkdv5 reruns on the clean data
    ])
    def test_eval_rational_calls(self, tmp_path, monkeypatch, params, corrupt, samples):
        out = tmp_path / "v.json"
        argv = ["verify", "--params", params, "--out", str(out)]
        argv += ["--inject-corruption"] if corrupt else []
        sizes = self.sample_sizes(monkeypatch, argv)
        n = json.loads(out.read_text())["grid"]["points"]
        assert sizes.count(n) == samples
        coarser = [k for k in sizes if k != n]
        assert all(k < n and k & (k - 1) == 0 for k in coarser)
        assert len(set(coarser)) == len(coarser)

    def test_mkdv5_reuses_pde_report_at_mu_zero(self, tmp_path):
        out = tmp_path / "verify.json"
        main(["verify", "--params", "1,1,0", "--tolerance", "mkdv5=1e-5",
              "--out", str(out)])
        checks = json.loads(out.read_text())["checks"]
        pde, mk = checks["pde"], checks["mkdv5"]
        assert mk["tolerance"] == 1e-5 and pde["tolerance"] == 1e-6
        assert {k: mk[k] for k in mk if k != "tolerance"} == {
            k: pde[k] for k in pde if k != "tolerance"}

    def test_mkdv5_checks_clean_data_under_corruption(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--params", "1,1,0", "--inject-corruption",
                   "--out", str(out)])
        checks = json.loads(out.read_text())["checks"]
        assert rc == 1
        assert not checks["pde"]["pass"]
        assert checks["mkdv5"]["pass"]


# Tuples of the benchmark's verify pools (perfbench/workloads.py verify_pool
# at the seed in each id) on which the former default grid, 20 points per
# period of alpha + 4 beta, under-resolved the breather and missed a check
UNDER_RESOLVED = [
    pytest.param((3.5072819627530305, 1.0254835172432923, 1.6206405274195619,
                  1.172183249806749, -1.4447643801200325), 0.11025932843668551,
                 id="seed6"),
    pytest.param((3.2255000893531216, 0.8773452722823067, 1.3671589531983774,
                  2.3171828985844964, -2.3138571575134836), -0.18479814141137074,
                 id="seed7"),
    pytest.param((2.660537180587168, 0.7978296144512342, 1.2464622562498566,
                  -0.0644929100610443, -2.707197059856644), -0.24860119790452528,
                 id="seed14"),
    pytest.param((3.719352570810804, 0.9056646408173024, 0.07098669989201253,
                  -0.22321777677026944, 0.012008741106710907), -0.4727596443729334,
                 id="seed20"),
    pytest.param((3.342808481563027, 0.8829595803050476, 1.4675358669654055,
                  -1.1330232958064523, 1.1432523920454534), -0.2382682945099993,
                 id="seed21"),
    pytest.param((3.64716890863728, 0.9569533555026262, 1.6557482616534736,
                  -1.265498355253796, -2.734295299572881), -0.011471414103634059,
                 id="seed27"),
    pytest.param((3.629126480270666, 1.1461531315220437, 1.7012634121702026,
                  1.9786219194180692, 2.294283624991248), 0.12000332979847039,
                 id="seed32"),
    pytest.param((3.9709011817058544, 0.9757120234617365, 0.0,
                  -0.5813643801194095, 0.684966488178687), 0.3434402936069,
                 id="seed38a"),
    pytest.param((2.0356860199633036, 0.541378008393124, 0.9337300181736229,
                  -0.48059644607046614, -2.347062389829496), 0.09458073828368485,
                 id="seed38b"),
    pytest.param((3.758606455479135, 0.9875679560734003, 1.653194893206661,
                  -0.4885216984986154, -0.4961681202238548), -0.2342895183604956,
                 id="seed47"),
]


@pytest.mark.parametrize("params, t", UNDER_RESOLVED)
def test_default_grid_passes_benchmark_checks(tmp_path, params, t):
    # every check the benchmark applies to a verify report, at its own
    # tolerances (the CLI defaults, restated so they cannot loosen)
    out = tmp_path / "verify.json"
    rc = main(["verify", "--params", ",".join(repr(v) for v in params),
               f"--time={t!r}", "--out", str(out)])
    doc = json.loads(out.read_text())
    checks = doc["checks"]
    mu = params[2]
    sup_rel_caps = {"pde": 1e-6, "elliptic": 1e-7}
    if mu == 0.0:
        sup_rel_caps["mkdv5"] = 1e-6
    for key, cap in sup_rel_caps.items():
        assert checks[key]["sup_rel"] <= cap and checks[key]["pass"], key
    assert checks["dual_form"]["max_gap"] <= checks["dual_form"]["tolerance"]
    assert checks["dual_form"]["pass"]
    zero_mean = checks["zero_mean"]
    integral = breather.breather_integral(validate_params(*params))
    assert abs(zero_mean["value"] - integral) <= zero_mean["tolerance"]
    if mu == 0.0:
        assert zero_mean["pass"]
    assert rc == (0 if doc["all_pass"] else 1)


class TestEvolve:
    def write_config(self, tmp_path, **overrides):
        doc = {
            "params": [2, 1, 0.3],
            "grid": [0.0, 24 * np.pi, 640],
            "t_end": 0.01,
            "dt": 1.6e-7,
            "diagnostics_every": 12500,
        }
        doc.update(overrides)
        path = tmp_path / "evolve.json"
        path.write_text(json.dumps(doc))
        return path

    def test_breather_acceptance_run(self, tmp_path):
        cfg = self.write_config(tmp_path)
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "diagnostics.json").read_text())
        assert doc["comparison_error"] <= 1e-6
        assert doc["mass_drift"] <= 1e-10
        assert doc["l2_drift_relative"] <= 1e-8

    def test_records_step_rule_dt(self, tmp_path):
        # no dt in the config: the stability rule picks it, and the
        # diagnostics carry the step actually taken
        cfg = self.write_config(tmp_path, grid=[0.0, 20 * np.pi, 256],
                                t_end=1e-4, diagnostics_every=10**6)
        doc = json.loads(cfg.read_text())
        del doc["dt"]
        cfg.write_text(json.dumps(doc))
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert isinstance(diag["dt"], float)
        assert diag["steps"] >= 1
        assert diag["dt"] == pytest.approx(1e-4 / diag["steps"], rel=1e-15)
        assert diag["rhs_calls"] == 4 * diag["steps"]

    def test_zero_data_stays_zero(self, tmp_path):
        cfg = self.write_config(
            tmp_path, initial="zero",
            grid=[0.0, 20 * np.pi, 256], t_end=1e-4, dt=1e-5,
            diagnostics_every=5,
        )
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path),
                   "--dump-checkpoints"])
        assert rc == 0
        doc = json.loads((tmp_path / "diagnostics.json").read_text())
        assert doc["checkpoints"]
        for name in doc["checkpoints"]:
            vals = read_csv_column(tmp_path / name, "v")
            assert np.all(vals == 0.0)

    def test_oversized_dt_exit3(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, grid=[0.0, 20 * np.pi, 256], t_end=0.01, dt=2e-4,
            diagnostics_every=5,
        )
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert "guard" in capsys.readouterr().err

    def test_unknown_key_exit2(self, tmp_path):
        cfg = self.write_config(tmp_path, mystery=1)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_key_exit2(self, tmp_path):
        doc = {"params": [2, 1, 0.3], "grid": [0.0, 60.0, 256]}
        path = tmp_path / "evolve.json"
        path.write_text(json.dumps(doc))
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 2


class TestIllposed:
    def small_config(self, tmp_path, **overrides):
        doc = {"alphas": [8.0, 16.0]}
        doc.update(overrides)
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        return path

    def test_scan_outputs(self, tmp_path):
        cfg = self.small_config(tmp_path)
        rc = main(["illposed", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        csv_text = (tmp_path / "scan.csv").read_text()
        assert csv_text.splitlines()[0] == CSV_HEADER
        doc = json.loads((tmp_path / "verdict.json").read_text())
        assert doc["verdict"] == "ILL_POSED_SIGNATURE"
        assert len(doc["rows"]) == 2
        assert doc["config"]["alphas"] == [8.0, 16.0]

    def test_contrast_run_no_verdict(self, tmp_path):
        cfg = self.small_config(tmp_path, s=0.75)
        rc = main(["illposed", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "verdict.json").read_text())
        assert doc["verdict"] == "NO_VERDICT"

    def test_determinism(self, tmp_path):
        cfg = self.small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["illposed", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["illposed", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()

    def test_bad_config_exit2(self, tmp_path):
        cfg = self.small_config(tmp_path, nonsense=True)
        assert main(["illposed", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gardner5", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "illposed" in proc.stdout
