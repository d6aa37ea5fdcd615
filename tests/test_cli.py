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

    def test_corruption_injection_detected(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--params", "2,1,0.3", "--inject-corruption",
                   "--tolerance", "zero_mean=1.0", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert rc == 1
        assert not doc["checks"]["pde"]["pass"]
        assert doc["checks"]["pde"]["sup_rel"] >= 1e-4


class TestVerifyCost:
    """Each verify samples its breather once: 6 stencil times plus t itself."""

    def count_samples(self, monkeypatch, argv):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return eval_rational(*args)

        for module in (breather, residuals):
            monkeypatch.setattr(module, "eval_rational", counted)
        main(argv)
        return len(calls)

    @pytest.mark.parametrize("params, corrupt, samples", [
        ("2,1,0.3", False, 7),
        ("1,1,0", False, 7),
        ("1,1,0", True, 14),    # mkdv5 reruns on the clean data
    ])
    def test_eval_rational_calls(self, tmp_path, monkeypatch, params, corrupt, samples):
        argv = ["verify", "--params", params, "--out", str(tmp_path / "v.json")]
        argv += ["--inject-corruption"] if corrupt else []
        assert self.count_samples(monkeypatch, argv) == samples

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
