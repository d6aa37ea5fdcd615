"""Tests of the benchmark harness itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import os
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gardner5 import breather, experiment, residuals  # noqa: E402

MKDV_TUPLE = ((2.0, 1.0, 0.0, 0.3, -0.2), 0.1)
GARDNER_TUPLE = ((2.0, 1.0, 0.3, 0.3, -0.2), -0.1)


def span(sid, start, end, parent=None, name="x"):
    return tracing.Span(sid, name, start, end, parent, 0)


def test_self_time_of_synthetic_tree():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 3.0, parent=1),
        span(3, 2.0, 5.0, parent=1),    # overlaps span 2, as parallel rows do
        span(4, 8.0, 9.0, parent=1),
        span(5, 1.5, 2.5, parent=2),    # grandchild: not subtracted from span 1
        span(6, 9.5, 11.0, parent=1),   # runs past its parent's end: clipped
    ]
    self_s = tracing.self_times(spans)
    assert self_s[1] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert self_s[2] == pytest.approx(1.0)
    assert self_s[3] == pytest.approx(3.0)
    assert self_s[5] == pytest.approx(1.0)


def test_layer_metrics_derive_from_spans():
    spans = [
        tracing.Span(1, "cli.main", 0.0, 4.0, None, 0),
        tracing.Span(2, "solver.evolve", 0.5, 3.5, 1, 0, {"steps": 100}),
        tracing.Span(3, "solver.conserved_diagnostics", 3.0, 3.5, 2, 0),
    ]
    m = tracing.layer_metrics(spans, units=2)
    assert m["cli.main.self_s"] == pytest.approx(1.0 / 2)
    assert m["solver.evolve.self_s"] == pytest.approx(2.5 / 2)
    assert m["solver.steps"] == 50
    assert m["solver.rhs_calls"] == 200
    assert m["solver.step_us"] == pytest.approx(2.5 / 100 * 1e6)


@pytest.fixture
def verify_work(tmp_path):
    return workloads.Verify(seed=0, workdir=tmp_path)


@pytest.mark.parametrize("case", [MKDV_TUPLE, GARDNER_TUPLE])
def test_verify_checks_pass_and_injected_corruption_fails(verify_work, case):
    clean = workloads.Tally()
    verify_work.one(*case, clean)
    assert clean.failed == 0 and clean.attempted == (7 if case[0][2] == 0.0 else 5)

    corrupt = workloads.Tally()
    verify_work.one(*case, corrupt, corrupt=True)
    assert corrupt.attempted == clean.attempted
    assert any(what.startswith("verify pde") for what in corrupt.failures)


def test_changed_csv_byte_is_failed(tmp_path):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"alphas": [8]}), encoding="utf-8")
    assert workloads.run_cli(["illposed", "--config", str(config),
                              "--out", str(tmp_path)]) == 0
    csv = tmp_path / "scan.csv"
    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    ok = workloads.Tally()
    workloads.check_scan(tmp_path, digest, ok, "scan")
    assert (ok.attempted, ok.failed) == (2, 0)

    data = bytearray(csv.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    csv.write_bytes(bytes(data))
    bad = workloads.Tally()
    workloads.check_scan(tmp_path, digest, bad, "scan")
    assert (bad.attempted, bad.failed) == (2, 1)
    assert list(bad.failures) == ["scan scan.csv sha256"]


@pytest.mark.parametrize("case, rational, derivative", [
    # pde_residual: 8 for the Richardson time derivative + 1 sample; elliptic 1;
    # verify's own dual-form sample 1; at mu = 0 mkdv5_residual repeats pde's 9
    (MKDV_TUPLE, 20, 14),
    (GARDNER_TUPLE, 11, 9),
])
def test_patching_reaches_every_namespace(verify_work, case, rational, derivative):
    original = breather.eval_rational
    tracer = tracing.Tracer()
    with tracer:
        assert residuals.eval_rational is not original
        assert experiment.eval_rational is not original
        verify_work.one(*case, workloads.Tally())
    assert residuals.eval_rational is original
    assert experiment.eval_rational is original
    names = [s.name for s in tracer.spans]
    assert names.count("breather.eval_rational") == rational
    assert names.count("fourier.derivative") == derivative
    assert names.count("cli.main") == 1


def test_worker_spans_link_to_run_scan(monkeypatch):
    monkeypatch.setenv("GARDNER5_THREADS", "2")
    tracer = tracing.Tracer()
    with tracer:
        experiment.run_scan(experiment.ExperimentConfig(alphas=(8.0, 16.0)))
    assert experiment.ThreadPoolExecutor is tracing.ThreadPoolExecutor
    (scan,) = [s for s in tracer.spans if s.name == "experiment.run_scan"]
    rows = [s for s in tracer.spans if s.name == "experiment.measure_pair"]
    assert sorted(s.tags["alpha"] for s in rows) == [8.0, 16.0]
    assert all(s.parent == scan.id for s in rows)
    assert all(s.thread != threading.get_ident() for s in rows)
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "fourier.sobolev_norm" and s.parent is not None:
            assert by_id[s.parent].name in ("experiment.measure_pair",
                                            "fourier.window_union_distance")


def test_verify_pool_is_seeded():
    a, b = workloads.verify_pool(7), workloads.verify_pool(7)
    assert a == b and a != workloads.verify_pool(8)
    mu_zero = sum(params[2] == 0.0 for params, _ in a)
    assert 0.15 * len(a) < mu_zero < 0.35 * len(a)
    assert all(-0.5 < t < 0.5 for _, t in a)


def test_run_facts_cap_threads_at_nproc():
    facts = run.run_facts(3)
    assert facts["seed"] == 3
    assert 1 <= facts["gardner5_threads"] <= facts["nproc"] == (os.cpu_count() or 1)
