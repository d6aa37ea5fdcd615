"""The four workloads: seeded inputs, one fixed unit of work each, output checks.

Every workload drives gardner5 in-process through `gardner5.cli.main`, the
path a user takes, and checks what the CLI wrote.  Each check is one
operation; a check that misses is counted in `Tally.failed` and named in
`Tally.failures`, never dropped.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gardner5 import cli

# The CLI's default verify tolerances, held here so that a change to the
# CLI's defaults cannot loosen the benchmark's checks.
VERIFY_TOLERANCES = {"pde": 1e-6, "elliptic": 1e-7, "mkdv5": 1e-6}
VERIFY_POOL = 128

# Acceptance criterion 4: breather (2, 1, 0.3) on make_grid(0, 24 pi, 640) at
# dt = 1.6e-7.  The benchmark stops at t = 5e-4 (3,125 steps) instead of
# t = 0.01 (62,500 steps, ~40 s), so that several evolutions fit in one run;
# the comparison error is resolution-bound and already 8.6e-7 at t = 5e-4.
EVOLVE_CONFIG = {
    "params": [2.0, 1.0, 0.3],
    "grid": [0.0, 24.0 * math.pi, 640],
    "t_end": 5e-4,
    "dt": 1.6e-7,
    "diagnostics_every": 625,
}
EVOLVE_BOUNDS = {"comparison_error": 1e-6, "mass_drift": 1e-10,
                 "l2_drift_relative": 1e-8}

# Scan configs and the sha256 of the scan.csv each writes, recorded from the
# seed commit (scan.csv is byte-deterministic).
SCANS = {
    "scan": ({}, (8.0, 16.0, 32.0, 64.0),
             "62754a5b67203d28bf6811c5a113877e58c30b3a8e86cfcb16061f76985aa303"),
    "scan-overlap": ({"T_margin": 10, "window_widths": 400}, (8.0, 16.0, 32.0),
                     "2dd88e928d63bbd8a44ee78fb0cdae7c1e0bce88dc2df9abc6c70862ca5b75ec"),
}
SCAN_VERDICT = "ILL_POSED_SIGNATURE"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] += 1


def run_cli(argv) -> int:
    """cli.main with its stdout (evolve summary, scan verdict) kept off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def verify_pool(seed: int, size: int = VERIFY_POOL) -> list[tuple[tuple, float]]:
    """Tuples from acceptance criterion 2's distribution, a quarter at mu = 0.

    Draws in the order of tests/conftest.py's random_valid_params, preceded
    by the mu = 0 coin and followed by t in (-0.5, 0.5).
    """
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(size):
        mu_zero = rng.random() < 0.25
        alpha = float(rng.uniform(0.6, 4.0))
        beta = float(rng.uniform(0.3, 3.0))
        if mu_zero:
            mu = 0.0
        else:
            mu = float(rng.uniform(0.0, 1.0) ** 2 * 0.45 * math.hypot(alpha, beta))
        x1 = float(rng.uniform(-3.0, 3.0))
        x2 = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(-0.5, 0.5))
        pool.append(((alpha, beta, mu, x1, x2), t))
    return pool


def verify_argv(params: tuple, t: float, out: Path, corrupt: bool = False) -> list[str]:
    # --time=<t>: argparse reads a separate "-1.2e-05" as an option, not a value
    argv = ["verify", "--params", ",".join(repr(v) for v in params),
            f"--time={t!r}", "--out", str(out)]
    return argv + ["--inject-corruption"] if corrupt else argv


def check_verify(doc: dict, rc: int, params: tuple, tally: Tally) -> None:
    """One operation per check the report must pass for an exact solution."""
    alpha, beta, mu = params[:3]
    tag = ",".join(f"{v:.6g}" for v in params)
    checks = doc.get("checks", {})
    for key, tol in VERIFY_TOLERANCES.items():
        if key == "mkdv5" and mu != 0.0:
            continue
        c = checks.get(key, {})
        tally.check(c.get("sup_rel", math.inf) <= tol and c.get("pass") is True,
                    f"verify {key} ({tag})")
    c = checks.get("dual_form", {})
    tally.check(c.get("max_gap", math.inf) <= c.get("tolerance", -1.0)
                and c.get("pass") is True, f"verify dual_form ({tag})")
    # the window integral must be the closed form 2 arctan(-4 mu beta / Delta);
    # it is zero, and the strict zero-mean check applies, only at mu = 0
    c = checks.get("zero_mean", {})
    integral = 2.0 * math.atan2(-4.0 * mu * beta, alpha**2 + beta**2 - 4.0 * mu**2)
    tally.check(abs(c.get("value", math.inf) - integral) <= c.get("tolerance", -1.0),
                f"verify integral ({tag})")
    if mu == 0.0:
        tally.check(c.get("pass") is True, f"verify zero_mean ({tag})")
    tally.check(rc == (0 if doc.get("all_pass") else 1), f"verify exit code ({tag})")


class Verify:
    """`gardner5 verify` over a seeded pool of tuples; the pool is one unit."""

    probe = "compute"       # speed probe its times are divided by (child.py)

    def __init__(self, seed: int, workdir: Path):
        self.pool = verify_pool(seed)
        self.out = workdir / "verify.json"

    def one(self, params, t, tally: Tally, corrupt: bool = False) -> int:
        rc = run_cli(verify_argv(params, t, self.out, corrupt))
        text = self.out.read_bytes()
        check_verify(json.loads(text), rc, params, tally)
        return len(text)

    def warmup(self) -> None:
        self.one(*self.pool[0], Tally())

    def unit(self, tally: Tally) -> int:
        return sum(self.one(params, t, tally) for params, t in self.pool)


class Evolve:
    """`gardner5 evolve` on the criterion-4 problem; one evolution is one unit."""

    probe = "compute"

    def __init__(self, seed: int, workdir: Path):
        self.config = workdir / "evolve.json"
        self.config.write_text(json.dumps(EVOLVE_CONFIG), encoding="utf-8")
        self.out = workdir / "evolve"
        warm = dict(EVOLVE_CONFIG, t_end=100 * EVOLVE_CONFIG["dt"])
        self.warm_config = workdir / "evolve-warmup.json"
        self.warm_config.write_text(json.dumps(warm), encoding="utf-8")

    def warmup(self) -> None:
        run_cli(["evolve", "--config", str(self.warm_config), "--out", str(self.out)])

    def unit(self, tally: Tally) -> int:
        rc = run_cli(["evolve", "--config", str(self.config), "--out", str(self.out)])
        text = (self.out / "diagnostics.json").read_bytes()
        doc = json.loads(text)
        tally.check(rc == 0, "evolve exit code")
        for key, bound in EVOLVE_BOUNDS.items():
            tally.check(doc.get(key, math.inf) <= bound, f"evolve {key} <= {bound:g}")
        return len(text)


def check_scan(outdir: Path, digest: str, tally: Tally, name: str) -> int:
    """Verdict and byte-exact scan.csv; returns the bytes the scan wrote."""
    csv = (outdir / "scan.csv").read_bytes()
    verdict = (outdir / "verdict.json").read_bytes()
    tally.check(json.loads(verdict).get("verdict") == SCAN_VERDICT, f"{name} verdict")
    tally.check(hashlib.sha256(csv).hexdigest() == digest, f"{name} scan.csv sha256")
    return len(csv) + len(verdict)


class Scan:
    """`gardner5 illposed --config`; one scan is one unit.

    The scan is one fixed problem.  The seed only permutes the order of the
    alphas in the config file, which run_scan sorts, so scan.csv is the same
    for every seed.
    """

    probe = "memory"

    def __init__(self, name: str, seed: int, workdir: Path):
        fields, alphas, self.digest = SCANS[name]
        self.name = name
        order = np.random.default_rng(seed).permutation(len(alphas))
        self.fields = dict(fields, alphas=[alphas[i] for i in order])
        self.config = workdir / f"{name}.json"
        self.config.write_text(json.dumps(self.fields), encoding="utf-8")
        self.warm_config = workdir / f"{name}-warmup.json"
        self.warm_config.write_text(json.dumps(dict(fields, alphas=[alphas[0]])),
                                    encoding="utf-8")
        self.out = workdir / name

    def warmup(self) -> None:
        run_cli(["illposed", "--config", str(self.warm_config), "--out", str(self.out)])

    def unit(self, tally: Tally) -> int:
        rc = run_cli(["illposed", "--config", str(self.config), "--out", str(self.out)])
        tally.check(rc == 0, f"{self.name} exit code")
        return check_scan(self.out, self.digest, tally, self.name)


def make(name: str, seed: int, workdir: Path):
    """The workload named in BENCHMARK.json, with its inputs built in workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "verify":
        return Verify(seed, workdir)
    if name == "evolve":
        return Evolve(seed, workdir)
    if name in SCANS:
        return Scan(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
