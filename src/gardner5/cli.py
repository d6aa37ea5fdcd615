"""Command-line surface: evaluation, verification, evolution, ill-posedness scan.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 invalid
input or config, 3 runtime guard tripped (blow-up, step-size failure).
Outputs are CSV (header row, LF endings, 17-significant-digit scientific
floats) and UTF-8 JSON, deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import breather, experiment, fourier, residuals, solver

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_GUARD = 3

DEFAULT_TOLERANCES = {
    "pde": 1e-6,          # sup_rel of the 5th-order Gardner residual
    "elliptic": 1e-7,     # sup_rel of the elliptic residual
    "mkdv5": 1e-6,        # sup_rel at mu = 0
    "dual_form": 1e-9,    # coefficient of (1 + max|B|)
    "zero_mean": 1e-10,   # coefficient of (1 + ||B||_L2)
}

_INVALID_INPUT_ERRORS = (
    breather.ParameterError,
    breather.GridTooNarrowError,
    fourier.GridError,
    fourier.GridMismatchError,
    fourier.EdgeDecayError,
    solver.SolverConfigError,
    experiment.ExperimentConfigError,
)
_GUARD_ERRORS = (solver.BlowUpError, residuals.StepSizeError)


def _fmt(x: float) -> str:
    return format(float(x), ".17e")


def _parse_params(text: str) -> breather.BreatherParams:
    parts = [float(p) for p in text.split(",")]
    if len(parts) not in (3, 5):
        raise breather.ParameterError(
            "--params expects a,b,mu or a,b,mu,x1,x2"
        )
    return breather.validate_params(*parts)


def _parse_grid(text: str | None) -> fourier.Grid | None:
    """--grid as a Grid; None without it, for the breather's own window."""
    if not text:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise fourier.GridError("--grid expects center,length,points")
    return fourier.make_grid(float(parts[0]), float(parts[1]), int(float(parts[2])))


def _parse_tolerances(items) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--tolerance expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        if key not in tol:
            raise ValueError(
                f"unknown tolerance {key!r}; known: {sorted(tol)}"
            )
        tol[key] = float(val)
    return tol


def _write_text(path: str, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_eval(args) -> int:
    params = _parse_params(args.params)
    t = args.time
    sample = breather.sample_breather(params, t, _parse_grid(args.grid))
    x = sample.grid.nodes
    if args.form == "rational":
        values = sample.values
    elif args.form == "approx":
        values = breather.eval_approx(params, t, x)
    else:
        values = breather.eval_arctan_derivative(params, t, sample.grid).values
    lines = ["x,value"]
    lines.extend(f"{_fmt(xj)},{_fmt(vj)}" for xj, vj in zip(x, values))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _parse_params(args.params)
    t = args.time
    tol = _parse_tolerances(args.tolerance)

    # one sample of the breather, on the grid that sized it, serves every check
    clean = breather.sample_breather(params, t, _parse_grid(args.grid))
    grid = clean.grid
    sampled = clean
    if args.inject_corruption:
        xc = breather.envelope_center(params, t)
        bump = 1e-3 / np.cosh(params.beta * (grid.nodes - xc))
        sampled = fourier.SampledField(grid, clean.values + bump)

    checks = {}
    pde = residuals.pde_residual(params, t, grid, field=sampled)
    checks["pde"] = {
        "sup_rel": pde.sup_rel, "sup_abs": pde.sup_abs,
        "tolerance": tol["pde"], "pass": bool(pde.sup_rel <= tol["pde"]),
    }
    ell = residuals.elliptic_residual(params, t, grid, field=clean)
    checks["elliptic"] = {
        "sup_rel": ell.sup_rel, "sup_abs": ell.sup_abs,
        "tolerance": tol["elliptic"], "pass": bool(ell.sup_rel <= tol["elliptic"]),
    }
    b_rat = clean.values
    b_arc = breather.eval_arctan_derivative(params, t, grid).values
    gap = float(np.max(np.abs(b_rat - b_arc)))
    gap_cap = tol["dual_form"] * (1.0 + float(np.max(np.abs(b_rat))))
    checks["dual_form"] = {
        "max_gap": gap, "tolerance": gap_cap, "pass": bool(gap <= gap_cap),
    }
    m = fourier.mean(clean)
    m_cap = tol["zero_mean"] * (1.0 + fourier.l2_norm(clean))
    checks["zero_mean"] = {
        "value": m,
        "closed_form": breather.breather_integral(params),
        "tolerance": m_cap,
        "pass": bool(abs(m) <= m_cap),
    }
    if params.mu == 0.0:
        # mkdv5_residual is pde_residual at mu = 0, so on clean data the pde
        # report is the mkdv5 report; under corruption it runs on clean data
        mk = pde if sampled is clean else residuals.mkdv5_residual(params, t, grid)
        checks["mkdv5"] = {
            "sup_rel": mk.sup_rel, "sup_abs": mk.sup_abs,
            "tolerance": tol["mkdv5"], "pass": bool(mk.sup_rel <= tol["mkdv5"]),
        }

    all_pass = all(c["pass"] for c in checks.values())
    doc = {
        "params": {"alpha": params.alpha, "beta": params.beta, "mu": params.mu,
                   "x1": params.x1, "x2": params.x2},
        "time": t,
        "grid": {"center": grid.center, "length": grid.length, "points": grid.points},
        "corruption_injected": bool(args.inject_corruption),
        "checks": checks,
        "all_pass": bool(all_pass),
    }
    if args.out:
        _write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


_EVOLVE_KEYS = {
    "params", "grid", "t_end", "dt", "dealias_factor",
    "diagnostics_every", "initial",
}


def _load_evolve_config(path: str):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    unknown = set(doc) - _EVOLVE_KEYS
    if unknown:
        raise solver.SolverConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("params", "grid", "t_end"):
        if key not in doc:
            raise solver.SolverConfigError(f"missing config key {key!r}")
    params = breather.validate_params(*doc["params"])
    grid = fourier.make_grid(*doc["grid"])
    cfg = solver.SolverConfig(
        t_end=float(doc["t_end"]),
        dt=float(doc["dt"]) if doc.get("dt") is not None else None,
        dealias_factor=int(doc.get("dealias_factor", 3)),
        diagnostics_every=int(doc.get("diagnostics_every", 50)),
    )
    initial = doc.get("initial", "breather")
    if initial not in ("breather", "zero"):
        raise solver.SolverConfigError(
            f"initial must be 'breather' or 'zero', got {initial!r}"
        )
    return params, grid, cfg, initial


def cmd_evolve(args) -> int:
    params, grid, cfg, initial = _load_evolve_config(args.config)
    if initial == "zero":
        v0 = fourier.SampledField(grid, np.zeros(grid.points))
    else:
        v0 = breather.sample_breather(params, 0.0, grid)
    trace = solver.evolve(v0, params.mu, cfg)

    l2_ref = fourier.l2_norm(v0) ** 2
    doc = {
        "t_end": cfg.t_end,
        "dt": trace.dt,
        "steps": trace.steps,
        "rhs_calls": 4 * trace.steps,
        "steps_recorded": len(trace.times),
        "times": list(trace.times),
        "mass_drift": trace.mass_drift,
        "l2_drift": trace.l2_drift,
        "l2_drift_relative": trace.l2_drift / l2_ref if l2_ref > 0 else 0.0,
    }
    if initial == "breather":
        exact = breather.eval_rational(params, trace.times[-1], grid.nodes)
        diff = trace.fields[-1].values - exact
        ref = math.sqrt(float(np.sum(exact**2)))
        doc["comparison_error"] = (
            math.sqrt(float(np.sum(diff**2))) / ref if ref > 0 else 0.0
        )

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.dump_checkpoints:
        x = grid.nodes
        for i, (tc, fc) in enumerate(zip(trace.times, trace.fields)):
            name = f"checkpoint_{i:04d}.csv"
            lines = ["x,v"]
            lines.extend(f"{_fmt(xj)},{_fmt(vj)}" for xj, vj in zip(x, fc.values))
            _write_text(str(outdir / name), "\n".join(lines) + "\n")
            written.append(name)
    doc["checkpoints"] = written
    _write_json(str(outdir / "diagnostics.json"), doc)
    summary = {k: v for k, v in doc.items() if k not in ("times", "checkpoints")}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_illposed(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            doc = json.load(f)
        config = experiment.ExperimentConfig.from_dict(doc)
    else:
        config = experiment.ExperimentConfig()
    result = experiment.run_scan(config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_text(str(outdir / "scan.csv"), experiment.scan_to_csv(result.rows))
    _write_json(str(outdir / "verdict.json"), experiment.scan_to_json_doc(result))
    print(f"verdict: {result.verdict}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gardner5",
        description="5th-order Gardner breather laboratory",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="sample a breather form on a grid (CSV x,value)")
    pe.add_argument("--params", required=True, help="a,b,mu[,x1,x2]")
    pe.add_argument("--time", type=float, default=0.0)
    pe.add_argument("--grid", help="center,length,points (default: auto window)")
    pe.add_argument("--form", choices=("rational", "arctan", "approx"),
                    default="rational")
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="residual + consistency checks (JSON report)")
    pv.add_argument("--params", required=True, help="a,b,mu[,x1,x2]")
    pv.add_argument("--time", type=float, default=0.0)
    pv.add_argument("--grid", help="center,length,points (default: auto window)")
    pv.add_argument("--tolerance", action="append", metavar="KEY=VALUE",
                    help=f"override a check tolerance; keys: {sorted(DEFAULT_TOLERANCES)}")
    pv.add_argument("--inject-corruption", action="store_true",
                    help="add a 1e-3 sech bump before the residual (sensitivity check)")
    pv.add_argument("--out", help="write the JSON report here (default: stdout)")
    pv.set_defaults(func=cmd_verify)

    pv2 = sub.add_parser("evolve", help="pseudospectral evolution from a JSON config")
    pv2.add_argument("--config", required=True)
    pv2.add_argument("--out", default=".")
    pv2.add_argument("--dump-checkpoints", action="store_true")
    pv2.set_defaults(func=cmd_evolve)

    pi = sub.add_parser("illposed", help="ill-posedness scan (CSV table + verdict JSON)")
    pi.add_argument("--config", help="JSON config (default: headline scan)")
    pi.add_argument("--out", default=".")
    pi.set_defaults(func=cmd_illposed)
    return p


# options whose value may start with "-": argparse reads `--time -1.2e-05`
# as a flag followed by an unknown option, since "-1.2e-05" is not one of
# the plain negative numbers it recognizes
_SIGNED_VALUE_OPTIONS = ("--time", "--grid")


def _join_signed_values(argv: list[str]) -> list[str]:
    """`--time -1.2e-05` -> `--time=-1.2e-05`, so the value cannot pass for a flag."""
    out = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and re.match(r"-[0-9.]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_signed_values(argv))
    try:
        return args.func(args)
    except _INVALID_INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except _GUARD_ERRORS as e:
        print(f"guard tripped: {e}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
