"""Benchmark of gardner5: verify, evolve and the H^s scans, end to end and per layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from anywhere; it measures the package in ../src next to this directory.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics from a traced run.  `--workload all` runs the four
workloads in turn.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"} (for `all`, one per workload).
The lines before it give the run facts, every metric by name with its unit,
failed_frac, and each failed check.  Records with the facts, and the spans of
traced runs, are written to .perfbench-out/ at the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5       # set-up is timed in this many fresh processes
SCAN_THREADS = 2        # GARDNER5_THREADS for every run, capped at nproc
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload named in BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    spec = ROOT / "BENCHMARK.json"
    src = SRC / "gardner5" / "__init__.py"
    if not spec.is_file() or not src.is_file():
        raise BenchError(f"needs {spec} and the package source {src}")
    return json.loads(spec.read_text(encoding="utf-8"))


def run_facts(seed: int) -> dict:
    nproc = os.cpu_count() or 1
    return {
        "seed": seed,
        "nproc": nproc,
        "gardner5_threads": min(SCAN_THREADS, nproc),
        "numpy": importlib.metadata.version("numpy"),
        "python": platform.python_version(),
    }


def run_child(workload, seed, seconds, mode, facts, spans=None) -> dict:
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--workdir", str(workdir)]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, GARDNER5_THREADS=str(facts["gardner5_threads"]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} {mode} run exceeded {CHILD_TIMEOUT_S} s") from e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} run failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def bench(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    facts = run_facts(seed)
    tag = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        setups = []
        main = run_child(workload, seed, seconds, "traced", facts,
                         spans=OUT / f"spans-{tag}.json")
        values = main["layers"]
        wanted = spec["per_layer"]
    else:
        setups = [run_child(workload, seed, 0, "setup", facts)
                  for _ in range(SETUP_SAMPLES - 1)]
        main = run_child(workload, seed, seconds, "plain", facts)
        values = {
            "wall_s": statistics.median(main["unit_ref_s"]),
            "setup_s": statistics.median(c["setup_ref_s"] for c in setups + [main]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, workload=workload, facts=facts, children=setups + [main])
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")
    report(record, baseline(workload))
    return result


def baseline(workload: str) -> dict:
    """Figures measured at the seed commit, for comparison in the printout."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {**doc["medians"].get(workload, {}), **doc["per_layer"].get(workload, {})}


def report(record: dict, base: dict) -> None:
    main = record["children"][-1]
    print(f"{record['workload']}: " + " ".join(f"{k}={v}" for k, v in record["facts"].items())
          + f" units={len(main['unit_s'])} traced_units={len(main['traced_unit_s'])}")
    raw = {}
    if "probe_s" in main:
        raw = {"wall_s": statistics.median(main["unit_s"]),
               "setup_s": statistics.median(c["setup_s"] for c in record["children"])}
    for name, m in record["metrics"].items():
        notes = [f"raw {raw[name]:.6g}"] if name in raw else []
        if name in base:
            notes.append(f"seed commit {base[name]:.6g}")
        notes = f"  ({', '.join(notes)})" if notes else ""
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}{notes}")
    if "probe_s" in main:
        print(f"  {'speed probe':<48} {statistics.median(main['probe_s']):.6g} s")
    frac = record["failed"] / record["attempted"]
    ref = f", seed commit {base['failed_frac']:.6g}" if "failed_frac" in base else ""
    print(f"  {'failed_frac':<48} {frac:.6g} ({record['failed']}/{record['attempted']}{ref})")
    for what, count in sorted(main["failures"].items()):
        print(f"  FAILED {what} x{count}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            results = {w: bench(w, args.seed, args.seconds, args.trace, spec)
                       for w in names}
        elif args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; known: {names}")
        else:
            results = bench(args.workload, args.seed, args.seconds, args.trace, spec)
    except (BenchError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
