"""One measuring process of the benchmark; run.py starts it and reads its last line.

    python3 perfbench/child.py --workload scan --seed 1 --seconds 10 \
        --mode plain --workdir .perfbench-out/scan-1

Modes:
  setup   time the set-up (imports, input construction, first warm-up call);
  plain   set up, then run units of work for --seconds, untraced;
  traced  set up, then alternate untraced and traced units for --seconds, and
          for the scans time one single-threaded rerun of run_scan.

A fresh process per measurement keeps peak RSS from being inherited.  The
last line of stdout is one JSON object with the measurements.

On a shared 2-vCPU virtual machine the speed a process gets drifted by up to
2x over tens of seconds to minutes (other tenants' load), which no run
length averages out.  Plain and setup children therefore time a fixed speed
probe next to the measured work, and report each time also as
`raw / probe * PROBE_REF_S`: seconds on a machine where the probe takes
PROBE_REF_S.  Set-up, verify and evolve are single-threaded and
compute-bound, and use the compute probe; the scans spend their time in
large-array FFTs and use the memory probe.  Neither probe touches gardner5
code.  Raw times are always kept in the record.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from gardner5 import experiment  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# seconds each speed probe takes on the reference machine state
PROBE_REF_S = {"compute": 0.15, "memory": 0.3}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--spans", type=Path, help="traced mode: write the spans here")
    return p.parse_args(argv)


def compute_probe() -> float:
    """Seconds for the compute-bound speed probe.

    Small real and complex FFTs, transcendental ufuncs on a 4096-point array
    and a pure-Python loop, with almost no memory, so the probe neither
    tracks nor moves peak RSS.
    """
    rng = np.random.default_rng(0)
    small, mid = rng.standard_normal(1920), rng.standard_normal(4096)
    start = time.perf_counter()
    for _ in range(800):
        np.fft.irfft(np.fft.rfft(small), n=1920)
    for _ in range(300):
        np.fft.ifft(np.fft.fft(mid))
        np.exp(-np.abs(mid)) * np.sin(mid) + np.cos(mid)
    acc = 0
    for i in range(500_000):
        acc += i * i
    return time.perf_counter() - start


def memory_probe() -> float:
    """Seconds for the memory-bound speed probe: 2^21-point FFT round trips.

    Its ~50 MB stay far below the scans' peak RSS, the only workloads that
    use it.
    """
    x = np.random.default_rng(0).standard_normal(2**21)
    start = time.perf_counter()
    for _ in range(2):
        y = np.fft.irfft(np.fft.rfft(x), n=x.size)
        y += x
    return time.perf_counter() - start


PROBES = {"compute": compute_probe, "memory": memory_probe}


def normalize(seconds: float, probe_s: float, kind: str = "compute") -> float:
    return seconds / probe_s * PROBE_REF_S[kind]


def timed_unit(work, tally):
    start = time.perf_counter()
    written = work.unit(tally)
    return time.perf_counter() - start, written


def serial_run_scan(work) -> float:
    """Seconds for one run_scan of the workload's config at GARDNER5_THREADS=1."""
    config = experiment.ExperimentConfig.from_dict(work.fields)
    saved = os.environ.get("GARDNER5_THREADS")
    os.environ["GARDNER5_THREADS"] = "1"
    try:
        start = time.perf_counter()
        experiment.run_scan(config)
        return time.perf_counter() - start
    finally:
        if saved is None:
            del os.environ["GARDNER5_THREADS"]
        else:
            os.environ["GARDNER5_THREADS"] = saved


def main(argv=None) -> int:
    args = parse_args(argv)
    work = workloads.make(args.workload, args.seed, args.workdir)
    work.warmup()
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s,
                          "setup_ref_s": normalize(setup_s, compute_probe())}))
        return 0

    tally = workloads.Tally()
    deadline = time.perf_counter() + args.seconds
    result = {"setup_s": setup_s, "unit_s": [], "traced_unit_s": []}
    if args.mode == "plain":
        result["setup_ref_s"] = normalize(setup_s, compute_probe())
        probe = PROBES[work.probe]
        probes = [probe()]
        while not result["unit_s"] or time.perf_counter() < deadline:
            seconds, written = timed_unit(work, tally)
            result["unit_s"].append(seconds)
            probes.append(probe())
        result["unit_ref_s"] = [normalize(u, (a + b) / 2, work.probe)
                                for u, a, b in zip(result["unit_s"], probes, probes[1:])]
        result["probe_s"] = probes
    else:
        tracer = tracing.Tracer()
        while not result["unit_s"] or time.perf_counter() < deadline:
            result["unit_s"].append(timed_unit(work, tally)[0])
            with tracer:
                seconds, written = timed_unit(work, tally)
            result["traced_unit_s"].append(seconds)
        layers = tracing.layer_metrics(tracer.spans, len(result["traced_unit_s"]))
        threads = int(os.environ.get("GARDNER5_THREADS", "1"))
        serial = serial_run_scan(work) if isinstance(work, workloads.Scan) else 0.0
        scan_s = layers["experiment.run_scan.s"]
        layers["experiment.run_scan.serial_s"] = serial
        layers["experiment.run_scan.parallel_eff"] = (
            serial / (threads * scan_s) if scan_s else 0.0)
        layers["cli.bytes_written"] = float(written)
        # each traced unit against the untraced unit run just before it
        pairs = zip(result["unit_s"], result["traced_unit_s"])
        layers["trace.overhead_frac"] = statistics.median(t / u for u, t in pairs) - 1.0
        result["layers"] = layers
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracing.spans_to_json(tracer.spans)),
                                  encoding="utf-8")

    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=dict(tally.failures),
        bytes_written=written,
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
