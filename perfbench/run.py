#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fabric-4k --seed 1 --seconds 45 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics (see
``perfbench/README.md``).  Reported times are wall times scaled to a
reference machine speed by a probe timed while each measured section
runs (``workloads.SpeedClock``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics ``BENCHMARK.json`` declares; the lines before it are a
human-readable table of everything measured, with the machine stamp
and the run's fingerprint.  Results, and the span list of traced runs, are also
written to ``.bench_out/``.  The exit code is 1 when any verdict, query
answer or repeated output was wrong, and 2 when the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MANIFEST = ROOT / "BENCHMARK.json"

def machine_stamp(trace: bool) -> dict[str, object]:
    from tools.check_bench_regression import calibrate
    return {
        "calibration_s": calibrate(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "trace": trace,
    }


def main(argv: list[str]) -> int:
    manifest = json.loads(MANIFEST.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    trace = bool(args.trace)

    stamp = machine_stamp(trace)
    gc.collect()
    out = workloads.run_workload(workload, seed, args.seconds, trace=trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain = [r for r in out.reps if not r.traced]
    e2e = workloads.e2e_metrics(out, plain)
    e2e["peak_rss_mb"] = peak_rss_mb
    units = dict(workloads.E2E_UNITS)
    if trace:
        metrics = {}
        for name, (value, unit) in workloads.layer_metrics(out).items():
            metrics[name], units[name] = value, unit
    else:
        metrics = e2e

    print(f"workload {workload.name} seed {seed} knobs "
          f"{json.dumps(workload.knobs, sort_keys=True)}")
    print("machine " + json.dumps(stamp, sort_keys=True))
    n_lat = sum(len(r.latencies) for r in plain)
    tail = workloads.tail_percentile(n_lat)
    print(f"repetitions {len(out.reps)} ({len(plain)} untraced), "
          f"queries {n_lat} untraced; highest percentile with >=10 "
          f"samples beyond: p{tail}")
    print(f"fail_rate {out.failed / out.attempted:.6f} "
          f"({out.failed}/{out.attempted})")
    for line in out.failures:
        print(f"FAIL {line}")
    print(f"fingerprint {out.fingerprint}")
    # what the reported (speed-scaled) times were scaled from
    wall = {k: statistics.median(r.wall[k] for r in plain)
            for k in plain[0].wall}
    print("unscaled wall-clock medians "
          + " ".join(f"{k} {v:.4f}" for k, v in wall.items()))
    if trace:
        traced = [r for r in out.reps if r.traced]
        on = workloads.e2e_metrics(out, traced)
        print(f"{'metric':<22}{'untraced':>14}{'traced':>14}  unit")
        for name, value in e2e.items():
            if name in on:
                print(f"{name:<22}{value:>14.6g}{on[name]:>14.6g}  "
                      f"{units[name]}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")

    # report exactly the metrics BENCHMARK.json declares, in its units
    reported = {}
    for entry in manifest["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if units.get(name) != entry["unit"]:
            raise SystemExit(f"metric {name} ({entry['unit']}) is not "
                             f"measured as BENCHMARK.json declares it")
        reported[name] = {"value": metrics[name], "unit": entry["unit"]}
    record = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": reported,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    detail = dict(record, workload=workload.name, seed=seed,
                  knobs=workload.knobs, machine=stamp,
                  fingerprint=out.fingerprint, failures=out.failures,
                  untraced=e2e)
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if trace:
        spans = {"workload": workload.name, "seed": seed, "machine": stamp,
                 "spans": out.tracer.span_dicts()}
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(record))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
