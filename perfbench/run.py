"""Report benchmark for oblique.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Prints every metric by name with its unit and sample count, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lattice", "tower", "subgroups")
SETUP_LAUNCHES = 8
TIMEOUT_S = 170

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import oblique.cli; print(time.perf_counter() - t)"
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def python(args, **kwargs):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=TIMEOUT_S, **kwargs)
    if proc.returncode != 0:
        fail(f"{' '.join(args[:3])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def setup_samples(launches):
    """Seconds a fresh interpreter takes to import oblique.cli, per launch."""
    return [float(python(["-c", IMPORT_PROBE]).stdout.split()[-1]) for _ in range(launches)]


def import_breakdown():
    """Cumulative import seconds of sympy and numpy, and oblique's own self time."""
    err = python(["-X", "importtime", "-c", "import sys; sys.path.insert(0, 'src'); import oblique.cli"]).stderr
    out = {"sympy": 0.0, "numpy": 0.0, "oblique": 0.0}
    for line in err.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m[1]), int(m[2]), m[4]
        if name in ("sympy", "numpy"):
            out[name] = cumulative_us / 1e6
        elif name == "oblique" or name.startswith("oblique."):
            out["oblique"] += self_us / 1e6
    return {f"setup.import_s.{k}": (v, "s") for k, v in out.items()}


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def round_rate(reports):
    """Reports per second of one round, each report type at its median
    latency in the run; medians keep a slow phase of the host from moving it."""
    by_type = {}
    for index, seconds, _ in reports:
        by_type.setdefault(index, []).append(seconds)
    return len(by_type) / sum(statistics.median(v) for v in by_type.values())


def latency_summary(seconds):
    """Median, 90th percentile and the highest percentile with >= 10 samples beyond it."""
    n = len(seconds)
    ordered = sorted(seconds)
    p90 = statistics.quantiles(seconds, n=10, method="inclusive")[-1] if n > 1 else ordered[0]
    tail = None
    if n >= 11:
        tail = ((n - 10) / n, ordered[n - 11])
    return statistics.median(seconds), p90, tail


def declared(kind):
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "oblique", "cli.py")):
        fail("run from the root of an oblique checkout (src/oblique/cli.py not found)")

    metrics = {}
    # half the launches before the worker and half after, so that host drift
    # within the run shows in the median rather than moving it
    setup = [] if args.trace else setup_samples(SETUP_LAUNCHES // 2)
    spans = os.path.join(".bench_build", "perfbench", f"spans-{args.workload}.jsonl")
    worker = [os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans]
    result = json.loads(python(worker).stdout.splitlines()[-1])
    if not args.trace:
        setup += setup_samples(SETUP_LAUNCHES - len(setup))
        metrics["setup_s"] = (statistics.median(setup), "s")

    latencies = [seconds for _, seconds, _ in result["reports"]]
    rps = round_rate(result["reports"])
    p50, p90, tail = latency_summary(latencies)
    attempted = result["attempted"]
    failed = len(result["mismatches"])
    beyond = sum(1 for s in latencies if s > p90)
    if not args.trace:
        metrics["reports_per_s"] = (rps, "1/s")
        metrics["report_s.p50"] = (p50, "s")
        metrics["report_s.p90"] = (p90, "s")
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        names = declared("end_to_end")
    else:
        metrics.update((k, tuple(v)) for k, v in result["layers"].items())
        metrics.update((k, (v, "us")) for k, v in result["kernel_us"].items())
        metrics.update(import_breakdown())
        metrics["cli.report_digest_variants"] = (result["digest_variants"], "count")
        metrics["trace.overhead"] = (len(result["traced"]) / sum(result["traced"]) / rps, "ratio")
        names = declared("per_layer")
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != names:
        fail(f"emitted metrics differ from BENCHMARK.json: {sorted(set(emitted.items()) ^ set(names.items()))}")

    provenance = dict(result["provenance"], git_sha=git_sha(), calibration_s=result["calibration_s"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for message in result["mismatches"]:
        print(f"MISMATCH {message}")
    print(f"reports {len(latencies)} timed, {attempted} attempted, {failed} failed, failed_ratio {failed / attempted:.4f}")
    if not args.trace:
        print(f"setup_s launches {' '.join(f'{s:.4f}' for s in setup)}")
    tail_text = f"p{100 * tail[0]:.0f} {tail[1]:.4f} s" if tail else "none (fewer than 11 reports)"
    print(f"report_s n={len(latencies)}: p90 has {beyond} samples beyond it; "
          f"highest percentile with >= 10 beyond: {tail_text}")
    if args.trace:
        for name, seconds, share in result["top_self"]:
            print(f"self time {name:32s} {seconds:9.4f} s  {100 * share:5.1f} %")
    for name in names:
        value, unit = metrics[name]
        print(f"{name:42s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }))


if __name__ == "__main__":
    main()
