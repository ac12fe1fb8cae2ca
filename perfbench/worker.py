"""One workload in a fresh interpreter: a closed loop with one client.

Run from the root of a checkout by ``run.py``; prints one JSON object with
per-report latencies, check results and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

from tracer import Tracer
from workloads import WORKLOADS, argv_for, invariant_fields, op_rng, report_key

HERE = os.path.dirname(os.path.abspath(__file__))
KERNEL_DEGREES = (8, 64, 512)


def calibrate():
    """A fixed pure-Python loop; it shows host drift and is never used to normalise."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def kernel_us(Permutation, seed):
    """Median microseconds per public Permutation call at each degree."""
    out = {}
    for d in KERNEL_DEGREES:
        rng = random.Random(f"{seed}:kernel:{d}")
        perms = []
        for _ in range(64):
            images = list(range(d))
            rng.shuffle(images)
            perms.append(Permutation(images))
        pairs = [(perms[i], perms[(i * 7 + 3) % 64]) for i in range(64)]
        n = 40_000 // (1 + d // 8)
        ops = {"mul": lambda a, b: a * b, "inv": lambda a, b: a.inv(), "conj": lambda a, b: a.conj(b)}
        for op, fn in ops.items():
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                for k in range(n):
                    a, b = pairs[k & 63]
                    fn(a, b)
                samples.append((time.perf_counter() - start) / n * 1e6)
            out[f"perm.kernel_us.{op}.d{d}"] = statistics.median(samples)
    return out


class Loop:
    """Runs the workload's reports in round order and checks every output."""

    def __init__(self, cli, workload, seed, expected):
        self.cli = cli
        self.reports = WORKLOADS[workload]
        self.seed = seed
        self.expected = expected
        self.mismatches = []
        self.attempted = 0
        self.tracer = None

    def run_one(self, round_no, index, purpose="global"):
        """One report; returns (seconds, ok, sha256 of the report bytes)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.report_id = self.attempted
        report = self.reports[index]
        argv = argv_for(report, op_rng(self.seed, round_no, index, "input"))
        random.seed(f"{self.seed}:{round_no}:{index}:{purpose}")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            code = self.cli.main(argv, stdout=out, stderr=err)
        except Exception:  # a crashing report is a failed report, not a failed run
            code = "an uncaught exception"
            err.write(traceback.format_exc(limit=-3))
        seconds = time.perf_counter() - start
        key = report_key(*report)
        text = out.getvalue()
        if code != 0:
            self.mismatches.append(f"{key}: exit {code}: {err.getvalue().strip()}")
            return seconds, False, None
        got = json.loads(json.dumps(invariant_fields(report[0], json.loads(text))))
        if got != self.expected[key]:
            self.mismatches.append(f"{key}: got {json.dumps(got)} expected {json.dumps(self.expected[key])}")
            return seconds, False, None
        return seconds, True, hashlib.sha256(text.encode()).hexdigest()

    def run_round(self, round_no, purpose="global"):
        return [self.run_one(round_no, index, purpose) for index in range(len(self.reports))]

    def timed(self, budget):
        """Whole rounds while the next one is expected to fit in ``budget``
        seconds of report time, and at least two, so that every report has a
        median; whole rounds keep the mix of reports, and so the latency
        percentiles, the same in every run. Returns (index, seconds, ok,
        digest) per report."""
        done, spent, rounds = [], 0.0, 0
        while rounds < 2 or spent * (rounds + 1) / rounds <= budget:
            for index, (seconds, ok, digest) in enumerate(self.run_round(rounds)):
                done.append((index, seconds, ok, digest))
                spent += seconds
            rounds += 1
        return done


def src_lines():
    total = 0
    for dirpath, _, files in os.walk("src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", required=True, help="where a traced run writes its kept spans")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath("src"))
    import numpy
    import sympy
    import sympy.combinatorics  # oblique imports it lazily on first backend call

    import oblique
    import oblique.cli

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    result = {
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "sympy": sympy.__version__,
            "nproc": os.cpu_count(),
            "src_lines": src_lines(),
            "api_size": len(oblique.__all__),
        },
        "calibration_s": [calibrate()],
    }
    loop = Loop(oblique.cli, args.workload, args.seed, expected)
    if args.trace:
        result["kernel_us"] = kernel_us(oblique.Permutation, args.seed)
    timed = loop.timed(args.seconds / 2 if args.trace else args.seconds)
    result["reports"] = [(index, seconds, ok) for index, seconds, ok, _ in timed]
    if args.trace:
        # determinism probe: round 0 again under a second global random state
        probe = loop.run_round(0, purpose="probe")
        result["digest_variants"] = sum(a[3] != b[2] for a, b in zip(timed, probe))
        # one traced round on inputs no timed round uses (index -1), so the
        # counts repeat exactly for a seed whatever the number of timed rounds
        tracer = loop.tracer = Tracer()
        tracer.install(oblique)
        result["traced"] = [seconds for seconds, _, _ in loop.run_round(-1)]
        result["layers"] = tracer.metrics(SPAN_NAMES)
        result["top_self"] = tracer.top_self()
        os.makedirs(os.path.dirname(args.spans), exist_ok=True)
        tracer.write(args.spans)
    result["calibration_s"].append(calibrate())
    result["attempted"] = loop.attempted
    result["mismatches"] = loop.mismatches
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


# spans reported as per-layer metrics, each with .calls and .self_s
SPAN_NAMES = [
    "perm.new", "perm.mul", "perm.inv", "perm.conj",
    "group.chain.build", "group.chain.contains", "group.chain.elements",
    "group.normal_closure", "group.intersection", "group.conjugacy_classes",
    "group.centralizer", "group.normalizer", "group.conjugating_element", "group.sylow", "group.quotient_action",
    "backend.sympy",
    "hom.certify", "hom.kernel", "hom.preimage_group",
    "lattice.normal_lattice", "lattice.meet_all", "lattice.pi_core", "lattice.fitting",
    "lattice.ob_function", "lattice.tate_check", "lattice.all_subgroups",
    "fusion.fusion_table", "fusion.automizer", "fusion.alperin_closure_check",
    "towers.build", "towers.tower_fitting_sequence", "towers.tower_ob_sequence",
    "groupspec.parse_build", "cli.main", "arith.prime_factors",
]


if __name__ == "__main__":
    main()
