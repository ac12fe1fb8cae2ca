"""Regenerate ``expected.json``: the relabel-invariant answer of every report.

Usage, from the root of a checkout:  python3 perfbench/pin.py

Each answer is computed from the canonical spec, must agree with two
relabelled, generator-shuffled copies run under other global random states,
and must agree with the closed forms below where one is known. Run it only
on a commit whose answers are trusted; the benchmark then checks every
report against the file.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys

from workloads import WORKLOADS, argv_for, invariant_fields, report_key

HERE = os.path.dirname(os.path.abspath(__file__))

# orders of the groups of the fusion reports, for their Sylow orders
ORDERS = {"sym(6)": 720, "alt(7)": 2520, "direct(sym(4),sym(3))": 144}


# F, E, F*, the normal Frattini subgroup (meet of the maximal normal
# subgroups) and the p-cores of A5 x S4: F = O_2 = V4, E = A5,
# F* = A5 x V4, and A5 x A4 meets 1 x S4 in 1 x A4.
INVARIANTS = {
    "direct(alt(5),sym(4))": {"order": 1440, "fitting": 4, "layer": 60, "generalized_fitting": 240,
                              "frattini_normal": 12, "cores": {"2": 4, "3": 1, "5": 1}},
}


def p_part(n, p):
    out = 1
    while n % p == 0:
        out, n = out * p, n // p
    return out


def closed_form_checks(cmd, spec, extra, got):
    """Known values: invariants, Sylow orders, and the levels and Fitting
    indices of the two-level Fitting towers."""
    if cmd == "invariants":
        for field, value in INVARIANTS[spec].items():
            assert got[field] == value, (spec, field, got[field], value)
    elif cmd == "fusion":
        p = int(extra[1])
        assert got["sylow_order"] == p_part(ORDERS[spec], p)
        assert got["alperin_holds"] is True
    elif cmd == "tate":
        # K = G: every condition compares G with itself
        assert all(got.values())
    elif cmd == "tower":
        p1, p2 = map(int, extra[3].split(","))
        assert got["levels"] == [{"order": p1, "degree": p1}, {"order": p2**p1 * p1, "degree": p2**p1}]
        assert got["fitting_indices"] == [1, p1]


def answer(cli, argv, global_seed):
    random.seed(global_seed)
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)[:80]}: exit {code}: {err.getvalue()}")
    return json.loads(json.dumps(invariant_fields(argv[0], json.loads(out.getvalue()))))


def main():
    sys.path.insert(0, os.path.abspath("src"))
    import oblique.cli as cli

    expected = {}
    for reports in WORKLOADS.values():
        for report in reports:
            cmd, spec, extra = report
            key = report_key(*report)
            if key in expected:
                continue
            got = answer(cli, [cmd] + ([spec] if spec else []) + extra, 0)
            for copy in (1, 2):
                argv = argv_for(report, random.Random(f"pin:{copy}"))
                assert answer(cli, argv, copy) == got, f"relabelled copy {copy} disagrees on {key}"
            closed_form_checks(cmd, spec, extra, got)
            expected[key] = got
            print(f"pinned {key[:70]}", flush=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
