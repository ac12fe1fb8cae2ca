"""Workload definitions and seeded input generation.

Each workload is a fixed list of reports. Spec-based groups are built here
from their own generators (not by oblique), relabelled by a seeded random
point permutation, and handed to the CLI as ``perm(degree, ...)`` specs with
the generators shuffled, so no two reports of a run share an input while
every relabel-invariant answer stays the same.
"""

from __future__ import annotations

import random
from collections import Counter


def _cycle(points, degree):
    images = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return tuple(images)


def sym(n):
    return n, [_cycle([0, 1], n), _cycle(list(range(n)), n)]


def alt(n):
    return n, [_cycle([i, i + 1, i + 2], n) for i in range(n - 2)]


def direct(a, b):
    (da, ga), (db, gb) = a, b
    gens = [g + tuple(range(da, da + db)) for g in ga]
    gens += [tuple(range(da)) + tuple(da + x for x in g) for g in gb]
    return da + db, gens


def affine(p, d, mat):
    """Translations of F_p^d and one linear map; vector v is point sum v_i p^i."""
    degree = p**d

    def vec(pt):
        return [pt // p**i % p for i in range(d)]

    def point(v):
        return sum(x % p * p**i for i, x in enumerate(v))

    gens = []
    for i in range(d):
        gens.append(tuple(point([x + (j == i) for j, x in enumerate(vec(pt))]) for pt in range(degree)))
    gens.append(tuple(point([sum(mat[r][c] * v[c] for c in range(d)) for r in range(d)]) for v in map(vec, range(degree))))
    return degree, gens


def cycle_matrix(n):
    """The permutation matrix of the n-cycle e_i -> e_{i+1}."""
    return [[int(r == (c + 1) % n) for c in range(n)] for r in range(n)]


def _matrix_text(mat):
    return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in mat) + "]"


AFFINE6 = f"affine(2,6,{_matrix_text(cycle_matrix(6))})"
AFFINE4 = f"affine(3,4,{_matrix_text(cycle_matrix(4))})"

# canonical spec text -> generators, built without oblique
GROUPS = {
    "sym(4)": lambda: sym(4),
    "sym(6)": lambda: sym(6),
    "sym(8)": lambda: sym(8),
    "alt(7)": lambda: alt(7),
    "direct(alt(5),alt(5))": lambda: direct(alt(5), alt(5)),
    "direct(sym(4),sym(4))": lambda: direct(sym(4), sym(4)),
    "direct(alt(5),sym(4))": lambda: direct(alt(5), sym(4)),
    "direct(alt(4),sym(4))": lambda: direct(alt(4), sym(4)),
    "direct(alt(4),alt(4))": lambda: direct(alt(4), alt(4)),
    "direct(sym(4),sym(3))": lambda: direct(sym(4), sym(3)),
    AFFINE6: lambda: affine(2, 6, cycle_matrix(6)),
    AFFINE4: lambda: affine(3, 4, cycle_matrix(4)),
}

# Each report: (command, canonical spec or None, extra arguments). Every
# report takes well under 2 s, so that a run holds many rounds and every
# report has many samples. Each workload has five reports, so that the
# median falls among the samples of the third fastest report and the 90th
# percentile in the middle of the slowest one's, rather than on the edge
# between the samples of two reports of different cost.
WORKLOADS = {
    # meets of normal subgroups at degree <= 12: NormalLattice.meet_all ->
    # intersection -> chain sifts
    "lattice": [
        ("ob-table", "direct(alt(5),alt(5))", ["--max-n", "3"]),
        ("ob-table", "direct(sym(4),sym(4))", ["--max-n", "12"]),
        ("ob-table", "direct(alt(4),sym(4))", ["--max-n", "12"]),
        ("ob-table", "direct(alt(4),alt(4))", ["--max-n", "12"]),
        ("invariants", "direct(alt(5),sym(4))", []),
    ],
    # tower levels and affine groups at degree 64-128: chain rebuilds in
    # normal_closure, compose/inverse on long image tuples
    "tower": [
        ("tower", None, ["--family", "fitting", "--params", "3,5", "--max-n", "4"]),
        ("tower", None, ["--family", "fitting", "--params", "7,2"]),
        ("tower", None, ["--family", "fitting", "--params", "2,11"]),
        ("tate", AFFINE6, ["--p", "2"]),
        ("tate", AFFINE4, ["--p", "3"]),
    ],
    # thousands of tiny chains and Permutation objects, conjugacy searches,
    # brute-force normalizers/centralizers and the sympy backend at degree <= 8
    "subgroups": [
        ("fusion", "sym(6)", ["--p", "2", "--alperin"]),
        ("fusion", "direct(sym(4),sym(3))", ["--p", "3", "--alperin"]),
        ("fusion", "alt(7)", ["--p", "3", "--alperin"]),
        ("tate", "sym(8)", ["--p", "3"]),
        ("ob-table", "sym(4)", ["--max-n", "4", "--star"]),
    ],
}


def report_key(cmd, spec, extra):
    """The name a report's pinned expectation is stored under."""
    return " ".join([cmd] + ([spec] if spec else []) + extra)


def _cycle_text(images):
    seen, out = set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle, j = [start], images[start]
        seen.add(start)
        while j != start:
            seen.add(j)
            cycle.append(j)
            j = images[j]
        out.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(out)


def relabelled_spec(spec, rng):
    """``spec`` as a perm(...) spec under a random point relabelling."""
    degree, gens = GROUPS[spec]()
    pi = list(range(degree))
    rng.shuffle(pi)
    relabelled = []
    for g in gens:
        images = [0] * degree
        for x in range(degree):
            images[pi[x]] = pi[g[x]]
        relabelled.append(_cycle_text(images))
    rng.shuffle(relabelled)
    return f"perm({degree}, " + ", ".join(relabelled) + ")"


def argv_for(report, rng):
    cmd, spec, extra = report
    return [cmd] + ([relabelled_spec(spec, rng)] if spec else []) + list(extra)


def invariant_fields(cmd, report):
    """The relabel-invariant part of a report, as plain JSON values."""
    if cmd == "invariants":
        return report["invariants"]
    if cmd == "ob-table":
        return report["ob_table"]
    if cmd == "tate":
        return report["tate"]
    if cmd == "fusion":
        classes = sorted([c["order"], c["size"], c["automizer_order"]] for c in report["classes"])
        merged = sorted(Counter(c["fusion_class"] for c in report["classes"]).values())
        return {
            "sylow_order": report["sylow_order"],
            "classes": classes,
            "fusion_class_sizes": merged,
            "alperin_holds": report["alperin"]["holds"],
        }
    if cmd == "tower":
        t = report["tower"]
        return {"levels": t["levels"], "fitting_indices": t["fitting_indices"], "ob_table": t.get("ob_table")}
    raise ValueError(f"unknown command {cmd}")


def op_rng(seed, round_no, index, purpose):
    """A generator for one report's input or global random state."""
    return random.Random(f"{seed}:{round_no}:{index}:{purpose}")
