"""Command-line workbench.

Commands: ``invariants``, ``ob-table``, ``tate``, ``fusion``, ``tower``.
Reports are deterministic: the same invocation produces byte-identical
JSON/CSV. Exit codes: 0 success, 1 input error, 2 cap exceeded; diagnostics
go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import sys

from .arith import prime_factors
from .caps import DEFAULT_CAPS, CapExceeded
from .fusion import alperin_closure_check, fusion_table
from .group import NotASubgroup, PermGroup
from .groupspec import SpecError, build_group, parse_spec
from .lattice import (
    _fitting_product,
    fitting,
    frattini_normal,
    layer,
    ob_function,
    ob_star_function,
    phi_lhd_height,
    pi_core,
    tate_check,
)
from .perm import MalformedPermutation
from .towers import (
    Tower,
    cyclic_tower,
    fitting_degenerate_tower,
    tower_fitting_sequence,
    tower_ob_sequence,
    wreath_tower,
)


class _InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _InputError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parser is a web of
    reference cycles, so one per call would leave it all to the cyclic
    garbage collector."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="report seed (computations are deterministic)")
    common.add_argument("--json", metavar="PATH", help="write the JSON report to PATH")
    common.add_argument("--csv", metavar="PATH", help="write the CSV report to PATH")
    common.add_argument("--cap-degree", type=int, default=None)
    common.add_argument("--cap-order", type=int, default=None)
    common.add_argument("--cap-lattice", type=int, default=None)
    common.add_argument("--cap-obstar", type=int, default=None)
    common.add_argument("--cap-aut", type=int, default=None)

    parser = _Parser(prog="oblique", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("invariants", help="orders of F, E, F*, the normal Frattini subgroup, the p-cores")
    p.add_argument("spec")

    p = add("ob-table", help="generalized obliquity table")
    p.add_argument("spec")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--star", action="store_true", help="also compute ob*")

    p = add("tate", help="transfer-control conditions for S <= K <= G")
    p.add_argument("spec")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--K", default="self", help="subgroup spec, or 'self' for K = G (answered from the definition)")

    p = add("fusion", help="p-local fusion table")
    p.add_argument("spec")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alperin", action="store_true", help="verify the factorization property")

    p = add("tower", help="approximation-tower report")
    p.add_argument("--family", choices=["cyclic", "wreath", "fitting"], required=True)
    p.add_argument("--params", required=True, help="comma-separated integers (family parameters, then depth)")
    p.add_argument("--max-n", type=int, default=None, help="also tabulate ob values up to this n")
    p.add_argument("--star", action="store_true")
    return parser


def _caps_from(args):
    for name, value in vars(args).items():
        if name.startswith("cap_") and value is not None and value < 1:
            raise _InputError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    return DEFAULT_CAPS.with_overrides(
        degree=args.cap_degree,
        order_enum=args.cap_order,
        lattice=args.cap_lattice,
        ob_star=args.cap_obstar,
        aut=args.cap_aut,
    )


def _provenance(args, caps):
    return {"seed": args.seed, "caps": dataclasses.asdict(caps)}


def _cmd_invariants(args, caps):
    spec = parse_spec(args.spec)
    G = build_group(spec, caps=caps)
    F, E = fitting(G, caps=caps), layer(G, caps=caps)
    inv = {
        "order": G.order,
        "fitting": F.order,
        "layer": E.order,
        "generalized_fitting": _fitting_product(F, E, caps).order,
        "frattini_normal": frattini_normal(G, caps=caps).order,
        "frattini_normal_height": phi_lhd_height(G, caps=caps),
        "cores": {str(p): pi_core(G, {p}, caps=caps).order for p in prime_factors(G.order)},
    }
    provenance = {
        "order": "stabilizer-chain order",
        "fitting": "fitting",
        "layer": "layer",
        "generalized_fitting": "generalized_fitting",
        "frattini_normal": "frattini_normal",
        "frattini_normal_height": "phi_lhd_height",
        "cores": "pi_core per prime divisor",
    }
    provenance.update(_provenance(args, caps))
    return {"group": str(spec), "invariants": inv, "provenance": provenance}, None


def _cmd_ob_table(args, caps):
    spec = parse_spec(args.spec)
    if args.max_n < 1:
        raise _InputError("--max-n must be at least 1")
    G = build_group(spec, caps=caps)
    rows = []
    for n in range(1, args.max_n + 1):
        row = {"n": n, "ob": ob_function(G, n, caps=caps)}
        if args.star:
            row["ob_star"] = ob_star_function(G, n, caps=caps)
        rows.append(row)
    report = {"group": str(spec), "ob_table": rows, "provenance": _provenance(args, caps)}
    header = ["n", "ob"] + (["ob_star"] if args.star else [])
    csv_rows = [[str(r[k]) for k in header] for r in rows]
    return report, (header, csv_rows)


def _cmd_tate(args, caps):
    spec = parse_spec(args.spec)
    G = build_group(spec, caps=caps)
    if args.K == "self":
        k_text, K = "self", G
    else:
        k_spec = parse_spec(args.K)
        k_text, K = str(k_spec), build_group(k_spec, caps=caps)
    check = tate_check(G, K, args.p, caps=caps)
    report = {
        "group": str(spec),
        "K": k_text,
        "p": args.p,
        "tate": {
            "derived": check.derived,
            "frattini_quotient": check.frattini_quotient,
            "mixed": check.mixed,
            "p_residual": check.p_residual,
            "controls_transfer": check.controls_transfer(),
            "all_agree": check.all_agree(),
        },
        "provenance": _provenance(args, caps),
    }
    return report, None


def _serialize_chain(chain):
    return [
        {
            "kind": mv.kind,
            "element": str(mv.element),
            "source": mv.source_id,
            "target": mv.target_id,
            "fusion_class": mv.fusion_class,
            "generator_index": mv.generator_index,
        }
        for mv in chain
    ]


def _cmd_fusion(args, caps):
    spec = parse_spec(args.spec)
    G = build_group(spec, caps=caps)
    table = fusion_table(G, args.p, caps=caps)
    classes = []
    for cid, cls in enumerate(table.s_classes):
        P = table.subgroups[cls.rep_id]
        classes.append(
            {
                "id": cid,
                "order": P.order,
                "generators": [str(g) for g in P.generators] or ["()"],
                "size": len(cls.member_ids),
                "automizer_order": table.automizers[cid].order,
                "fusion_class": table.fusion_class_of[cid],
            }
        )
    k = len(table.s_classes)
    matrix = [[1 if table.fused(i, j) else 0 for j in range(k)] for i in range(k)]
    witnesses = {f"{i},{j}": str(w) for (i, j), w in sorted(table.g_fusion.items())}
    report = {
        "group": str(spec),
        "p": args.p,
        "sylow_order": table.sylow.order,
        "classes": classes,
        "fusion_matrix": matrix,
        "witnesses": witnesses,
        "provenance": _provenance(args, caps),
    }
    if args.alperin:
        ok, chains, _ = alperin_closure_check(G, args.p, caps=caps, table=table)
        report["alperin"] = {
            "holds": ok,
            "chains": {f"{i},{j}": _serialize_chain(c) for (i, j), c in sorted(chains.items())},
        }
    return report, None


def _build_tower(args, caps) -> Tower:
    try:
        params = tuple(int(v) for v in args.params.split(","))
    except ValueError:
        raise _InputError(f"--params must be comma-separated integers, got {args.params!r}")
    if args.family == "cyclic":
        if len(params) != 2:
            raise _InputError("cyclic tower takes --params p,depth")
        return cyclic_tower(params[0], params[1], caps=caps)
    if args.family == "wreath":
        if len(params) != 2:
            raise _InputError("wreath tower takes --params p,depth")
        return wreath_tower(params[0], params[1], caps=caps)
    if len(params) < 2:
        raise _InputError("fitting tower takes --params p1,...,pk (depth = number of primes)")
    return fitting_degenerate_tower(params, len(params), caps=caps)


def _cmd_tower(args, caps):
    if args.max_n is not None and args.max_n < 1:
        raise _InputError("--max-n must be at least 1")
    tower = _build_tower(args, caps)
    descriptor = {
        "family": tower.family,
        "params": list(args.params.split(",")),
        "levels": [{"order": g.order, "degree": g.degree} for g in tower.levels],
        "maps": [
            {str(g): str(hom.apply(g)) for g in hom.domain.generators} for hom in tower.maps
        ],
        "fitting_indices": tower_fitting_sequence(tower, caps=caps),
    }
    header = ["level", "n", "ob"] + (["ob_star"] if args.star else []) + ["stable"]
    csv_rows = []
    if args.max_n is not None:
        ob_rows = []
        for n in range(1, args.max_n + 1):
            values, stable = tower_ob_sequence(tower, n, caps=caps)
            for level, ob in enumerate(values, start=1):
                row = {"level": level, "n": n, "ob": ob}
                if args.star:
                    row["ob_star"] = ob_star_function(tower.levels[level - 1], n, caps=caps)
                row["stable"] = stable
                ob_rows.append(row)
        descriptor["ob_table"] = ob_rows
        csv_rows = [[str(r[k]).lower() if k == "stable" else str(r[k]) for k in header] for r in ob_rows]
    report = {"tower": descriptor, "provenance": _provenance(args, caps)}
    return report, ((header, csv_rows) if args.max_n is not None else None)


_COMMANDS = {
    "invariants": _cmd_invariants,
    "ob-table": _cmd_ob_table,
    "tate": _cmd_tate,
    "fusion": _cmd_fusion,
    "tower": _cmd_tower,
}


def _emit(report, csv_payload, args, stdout):
    if args.csv and csv_payload is None:
        raise _InputError("this command produces no CSV report")
    text = json.dumps(report, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    if args.csv:
        header, rows = csv_payload
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(row) + "\n")
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(buf.getvalue())
    stdout.write(text)  # last, so that a failed file write prints no report


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    def diagnose(kind, message, code):
        stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
        return code

    try:
        args = _parser().parse_args(argv)
    except _InputError as exc:
        return diagnose("input", str(exc), 1)
    try:
        caps = _caps_from(args)
        report, csv_payload = _COMMANDS[args.command](args, caps)
        _emit(report, csv_payload, args, stdout)
    except CapExceeded as exc:
        return diagnose("cap", str(exc), 2)
    except (_InputError, SpecError, MalformedPermutation, NotASubgroup, ValueError) as exc:
        return diagnose("input", str(exc), 1)
    except OSError as exc:  # a --json/--csv path that cannot be written
        return diagnose("input", str(exc), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
