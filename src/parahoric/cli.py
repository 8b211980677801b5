"""Batch verification driver.

Four subcommands, each emitting a deterministic report and exiting nonzero
iff any check fails (2 for a usage error):

    parahoric roots  --type E --rank 8
    parahoric graphs --type F --rank 4 [--l 4] [--format dot]
    parahoric signs  --type G --rank 2 [--gauge plus|minus|alternating|<seed>]
    parahoric verify --type A1 --isogeny sc -p 3 -h 2

Progress goes to stderr, results to stdout.  -h is the depth flag (as in
the group G(Z/p^h)); use --help for usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chevalley import GAUGE_NAMES, build_sign_table, verify_sign_axioms
from .concave import generic_exists
from .root_system import (
    InvalidRootSystem,
    a_count_discrepancy,
    build_root_system,
    coxeter_number,
    dynkin_edge_count,
    gamma_table,
    pseudo_leaves,
    serialize_roots,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
        return
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list)) and value:
                    print(f"{pad}{key}:")
                    walk(value, indent + 1)
                else:
                    print(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for value in obj:
                if isinstance(value, (dict, list)):
                    walk(value, indent + 1)
                else:
                    print(f"{pad}- {value}")
    walk(payload)


def cmd_roots(args) -> int:
    rs = build_root_system(args.type, args.rank)
    table = gamma_table(rs)
    report = {
        "system": f"{rs.dynkin}{rs.rank}",
        "roots": len(rs.roots),
        "negative_roots": len(rs.negative_roots),
        "coxeter_number": coxeter_number(rs),
        "dynkin_edges": dynkin_edge_count(rs),
        "gamma_sizes": {l: len(table[l]) for l in sorted(table)},
        "pseudo_leaves": {
            l: sorted("".join(str(-c) for c in a) for a in pseudo_leaves(rs, l))
            for l in sorted(table)
            if l >= 2 and pseudo_leaves(rs, l)
        },
        "pass": True,
    }
    monotone = all(
        len(table.get(l, ())) <= len(table.get(l - 1, ()))
        for l in sorted(table)
        if l >= 2
    )
    report["gamma_monotone"] = monotone
    report["pass"] = monotone
    if rs.dynkin == "A":
        rows = a_count_discrepancy(rs.rank)
        report["findings"] = {
            "printed_A_count_formula": "n-l-1",
            "enumerated": "n-l+1",
            "rows": rows,
        }
    if args.list_roots:
        report["root_listing"] = serialize_roots(rs).splitlines()
    _emit(report, args.format)
    return EXIT_OK if report["pass"] else EXIT_FAIL


def cmd_graphs(args) -> int:
    from .level_graphs import all_graphs, build_graph, det_constant, enumerate_cycles

    rs = build_root_system(args.type, args.rank)
    signs = build_sign_table(rs)
    graphs = [build_graph(rs, args.l)] if args.l else all_graphs(rs)
    report = {"system": f"{rs.dynkin}{rs.rank}", "graphs": [], "pass": True}
    for g in graphs:
        if not g.vertices:
            continue
        if args.format == "dot":
            print(g.to_dot())
            continue
        cycles = enumerate_cycles(g)
        entry = {
            "l": g.l,
            "vertices": len(g.vertices),
            "edges": len(g.edge_label),
            "isolated_betas": len(g.isolated_betas),
            "connected": g.is_connected(),
            "cycles": [
                {
                    "length": len(c),
                    "reduced": c.reduced,
                    "level": c.level,
                    "det": det_constant(c, signs) if c.reduced else None,
                }
                for c in cycles
            ],
            "text": g.to_text().splitlines(),
        }
        report["graphs"].append(entry)
        if not entry["connected"]:
            report["pass"] = False
    if args.format == "dot":
        return EXIT_OK
    _emit(report, args.format)
    return EXIT_OK if report["pass"] else EXIT_FAIL


def _gauge_arg(text: str):
    """--gauge: one of GAUGE_NAMES or an integer seed."""
    if text in GAUGE_NAMES:
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unsupported gauge {text!r} (use {', '.join(GAUGE_NAMES)} or an integer seed)"
        ) from None


def cmd_signs(args) -> int:
    rs = build_root_system(args.type, args.rank)
    table = build_sign_table(rs, gauge=args.gauge)
    report = verify_sign_axioms(table, full=True)
    for (a, b) in table.pairs():
        va = " ".join(str(c) for c in a)
        vb = " ".join(str(c) for c in b)
        print(f"({va}) + ({vb}) : eps={table.eps[(a, b)]:+d} p={table.pmul[(a, b)]}")
    for r in report:
        line = f"axiom {r.name}: {'pass' if r.passed else 'FAIL'} ({r.checked} checked)"
        print(line, file=sys.stderr)
    return EXIT_OK if all(r.passed for r in report) else EXIT_FAIL


STATUS_LABELS = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP", "refused": "REFUSED"}


def cmd_verify(args) -> int:
    from .closure import BudgetExceeded
    from .groups.checks import (
        verify_exterior_class_absorption,
        verify_overgroup_classification,
        verify_parahoric_axioms,
        verify_rank1_classes,
    )
    from .groups.cosets import FlagSpace
    from .groups.group import GroupBuildError, build_group
    from .steinberg import generic_bound_check, verify_multiplicity_freeness

    try:
        g = build_group(args.type, args.isogeny, args.p, args.depth)
    except GroupBuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    checks = []

    def record(name, result, passed):
        status = "pass" if passed else "fail"
        checks.append({"name": name, "result": result, "status": status, "pass": passed})
        print(f"{STATUS_LABELS[status]}  {name}", file=sys.stderr)

    def record_not_run(name, status, reason):
        """A check that did not run: skipped (a hypothesis fails) or refused (budget).
        `result` keeps the "<status>: <reason>" string that readers match on."""
        checks.append({"name": name, "result": f"{status}: {reason}", "status": status,
                       "reason": reason, "pass": False})
        print(f"{STATUS_LABELS[status]}  {name}: {reason}", file=sys.stderr)

    r = verify_parahoric_axioms(g)
    record("parahoric_axioms", {k: v for k, v in r.items() if k != "instance"}, r["pass"])

    if g.type_label == "A1":
        r = verify_rank1_classes(g)
        record("rank1_classes", {"failures": r["failures"]}, r["pass"])
        if g.order() <= args.budget_elements:
            r = verify_overgroup_classification(g, budget=args.budget_elements)
            record(
                "overgroup_classification",
                {k: v for k, v in r.items() if k != "instance"},
                r["pass"],
            )

    try:
        flags = FlagSpace(g, budget=args.budget_cosets)
    except BudgetExceeded as exc:
        record_not_run("flag_space", "refused", str(exc))
        flags = None
    if flags is not None:
        try:
            r = verify_exterior_class_absorption(g, flags=flags)
            record("exterior_class_absorption", r["results"], r["pass"])
        except ValueError as exc:
            record_not_run("exterior_class_absorption", "skipped", str(exc))
        if g.h >= 2:
            try:
                rep = verify_multiplicity_freeness(g, flags=flags, budget=args.budget_cosets)
                record("multiplicity_freeness", rep.checks, rep.ok)
            except ValueError as exc:
                record_not_run("multiplicity_freeness", "skipped", str(exc))
        ok, witness = generic_exists(g.rs, g.h) if g.rs.rank >= 2 else (False, None)
        if ok:
            rep = generic_bound_check(g, witness, flags=flags, budget=args.budget_cosets)
            record("generic_bound", rep.checks, rep.ok)

    # a skipped check is reported but does not fail the run; a refusal does
    overall = all(c["status"] in ("pass", "skipped") for c in checks)
    payload = {"instance": g.describe(), "checks": checks, "pass": overall}
    _emit(payload, args.format)
    return EXIT_OK if overall else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parahoric",
        description="exact verification of level graphs, concave subgroup "
        "lattices, and small Steinberg decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    roots = sub.add_parser("roots", help="length tables, Coxeter numbers, pseudo-leaves")
    roots.add_argument("--type", required=True, choices=list("ABCDEFG"))
    roots.add_argument("--rank", type=int, required=True)
    roots.add_argument("--list-roots", action="store_true")
    roots.add_argument("--format", choices=("text", "json"), default="text")
    roots.set_defaults(func=cmd_roots)

    graphs = sub.add_parser("graphs", help="level graphs, cycles, determinants")
    graphs.add_argument("--type", required=True, choices=list("ABCDEFG"))
    graphs.add_argument("--rank", type=int, required=True)
    graphs.add_argument("--l", type=int, default=None)
    graphs.add_argument("--format", choices=("text", "json", "dot"), default="text")
    graphs.set_defaults(func=cmd_graphs)

    signs = sub.add_parser("signs", help="dump the Chevalley sign table")
    signs.add_argument("--type", required=True, choices=list("ABCDEFG"))
    signs.add_argument("--rank", type=int, required=True)
    signs.add_argument("--gauge", type=_gauge_arg, default="plus")
    signs.set_defaults(func=cmd_signs)

    verify = sub.add_parser(
        "verify",
        help="proposition suite for a concrete group instance",
        add_help=False,
    )
    verify.add_argument("--help", action="help")
    verify.add_argument("--type", required=True, choices=("A1", "A2", "C2"))
    verify.add_argument("--isogeny", choices=("sc", "adjoint"), default="sc")
    verify.add_argument("-p", type=int, required=True)
    verify.add_argument("-h", "--depth", dest="depth", type=int, required=True)
    verify.add_argument("--budget-elements", type=int, default=10**6)
    verify.add_argument("--budget-cosets", type=int, default=10**5)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except InvalidRootSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except InvalidRootSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
