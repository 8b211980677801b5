"""The benchmark's workloads: what each one calls and how its outputs are checked.

Each workload has `prepare(seed)`, which imports the modules it uses and
builds its inputs (counted in setup_s), and `run(inputs, rnd)`, which makes
the timed calls into the package through `rnd.call` and hands what they
returned to the checks in `oracles` (counted in wall_s).
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import oracles


class Round:
    """One round's operations: how many were attempted, failed, and found wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Call into the package; an exception counts the operation as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark reports failures, it does not stop on them
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
            return None

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems)

    def fail(self, errors: list[str]) -> None:
        """Count operations already attempted as failed, one per line in errors."""
        self.failed += len(errors)
        self.errors.extend(errors)


# ---------------------------------------------------------------------------
# verify-pgl3-25: the user-facing command on PGL3(Z/25)

VERIFY_INSTANCE = ("A", 2, "adjoint", 5, 2)


def prepare_verify(seed: int):
    from parahoric import cli, steinberg  # noqa: F401  (cmd_verify imports these lazily)
    from parahoric.groups import checks, cosets  # noqa: F401

    dynkin, rank, isogeny, p, h = VERIFY_INSTANCE
    argv = ["verify", "--type", f"{dynkin}{rank}", "--isogeny", isogeny,
            "-p", str(p), "-h", str(h), "--format", "json"]
    return cli, argv


def run_verify(inputs, rnd: Round) -> None:
    cli, argv = inputs
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rnd.call("parahoric verify", cli.main, argv)
    if code is None:
        return
    report = json.loads(out.getvalue().splitlines()[-1])
    rnd.check(oracles.check_verify_report(*VERIFY_INSTANCE, exit_code=code, report=report))


# ---------------------------------------------------------------------------
# coset-lattice: every [G : P_f] over the overgroups of the pseudo-Borel

COSET_INSTANCES = [("A", 2, "sc", 3, 3), ("C", 2, "sc", 3, 2)]  # SL3(Z/27), Sp4(Z/9)


def prepare_coset_lattice(seed: int):
    from parahoric import concave, steinberg
    from parahoric.groups import cosets, group, subgroups

    groups = [group.build_group(f"{t}{r}", iso, p, h) for t, r, iso, p, h in COSET_INSTANCES]
    return concave, cosets, subgroups, steinberg, groups


def run_coset_lattice(inputs, rnd: Round) -> None:
    concave, cosets, subgroups, steinberg, groups = inputs
    for (dynkin, rank, _, p, h), g in zip(COSET_INSTANCES, groups):
        tag = f"{dynkin}{rank} p={p} h={h}"
        flags = rnd.call(f"{tag} FlagSpace", cosets.FlagSpace, g, budget=10**6)
        fb = rnd.call(f"{tag} pseudo-Borel", concave.pseudo_borel_function, g.rs, h)
        fs = rnd.call(f"{tag} overgroups", concave.enumerate_overgroups, fb)
        if flags is None or fs is None:
            continue
        counts = [
            ({a: f[a] for a in g.rs.negative_roots},
             rnd.call(f"{tag} coset_count", flags.coset_count, f))
            for f in fs
        ]
        bgb = rnd.call(f"{tag} #(B\\G/B)", cosets.double_coset_count_flags,
                       flags, subgroups.subgroup_gens(g, fb), fb)
        dims = [rnd.call(f"{tag} st_dim", steinberg.st_dim, g, f, flags=flags) for f in fs]
        if bgb is None or None in dims or any(c is None for _, c in counts):
            continue
        rnd.check(oracles.check_coset_lattice(dynkin, rank, p, h, len(flags), counts,
                                              bgb, sum(dims)))
        # a wrong [G : P_f] is a failed coset_count (the fibre pass misses points of
        # some fibres); it does not make the round incorrect, and it shows in `failed`
        rnd.fail(oracles.wrong_coset_counts(dynkin, rank, p, h, counts))


# ---------------------------------------------------------------------------
# combinatorics: root systems, sign tables, level graphs, concave functions

ALL_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
GENERIC_SYSTEMS = [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]
OVERGROUP_CASES = [("A", 1, 2), ("A", 1, 3), ("A", 1, 4), ("A", 2, 2), ("A", 2, 3),
                   ("A", 3, 2), ("B", 2, 2), ("B", 2, 3), ("G", 2, 2)]
# One pass takes ~17 s with the pure-Python kernel and its time varies ~15% from
# run to run on a shared host; a round makes two passes, each in its own gauges.
# Nothing a pass computes is cached by the package, so the second is as cold.
COMBINATORICS_PASSES = 2


def prepare_combinatorics(seed: int):
    from parahoric import chevalley, concave, level_graphs, root_system

    systems = {key: root_system.build_root_system(*key) for key in ALL_SYSTEMS}
    rng = random.Random(seed)
    gauge_sets = [{key: rng.randrange(1, 2**31) for key in ALL_SYSTEMS}
                  for _ in range(COMBINATORICS_PASSES)]
    return root_system, chevalley, level_graphs, concave, systems, gauge_sets


def run_combinatorics(inputs, rnd: Round) -> None:
    *modules, systems, gauge_sets = inputs
    for gauges in gauge_sets:
        combinatorics_pass(*modules, systems, gauges, rnd)


def combinatorics_pass(root_system, chevalley, level_graphs, concave, systems, gauges,
                       rnd: Round) -> None:
    signs = {}
    cycles_of = {}
    for (dynkin, rank), rs in systems.items():
        tag = f"{dynkin}{rank}"
        table = rnd.call(f"{tag} gamma_table", root_system.gamma_table, rs)
        cox = rnd.call(f"{tag} coxeter_number", root_system.coxeter_number, rs)
        if table is not None and cox is not None:
            rnd.check(oracles.check_root_system(
                dynkin, rank, len(rs.roots), cox, {l: len(v) for l, v in table.items()}))
        signs[tag] = rnd.call(f"{tag} sign table", chevalley.build_sign_table, rs,
                              gauge=gauges[(dynkin, rank)])
        if signs[tag] is not None:
            reports = rnd.call(f"{tag} sign axioms", chevalley.verify_sign_axioms,
                               signs[tag], full=True)
            if reports is not None:
                rnd.check(oracles.check_sign_axioms(f"{tag} gauge {gauges[(dynkin, rank)]}",
                                                    reports))
        for graph in rnd.call(f"{tag} graphs", level_graphs.all_graphs, rs) or []:
            cycles = rnd.call(f"{tag} l={graph.l} cycles", level_graphs.enumerate_cycles, graph)
            cycles_of[(tag, graph.l)] = cycles or []
            for c in cycles or []:
                tris = rnd.call(f"{tag} triangulate", level_graphs.triangulate_cycle, graph, c)
                if tris is not None:
                    oracles.expect(rnd.problems, f"{tag} l={graph.l} triangles of a {len(c)}-cycle",
                                   len(c) - 2, len(tris))
        level3 = rnd.call(f"{tag} level-3 search", level_graphs.verify_no_reduced_level3_3cycle, rs)
        if level3 is not None:
            oracles.expect(rnd.problems, f"{tag} no reduced level>=3 triangle", [],
                           level3["reduced_level_ge3"])

    # the determinant constants 2, 3, 3, 5 hold in every gauge, so in the seeded one
    dets = []
    for tag in ("D4", "D5"):
        if signs[tag] is not None:
            dets.append((f"{tag} level-2 reduced triangle", 2, rnd.call(
                f"{tag} det", level_graphs.level2_reduced_3cycle_constant,
                systems[(tag[0], int(tag[1:]))], signs[tag])))
    for tag, l, length, want in (("F4", 4, 3, 3), ("E8", 10, 5, 3), ("E8", 6, 7, 5)):
        found = [c for c in cycles_of.get((tag, l), []) if len(c) == length and c.reduced]
        if signs[tag] is None or not found:
            rnd.problems.append(f"{tag} l={l}: no reduced {length}-cycle to take a determinant of")
            continue
        dets.append((f"{tag} l={l} reduced {length}-cycle", want,
                     rnd.call(f"{tag} det", level_graphs.det_constant, found[0], signs[tag])))
    for name, want, got in dets:
        oracles.expect(rnd.problems, f"determinant constant of {name}", want, got)

    # generic functions exist exactly from depth h = Coxeter number + 1
    for dynkin, rank in GENERIC_SYSTEMS:
        rs = systems[(dynkin, rank)]
        h0 = oracles.coxeter_number(dynkin, rank)
        below = rnd.call(f"{dynkin}{rank} generic h={h0}", concave.generic_exists, rs, h0)
        above = rnd.call(f"{dynkin}{rank} generic h={h0 + 1}", concave.generic_exists, rs, h0 + 1)
        if below is not None and above is not None:
            oracles.expect(rnd.problems, f"{dynkin}{rank} generic at h={h0}, h={h0 + 1}",
                           (False, True), (below[0], above[0]))

    for dynkin, rank, h in OVERGROUP_CASES:
        rs = systems[(dynkin, rank)]
        fb = rnd.call(f"{dynkin}{rank} pseudo-Borel", concave.pseudo_borel_function, rs, h)
        fs = rnd.call(f"{dynkin}{rank} overgroups h={h}", concave.enumerate_overgroups, fb)
        if fs is not None:
            oracles.expect(rnd.problems, f"{dynkin}{rank} h={h} overgroups",
                           oracles.concave_overgroup_count(rs.roots, h), len(fs))


WORKLOADS = {
    "verify-pgl3-25": (prepare_verify, run_verify),
    "coset-lattice": (prepare_coset_lattice, run_coset_lattice),
    "combinatorics": (prepare_combinatorics, run_combinatorics),
}
