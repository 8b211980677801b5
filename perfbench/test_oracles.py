"""The benchmark's checks: each one passes on right values and fails on a wrong one.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import oracles
import pytest
import tracing
from workloads import ALL_SYSTEMS

from parahoric import cli
from parahoric.chevalley import build_sign_table, mutate_one_sign, verify_sign_axioms
from parahoric.concave import enumerate_overgroups, pseudo_borel_function
from parahoric.groups.cosets import FlagSpace
from parahoric.groups.group import build_group
from parahoric.groups.kernels import FlagOrbit
from parahoric.groups.subgroups import subgroup_gens
from parahoric.root_system import build_root_system, gamma_table
from parahoric.steinberg import regular_orbit_count


@pytest.mark.parametrize("dynkin,rank", ALL_SYSTEMS)
def test_bourbaki_tables_agree_with_the_degrees(dynkin, rank):
    degrees = oracles.weyl_degrees(dynkin, rank)
    assert len(degrees) == rank
    assert oracles.root_count(dynkin, rank) == 2 * sum(d - 1 for d in degrees)
    assert oracles.coxeter_number(dynkin, rank) == max(degrees)
    assert oracles.poincare(dynkin, rank, 1) == math.prod(degrees)  # |W|


def test_flag_space_closed_form_matches_the_workload_instances():
    assert oracles.flag_space_size("A", 2, 5, 2) == 23_250
    assert oracles.flag_space_size("A", 2, 3, 3) == 37_908
    assert oracles.flag_space_size("C", 2, 3, 2) == 12_960
    assert oracles.flag_space_size("A", 2, 3, 4) == 1_023_516


def test_coset_closed_form_matches_the_orbit_of_the_base_flag():
    # |P_f / B| is the orbit of the standard flag under P_f acting on the
    # left, which is well defined, so [G : P_f] = |G/B| / |P_f / B|.
    g = build_group("A2", "sc", 3, 2)
    index = oracles.flag_space_size("A", 2, 3, 2)
    for f in enumerate_overgroups(pseudo_borel_function(g.rs, 2)):
        orbit = FlagOrbit(g.n, g.mod, g.p, g.flag_k)
        fibre = orbit.build(subgroup_gens(g, f), max_points=10**5)
        values = {a: f[a] for a in g.rs.negative_roots}
        assert oracles.coset_count("A", 2, 3, 2, values) * fibre == index


def test_coset_lattice_check_rejects_an_off_by_one_index():
    rs = build_root_system("A", 2)
    index = oracles.flag_space_size("A", 2, 3, 2)
    counts = []
    for f in enumerate_overgroups(pseudo_borel_function(rs, 2)):
        values = {a: f[a] for a in rs.negative_roots}
        counts.append((values, oracles.coset_count("A", 2, 3, 2, values)))
    assert oracles.check_coset_lattice("A", 2, 3, 2, index, counts, 6, index) == []
    assert oracles.wrong_coset_counts("A", 2, 3, 2, counts) == []
    assert oracles.check_coset_lattice("A", 2, 3, 2, index + 1, counts, 6, index)
    assert oracles.check_coset_lattice("A", 2, 3, 2, index, counts, 6, index - 1)
    assert oracles.check_coset_lattice("A", 2, 3, 2, index, counts, 5, index)
    wrong = [(values, c + 1 if not any(values.values()) else c) for values, c in counts]
    assert oracles.check_coset_lattice("A", 2, 3, 2, index, wrong, 6, index)
    assert len(oracles.wrong_coset_counts("A", 2, 3, 2, wrong)) == 1


def test_flag_space_of_the_package_has_the_closed_form_size():
    g = build_group("C2", "sc", 3, 2)
    assert len(FlagSpace(g, budget=10**5)) == oracles.flag_space_size("C", 2, 3, 2)


@pytest.mark.parametrize("type_label,isogeny,p,want", [
    ("A1", "sc", 3, 2), ("A1", "sc", 5, 2), ("A1", "adjoint", 3, 1),
    ("A2", "sc", 5, 1), ("A2", "sc", 7, 3), ("A2", "adjoint", 7, 1), ("C2", "sc", 3, 2),
])
def test_orbit_count_closed_form_matches_the_torus_action(type_label, isogeny, p, want):
    dynkin, rank = type_label[0], int(type_label[1])
    assert oracles.regular_orbit_count(dynkin, rank, isogeny, p) == want
    assert regular_orbit_count(build_group(type_label, isogeny, p, 2)) == want


def _report(st_st, st_sum, skipped=False):
    cert = [{"name": "st_st_equals_orbits", "computed": st_st},
            {"name": "st_dims_sum_to_index", "computed": st_sum}]
    checks = [
        {"name": "parahoric_axioms", "result": {}, "pass": True},
        {"name": "exterior_class_absorption",
         "result": "skipped: hypothesis" if skipped else {}, "pass": True},
        {"name": "multiplicity_freeness", "result": cert, "pass": True},
    ]
    return {"checks": checks, "pass": True}


def test_verify_check_rejects_a_wrong_orbit_count():
    index = oracles.flag_space_size("A", 2, 5, 2)
    args = ("A", 2, "adjoint", 5, 2)
    assert oracles.check_verify_report(*args, exit_code=0, report=_report(1, index)) == []
    assert oracles.check_verify_report(*args, exit_code=0, report=_report(2, index))
    assert oracles.check_verify_report(*args, exit_code=0, report=_report(1, index + 1))
    assert oracles.check_verify_report(*args, exit_code=1, report=_report(1, index))
    assert oracles.check_verify_report(*args, exit_code=0, report=_report(1, index, True))


def test_verify_check_rejects_a_report_with_skipped_checks():
    # A2 at p = 3 skips absorption and the certificate, yet reports pass
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--type", "A2", "-p", "3", "-h", "2", "--format", "json"])
    report = json.loads(out.getvalue().splitlines()[-1])
    problems = oracles.check_verify_report("A", 2, "sc", 3, 2, exit_code=code, report=report)
    assert any("skipped" in p for p in problems)


def test_sign_check_rejects_a_mutated_table():
    table = build_sign_table(build_root_system("B", 3), gauge=12345)
    assert oracles.check_sign_axioms("B3", verify_sign_axioms(table, full=True)) == []
    mutated = mutate_one_sign(table)
    assert oracles.check_sign_axioms("B3", verify_sign_axioms(mutated, full=True))


def test_root_system_check_rejects_the_printed_a_count():
    rs = build_root_system("A", 5)
    sizes = {l: len(v) for l, v in gamma_table(rs).items()}
    assert oracles.check_root_system("A", 5, len(rs.roots), 6, sizes) == []
    printed = {l: max(0, 5 - l - 1) for l in sizes}
    assert oracles.check_root_system("A", 5, len(rs.roots), 6, printed)
    assert oracles.check_root_system("A", 5, len(rs.roots), 5, sizes)
    assert oracles.check_root_system("A", 5, len(rs.roots) - 2, 6, sizes)


@pytest.mark.parametrize("dynkin,rank,h,want", [("A", 1, 2, 3), ("A", 1, 3, 4), ("A", 2, 2, 10)])
def test_brute_force_overgroup_count(dynkin, rank, h, want):
    rs = build_root_system(dynkin, rank)
    assert oracles.concave_overgroup_count(rs.roots, h) == want


def test_tracer_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("b.inner", lambda: sum(range(20000)))

    def outer():
        inner()
        return inner()

    tracer.wrap("a.outer", outer)()
    m = tracer.counters
    assert m["a.outer_s"] == pytest.approx(m["a.self_s"] + m["b.inner_s"])
    assert m["b.self_s"] == pytest.approx(m["b.inner_s"])
    assert m["a.s"] == m["a.outer_s"]
    assert [name for _, _, name, _, _ in tracer.spans] == ["b.inner", "b.inner", "a.outer"]
    assert {parent for _, parent, name, _, _ in tracer.spans if name == "b.inner"} == {0}
