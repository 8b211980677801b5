"""Acceptance criteria, one test per criterion, at the stated budgets.

Each test prints a PASS/FAIL line (visible with pytest -s and in failure
reports).  Two sub-claims are implemented faithfully but are known-false
mathematics (see the strict xfail tests and their docstrings): G_2-level
graphs of forked diagrams contain nonreduced triangles, and B is not
self-normalizing in SL2(Z/9).
"""

import time

import pytest

from parahoric.chevalley import build_sign_table
from parahoric.concave import (
    generic_exists,
    is_generic,
    length_witness,
    pseudo_borel_function,
)
from parahoric.groups.checks import (
    verify_exterior_class_absorption,
    verify_overgroup_classification,
    verify_parahoric_axioms,
)
from parahoric.groups.cosets import FlagSpace
from parahoric.groups.group import build_group
from parahoric.level_graphs import (
    all_graphs,
    build_graph,
    det_constant,
    enumerate_cycles,
    level2_reduced_3cycle_constant,
    triangulate_cycle,
    verify_no_reduced_level3_3cycle,
)
from parahoric.root_system import (
    VALID_RANKS,
    a_count_discrepancy,
    build_root_system,
    dynkin_edge_count,
    gamma_count_a,
    gamma_count_bc,
    gamma_count_d,
    gamma_table,
)
from parahoric.steinberg import (
    generic_bound_check,
    regular_orbit_count,
    st_dim,
    st_inner,
    verify_multiplicity_freeness,
)

ALL_TYPES = [(t, n) for t, ranks in VALID_RANKS.items() for n in ranks]


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, ok: bool = True):
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {self.name}  ({elapsed:.1f}s < {self.seconds:.0f}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        assert ok


def test_criterion_1_gamma_cardinalities():
    budget = Budget("criterion 1: Gamma cardinality suite", 10)
    for t, n in ALL_TYPES:
        rs = build_root_system(t, n)
        table = gamma_table(rs)
        top = max(table)
        for l in range(2, top + 1):
            assert len(table.get(l, ())) <= len(table[l - 1]), (t, n, l)
        assert len(table.get(2, ())) < len(table[1]), (t, n)
        for l in range(1, top + 1):
            size = len(table.get(l, ()))
            if t == "A":
                assert size == gamma_count_a(n, l)
            elif t in "BC":
                assert size == gamma_count_bc(n, l)
            elif t == "D":
                assert size == gamma_count_d(n, l)
    # the A_n discrepancy is flagged, not silently fixed
    for n in range(1, 9):
        rows = a_count_discrepancy(n)
        assert rows and all(r["printed"] != r["actual"] for r in rows)
    budget.done()


def test_criterion_2_graph_suite():
    budget = Budget("criterion 2: graph suite", 30)
    for t, n in ALL_TYPES:
        rs = build_root_system(t, n)
        graphs = all_graphs(rs)
        for g in graphs:
            assert g.is_connected(), (t, n, g.l)
        g2 = build_graph(rs, 2)
        assert len(g2.vertices) == dynkin_edge_count(rs)
        # the defensible reading: no REDUCED cycle at l = 2 (see the xfail
        # below for the literal "acyclic" claim)
        assert all(not c.reduced for c in enumerate_cycles(g2))
        if t in "ABC":
            for g in graphs:
                assert not enumerate_cycles(g), (t, n, g.l)
    budget.done()


@pytest.mark.xfail(
    strict=True,
    reason="known-false sub-claim: the l=2 graph is the line graph of the "
    "Dynkin diagram, so forked diagrams (D_n, E_n) contain a nonreduced "
    "triangle at the branch node; only REDUCED cycles are ruled out at "
    "l = 2 (D4 is a counterexample to the literal claim)",
)
def test_criterion_2_literal_g2_acyclic():
    for t, n in ALL_TYPES:
        g2 = build_graph(build_root_system(t, n), 2)
        assert not enumerate_cycles(g2), (t, n)


def _names(roots):
    return {"".join(str(-c) for c in a) for a in roots}


def test_criterion_3_golden_graphs():
    budget = Budget("criterion 3: golden graphs", 120)
    import test_level_graphs as golden

    rs = build_root_system("E", 8)
    for l, data in golden.E8_FIGURES.items():
        g = build_graph(rs, l)
        assert _names(g.vertices) == data["vertices"], f"E8 l={l}"
    for l in sorted(golden.E8_FIGURES):
        golden.test_e8_figures(l)
    golden.test_f4_l3_figure(build_sign_table(build_root_system("F", 4)))
    golden.test_f4_l4_figure_and_det(build_sign_table(build_root_system("F", 4)))
    golden.test_e6_l7_figure()
    golden.test_e7_l7_figure()
    golden.test_e7_l5_figure()
    for n in range(4, 9):
        golden.test_dn_generic_shape(n)
    # spotlighted cycle-inventory facts
    assert [c.reduced for c in enumerate_cycles(build_graph(rs, 10)) if len(c) == 5] == [True]
    assert not [c for c in enumerate_cycles(build_graph(rs, 13)) if len(c) == 5]
    budget.done()


def test_criterion_4_determinant_constants():
    budget = Budget("criterion 4: determinant constants", 10)
    f4 = build_root_system("F", 4)
    d4 = build_root_system("D", 4)
    d5 = build_root_system("D", 5)
    e8 = build_root_system("E", 8)
    e8_l6 = build_graph(e8, 6)
    e8_l10 = build_graph(e8, 10)
    seven = [c for c in enumerate_cycles(e8_l6) if len(c) == 7 and c.reduced][0]
    five = [c for c in enumerate_cycles(e8_l10) if len(c) == 5 and c.reduced][0]
    f4_tri = enumerate_cycles(build_graph(f4, 4))[0]
    for gauge in ("plus", "minus", 17):
        assert level2_reduced_3cycle_constant(d4, build_sign_table(d4, gauge=gauge)) == 2
        assert level2_reduced_3cycle_constant(d5, build_sign_table(d5, gauge=gauge)) == 2
        assert det_constant(f4_tri, build_sign_table(f4, gauge=gauge)) == 3
        signs_e8 = build_sign_table(e8, gauge=gauge)
        assert det_constant(five, signs_e8) == 3
        assert det_constant(seven, signs_e8) == 5
    budget.done()


def test_criterion_5_triangulation():
    budget = Budget("criterion 5: triangulation suite", 60)
    for t, n in ALL_TYPES:
        rs = build_root_system(t, n)
        for g in all_graphs(rs):
            for c in enumerate_cycles(g):
                tris = triangulate_cycle(g, c)
                assert len(tris) == len(c) - 2
        report = verify_no_reduced_level3_3cycle(rs)
        assert report["pass"], report
    budget.done()


def test_criterion_6_genericity():
    budget = Budget("criterion 6: genericity search", 10)
    a2 = build_root_system("A", 2)
    assert generic_exists(a2, 3)[0] is False
    ok, _ = generic_exists(a2, 4)
    assert ok
    g2 = build_root_system("G", 2)
    ok, _ = generic_exists(g2, 7)
    assert ok
    assert is_generic(length_witness(a2, 4))
    assert is_generic(length_witness(g2, 7))
    budget.done()


def test_criterion_7_parahoric_axioms():
    budget = Budget("criterion 7: parahoric axioms", 300)
    for args in [("A1", "sc", 3, 3), ("A1", "sc", 5, 2), ("A2", "sc", 5, 2),
                 ("C2", "sc", 3, 2)]:
        report = verify_parahoric_axioms(build_group(*args))
        assert report["pass"], (args, report["failures"][:5])
    budget.done()


def test_criterion_8_subgroup_interval():
    budget = Budget("criterion 8: subgroup interval", 60)
    r_sc = verify_overgroup_classification(build_group("A1", "sc", 3, 2))
    assert r_sc["matches"] and r_sc["interval_size"] == 3
    r_adj = verify_overgroup_classification(build_group("A1", "adjoint", 3, 2))
    assert r_adj["matches"] and r_adj["interval_size"] == 3
    assert r_adj["self_normalizing"]
    budget.done()


@pytest.mark.xfail(
    strict=True,
    reason="known-false sub-claim: u_-(3) normalizes B in SL2(Z/9) "
    "(N(B) = P_1), so 'every P_f self-normalizes' fails for the sc "
    "instance; the usual normalizer argument needs alpha(t) != 1 mod p, "
    "but alpha(t) = t^2 is identically 1 mod 3 on the sc A1 torus.  The "
    "claim concerns the algebraic group over the closure, where such a t "
    "exists",
)
def test_criterion_8_literal_self_normalizing_sc():
    r_sc = verify_overgroup_classification(build_group("A1", "sc", 3, 2))
    assert r_sc["self_normalizing"], r_sc["normalizer_witnesses"]


def test_criterion_9_steinberg_arithmetic(sl2_9, flags_sl2_9, pgl2_9,
                                          flags_pgl2_9, sl2_25, pgl3_25,
                                          flags_pgl3_25):
    budget = Budget("criterion 9: Steinberg arithmetic", 600)
    fb = pseudo_borel_function(sl2_9.rs, 2)
    assert len(flags_sl2_9) == 12
    assert st_dim(sl2_9, fb) == 8
    from parahoric.concave import enumerate_overgroups

    assert sum(st_dim(sl2_9, f) for f in enumerate_overgroups(fb)) == 12
    rep = verify_multiplicity_freeness(sl2_9, flags=flags_sl2_9)
    assert rep.ok
    assert st_inner(sl2_9, fb, fb, flags=flags_sl2_9) == 2 == regular_orbit_count(sl2_9)

    rep = verify_multiplicity_freeness(pgl2_9, flags=flags_pgl2_9)
    assert rep.ok
    assert st_inner(pgl2_9, fb, fb, flags=flags_pgl2_9) == 1

    rep = verify_multiplicity_freeness(pgl3_25, flags=flags_pgl3_25)
    assert rep.ok
    st_st = [c for c in rep.checks if c["name"] == "st_st_equals_orbits"][0]
    assert st_st["computed"] == 1
    adj = [c for c in rep.checks if c["name"].startswith("adjoint_cosets")]
    assert len(adj) == 4 and all(c["pass"] for c in adj)

    rep = verify_multiplicity_freeness(sl2_25)
    assert rep.ok
    assert regular_orbit_count(sl2_25) == 2
    budget.done()


def test_criterion_10_exterior_absorption(sl2_9, flags_sl2_9, sl3_25, flags_sl3_25, sp4_9,
                           flags_sp4_9):
    budget = Budget("criterion 10: exterior-class absorption checks", 900)
    for g, flags in [(sl2_9, flags_sl2_9), (sl3_25, flags_sl3_25),
                     (sp4_9, flags_sp4_9)]:
        report = verify_exterior_class_absorption(g, flags=flags)
        assert report["pass"], report
        for side in report["results"].values():
            assert side["classes_without_alpha"] == 0
            assert side["coarse_classes_without_common_alpha"] == 0
    budget.done()


def test_criterion_11_generic_bound():
    budget = Budget("criterion 11: generic bound (largest run)", 1800)
    g = build_group("A2", "sc", 3, 4)
    f = length_witness(g.rs, 4)
    assert is_generic(f)
    flags = FlagSpace(g, budget=1_200_000)
    assert len(flags) == 1_023_516
    rep = generic_bound_check(g, f, flags=flags)
    assert rep.ok, rep.checks
    by_name = {c["name"]: c for c in rep.checks}
    assert by_name["U_delta_abelian"]["pass"]
    # exact values, recorded before the commutators stopped inverting
    assert by_name["orbit_count_vs_bound"]["computed"] == 2
    assert by_name["st_st_vs_orbits"]["computed"] == 2
    assert by_name["st_st_vs_bound"]["computed"] == 2
    budget.done()
