"""Small Steinberg representation arithmetic by pure double-coset counting.

Inner products of permutation modules are double-coset counts, so every
quantity here is an exact integer: dim st_L by inclusion-exclusion over
the minimal overgroups, (st_L, st_L') by the double alternating sum, and
the main-theorem certificate (st_B, st_B) = number of torus orbits on
regular characters of U_Delta.  The quotient group T x| U_Delta is built
explicitly as an independent second route for every count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .closure import orbit_labels
from .concave import (
    ConcaveFunction,
    delta_f,
    generated_function,
    is_generic,
    pseudo_borel_function,
)
from .groups.checks import check_adjoint_index
from .groups.cosets import FlagSpace, double_coset_count_flags
from .groups.group import FiniteParahoricGroup
from .groups.subgroups import double_class_labels, solvable_order, subgroup_gens


# ---------------------------------------------------------------------------
# inner products in G via the flag machinery


def perm_inner(g: FiniteParahoricGroup, f_left: ConcaveFunction,
               f_right: ConcaveFunction, flags: FlagSpace | None = None,
               budget: int = 10**5) -> int:
    """(1_L, 1_L') = #(L'\\G/L) for subgroups given by concave functions."""
    flags = flags or FlagSpace(g, budget=budget)
    return double_coset_count_flags(flags, subgroup_gens(g, f_left), f_right)


def _index_sets(roots: list) -> list[frozenset]:
    """All subsets of roots, in a fixed order."""
    return [
        frozenset(a for a, b in zip(roots, bits) if b)
        for bits in product((0, 1), repeat=len(roots))
    ]


def interval_subsets(f: ConcaveFunction):
    """(I, f_I) for all subsets I of Delta_f, with the join descriptors."""
    delta = sorted(delta_f(f))
    return delta, [(index, generated_function(f, index)) for index in _index_sets(delta)]


def st_dim(g: FiniteParahoricGroup, f: ConcaveFunction,
           flags: FlagSpace | None = None) -> int:
    """dim st_L = sum over I of (-1)^|I| [G:L_I], L the subgroup of f."""
    if all(f[a] == 0 for a in f.rs.roots):
        return 1  # st_G is the trivial character
    _, parts = interval_subsets(f)
    total = 0
    for index, fi in parts:
        order = _subgroup_order(g, fi, flags=flags)
        term = g.order() // order
        total += (-1) ** len(index) * term
    assert total >= 0
    return total


def _subgroup_order(g: FiniteParahoricGroup, f: ConcaveFunction,
                    flags: FlagSpace | None = None) -> int:
    if f.is_solvable():
        return solvable_order(g, f)
    if all(f[a] == 0 for a in g.rs.roots):
        return g.order()
    flags = flags or FlagSpace(g)
    return g.order() // flags.coset_count(f)


def st_inner(g: FiniteParahoricGroup, f: ConcaveFunction, f2: ConcaveFunction,
             flags: FlagSpace | None = None, budget: int = 10**5) -> int:
    """(st_L, st_L') = sum over I, J of (-1)^(|I|+|J|) #(L_I\\G/L'_J)."""
    flags = flags or FlagSpace(g, budget=budget)
    _, left_parts = interval_subsets(f)
    _, right_parts = interval_subsets(f2)
    total = 0
    for index_l, fl in left_parts:
        gens_l = subgroup_gens(g, fl)
        for index_r, fr in right_parts:
            count = double_coset_count_flags(flags, gens_l, fr)
            total += (-1) ** (len(index_l) + len(index_r)) * count
    return total


def one_st_inner(g: FiniteParahoricGroup, f: ConcaveFunction,
                 flags: FlagSpace | None = None, budget: int = 10**5) -> int:
    """(1_L, st_L) = sum over I of (-1)^|I| #(L\\G/L_I)."""
    flags = flags or FlagSpace(g, budget=budget)
    gens_l = subgroup_gens(g, f)
    total = 0
    for index, fi in interval_subsets(f)[1]:
        count = double_coset_count_flags(flags, gens_l, fi)
        total += (-1) ** len(index) * count
    return total


# ---------------------------------------------------------------------------
# regular characters and the torus action


def regular_orbit_count(g: FiniteParahoricGroup) -> int:
    """Orbits of the torus on regular characters of U_Delta.

    U_Delta = prod over negative simple roots of U_{a,h-1}; a character is
    a tuple of nonzero lambda_a in F_p, and t acts by lambda_a -> a(t) lambda_a
    mod p.  Rejected at h = 1, where U_Delta degenerates.
    """
    if g.h < 2:
        raise ValueError("regular characters need depth h >= 2")
    return _orbit_count_on_tuples(g, sorted(g.rs.neg_simples))


def _torus_action_tuples(g: FiniteParahoricGroup, roots: list) -> set:
    """The image of the torus in (F_p^x)^roots acting by root values."""
    p = g.p
    action = set()
    for t in g.torus_elements():
        action.add(tuple(g.root_value(t, a) % p for a in roots))
    return action


def _torus_gen_tuples(g: FiniteParahoricGroup, roots: list) -> list[tuple]:
    """The images of the torus generators in (F_p^x)^roots."""
    return [tuple(g.root_value(t, a) % g.p for a in roots) for t in g.torus_gens()]


def _orbit_count_on_tuples(g: FiniteParahoricGroup, roots: list) -> int:
    """Torus orbits on the regular characters, lambda in (F_p^x)^roots."""
    p = g.p
    gens = _torus_gen_tuples(g, roots)
    labels = orbit_labels(
        product(range(1, p), repeat=len(roots)),
        lambda lam: [tuple(a * x % p for a, x in zip(act, lam)) for act in gens],
    )
    return len(set(labels.values()))


def faithfulness_report(g: FiniteParahoricGroup) -> dict:
    """Kernel of the torus action on regular character tuples.

    The printed corollary says the kernel is the center; on F_p-points the
    kernel is the full preimage of the reductive-quotient kernel, which is
    strictly larger whenever h >= 2.  Both orders are reported; the pass
    flag asserts the corrected statement (kernel = depth-congruence part
    times the reductive kernel).
    """
    p = g.p
    delta = sorted(g.rs.neg_simples)
    torus = g.torus_elements()
    kernel = [
        t for t in torus
        if all(g.root_value(t, a) % p == 1 for a in delta)
    ]
    # center of G intersected with T: torus elements commuting with all u_a(1)
    center = [
        t for t in torus
        if all(g.root_value(t, a) == 1 for a in g.rs.roots)
    ]
    depth_part = [
        t for t in torus
        if all((g.root_value(t, a) - 1) % p == 0 for a in g.rs.roots)
    ]
    return {
        "instance": g.describe(),
        "kernel_order": len(kernel),
        "center_in_torus": len(center),
        "depth_congruence_kernel": len(depth_part),
        "printed_statement_holds": len(kernel) == len(center),
        "pass": len(kernel) == len(depth_part),
    }


# ---------------------------------------------------------------------------
# the quotient group T x| U_Delta: the independent second route


class SemidirectQuotient:
    """B_Delta / R_u(B) = T-bar x| prod U_{a,h-1}, built on F_p data.

    Elements are (torus action tuple, lambda vector) with lambda in F_p^Delta;
    multiplication is (s, x)(t, y) = (st, x*t + y) matching u(x) s * u(y) t.
    The torus is taken through its image in (F_p^x)^Delta: the kernel of the
    action lies in every subgroup entering the double-coset sums, so
    collapsing it changes no count.
    """

    def __init__(self, g: FiniteParahoricGroup, roots: list):
        self.p = g.p
        self.roots = roots
        self.torus = sorted(_torus_action_tuples(g, roots))
        self.torus_gens = _torus_gen_tuples(g, roots)
        self.elements = [
            (t, lam)
            for t in self.torus
            for lam in product(range(self.p), repeat=len(roots))
        ]
        self.subsets = _index_sets(roots)

    def mul(self, a, b):
        (s, x), (t, y) = a, b
        st = tuple(u * v % self.p for u, v in zip(s, t))
        lam = tuple((xi * ti + yi) % self.p for xi, ti, yi in zip(x, t, y))
        return (st, lam)

    def identity_el(self):
        one = tuple(1 for _ in self.roots)
        zero = tuple(0 for _ in self.roots)
        return (one, zero)

    def subgroup(self, index: frozenset) -> list:
        """Generators of T-bar extended by the U_a factors for a in the index set."""
        one, zero = self.identity_el()
        units = [
            (one, tuple(int(b == a) for b in self.roots))
            for a in self.roots
            if a in index
        ]
        return [(t, zero) for t in self.torus_gens] + units

    def double_cosets(self, left: list, right: list) -> int:
        """#(<left> \\ Q / <right>) for generator lists of two subgroups."""
        return len(set(double_class_labels(self, self.elements, left, right, cap=None).values()))

    def st_inner_quotient(self) -> int:
        """(st_T, st_T) inside the quotient, by the same alternating sum."""
        total = 0
        for index_l in self.subsets:
            left = self.subgroup(index_l)
            for index_r in self.subsets:
                total += (-1) ** (len(index_l) + len(index_r)) * self.double_cosets(
                    left, self.subgroup(index_r)
                )
        return total

    def one_st_inner_quotient(self) -> int:
        tbar = self.subgroup(frozenset())
        return sum(
            (-1) ** len(index) * self.double_cosets(tbar, self.subgroup(index))
            for index in self.subsets
        )


# ---------------------------------------------------------------------------
# reports


@dataclass
class SteinbergReport:
    instance: dict
    checks: list[dict] = field(default_factory=list)

    def add(self, name: str, expected, computed) -> None:
        self.checks.append(
            {
                "name": name,
                "expected": expected,
                "computed": computed,
                "pass": expected == computed,
            }
        )

    def add_ge(self, name: str, bound, computed) -> None:
        self.checks.append(
            {
                "name": name,
                "expected": f">= {bound}",
                "computed": computed,
                "pass": computed >= bound,
            }
        )

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "instance": self.instance,
            "checks": self.checks,
            "pass": self.ok,
        }
        return json.dumps(payload, sort_keys=True)


def verify_multiplicity_freeness(g: FiniteParahoricGroup, flags: FlagSpace | None = None,
                        budget: int = 10**5) -> SteinbergReport:
    """Certify multiplicity-freeness at this instance by counting.

    (st_B, st_B) in G must equal the same alternating sum inside the
    quotient T x| U_Delta and the number of torus orbits on regular
    characters; (1_B, st_B) must match its quotient value as well.
    """
    check_adjoint_index(g)
    if g.h < 2:
        raise ValueError("instance checks need h >= 2")
    flags = flags or FlagSpace(g, budget=budget)
    fb = pseudo_borel_function(g.rs, g.h)
    report = SteinbergReport(g.describe())

    orbits = regular_orbit_count(g)
    quotient = SemidirectQuotient(g, sorted(g.rs.neg_simples))
    st_st = st_inner(g, fb, fb, flags=flags)
    report.add("st_st_equals_orbits", orbits, st_st)
    report.add("st_st_quotient_route", quotient.st_inner_quotient(), st_st)
    one_st = one_st_inner(g, fb, flags=flags)
    report.add("one_st_quotient_route", quotient.one_st_inner_quotient(), one_st)
    if g.rs.rank <= 3 and g.h <= 4:
        from .concave import enumerate_overgroups

        total = sum(st_dim(g, f, flags=flags) for f in enumerate_overgroups(fb))
        report.add("st_dims_sum_to_index", len(flags), total)
    if g.isogeny == "adjoint":
        report.add("adjoint_irreducible", 1, st_st)
        delta, parts = interval_subsets(fb)  # Delta_f(fb) is the negative simples
        f_delta = generated_function(fb, set(delta))
        for index, fi in parts:
            count = _bdelta_double_cosets(g, flags, fb, fi, f_delta)
            report.add(
                f"adjoint_cosets_2^(d-{len(index)})",
                2 ** (len(delta) - len(index)),
                count,
            )
    return report


def _bdelta_double_cosets(g: FiniteParahoricGroup, flags: FlagSpace,
                          fb: ConcaveFunction, fi: ConcaveFunction,
                          f_delta: ConcaveFunction) -> int:
    """#(B \\ B_Delta / B_I) inside the flag space."""
    labels = flags.double_coset_labels(subgroup_gens(g, fb), fi)
    return len({labels[i] for i in flags.base_fibre(f_delta)})


def generic_bound_check(g: FiniteParahoricGroup, f: ConcaveFunction,
                        flags: FlagSpace | None = None,
                        budget: int = 1_200_000) -> SteinbergReport:
    """The generic lower bound at this instance.

    Requires f generic; computes (st_P, st_P), the torus orbit count on the
    regular characters of U_{Delta_P}, verifies U_{Delta_P} is abelian, and
    checks the lower bound (p-1)^(#Phi- - rank).
    """
    if not is_generic(f):
        raise ValueError("the concave function is not generic")
    rs = g.rs
    report = SteinbergReport({**g.describe(), "f": "generic"})
    delta = sorted(delta_f(f))
    report.add("delta_P_is_all_negatives", sorted(rs.negative_roots), delta)

    # abelianness of U_{Delta_P} = (P_Delta cap U-) / (P cap U-)
    f_delta = generated_function(f, set(delta))
    abelian = True
    for a in rs.negative_roots:
        for b in rs.negative_roots:
            s = rs.add(a, b)
            if rs.is_root(s) and min(s) < 0:
                w = g.root_commutator(a, g.p ** f_delta[a], b, g.p ** f_delta[b])
                # the commutator must fall back inside P cap U-
                if w != g.identity:
                    x = g.u_param(w, s)
                    if g.valuation_int(x) < f[s]:
                        abelian = False
    report.add("U_delta_abelian", True, abelian)

    bound = (g.p - 1) ** (len(rs.negative_roots) - rs.rank)
    orbits = _orbit_count_on_tuples(g, delta)
    report.add_ge("orbit_count_vs_bound", bound, orbits)

    flags = flags or FlagSpace(g, budget=budget)
    st_st = st_inner(g, f, f, flags=flags, budget=budget)
    report.add_ge("st_st_vs_orbits", orbits, st_st)
    report.add_ge("st_st_vs_bound", bound, st_st)
    return report
