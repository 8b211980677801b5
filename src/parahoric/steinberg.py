"""Small Steinberg representation arithmetic by pure double-coset counting.

Inner products of permutation modules are double-coset counts, so every
quantity here is an exact integer.  dim st_L, (1_L, st_L) and (st_L, st_L')
are all one signed sum over subsets I, J of Delta_f, `_signed_sum`, of
indices [G:L_I] or double-coset counts #(L_I\\G/L'_J); the main-theorem
certificate is (st_B, st_B) = number of torus orbits on regular characters
of U_Delta.  The quotient group T x| U_Delta is built explicitly as an
independent second route, through the same signed sum.

Counts in G run on a `FlagSpace`, which carries the coset budget; a
function given none builds one at the default budget of 10^5 points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

from .closure import closure, orbit_labels
from .concave import (
    ConcaveFunction,
    delta_f,
    enumerate_overgroups,
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


def _signed_sum(lefts: list, rights: list, count) -> int:
    """Sum over (I, x) in lefts and (J, y) in rights of (-1)^(|I|+|J|) count(x, y):
    the one alternating sum behind every Steinberg number."""
    return sum((-1) ** (len(index_l) + len(index_r)) * count(x, y)
               for index_l, x in lefts for index_r, y in rights)


def st_dim(g: FiniteParahoricGroup, f: ConcaveFunction,
           flags: FlagSpace | None = None) -> int:
    """dim st_L = sum over I of (-1)^|I| [G:L_I], L the subgroup of f.

    Solvable L_I are indexed by the product formula; the others by the flag
    space, built at most once and only if some L_I needs it.
    """
    if all(f[a] == 0 for a in f.rs.roots):
        return 1  # st_G is the trivial character

    def g_index(fi: ConcaveFunction, _) -> int:
        nonlocal flags
        if fi.is_solvable():
            return g.order() // solvable_order(g, fi)
        if all(fi[a] == 0 for a in g.rs.roots):
            return 1
        flags = flags or FlagSpace(g)
        return flags.coset_count(fi)

    total = _signed_sum(interval_subsets(f)[1], [(frozenset(), None)], g_index)
    assert total >= 0
    return total


def st_inner(g: FiniteParahoricGroup, f: ConcaveFunction, f2: ConcaveFunction,
             flags: FlagSpace | None = None) -> int:
    """(st_L, st_L') = sum over I, J of (-1)^(|I|+|J|) #(L_I\\G/L'_J)."""
    flags = flags or FlagSpace(g)
    lefts = [(index, subgroup_gens(g, fl)) for index, fl in interval_subsets(f)[1]]
    return _signed_sum(lefts, interval_subsets(f2)[1],
                       lambda gens, fr: double_coset_count_flags(flags, gens, fr))


def one_st_inner(g: FiniteParahoricGroup, f: ConcaveFunction,
                 flags: FlagSpace | None = None) -> int:
    """(1_L, st_L) = sum over I of (-1)^|I| #(L\\G/L_I)."""
    flags = flags or FlagSpace(g)
    return _signed_sum([(frozenset(), subgroup_gens(g, f))], interval_subsets(f)[1],
                       lambda gens, fi: double_coset_count_flags(flags, gens, fi))


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
        self.torus_gens = _torus_gen_tuples(g, roots)
        self.torus = sorted(closure(
            [self.identity_el()[0]],
            lambda s: [tuple(u * v % self.p for u, v in zip(s, t)) for t in self.torus_gens],
        ))
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
        parts = [(index, self.subgroup(index)) for index in self.subsets]
        return _signed_sum(parts, parts, self.double_cosets)

    def one_st_inner_quotient(self) -> int:
        """(1_T, st_T) inside the quotient."""
        tbar = [(frozenset(), self.subgroup(frozenset()))]
        return _signed_sum(tbar, [(index, self.subgroup(index)) for index in self.subsets],
                           self.double_cosets)


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


def verify_multiplicity_freeness(g: FiniteParahoricGroup,
                                 flags: FlagSpace | None = None) -> SteinbergReport:
    """Certify multiplicity-freeness at this instance by counting.

    (st_B, st_B) in G must equal the same alternating sum inside the
    quotient T x| U_Delta and the number of torus orbits on regular
    characters; (1_B, st_B) must match its quotient value as well.
    """
    check_adjoint_index(g)
    if g.h < 2:
        raise ValueError("instance checks need h >= 2")
    flags = flags or FlagSpace(g)
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
                        flags: FlagSpace | None = None) -> SteinbergReport:
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

    flags = flags or FlagSpace(g)
    st_st = st_inner(g, f, f, flags=flags)
    report.add_ge("st_st_vs_orbits", orbits, st_st)
    report.add_ge("st_st_vs_bound", bound, st_st)
    return report
