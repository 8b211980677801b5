"""Concave functions on a root system and the subgroup lattice they encode.

A concave function f assigns an integer to every root subject to
f(a) + f(-a) >= 0 and f(a+b) <= f(a) + f(b) whenever a+b is a root.  Given
a depth h, such an f >= f0 describes the subgroup P_f generated by the
torus centralizer and the filtration steps U_{a, f(a)}.  Everything here
is the special case Psi = Phi with f0 = 0 unless an explicit f0 is passed;
values are clamped to the triviality bound h - f0(-a), above which the
filtration step is the trivial group, so equal clamped functions describe
equal subgroups.

Containment reverses the pointwise order: f <= g iff P_f contains P_g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .root_system import Coeffs, RootSystem, positive_systems

Values = dict[Coeffs, int]


class ConcavityError(ValueError):
    pass


def zero_f0(rs: RootSystem) -> Values:
    return {a: 0 for a in rs.roots}


def is_concave(values: Values, rs: RootSystem) -> bool:
    """Both concavity conditions, checked over all root pairs."""
    for a in rs.roots:
        if values[a] + values[rs.neg(a)] < 0:
            return False
    for a in rs.roots:
        for b in rs.roots:
            s = rs.add(a, b)
            if rs.is_root(s) and values[s] > values[a] + values[b]:
                return False
    return True


def root_leq(rs: RootSystem, a: Coeffs, b: Coeffs) -> bool:
    """a <= b in the standard root order: b - a a nonnegative simple combo.

    On negative roots this is the order from the subgroup analysis: a <= b
    iff a is b plus a (possibly empty) sum of negative roots.
    """
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class ConcaveFunction:
    """An integer-valued concave function on the roots, at depth h."""

    rs: RootSystem
    h: int
    values: tuple[tuple[Coeffs, int], ...]  # sorted (root, value) pairs, clamped

    @staticmethod
    def make(rs: RootSystem, h: int, values: Values, f0: Values | None = None,
             check: bool = True) -> "ConcaveFunction":
        f0 = f0 if f0 is not None else zero_f0(rs)
        clamped = {a: min(values[a], h - f0[rs.neg(a)]) for a in rs.roots}
        if check:
            if not is_concave(clamped, rs):
                raise ConcavityError("function is not concave")
            if any(clamped[a] < f0[a] for a in rs.roots):
                raise ConcavityError("function is not >= f0")
        return ConcaveFunction(rs, h, tuple(sorted(clamped.items())))

    @cached_property
    def _map(self) -> Values:
        return dict(self.values)

    def __getitem__(self, a: Coeffs) -> int:
        return self._map[a]

    def as_dict(self) -> Values:
        return dict(self._map)

    def leq(self, other: "ConcaveFunction") -> bool:
        """Pointwise <=, i.e. P_self contains P_other."""
        return all(v <= other._map[a] for a, v in self.values)

    def is_solvable(self) -> bool:
        return all(self._map[a] + self._map[self.rs.neg(a)] > 0 for a in self.rs.roots)

    def is_borel_type(self) -> bool:
        return all(self._map[a] + self._map[self.rs.neg(a)] == 1 for a in self.rs.roots)

    def serialize(self) -> str:
        return "\n".join(
            " ".join(str(c) for c in a) + " : " + str(v) for a, v in self.values
        )

    def __repr__(self) -> str:
        neg = {a: v for a, v in self.values if max(a) <= 0}
        return f"ConcaveFunction({self.rs.dynkin}{self.rs.rank}, h={self.h}, neg={neg})"


def pseudo_borel_function(rs: RootSystem, h: int) -> ConcaveFunction:
    """f = 0 on Phi+ and h on Phi-: the pseudo-Borel subgroup descriptor."""
    values = {a: (0 if min(a) >= 0 else h) for a in rs.roots}
    return ConcaveFunction.make(rs, h, values)


def psi_subset(rs: RootSystem, f0: Values | None = None) -> set[Coeffs]:
    """The subsystem Psi of roots with full-depth subgroups: f0(a)+f0(-a) = 0.

    The special case f0 = 0 gives Psi = Phi.
    """
    f0 = f0 if f0 is not None else zero_f0(rs)
    return {a for a in rs.roots if f0[a] + f0[rs.neg(a)] == 0}


def is_pseudo_parabolic(f: ConcaveFunction, f0: Values | None = None) -> bool:
    """True iff f describes a pseudo-parabolic: f = f0 exactly on a closed
    subset containing a positive system, and trivial elsewhere."""
    rs = f.rs
    f0 = f0 if f0 is not None else zero_f0(rs)
    support = {a for a in rs.roots if f[a] == f0[a]}
    for a in rs.roots:
        if a not in support and f[a] < f.h - f0[rs.neg(a)]:
            return False  # a partial filtration step: not a parabolic shape
    for a in support:
        for b in support:
            s = rs.add(a, b)
            if rs.is_root(s) and s not in support:
                return False
    if set(rs.positive_roots) <= support:
        return True
    return any(system <= support for system in positive_systems(rs))


def concave_closure(values: Values, rs: RootSystem) -> Values:
    """Largest concave function <= the input, via two-term relaxation.

    Iterates g(a+b) <- min(g(a+b), g(a) + g(b)) to a fixed point; two-term
    steps suffice because longer decompositions refine into them.
    """
    g = dict(values)
    pairs = [
        (a, b, rs.add(a, b))
        for a in rs.roots
        for b in rs.roots
        if rs.is_root(rs.add(a, b))
    ]
    changed = True
    while changed:
        changed = False
        for a, b, s in pairs:
            v = g[a] + g[b]
            if v < g[s]:
                g[s] = v
                changed = True
    return g


def minimal_overgroup(f: ConcaveFunction, alpha: Coeffs,
                      f0: Values | None = None) -> ConcaveFunction:
    """f_alpha: the largest concave g <= f with g(alpha) < f(alpha).

    Descriptor of a minimal overgroup of P_f; f_alpha(alpha) = f(alpha) - 1.
    """
    rs = f.rs
    f0 = f0 if f0 is not None else zero_f0(rs)
    if f[alpha] <= f0[alpha]:
        raise ConcavityError(
            f"f({alpha}) = f0({alpha}): no strictly larger subgroup in that direction"
        )
    d = f.as_dict()
    d[alpha] -= 1
    out = ConcaveFunction.make(rs, f.h, concave_closure(d, rs), f0)
    assert out[alpha] == f[alpha] - 1
    return out


def delta_f(f: ConcaveFunction, f0: Values | None = None, report_ties: bool = False):
    """Roots whose f_alpha are maximal: directions of the minimal overgroups.

    Within each class {beta : f_beta = f_alpha} only root-order-maximal
    representatives are kept.  Incomparable maxima within one class are a
    tie; they are all returned, and flagged when report_ties is set.
    """
    rs = f.rs
    f0 = f0 if f0 is not None else zero_f0(rs)
    candidates = [a for a in rs.negative_roots if f[a] > f0[a]]
    fas = {a: minimal_overgroup(f, a, f0) for a in candidates}
    maximal = [
        a
        for a in candidates
        if not any(fas[a] != fas[b] and fas[a].leq(fas[b]) for b in candidates)
    ]
    groups: dict[tuple, list[Coeffs]] = {}
    for a in maximal:
        groups.setdefault(fas[a].values, []).append(a)
    chosen: set[Coeffs] = set()
    ties = False
    for members in groups.values():
        tops = [a for a in members if not any(b != a and root_leq(rs, a, b) for b in members)]
        if len(tops) > 1:
            ties = True
        chosen.update(tops)
    return (chosen, ties) if report_ties else chosen


def generated_function(f: ConcaveFunction, index, f0: Values | None = None) -> ConcaveFunction:
    """Descriptor of the subgroup generated by the P_alpha, alpha in `index`.

    Concave closure of the pointwise minimum of the f_alpha (f itself for
    the empty set); clamping folds trivial filtration steps back to depth h.
    """
    rs = f.rs
    f0 = f0 if f0 is not None else zero_f0(rs)
    index = sorted(index)
    if not index:
        return f
    fas = [minimal_overgroup(f, a, f0) for a in index]
    merged = {a: min(fa[a] for fa in fas) for a in rs.roots}
    return ConcaveFunction.make(rs, f.h, concave_closure(merged, rs), f0)


def pseudo_unipotent_radical(f: ConcaveFunction) -> dict[Coeffs, int]:
    """The function a -> h - f(-a) on Phi+ cutting out a normal subgroup of P_f.

    Asserts the normality inequality f'(a+b) <= f'(a) + f(b) for all pairs
    with a and a+b positive (for pseudo-Borel-containing f this is the
    f0-version, since f = f0 = 0 on the positive system).
    """
    rs = f.rs
    fp = {a: f.h - f[rs.neg(a)] for a in rs.positive_roots}
    for a in rs.positive_roots:
        for b in rs.roots:
            s = rs.add(a, b)
            if rs.is_root(s) and min(s) >= 0:
                assert fp[s] <= fp[a] + f[b], "normality inequality violated"
    return fp


def is_generic(f: ConcaveFunction) -> bool:
    """Both genericity conditions on the negative part of f.

    (1) f >= 2 on Phi- and f is strictly larger on strictly deeper roots;
    (2) the abelianness bound f(a+b) < f(a) + f(b) - 1 for negative pairs.
    """
    rs = f.rs
    for a in rs.negative_roots:
        if f[a] < 2:
            return False
        for b in rs.negative_roots:
            if b != a and root_leq(rs, b, a) and f[b] <= f[a]:
                return False
    for a in rs.negative_roots:
        for b in rs.negative_roots:
            s = rs.add(a, b)
            if rs.is_root(s) and not f[s] < f[a] + f[b] - 1:
                return False
    return True


def length_witness(rs: RootSystem, h: int) -> ConcaveFunction:
    """The function f(a) = length(a) + 2 on Phi-, 0 on Phi+."""
    values = {a: (0 if min(a) >= 0 else -sum(a) + 2) for a in rs.roots}
    return ConcaveFunction.make(rs, h, values)


def generic_exists(rs: RootSystem, h: int):
    """Exhaustive depth-first search for a generic concave function at depth h.

    Returns (False, None) or (True, witness).  Rejects A1, where every
    subgroup strictly between a Borel and the whole group is generic and
    the Coxeter-number threshold is vacuous.
    """
    if rs.rank == 1:
        raise ConcavityError("A1 excluded: every proper intermediate subgroup is generic")
    neg = sorted(rs.negative_roots, key=lambda a: (-sum(a), a))  # shallow first
    assigned: Values = {}

    def admissible(x: Coeffs, v: int) -> bool:
        for b, w in assigned.items():
            if root_leq(rs, b, x) and w <= v:  # b strictly deeper needs larger f
                return False
            if root_leq(rs, x, b) and w >= v:
                return False
            c = rs.sub(x, b)
            if min(c) <= 0 and rs.is_root(c) and c in assigned:
                if not v < w + assigned[c] - 1:  # x = b + c, all negative
                    return False
        return True

    def search(i: int):
        if i == len(neg):
            return dict(assigned)
        x = neg[i]
        for v in range(2, h + 1):
            if admissible(x, v):
                assigned[x] = v
                hit = search(i + 1)
                if hit is not None:
                    return hit
                del assigned[x]
        return None

    found = search(0)
    if found is None:
        return False, None
    found.update({a: 0 for a in rs.positive_roots})
    out = ConcaveFunction.make(rs, h, found)
    assert is_generic(out)
    return True, out


def enumerate_overgroups(f_borel: ConcaveFunction) -> list[ConcaveFunction]:
    """All concave f with f = 0 on Phi+ and 0 <= f <= h on Phi-.

    These are the descriptors of the subgroups containing the pseudo-Borel.
    Clamped values make the enumeration duplicate-free; the result is
    sorted for determinism.  Bounded to rank <= 3 and h <= 4.
    """
    rs = f_borel.rs
    h = f_borel.h
    if rs.rank > 3 or h > 4:
        raise ConcavityError("enumeration bounded to rank <= 3 and depth <= 4")
    neg = sorted(rs.negative_roots, key=lambda a: (-sum(a), a))  # shallow first
    out: list[ConcaveFunction] = []
    assigned: Values = {}

    def admissible(x: Coeffs, v: int) -> bool:
        for b, w in assigned.items():
            # x = b + c with both summands already assigned: subadditivity
            c = rs.sub(x, b)
            if max(c) <= 0 and rs.is_root(c) and c in assigned:
                if v > w + assigned[c]:
                    return False
            # b = x + positive: shallower value may not exceed v
            if root_leq(rs, x, b) and b != x and w > v:
                return False
        return True

    def search(i: int):
        if i == len(neg):
            values = dict(assigned)
            values.update({a: 0 for a in rs.positive_roots})
            out.append(ConcaveFunction.make(rs, h, values))
            return
        x = neg[i]
        for v in range(0, h + 1):
            if admissible(x, v):
                assigned[x] = v
                search(i + 1)
                del assigned[x]

    search(0)
    uniq = {f.values: f for f in out}
    return [uniq[k] for k in sorted(uniq)]
