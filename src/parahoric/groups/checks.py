"""Machine verification of the structural claims about G(Z/p^h).

Every function returns a report dict with a "pass" flag and enough data to
see what was checked; none of them assume what they verify.
"""

from __future__ import annotations

from collections import Counter

from ..concave import (
    ConcaveFunction, enumerate_overgroups, generated_function, pseudo_borel_function,
)
from ..root_system import Coeffs, positive_systems, serialize_roots
from .cosets import FlagSpace
from .group import FiniteParahoricGroup, Mat, ProductGroup, build_group
from .subgroups import double_class, double_class_labels, mulclose, ru_borel_gens, subgroup_gens

# the element budget of the checks that enumerate a group; also the default of
# --budget-elements, which only verify_overgroup_classification takes
ELEMENT_BUDGET = 10**6


def lu_factor(g: FiniteParahoricGroup, m: Mat):
    """m = lower-unipotent * diagonal * upper-unipotent over Z/p^h.

    Requires unit leading minors (true near the identity); raises otherwise.
    """
    n, mod, p = g.n, g.mod, g.p
    a = [list(m[i * n:(i + 1) * n]) for i in range(n)]
    lower = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivot_inv = []
    for col in range(n):
        if a[col][col] % p == 0:
            raise ValueError("not in the big cell")
        pivot_inv.append(pow(a[col][col], -1, mod))
        for r in range(col + 1, n):
            t = a[r][col] * pivot_inv[col] % mod
            lower[r][col] = t
            a[r] = [(v - t * w) % mod for v, w in zip(a[r], a[col])]
    diag = [a[i][i] for i in range(n)]
    upper = [
        [a[i][j] * pivot_inv[i] % mod if j > i else (1 if i == j else 0)
         for j in range(n)]
        for i in range(n)
    ]
    lmat = tuple(lower[i][j] for i in range(n) for j in range(n))
    dmat = tuple(
        diag[i] if i == j else 0 for i in range(n) for j in range(n)
    )
    umat = tuple(upper[i][j] for i in range(n) for j in range(n))
    assert g.mul(g.mul(lmat, dmat), umat) == g.canon(m)
    return lmat, dmat, umat


def factor_unipotent(g: FiniteParahoricGroup, w: Mat, roots: list[Coeffs]):
    """Write w as an ordered product of u_root(x) factors, or return None.

    Tries the given order and its reverse; the residual must come back to
    the identity for the factorization to count.
    """
    for order in (roots, list(reversed(roots))):
        params = {}
        cur = w
        ok = True
        for gamma in order:
            i, j, c = g.positions[gamma][0]
            x = cur[i * g.n + j] * pow(c, -1, g.mod) % g.mod
            params[gamma] = x
            cur = g.mul(g.u(gamma, (-x) % g.mod), cur)
        if cur == g.identity:
            return params
    return None


def _wedge(g: FiniteParahoricGroup, a: Coeffs, b: Coeffs) -> list[Coeffs]:
    """Roots la + mb with l, m > 0, sorted by l + m."""
    out = []
    for l in range(1, 4):
        for m_ in range(1, 4):
            r = tuple(l * x + m_ * y for x, y in zip(a, b))
            if g.rs.is_root(r):
                out.append((l + m_, r))
    return [r for _, r in sorted(out)]


def verify_parahoric_axioms(g: FiniteParahoricGroup) -> dict:
    """Exhaustive check of the filtration and commutator axioms.

    - |U_{a,i+1}| = |U_{a,i}| / p while nontrivial;
    - [U_{a,i}, U_{b,j}] lands in the wedge product with the right depths and
      projects onto U_{a+b, i+j}; commuting pairs commute;
    - the torus projection H_{a,i} of [U_a, U_{-a,i}] has the right order
      and [H_{a,i}, U_{a,j}] = U_{a,i+j}.
    """
    rs, p, h, mod = g.rs, g.p, g.h, g.mod
    failures = []
    checked = 0

    def u_set(a: Coeffs, i: int) -> set[Mat]:
        step = p ** min(i, h)
        return {g.u(a, (step * x) % mod) for x in range(mod // step if step <= mod else 1)}

    # filtration sizes
    for a in rs.roots:
        for i in range(h + 1):
            checked += 1
            size = len(u_set(a, i))
            want = p ** max(h - i, 0)
            if size != want:
                failures.append(("filtration", a, i, size, want))

    # commutator relations
    for a in rs.roots:
        for b in rs.roots:
            if b == rs.neg(a):
                continue
            s = rs.add(a, b)
            wedge = _wedge(g, a, b)
            for i in range(h):
                for j in range(h):
                    checked += 1
                    projections = set()
                    for x in range(mod // p**i):
                        for y in range(mod // p**j):
                            w = g.root_commutator(a, p**i * x, b, p**j * y)
                            if not wedge:
                                if w != g.identity:
                                    failures.append(("commute", a, b, i, j))
                                continue
                            params = factor_unipotent(g, w, wedge)
                            if params is None:
                                failures.append(("wedge-factor", a, b, i, j))
                                continue
                            for gamma, z in params.items():
                                la, mu = _wedge_coeffs(rs, a, b, gamma)
                                depth = la * i + mu * j
                                if g.valuation_int(z) < min(depth, h):
                                    failures.append(("wedge-depth", a, b, gamma, i, j))
                            if rs.is_root(s):
                                projections.add(params[s])
                    if rs.is_root(s):
                        want_set = {p ** min(i + j, h) * x % mod
                                    for x in range(mod // p ** min(i + j, h))}
                        if projections != want_set:
                            failures.append(("projection", a, b, i, j))

    # torus projections H_{a,i}.  At depth i = 0 the commutator image under
    # the F_p-points can be shallower than the algebraic-group statement:
    # alpha(t) - 1 need not reach valuation 0 when the residue field is tiny
    # (alpha(t) = t^2 hits only squares, all = 1 mod 3).  The corrected
    # depth shift v0 = min_t val(alpha(t) - 1) is computed and asserted.
    depth0_shifts = {}
    for a in rs.roots:
        na = rs.neg(a)
        for i in range(h + 1):
            checked += 1
            tparts = set()
            for x in range(mod):
                for y in range(mod // p ** min(i, h)):
                    w = g.root_commutator(a, x, na, p ** min(i, h) * y)
                    try:
                        _, d, _ = lu_factor(g, w)
                    except ValueError:
                        if i >= 1:
                            failures.append(("big-cell", a, i))
                        continue
                    tparts.add(d)
            h_ai = mulclose(g, sorted(tparts) or [g.identity])
            # order formula p^(h-i) for i >= 1; at i = 0 the claim is a
            # dimension statement about the algebraic group that F_p-points
            # may not fill (SL2(Z/9): only the square part of the torus
            # shows up), so the computed order is reported, not asserted
            if i >= 1 and len(h_ai) != p ** max(h - i, 0):
                failures.append(("H-order", a, i, len(h_ai), p ** max(h - i, 0)))
            # depth reached by the action of H_{a,i} back on U_a; the axiom
            # says v_min = i, which holds on F_p-points for i >= 1, while at
            # i = 0 small residue fields can only reach val(alpha(t) - 1)
            vals = [
                g.valuation_int((g.root_value(t, a) - 1) % mod)
                for t in h_ai
                if t != g.identity
            ]
            v_min = min(vals, default=h)
            if i >= 1 and v_min != min(i, h):
                failures.append(("H-depth", a, i, v_min))
            if i == 0:
                depth0_shifts[a] = {"v0": v_min, "order": len(h_ai)}
            inverses = [(t, g.inv(t)) for t in h_ai]
            for j in range(h):
                checked += 1
                image = mulclose(g, sorted(
                    g.mul(g.mul(t, g.u(a, p**j * yv)), g.mul(t_inv, g.u(a, -p**j * yv)))
                    for t, t_inv in inverses
                    for yv in range(mod // p**j)
                ))
                if image != u_set(a, min(j + v_min, h)):
                    failures.append(("H-action", a, i, j))

    return {
        "instance": g.describe(),
        "checked": checked,
        "depth0_shifts": {str(a): v for a, v in sorted(depth0_shifts.items())},
        "failures": failures,
        "pass": not failures,
    }


def _wedge_coeffs(rs, a: Coeffs, b: Coeffs, gamma: Coeffs) -> tuple[int, int]:
    for la in range(1, 4):
        for mu in range(1, 4):
            if tuple(la * x + mu * y for x, y in zip(a, b)) == gamma:
                return la, mu
    raise AssertionError(f"{gamma} is not in the wedge of {a}, {b}")


def verify_rank1_classes(g: FiniteParahoricGroup) -> dict:
    """The two rank-1 double-class statements, checked exhaustively.

    (a) B0 w B0 is a single class mod U on the left and B on the right;
    (b) u, u' in U_{-a,i} (i >= 1) are in one (U, B)-class iff u' differs
        from u by U_{-a,2i};
    (c) adjoint groups: same B-double-class iff same valuation (only the
        forward implication holds in general).
    """
    if g.type_label != "A1":
        raise ValueError("rank-1 statements apply to A1 instances")
    rs, p, h, mod = g.rs, g.p, g.h, g.mod
    alpha = rs.simple_roots[0]
    nalpha = rs.neg(alpha)
    failures = []

    fb = pseudo_borel_function(rs, h)
    b_gens = subgroup_gens(g, fb)
    u_gens = [g.u(alpha, 1)]
    b0 = ConcaveFunction.make(rs, h, {alpha: 0, nalpha: 1})
    b0_gens = subgroup_gens(g, b0)

    # (a) the big Bruhat cell is one (U, B) class: the class of w must be
    # stable under B0 on both sides
    w = g.weyl_rep(alpha)
    cell_class = double_class(g, w, u_gens, b_gens)
    for x in cell_class:
        if any(
            g.mul(s, x) not in cell_class or g.mul(x, s) not in cell_class
            for s in b0_gens
        ):
            failures.append(("cell", "B0 w B0 is larger than one (U,B) class"))
            break

    # (b) valuation-square classes inside B0
    for i in range(1, h):
        members = [g.u(nalpha, p**i * x % mod) for x in range(mod // p**i)]
        labels = double_class_labels(g, members, u_gens, b_gens)
        for u in members:
            for v in members:
                same = labels[u] == labels[v]
                xu, xv = g.u_param(u, nalpha), g.u_param(v, nalpha)
                cond = (xv - xu) % mod % (p ** min(2 * i, h)) == 0
                if same != cond:
                    failures.append(("uclass", i, xu, xv, same, cond))

    # (c) full B-double-classes vs valuation
    members = [g.u(nalpha, x) for x in range(mod)]
    labels = double_class_labels(g, members, b_gens, b_gens)
    for u in members:
        for v in members:
            same = labels[u] == labels[v]
            vu = g.valuation_int(g.u_param(u, nalpha))
            vv = g.valuation_int(g.u_param(v, nalpha))
            if same and vu != vv:
                failures.append(("valuation", u, v))
            if g.isogeny == "adjoint" and (vu == vv) != same:
                failures.append(("adjoint-equivalence", vu, vv, same))

    return {"instance": g.describe(), "failures": failures, "pass": not failures}


def verify_exterior_class_absorption(g: FiniteParahoricGroup,
                                     flags: FlagSpace | None = None) -> dict:
    """Exterior-class absorption: every (L, B) double coset L x B outside
    B_Delta equals L x B_a for some simple root a, and one a serves all the
    classes inside each (L, B_Delta) class; checked for L = B and L = R_u(B).

    Every partition is a flag-space labelling, each class labelled by its
    least point, so a serves the class c iff c is the only (L, B) class in
    the (L, B_a) class that contains it.  The coarser labellings are kept
    only as maps from (L, B) class to coarse class, so at most one per-point
    list besides the fine one is alive at a time.
    """
    check_adjoint_index(g)
    flags = flags or FlagSpace(g)
    fb = pseudo_borel_function(g.rs, g.h)
    delta = sorted(g.rs.neg_simples)
    f_delta = generated_function(fb, set(delta))
    inside = flags.base_fibre(f_delta)
    results = {}
    for left_name, left_gens in (("B", subgroup_gens(g, fb)), ("RuB", ru_borel_gens(g))):
        fine = flags.double_coset_labels(left_gens, fb)
        coarse = dict(zip(fine, flags.double_coset_labels(left_gens, f_delta)))
        exterior = set(fine) - {fine[i] for i in inside}
        works: dict[int, set] = {c: set() for c in exterior}
        for a in delta:
            f_a = generated_function(fb, {a})
            owner = dict(zip(fine, flags.double_coset_labels(left_gens, f_a)))
            fine_per_class = Counter(owner.values())
            for c in exterior:
                if fine_per_class[owner[c]] == 1:
                    works[c].add(a)
        no_alpha = [c for c in exterior if not works[c]]
        # constancy across classes mod B_Delta
        coarse_choices: dict[int, set] = {}
        for c in exterior:
            coarse_choices.setdefault(coarse[c], set(delta)).intersection_update(works[c])
        inconstant = [cc for cc, s in coarse_choices.items() if not s]
        results[left_name] = {
            "exterior_classes": len(exterior),
            "classes_without_alpha": len(no_alpha),
            "coarse_classes_without_common_alpha": len(inconstant),
        }
    ok = all(
        r["classes_without_alpha"] == 0 and r["coarse_classes_without_common_alpha"] == 0
        for r in results.values()
    )
    return {"instance": g.describe(), "results": results, "pass": ok}


def check_adjoint_index(g: FiniteParahoricGroup) -> None:
    """Absorption and the multiplicity certificate need p prime to the index
    of the root lattice in the weight lattice; p = 2 is refused at group build,
    so only A2 at p = 3 remains."""
    if g.type_label == "A2" and g.p == 3:
        raise ValueError("A2 requires p not dividing the adjoint index 3")


def verify_product_representatives(factors, f_values) -> dict:
    """Product-system representatives on a product of A1 factors.

    f_values[i] is the concave value at the negative root of factor i.
    Checks that the products r1 r2 ... of per-factor representative systems
    of (U-left, B-right) classes form a complete irredundant system for the
    product subgroup P_f.
    """
    pg = ProductGroup(list(factors))
    per_factor_reps = []
    all_gens_pf = []
    u_gens = []
    b_gens = []
    for idx, (fac, val) in enumerate(zip(pg.factors, f_values)):
        rs = fac.rs
        alpha = rs.simple_roots[0]
        nalpha = rs.neg(alpha)
        fb = pseudo_borel_function(rs, fac.h)
        fi = ConcaveFunction.make(rs, fac.h, {alpha: 0, nalpha: val})
        b_gens += [pg.embed(idx, x) for x in subgroup_gens(fac, fb)]
        u_gens.append(pg.embed(idx, fac.u(alpha, 1)))
        all_gens_pf += [pg.embed(idx, x) for x in subgroup_gens(fac, fi)]
        # factor-side representatives of (U, B) classes of P_f cap P_i,
        # drawn from the n*u shape the product statement requires
        candidates = [
            fac.u(nalpha, fac.p**val * x % fac.mod)
            for x in range(fac.mod // fac.p ** min(val, fac.h))
        ]
        if val == 0:
            candidates.append(fac.weyl_rep(alpha))
        labels = double_class_labels(fac, candidates, [fac.u(alpha, 1)], subgroup_gens(fac, fb))
        sub = mulclose(fac, subgroup_gens(fac, fi), maxsize=ELEMENT_BUDGET)
        if not sub <= labels.keys():
            raise AssertionError("n*u candidates do not cover P_f cap P_i")
        per_factor_reps.append(list(dict.fromkeys(labels.values())))

    pf_elements = mulclose(pg, all_gens_pf + b_gens, maxsize=ELEMENT_BUDGET)
    labels = double_class_labels(pg, sorted(pf_elements), u_gens, b_gens)
    classes = dict.fromkeys(labels.values())
    products = []
    for r1 in per_factor_reps[0]:
        for r2 in per_factor_reps[1]:
            products.append(pg.mul(pg.embed(0, r1), pg.embed(1, r2)))
    per_class = Counter(labels.get(x) for x in products)
    hits = [per_class[c] for c in classes]
    ok = all(hit == 1 for hit in hits) and len(products) == len(classes)
    return {
        "factors": [f.describe() for f in pg.factors],
        "classes": len(classes),
        "products": len(products),
        "per_class_hits": sorted(set(hits)),
        "pass": ok,
    }


def verify_overgroup_classification(g: FiniteParahoricGroup,
                                    budget: int = ELEMENT_BUDGET) -> dict:
    """Brute-force the interval [B, G] and match it to the concave lattice.

    Also verifies every P_f in the interval is its own normalizer.
    """
    elements = mulclose(g, g.gens(), maxsize=budget)
    fb = pseudo_borel_function(g.rs, g.h)
    b_gens = subgroup_gens(g, fb)
    b_set = frozenset(mulclose(g, b_gens))
    concave_sets = {}
    for f in enumerate_overgroups(fb):
        concave_sets[frozenset(mulclose(g, subgroup_gens(g, f), maxsize=budget))] = f

    # <B, x> only depends on the double coset B x B, so one representative
    # per class is enough to find every atom of the interval
    labels = double_class_labels(g, sorted(elements), b_gens, b_gens)
    gen_lists: dict[frozenset, list] = {b_set: list(b_gens)}
    for x in dict.fromkeys(labels.values()):
        if x in b_set:
            continue
        s = frozenset(mulclose(g, b_gens + [x], maxsize=budget))
        gen_lists.setdefault(s, b_gens + [x])
    # close under pairwise joins
    changed = True
    while changed:
        changed = False
        current = sorted(gen_lists, key=len)
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                a, b = current[i], current[j]
                if a <= b or b <= a:
                    continue
                joined_gens = gen_lists[a] + gen_lists[b]
                joined = frozenset(mulclose(g, joined_gens, maxsize=budget))
                if joined not in gen_lists:
                    gen_lists[joined] = joined_gens
                    changed = True
    subgroups = set(gen_lists)

    matches = subgroups == set(concave_sets)
    # self-normalizers: N(P_f) = P_f.  This can genuinely fail on the
    # F_p-points when alpha(T) = 1 mod p (SL2(Z/9): U_{-a,1} normalizes B);
    # offenders are reported with a witness.
    bad_normalizers = []
    for s, f in sorted(concave_sets.items(), key=lambda kv: len(kv[0])):
        f_gens = subgroup_gens(g, f)
        for x in sorted(elements):
            if x in s:
                continue
            x_inv = g.inv(x)
            if all(g.mul(g.mul(x, t), x_inv) in s for t in f_gens):
                bad_normalizers.append(
                    ({serialize_roots(g.rs, [a]): f[a] for a in g.rs.negative_roots}, x)
                )
                break

    return {
        "instance": g.describe(),
        "interval_size": len(subgroups),
        "concave_count": len(concave_sets),
        "matches": matches,
        "self_normalizing": not bad_normalizers,
        "normalizer_witnesses": bad_normalizers,
        "pass": matches and not bad_normalizers,
    }


def verify_pseudo_borel_conjugacy(g: FiniteParahoricGroup) -> dict:
    """All pseudo-Borels from other positive systems are conjugate to B."""
    rs = g.rs
    fb = pseudo_borel_function(rs, g.h)
    b_set = frozenset(mulclose(g, subgroup_gens(g, fb)))
    systems = positive_systems(rs)
    failures = []
    weyl = [(w, g.inv(w))
            for w in mulclose(g, [g.weyl_rep(a) for a in rs.simple_roots], maxsize=10**5)]
    for system in systems:
        gens = list(g.torus_gens()) + [g.u(a, 1) for a in sorted(system)]
        other = frozenset(mulclose(g, gens))
        if len(other) != len(b_set):
            failures.append(system)
            continue
        # w other w^-1 = B iff every conjugated generator lands in B
        if not any(
            all(g.mul(g.mul(w, x), w_inv) in b_set for x in gens)
            for w, w_inv in weyl
        ):
            failures.append(system)
    return {"instance": g.describe(), "systems": len(systems),
            "failures": failures, "pass": not failures}


def verify_reduction_kernel(type_label: str, isogeny: str, p: int, h: int) -> dict:
    """G(Z/p^h) -> G(Z/p^(h-1)) is onto with kernel of order p^dim."""
    if h < 2:
        raise ValueError("needs h >= 2")
    g = build_group(type_label, isogeny, p, h)
    small = build_group(type_label, isogeny, p, h - 1)
    elements = mulclose(g, g.gens(), maxsize=ELEMENT_BUDGET)
    reduced = {small.canon(tuple(v % small.mod for v in x)) for x in elements}
    kernel = sum(
        1 for x in elements
        if small.canon(tuple(v % small.mod for v in x)) == small.identity
    )
    ok = len(reduced) == small.order() and kernel == p**g.dim
    return {
        "instance": g.describe(),
        "image": len(reduced),
        "kernel": kernel,
        "expected_kernel": p**g.dim,
        "pass": ok,
    }
