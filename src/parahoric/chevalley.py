"""Chevalley structure-constant signs eps and multiplicities p in {1,2,3}.

For each ordered pair (a, b) of roots with a + b a root, the commutator
constant is N(a,b) = eps(a,b) * p(a,b) with eps = +-1 and p - 1 the length
of the root string from b down in direction a.  Signs are fixed on the
extraspecial pairs (a free gauge) and propagated by antisymmetry, the
opposite-pair rule, the cyclic rule for zero-sum triples, and the Jacobi
identity; the whole table is re-verified against the Lie-algebra Jacobi
identity after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .root_system import Coeffs, RootSystem, build_root_system

Pair = tuple[Coeffs, Coeffs]


class SignTableError(AssertionError):
    """Internal consistency failure while building a sign table."""


@dataclass
class AxiomReport:
    name: str
    checked: int
    passed: bool
    counterexample: tuple | None = None
    note: str = ""


@dataclass
class SignTable:
    rs: RootSystem
    eps: dict[Pair, int]
    pmul: dict[Pair, int]
    gauge_name: str = "plus"

    def n(self, a: Coeffs, b: Coeffs) -> int:
        """N(a,b), or 0 when a+b is not a root."""
        key = (a, b)
        if key not in self.eps:
            return 0
        return self.eps[key] * self.pmul[key]

    def pairs(self) -> list[Pair]:
        return sorted(self.eps)


def _positive_order(rs: RootSystem) -> list[Coeffs]:
    return sorted(rs.positive_roots, key=lambda r: (sum(r), r))


def _root_index(
    rs: RootSystem,
) -> tuple[list[Coeffs], dict[Coeffs, int], list[list[int]], list[int]]:
    """The roots in sorted order, their index map, sum table and negation map.

    Root i gets the linear code sum(c_j << 5j), so code(a + b) = code(a) +
    code(b).  A coefficient of a root is at most 6 in absolute value, so those
    of a sum of two stay below 16 and the code is injective on them.
    plus[i][j] is the index of roots[i] + roots[j], or -1 when that sum is not
    a root (zero included); roots[neg[i]] = -roots[i].
    """
    roots = sorted(rs.roots)
    codes = [sum(c << (5 * j) for j, c in enumerate(r)) for r in roots]
    of_code = {code: i for i, code in enumerate(codes)}
    plus = [[of_code.get(ci + cj, -1) for cj in codes] for ci in codes]
    neg = [of_code[-code] for code in codes]
    return roots, {r: i for i, r in enumerate(roots)}, plus, neg


GAUGE_NAMES = ("plus", "minus", "alternating")


def _gauge_fn(gauge, order: list[Coeffs]):
    """Normalize the gauge argument to a map gamma -> +-1."""
    if gauge is None or gauge == "plus":
        return lambda g: 1, "plus"
    if gauge == "minus":
        return lambda g: -1, "minus"
    if gauge == "alternating":
        index = {g: i for i, g in enumerate(order)}
        return lambda g: 1 if index[g] % 2 == 0 else -1, "alternating"
    if isinstance(gauge, int):
        rng = random.Random(gauge)
        table = {g: rng.choice((1, -1)) for g in order}
        return lambda g: table[g], f"seed{gauge}"
    if isinstance(gauge, dict):
        return lambda g: gauge.get(g, 1), "custom"
    raise ValueError(f"unsupported gauge {gauge!r}")


def build_sign_table(rs: RootSystem, gauge=None, validate: str = "basic") -> SignTable:
    """Deterministic sign table for the fixed (height, lex) root order.

    `gauge` picks the free extraspecial-pair signs: "plus" (default),
    "minus", "alternating", an integer seed, or an explicit dict.
    `validate` is "basic" (antisymmetry/opposite/cyclic, cheap), "full"
    (adds the exhaustive Jacobi check), or "none".
    """
    roots, at, plus, neg = _root_index(rs)
    order = _positive_order(rs)
    gauge_of, gauge_name = _gauge_fn(gauge, order)
    order_ix = [at[g] for g in order]
    # pos[i]: place of roots[i] in the order, -1 for a negative root
    pos = [-1] * len(roots)
    for place, i in enumerate(order_ix):
        pos[i] = place
    norm = [rs.inner(r, r) for r in roots]

    def string_p(i: int, j: int) -> int:
        """1 + the largest k with roots[j] - k roots[i] a root."""
        p, down = 1, neg[i]
        cur = plus[j][down]
        while cur >= 0:
            p += 1
            cur = plus[cur][down]
        return p

    # n_special[(i, j)] for positive pairs with i before j in the order.
    n_special: dict[tuple[int, int], int] = {}

    def n_value(i: int, j: int) -> int:
        """Resolve N(roots[i], roots[j]) for any pair with a root sum."""
        if pos[i] >= 0 and pos[j] >= 0:
            if pos[i] < pos[j]:
                return n_special[(i, j)]
            return -n_special[(j, i)]
        if pos[i] < 0 and pos[j] < 0:
            return -n_value(neg[i], neg[j])
        if pos[i] < 0:
            return -n_value(j, i)
        # a positive, b negative
        s = plus[i][j]
        if pos[s] >= 0:
            # cyclic on (a, b, -s) then the opposite rule:
            # eps(a,b) = eps(b,-s) = -eps(-b,s); |N| from the root string.
            sign = -1 if n_value(neg[j], s) > 0 else 1
            return sign * string_p(i, j)
        return -n_value(neg[i], neg[j])

    for gamma, g in zip(order, order_ix):
        if sum(gamma) == 1:
            continue
        to_gamma = plus[g]
        specials = []
        for i in order_ix:
            j = to_gamma[neg[i]]
            if j >= 0 and pos[i] < pos[j]:
                specials.append((i, j))
        if not specials:
            raise SignTableError(f"no special pair for {gamma}")
        i1, j1 = specials[0]
        n1 = n_special[(i1, j1)] = gauge_of(gamma) * string_p(i1, j1)
        for i, j in specials[1:]:
            # Jacobi on the zero-sum quadruple (a1, b1, -a, -b)
            t = 0
            r = plus[j1][neg[i]]
            if r >= 0:
                t += n_value(j1, neg[i]) * n_value(i1, neg[j]) * norm[g] // norm[r]
            r = plus[i1][neg[i]]
            if r >= 0:
                t += n_value(neg[i], i1) * n_value(j1, neg[j]) * norm[g] // norm[r]
            if t % n1 != 0:
                raise SignTableError(f"Jacobi solve not integral at {gamma}: {t} / {n1}")
            # the quadruple identity yields N(-a,-b) = -t/n1; flip for N(a,b)
            n_ab = t // n1
            expected = string_p(i, j)
            if abs(n_ab) != expected:
                raise SignTableError(
                    f"Jacobi magnitude mismatch at ({roots[i]},{roots[j]}): "
                    f"got {n_ab}, |N| should be {expected}"
                )
            n_special[(i, j)] = n_ab

    eps: dict[Pair, int] = {}
    pmul: dict[Pair, int] = {}
    indexed = [(a, at[a]) for a in rs.roots]
    for a, i in indexed:
        row = plus[i]
        for b, j in indexed:
            if row[j] < 0:
                continue
            n = n_value(i, j)
            eps[(a, b)] = 1 if n > 0 else -1
            pmul[(a, b)] = abs(n)

    table = SignTable(rs, eps, pmul, gauge_name)
    if validate != "none":
        report = verify_sign_axioms(table, full=(validate == "full"))
        bad = [r for r in report if not r.passed]
        if bad:
            raise SignTableError(
                f"construction failed axiom {bad[0].name}: {bad[0].counterexample}"
            )
    return table


def _first_failure(cases, holds) -> tuple[int, tuple | None]:
    """(number of cases checked, first case where `holds` fails, or None)."""
    checked = 0
    for case in cases:
        checked += 1
        if not holds(*case):
            return checked, case
    return checked, None


def verify_sign_axioms(table: SignTable, full: bool = True) -> list[AxiomReport]:
    """Exhaustively check the four sign conditions plus the Lie Jacobi identity.

    The cocycle condition eps(a,b)eps(a+b,c) = eps(b,c)eps(a,b+c) is checked
    for triples where all four pairs sum to roots and a+c is NOT a root; when
    a+c is also a root the printed two-term form does not follow from the
    Jacobi identity (and fails in doubly-laced systems), so those triples are
    covered by the full Jacobi check instead.  With full=False the cocycle
    and Jacobi passes are skipped (used for cheap construction validation).

    The passes run on integer root indices (see `_root_index`); the pairs of
    `table.eps` are visited in insertion order (sorted order for the cocycle
    pass) and counterexamples are reported as root tuples.
    """
    roots, at, plus, neg = _root_index(table.rs)
    # pairs[k] is the k-th key of table.eps as indices; eps[i][j] = 0 off the table
    pairs = [(at[a], at[b]) for a, b in table.eps]
    eps = [[0] * len(roots) for _ in roots]
    for (i, j), e in zip(pairs, table.eps.values()):
        eps[i][j] = e

    def report(name, checked, bad, note=""):
        found = None if bad is None else tuple(
            roots[x] if isinstance(x, int) else x for x in bad)
        return AxiomReport(name, checked, bad is None, found, note)

    reports = [
        report("antisymmetry", *_first_failure(pairs, lambda i, j: eps[j][i] == -eps[i][j])),
        report("opposite", *_first_failure(
            pairs, lambda i, j: eps[neg[i]][neg[j]] == -eps[i][j])),
    ]
    triples = ((i, j, neg[plus[i][j]]) for i, j in pairs)
    reports.append(report("cyclic", *_first_failure(
        triples, lambda i, j, k: eps[i][j] == eps[j][k] == eps[k][i])))

    if not full:
        return reports

    # nbr[x]: the y with roots[x] + roots[y] a root, in table order
    nbr: list[list[int]] = [[] for _ in roots]
    for i, j in pairs:
        nbr[i].append(j)

    checked = skipped = 0
    bad = None
    for i, j in sorted(pairs):
        ab = plus[i][j]
        plus_ab, plus_i, plus_j = plus[ab], plus[i], plus[j]
        eps_i, eps_j, eps_ab = eps[i], eps[j], eps[ab]
        left = eps_i[j]
        for k in nbr[j]:
            if plus_ab[k] < 0:
                continue
            if plus_i[k] >= 0:
                skipped += 1
                continue
            checked += 1
            if left * eps_ab[k] != eps_j[k] * eps_i[plus_j[k]]:
                bad = (i, j, k)
                break
        if bad is not None:
            break
    reports.append(report(
        "cocycle", checked, bad,
        note=f"{skipped} triples with a+c also a root deferred to the Jacobi check",
    ))

    reports.append(report("jacobi", *_lie_jacobi_failure(table, roots, plus, neg, pairs, nbr)))
    return reports


def _coroot_coeffs(rs: RootSystem, a: Coeffs) -> tuple[int, ...]:
    """a^vee in the basis of simple coroots: c_i * d_i / d_a."""
    da = rs.inner(a, a) // 2
    out = []
    for i, c in enumerate(a):
        num = c * 2 * rs.d[i]
        if num % (2 * da) != 0:
            raise SignTableError(f"non-integral coroot for {a}")
        out.append(num // (2 * da))
    return tuple(out)


def _lie_jacobi_failure(table: SignTable, roots, plus, neg, pairs, nbr):
    """Check every Jacobi identity among root vectors of the Chevalley basis.

    Covers: zero-sum triples (bracket lands in the Cartan), triples whose sum
    is a root (three-term identity with multiplicities), and sl2 triples
    (a, -a, c), which pin |N| against the Cartan pairings.  Returns the
    number of identities checked and the first failing triple of indices
    (its third entry "cartan" for a zero-sum triple), or None.
    """
    rs = table.rs
    size = len(roots)
    # n[i][j] = N(roots[i], roots[j]), 0 when the sum is not a root
    n = [[0] * size for _ in roots]
    for (i, j), key in zip(pairs, table.eps):
        n[i][j] = table.eps[key] * table.pmul[key]
    coroot = [_coroot_coeffs(rs, a) for a in roots]
    # gram_vec[i][x] = (alpha_x, roots[i]), so (c, roots[i]) is an O(rank) dot product
    gram_vec = [[sum(g * c for g, c in zip(row, a)) for row in rs.gram] for a in roots]
    norm = [rs.inner(a, a) for a in roots]
    checked = 0

    for i, j in pairs:
        # N(a,b) h_{a+b} = N(a,b) (h_a + h_b) consistency via cyclic triple:
        # N(a,b) h_c + N(b,c) h_a + N(c,a) h_b must vanish with h_x = x^vee.
        k = neg[plus[i][j]]
        nab, nbc, nca = n[i][j], n[j][k], n[k][i]
        checked += 1
        if any(nab * vc + nbc * va + nca * vb
               for va, vb, vc in zip(coroot[i], coroot[j], coroot[k])):
            return checked, (i, j, "cartan")

    for i, j in pairs:
        ab = plus[i][j]
        nab = n[i][j]
        n_ab, plus_i, plus_j = n[ab], plus[i], plus[j]
        skip = (neg[ab], neg[i], neg[j])
        for k in nbr[ab]:
            if k in skip:
                continue  # Cartan brackets; covered by the sl2 loop below
            checked += 1
            total = nab * n_ab[k]
            bc = plus_j[k]
            if bc >= 0:
                total += n[j][k] * n[bc][i]
            ca = plus[k][i]
            if ca >= 0:
                total += n[k][i] * n[ca][j]
            if total != 0:
                return checked, (i, j, k)

    for i in range(size):
        ni = neg[i]
        g, norm_i = gram_vec[i], norm[i]
        for k in range(size):
            if k == i or k == ni:
                continue
            checked += 1
            # <c, a^vee> = 2 (c, a) / (a, a)
            total = 2 * sum(map(mul, roots[k], g)) // norm_i
            down = plus[k][ni]
            if down >= 0:
                total += n[ni][k] * n[down][i]
            up = plus[k][i]
            if up >= 0:
                total += n[k][i] * n[up][ni]
            if total != 0:
                return checked, (i, ni, k)

    return checked, None


@lru_cache(maxsize=None)
def default_sign_table(dynkin: str, rank: int) -> SignTable:
    """The plus-gauge table for the given type, built once per process."""
    return build_sign_table(build_root_system(dynkin, rank))


def mutate_one_sign(table: SignTable, pair: Pair | None = None) -> SignTable:
    """Flip eps on one unordered pair (both orientations) - for negative tests."""
    if pair is None:
        pair = min(table.eps)
    a, b = pair
    eps = dict(table.eps)
    eps[(a, b)] = -eps[(a, b)]
    eps[(b, a)] = -eps[(b, a)]
    return SignTable(table.rs, eps, dict(table.pmul), table.gauge_name + "+flip")
