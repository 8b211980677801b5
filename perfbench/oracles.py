"""Expected values computed apart from the package, and the checks that use them.

Every figure here comes from a closed form (Bourbaki's tables, the
Poincare polynomial of the Weyl group, Macdonald's product formula, the
Smith form of the Cartan matrix) or from a property the method must have.
None of it calls into `parahoric`, so a wrong answer from the package
cannot also make its expected value wrong.  Each `check_*` function
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

# Bourbaki, Planches I-IX: the degrees of the basic invariants of W.
# |Phi+| = sum(d - 1) and the Coxeter number is the largest degree.
_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def weyl_degrees(dynkin: str, rank: int) -> tuple[int, ...]:
    if dynkin == "A":
        return tuple(range(2, rank + 2))
    if dynkin in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if dynkin == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return _EXCEPTIONAL_DEGREES[(dynkin, rank)]


def root_count(dynkin: str, rank: int) -> int:
    """|Phi| by type, as tabulated by Bourbaki."""
    n = rank
    closed = {
        "A": n * (n + 1),
        "B": 2 * n * n,
        "C": 2 * n * n,
        "D": 2 * n * (n - 1),
    }
    if dynkin in closed:
        return closed[dynkin]
    return {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}[
        (dynkin, rank)
    ]


def coxeter_number(dynkin: str, rank: int) -> int:
    """The Coxeter number by type, as tabulated by Bourbaki."""
    n = rank
    closed = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2}
    if dynkin in closed:
        return closed[dynkin]
    return {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 12, ("G", 2): 6}[
        (dynkin, rank)
    ]


def poincare(dynkin: str, rank: int, q: int) -> int:
    """P_W(q) = sum over w of q^l(w) = prod (q^d - 1)/(q - 1) = |G(F_q)/B(F_q)|."""
    out = 1
    for d in weyl_degrees(dynkin, rank):
        out *= sum(q**i for i in range(d))
    return out


def flag_space_size(dynkin: str, rank: int, p: int, h: int) -> int:
    """|G/B| for the pseudo-Borel over Z/p^h: P_W(p) * p^(N (h - 1))."""
    positive = root_count(dynkin, rank) // 2
    return poincare(dynkin, rank, p) * p ** (positive * (h - 1))


def levi_poincare(positive_heights: list[int], q: int) -> int:
    """Macdonald's formula: P_W(q) = prod over a > 0 of (q^(ht a + 1) - 1)/(q^ht a - 1)."""
    out = Fraction(1)
    for ht in positive_heights:
        out *= Fraction(q ** (ht + 1) - 1, q**ht - 1)
    if out.denominator != 1:
        raise ValueError(f"heights {positive_heights} do not form a root system")
    return int(out)


def coset_count(dynkin: str, rank: int, p: int, h: int, negative_values: dict) -> int:
    """[G : P_f] for a concave f that is 0 on Phi+, from its values on Phi-.

    P_f reduces mod p to the standard parabolic whose Levi has the negative
    roots where f = 0, and its congruence part has order p^(h - max(f(a), 1))
    in each negative root direction, so
    [P_f : B] = P_{W_J}(p) * prod over a < 0 of p^(h - max(f(a), 1)).
    Roots are coefficient vectors over the simple roots (heights are sums).
    """
    levi = [-sum(a) for a, v in negative_values.items() if v == 0]
    index = levi_poincare(levi, p)
    for v in negative_values.values():
        index *= p ** (h - max(v, 1))
    total, rem = divmod(flag_space_size(dynkin, rank, p, h), index)
    if rem:
        raise ValueError("[P_f : B] does not divide |G/B|")
    return total


def concave_overgroup_count(roots, h: int) -> int:
    """Concave f with f = 0 on Phi+ and 0 <= f <= h on Phi-, by trying every assignment.

    Concave means f(a + b) <= f(a) + f(b) whenever a + b is a root (the other
    condition, f(a) + f(-a) >= 0, holds for values >= 0).
    """
    roots = list(roots)
    root_set = set(roots)
    negative = [a for a in roots if max(a) <= 0]
    sums = []
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in root_set:
                sums.append((a, b, s))
    count = 0
    for values in product(range(h + 1), repeat=len(negative)):
        f = dict.fromkeys(roots, 0)
        f.update(zip(negative, values))
        count += all(f[s] <= f[a] + f[b] for a, b, s in sums)
    return count


def cartan_matrix(dynkin: str, rank: int) -> list[list[int]]:
    """Bourbaki's Cartan matrix <a_j, a_i^vee> for types A and C."""
    if dynkin not in ("A", "C"):
        raise ValueError(f"no Cartan matrix for type {dynkin}")
    m = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 2
        if i + 1 < rank:
            m[i][i + 1] = m[i + 1][i] = -1
    if dynkin == "C" and rank >= 2:
        m[rank - 1][rank - 2] = -2
    return m


def _det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def elementary_divisors(m: list[list[int]]) -> list[int]:
    """Smith-form diagonal from the determinantal divisors d_k (gcd of k-minors)."""
    n = len(m)
    prev, out = 1, []
    for k in range(1, n + 1):
        dk = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                dk = math.gcd(dk, _det([[m[r][c] for c in cols] for r in rows]))
        out.append(dk // prev)
        prev = dk
    return out


def regular_orbit_count(dynkin: str, rank: int, isogeny: str, p: int) -> int:
    """Torus orbits on regular characters of U_Delta, i.e. (st_B, st_B).

    The torus acts on (F_p^x)^Delta through the simple roots.  For the
    adjoint group that map is onto, so there is one orbit; for the simply
    connected group its cokernel is (F_p^x)^r / image of the Cartan matrix,
    of order prod gcd(e_i, p - 1) over the elementary divisors e_i.
    """
    if isogeny == "adjoint":
        return 1
    return math.prod(math.gcd(e, p - 1) for e in elementary_divisors(cartan_matrix(dynkin, rank)))


# ---------------------------------------------------------------------------
# checks on what the package returned


def expect(problems: list[str], name: str, expected, observed) -> None:
    if expected != observed:
        problems.append(f"{name}: expected {expected!r}, got {observed!r}")


def check_root_system(dynkin: str, rank: int, roots: int, coxeter: int,
                      gamma_sizes: dict[int, int]) -> list[str]:
    """|Phi|, the Coxeter number and the length table Gamma_l of one system."""
    problems: list[str] = []
    tag = f"{dynkin}{rank}"
    expect(problems, f"{tag} |Phi|", root_count(dynkin, rank), roots)
    expect(problems, f"{tag} Coxeter number", coxeter_number(dynkin, rank), coxeter)
    expect(problems, f"{tag} sum |Gamma_l|", roots // 2, sum(gamma_sizes.values()))
    expect(problems, f"{tag} longest length", coxeter_number(dynkin, rank) - 1,
           max(gamma_sizes))
    if dynkin == "A":
        for l in range(1, rank + 1):
            expect(problems, f"{tag} |Gamma_{l}|", rank - l + 1, gamma_sizes.get(l, 0))
    return problems


def check_sign_axioms(tag: str, reports) -> list[str]:
    """Every axiom report from `verify_sign_axioms` passed and checked something."""
    problems: list[str] = []
    for r in reports:
        if not r.passed:
            problems.append(f"{tag} sign axiom {r.name} failed at {r.counterexample}")
    names = sorted(r.name for r in reports)
    expect(problems, f"{tag} sign axioms run",
           ["antisymmetry", "cocycle", "cyclic", "jacobi", "opposite"], names)
    return problems


def check_coset_lattice(dynkin: str, rank: int, p: int, h: int, points: int,
                        counts: list[tuple[dict, int]], borel_double_cosets: int,
                        st_dim_sum: int) -> list[str]:
    """Flag-space size, the two ends of the lattice, #(B\\G/B) bounds and sum of st_dim.

    `counts` pairs each overgroup's values on Phi- with its coset count.
    """
    problems: list[str] = []
    tag = f"{dynkin}{rank} p={p} h={h}"
    index = flag_space_size(dynkin, rank, p, h)
    expect(problems, f"{tag} |G/B|", index, points)
    expect(problems, f"{tag} largest coset count", index, max(c for _, c in counts))
    zero = [c for values, c in counts if not any(values.values())]
    expect(problems, f"{tag} coset count of the zero function", [1], zero)
    weyl = poincare(dynkin, rank, 1)
    if not weyl <= borel_double_cosets <= index:
        problems.append(
            f"{tag} #(B\\G/B) = {borel_double_cosets} outside [|W|, |G/B|] = [{weyl}, {index}]"
        )
    expect(problems, f"{tag} sum of st_dim", index, st_dim_sum)
    return problems


def wrong_coset_counts(dynkin: str, rank: int, p: int, h: int,
                       counts: list[tuple[dict, int]]) -> list[str]:
    """The coset counts that differ from the closed form [G : P_f], one line each."""
    problems: list[str] = []
    for values, c in counts:
        expect(problems, f"{dynkin}{rank} p={p} h={h} [G:P_f] for {sorted(values.items())}",
               coset_count(dynkin, rank, p, h, values), c)
    return problems


def check_verify_report(dynkin: str, rank: int, isogeny: str, p: int, h: int,
                        exit_code: int, report: dict) -> list[str]:
    """The `parahoric verify` JSON: passed, nothing skipped, certificate values right."""
    problems: list[str] = []
    tag = f"verify {dynkin}{rank} {isogeny} p={p} h={h}"
    expect(problems, f"{tag} exit code", 0, exit_code)
    expect(problems, f"{tag} pass", True, report.get("pass"))
    checks = {c["name"]: c for c in report.get("checks", [])}
    for name, c in checks.items():
        if isinstance(c["result"], str) and c["result"].startswith("skipped"):
            problems.append(f"{tag} check {name} was {c['result']!r}")
        if c["pass"] is not True:
            problems.append(f"{tag} check {name} did not pass")
    for name in ("parahoric_axioms", "exterior_class_absorption", "multiplicity_freeness"):
        if name not in checks:
            problems.append(f"{tag} check {name} missing")
    cert = {}
    if isinstance(checks.get("multiplicity_freeness", {}).get("result"), list):
        cert = {c["name"]: c["computed"] for c in checks["multiplicity_freeness"]["result"]}
    expect(problems, f"{tag} (st_B, st_B)",
           regular_orbit_count(dynkin, rank, isogeny, p), cert.get("st_st_equals_orbits"))
    expect(problems, f"{tag} sum of st_dim",
           flag_space_size(dynkin, rank, p, h), cert.get("st_dims_sum_to_index"))
    return problems
