"""Reduced crystallographic root systems with integer-exact arithmetic.

Roots are stored as integer coefficient vectors over the simple basis
(plain tuples, hashable).  The bilinear form is normalized so that short
roots have squared length 2; on simply-laced systems every root then has
(a, a) = 2 and (a, b) in {-1, 0, 1} for a != +-b.

The "length" of a negative root is the number of negative simple roots it
is a sum of, i.e. minus its coefficient sum.  Gamma_l denotes the set of
negative roots of length l.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .closure import closure
Coeffs = tuple[int, ...]

CLASSICAL_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": {6: 72, 7: 126, 8: 240},
    "F": {4: 48},
    "G": {2: 12},
}

VALID_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(2, 9),
    "D": range(4, 9),
    "E": (6, 7, 8),
    "F": (4,),
    "G": (2,),
}


class InvalidRootSystem(ValueError):
    """Raised for (type, rank) pairs outside the reduced irreducible list."""


def _chain_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _dynkin_data(dynkin: str, n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges of the Dynkin diagram and the d_i = (a_i, a_i)/2 vector."""
    if dynkin == "A":
        return _chain_edges(n), [1] * n
    if dynkin == "B":
        # a_n short, the rest long
        return _chain_edges(n), [2] * (n - 1) + [1]
    if dynkin == "C":
        return _chain_edges(n), [1] * (n - 1) + [2]
    if dynkin == "D":
        edges = _chain_edges(n - 1) + [(n - 3, n - 1)]
        return edges, [1] * n
    if dynkin == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        for i in range(5, n - 1):
            edges.append((i, i + 1))
        return edges, [1] * n
    if dynkin == "F":
        return _chain_edges(4), [2, 2, 1, 1]
    if dynkin == "G":
        return [(0, 1)], [1, 3]
    raise InvalidRootSystem(f"unknown Dynkin type {dynkin!r}")


class RootSystem:
    """Immutable root system of a given irreducible Dynkin type."""

    def __init__(self, dynkin: str, rank: int):
        if dynkin not in VALID_RANKS or rank not in VALID_RANKS[dynkin]:
            raise InvalidRootSystem(
                f"({dynkin}, {rank}) is not a supported irreducible type "
                f"(A1-A8, B2-B8, C2-C8, D4-D8, E6-E8, F4, G2)"
            )
        self.dynkin = dynkin
        self.rank = rank
        self.edges, self.d = _dynkin_data(dynkin, rank)
        # gram[i][j] = (a_i, a_j); adjacent simples have (a_i, a_j) = -max(d_i, d_j)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = 2 * self.d[i]
        for i, j in self.edges:
            gram[i][j] = gram[j][i] = -max(self.d[i], self.d[j])
        self.gram = tuple(tuple(row) for row in gram)
        # cartan[i][j] = <a_j, a_i^vee> = 2 (a_i, a_j) / (a_i, a_i)
        self.cartan = tuple(
            tuple(gram[i][j] // self.d[i] for j in range(rank)) for i in range(rank)
        )
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        )
        self.roots = self._generate()
        expected = CLASSICAL_ROOT_COUNTS[dynkin]
        expected = expected(rank) if callable(expected) else expected[rank]
        if len(self.roots) != expected:
            raise AssertionError(
                f"{dynkin}{rank}: generated {len(self.roots)} roots, expected {expected}"
            )
        self.positive_roots = tuple(sorted(r for r in self.roots if min(r) >= 0))
        self.negative_roots = tuple(sorted(r for r in self.roots if max(r) <= 0))
        if len(self.positive_roots) + len(self.negative_roots) != len(self.roots):
            raise AssertionError("roots do not split into positive/negative")
        self.neg_simples = tuple(tuple(-c for c in a) for a in self.simple_roots)
        self.highest_root = max(self.positive_roots, key=lambda r: (sum(r), r))
        self._root_set = frozenset(self.roots)

    def _generate(self) -> frozenset[Coeffs]:
        return frozenset(closure(
            self.simple_roots, lambda b: [self.reflect(i, b) for i in range(self.rank)]
        ))

    def reflect(self, i: int, beta: Coeffs) -> Coeffs:
        """Simple reflection s_i(beta) = beta - <beta, a_i^vee> a_i."""
        pairing = sum(self.cartan[i][j] * beta[j] for j in range(self.rank))
        return tuple(c - (pairing if j == i else 0) for j, c in enumerate(beta))

    def inner(self, a: Coeffs, b: Coeffs) -> int:
        g = self.gram
        return sum(a[i] * g[i][j] * b[j] for i in range(self.rank) for j in range(self.rank))

    def is_root(self, v: Coeffs) -> bool:
        return v in self._root_set

    @staticmethod
    def add(a: Coeffs, b: Coeffs) -> Coeffs:
        return tuple(x + y for x, y in zip(a, b))

    @staticmethod
    def sub(a: Coeffs, b: Coeffs) -> Coeffs:
        return tuple(x - y for x, y in zip(a, b))

    @staticmethod
    def neg(a: Coeffs) -> Coeffs:
        return tuple(-x for x in a)

    def height(self, a: Coeffs) -> int:
        return sum(a)

    def length(self, a: Coeffs) -> int:
        """Length of a negative root: number of negative simples it sums."""
        if max(a) > 0:
            raise ValueError(f"{a} is not a negative root")
        return -sum(a)

    def root_string_down(self, alpha: Coeffs, beta: Coeffs) -> int:
        """Largest k >= 0 with beta - k*alpha a root."""
        k = 0
        cur = self.sub(beta, alpha)
        while cur in self._root_set:
            k += 1
            cur = self.sub(cur, alpha)
        return k

    def __repr__(self) -> str:
        return f"RootSystem({self.dynkin}{self.rank})"


@lru_cache(maxsize=None)
def build_root_system(dynkin: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given type."""
    return RootSystem(dynkin, rank)


def positive_systems(rs: RootSystem, cap: int = 100_000) -> list[frozenset[Coeffs]]:
    """The Weyl orbit of the standard positive system, in sorted order.

    Raises BudgetExceeded past `cap` systems (the orbit has |W| members).
    """
    def images(system: frozenset[Coeffs]) -> list[frozenset[Coeffs]]:
        return [frozenset(rs.reflect(i, a) for a in system) for i in range(rs.rank)]

    return sorted(closure([frozenset(rs.positive_roots)], images, cap), key=sorted)


def negative_roots_of_length(rs: RootSystem, l: int) -> set[Coeffs]:
    """Gamma_l: negative roots that are sums of exactly l negative simples."""
    if l < 1:
        raise ValueError("length must be >= 1")
    return {a for a in rs.negative_roots if -sum(a) == l}


def gamma_table(rs: RootSystem) -> dict[int, set[Coeffs]]:
    """All nonempty Gamma_l, keyed by l."""
    table: dict[int, set[Coeffs]] = {}
    for a in rs.negative_roots:
        table.setdefault(-sum(a), set()).add(a)
    return table


def coxeter_number(rs: RootSystem) -> int:
    """1 + height of the highest root (the system is built irreducible)."""
    return 1 + sum(rs.highest_root)


def simple_decrement_count(rs: RootSystem, alpha: Coeffs) -> int:
    """Number of negative simple roots d with alpha - d a root (at most 3)."""
    if alpha not in rs._root_set:
        raise ValueError(f"{alpha} is not a root")
    return sum(1 for d in rs.neg_simples if rs.sub(alpha, d) in rs._root_set)


def pseudo_leaves(rs: RootSystem, l: int) -> set[Coeffs]:
    """Elements of Gamma_l with a unique negative-simple decrement."""
    if l < 2:
        raise ValueError("pseudo-leaves are defined for length >= 2")
    return {a for a in negative_roots_of_length(rs, l) if simple_decrement_count(rs, a) == 1}


def all_pseudo_leaves(rs: RootSystem) -> set[Coeffs]:
    """Non-simple negative roots with a unique negative-simple decrement."""
    out: set[Coeffs] = set()
    for a in rs.negative_roots:
        if -sum(a) >= 2 and simple_decrement_count(rs, a) == 1:
            out.add(a)
    return out


# Closed-form |Gamma_l| predictions used as oracles in the test suite.


def gamma_count_bc(n: int, l: int) -> int:
    """B_n and C_n share the count floor((2n - l + 1)/2)."""
    return max(0, (2 * n - l + 1) // 2) if l <= 2 * n - 1 else 0


def gamma_count_d(n: int, l: int) -> int:
    if l > 2 * n - 3:
        return 0
    if l <= n - 1:
        return (2 * n - l + 1) // 2
    return (2 * n - l - 1) // 2


def gamma_count_a(n: int, l: int) -> int:
    """Brute-force-confirmed A_n count (the printed formula n-l-1 is off by 2)."""
    return max(0, n - l + 1)


PUBLISHED_A_COUNT_FORMULA = "n-l-1"  # printed value; disagrees with enumeration


def a_count_discrepancy(n: int) -> list[dict[str, int]]:
    """Rows where the printed A_n formula disagrees with enumeration."""
    rs = build_root_system("A", n)
    rows = []
    for l in range(1, n + 1):
        actual = len(negative_roots_of_length(rs, l))
        printed = n - l - 1
        if printed != actual:
            rows.append({"l": l, "printed": printed, "actual": actual})
    return rows


# Bourbaki epsilon-coordinate printer for the classical types (used for the
# D_n goldens and for human-readable CLI output).


def eps_coords(rs: RootSystem, a: Coeffs) -> tuple[int, ...]:
    if rs.dynkin == "A":
        v = [0] * (rs.rank + 1)
        for i, c in enumerate(a):
            v[i] += c
            v[i + 1] -= c
        return tuple(v)
    if rs.dynkin in ("B", "C", "D"):
        n = rs.rank
        v = [0] * n
        for i, c in enumerate(a[: n - 1]):
            v[i] += c
            v[i + 1] -= c
        c = a[n - 1]
        if rs.dynkin == "B":
            v[n - 1] += c
        elif rs.dynkin == "C":
            v[n - 1] += 2 * c
        else:
            v[n - 2] += c
            v[n - 1] += c
        return tuple(v)
    raise ValueError(f"epsilon coordinates implemented for classical types only")


def eps_str(rs: RootSystem, a: Coeffs) -> str:
    """Readable Bourbaki form, e.g. 'e1-e2' or '-e2-e3'."""
    parts = []
    for i, c in enumerate(eps_coords(rs, a)):
        if c == 0:
            continue
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        head = "" if mag == 1 else str(mag)
        parts.append(f"{sign}{head}e{i + 1}")
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def serialize_roots(rs: RootSystem, roots: Iterable[Coeffs] | None = None) -> str:
    """One root per line as space-separated simple-basis coefficients.

    Negative roots have all coefficients <= 0; the listing is sorted, so the
    output is deterministic and diff-friendly.
    """
    items = sorted(roots) if roots is not None else sorted(rs.roots)
    return "\n".join(" ".join(str(c) for c in r) for r in items)


def parse_roots(text: str) -> list[Coeffs]:
    out = []
    for line in text.strip().splitlines():
        if line.strip():
            out.append(tuple(int(tok) for tok in line.split()))
    return out


def dynkin_edge_count(rs: RootSystem) -> int:
    return len(rs.edges)
