"""Concrete split groups of parahoric type over Z/p^h.

Supported instances: SL2/PGL2 (type A1), SL3/PGL3 (type A2), Sp4 (type C2,
simply connected, symplectic form antidiag(1,1,-1,-1)).  Elements are flat
matrix tuples mod p^h; adjoint groups use the scalar-normalized matrix as
the canonical representative.  All instances are special (Psi = Phi) with
f0 = 0, so U_{a,i} = u_a(p^i Z/p^h) and the triviality bound is i >= h.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations

from ..closure import closure
from ..root_system import Coeffs, RootSystem, build_root_system
from . import kernels

Mat = tuple[int, ...]


class GroupBuildError(ValueError):
    pass


def _primitive_root(p: int, mod: int) -> int:
    """A generator of the cyclic unit group of Z/p^h, p odd."""
    order = (p - 1) * (mod // p)
    for g in range(2, mod):
        if g % p == 0:
            continue
        x, k = g, 1
        while x != 1:
            x = x * g % mod
            k += 1
        if k == order:
            return g
    raise AssertionError("no primitive root found")


# per-type root subgroup data: root -> list of (row, col, coefficient)
def _a1_positions():
    return {
        (1,): [(0, 1, 1)],
        (-1,): [(1, 0, 1)],
    }


def _a2_positions():
    return {
        (1, 0): [(0, 1, 1)],
        (0, 1): [(1, 2, 1)],
        (1, 1): [(0, 2, 1)],
        (-1, 0): [(1, 0, 1)],
        (0, -1): [(2, 1, 1)],
        (-1, -1): [(2, 0, 1)],
    }


def _c2_positions():
    return {
        (1, 0): [(0, 1, 1), (2, 3, -1)],   # eps1 - eps2 (short)
        (0, 1): [(1, 2, 1)],               # 2 eps2 (long)
        (1, 1): [(0, 2, 1), (1, 3, 1)],    # eps1 + eps2 (short)
        (2, 1): [(0, 3, 1)],               # 2 eps1 (long)
        (-1, 0): [(1, 0, 1), (3, 2, -1)],
        (0, -1): [(2, 1, 1)],
        (-1, -1): [(2, 0, 1), (3, 1, 1)],
        (-2, -1): [(3, 0, 1)],
    }


_SYMPLECTIC_J = (0, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0, -1, 0, 0, 0)


@lru_cache(maxsize=None)
def _adjugate_function(n: int):
    """adj(m) for flat n x n matrices m, as one expression compiled once per n.

    Entry r * n + c of adj(m) is (-1)^(r+c) times the minor of m without row
    c and column r, expanded over the permutations of that minor.  Written
    out as source, the expansion costs only its products when evaluated.
    """
    entries = []
    for r in range(n):
        for c in range(n):
            rows = [i for i in range(n) if i != c]
            cols = [j for j in range(n) if j != r]
            terms = []
            for perm in permutations(range(n - 1)):
                odd = (r + c + sum(x > y for x, y in combinations(perm, 2))) % 2
                factors = "*".join(f"m[{rows[k] * n + cols[perm[k]]}]" for k in range(n - 1))
                terms.append(("-" if odd else "+") + factors)
            entries.append("".join(terms))
    return eval(f"lambda m: [{', '.join(entries)}]")


_TYPE_DATA = {
    "A1": dict(rs=("A", 1), n=2, flag_k=1, dim=3, positions=_a1_positions),
    "A2": dict(rs=("A", 2), n=3, flag_k=2, dim=8, positions=_a2_positions),
    "C2": dict(rs=("C", 2), n=4, flag_k=2, dim=10, positions=_c2_positions),
}


def _reductive_order(type_label: str, p: int) -> int:
    if type_label == "A1":
        return p * (p * p - 1)
    if type_label == "A2":
        return p**3 * (p**2 - 1) * (p**3 - 1)
    if type_label == "C2":
        return p**4 * (p**2 - 1) * (p**4 - 1)
    raise GroupBuildError(type_label)


class FiniteParahoricGroup:
    """G(Z/p^h) with torus, root subgroups, and the congruence filtration."""

    def __init__(self, type_label: str, isogeny: str, p: int, h: int):
        if type_label not in _TYPE_DATA:
            raise GroupBuildError(f"unsupported type {type_label!r} (A1, A2, C2)")
        if isogeny not in ("sc", "adjoint"):
            raise GroupBuildError(f"isogeny must be 'sc' or 'adjoint', got {isogeny!r}")
        if type_label == "C2" and isogeny == "adjoint":
            raise GroupBuildError("C2 is built simply connected only (Sp4)")
        if p < 3 or any(p % q == 0 for q in range(2, p)):
            raise GroupBuildError(f"p must be an odd prime, got {p}")
        if h < 1:
            raise GroupBuildError("depth h must be >= 1")
        data = _TYPE_DATA[type_label]
        self.type_label = type_label
        self.isogeny = isogeny
        self.p = p
        self.h = h
        self.mod = p**h
        self.n = data["n"]
        self.flag_k = data["flag_k"]
        self.dim = data["dim"]
        self.rs: RootSystem = build_root_system(*data["rs"])
        self.positions = data["positions"]()
        self.unit_gen = _primitive_root(p, self.mod)
        # one kernel serves this instance: its products and its flag orbit
        self.kernel = kernels.kernel_for(self.n, self.mod, self.flag_k)
        self.identity = kernels.mat_identity(self.n)
        self._adjugate = _adjugate_function(self.n)
        for a in self.rs.roots:
            # u_a(x) = 1 + x N_a is additive, so u_a(x)^-1 = u_a(-x), iff
            # N_a^2 = 0; the commutator checks rely on that closed form
            square = self.kernel.mat_mul(self.u(a, 1), self.u(a, -1), self.n, self.mod)
            if square != self.identity:
                raise GroupBuildError(f"u_{a}(1) u_{a}(-1) != 1: u_{a} is not additive")
        if type_label == "C2":
            for a in self.rs.roots:
                assert self._is_symplectic(self.u(a, 1)), f"u_{a}(1) not symplectic"
        t = self.torus_gens()[0]
        for a in self.rs.roots:
            # weight consistency: t u_a(1) t^-1 must land back in U_a
            self.u_param(self.conj(t, self.u(a, 1)), a)

    # -- element arithmetic ------------------------------------------------

    def mul(self, a: Mat, b: Mat) -> Mat:
        return self.canon(self.kernel.mat_mul(a, b, self.n, self.mod))

    def conj(self, g: Mat, x: Mat) -> Mat:
        return self.mul(self.mul(g, x), self.inv(g))

    def inv(self, g: Mat) -> Mat:
        """Inverse as adj(g) / det(g); on adjoint groups `canon` absorbs det(g)."""
        n, mod = self.n, self.mod
        adj = self._adjugate(g)
        if self.isogeny == "adjoint":
            return self.canon(tuple(v % mod for v in adj))
        det = sum(g[j] * adj[j * n] for j in range(n)) % mod
        s = 1 if det == 1 else pow(det, -1, mod)
        return tuple(v * s % mod for v in adj)

    def canon(self, g: Mat) -> Mat:
        """Canonical representative: scalar-normalized for adjoint groups.

        The entries of g are reduced mod p^h, so a g whose first unit entry
        is already 1 is its own representative and is returned as it is.
        """
        if self.isogeny != "adjoint":
            return g
        for v in g:
            if v % self.p:
                if v == 1:
                    return g
                s = pow(v, -1, self.mod)
                return tuple(w * s % self.mod for w in g)
        raise AssertionError("matrix with no unit entry")

    def root_commutator(self, a: Coeffs, x: int, b: Coeffs, y: int) -> Mat:
        """[u_a(x), u_b(y)] = u_a(x) u_b(y) u_a(-x) u_b(-y), with no inversion:
        every u_a is additive (checked at build)."""
        return self.mul(self.mul(self.u(a, x), self.u(b, y)),
                        self.mul(self.u(a, -x), self.u(b, -y)))

    # -- structural pieces -------------------------------------------------

    def u(self, alpha: Coeffs, x: int) -> Mat:
        m = list(self.identity)
        for i, j, c in self.positions[alpha]:
            m[i * self.n + j] = (m[i * self.n + j] + c * x) % self.mod
        return tuple(m)

    def u_param(self, g: Mat, alpha: Coeffs) -> int:
        """Read x from g = u_alpha(x); validates all positions agree."""
        vals = set()
        for i, j, c in self.positions[alpha]:
            v = g[i * self.n + j]
            vals.add(v * pow(c, -1, self.mod) % self.mod if c != 1 else v)
        if len(vals) != 1:
            raise ValueError(f"{g} is not in U_{alpha}")
        return vals.pop()

    def valuation_int(self, x: int):
        """p-adic valuation of x in Z/p^h; math.inf for 0."""
        x %= self.mod
        if x == 0:
            return math.inf
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def valuation(self, g: Mat, alpha: Coeffs):
        """Largest v with g in U_{alpha,v}; math.inf for the identity."""
        x = self.u_param(g, alpha)
        if g != self.u(alpha, x):
            raise ValueError(f"element is not in U_{alpha}")
        return self.valuation_int(x)

    def coroot(self, alpha: Coeffs, t: int) -> Mat:
        """alpha^vee(t) in the torus, via the rank-1 subgroup."""
        # n_alpha(t) n_alpha(1)^{-1} with n_alpha(t) = u(t) u_-( -1/t ) u(t)
        tinv = pow(t, -1, self.mod)
        na_t = self.mul(
            self.mul(self.u(alpha, t), self.u(self.rs.neg(alpha), (-tinv) % self.mod)),
            self.u(alpha, t),
        )
        return self.mul(na_t, self.inv(self.weyl_rep(alpha)))

    def weyl_rep(self, alpha: Coeffs) -> Mat:
        return self.mul(
            self.mul(self.u(alpha, 1), self.u(self.rs.neg(alpha), self.mod - 1)),
            self.u(alpha, 1),
        )

    def _torus_gens_at(self, x: int) -> list[Mat]:
        """alpha^vee(x) for the simple roots (sc), or the diagonal classes
        diag(1, .., x, .., 1) with x in each of the first n - 1 places (adjoint)."""
        if self.isogeny == "sc":
            return [self.coroot(a, x) for a in self.rs.simple_roots]
        n = self.n
        out = []
        for i in range(n - 1):
            m = list(self.identity)
            m[i * n + i] = x
            out.append(self.canon(tuple(m)))
        return out

    def torus_gens(self) -> list[Mat]:
        return self._torus_gens_at(self.unit_gen)

    def torus_elements(self) -> list[Mat]:
        """All torus elements: closure of the torus generators."""
        gens = self.torus_gens()
        return sorted(closure([self.identity], lambda x: [self.mul(x, t) for t in gens]))

    def torus_congruence_gens(self) -> list[Mat]:
        """Generators of the depth->=1 part of the torus (R_u(H))."""
        if self.h == 1:
            return []
        return self._torus_gens_at(1 + self.p)

    def root_value(self, t: Mat, alpha: Coeffs) -> int:
        """alpha(t) read off the conjugation action on u_alpha(1)."""
        return self.u_param(self.conj(t, self.u(alpha, 1)), alpha)

    def gens(self) -> list[Mat]:
        out = self.torus_gens()
        for a in sorted(self.rs.roots):
            out.append(self.u(a, 1))
        return out

    # -- bookkeeping ---------------------------------------------------

    def order(self) -> int:
        return _reductive_order(self.type_label, self.p) * self.p ** (
            (self.h - 1) * self.dim
        )

    def torus_order(self) -> int:
        phi = (self.p - 1) * (self.mod // self.p)
        return phi**self.rs.rank

    def _is_symplectic(self, g: Mat) -> bool:
        n, mod = self.n, self.mod
        J = _SYMPLECTIC_J
        gt = tuple(g[j * n + i] for i in range(n) for j in range(n))
        m = self.kernel.mat_mul(self.kernel.mat_mul(gt, J, n, mod), g, n, mod)
        return m == tuple(v % mod for v in J)

    def describe(self) -> dict:
        return {
            "type": self.type_label,
            "isogeny": self.isogeny,
            "p": self.p,
            "h": self.h,
            "order": self.order(),
            "kernel": self.kernel.IMPLEMENTATION,
        }

    def __repr__(self) -> str:
        return f"{self.type_label}({self.isogeny}, p={self.p}, h={self.h})"


@lru_cache(maxsize=None)
def build_group(type_label: str, isogeny: str, p: int, h: int) -> FiniteParahoricGroup:
    return FiniteParahoricGroup(type_label, isogeny, p, h)


class ProductGroup:
    """Direct product of parahoric-type groups (reducible root systems).

    Elements are tuples of factor elements; used for the product-system
    double-class checks.
    """

    def __init__(self, factors: list[FiniteParahoricGroup]):
        self.factors = factors

    def identity_el(self):
        return tuple(f.identity for f in self.factors)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def embed(self, i: int, g: Mat):
        return tuple(
            g if j == i else f.identity for j, f in enumerate(self.factors)
        )

    def order(self) -> int:
        return math.prod(f.order() for f in self.factors)
