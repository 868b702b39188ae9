"""Independent answers for the benchmark's correctness checks.

Nothing here imports toruskit.  Groups are modelled directly as cosets of a
subgroup H of (Z/n)^x, cohomology of the tori comes from closed formulas
(Kunneth for H^*(G, Z), the norm sequence for the norm-one torus, Shapiro for
restriction of scalars), local volumes from the order of p in G, and
L-values from the digamma form of the Hurwitz expansion.  The package uses
the bar complex, Bareiss determinants and Gauss sums, so the two routes
share no code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------- groups

class CosetGroup:
    """(Z/n)^x / H, elements indexed by increasing least coset representative."""

    def __init__(self, modulus: int, subgroup=None):
        n = modulus
        self.modulus = n
        self.units = [a for a in range(n) if math.gcd(a, n) == 1]
        h = {1 % n} if subgroup is None else {x % n for x in subgroup}
        self.subgroup = frozenset(h)
        coset_of = {}
        for u in self.units:
            if u not in coset_of:
                coset = {u * x % n for x in h}
                rep = min(coset)
                for x in coset:
                    coset_of[x] = rep
        self.reps = sorted(set(coset_of.values()))
        self._index = {r: i for i, r in enumerate(self.reps)}
        self._coset_of = coset_of
        self.order = len(self.reps)

    def index_of_unit(self, u: int) -> int:
        return self._index[self._coset_of[u % self.modulus]]

    def element_order(self, i: int) -> int:
        r, x, k = self.reps[i], self.reps[i], 1
        while x not in self.subgroup:
            x = x * r % self.modulus
            k += 1
        return k

    def unit_order(self, u: int) -> int:
        return self.element_order(self.index_of_unit(u))

    def primary_factors(self) -> list[int]:
        """Orders of a decomposition of G into cyclic groups of prime-power order."""
        orders = [self.element_order(i) for i in range(self.order)]
        out = []
        for p in _prime_factors(self.order):
            counts = []  # counts[j] = log_p #{g : g^(p^j) = 1}
            j = 0
            while True:
                c = sum(1 for o in orders if (p ** j) % o == 0)
                counts.append(round(math.log(c, p)))
                if c == _p_part(self.order, p):
                    break
                j += 1
            for j in range(1, len(counts)):
                at_least_j = counts[j] - counts[j - 1]
                at_least_next = counts[j + 1] - counts[j] if j + 1 < len(counts) else 0
                out.extend([p ** j] * (at_least_j - at_least_next))
        return sorted(out)


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def invariant_factors(orders) -> tuple[int, tuple[int, ...]]:
    """(free rank, d1 | d2 | ...) of a product of cyclic groups (0 meaning Z)."""
    free = sum(1 for d in orders if d == 0)
    chains: dict[int, list[int]] = {}
    for d in orders:
        if d > 1:
            for p in _prime_factors(d):
                chains.setdefault(p, []).append(_p_part(d, p))
    width = max((len(c) for c in chains.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for chain in chains.values():
            chain.sort(reverse=True)
            if i < len(chain):
                f *= chain[i]
        factors.append(f)
    return free, tuple(sorted(factors))


def finite_order(orders) -> int:
    out = 1
    for d in orders:
        if d == 0:
            raise ValueError("infinite group")
        out *= d
    return out


# ---------------------------------------------------------------- cohomology

@lru_cache(maxsize=None)
def h_z(factors: tuple[int, ...], n: int) -> tuple[int, ...]:
    """H^n(prod C_f, Z) as cyclic orders (0 = Z), by the Kunneth formula."""
    if not factors:
        return (0,) if n == 0 else ()
    if len(factors) == 1:
        (m,) = factors
        if n == 0:
            return (0,)
        return (m,) if n % 2 == 0 and m > 1 else ()
    a, b = factors[:1], factors[1:]
    out = []
    for i in range(n + 1):
        out += [_tensor(x, y) for x in h_z(a, i) for y in h_z(b, n - i)]
    for i in range(n + 2):
        out += [_tor(x, y) for x in h_z(a, i) for y in h_z(b, n + 1 - i)]
    return tuple(d for d in out if d != 1)


def _tensor(x: int, y: int) -> int:
    if x == 0:
        return y
    if y == 0:
        return x
    return math.gcd(x, y)


def _tor(x: int, y: int) -> int:
    return 1 if x == 0 or y == 0 else math.gcd(x, y)


def wedge2(factors) -> list[int]:
    """Schur multiplier of an abelian group: prod over i < j of C_gcd(n_i, n_j)."""
    out = []
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            if g > 1:
                out.append(g)
    return out


def torus_rank(kind: str, order: int) -> int:
    if "+" in kind:
        return sum(torus_rank(part, order) for part in kind.split("+"))
    if kind.startswith("split"):
        return int(kind[5:])
    return {"res": order, "norm_one": order - 1, "so2": 1}[kind]


def torus_h(kind: str, factors: tuple[int, ...], n: int) -> list[int]:
    """H^n(G, X) for the torus kinds the benchmark builds, as cyclic orders.

    ``kind`` is ``split<d>``, ``res``, ``norm_one``, ``so2`` or a ``+``-joined
    product of those.
    """
    if "+" in kind:
        return [d for part in kind.split("+") for d in torus_h(part, factors, n)]
    if kind.startswith("split"):
        return list(h_z(factors, n)) * int(kind[5:])
    if kind == "res":  # Shapiro: H^n(G, Z[G]) = H^n(1, Z)
        return [0] if n == 0 else []
    if kind == "norm_one":  # 0 -> Z -> Z[G] -> J -> 0 gives H^n(J) = H^(n+1)(G, Z)
        if n == 0:
            return []
        if n == 1:  # dual group, isomorphic to G
            return [d for d in factors if d > 1]
        if n == 2:  # H^3(G, Z) = Schur multiplier
            return wedge2(factors)
        return list(h_z(factors, n + 1))
    if kind == "so2":
        if factors != (2,):
            raise ValueError("so2 lives over a group of order 2")
        return [2] if n % 2 else []
    raise ValueError(f"no oracle for torus kind {kind!r}")


def torus_tate_h0(kind: str, factors: tuple[int, ...]) -> list[int]:
    if "+" in kind:
        return [d for part in kind.split("+") for d in torus_tate_h0(part, factors)]
    order = finite_order(factors) if factors else 1
    if kind.startswith("split"):
        return [order] * int(kind[5:])
    if kind in ("res", "norm_one", "so2"):  # norm_one: H^0-hat(J) = H^1(G, Z) = 0
        return []
    raise ValueError(f"no oracle for torus kind {kind!r}")


def torus_sha2(kind: str, factors: tuple[int, ...]) -> list[int]:
    """Kernel of H^2(G, X) -> prod over cyclic C of H^2(C, X).

    Zero for split, res and so2 tori; everything for the norm-one torus,
    because H^2(C, J) = H^3(C, Z) = 0 for every cyclic C.
    """
    if "+" in kind:
        return [d for part in kind.split("+") for d in torus_sha2(part, factors)]
    return torus_h(kind, factors, 2) if kind == "norm_one" else []


def torus_tau(kind: str, factors: tuple[int, ...]) -> Fraction:
    return Fraction(finite_order(torus_h(kind, factors, 1)),
                    finite_order(torus_sha2(kind, factors)))


def _mod_part(orders, m: int) -> int:
    """|A / mA|."""
    return math.prod(m if d == 0 else math.gcd(d, m) for d in orders)


def _torsion_part(orders, m: int) -> int:
    """|A[m]|."""
    return math.prod(1 if d == 0 else math.gcd(d, m) for d in orders)


def presented_h_order(kind: str, factors: tuple[int, ...], m: int, q: int) -> int:
    """|H^q(G, X/mX)| from 0 -> H^q(X)/m -> H^q(X/m) -> H^(q+1)(X)[m] -> 0."""
    return (_mod_part(torus_h(kind, factors, q), m)
            * _torsion_part(torus_h(kind, factors, q + 1), m))


def presented_h(kind: str, factors: tuple[int, ...], m: int, q: int):
    """(free rank, invariant factors) of H^q(G, X/mX) for prime m and q >= 1.

    H^q(G, X/m) is killed by m, so for prime m it is elementary abelian and
    its order fixes it.
    """
    if q < 1 or _prime_factors(m) != [m]:
        raise ValueError("the structure oracle needs q >= 1 and a prime modulus")
    k = round(math.log(presented_h_order(kind, factors, m, q), m))
    return 0, (m,) * k


def splitting_counts(kind: str, factors: tuple[int, ...], rank: int, m: int):
    """(#cocycles, #classes) of crossed homomorphisms G -> X/mX."""
    h1 = presented_h_order(kind, factors, m, 1)
    h0 = presented_h_order_zero(kind, factors, m)
    return h1 * m ** rank // h0, h1


def presented_h_order_zero(kind: str, factors: tuple[int, ...], m: int) -> int:
    return (_mod_part(torus_h(kind, factors, 0), m)
            * _torsion_part(torus_h(kind, factors, 1), m))


def restricted_h(kind: str, sub_order: int, q: int) -> list[int]:
    """H^q(C, Res X) for a cyclic subgroup C of the given order.

    Restriction of Z[G] is free over Z[C], so res and norm_one restrict to
    the same formulas over C.
    """
    if "+" in kind:
        return [d for part in kind.split("+") for d in restricted_h(part, sub_order, q)]
    factors = (sub_order,) if sub_order > 1 else ()
    if kind == "so2":
        return [2] if sub_order == 2 and q % 2 else []
    return torus_h(kind, factors, q)


# ---------------------------------------------------------------- arithmetic

def primes_up_to(n: int) -> list[int]:
    flags = [True] * (n + 1)
    out = []
    for p in range(2, n + 1):
        if flags[p]:
            out.append(p)
            for k in range(p * p, n + 1, p):
                flags[k] = False
    return out


def local_volume(kind: str, group: CosetGroup, p: int) -> Fraction:
    """vol(T(Z_p)) for unramified p, from the order f of Frobenius p in G."""
    f = group.unit_order(p)
    orbit = (1 - Fraction(1, p ** f)) ** (group.order // f)
    if kind == "res":
        return orbit
    if kind == "norm_one":
        return orbit / (1 - Fraction(1, p))
    raise ValueError(f"no volume oracle for torus kind {kind!r}")


def canonical_coefficients(kind: str, group: CosetGroup, pmax: int) -> dict[int, Fraction]:
    return {p: Fraction(1) if group.modulus % p == 0 else 1 / local_volume(kind, group, p)
            for p in primes_up_to(pmax)}


def _digamma(x: float) -> float:
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    x2 = 1.0 / (x * x)
    series = x2 * (1 / 12 - x2 * (1 / 120 - x2 * (1 / 252 - x2 * (1 / 240 - x2 / 132))))
    return acc + math.log(x) - 0.5 / x - series


def _real_characters(group: CosetGroup):
    """Every character of an exponent-2 group, as a sign list over elements."""
    if any(group.element_order(i) > 2 for i in range(group.order)):
        raise ValueError("the residue oracle handles exponent-2 groups only")
    n = group.modulus
    coords = {0: 0}  # element index -> bit mask over the chosen basis
    basis = []
    for i in range(group.order):
        if i in coords:
            continue
        bit = 1 << len(basis)
        basis.append(i)
        for j, mask in list(coords.items()):
            coords[group.index_of_unit(group.reps[i] * group.reps[j] % n)] = mask | bit
    return [[-1 if bin(coords[i] & sel).count("1") % 2 else 1 for i in range(group.order)]
            for sel in range(1 << len(basis))]


def _l1_primitive(group: CosetGroup, signs) -> float:
    """L(1, chi*) for the primitive character behind chi, by the digamma sum."""
    n = group.modulus

    def chi(a):
        return signs[group.index_of_unit(a)]

    f = next(f for f in range(1, n + 1) if n % f == 0
             and all(chi(a) == 1 for a in group.units if a % f == 1 % f))
    total = 0.0
    for b in range(1, f + 1):
        if math.gcd(b, f) != 1:
            continue
        a = b
        while math.gcd(a, n) != 1:
            a += f
        total += chi(a) * _digamma(b / f)
    return -total / f


def norm_one_residue(group: CosetGroup) -> float:
    """rho of the norm-one torus: the product of L(1, chi) over chi != 1."""
    value = 1.0
    for signs in _real_characters(group):
        if any(s != 1 for s in signs):
            value *= _l1_primitive(group, signs)
    return value
