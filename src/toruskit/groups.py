"""Finite groups as multiplication tables, with subgroups and finite G-sets.

Elements are indices 0..order-1 in a canonical enumeration fixed by the
constructor (cyclic: residues; products: lexicographic pairs; cyclotomic
quotients: increasing smallest unit representatives), so every downstream
matrix is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, NamedTuple

from .errors import InternalInvariantError, UnsupportedRequestError
from .linalg import integer

# The one bound on every lru_cache in the package.  A Sha^2 pass over C2^8
# restricts to all 256 of its cyclic subgroups besides computing H^2(G), so a
# bound of 256 would evict that pass's own entries.
_CACHE_SIZE = 1024


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as its multiplication table ``table[a][b] = ab``; the order,
    identity and inverses are read off it, and equality sees the table alone."""

    table: tuple[tuple[int, ...], ...]
    label: str = field(compare=False, default="")
    order: int = field(init=False, compare=False)
    identity: int = field(init=False, compare=False)
    inverse: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        table = tuple(map(tuple, self.table))
        order = len(table)
        if order <= 0:
            raise ValueError("group order must be positive")
        if any(len(row) != order for row in table):
            raise ValueError("multiplication table has wrong shape")
        if any(min(row) < 0 or max(row) >= order for row in table):
            raise ValueError("table entry out of range")
        plain = tuple(range(order))
        identity = next((e for e, row in enumerate(table)
                         if row == plain and tuple(r[e] for r in table) == plain), None)
        if identity is None:
            raise ValueError("no identity element")
        if any(identity not in row for row in table):
            raise ValueError("missing inverse")
        inverse = tuple(row.index(identity) for row in table)
        if any(table[b][a] != identity for a, b in enumerate(inverse)):
            raise ValueError("two-sided inverse missing")
        # Light's test: the c with (ab)c = a(bc) for all a, b are closed under
        # products, so checking c in a generating set proves associativity.  The
        # raw table is used, so a rejected table leaves nothing in any cache.
        for c in _generate(lambda a, b: table[a][b], identity, range(order))[0]:
            times_c = [row[c] for row in table]
            for row in table:
                if [times_c[x] for x in row] != [row[x] for x in times_c]:
                    raise ValueError("associativity fails")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def __repr__(self):
        return f"FiniteGroup({self.label or self.order})"


def _generate(mul, identity, candidates) -> tuple[list, set]:
    """Greedy generators among ``candidates`` and the set they generate.

    Each candidate outside the span so far joins the generators, and the span
    is closed under right multiplication ``mul(x, s)`` by them.  In a finite
    group every element of the generated subgroup is a positive word in the
    generators, so the span is that subgroup.
    """
    gens: list = []
    span = {identity}
    for x in candidates:
        if x in span:
            continue
        gens.append(x)
        frontier = list(span)
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = mul(a, g)
                if b not in span:
                    span.add(b)
                    frontier.append(b)
    return gens, span


@lru_cache(maxsize=_CACHE_SIZE)
def generating_set(group: FiniteGroup) -> tuple[int, ...]:
    """Generators chosen greedily in element order, each outside the span of
    the earlier ones; at most log2 |G| of them, for any finite group."""
    return tuple(_generate(group.mul, group.identity, group.elements())[0])


class AbelianDecomposition(NamedTuple):
    """G = C_{n_1} x ... x C_{n_k} on independent generators g_i (all n_i >= 2).

    ``exponents[a]`` writes element a as the product of g_i^(e_i) with
    0 <= e_i < n_i; ``element`` inverts it.
    """

    generators: tuple[int, ...]
    orders: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]
    by_index: tuple[int, ...]  # element with exponents e at the mixed-radix index of e

    def element(self, exps: Iterable[int]) -> int:
        return self.by_index[_mixed_radix(exps, self.orders)]


def _mixed_radix(exps: Iterable[int], orders: Iterable[int]) -> int:
    idx = 0
    for e, n in zip(exps, orders):
        idx = idx * n + e % n
    return idx


@lru_cache(maxsize=_CACHE_SIZE)
def abelian_decomposition(group: FiniteGroup) -> AbelianDecomposition:
    """Independent cyclic generators of an abelian group, largest order first.

    Each step picks the first element of largest order modulo the span H of
    the generators so far, then lifts it to an element of that same order.
    Such a lift exists because H is a direct summand (an element of maximal
    order generates one), and the lift makes H + <g> a direct summand again.
    """
    table, e = group.table, group.identity
    spanning = generating_set(group)
    if any(table[a][b] != table[b][a] for a in spanning for b in spanning):
        raise UnsupportedRequestError(
            f"cohomology is computed for abelian groups only; {group!r} is not abelian")
    exps = {e: ()}
    gens, orders = [], []
    while len(exps) < group.order:
        best, best_m = e, 1
        for x in group.elements():
            m, y = 1, x
            while y not in exps:
                y = table[y][x]
                m += 1
            if m > best_m:
                best, best_m = x, m
        for h in exps:
            g = table[best][h]
            y = g
            for _ in range(best_m - 1):
                y = table[y][g]
            if y == e:
                break
        else:
            raise InternalInvariantError("no lift of maximal quotient order")
        gens.append(g)
        orders.append(best_m)
        power, grown = e, {}
        for j in range(best_m):
            for h, t in exps.items():
                grown[table[h][power]] = t + (j,)
            power = table[power][g]
        exps = grown
    by_index = [0] * group.order
    for a, t in exps.items():
        by_index[_mixed_radix(t, orders)] = a
    return AbelianDecomposition(tuple(gens), tuple(orders),
                                tuple(exps[a] for a in group.elements()), tuple(by_index))


def cyclic_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, f"C{n}")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) has index a*|G2| + b (lexicographic)."""
    n1, n2 = g1.order, g2.order
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1, b1 in itertools.product(range(n1), range(n2)):
        for a2, b2 in itertools.product(range(n1), range(n2)):
            table[a1 * n2 + b1][a2 * n2 + b2] = g1.mul(a1, a2) * n2 + g2.mul(b1, b2)
    return FiniteGroup(table, f"{g1.label or 'G'}x{g2.label or 'G'}")


def units_mod(n: int) -> tuple[int, ...]:
    if n <= 0:
        raise ValueError("modulus must be positive")
    return tuple(a for a in range(n) if gcd(a, n) == 1)


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n by trial division; {} for n < 2."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _cyclotomic_cosets(modulus: int, subgroup: Iterable[int] | None = None
                       ) -> tuple[FiniteGroup, tuple[int, ...], dict[int, int]]:
    """(Z/n)^x / H, its least coset representatives and the element of each unit.

    Units are visited in increasing order, so the first unit of a new coset
    is its least representative, and the elements come out ordered by it.
    """
    n = modulus
    units = units_mod(n)
    if subgroup is None:
        h = frozenset({1 % n})
    else:
        h = frozenset(integer(x) % n for x in subgroup)
    if not h or not h <= set(units):
        raise ValueError(f"subgroup {sorted(h)} is not a set of units mod {n}")
    if _generate(lambda a, b: a * b % n, 1 % n, sorted(h))[1] != h:
        raise ValueError(f"subgroup {sorted(h)} not closed under multiplication mod {n}")
    element_of: dict[int, int] = {}
    reps: list[int] = []
    for u in units:
        if u not in element_of:
            element_of.update((u * x % n, len(reps)) for x in h)
            reps.append(u)
    table = [[element_of[a * b % n] for b in reps] for a in reps]
    label = f"(Z/{n})^x" if len(h) == 1 else f"(Z/{n})^x/H{len(h)}"
    return FiniteGroup(table, label), tuple(reps), element_of


def cyclotomic_quotient_group(modulus: int, subgroup: Iterable[int] | None = None
                              ) -> FiniteGroup:
    """(Z/n)^x / H, elements ordered by increasing least coset representative.

    The group part of ``_cyclotomic_cosets``; an ``AbelianGaloisDatum`` takes
    the representatives and the element of each unit from the same call.
    """
    return _cyclotomic_cosets(modulus, subgroup)[0]


def make_group(spec: Mapping) -> FiniteGroup:
    """Build a group from a JSON-style descriptor.

    Supported descriptors::

        {"type": "cyclic", "n": 4}
        {"type": "product", "factors": [descriptor, ...]}
        {"type": "cyclotomic", "modulus": 8, "subgroup": [1, 3]}
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"group descriptor must be an object, got {spec!r}")
    kind = spec.get("type")
    if kind == "cyclic":
        return cyclic_group(integer(spec["n"]))
    if kind == "product":
        factors = [make_group(s) for s in spec["factors"]]
        if not factors:
            raise ValueError("product needs at least one factor")
        g = factors[0]
        for f in factors[1:]:
            g = product_group(g, f)
        return g
    if kind == "cyclotomic":
        return cyclotomic_quotient_group(integer(spec["modulus"]), spec.get("subgroup"))
    raise ValueError(f"unknown group descriptor type {kind!r}")


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        els = set(self.elements)
        if tuple(sorted(els)) != self.elements:
            raise ValueError("subgroup elements must be sorted and distinct")
        if self.parent.identity not in els:
            raise ValueError("subgroup misses the identity")
        # a finite subset closed under products is a subgroup
        if _generate(self.parent.mul, self.parent.identity, self.elements)[1] != els:
            raise ValueError("subgroup not closed under product")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def as_group(self) -> FiniteGroup:
        return _subgroup_as_group(self)

    def position(self, parent_element: int) -> int:
        return self.elements.index(parent_element)


@lru_cache(maxsize=_CACHE_SIZE)
def _subgroup_as_group(sub: Subgroup) -> FiniteGroup:
    pos = {g: i for i, g in enumerate(sub.elements)}
    table = [[pos[sub.parent.mul(a, b)] for b in sub.elements] for a in sub.elements]
    return FiniteGroup(table, f"{sub.parent.label}|H{sub.order}")


def subgroup_closure(parent: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    span = _generate(parent.mul, parent.identity, generators)[1]
    return Subgroup(parent, tuple(sorted(span)))


def trivial_subgroup(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, (parent.identity,))


def full_subgroup(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, tuple(range(parent.order)))


def cyclic_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All distinct subgroups <x>, sorted by (order, elements)."""
    seen = {}
    for x in g.elements():
        sub = subgroup_closure(g, [x])
        seen[sub.elements] = sub
    return sorted(seen.values(), key=lambda s: (s.order, s.elements))


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, by closing cyclic subgroups under joins."""
    subs = {s.elements: s for s in cyclic_subgroups(g)}
    frontier = list(subs.values())
    while frontier:
        s = frontier.pop()
        for x in g.elements():
            if x in s.elements:
                continue
            bigger = subgroup_closure(g, s.elements + (x,))
            if bigger.elements not in subs:
                subs[bigger.elements] = bigger
                frontier.append(bigger)
    return sorted(subs.values(), key=lambda s: (s.order, s.elements))


def index_two_subgroups(g: FiniteGroup) -> list[Subgroup]:
    return [s for s in all_subgroups(g) if s.index == 2]


@dataclass(frozen=True)
class FiniteGSet:
    group: FiniteGroup
    action: tuple[tuple[int, ...], ...]  # action[g][x] = g . x
    size: int = field(init=False, compare=False)  # the identity row's length

    def __post_init__(self):
        g = self.group
        ident = self.action[g.identity] if len(self.action) == g.order else None
        if ident is None or any(len(row) != len(ident) for row in self.action):
            raise ValueError("action table has wrong shape")
        object.__setattr__(self, "size", len(ident))
        if tuple(ident) != tuple(range(self.size)):
            raise ValueError("identity must act as the identity permutation")
        if any(sorted(row) != list(range(self.size)) for row in self.action):
            raise ValueError("group elements must act by permutations")
        # a.(s.x) = (a s).x for generators s gives the law for all b by
        # induction on the length of b as a word in the generators
        for s in generating_set(g):
            for a, row in enumerate(self.action):
                if [row[x] for x in self.action[s]] != list(self.action[g.mul(a, s)]):
                    raise ValueError("action is not compatible with the group law")


def coset_gset(g: FiniteGroup, h: Subgroup) -> FiniteGSet:
    """Left translation on G/H; cosets ordered by least representative."""
    coset_of = {}
    reps = []
    for x in g.elements():
        if x in coset_of:
            continue
        coset = {g.mul(x, k) for k in h.elements}
        rep = min(coset)
        reps.append(rep)
        for y in coset:
            coset_of[y] = rep
    reps.sort()
    index = {rep: i for i, rep in enumerate(reps)}
    action = tuple(tuple(index[coset_of[g.mul(a, r)]] for r in reps) for a in g.elements())
    return FiniteGSet(g, action)


def orbits(x: FiniteGSet) -> list[tuple[tuple[int, ...], Subgroup]]:
    """Orbit partition with the stabilizer of each orbit's least point."""
    g = x.group
    remaining = set(range(x.size))
    out = []
    while remaining:
        p = min(remaining)
        orbit = sorted({x.action[a][p] for a in g.elements()})
        stab = tuple(sorted(a for a in g.elements() if x.action[a][p] == p))
        out.append((tuple(orbit), Subgroup(g, stab)))
        remaining -= set(orbit)
    return out
