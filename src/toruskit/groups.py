"""Finite groups as multiplication tables, with subgroups and finite G-sets.

Elements are indices 0..order-1 in a canonical enumeration fixed by the
constructor (cyclic: residues; products: lexicographic pairs; cyclotomic
quotients: increasing smallest unit representatives), so every downstream
matrix is reproducible byte for byte.  A group keeps the generating set that
its constructor chose for the associativity test (``generating_set``), and
every check that reads generators reads that one.  The cyclotomic quotients
behind ``cyclotomic_quotient_group`` and ``arith.AbelianGaloisDatum`` are
``lru_cache``d on (n, H) as ``bounded`` and ``integer`` read them, so one
description gives one shared ``FiniteGroup``, built and validated once.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import gcd, isqrt, prod
from operator import contains, getitem, itemgetter, methodcaller
from typing import Iterable, Mapping, NamedTuple

from ._record import Record
from .errors import InternalInvariantError, UnsupportedRequestError
from .linalg import bounded, integer, integers

# The one bound on every lru_cache in the package.  Restriction of one lattice
# to each of the 256 cyclic subgroups of C2^8, as the tests' Sha^2 oracle
# takes it, keeps 256 entries each in restriction_map, _chain_map and
# Subgroup.as_group, so a bound of 256 would leave no room for a second
# lattice over the same group.  The cyclotomic quotients share this bound:
# up to 1024 quotients (Z/n)^x/H are kept, each one shared by every datum,
# torus and cache entry over it, so a cache keyed on it compares the
# identical object instead of a rebuilt |G|^2 table.
_CACHE_SIZE = 1024

# A group is a |G| x |G| table (|G| = 2052: 0.8 s, 96 MB; 8208: 24.6 s, 1.07 GB).
# Orders past ORDER_LIMIT, and cyclotomic moduli past MODULUS_LIMIT (units_mod:
# 0.21 s at 10^6), raise UnsupportedRequestError before anything that size is built;
# so do lattice ranks past ORDER_LIMIT, the rank of the largest regular lattice.
ORDER_LIMIT = 2048
MODULUS_LIMIT = 10 ** 6


class FiniteGroup(Record):
    """A finite group as its multiplication table ``table[a][b] = ab``, each entry
    read by ``integer``; the order, identity and inverses are read off it, and
    equality sees the table alone.
    The table is hashed once, on first use: every ``lru_cache`` keyed on a
    group, a subgroup or a lattice hashes the group again.  A cyclotomic
    quotient (Z/n)^x/H is shared: the same (n, H) gives the identical object,
    so a cache lookup on it compares identity, not |G|^2 entries.  Any other
    equal group, a caller's own table included, is compared in full."""

    def __init__(self, table: Iterable[Iterable[int]], label: str = ""):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "label", label)
        self.__post_init__()

    def __post_init__(self):  # validation, a method of its own so that it can be timed alone
        table = tuple(map(integers, self.table))
        order = len(table)
        if order <= 0:
            raise ValueError("group order must be positive")
        if set(map(len, table)) != {order}:
            raise ValueError("multiplication table has wrong shape")
        if min(map(min, table)) < 0 or max(map(max, table)) >= order:
            raise ValueError("table entry out of range")
        plain, columns = tuple(range(order)), tuple(zip(*table))  # columns[b][a] = ab
        identity = next((e for e, row in enumerate(table)
                         if row == plain and columns[e] == plain), None)
        if identity is None:
            raise ValueError("no identity element")
        if not all(map(contains, table, itertools.repeat(identity))):
            raise ValueError("missing inverse")
        inverse = tuple(map(methodcaller("index", identity), table))
        if set(map(getitem, columns, inverse)) != {identity}:  # b a over a, b = a^-1
            raise ValueError("two-sided inverse missing")
        # Light's test: the c with (ab)c = a(bc) for all a, b are closed under
        # products, so checking c in a generating set proves associativity.  The
        # raw table is used, so a rejected table leaves nothing in any cache.
        spanning = tuple(_generate(lambda a, b: table[a][b], identity, range(order))[0])
        products = tuple(map(itemgetter, *table))  # products[b](v) = (v[ab] over a)
        for c in spanning:  # (ab)c over a against a(bc) = column bc, for every b
            times_c = columns[c]  # (ac over a)
            if tuple(map(methodcaller("__call__", times_c), products)) \
                    != itemgetter(*times_c)(columns):
                raise ValueError("associativity fails")
        for name, value in (("table", table), ("order", order), ("identity", identity),
                            ("inverse", inverse), ("_spanning_set", spanning)):
            object.__setattr__(self, name, value)

    @cached_property
    def _hash(self) -> int:
        return hash(self.table)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self.table == other.table
        return NotImplemented

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


def generating_set(group: FiniteGroup) -> tuple[int, ...]:
    """The group's own generating set, chosen by its constructor greedily in
    element order, each outside the span of the earlier ones: at most log2 |G|."""
    return group._spanning_set


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
    n = bounded(n, 1, ORDER_LIMIT, "group order")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, f"C{n}")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) has index a*|G2| + b (lexicographic)."""
    n1, n2 = g1.order, g2.order
    bounded(n1 * n2, 1, ORDER_LIMIT, "group order")
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1, b1 in itertools.product(range(n1), range(n2)):
        for a2, b2 in itertools.product(range(n1), range(n2)):
            table[a1 * n2 + b1][a2 * n2 + b2] = g1.mul(a1, a2) * n2 + g2.mul(b1, b2)
    return FiniteGroup(table, f"{g1.label or 'G'}x{g2.label or 'G'}")


@lru_cache(maxsize=_CACHE_SIZE, typed=True)  # typed: True is no key for 1
def units_mod(n: int) -> tuple[int, ...]:
    n = bounded(n, 1, MODULUS_LIMIT, "modulus")
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


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n, increasing; [] for n < 2.  The sieve holds the odd
    numbers only, and an odd prime p strikes every p-th slot from p^2 on."""
    if n < 2:
        return []
    sieve = bytearray([1]) * ((n + 1) // 2)  # slot i stands for 2i + 1
    sieve[0] = 0
    for p in range(3, isqrt(n) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2::p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return [2, *itertools.compress(range(1, n + 1, 2), sieve)]


# Strong probable-prime bases: the first thirteen primes decide primality of
# every n below psi_13 (Sorenson and Webster, Math. Comp. 86, 2017).  Twelve
# are not enough: psi_12 = 318665857834031151167461 passes bases 2 ... 37.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981  # psi_13
_PRIMES_BELOW_1000 = frozenset(primes_up_to(999))  # the sieve of _is_prime below 10^6
_PRIMORIAL_128 = prod(primes_up_to(127))
_PRIMORIAL_1000 = prod(_PRIMES_BELOW_1000)


def _is_prime(n: int) -> bool:
    """Whether n is prime.

    Below 1000 by lookup in a sieve made at import; below 10^6 by one gcd
    with the product of the primes below 128 if n < 128^2 = 16384, else below
    1000, since a composite n has a prime factor <= sqrt(n).  From 10^6 by the
    strong probable-prime test to the bases ``_MILLER_RABIN_BASES``, which is
    exact below psi_13; from psi_13 up it raises ``UnsupportedRequestError``."""
    if n < 1000:
        return n in _PRIMES_BELOW_1000
    if n < 10 ** 6:
        return gcd(n, _PRIMORIAL_128 if n < 16384 else _PRIMORIAL_1000) == 1
    if n >= _MILLER_RABIN_EXACT_BELOW:
        raise UnsupportedRequestError(
            f"primality is decided below {_MILLER_RABIN_EXACT_BELOW} only")
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


def _coset_key(modulus: int, subgroup: Iterable[int] | None) -> tuple[int, tuple[int, ...]]:
    """The modulus read by ``bounded`` and H as its sorted residues mod n, each
    read by ``integer`` (None is the trivial subgroup): the key of
    ``_cyclotomic_cosets``, so ``4.0`` or ``True`` never meets a cached 4 or 1."""
    n = bounded(modulus, 1, MODULUS_LIMIT, "modulus")
    if subgroup is None:
        return n, (1 % n,)
    return n, tuple(sorted({integer(x) % n for x in subgroup}))


@lru_cache(maxsize=_CACHE_SIZE)
def _cyclotomic_cosets(n: int, subgroup: tuple[int, ...]
                       ) -> tuple[FiniteGroup, tuple[int, ...]]:
    """(Z/n)^x / H and its least coset representatives, for a key made by
    ``_coset_key``.  The element of each unit is not kept: a map of phi(n)
    units per cached quotient would outlive every datum over it.

    Units are visited in increasing order, so the first unit of a new coset
    is its least representative, and the elements come out ordered by it.
    """
    units = units_mod(n)
    h = frozenset(subgroup)
    if not h or not h <= set(units):
        raise ValueError(f"subgroup {sorted(h)} is not a set of units mod {n}")
    if _generate(lambda a, b: a * b % n, 1 % n, subgroup)[1] != h:
        raise ValueError(f"subgroup {sorted(h)} not closed under multiplication mod {n}")
    bounded(len(units) // len(h), 1, ORDER_LIMIT, "group order")
    element_of: dict[int, int] = {}
    reps: list[int] = []
    for u in units:
        if u not in element_of:
            element_of.update((u * x % n, len(reps)) for x in h)
            reps.append(u)
    table = [[element_of[a * b % n] for b in reps] for a in reps]
    label = f"(Z/{n})^x" if len(h) == 1 else f"(Z/{n})^x/H{len(h)}"
    return FiniteGroup(table, label), tuple(reps)


def cyclotomic_quotient_group(modulus: int, subgroup: Iterable[int] | None = None
                              ) -> FiniteGroup:
    """(Z/n)^x / H, elements ordered by increasing least coset representative.

    The group part of ``_cyclotomic_cosets``; an ``AbelianGaloisDatum`` takes
    the representatives from the same cached call, so the datum and this
    function share one group.
    """
    return _cyclotomic_cosets(*_coset_key(modulus, subgroup))[0]


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
        return cyclic_group(spec["n"])
    if kind == "product":
        factors = [make_group(s) for s in spec["factors"]]
        if not factors:
            raise ValueError("product needs at least one factor")
        g = factors[0]
        for f in factors[1:]:
            g = product_group(g, f)
        return g
    if kind == "cyclotomic":
        return cyclotomic_quotient_group(spec["modulus"], spec.get("subgroup"))
    raise ValueError(f"unknown group descriptor type {kind!r}")


class Subgroup(Record):
    _fields = ("parent", "elements")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]):
        elements = _element_indices(parent, elements)
        els = set(elements)
        if tuple(sorted(els)) != elements:
            raise ValueError("subgroup elements must be sorted and distinct")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "elements", elements)
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


def _element_indices(parent: FiniteGroup, xs: Iterable[int]) -> tuple[int, ...]:
    """``xs`` read as integers (``integer``) that index elements of ``parent``."""
    xs = integers(xs)
    bad = next((x for x in xs if not 0 <= x < parent.order), None)
    if bad is not None:
        raise ValueError(f"no group element {bad} in a group of order {parent.order}")
    return xs


def subgroup_closure(parent: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    span = _generate(parent.mul, parent.identity, _element_indices(parent, generators))[1]
    return Subgroup(parent, tuple(sorted(span)))


def trivial_subgroup(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, (parent.identity,))


def full_subgroup(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, tuple(range(parent.order)))


def cyclic_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All distinct subgroups <x>, sorted by (order, elements).

    Each <x> is read off x's powers in the table once; its other generators
    x^j, j prime to ord(x), span the same subgroup and are skipped.
    """
    seen: set[int] = set()
    spans = []
    for x in g.elements():
        if x in seen:
            continue
        powers = [x]
        while powers[-1] != g.identity:
            powers.append(g.table[powers[-1]][x])
        seen.update(y for j, y in enumerate(powers, 1) if gcd(j, len(powers)) == 1)
        spans.append(tuple(sorted(powers)))
    return [Subgroup(g, s) for s in sorted(spans, key=lambda s: (len(s), s))]


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


class FiniteGSet(Record):
    _fields = ("group", "action")  # action[g][x] = g . x

    def __init__(self, group: FiniteGroup, action: Iterable[Iterable[int]]):
        # a copy, each entry read by ``integer``: the caller's table may change
        action = tuple(map(integers, action))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "action", action)
        g = self.group
        ident = self.action[g.identity] if len(self.action) == g.order else None
        if ident is None or any(len(row) != len(ident) for row in self.action):
            raise ValueError("action table has wrong shape")
        object.__setattr__(self, "size", len(ident))  # the identity row's length, not compared
        if ident != tuple(range(self.size)):
            raise ValueError("identity must act as the identity permutation")
        if any(sorted(row) != list(range(self.size)) for row in self.action):
            raise ValueError("group elements must act by permutations")
        # a.(s.x) = (a s).x for generators s gives the law for all b by
        # induction on the length of b as a word in the generators
        for s in generating_set(g):
            for a, row in enumerate(self.action):
                if tuple(row[x] for x in self.action[s]) != self.action[g.mul(a, s)]:
                    raise ValueError("action is not compatible with the group law")

    def __repr__(self):
        return f"FiniteGSet(group={self.group!r}, action={self.action!r}, size={self.size!r})"


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
