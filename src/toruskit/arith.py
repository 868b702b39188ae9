"""Abelian splitting fields inside cyclotomic fields, and their L-values.

A datum is a modulus n and a subgroup H of (Z/n)^x; the Galois group of the
fixed field is the quotient, Frobenius at an unramified p is the class of p,
and the irreducible characters are Dirichlet characters mod n trivial on H.
Root-of-unity values are carried exactly as rational exponents of e^(2 pi i),
so orthogonality and character decompositions are integer-exact; only final
L-values and residues become floats.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import linalg
from .errors import (InternalInvariantError, PoleError, RamifiedPrimeError,
                     UnsupportedRequestError)
from .groups import (FiniteGroup, abelian_decomposition,
                     cyclotomic_quotient_group, units_mod)
from .lattices import trace_character
from .tori import Torus

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AbelianGaloisDatum:
    """K/Q presented as the fixed field of H <= (Z/n)^x inside Q(zeta_n)."""

    modulus: int
    subgroup: tuple[int, ...]
    group: FiniteGroup = field(init=False, compare=False)
    representatives: tuple[int, ...] = field(init=False, compare=False)

    def __init__(self, modulus: int, subgroup=None):
        if int(modulus) < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "modulus", int(modulus))
        if subgroup is None:
            subgroup = (1 % self.modulus,)
        object.__setattr__(self, "subgroup", tuple(sorted({x % self.modulus for x in subgroup})))
        group = cyclotomic_quotient_group(self.modulus, self.subgroup)
        object.__setattr__(self, "group", group)
        units = units_mod(self.modulus)
        coset_rep = {}
        for u in units:
            coset = {u * h % self.modulus for h in self.subgroup}
            coset_rep[u] = min(coset)
        reps = tuple(sorted(set(coset_rep.values())))
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "_coset_rep", coset_rep)

    @property
    def ramified(self) -> frozenset[int]:
        """Finite primes dividing the modulus; the infinite place is always in S."""
        return frozenset(p for p in range(2, self.modulus + 1)
                         if self.modulus % p == 0 and _is_prime(p))

    def element_of_unit(self, u: int) -> int:
        u %= self.modulus
        if math.gcd(u, self.modulus) != 1:
            raise ValueError(f"{u} is not a unit mod {self.modulus}")
        return self.representatives.index(self._coset_rep[u])

    def __repr__(self):
        return f"AbelianGaloisDatum(n={self.modulus}, |H|={len(self.subgroup)}, |G|={self.group.order})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def frobenius(datum: AbelianGaloisDatum, p: int) -> int:
    """Class of an unramified prime p in (Z/n)^x / H, as a group element index."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if datum.modulus % p == 0:
        raise RamifiedPrimeError(f"{p} divides the modulus {datum.modulus}")
    return datum.element_of_unit(p)


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod n trivial on H, stored as exact exponents of e^(2 pi i).

    ``exponents[i]`` is the exponent at ``units_mod(modulus)[i]``, a Fraction
    in [0, 1); the value at non-units is 0.
    """

    modulus: int
    exponents: tuple[Fraction, ...]

    def units(self) -> tuple[int, ...]:
        return units_mod(self.modulus)

    def exponent(self, a: int) -> Fraction:
        a %= self.modulus
        units = self.units()
        if math.gcd(a, self.modulus) != 1:
            raise ValueError(f"{a} is not a unit mod {self.modulus}")
        return self.exponents[units.index(a)]

    def value(self, a: int) -> complex:
        a %= self.modulus
        if math.gcd(a, self.modulus) != 1:
            return 0j
        return cmath.exp(2j * math.pi * float(self.exponent(a)))

    def is_trivial(self) -> bool:
        return all(q == 0 for q in self.exponents)

    def is_odd(self) -> bool:
        if self.modulus <= 2:
            return False
        return self.exponent(self.modulus - 1) != 0

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.modulus != other.modulus:
            raise ValueError("character product needs a common modulus")
        exps = tuple((a + b) % 1 for a, b in zip(self.exponents, other.exponents))
        return DirichletCharacter(self.modulus, exps)

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, tuple((-q) % 1 for q in self.exponents))

    @property
    def conductor(self) -> int:
        """Least f | n such that the character factors through (Z/f)^x."""
        n = self.modulus
        units = self.units()
        for f in sorted(d for d in range(1, n + 1) if n % d == 0):
            if all(self.exponents[i] == 0 for i, u in enumerate(units)
                   if u % f == 1 % f):
                return f
        raise InternalInvariantError("no conductor found")  # pragma: no cover

    def primitive_exponent(self, a: int) -> Fraction:
        """Exponent of the primitive character of conductor f at a (a coprime to f)."""
        f = self.conductor
        a %= f
        if math.gcd(a, f) != 1:
            raise ValueError(f"{a} is not a unit mod the conductor {f}")
        u = a if a else f  # a == 0 only when f == 1
        # some u = a + k f is a unit mod n (CRT); the cycle length mod n is n/f
        for _ in range(self.modulus // f + 1):
            if math.gcd(u, self.modulus) == 1:
                return self.exponent(u)
            u += f
        raise InternalInvariantError("no unit lift found in the progression")


def characters(datum: AbelianGaloisDatum) -> list[DirichletCharacter]:
    """All characters of the quotient group, as Dirichlet characters mod n.

    The trivial character comes first; the rest are sorted by their exponent
    vectors, so the listing is deterministic.
    """
    return list(_characters_cached(datum.modulus, datum.subgroup))


@lru_cache(maxsize=None)
def _characters_cached(modulus: int, subgroup: tuple[int, ...]) -> tuple[DirichletCharacter, ...]:
    datum = AbelianGaloisDatum(modulus, subgroup)
    group = datum.group
    dec = abelian_decomposition(group)
    unit_coords = [dec.exponents[datum.element_of_unit(u)] for u in units_mod(modulus)]
    chars = []
    # the character with exponents tup sends g_k to e^(2 pi i tup_k / n_k)
    for tup in itertools.product(*(range(d) for d in dec.orders)):
        exps = tuple(sum((Fraction(e * x, d) for e, x, d in zip(coords, tup, dec.orders)),
                         Fraction(0)) % 1 for coords in unit_coords)
        chars.append(DirichletCharacter(modulus, exps))
    if len({c.exponents for c in chars}) != group.order:
        raise InternalInvariantError("character count does not match the group order")
    trivial = [c for c in chars if c.is_trivial()]
    rest = sorted((c for c in chars if not c.is_trivial()), key=lambda c: c.exponents)
    return tuple(trivial + rest)


class Decomposition(NamedTuple):
    """Split multiplicity d and the multiplicities of the nontrivial characters."""

    d: int
    multiplicities: dict[DirichletCharacter, int]


def decompose(t: Torus) -> Decomposition:
    """Exact decomposition of the lattice character into Dirichlet characters.

    Multiplicities come from the orthogonality inner product, evaluated in
    the cyclotomic integers and reduced mod the cyclotomic polynomial, so a
    non-integer result is impossible for a genuine action and raises.
    """
    datum = t.splitting
    if not isinstance(datum, AbelianGaloisDatum):
        raise UnsupportedRequestError("character decomposition needs an arithmetic datum")
    chi_pi = trace_character(t.X)
    group = datum.group
    out: dict[DirichletCharacter, int] = {}
    d = 0
    total = 0
    for chi in characters(datum):
        exps = [(-chi.exponent(datum.representatives[g])) % 1 for g in group.elements()]
        m = _exact_average(chi_pi, exps, group.order)
        if m < 0:
            raise InternalInvariantError("negative character multiplicity")
        total += m
        if chi.is_trivial():
            d = m
        elif m:
            out[chi] = m
    if total != t.dim:
        raise InternalInvariantError("character multiplicities do not sum to the dimension")
    return Decomposition(d, out)


def _exact_average(weights, exponents: list[Fraction], order: int) -> int:
    """(1/order) * sum of weights[g] * e^(2 pi i exponents[g]), exactly.

    The sum is formed in Z[x]/(x^L - 1) and reduced mod the L-th cyclotomic
    polynomial; the result must be a rational integer multiple of ``order``.
    """
    lcm = 1
    for q in exponents:
        lcm = lcm * q.denominator // math.gcd(lcm, q.denominator)
    poly = [0] * lcm
    for w, q in zip(weights, exponents):
        poly[int(q * lcm) % lcm] += w
    rem = _poly_mod(poly, _cyclotomic_poly(lcm))
    if any(c != 0 for c in rem[1:]):
        raise InternalInvariantError("character average is not rational")
    value = rem[0] if rem else 0
    if value % order:
        raise InternalInvariantError("character average is not an integer")
    return value // order


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, _cyclotomic_poly(d))
    return tuple(poly)


def _poly_divide_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[k] = q
        for i, dc in enumerate(den):
            num[k + i] -= q * dc
    assert all(c == 0 for c in num)
    return out


def _poly_mod(num, den):
    num = list(num)
    dn = len(den) - 1
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            num[k] = 0
            for i in range(dn):
                num[k - dn + i] -= c * den[i]
    return num[:dn]


def local_artin_factor(t: Torus, p: int) -> Fraction:
    """Euler factor at s=1 of the lattice character: 1/det(I - Frob/p)."""
    datum = t.splitting
    if not isinstance(datum, AbelianGaloisDatum):
        raise UnsupportedRequestError("local factors need an arithmetic datum")
    frob = frobenius(datum, p)
    r = t.dim
    denom = linalg.det(p * linalg.eye(r) - t.X.action[frob])
    if denom <= 0:
        raise InternalInvariantError("local determinant must be positive")
    return Fraction(p ** r, denom)


def dirichlet_L1(chi: DirichletCharacter) -> complex:
    """L(1, chi) for a nontrivial character, via the primitive closed form.

    Reduction to the conductor f, then the finite Gauss-sum formula
    L(1, chi) = -(1/tau(conj chi)) * sum over a of conj(chi)(a) Log(1 - zeta_f^a).
    The value is complex in general; real characters land on the real axis.
    """
    if chi.is_trivial():
        raise PoleError("L(s, trivial character) has a pole at s = 1")
    f = chi.conductor
    prim = {}
    for a in range(1, f):
        if math.gcd(a, f) == 1:
            prim[a] = chi.primitive_exponent(a)
    tau_bar = sum(cmath.exp(2j * math.pi * (float(-q) + a / f)) for a, q in prim.items())
    total = 0j
    for a, q in prim.items():
        total += cmath.exp(-2j * math.pi * float(q)) * cmath.log(1 - cmath.exp(2j * math.pi * a / f))
    return -total / tau_bar


class ResidueResult(NamedTuple):
    rho: float
    d: int


def residue(t: Torus) -> ResidueResult:
    """rho_T: the product of L(1, chi)^multiplicity over nontrivial characters.

    Equals the limit of (s-1)^d L(s, chi_Pi) at s = 1, with d the split rank.
    """
    dec = decompose(t)
    value = complex(1.0)
    for chi, m in sorted(dec.multiplicities.items(), key=lambda kv: kv[0].exponents):
        value *= dirichlet_L1(chi) ** m
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise InternalInvariantError(f"residue came out non-real: {value}")
    if value.real <= 0:
        raise InternalInvariantError("residue must be positive")
    return ResidueResult(value.real, dec.d)
