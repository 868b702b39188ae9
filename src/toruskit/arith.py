"""Abelian splitting fields inside cyclotomic fields, and their L-values.

A datum is a modulus n and a subgroup H of (Z/n)^x; the Galois group of the
fixed field is the quotient, Frobenius at an unramified p is the class of p,
and the irreducible characters are Dirichlet characters mod n trivial on H.
The datum reads the quotient, its coset representatives and the element of
every unit from one pass over the cosets.  Character values are carried
exactly as rational exponents of e^(2 pi i).  The lattice character is
integer-valued, so a character's multiplicity equals its average over the
Galois conjugates of the character; that average replaces each root of unity
by the mean of the primitive roots of its order, mu(e)/phi(e) (Ramanujan's
sum), and the decomposition is an exact rational sum.  Only L-values and
residues become floats.
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
from .groups import (FiniteGroup, _cyclotomic_cosets, _factorint,
                     abelian_decomposition, units_mod)
from .lattices import trace_character
from .tori import Torus


@dataclass(frozen=True)
class AbelianGaloisDatum:
    """K/Q presented as the fixed field of H <= (Z/n)^x inside Q(zeta_n)."""

    modulus: int
    subgroup: tuple[int, ...]
    group: FiniteGroup = field(init=False, compare=False)
    representatives: tuple[int, ...] = field(init=False, compare=False)
    _element_of: dict[int, int] = field(init=False, compare=False, repr=False)

    def __init__(self, modulus: int, subgroup=None):
        if int(modulus) < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "modulus", int(modulus))
        if subgroup is None:
            subgroup = (1 % self.modulus,)
        object.__setattr__(self, "subgroup", tuple(sorted({x % self.modulus for x in subgroup})))
        group, reps, element_of = _cyclotomic_cosets(self.modulus, self.subgroup)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "_element_of", element_of)

    @property
    def ramified(self) -> frozenset[int]:
        """Finite primes dividing the modulus; the infinite place is always in S."""
        return frozenset(_factorint(self.modulus))

    def element_of_unit(self, u: int) -> int:
        element = self._element_of.get(u % self.modulus)
        if element is None:
            raise ValueError(f"{u} is not a unit mod {self.modulus}")
        return element

    def __repr__(self):
        return f"AbelianGaloisDatum(n={self.modulus}, |H|={len(self.subgroup)}, |G|={self.group.order})"


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
    if _factorint(p) != {p: 1}:
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
        f, prim = _primitive_character(self)
        if a % f not in prim:
            raise ValueError(f"{a} is not a unit mod the conductor {f}")
        return prim[a % f]


def _primitive_character(chi: DirichletCharacter) -> tuple[int, dict[int, Fraction]]:
    """The conductor f and the primitive character mod f, unit -> exponent.

    Every unit mod f lifts to a unit mod n, and the character is constant on
    the units over each unit mod f, so reducing the units mod f lists it.
    """
    f = chi.conductor
    return f, {u % f: q for u, q in zip(chi.units(), chi.exponents)}


def characters(datum: AbelianGaloisDatum) -> list[DirichletCharacter]:
    """All characters of the quotient group, as Dirichlet characters mod n.

    The trivial character comes first; the rest are sorted by their exponent
    vectors, so the listing is deterministic.
    """
    return list(_characters_cached(datum))


@lru_cache(maxsize=None)
def _characters_cached(datum: AbelianGaloisDatum) -> tuple[DirichletCharacter, ...]:
    modulus, group = datum.modulus, datum.group
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

    The lattice character chi_Pi is integer-valued, so every Galois conjugate
    of chi has the multiplicity of chi; averaging the inner product over them
    gives m_chi = (1/phi(n)) * sum over units u of chi_Pi(u) * mu(e)/phi(e),
    with e the order of chi(u) (Ramanujan's sum).  The sum is an exact
    Fraction, so a non-integral or negative multiplicity, or a total other
    than the dimension, is impossible for a genuine action and raises.
    """
    datum = t.splitting
    if not isinstance(datum, AbelianGaloisDatum):
        raise UnsupportedRequestError("character decomposition needs an arithmetic datum")
    chi_pi = trace_character(t.X)
    weights = [chi_pi[datum.element_of_unit(u)] for u in units_mod(datum.modulus)]
    out: dict[DirichletCharacter, int] = {}
    d = 0
    total = 0
    for chi in characters(datum):
        weight_of_order: dict[int, int] = {}
        for w, q in zip(weights, chi.exponents):
            weight_of_order[q.denominator] = weight_of_order.get(q.denominator, 0) + w
        m = sum(w * _primitive_root_mean(e) for e, w in weight_of_order.items()) / len(weights)
        if m.denominator != 1:
            raise InternalInvariantError("character multiplicity is not an integer")
        if m < 0:
            raise InternalInvariantError("negative character multiplicity")
        m = m.numerator
        total += m
        if chi.is_trivial():
            d = m
        elif m:
            out[chi] = m
    if total != t.dim:
        raise InternalInvariantError("character multiplicities do not sum to the dimension")
    return Decomposition(d, out)


def _primitive_root_mean(e: int) -> Fraction:
    """Mean of the primitive e-th roots of unity: mu(e)/phi(e)."""
    mu, phi = 1, 1
    for p, k in _factorint(e).items():
        mu = 0 if k > 1 else -mu
        phi *= p ** (k - 1) * (p - 1)
    return Fraction(mu, phi)


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
    f, prim = _primitive_character(chi)
    terms = sorted(prim.items())  # increasing a, so the float sums keep their order
    tau_bar = sum(cmath.exp(2j * math.pi * (float(-q) + a / f)) for a, q in terms)
    total = 0j
    for a, q in terms:
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
