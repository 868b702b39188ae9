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
sum), and the decomposition is an exact rational sum.  det(I - Frob/p) comes
from the characteristic polynomial of Frobenius, built from the same trace
character by Newton's identities once per Galois element.  Only L-values and
residues become floats.
"""

from __future__ import annotations

import cmath
import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from ._record import Record
from .errors import (InternalInvariantError, PoleError, RamifiedPrimeError,
                     UnsupportedRequestError)
from .groups import (MODULUS_LIMIT, _cyclotomic_cosets, _factorint, _is_prime,
                     abelian_decomposition, units_mod)
from .lattices import trace_character
from .linalg import bounded, integer
from .tori import Torus


class AbelianGaloisDatum(Record):
    """K/Q presented as the fixed field of H <= (Z/n)^x inside Q(zeta_n).
    Equality sees the modulus and the subgroup; ``group`` and
    ``representatives`` are read off them."""

    _fields = ("modulus", "subgroup")

    def __init__(self, modulus: int, subgroup=None):
        modulus = bounded(modulus, 1, MODULUS_LIMIT, "modulus")
        object.__setattr__(self, "modulus", modulus)
        if subgroup is None:
            subgroup = (1 % self.modulus,)
        object.__setattr__(self, "subgroup", tuple(sorted({integer(x) % self.modulus for x in subgroup})))
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
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


def frobenius(datum: AbelianGaloisDatum, p: int) -> int:
    """Class of an unramified prime p in (Z/n)^x / H, as a group element index.

    p is read as an integer (``bool``, ``float`` and ``Fraction`` raise
    ``TypeError``) and tested by ``groups._is_prime``: trial division below
    10^6, a deterministic Miller-Rabin test from there, and
    ``UnsupportedRequestError`` from psi_13 = 3317044064679887385961981 up.
    """
    p = integer(p)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if datum.modulus % p == 0:
        raise RamifiedPrimeError(f"{p} divides the modulus {datum.modulus}")
    return datum.element_of_unit(p)


class DirichletCharacter(Record):
    """Character mod n trivial on H, stored as exact exponents of e^(2 pi i).

    ``exponents[i]`` is the exponent at ``units_mod(modulus)[i]``, a Fraction
    in [0, 1); the value at non-units is 0.  The modulus is read by
    ``integer``, and a count of exponents other than the number of units
    raises ``ValueError``; that the exponents form a character is trusted,
    not checked.  The hash is taken once, on first
    use, from each exponent's numerator and denominator: a Fraction is kept
    in lowest terms, so equal exponents give equal pairs, distinct ones
    distinct pairs, and hashing a Fraction costs several times more.
    """

    _fields = ("modulus", "exponents")

    def __init__(self, modulus: int, exponents: tuple[Fraction, ...]):
        modulus, exponents = integer(modulus), tuple(exponents)
        units = len(units_mod(modulus))
        if len(exponents) != units:
            raise ValueError(f"a character mod {modulus} takes one exponent per unit, "
                             f"{units}, got {len(exponents)}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "exponents", exponents)

    @cached_property
    def _hash(self) -> int:
        return hash((self.modulus,
                     tuple((q.numerator, q.denominator) for q in self.exponents)))

    def __hash__(self):
        return self._hash

    def units(self) -> tuple[int, ...]:
        return units_mod(self.modulus)

    def exponent(self, a: int) -> Fraction:
        i = _unit_position(self.modulus, a)
        if i is None:
            raise ValueError(f"{a} is not a unit mod {self.modulus}")
        return self.exponents[i]

    def value(self, a: int) -> complex:
        i = _unit_position(self.modulus, a)
        return 0j if i is None else cmath.exp(2j * math.pi * float(self.exponents[i]))

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

    @cached_property
    def conductor(self) -> int:
        """Least f | n such that the character factors through (Z/f)^x."""
        n = self.modulus
        for f in sorted(d for d in range(1, n + 1) if n % d == 0):
            if all(q == 0 for u, q in zip(self.units(), self.exponents) if u % f == 1 % f):
                return f
        raise InternalInvariantError("no conductor found")  # pragma: no cover

    def primitive_exponent(self, a: int) -> Fraction:
        """Exponent of the primitive character of conductor f at a (a coprime to f)."""
        f, prim = _primitive_character(self)
        if a % f not in prim:
            raise ValueError(f"{a} is not a unit mod the conductor {f}")
        return prim[a % f]


def _unit_position(n: int, a: int) -> int | None:
    """The place of a mod n in the increasing ``units_mod(n)``, None for a non-unit."""
    units, a = units_mod(n), a % n
    i = bisect_left(units, a)
    return i if i < len(units) and units[i] == a else None


def _primitive_character(chi: DirichletCharacter) -> tuple[int, dict[int, Fraction]]:
    """The conductor f and the primitive character mod f, unit -> exponent.

    Every unit mod f lifts to a unit mod n, and the character is constant on
    the units over each unit mod f, so reducing the units mod f lists it.
    """
    f = chi.conductor
    return f, {u % f: q for u, q in zip(chi.units(), chi.exponents)}


# The most exponents ``characters`` lists, |G| phi(n).  At 8.4 million, ``residue``
# of a res torus peaked at 104 MB (|G| = 64) and 257 MB (|G| = 1024).
CHARACTER_LIMIT = 10 ** 7


def characters(datum: AbelianGaloisDatum) -> list[DirichletCharacter]:
    """All characters of the quotient group, as Dirichlet characters mod n.

    The trivial character comes first; the rest are sorted by their exponent
    vectors, so the listing is deterministic.  Each character is summed once
    per group element and then spread over the units of its coset.  The
    table's |G| phi(n) entries are first read by ``bounded`` (``CHARACTER_LIMIT``).
    """
    modulus, group = datum.modulus, datum.group
    bounded(group.order * len(units_mod(modulus)), 1, CHARACTER_LIMIT,
            "character table entries", plural=True)
    dec = abelian_decomposition(group)
    # tup sends g_k to e^(2 pi i tup_k / n_k); exponents are numerators / lcm
    lcm = math.lcm(*dec.orders)
    tables = set()
    for tup in itertools.product(*(range(d) for d in dec.orders)):
        weights = [x * (lcm // d) for x, d in zip(tup, dec.orders)]
        tables.add(tuple(sum(e * w for e, w in zip(coords, weights)) % lcm
                         for coords in dec.exponents))
    if len(tables) != group.order:
        raise InternalInvariantError("character count does not match the group order")
    # Elements are numbered in the order their least units appear, so the
    # numerators per element sort as the exponents per unit, trivial first.
    unit_elements = [datum.element_of_unit(u) for u in units_mod(modulus)]
    fractions = [Fraction(a, lcm) for a in range(lcm)]
    chars = []
    for nums in sorted(tables):
        at = [fractions[a] for a in nums]
        chars.append(DirichletCharacter(modulus, tuple(at[g] for g in unit_elements)))
    return chars


class Decomposition(NamedTuple):
    """Split multiplicity d and the multiplicities of the nontrivial characters."""

    d: int
    multiplicities: dict[DirichletCharacter, int]


def decompose(t: Torus) -> Decomposition:
    """Exact decomposition of the lattice character into Dirichlet characters.

    The lattice character chi_Pi is integer-valued, so every Galois conjugate
    of chi has the multiplicity of chi; averaging the inner product over them
    gives m_chi = (1/|G|) * sum over group elements g of chi_Pi(g) * mu(e)/phi(e),
    with e the order of chi(g), the denominator of its exponent at the least
    unit of g (Ramanujan's sum).  The sum is an exact Fraction, so a
    non-integral or negative multiplicity, or a total other than the
    dimension, is impossible for a genuine action and raises.
    """
    datum = _arithmetic_datum(t, "character decomposition needs")
    chi_pi = trace_character(t.X)
    at_reps = [_unit_position(datum.modulus, r) for r in datum.representatives]
    out: dict[DirichletCharacter, int] = {}
    d = 0
    total = 0
    for chi in characters(datum):
        weight_of_order: dict[int, int] = {}
        for w, i in zip(chi_pi, at_reps):
            e = chi.exponents[i].denominator
            weight_of_order[e] = weight_of_order.get(e, 0) + w
        m = sum(w * _primitive_root_mean(e) for e, w in weight_of_order.items()) / len(chi_pi)
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


def _arithmetic_datum(t: Torus, needs: str) -> AbelianGaloisDatum:
    """The torus's splitting datum; a bare group raises ``UnsupportedRequestError``."""
    if not isinstance(t.splitting, AbelianGaloisDatum):
        raise UnsupportedRequestError(f"{needs} an arithmetic datum")
    return t.splitting


def local_artin_factor(t: Torus, p: int) -> Fraction:
    """Euler factor at s=1 of the lattice character: 1/det(I - Frob/p).

    Checks the datum, then that p is prime, then that p is unramified.
    det(p I - X(Frob)) is the characteristic polynomial of X(Frob) (built from
    the trace character by Newton's identities, once per Galois element) at p.
    """
    datum, p = _arithmetic_datum(t, "local factors need"), integer(p)
    return Fraction(p ** t.dim, _local_determinant(t, frobenius(datum, p), p))


def _local_determinant(t: Torus, frob: int, p: int) -> int:
    """det(p I - X(frob)), positive: the characteristic polynomial of X(frob)
    evaluated at p by Horner's rule."""
    det = 0
    for c in t.X.characteristic_polynomials[frob]:
        det = det * p + c
    if det <= 0:
        raise InternalInvariantError("local determinant must be positive")
    return det


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
    for chi, m in dec.multiplicities.items():  # in the order of ``characters``
        value *= dirichlet_L1(chi) ** m
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise InternalInvariantError(f"residue came out non-real: {value}")
    if value.real <= 0:
        raise InternalInvariantError("residue must be positive")
    return ResidueResult(value.real, dec.d)
