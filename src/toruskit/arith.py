"""Abelian splitting fields inside cyclotomic fields, and their L-values.

A datum is a modulus n and a subgroup H of (Z/n)^x; the Galois group of the
fixed field is the quotient, Frobenius at an unramified p is the class of p,
and the irreducible characters are Dirichlet characters mod n trivial on H.
The datum reads the quotient, its coset representatives and the element of
every unit from one pass over the cosets.  A character holds one exact
rational exponent of e^(2 pi i) per group element and is read at a unit
through that map.  The lattice character is integer-valued, so a
character's multiplicity equals its average over the
Galois conjugates of the character; that average replaces each root of unity
by the mean of the primitive roots of its order, mu(e)/phi(e) (Ramanujan's
sum), and the decomposition is an exact rational sum.  The same trace
character gives, once per Galois element g, the exponents c_e of
det(x I - X(g)) = prod (x^e - 1)^(c_e), so det(p I - X(Frob_p)) costs a few
integer powers and one exact division; it is +-1 mod p, so each local factor
is built in lowest terms without a gcd.  Only L-values and residues become floats.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from ._record import Record
from .errors import (InternalInvariantError, PoleError, RamifiedPrimeError,
                     UnsupportedRequestError)
from .groups import (_coset_key, _cyclotomic_cosets, _factorint, _is_prime,
                     abelian_decomposition, generating_set, primes_up_to, units_mod)
from .lattices import trace_character
from .linalg import bounded, integer
from .tori import Torus


class AbelianGaloisDatum(Record):
    """K/Q presented as the fixed field of H <= (Z/n)^x inside Q(zeta_n).
    Equality sees the modulus and the subgroup; ``group`` and
    ``representatives`` are read off them by one cached ``_cyclotomic_cosets``
    call, so every datum with the same modulus and subgroup shares them.  The
    element of each unit is the datum's own map, built from the cosets r*H."""

    _fields = ("modulus", "subgroup")

    def __init__(self, modulus: int, subgroup=None):
        modulus, subgroup = _coset_key(modulus, subgroup)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "subgroup", subgroup)
        group, reps = _cyclotomic_cosets(modulus, subgroup)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "_element_of", {
            r * x % modulus: g for g, r in enumerate(reps) for x in subgroup})

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


def frobenius(datum: AbelianGaloisDatum, p: int) -> int:
    """Class of an unramified prime p in (Z/n)^x / H, as a group element index.

    p is read as an integer (``bool``, ``float`` and ``Fraction`` raise
    ``TypeError``) and tested by ``groups._is_prime``: one gcd below 10^6, a
    deterministic Miller-Rabin test from there, and
    ``UnsupportedRequestError`` from psi_13 = 3317044064679887385961981 up.
    """
    p = integer(p)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if datum.modulus % p == 0:
        raise RamifiedPrimeError(f"{p} divides the modulus {datum.modulus}")
    return datum.element_of_unit(p)


class DirichletCharacter(Record):
    """Character of a datum's Galois group as exact exponents of e^(2 pi i).

    ``exponents[g]`` is the exponent at group element g, a Fraction in [0, 1),
    taken at every unit of g's coset; the value at non-units is 0.  A datum
    other than an ``AbelianGaloisDatum`` raises ``TypeError``, a count of
    exponents other than |G| ``ValueError``; that the exponents form a
    character is trusted, not checked.  The hash reads the numerator and
    denominator of the exponents at the group's ``generating_set`` only (at
    most log2 |G| elements, kept by the group), which fix the character: a
    Fraction is kept in lowest terms, so equal exponents give equal pairs,
    and hashing one costs several times more.
    """

    _fields = ("datum", "exponents")

    def __init__(self, datum: AbelianGaloisDatum, exponents: tuple[Fraction, ...]):
        if not isinstance(datum, AbelianGaloisDatum):
            raise TypeError(f"a character needs an AbelianGaloisDatum, got {type(datum).__name__}")
        exponents, order = tuple(exponents), datum.group.order
        if len(exponents) != order:
            raise ValueError(f"a character of {datum!r} takes one exponent per group element, "
                             f"{order}, got {len(exponents)}")
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "exponents", exponents)

    def __hash__(self):
        at = self.exponents
        return hash((self.modulus, tuple((at[g].numerator, at[g].denominator)
                                         for g in generating_set(self.datum.group))))

    @property
    def modulus(self) -> int:
        return self.datum.modulus

    def exponent(self, a: int) -> Fraction:
        return self.exponents[self.datum.element_of_unit(a)]

    def value(self, a: int) -> complex:
        g = self.datum._element_of.get(a % self.modulus)
        return 0j if g is None else cmath.exp(2j * math.pi * float(self.exponents[g]))

    def is_trivial(self) -> bool:
        return all(q == 0 for q in self.exponents)

    def is_odd(self) -> bool:
        return self.modulus > 2 and self.exponent(-1) != 0

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.datum != other.datum:
            raise ValueError("character product needs a common datum")
        exps = tuple((a + b) % 1 for a, b in zip(self.exponents, other.exponents))
        return DirichletCharacter(self.datum, exps)

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.datum, tuple((-q) % 1 for q in self.exponents))

    @cached_property
    def conductor(self) -> int:
        """Least f | n such that the character is trivial on the units = 1 mod f.

        Those f are closed under gcd, so f = prod p^a over p^v || n: a is
        lowered from v while the character is trivial on the units = 1 mod
        p^(a-1) of (Z/p^v)^x, each lifted to 1 mod n / p^v."""
        n, at, element_of = self.modulus, self.exponents, self.datum._element_of
        f = 1
        for p, v in _factorint(n).items():
            q = p ** v
            e, a = n // q * pow(n // q, -1, q), v  # e = 1 mod q, 0 mod n / q
            while a and all(at[g] == 0 for g in map(element_of.get, (
                    (1 + (x - 1) * e) % n for x in range(1, q, p ** (a - 1)))) if g is not None):
                a -= 1
            f *= p ** a
        return f

    def primitive_exponent(self, a: int) -> Fraction:
        """Exponent of the primitive character of conductor f at a (a coprime to f),
        read at the least unit mod n that is a mod f."""
        f, element_of = self.conductor, self.datum._element_of
        for u in range(a % f, self.modulus, f):
            if u in element_of:
                return self.exponents[element_of[u]]
        raise ValueError(f"{a} is not a unit mod the conductor {f}")


# The most |G| phi(n) ``characters`` lists for: over all the characters, it bounds
# the L-value sums (phi(f) <= phi(n) terms each) and, up to the factor 2 n / phi(n),
# the conductor scans (fewer than 2 p^v residues for each p^v || n).  At 8.4 million,
# ``residue`` of a res torus took 0.06 s, peak 35 MB (|G| = 64), and 1.5 s, 201 MB
# (|G| = 1024).
CHARACTER_LIMIT = 10 ** 7


def characters(datum: AbelianGaloisDatum) -> list[DirichletCharacter]:
    """All characters of the quotient group, one exponent per group element.

    The trivial character comes first; the rest are sorted by their exponent
    vectors, so the listing is deterministic.  Each character is summed once
    per group element on ``abelian_decomposition``'s generators.  |G| phi(n)
    is first read by ``bounded`` (``CHARACTER_LIMIT``).
    """
    group = datum.group
    bounded(group.order * len(units_mod(datum.modulus)), 1, CHARACTER_LIMIT,
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
    fractions = [Fraction(a, lcm) for a in range(lcm)]
    return [DirichletCharacter(datum, tuple(fractions[a] for a in nums))
            for nums in sorted(tables)]


class Decomposition(NamedTuple):
    """Split multiplicity d and the multiplicities of the nontrivial characters."""

    d: int
    multiplicities: dict[DirichletCharacter, int]


def decompose(t: Torus) -> Decomposition:
    """Exact decomposition of the lattice character into Dirichlet characters.

    The lattice character chi_Pi is integer-valued, so every Galois conjugate
    of chi has the multiplicity of chi; averaging the inner product over them
    gives m_chi = (1/|G|) * sum over group elements g of chi_Pi(g) * mu(e)/phi(e),
    with e the order of chi(g), the denominator of its exponent at g
    (Ramanujan's sum).  The sum is an exact Fraction, so a
    non-integral or negative multiplicity, or a total other than the
    dimension, is impossible for a genuine action and raises.
    """
    datum = _arithmetic_datum(t, "character decomposition needs")
    chi_pi = trace_character(t.X)
    out: dict[DirichletCharacter, int] = {}
    d = 0
    total = 0
    for chi in characters(datum):
        weight_of_order: dict[int, int] = {}
        for w, q in zip(chi_pi, chi.exponents):
            e = q.denominator
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
    det(p I - X(Frob)) is read off the cycle exponents of Frobenius, which the
    trace character gives once per Galois element (``_local_determinant``).
    It is = det(-X(Frob)) = +-1 mod p, so p^dim / det is in lowest terms and
    is built without a gcd (``_coprime_fraction``).
    """
    datum, p = _arithmetic_datum(t, "local factors need"), integer(p)
    return _coprime_fraction(p ** t.dim, _local_determinant(t, frobenius(datum, p), p))


def _local_determinant(t: Torus, frob: int, p: int) -> int:
    """det(p I - X(frob)) = prod (p^e - 1)^(c_e) over ``GLattice._cycle_exponents``,
    positive and prime to p: one exact division of the factors with c_e > 0 by
    the rest.  X(frob) lies in GL_n(Z), so det(p I - X(frob)) = det(-X(frob))
    = +-1 mod p; an inexact division, a determinant <= 0 or one divisible by p
    raises ``InternalInvariantError``.  The last check costs a tenth of the gcd
    it lets every local factor skip."""
    num = den = 1
    for e, c in t.X._cycle_exponents[frob]:
        if c > 0:
            num *= (p ** e - 1) ** c
        else:
            den *= (p ** e - 1) ** -c
    det, rest = divmod(num, den)
    if rest:
        raise InternalInvariantError("local determinant is not an exact quotient")
    if det <= 0:
        raise InternalInvariantError("local determinant must be positive")
    if det % p == 0:
        raise InternalInvariantError("local determinant must be prime to p")
    return det


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) for a pair the caller has proved coprime,
    with denominator > 0: the two slots are set as CPython 3.12's
    ``Fraction._from_coprime_ints`` sets them, and no gcd is taken."""
    x = object.__new__(Fraction)
    x._numerator, x._denominator = numerator, denominator
    return x


def dirichlet_L1(chi: DirichletCharacter) -> complex:
    """L(1, chi) for a nontrivial character, via the primitive closed form.

    Reduction to the conductor f, then the finite Gauss-sum formula
    L(1, chi) = -(1/tau(conj chi)) * sum over a of conj(chi)(a) Log(1 - zeta_f^a).
    The value is complex in general; real characters land on the real axis.
    """
    if chi.is_trivial():
        raise PoleError("L(s, trivial character) has a pole at s = 1")
    f, lift = chi.conductor, chi.primitive_exponent
    # increasing a, so the float sums keep their order; float(-q) is -float(q)
    terms = [(a, float(lift(a))) for a in units_mod(f)]
    tau_bar = sum(cmath.exp(2j * math.pi * (-x + a / f)) for a, x in terms)
    total = 0j
    for a, x in terms:
        total += cmath.exp(-2j * math.pi * x) * cmath.log(1 - cmath.exp(2j * math.pi * a / f))
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
