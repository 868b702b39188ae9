"""Local factors from cycle exponents against Bareiss determinants.

``GLattice._cycle_exponents`` reads det(x I - X(g)) = prod (x^e - 1)^(c_e)
off the trace character on <g>, and ``characteristic_polynomials`` and
``_local_determinant`` multiply it out; the oracle in ``support`` takes one
Bareiss determinant of x I - X(g) itself, so the two routes share no code.
On ``res`` and norm-one tori a second oracle, the closed form of a
permutation lattice, reads |G| and the order of Frobenius off residues mod n.
Every factor is built in lowest terms without a gcd (``_coprime_fraction``);
the last three tests hold it to the public constructor.
"""

import math
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from toruskit import lattices
from toruskit.arith import (AbelianGaloisDatum, _coprime_fraction, _local_determinant,
                            frobenius, local_artin_factor)
from toruskit.errors import (InternalInvariantError, RamifiedPrimeError,
                             UnsupportedRequestError)
from toruskit.groups import all_subgroups, cyclic_group
from toruskit.lattices import direct_sum, regular_lattice
from toruskit.tamagawa import canonical_coefficients, local_volume
from toruskit.tori import Torus, make_torus

from support import (bareiss_charpoly_value, bareiss_local_factor, conjugate,
                     cycle_formula_determinants, group_family_up_to_8,
                     random_glattice, random_unimodular, sieve_primes)

WITNESS = AbelianGaloisDatum(120, (1, 49))
SQUARES_840 = AbelianGaloisDatum(840, (1, 121, 169, 289, 361, 529))
POINTS = (-3, 0, 1, 2, 3, 7, 101)  # x = 0 gives det(-X(g)) = +-1


@pytest.fixture(scope="module")
def witness():
    return make_torus(WITNESS, "norm_one")


def _at(poly, x):
    value = 0
    for c in poly:
        value = value * x + c
    return value


def _assert_matches_bareiss(lattice, points=POINTS):
    polys = lattice.characteristic_polynomials
    assert len(polys) == lattice.group.order
    for g, poly in enumerate(polys):
        assert len(poly) == lattice.rank + 1 and poly[0] == 1
        for x in points:
            assert _at(poly, x) == bareiss_charpoly_value(lattice, g, x), (g, x)


def test_characteristic_polynomials_match_bareiss_on_small_groups():
    rng = random.Random(2020)
    for group in group_family_up_to_8():
        reg = regular_lattice(group)
        randoms = [random_glattice(group, 2, rng) for _ in range(3)]
        for lattice in [reg, direct_sum(*randoms[:2])] + randoms:
            _assert_matches_bareiss(lattice)
            twisted = conjugate(lattice, random_unimodular(lattice.rank, rng))
            assert twisted.characteristic_polynomials == lattice.characteristic_polynomials
            _assert_matches_bareiss(twisted, (2, 5))


@pytest.mark.parametrize("datum", [WITNESS, SQUARES_840], ids=["120/{1,49}", "840/squares"])
def test_norm_one_local_factors_match_bareiss(datum):
    t = make_torus(datum, "norm_one")
    _assert_matches_bareiss(t.X, (0, 3))
    seen = set()
    for p in sieve_primes(1100):  # 1009 is the least prime split in 840/squares
        if datum.modulus % p == 0:
            continue
        g = frobenius(datum, p)
        if g not in seen:  # one prime per Frobenius class pays a Bareiss determinant
            seen.add(g)
            assert local_artin_factor(t, p) == bareiss_local_factor(t, p), p
    assert seen == set(datum.group.elements())


def test_local_determinants_match_the_cycle_formula():
    # The res and norm-one tori of the data the suite builds with |G| <= 512,
    # at every unramified p <= 300: every subgroup of (Z/n)^x for n <= 64 (the
    # CLI fuzz draws its moduli there) and the larger named data.
    data = []
    for n in range(1, 65):
        full = AbelianGaloisDatum(n)
        data += [(n, [full.representatives[e] for e in sub.elements])
                 for sub in all_subgroups(full.group)]
    data += [(120, (1, 49)), (840, SQUARES_840.subgroup), (120, None), (260, None),
             (441, None), (840, None), (4096, {pow(5, 16 * i, 4096) for i in range(64)}),
             (8192, {pow(5, 16 * i, 8192) for i in range(128)})]
    checked = 0
    for n, h in data:
        datum = AbelianGaloisDatum(n, h)
        assert datum.group.order <= 512
        primes = [p for p in sieve_primes(300) if n % p]
        for kind in ("res", "norm_one"):
            t = make_torus(datum, kind)
            want = cycle_formula_determinants(n, h, kind, primes)
            assert {p: _local_determinant(t, frobenius(datum, p), p) for p in primes} == want, \
                (n, h, kind)
            checked += len(primes)
    assert checked == 71512, checked


def test_local_factor_is_basis_independent(witness):
    u = random_unimodular(witness.dim, random.Random(7))
    twisted = Torus(WITNESS, conjugate(witness.X, u), "lattice")
    assert twisted.X != witness.X
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71):
        assert local_artin_factor(twisted, p) == local_artin_factor(witness, p)
        assert local_artin_factor(twisted, p) == bareiss_local_factor(twisted, p)


@given(st.sampled_from(group_family_up_to_8()), st.integers(0, 2 ** 32),
       st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=3))
@settings(deadline=None, max_examples=60)
def test_characteristic_polynomials_match_bareiss_hypothesis(group, seed, points):
    rng = random.Random(seed)
    lattice = direct_sum(random_glattice(group, 2, rng), random_glattice(group, 2, rng))
    _assert_matches_bareiss(lattice, points)


@given(st.sampled_from([p for p in sieve_primes(20000) if 120 % p]))
@settings(deadline=None, max_examples=40)
def test_witness_local_factor_matches_bareiss_hypothesis(witness, p):
    assert local_artin_factor(witness, p) == bareiss_local_factor(witness, p)
    assert local_volume(witness, p) * bareiss_local_factor(witness, p) == 1


def test_local_factor_rejects_ramified_and_composite(witness):
    for p in (2, 3, 5):
        with pytest.raises(RamifiedPrimeError):
            local_artin_factor(witness, p)
    for n in (0, 1, 49, 77, 7 * 7 * 11):
        with pytest.raises(ValueError, match="not prime"):
            local_artin_factor(witness, n)


@pytest.mark.parametrize("p", [True, 7.0, Fraction(7), Fraction(15, 2)])
def test_local_factors_read_p_as_an_integer(witness, p):
    for call in (lambda: frobenius(WITNESS, p), lambda: local_artin_factor(witness, p),
                 lambda: local_volume(witness, p)):
        with pytest.raises(TypeError, match="integer"):
            call()


def test_local_volume_keeps_the_check_order(witness):
    # datum, then "not prime", then ramified, as local_artin_factor
    plain = make_torus(cyclic_group(2), "res")
    for t, p, error, message in ((plain, 4, UnsupportedRequestError, "datum"),
                                 (plain, 7.0, UnsupportedRequestError, "datum"),
                                 (witness, 4, ValueError, "not prime"),
                                 (witness, 2, RamifiedPrimeError, "divides")):
        for fn in (local_artin_factor, local_volume):
            with pytest.raises(error, match=message):
                fn(t, p)


def test_newton_remainder_raises(monkeypatch):
    # (2, 1) is no character of C2: its power sums give c_2 = -1/2
    monkeypatch.setattr(lattices, "trace_character", lambda m: (2, 1))
    with pytest.raises(InternalInvariantError, match="remainder"):
        regular_lattice(cyclic_group(2)).characteristic_polynomials


def test_characteristic_polynomials_are_cached_immutable_tuples():
    t = make_torus(WITNESS, "norm_one")
    polys = t.X.characteristic_polynomials
    assert t.X.characteristic_polynomials is polys
    assert type(polys) is tuple
    assert all(type(poly) is tuple and all(type(c) is int for c in poly) for poly in polys)
    with pytest.raises(AttributeError):
        t.X.characteristic_polynomials = ()
    assert t.X.characteristic_polynomials is polys
    with pytest.raises(AttributeError):
        del t.X.characteristic_polynomials
    assert t.X.characteristic_polynomials is polys


def test_equal_lattices_built_separately_give_identical_factors():
    first = make_torus(WITNESS, "norm_one")
    second = make_torus(AbelianGaloisDatum(120, (49, 1)), "norm_one")
    assert first.X == second.X and first.X is not second.X
    assert first.X.characteristic_polynomials == second.X.characteristic_polynomials
    for p in sieve_primes(300):
        if 120 % p:
            assert local_artin_factor(first, p) == local_artin_factor(second, p)


def test_canonical_coefficients_match_bareiss_route(witness):
    coeffs = canonical_coefficients(witness, 2000)
    assert list(coeffs) == sieve_primes(2000)
    for p, value in coeffs.items():
        want = Fraction(1) if 120 % p == 0 else bareiss_local_factor(witness, p)
        assert value == want, p


def _random_coprime_pairs(rng, count):
    pairs = [(0, 1), (1, 1), (-1, 1), (7, 1), (-3, 8)]
    while len(pairs) < count:
        num = rng.choice((-1, 1)) * rng.getrandbits(rng.choice((8, 64, 300)))
        den = rng.getrandbits(rng.choice((1, 16, 64, 300))) or 1
        if math.gcd(num, den) == 1:
            pairs.append((num, den))
    return pairs


def test_coprime_fraction_is_the_public_fraction():
    # If a future Python renames Fraction's slots, this fails instead of an
    # answer going wrong.
    rng = random.Random(4207)
    pairs = _random_coprime_pairs(rng, 400)
    for (a, b), (c, d) in zip(pairs, pairs[1:] + pairs[:1]):
        x, want = _coprime_fraction(a, b), Fraction(a, b)
        y, other = _coprime_fraction(c, d), Fraction(c, d)
        assert type(x) is Fraction
        assert x == want and hash(x) == hash(want)
        assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
        assert str(x) == str(want) and repr(x) == repr(want)
        assert x + y == want + other and x * y == want * other
        if a:
            assert 1 / x == 1 / want and type(1 / x) is Fraction
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is Fraction and back == want and str(back) == str(want)


def _assert_public_lowest_terms(x, num, den):
    """x is the Fraction(num, den) of the public constructor, in lowest terms."""
    want = Fraction(num, den)
    assert type(x) is Fraction
    assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
    assert math.gcd(x.numerator, x.denominator) == 1 and x.denominator > 0


@pytest.mark.parametrize("datum, kind", [(WITNESS, "norm_one"), (AbelianGaloisDatum(17), "norm_one"),
                                         (AbelianGaloisDatum(15), "res"), (SQUARES_840, "norm_one")],
                         ids=["120/{1,49}", "17", "res-15", "840/squares"])
def test_local_factors_are_built_in_lowest_terms(datum, kind):
    t = make_torus(datum, kind)
    coeffs = canonical_coefficients(t, 2000)
    assert list(coeffs) == sieve_primes(2000)
    for p, lam in coeffs.items():
        if datum.modulus % p == 0:
            _assert_public_lowest_terms(lam, 1, 1)
            continue
        det = _local_determinant(t, frobenius(datum, p), p)
        _assert_public_lowest_terms(lam, p ** t.dim, det)
        _assert_public_lowest_terms(local_artin_factor(t, p), p ** t.dim, det)
        _assert_public_lowest_terms(local_volume(t, p), det, p ** t.dim)


# For a prime p every factor p^e - 1 is -1 mod p, so an exact quotient of
# them is never divisible by p; the stubs reach that check at p = 1 and -1.
@pytest.mark.parametrize("exponents, p, message", [
    (((1, -2), (3, 1)), 3, "exact"),  # 26 // 4 = 6, remainder 2
    (((1, -1),), 7, "exact"),  # 1 // 6
    (((0, 1),), 3, "positive"),  # p^0 - 1 = 0
    ((), 1, "prime to p"),  # det = 1 = 0 mod 1
    (((1, 2),), -1, "prime to p"),  # det = (-2)^2 = 4
])
def test_local_determinant_checks_its_quotient(exponents, p, message):
    stub = SimpleNamespace(X=SimpleNamespace(_cycle_exponents=(exponents,)))
    with pytest.raises(InternalInvariantError, match=message):
        _local_determinant(stub, 0, p)
