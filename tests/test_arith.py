import bisect
import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from toruskit import linalg
from toruskit.arith import (AbelianGaloisDatum, DirichletCharacter, characters,
                            decompose, dirichlet_L1, frobenius,
                            local_artin_factor, primes_up_to, residue)
from toruskit.errors import PoleError, RamifiedPrimeError, UnsupportedRequestError
from toruskit.groups import all_subgroups, cyclic_group, generating_set, units_mod
from toruskit.tori import make_torus

from support import (dense, identity, l_chi3_series_oracle, l_chi4_series_oracle,
                     per_unit_character_check, sieve_primes)

QI = AbelianGaloisDatum(4)
Q3 = AbelianGaloisDatum(3)
GM = AbelianGaloisDatum(1)
SQUARES_840 = (1, 121, 169, 289, 361, 529)


def test_datum_validation():
    with pytest.raises(ValueError):
        AbelianGaloisDatum(8, [1, 3, 5])  # not closed
    with pytest.raises(ValueError):
        AbelianGaloisDatum(8, [2])  # not a unit
    for modulus in (0, -4):
        with pytest.raises(ValueError, match="modulus must be at least 1"):
            AbelianGaloisDatum(modulus)
    d = AbelianGaloisDatum(8, [1, 3])
    assert d.group.order == 2
    assert sorted(d.ramified) == [2]
    assert sorted(AbelianGaloisDatum(24).ramified) == [2, 3]
    assert sorted(GM.ramified) == []
    assert AbelianGaloisDatum(840).ramified == {2, 3, 5, 7}
    assert AbelianGaloisDatum(32).ramified == {2}
    assert AbelianGaloisDatum(441).ramified == {3, 7}
    for modulus, subgroup in ((120, (1, 49)), (840, SQUARES_840)):
        d = AbelianGaloisDatum(modulus, subgroup)
        for u in units_mod(modulus):
            least = min(u * h % modulus for h in subgroup)
            assert d.element_of_unit(u) == d.representatives.index(least)
            assert d.element_of_unit(u - 3 * modulus) == d.element_of_unit(u)
        for a in (0, 2, 35, modulus):
            with pytest.raises(ValueError):
                d.element_of_unit(a)


def test_frobenius_gaussian():
    assert frobenius(QI, 5) == QI.group.identity
    assert frobenius(QI, 3) != QI.group.identity
    with pytest.raises(RamifiedPrimeError):
        frobenius(QI, 2)
    for n in (0, 1, -5, 9, 91):
        with pytest.raises(ValueError):
            frobenius(QI, n)


def test_frobenius_respects_quotient():
    d = AbelianGaloisDatum(8, [1, 7])
    # 7 = -1 collapses, so Frobenius factors through (Z/8)^x / {1,7}
    assert frobenius(d, 7) == d.group.identity
    assert frobenius(d, 3) == frobenius(d, 5)  # 3*7 = 21 = 5 mod 8


def test_characters_trivial_datum():
    chars = characters(GM)
    assert len(chars) == 1 and chars[0].is_trivial()


def test_characters_gaussian():
    chars = characters(QI)
    assert len(chars) == 2
    assert chars[0].is_trivial()
    chi = chars[1]
    assert chi.exponent(3) == Fraction(1, 2)
    assert chi.conductor == 4
    assert chi.is_odd()


def test_characters_form_a_group():
    d = AbelianGaloisDatum(24, [1, 5])  # quotient of order 4
    chars = characters(d)
    assert len(chars) == 4
    table = {c.exponents for c in chars}
    for a in chars:
        for b in chars:
            assert (a * b).exponents in table


def test_character_conductor_primitivization():
    # the quadratic character mod 12 induced from conductor 3
    d = AbelianGaloisDatum(12, [1, 7])
    chi = characters(d)[1]
    assert chi.conductor == 3
    assert chi.primitive_exponent(2) == Fraction(1, 2)  # chi_-3(2) = -1


def test_decompose_split():
    for dim in (1, 3):
        dec = decompose(make_torus(QI, "split", dim=dim))
        assert dec.d == dim and dec.multiplicities == {}


def test_decompose_res_is_regular_character():
    for datum in (QI, Q3, AbelianGaloisDatum(5), AbelianGaloisDatum(8)):
        dec = decompose(make_torus(datum, "res"))
        assert dec.d == 1
        assert all(m == 1 for m in dec.multiplicities.values())
        assert len(dec.multiplicities) == datum.group.order - 1


def test_decompose_norm_one_gaussian():
    dec = decompose(make_torus(QI, "norm_one"))
    assert dec.d == 0
    ((chi, m),) = dec.multiplicities.items()
    assert m == 1 and chi.exponent(3) == Fraction(1, 2)


SECOND_ROUTE_DATA = [
    (3, None), (4, None), (5, None), (7, None), (8, None), (9, None),
    (12, (1, 7)), (13, None), (15, None), (16, None), (21, None),
    (24, (1, 5)), (32, None), (35, None), (40, None), (48, None),
    (60, (1, 49)), (120, (1, 49)), (840, SQUARES_840),
]


@pytest.mark.parametrize("modulus, subgroup", SECOND_ROUTE_DATA)
def test_decompose_matches_float_inner_products(modulus, subgroup):
    # second route: (1/|G|) sum over g of chi_Pi(g) conj chi(g) in complex
    # floats, with chi read at each group element and chi_Pi as traces
    datum = AbelianGaloisDatum(modulus, subgroup)
    order = datum.group.order
    res, n1 = make_torus(datum, "res"), make_torus(datum, "norm_one")
    # the product doubles every nontrivial character; at |G| = 32 its
    # rank-64 lattice alone takes seconds to validate, so res is left out
    factors = [res, n1] if order <= 16 else [n1]
    tori = [res, n1, make_torus(datum, "split", dim=2),
            make_torus(datum, "product", factors=factors + [make_torus(datum, "split")])]
    for t in tori:
        traces = [sum(int(x) for x in dense(mat).diagonal()) for mat in t.X.action]
        dec = decompose(t)
        for chi in characters(datum):
            inner = sum(trace * cmath.exp(-2j * math.pi * float(q))
                        for trace, q in zip(traces, chi.exponents)) / order
            m = dec.d if chi.is_trivial() else dec.multiplicities.get(chi, 0)
            assert abs(inner - m) <= 1e-9, (modulus, t.kind, chi, inner, m)


def test_decompose_needs_arithmetic_datum():
    with pytest.raises(UnsupportedRequestError):
        decompose(make_torus(cyclic_group(2), "res"))


def test_local_artin_factor_gm():
    t = make_torus(GM, "split", dim=1)
    for p in (2, 3, 5, 97):
        assert local_artin_factor(t, p) == Fraction(p, p - 1)


def test_local_artin_factor_res_gaussian():
    t = make_torus(QI, "res")
    for p in primes_up_to(60):
        if p == 2:
            with pytest.raises(RamifiedPrimeError):
                local_artin_factor(t, p)
        elif p % 4 == 1:
            assert local_artin_factor(t, p) == Fraction(p, p - 1) ** 2
        else:
            assert local_artin_factor(t, p) == Fraction(p * p, p * p - 1)


def test_local_factor_factorizes_over_characters():
    # det(I - Frob/p)^-1 = prod over chi of (1 - chi(Frob)/p)^-m, numerically
    for datum in (QI, AbelianGaloisDatum(5), AbelianGaloisDatum(8)):
        t = make_torus(datum, "res")
        dec = decompose(t)
        for p in (3, 7, 11, 13):
            if datum.modulus % p == 0:
                continue
            lhs = float(local_artin_factor(t, p))
            rhs = 1.0 / (1.0 - 1.0 / p) ** dec.d
            for chi, m in dec.multiplicities.items():
                rhs *= abs((1.0 - chi.value(p) / p) ** -m)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_dirichlet_l1_chi4():
    chi = characters(QI)[1]
    val = dirichlet_L1(chi)
    assert abs(val - math.pi / 4) <= 1e-9 * (math.pi / 4)
    oracle = l_chi4_series_oracle()
    assert abs(val - oracle) <= 1e-9 * oracle


def test_dirichlet_l1_chi3():
    chi = characters(Q3)[1]
    val = dirichlet_L1(chi)
    target = math.pi / (3 * math.sqrt(3))
    assert abs(val - target) <= 1e-9 * target
    oracle = l_chi3_series_oracle()
    assert abs(val - oracle) <= 1e-9 * oracle


def test_dirichlet_l1_pole():
    with pytest.raises(PoleError):
        dirichlet_L1(characters(QI)[0])


def test_dirichlet_l1_conjugate_symmetry():
    d = AbelianGaloisDatum(5)
    for chi in characters(d):
        if chi.is_trivial():
            continue
        v = dirichlet_L1(chi)
        w = dirichlet_L1(chi.conjugate())
        assert abs(v - w.conjugate()) <= 1e-12


def test_residue_gm_is_one():
    r = residue(make_torus(GM, "split", dim=1))
    assert r.rho == 1.0 and r.d == 1


def test_residue_gaussian():
    r = residue(make_torus(QI, "norm_one"))
    assert r.d == 0
    assert abs(r.rho - math.pi / 4) <= 1e-12
    r2 = residue(make_torus(QI, "res"))
    assert r2.d == 1
    assert abs(r2.rho - math.pi / 4) <= 1e-12


def test_residue_multiplicative():
    for datum in (QI, Q3, AbelianGaloisDatum(8)):
        res = make_torus(datum, "res")
        n1 = make_torus(datum, "norm_one")
        prod = make_torus(datum, "product", factors=[res, n1])
        lhs = residue(prod).rho
        rhs = residue(res).rho * residue(n1).rho
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_residue_keeps_no_copy_of_the_units_per_character():
    # (Z/8192)^x/<5^16>: 32 characters, phi = 4096.  A unit -> exponent
    # dict per character peaked at 5.5 MB here; the characters hold one
    # exponent per group element instead.
    n, g = 8192, pow(5, 16, 8192)
    t = make_torus(AbelianGaloisDatum(n, {pow(g, i, n) for i in range(512)}), "res")
    assert t.group.order == 32
    tracemalloc.start()
    try:
        rho = residue(t).rho
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho == 0.2738445315622362
    assert peak < 3 * 10 ** 6, peak


def test_euler_product_at_two_matches_character_factors_exactly():
    # det route vs character route for the Q(i) restriction torus at s = 2:
    # both partial products over p <= 1000 as exact rationals
    t = make_torus(QI, "res")
    chi = characters(QI)[1]
    det_side = Fraction(1)
    char_side = Fraction(1)
    for p in sieve_primes(1000):
        if p == 2:
            continue
        frob = frobenius(QI, p)
        mat = p * p * identity(2) - dense(t.X.matrix(frob))
        det_side *= Fraction(p ** 4, linalg.det(mat))
        chi_p = 1 if chi.exponent(p) == 0 else -1
        char_side *= Fraction(p * p, p * p - 1) * Fraction(p * p, p * p - chi_p)
    assert det_side == char_side
    # monotone convergence sanity: the partial product sits below zeta(2) * G
    from support import catalan_series_oracle
    limit = (math.pi ** 2 / 6) * (1 - Fraction(1, 4)) * catalan_series_oracle() \
        * (1 - Fraction(1, 4)) ** 0  # remove the p=2 Euler factor of zeta
    partial = float(det_side)
    assert partial < float(limit)
    assert abs(partial - float(limit)) < 3.0 / 1000


def test_class_number_formula_cross_check():
    # residue of the Dedekind zeta of Q(i): 2^r1 (2 pi)^r2 h R / (w sqrt|d|)
    r1, r2, h, reg, w, disc = 0, 1, 1, 1.0, 4, 4
    cnf = (2 ** r1) * (2 * math.pi) ** r2 * h * reg / (w * math.sqrt(disc))
    chi = characters(QI)[1]
    assert abs(dirichlet_L1(chi) - cnf) <= 1e-9 * cnf


def _kronecker(D, n):
    """(D/n) for n > 0 prime to D = 0 or 1 mod 4: each 2 gives (D/2), the odd
    part the Jacobi symbol."""
    out = 1
    while n % 2 == 0:
        n //= 2
        out *= 1 if D % 8 in (1, 7) else -1
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _class_number(d):
    """h(-d) as the number of reduced forms (a, b, c) of discriminant -d:
    |b| <= a <= c, and b >= 0 if |b| = a or a = c."""
    h = 0
    for a in range(1, math.isqrt(d // 3) + 1):
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b + d, 4 * a)
            h += not r and c >= a and (b >= 0 or a < c)
    return h


def _squarefree(m):
    return all(m % (p * p) for p in range(2, math.isqrt(m) + 1))


def _imaginary_quadratic_fields():
    """(d, the datum of Q(sqrt(-d))) for the 153 fundamental discriminants -d
    with d < 500: the field is cut out by the units with (-d/u) = 1."""
    for d in range(3, 500):
        if d % 4 == 3 and _squarefree(d) or d % 16 in (4, 8) and _squarefree(d // 4):
            units = [u for u in range(1, d) if math.gcd(u, d) == 1]
            yield d, AbelianGaloisDatum(d, [u for u in units if _kronecker(-d, u) == 1])


def test_residue_matches_the_class_number_formula():
    # The res torus of Q(sqrt(-d)) has rho = L(1, chi_-d) = 2 pi h / (w sqrt d),
    # here for all 153 fundamental discriminants -d with d < 500.  h counts
    # reduced forms, so neither side shares code with characters or Gauss sums.
    assert [_class_number(d) for d in (3, 4, 15, 23, 47, 71, 163)] == [1, 1, 2, 3, 5, 7, 1]
    fields = 0
    for d, datum in _imaginary_quadratic_fields():
        assert datum.group.order == 2, d
        want = 2 * math.pi * _class_number(d) / ({3: 6, 4: 4}.get(d, 2) * math.sqrt(d))
        assert abs(residue(make_torus(datum, "res")).rho - want) <= 1e-12 * want, d
        fields += 1
    assert fields == 153


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []
    assert primes_up_to(10 ** 4) == sieve_primes(10 ** 4)
    for n in range(-2, 200):  # every length the stride slices can end at
        assert primes_up_to(n) == sieve_primes(n), n


def test_odd_only_sieve_matches_the_plain_one():
    # primes_up_to holds the odd numbers only, and q strikes its odd
    # multiples from q^2 on: at every n < 3000, and at q^2 - 1, q^2 and
    # q^2 + 1 for every prime q < 1000, where q's first strike enters or
    # leaves the sieve.  sieve_primes(n) is the plain sieve's prefix up to n.
    plain = sieve_primes(997 ** 2 + 1)
    squares = ((q * q - 1, q * q, q * q + 1) for q in sieve_primes(999))
    for n in itertools.chain(range(3000), *squares):
        assert primes_up_to(n) == plain[:bisect.bisect_right(plain, n)], n


def test_character_exponents_follow_the_unit_listing():
    datum = AbelianGaloisDatum(840, SQUARES_840)
    for chi in characters(datum):
        assert len(chi.exponents) == datum.group.order
        for u in units_mod(840):
            want = chi.exponents[datum.element_of_unit(u)]
            assert chi.exponent(u) == chi.exponent(u + 840) == want
        with pytest.raises(ValueError):
            chi.exponent(2)


def test_character_order_is_pinned():
    # 840/squares is C2^5; its characters come in binary order of their
    # signs at 11, 13, 17, 19 and 23
    chars = characters(AbelianGaloisDatum(840, SQUARES_840))
    assert ["".join(str(int(2 * chi.exponent(u))) for u in (11, 13, 17, 19, 23))
            for chi in chars] == [format(i, "05b") for i in range(32)]
    assert [chi.conductor for chi in chars] == [
        1, 168, 120, 35, 40, 420, 12, 56, 84, 8, 280, 60, 840, 5, 7, 24,
        140, 120, 168, 4, 56, 3, 105, 40, 15, 280, 8, 21, 24, 28, 20, 840]
    # (Z/15)^x = <2> x <11> = C4 x C2
    q = Fraction
    assert [(chi.exponent(2), chi.exponent(11), chi.conductor)
            for chi in characters(AbelianGaloisDatum(15))] == [
        (0, 0, 1), (0, q(1, 2), 15), (q(1, 4), 0, 5), (q(1, 4), q(1, 2), 15),
        (q(1, 2), q(1, 2), 3), (q(1, 2), 0, 5), (q(3, 4), q(1, 2), 15), (q(3, 4), 0, 5)]


def test_character_hash_agrees_with_equality():
    # The hash is taken from the exponents in lowest terms; a character
    # rebuilt from other Fraction objects of the same values is the same
    # dictionary key, the products of one datum's characters stay inside its
    # listing, and exponent tuples that share numerators (1/4 against 1/2)
    # hash apart.
    chars = characters(AbelianGaloisDatum(15))
    keys = {chi: i for i, chi in enumerate(chars)}
    for i, chi in enumerate(chars):
        again = DirichletCharacter(chi.datum, tuple(Fraction(2 * q.numerator, 2 * q.denominator)
                                                    for q in chi.exponents))
        assert again == chi and hash(again) == hash(chi) and keys[again] == i
        assert all(chi * psi in keys for psi in chars)
    assert len(keys) == len(chars) == 8
    five, q = AbelianGaloisDatum(5), Fraction
    quarter = DirichletCharacter(five, (q(0), q(1, 4), q(3, 4), q(1, 2)))
    half = DirichletCharacter(five, (q(0), q(1, 2), q(3, 4), q(1, 2)))
    assert hash(quarter) != hash(half)


def test_character_hash_reads_only_a_generating_set():
    # (Z/4096)^x/<5^16> = C2 x C16: 32 exponents per character, two of them
    # at the group's generating set, which fix the character.  Hashing one
    # reads no other exponent and needs no abelian_decomposition lookup.  A
    # rebuilt datum shares its group, so such a lookup compares identity; a
    # caller's own equal table would be compared in full.
    class Counting(Fraction):
        read = set()

        @property
        def numerator(self):
            Counting.read.add(id(self))
            return super().numerator

        @property
        def denominator(self):
            Counting.read.add(id(self))
            return super().denominator

        def __hash__(self):
            Counting.read.add(id(self))
            return super().__hash__()

    n, g = 4096, pow(5, 16, 4096)
    datum = AbelianGaloisDatum(n, {pow(g, i, n) for i in range(64)})
    generators = generating_set(datum.group)
    assert datum.group.order == 32 and len(generators) == 2
    for chi in characters(datum):
        counted = DirichletCharacter(datum, tuple(Counting(q) for q in chi.exponents))
        for _ in range(2):
            Counting.read = set()
            assert hash(counted) == hash(chi)
            assert Counting.read == {id(counted.exponents[g]) for g in generators}


def test_characters_match_their_spread_over_the_units():
    # Conductor, parity, values and primitive exponents against the per-unit
    # oracle, on the data whose characters the suite reads: every subgroup of
    # (Z/n)^x for n <= 64 (the CLI fuzz draws its moduli there), the larger
    # named data and the 153 imaginary quadratic fields.
    data = [(n, [AbelianGaloisDatum(n).representatives[e] for e in sub.elements])
            for n in range(1, 65) for sub in all_subgroups(AbelianGaloisDatum(n).group)]
    data += [
        (120, (1, 49)), (840, SQUARES_840), (120, None), (260, None), (441, None), (840, None),
        (4096, {pow(5, 16 * i, 4096) for i in range(64)}),
        (8192, {pow(5, 16 * i, 8192) for i in range(128)})]
    checked = sum(per_unit_character_check(AbelianGaloisDatum(n, h)) for n, h in data)
    checked += sum(per_unit_character_check(datum) for _, datum in _imaginary_quadratic_fields())
    assert checked > 3000, checked


def test_characters_of_every_datum_hash_apart():
    # The first 32 units generate (Z/n)^x for every n below 3000, so the
    # characters of each datum the suite builds have distinct hashes.
    data = SECOND_ROUTE_DATA + [
        (1, None), (8, (1, 3)), (8, (1, 5)), (8, (1, 7)), (12, None), (15, (1, 4)),
        (24, None), (120, None), (260, None), (441, None), (840, None),
        (8192, {pow(5, 16 * i, 8192) for i in range(128)})]
    for modulus, subgroup in data:
        chars = characters(AbelianGaloisDatum(modulus, subgroup))
        assert len({hash(chi) for chi in chars}) == len(chars), modulus


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: characters(Q3)[1] * characters(QI)[1], "common datum",
                 id="product"),
    pytest.param(lambda: characters(QI)[1].primitive_exponent(2),
                 "not a unit mod the conductor 4", id="primitive"),
    # one exponent per group element: a short list used to end in "no conductor found"
    pytest.param(lambda: DirichletCharacter(AbelianGaloisDatum(5), (Fraction(1, 3),)).conductor,
                 "takes one exponent per group element, 4, got 1", id="too-few"),
    pytest.param(lambda: DirichletCharacter(QI, (Fraction(0),) * 3),
                 "takes one exponent per group element, 2, got 3", id="too-many"),
])
def test_character_argument_checks(call, fragment):
    with pytest.raises(ValueError) as exc:
        call()
    assert fragment in str(exc.value)


@pytest.mark.parametrize("datum", [
    pytest.param(True, id="True"), pytest.param(5.0, id="5.0"), pytest.param("5", id="5"),
    pytest.param(5, id="int"), pytest.param(None, id="None")])
def test_character_takes_a_datum(datum):
    # a modulus, or anything else that is not a datum, is refused as a type
    with pytest.raises(TypeError, match="a character needs an AbelianGaloisDatum"):
        DirichletCharacter(datum, (Fraction(0),))
