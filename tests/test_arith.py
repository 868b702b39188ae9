import cmath
import math
from fractions import Fraction

import pytest

from toruskit import linalg
from toruskit.arith import (AbelianGaloisDatum, DirichletCharacter, characters,
                            decompose, dirichlet_L1, frobenius,
                            local_artin_factor, primes_up_to, residue)
from toruskit.errors import PoleError, RamifiedPrimeError, UnsupportedRequestError
from toruskit.groups import cyclic_group, units_mod
from toruskit.tori import make_torus

from support import l_chi3_series_oracle, l_chi4_series_oracle, sieve_primes

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
        with pytest.raises(ValueError, match="modulus must be positive"):
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
    # floats, with chi read at the coset representatives and chi_Pi as traces
    datum = AbelianGaloisDatum(modulus, subgroup)
    order = datum.group.order
    res, n1 = make_torus(datum, "res"), make_torus(datum, "norm_one")
    # the product doubles every nontrivial character; at |G| = 32 its
    # rank-64 lattice alone takes seconds to validate, so res is left out
    factors = [res, n1] if order <= 16 else [n1]
    tori = [res, n1, make_torus(datum, "split", dim=2),
            make_torus(datum, "product", factors=factors + [make_torus(datum, "split")])]
    position = {u: i for i, u in enumerate(units_mod(modulus))}
    for t in tori:
        traces = [sum(int(x) for x in mat.diagonal()) for mat in t.X.action]
        dec = decompose(t)
        for chi in characters(datum):
            inner = sum(traces[g] * cmath.exp(-2j * math.pi * float(chi.exponents[position[r]]))
                        for g, r in enumerate(datum.representatives)) / order
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
        mat = linalg.intmat([[p * p, 0], [0, p * p]]) - t.X.matrix(frob)
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


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []
    assert primes_up_to(10 ** 4) == sieve_primes(10 ** 4)
