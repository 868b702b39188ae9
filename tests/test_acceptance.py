"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 4 is split: the stated order-8 search is provably unattainable
(see notes in the repository-external decisions ledger and the analysis
inside the test), so it is a strict expected failure; the witness the
underlying claim actually has appears at order 16 and is locked to its
golden value.
"""

import io
import json
import math
import random
from fractions import Fraction

import pytest

from toruskit import linalg
from toruskit.arith import (AbelianGaloisDatum, characters, dirichlet_L1,
                            residue)
from toruskit.cli import main as cli_main
from toruskit.cohomology import (cohomology, enumerate_splittings, sha2_cyclic)
from toruskit.groups import (all_subgroups, cyclic_group, product_group,
                             subgroup_closure, trivial_subgroup)
from toruskit.lattices import (FGAbelian, direct_sum, induce,
                               presentation_mod, regular_lattice,
                               sign_lattice, trivial_lattice)
from toruskit.tamagawa import (canonical_coefficients, gm_adelic_check,
                               local_volume, tamagawa_number)
from toruskit.tori import (RealClassification, classify_real, isogenous,
                           make_torus)

from support import (brute_force_h1_order, conjugate, group_family_up_to_8,
                     l_chi4_series_oracle, random_glattice, random_unimodular,
                     sieve_primes)

GM = AbelianGaloisDatum(1)
QI = AbelianGaloisDatum(4)

RES_DATA = [
    (1, None), (3, None), (4, None), (8, (1, 3)), (12, (1, 5)),
    (7, (1, 6)), (9, (1, 8)),
    (5, None), (16, (1, 7)),
    (11, (1, 10)),
    (7, None), (9, None),
    (29, (1, 12, 17, 28)),
    (17, (1, 16)), (32, (1, 15)),
    (8, None), (12, None), (24, (1, 7)),
    (15, None), (16, None), (20, None),
    (24, None),
]

QUADRATIC_DATA = [
    (3, None), (4, None), (5, (1, 4)), (7, (1, 2, 4)),
    (8, (1, 3)), (8, (1, 5)), (8, (1, 7)),
    (12, (1, 5)), (12, (1, 7)), (12, (1, 11)),
    (15, (1, 2, 4, 8)), (16, (1, 3, 9, 11)),
]

ELEMENTARY_ORDER_8_DATA = [(24, None), (40, (1, 9)), (60, (1, 49))]


def report(criterion: str, text: str):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def datum(n, subgroup):
    return AbelianGaloisDatum(n, subgroup)


def test_c01_tamagawa_gm():
    t = make_torus(GM, "split", dim=1)
    h1 = cohomology(t.group, t.X, 1)
    sha = sha2_cyclic(t.group, t.X)
    assert h1.order() == 1
    assert sha.order() == 1
    assert tamagawa_number(t) == Fraction(1)
    report("01", "tau(Gm) = 1 with |H1| = |Sha2| = 1, exactly")


def test_c02_tamagawa_res_all_small_abelian_data():
    seen_orders = set()
    for n, h in RES_DATA:
        d = datum(n, h)
        assert d.group.order <= 8
        seen_orders.add(d.group.order)
        assert tamagawa_number(make_torus(d, "res")) == Fraction(1), (n, h)
    assert seen_orders == {1, 2, 3, 4, 5, 6, 7, 8}
    for g in group_family_up_to_8():
        assert tamagawa_number(make_torus(g, "res")) == Fraction(1)
    report("02", f"tau(res) = 1 exactly on {len(RES_DATA)} cyclotomic data "
                 "and every abstract abelian group of order <= 8")


def test_c03_tamagawa_norm_one_quadratic():
    for n, h in QUADRATIC_DATA:
        d = datum(n, h)
        assert d.group.order == 2
        t = make_torus(d, "norm_one")
        # independent oracle: cocycles straight from the defining equations
        assert brute_force_h1_order(t.X) == 2
        assert cohomology(t.group, t.X, 1).order() == 2
        assert tamagawa_number(t) == Fraction(2), (n, h)
    report("03", f"tau(norm-one) = 2 exactly on {len(QUADRATIC_DATA)} quadratic "
                 "data, matching the brute-force cocycle oracle")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: for the norm-one lattice J every cyclic "
           "subgroup C has H^2(C, Res J) = 0 (cyclic H^3 with trivial "
           "coefficients vanishes), so Sha2_cyc(G, J) is all of H^2(G, J); "
           "for the unique elementary-abelian group of order 8 this gives "
           "tau = |H^1|/|H^2| = 8/8 = 1 for every datum.  The first "
           "elementary-abelian witness lives at order 16; see the passing "
           "companion test.")
def test_c04_nonintegral_witness_order_8_as_stated():
    witnesses = []
    for n, h in ELEMENTARY_ORDER_8_DATA:
        d = datum(n, h)
        assert d.group.order == 8
        assert all(d.group.element_order(g) <= 2 for g in d.group.elements())
        tau = tamagawa_number(make_torus(d, "norm_one"))
        if tau.denominator != 1:
            witnesses.append((n, h, tau))
    if not witnesses:
        print("ACCEPTANCE 04(as stated) FAIL: every order-8 elementary-abelian "
              "datum gives integral tau = 1 (provably; see the decisions "
              "ledger); the claim holds from order 16 on")
    assert witnesses, "no order-8 elementary-abelian datum has non-integral tau"


def test_c04_nonintegral_witness_elementary_abelian_search():
    search_space = ELEMENTARY_ORDER_8_DATA + [(120, (1, 49))]
    witnesses = []
    for n, h in search_space:
        d = datum(n, h)
        assert all(d.group.element_order(g) <= 2 for g in d.group.elements())
        tau = tamagawa_number(make_torus(d, "norm_one"))
        if tau.denominator != 1:
            witnesses.append((n, h, tau))
    assert witnesses, "no elementary-abelian datum in the search space works"
    (n, h, tau) = witnesses[0]
    assert (n, h) == (120, (1, 49))
    assert datum(n, h).group.order == 16
    assert tau == Fraction(1, 4)  # golden value, frozen after the first search
    report("04", "non-integral tau exists over an elementary-abelian datum: "
                 f"modulus {n}, |G| = 16, tau = {tau} (order-8 space is "
                 "provably integral; see ledger)")


def test_c04_order_32_norm_one_840_squares(tmp_path):
    # G = (Z/840)^x / squares = (C2)^5: H^1(G, J) = G^ and
    # H^2(G, J) = H^3(G, Z) = wedge^2 G^ = (C2)^10, all of it in Sha^2 since
    # every cyclic subgroup has H^2(C, J) = 0.
    squares = [1, 121, 169, 289, 361, 529]
    t = make_torus(datum(840, squares), "norm_one")
    assert t.group.order == 32
    assert cohomology(t.group, t.X, 1) == FGAbelian(0, (2,) * 5)
    assert cohomology(t.group, t.X, 2) == FGAbelian(0, (2,) * 10)
    assert sha2_cyclic(t.group, t.X) == FGAbelian(0, (2,) * 10)
    assert tamagawa_number(t) == Fraction(1, 32)
    spec = tmp_path / "n1_840.json"
    spec.write_text(json.dumps({
        "field": {"type": "cyclotomic", "modulus": 840, "subgroup": squares},
        "torus": {"type": "norm_one"}}))
    buf = io.StringIO()
    assert cli_main(["tamagawa", str(spec)], stdout=buf) == 0
    assert '"tau": "1/32"' in buf.getvalue()
    report("04", "|G| = 32 norm-one torus (840, squares): H^1 = C2^5, "
                 "H^2 = Sha^2 = C2^10, tau = 1/32")


def test_c04_order_32_presented_h1_mod_2():
    # 0 -> J -> J -> J/2 -> 0 gives H^1(G, J/2) = H^1(G, J)/2 + H^2(G, J)[2]
    # = C2^5 + C2^10 for the 840/squares norm-one torus.
    squares = [1, 121, 169, 289, 361, 529]
    t = make_torus(datum(840, squares), "norm_one")
    assert cohomology(t.group, presentation_mod(t.X, 2), 1) == FGAbelian(0, (2,) * 15)
    report("04", "|G| = 32 presented H^1(G, J/2) = C2^15 through the mapping cone")


def test_c04_order_32_presented_h2_mod_2():
    # H^2(G, J/2) = H^2(G, J)/2 + H^3(G, J)[2] = C2^10 + C2^25, read off the
    # Smith form of the cone's 1550 x 620 differential.
    squares = [1, 121, 169, 289, 361, 529]
    t = make_torus(datum(840, squares), "norm_one")
    assert cohomology(t.group, presentation_mod(t.X, 2), 2) == FGAbelian(0, (2,) * 35)
    report("04", "|G| = 32 presented H^2(G, J/2) = C2^35 through the mapping cone")


def test_c05_shapiro_all_subgroups():
    instances = 0
    for g in group_family_up_to_8():
        rng = random.Random(1000 + g.order * 31 + len(g.label))
        subs = all_subgroups(g)
        budget = max(20, len(subs))
        i = 0
        while i < budget:
            h = subs[i % len(subs)]
            a = random_glattice(h.as_group(), 2, rng)
            ind = induce(h, a)
            for q in (0, 1, 2):
                assert cohomology(h.as_group(), a, q) == cohomology(g, ind, q), \
                    (g.label, h.elements, q)
            i += 1
            instances += 1
    report("05", f"Shapiro equivalence holds in degrees 0..2 on {instances} "
                 "randomized instances covering every subgroup of every "
                 "group of order <= 8")


def test_c06_regular_lattice_cohomology_vanishes():
    for g in group_family_up_to_8():
        reg = regular_lattice(g)
        assert cohomology(g, reg, 1).is_trivial(), g.label
        assert cohomology(g, reg, 2).is_trivial(), g.label
    report("06", "H^1 and H^2 of the regular lattice vanish for all groups "
                 "of order <= 8, exactly")


def test_c07_splitting_enumeration_matches_engine():
    c2, c3, c4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    c6 = cyclic_group(6)
    klein = product_group(c2, c2)
    sign2 = sign_lattice(c2, trivial_subgroup(c2))
    cases = [
        (c2, presentation_mod(trivial_lattice(c2, 1), 2)),
        (c2, presentation_mod(trivial_lattice(c2, 1), 3)),
        (c2, presentation_mod(sign2, 3)),
        (c2, presentation_mod(sign2, 4)),
        (c2, presentation_mod(regular_lattice(c2), 2)),
        (c2, presentation_mod(regular_lattice(c2), 3)),
        (c3, presentation_mod(trivial_lattice(c3, 1), 3)),
        (c4, presentation_mod(sign_lattice(c4, subgroup_closure(c4, [2])), 2)),
        (c4, presentation_mod(trivial_lattice(c4, 1), 4)),
        (c6, presentation_mod(sign_lattice(c6, subgroup_closure(c6, [2])), 3)),
        (klein, presentation_mod(trivial_lattice(klein, 1), 2)),
        (klein, presentation_mod(sign_lattice(klein, subgroup_closure(klein, [1])), 2)),
    ]
    assert len(cases) >= 10
    for g, a in cases:
        enum = enumerate_splittings(g, a)
        size = 1
        for d in enum.orders:
            size *= d
        h0 = cohomology(g, a, 0).order()
        h1 = cohomology(g, a, 1).order()
        engine_z1 = h1 * size // h0
        assert len(enum.cocycles) == engine_z1
        assert enum.class_count == h1
    report("07", f"brute-force |Z^1| and class counts match the engine on "
                 f"{len(cases)} finite-coefficient instances")


def test_c08_real_classification():
    g = QI.group
    basics = [trivial_lattice(g, 1), regular_lattice(g),
              sign_lattice(g, trivial_subgroup(g))]
    outcomes = [RealClassification(1, 0, 0), RealClassification(0, 1, 0),
                RealClassification(0, 0, 1)]

    def torus_of(lattice):
        return make_torus(QI, "lattice",
                          matrices=[m.tolist() for m in lattice.action])

    for lattice, want in zip(basics, outcomes):
        assert classify_real(torus_of(lattice)) == want
    rng = random.Random(8)
    for _ in range(50):
        picks = [rng.randrange(3) for _ in range(rng.randrange(2, 5))]
        lattice = basics[picks[0]]
        for p in picks[1:]:
            lattice = direct_sum(lattice, basics[p])
        lattice = conjugate(lattice, random_unimodular(lattice.rank, rng))
        got = classify_real(torus_of(lattice))
        assert got == RealClassification(sum(outcomes[p].a for p in picks),
                                         sum(outcomes[p].b for p in picks),
                                         sum(outcomes[p].c for p in picks))
        assert got.a + 2 * got.b + got.c == lattice.rank
    report("08", "real classification reproduces the three basic tori and is "
                 "additive on 50 scrambled direct sums, exactly")


def test_c09_local_volumes():
    gm = make_torus(GM, "split", dim=1)
    res = make_torus(QI, "res")
    primes = sieve_primes(10 ** 4)
    for p in primes:
        assert local_volume(gm, p) == Fraction(p - 1, p)
    for p in primes:
        if p == 2:
            continue
        if p % 4 == 1:
            assert local_volume(res, p) == Fraction((p - 1) ** 2, p * p)
        else:
            assert local_volume(res, p) == Fraction(p * p - 1, p * p)
    report("09", f"local volumes match the closed forms for all "
                 f"{len(primes)} primes up to 10^4, exactly")


def test_c10_l_value_chi_minus_4():
    chi = characters(QI)[1]
    value = dirichlet_L1(chi)
    target = math.pi / 4
    assert abs(value - target) <= 1e-9 * target
    # class-number-formula value for Q(i): 2^r1 (2 pi)^r2 h R / (w sqrt|d|)
    cnf = (2 * math.pi) * 1 * 1.0 / (4 * math.sqrt(4))
    assert abs(value - cnf) <= 1e-9 * cnf
    oracle = l_chi4_series_oracle()
    assert abs(value - oracle) <= 1e-9 * oracle
    report("10", "L(1, chi_-4) = pi/4 within 1e-9, cross-checked against the "
                 "class number formula and the alternating-series oracle")


def test_c11_residue_gm_and_multiplicativity():
    r = residue(make_torus(GM, "split", dim=1))
    assert r.rho == 1.0 and r.d == 1
    pool_data = [QI, AbelianGaloisDatum(3), AbelianGaloisDatum(8),
                 AbelianGaloisDatum(5), AbelianGaloisDatum(12)]
    rng = random.Random(11)
    pairs = 0
    while pairs < 10:
        d = rng.choice(pool_data)
        kinds = ["res", "norm_one", "split"]
        t1 = make_torus(d, rng.choice(kinds), dim=rng.randrange(1, 3))
        t2 = make_torus(d, rng.choice(kinds), dim=rng.randrange(1, 3))
        prod = make_torus(d, "product", factors=[t1, t2])
        lhs = residue(prod).rho
        rhs = residue(t1).rho * residue(t2).rho
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        pairs += 1
    report("11", "rho(Gm) = 1 exactly; residues multiply over 10 random "
                 "product tori within 1e-10")


def test_c12_gm_adelic_check():
    result = gm_adelic_check()
    assert result.deviation <= 1e-3
    report("12", f"numeric adelic check: |tau_hat - 1| = {result.deviation:.2e} "
                 "<= 1e-3 with defaults")


def test_c13_isogeny():
    res = make_torus(QI, "res")
    split1 = make_torus(QI, "split", dim=1)
    so2 = make_torus(QI, "so2")
    mixed = make_torus(QI, "product", factors=[split1, so2])
    assert isogenous(res, mixed) is True
    assert isogenous(split1, so2) is False
    report("13", "isogeny: regular ~ trivial + sign is True, "
                 "trivial ~ sign is False")


def test_c14_cli_determinism(tmp_path):
    files = {
        "gm.json": {"field": {"type": "cyclotomic", "modulus": 1},
                    "torus": {"type": "split", "dim": 1}},
        "so2.json": {"field": {"type": "cyclotomic", "modulus": 4},
                     "torus": {"type": "so2"}},
        "res.json": {"field": {"type": "cyclotomic", "modulus": 4},
                     "torus": {"type": "res"}},
        "n1.json": {"field": {"type": "cyclotomic", "modulus": 4},
                    "torus": {"type": "norm_one"}},
        "klein.json": {"field": {"type": "cyclotomic", "modulus": 8},
                       "torus": {"type": "norm_one"}},
    }
    paths = {}
    for name, payload in files.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    commands = [
        ["info", paths["res.json"]],
        ["cohomology", "--q", "0", paths["res.json"]],
        ["cohomology", "--q", "1", paths["n1.json"]],
        ["cohomology", "--q", "2", paths["klein.json"]],
        ["classify-real", paths["so2.json"]],
        ["classify-real", paths["gm.json"]],
        ["isogeny", paths["res.json"], paths["n1.json"]],
        ["volumes", "--pmax", "50", paths["gm.json"]],
        ["volumes", "--pmax", "50", paths["res.json"]],
        ["residue", paths["n1.json"]],
        ["residue", paths["res.json"]],
        ["tamagawa", paths["gm.json"]],
        ["tamagawa", paths["n1.json"]],
        ["tamagawa", paths["klein.json"]],
        ["check-gm", "--pmax", "50"],
    ]

    def run_suite():
        outputs = []
        for argv in commands:
            buf = io.StringIO()
            code = cli_main(argv, stdout=buf)
            assert code == 0, argv
            outputs.append(buf.getvalue().encode("utf-8"))
        return outputs

    assert run_suite() == run_suite()
    report("14", f"two runs over {len(commands)} CLI invocations produced "
                 "byte-identical JSON")
