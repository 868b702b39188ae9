import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from toruskit.arith import AbelianGaloisDatum, primes_up_to
from toruskit.cohomology import cohomology, sha2_cyclic
from toruskit.errors import RamifiedPrimeError, UnsupportedRequestError
from toruskit.groups import cyclic_group, product_group
from toruskit.lattices import FGAbelian
from toruskit.tamagawa import (PMAX_LIMIT, POINTS_LIMIT, canonical_coefficients,
                               gm_adelic_check, local_volume, simpson, tamagawa_number)
from toruskit.tori import make_torus

from support import conjugate, random_unimodular

GM = AbelianGaloisDatum(1)
QI = AbelianGaloisDatum(4)


def test_local_volume_gm():
    t = make_torus(GM, "split", dim=1)
    for p in (2, 3, 5, 101):
        assert local_volume(t, p) == Fraction(p - 1, p)


def test_local_volume_res_gaussian():
    t = make_torus(QI, "res")
    assert local_volume(t, 5) == Fraction(16, 25)
    assert local_volume(t, 3) == Fraction(8, 9)
    with pytest.raises(RamifiedPrimeError):
        local_volume(t, 2)


def test_canonical_coefficients_gm():
    t = make_torus(GM, "split", dim=1)
    assert canonical_coefficients(t, 5) == {2: Fraction(2), 3: Fraction(3, 2),
                                            5: Fraction(5, 4)}
    with pytest.raises(ValueError):
        canonical_coefficients(t, 1)


def test_canonical_coefficients_ramified_is_one():
    t = make_torus(QI, "res")
    coeffs = canonical_coefficients(t, 7)
    assert coeffs[2] == 1
    assert coeffs[3] == Fraction(9, 8)


def test_canonical_coefficients_split_square():
    t = make_torus(GM, "split", dim=2)
    assert canonical_coefficients(t, 3)[3] == Fraction(9, 4)


def test_coefficients_times_volume_is_one_off_s():
    for t in (make_torus(GM, "split", dim=1), make_torus(QI, "res"),
              make_torus(QI, "norm_one")):
        coeffs = canonical_coefficients(t, 10 ** 4)
        ramified = t.splitting.ramified
        for p, lam in coeffs.items():
            if p not in ramified:
                assert lam * local_volume(t, p) == 1


def test_coefficients_need_arithmetic_datum():
    with pytest.raises(UnsupportedRequestError):
        canonical_coefficients(make_torus(cyclic_group(2), "res"), 10)


def test_tamagawa_gm():
    assert tamagawa_number(make_torus(GM, "split", dim=1)) == 1


def test_tamagawa_res_abstract_groups():
    c2 = cyclic_group(2)
    for g in (cyclic_group(1), c2, cyclic_group(5), product_group(c2, c2)):
        assert tamagawa_number(make_torus(g, "res")) == 1


def test_tamagawa_norm_one_quadratic():
    assert tamagawa_number(make_torus(QI, "norm_one")) == 2


def test_tamagawa_cyclic_is_h1_order():
    for n in (2, 3, 4, 5, 6, 8):
        g = cyclic_group(n)
        t = make_torus(g, "norm_one")
        h1 = cohomology(g, t.X, 1)
        assert tamagawa_number(t) == h1.order() == n


# The distinct data (modulus, subgroup) of perfbench's cold_tamagawa workload,
# |G| = 2, 4, 8 and 16.
COLD_TAMAGAWA_DATA = [
    (4, None), (8, (1, 3)), (12, (1, 5)),
    (5, None), (12, None), (16, (1, 7)),
    (15, None), (24, None), (40, (1, 9)), (60, (1, 49)),
    (120, (1, 49)), (17, None), (32, None), (40, None), (48, None),
]


def test_tamagawa_multiplicative_over_products():
    # H^1 and H^2 are additive over a direct sum of lattices, and so is
    # restriction to each cyclic subgroup, so tau_omega, #H^1 and #Sha^2_omega
    # of a product are the products of the factors'.  Every pair of kinds,
    # so2 where |G| = 2; about 0.2 s for all fifteen data.
    def invariants(t):
        return (tamagawa_number(t), cohomology(t.group, t.X, 1).order(),
                sha2_cyclic(t.group, t.X).order())

    for modulus, subgroup in COLD_TAMAGAWA_DATA:
        datum = AbelianGaloisDatum(modulus, subgroup)
        kinds = ["split", "res", "norm_one"] + (["so2"] if datum.group.order == 2 else [])
        tori = {kind: make_torus(datum, kind) for kind in kinds}
        alone = {kind: invariants(t) for kind, t in tori.items()}
        for a, b in itertools.combinations_with_replacement(kinds, 2):
            product = make_torus(datum, "product", factors=[tori[a], tori[b]])
            want = tuple(x * y for x, y in zip(alone[a], alone[b]))
            assert invariants(product) == want, (modulus, subgroup, a, b)


def _partitions(n, largest=None):
    """The partitions of n, parts non-increasing."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _abelian_groups(limit):
    """Every abelian group of order <= limit, once, as its primary parts
    {p: (e1, e2, ...)}: the sum of the Z/p^e."""
    for n in range(1, limit + 1):
        exponents, m, p = {}, n, 2
        while m > 1:
            while m % p == 0:
                exponents[p] = exponents.get(p, 0) + 1
                m //= p
            p += 1
        for parts in itertools.product(*map(_partitions, exponents.values())):
            yield dict(zip(exponents, parts))


def _invariant_factors(primary):
    """d1 | d2 | ... of the sum of the Z/p^e over primary = {p: exponents}: the
    i-th largest exponent of each p goes into the i-th largest factor."""
    out = [1] * max(map(len, primary.values()), default=0)
    for p, es in primary.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            out[-1 - i] *= p ** e
    return tuple(out)


def test_norm_one_and_res_over_every_abelian_group_up_to_64():
    # For abelian G, H^1(G, J_G) = H^2(G, Z) = G^ = G and H^2(G, J_G) =
    # H^3(G, Z) = wedge^2 G, whose primary parts are the Z/p^min(a, b) over
    # pairs of the Z/p^a of G; so tau_omega(J_G) = |G| / #wedge^2 G, and
    # tau_omega(R_G) = 1.  All 117 groups, about 1.3 s.
    count = 0
    for primary in _abelian_groups(64):
        cyclic = [cyclic_group(p ** e) for p, es in primary.items() for e in es]
        g = functools.reduce(product_group, cyclic) if cyclic else cyclic_group(1)
        wedge = {p: [min(a, b) for a, b in itertools.combinations(es, 2)]
                 for p, es in primary.items()}
        j = make_torus(g, "norm_one")
        assert cohomology(g, j.X, 1) == FGAbelian(0, _invariant_factors(primary)), primary
        assert cohomology(g, j.X, 2) == FGAbelian(0, _invariant_factors(wedge)), primary
        wedge_order = math.prod(p ** e for p, es in wedge.items() for e in es)
        assert tamagawa_number(j) == Fraction(g.order, wedge_order), primary
        assert tamagawa_number(make_torus(g, "res")) == 1, primary
        count += 1
    assert count == 117


def test_tamagawa_invariant_under_basis_change():
    rng = random.Random(71)
    t = make_torus(AbelianGaloisDatum(8), "norm_one")
    tau = tamagawa_number(t)
    for _ in range(3):
        u = random_unimodular(t.dim, rng)
        twisted = make_torus(t.splitting, "lattice", matrices=[
            m.tolist() for m in conjugate(t.X, u).action])
        assert tamagawa_number(twisted) == tau


def test_same_field_different_presentations_agree():
    # (Z/4)^x/{1} and (Z/8)^x/{1,5} both cut out the Gaussian field: every
    # invariant must agree across the two presentations
    import math
    from toruskit.arith import residue
    a = AbelianGaloisDatum(4)
    b = AbelianGaloisDatum(8, [1, 5])
    for kind in ("res", "norm_one"):
        ta, tb = make_torus(a, kind), make_torus(b, kind)
        assert tamagawa_number(ta) == tamagawa_number(tb)
        assert abs(residue(ta).rho - residue(tb).rho) <= 1e-12
        for p in (3, 5, 7, 11, 13):
            assert local_volume(ta, p) == local_volume(tb, p)


def test_gm_adelic_check_defaults():
    result = gm_adelic_check()
    assert result.deviation <= 1e-3
    assert result.coefficient_volume_product == 1


def test_gm_adelic_check_pmax_independence():
    # every factor cancels exactly, so the rational part never moves
    a = gm_adelic_check(2)
    b = gm_adelic_check(500)
    assert a.tau_hat == b.tau_hat == 0.9999999695400408
    assert a.coefficient_volume_product == b.coefficient_volume_product == 1


def test_gm_adelic_check_grid_too_coarse():
    with pytest.raises(ValueError):
        gm_adelic_check(10, points=11)


@pytest.mark.parametrize("points, tau_hat", [
    (2000, 0.9999999695400404),  # even count: Cartwright's last-interval correction
    (1001, 0.9999999695400407),
])
def test_gm_adelic_check_pinned_quadrature(points, tau_hat):
    assert gm_adelic_check(20, points=points).tau_hat == tau_hat


@pytest.mark.parametrize("n", [3, 4, 9, 10, 51, 52])
def test_simpson_exact_on_quadratics(n):
    # the rule is exact for quadratics on any spacing, odd or even count
    x = np.sort(np.random.default_rng(n).uniform(-1.0, 2.0, n))
    y = 3.0 * x * x - x + 0.5
    exact = (x[-1] ** 3 - x[0] ** 3) - (x[-1] ** 2 - x[0] ** 2) / 2 + (x[-1] - x[0]) / 2
    assert simpson(y, x) == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_simpson_matches_scipy_bit_for_bit():
    # 129 and 257 cross the pairwise sum's 128-term blocks, 8193 and 50001
    # split it several levels deep; lists and arrays give the same float.
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(5)
    for n in list(range(3, 40)) + [1000, 1001, 129, 257, 8193, 50001]:
        for x in (np.linspace(-18.0, 2.5, n), np.sort(rng.uniform(0.0, 8.0, n))):
            y = np.exp(-x * x) + rng.normal(size=n)
            want = scipy_integrate.simpson(y, x=x)
            assert simpson(y, x) == want
            assert simpson(y.tolist(), x.tolist()) == want


@pytest.mark.parametrize("y, x, fragment", [
    pytest.param([1.0] * 5, [float(i) for i in range(7)], "one abscissa per sample, got 7 for 5",
                 id="lengths"),
    pytest.param([1.0, 1.0], [0.0, 1.0], "at least 3 samples, got 2", id="two"),
    pytest.param([], [], "at least 3 samples, got 0", id="empty"),
    pytest.param([1, 2, 3], [0, 0, 1], "increasing abscissae", id="repeated"),
    pytest.param([1, 2, 3], [2, 1, 0], "increasing abscissae", id="decreasing"),
    pytest.param([1, 2, 3], [0, float("nan"), 1], "increasing abscissae", id="nan"),
])
def test_simpson_argument_checks(y, x, fragment):
    with pytest.raises(ValueError, match=fragment):
        simpson(y, x)


def test_import_loads_no_scipy():
    import os
    import subprocess
    import sys

    import toruskit
    src = os.path.dirname(os.path.dirname(toruskit.__file__))
    code = ("import sys, toruskit; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_numpy():
    # The package runs on the standard library; numpy is a test extra.
    import os
    import subprocess
    import sys

    import toruskit
    src = os.path.dirname(os.path.dirname(toruskit.__file__))
    code = ("import sys, toruskit, toruskit.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'numpy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_dataclasses():
    # Records are plain classes: importing dataclasses would pull in inspect
    # (and ast, dis, tokenize), which a bare interpreter does not load.
    import os
    import subprocess
    import sys

    import toruskit
    src = os.path.dirname(os.path.dirname(toruskit.__file__))
    code = ("import sys, toruskit, toruskit.cli; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: gm_adelic_check(pmax=1), ValueError, "at least 2", id="pmax"),
    pytest.param(lambda: gm_adelic_check(points=5), ValueError,
                 "quadrature points must be at least 9", id="coarse"),
    pytest.param(lambda: gm_adelic_check(pmax=PMAX_LIMIT + 1), UnsupportedRequestError,
                 f"pmax is bounded by {PMAX_LIMIT}", id="pmax-bound"),
    pytest.param(lambda: canonical_coefficients(make_torus(QI, "res"), PMAX_LIMIT + 1),
                 UnsupportedRequestError, f"pmax is bounded by {PMAX_LIMIT}",
                 id="coefficients-bound"),
    pytest.param(lambda: gm_adelic_check(points=POINTS_LIMIT + 1),
                 UnsupportedRequestError, f"points are bounded by {POINTS_LIMIT}",
                 id="points-bound"),
    # Integer arguments are read by linalg.integer: a float or a string is no
    # count, and JSON true is not 1.
    pytest.param(lambda: canonical_coefficients(make_torus(QI, "res"), 100.5), TypeError,
                 "integer", id="coefficients-float"),
    pytest.param(lambda: canonical_coefficients(make_torus(QI, "res"), True), TypeError,
                 "integer", id="coefficients-bool"),
    pytest.param(lambda: gm_adelic_check(pmax=100.5), TypeError, "integer", id="pmax-float"),
    pytest.param(lambda: gm_adelic_check(pmax=True), TypeError, "integer", id="pmax-bool"),
    pytest.param(lambda: gm_adelic_check(points=True), TypeError, "integer", id="points-bool"),
    pytest.param(lambda: gm_adelic_check(points="101"), TypeError, "integer", id="points-str"),
])
def test_tamagawa_argument_checks(call, error, fragment):
    # The bounds refuse before a sieve or a grid of that size is allocated.
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)
