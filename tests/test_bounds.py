"""Every count toruskit takes is read by ``linalg.bounded``, under one rule:
below its floor a count is malformed (``ValueError``, CLI exit 2), above its
bound it is outside what toruskit computes (``UnsupportedRequestError``, exit
3), refused before anything of that size is built, and JSON true is no count
(``TypeError``)."""

import tracemalloc
from argparse import Namespace
from functools import partial
from time import perf_counter

import pytest

from toruskit import cli, linalg
from toruskit.arith import AbelianGaloisDatum, characters
from toruskit.cohomology import cohomology, cohomology_classes, restrict_cochain, restriction_map
from toruskit.errors import UnsupportedRequestError
from toruskit.groups import (MODULUS_LIMIT, ORDER_LIMIT, cyclic_group, cyclotomic_quotient_group,
                             product_group, trivial_subgroup, units_mod)
from toruskit.lattices import (direct_sum_all, induce, presentation_mod, regular_lattice,
                               trivial_lattice)
from toruskit.tamagawa import PMAX_LIMIT, POINTS_LIMIT, canonical_coefficients, gm_adelic_check
from toruskit.tori import make_torus

C1, C2, C3 = cyclic_group(1), cyclic_group(2), cyclic_group(3)
REG = regular_lattice(C2)
QI_RES = make_torus(AbelianGaloisDatum(4), "res")

# (make, floor, limit, name, verb): make(n) builds the inputs and returns the
# call that reads the count n.  A count the package derives (a product's
# order, a sum's rank) has no floor a caller can cross and is passed no True.
SITES = [
    pytest.param(lambda n: partial(cyclic_group, n), 1, ORDER_LIMIT, "group order", "is",
                 id="cyclic_group"),
    pytest.param(lambda n: partial(product_group, C3, cyclic_group(n // 3)), None, ORDER_LIMIT,
                 "group order", "is", id="product_group"),  # 2049 = 3 * 683
    pytest.param(lambda n: partial(units_mod, n), 1, MODULUS_LIMIT, "modulus", "is",
                 id="units_mod"),
    pytest.param(lambda n: partial(cyclotomic_quotient_group, 2 * n + 1, (1, 2 * n)), None,
                 ORDER_LIMIT, "group order", "is", id="cyclotomic-cosets"),  # 4099 is prime
    pytest.param(lambda n: partial(trivial_lattice, C2, n), 0, ORDER_LIMIT, "lattice rank",
                 "is", id="trivial_lattice"),
    pytest.param(lambda n: partial(induce, trivial_subgroup(C3), trivial_lattice(C1, n // 3)),
                 None, ORDER_LIMIT, "lattice rank", "is", id="induce"),
    pytest.param(lambda n: partial(direct_sum_all, [trivial_lattice(C2, n - 1),
                                                    trivial_lattice(C2, 1)]),
                 None, ORDER_LIMIT, "lattice rank", "is", id="direct_sum_all"),
    pytest.param(lambda n: partial(presentation_mod, REG, n), 1, None, "modulus", "is",
                 id="presentation_mod"),
    pytest.param(lambda n: partial(AbelianGaloisDatum, n), 1, MODULUS_LIMIT, "modulus", "is",
                 id="datum-modulus"),
    pytest.param(lambda n: partial(canonical_coefficients, QI_RES, n), 2, PMAX_LIMIT, "pmax",
                 "is", id="canonical_coefficients"),
    pytest.param(lambda n: partial(gm_adelic_check, pmax=n), 2, PMAX_LIMIT, "pmax", "is",
                 id="gm-pmax"),
    pytest.param(lambda n: partial(gm_adelic_check, points=n), 9, POINTS_LIMIT,
                 "quadrature points", "are", id="gm-points"),
    pytest.param(lambda n: partial(cli.cmd_residue, Namespace(prec=n, file="unread.json")), 1,
                 cli.PREC_LIMIT, "--prec", "is", id="residue-prec"),
    pytest.param(lambda q: partial(cohomology, C2, REG, q), 0, 2, "cohomology degree", "is",
                 id="cohomology"),
    pytest.param(lambda q: partial(cohomology_classes, REG, q), 1, 2, "cocycle degree", "is",
                 id="cohomology_classes"),
    pytest.param(lambda q: partial(restrict_cochain, REG, trivial_subgroup(C2), q,
                                   linalg.zeros(2, 1)), 0, 2, "cochain degree", "is",
                 id="restrict_cochain"),
    pytest.param(lambda q: partial(restriction_map, C2, REG, trivial_subgroup(C2), q), 1, 2,
                 "restriction degree", "is", id="restriction_map"),
]


@pytest.mark.parametrize("make, floor, limit, name, verb", SITES)
def test_every_count_is_read_by_one_rule(make, floor, limit, name, verb):
    if floor is not None:
        with pytest.raises(ValueError) as exc:
            make(floor - 1)()
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{name} must be at least {floor}, got {floor - 1}"
        with pytest.raises(TypeError, match="expected an integer"):
            make(True)()
    if limit is not None:
        call = make(limit + 1)
        tracemalloc.start()
        start = perf_counter()
        try:
            with pytest.raises(UnsupportedRequestError) as exc:
                call()
            elapsed, peak = perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"{name} {verb} bounded by {limit}, got {limit + 1}"
        assert elapsed < 0.1 and peak < 10 ** 6, (elapsed, peak)


def test_character_table_is_bounded_before_it_is_built():
    # (Z/2^19)^x/<5^64>: |G| = 128 characters of phi = 262144 exponents each
    n, g = 2 ** 19, pow(5, 64, 2 ** 19)
    datum = AbelianGaloisDatum(n, {pow(g, i, n) for i in range(2048)})
    assert datum.group.order == 128
    tracemalloc.start()
    start = perf_counter()
    try:
        with pytest.raises(UnsupportedRequestError) as exc:
            characters(datum)
        elapsed, peak = perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "character table entries are bounded by 10000000, got 33554432"
    assert elapsed < 0.1 and peak < 10 ** 6, (elapsed, peak)
