"""Norm-one tori from |G| = 96 to 1728 against the wedge^2 formula and quotient_lattice."""

from fractions import Fraction
from time import perf_counter

import pytest

from toruskit.arith import AbelianGaloisDatum
from toruskit.cohomology import cohomology
from toruskit.groups import abelian_decomposition
from toruskit.lattices import FGAbelian, norm_vector, quotient_lattice, regular_lattice
from toruskit.tamagawa import tamagawa_number
from toruskit.tori import make_torus

from support import abelian, in_child, norm_one_tau


def _taus_at_96_128_and_256():
    for splitting, tau in ((AbelianGaloisDatum(260, None), Fraction(6)),
                           (abelian(*[2] * 7), Fraction(1, 16384)),
                           (abelian(*[2] * 8), Fraction(1, 1048576))):
        start = perf_counter()
        t = make_torus(splitting, "norm_one")
        built = perf_counter()
        n = FGAbelian.from_divisors(abelian_decomposition(t.group).orders).torsion
        assert norm_one_tau(n) == tau, n
        before = cohomology.cache_info().currsize
        assert tamagawa_number(t) == tau, (n, tamagawa_number(t))
        done = perf_counter()
        added = cohomology.cache_info().currsize - before
        assert added <= 2, (n, added)
        print(f"norm-one torus over {' x '.join(f'C{d}' for d in n)}: tau = {tau}, {added} "
              f"cohomology cache entries, build {built - start:.2f} s + tau {done - built:.2f} s")


def test_norm_one_tau_at_96_128_and_256():
    """(Z/260)^x = C2 x C4 x C12, C2^7 and C2^8, rank 95, 127 and 255, in one
    fresh process.  tau must be |G| / #wedge^2 G read off the invariant
    factors: 96/16 = 6, 128/2^21 = 1/16384 and 256/2^28 = 1/1048576.
    Restriction reads each cyclic subgroup off the lattice's own matrices, so
    each tau adds at most two entries to cohomology's cache: H^1 and H^2 of
    G's own lattice.  Build plus tau took 0.00 + 0.04-0.06 s, 0.00 + 0.13-0.22 s
    and 0.01-0.02 + 0.50-0.77 s in three fresh processes each (Python 3.11, a
    shared 2-vCPU machine), peaking at 18, 26-27 and 48 MB; H^1 over C2^7 and
    C2^8 takes the packed 2-adic route, the rest the integer Smith form."""
    _, _, peak = in_child(_taus_at_96_128_and_256)
    print(f"peak RSS {peak:.0f} MB")


def _tau(orders):
    start = perf_counter()
    t = make_torus(abelian(*orders), "norm_one")
    built = perf_counter()
    tau = tamagawa_number(t)
    assert tau == norm_one_tau(orders), (orders, tau)
    print(f"norm-one torus over {' x '.join(f'C{a}' for a in orders)}: tau = {tau}, "
          f"build {built - start:.2f} s + tau {perf_counter() - built:.2f} s")


@pytest.mark.parametrize("orders", [(2,) * 9, (4, 8, 16), (2,) * 10],
                         ids=["C2^9", "C4xC8xC16", "C2^10"])
def test_norm_one_tau_at_512_and_1024(orders):
    """|G| = 512, 512 and 1024, one fresh process each.  tau must be
    |G| / #wedge^2 G: 512/2^36 = 1/134217728, 512/128 = 4 and
    1024/2^45 = 1/34359738368.  Group plus lattice build, then tau, took
    0.30-0.46 + 1.63-1.95 s at 113 MB, 0.16-0.23 + 0.36-0.44 s at 56 MB and
    1.23-1.30 + 5.38-6.74 s at 320 MB in three runs (Python 3.11, a shared
    2-vCPU machine whose speed varied by half between runs); only H^1 over
    C4 x C8 x C16 takes the packed 2-adic route.  Each must stay under 30 s
    and 500 MB."""
    _, took, peak = in_child(_tau, orders)
    print(f"peak RSS {peak:.0f} MB")
    assert took < 30 and peak < 500, (took, peak)


def _closed_forms_equal_quotients():
    groups = [g for g in (AbelianGaloisDatum(n, None).group for n in range(1, 300))
              if g.order <= 200]
    groups += [AbelianGaloisDatum(n, None).group for n in (1001, 4095)]
    groups.append(abelian(*[2] * 9))
    for g in groups:
        closed = make_torus(g, "norm_one").X
        reg = regular_lattice(g)
        quotient = quotient_lattice(reg, norm_vector(reg))[0]
        assert closed.action == quotient.action and hash(closed) == hash(quotient), g.order
    print(f"{len(groups)} norm-one lattices up to |G| = {max(g.order for g in groups)} "
          f"equal the quotient's")


def test_norm_one_closed_form_against_quotient_lattice_up_to_1728():
    """make_torus writes the norm-one stack off the group table; tier-1
    compares it with quotient_lattice of the regular lattice by its norm
    vector up to (Z/119)^x.  Here: every (Z/n)^x with n < 300 and |G| <= 200,
    then (Z/1001)^x (|G| = 720), (Z/4095)^x (|G| = 1728) and C2^9, stacks and
    hashes equal.  278 groups took 15-17 s and peaked at 971 MB, nearly all of
    both in quotient_lattice at |G| = 1728 (Python 3.11, a shared 2-vCPU
    machine); run in a fresh process, that peak stays out of later tests.
    Must stay under 60 s."""
    _, took, peak = in_child(_closed_forms_equal_quotients)
    print(f"{took:.1f} s, peak RSS {peak:.0f} MB")
    assert took < 60, took
