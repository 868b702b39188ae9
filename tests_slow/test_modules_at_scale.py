"""Presented modules, Sha^2, packed H^q, caller stacks and derived lattices at |G| <= 256;
maximal cyclic spans up to |G| = 1728."""

import sys
from random import Random
from time import perf_counter

import numpy as np
import pytest

from toruskit import linalg
from toruskit.arith import AbelianGaloisDatum
from toruskit.cohomology import cohomology, restriction_map, sha2_cyclic
from toruskit.groups import cyclic_subgroups, generating_set
from toruskit.lattices import (GLattice, GModulePresentation, direct_sum, direct_sum_all, dual,
                               glattice, induce, presentation_mod, restrict, trivial_lattice)
from toruskit.tori import make_torus

from support import (abelian, bar_presented_cohomology, in_child, maximal_by_inclusion,
                     maximal_cyclic_subgroups, random_glattice, reference_action_error,
                     scrambled_presentation, sha2_over_every_cyclic_subgroup)

SQUARES_840 = (1, 121, 169, 289, 361, 529)


def test_presented_module_in_a_scrambled_frame_at_order_16():
    """presentation_mod's relations 6 I have the Smith frame U = I; for
    (6 P, P X P^-1), P unimodular, validation, the relation cone and H^0-H^2
    run in a scrambled frame and must agree.  Tier-1 covers presented modules
    up to |G| = 8; about 2 s."""
    t = make_torus(AbelianGaloisDatum(120, (1, 49)), "norm_one")
    moved = scrambled_presentation(t.X, 6, Random(7))
    assert moved.action != t.X.action
    plain = presentation_mod(t.X, 6)
    for q in (0, 1, 2):
        assert cohomology(t.group, plain, q) == cohomology(t.group, moved, q), q


def _sha2_both_ways():
    for name, splitting, split_factor in (
            ("840/squares", AbelianGaloisDatum(840, SQUARES_840), False),
            ("(Z/260)^x", AbelianGaloisDatum(260), False),
            ("C4 x C8", abelian(4, 8), False), ("C2^5", abelian(*[2] * 5), False),
            ("C2^8", abelian(*[2] * 8), True)):
        start = perf_counter()
        x = make_torus(splitting, "norm_one")
        if split_factor:
            t = make_torus(splitting, "product", factors=[x, make_torus(splitting, "split", dim=1)])
            g, m = t.group, t.X
        else:
            g, m = x.group, direct_sum(x.X, trivial_lattice(x.group, 1))
        built = perf_counter()
        got = sha2_cyclic(g, m)
        restriction_map.cache_clear()
        fast = perf_counter()
        want = sha2_over_every_cyclic_subgroup(g, m)
        done = perf_counter()
        assert got == want, (name, got, want)
        print(f"{name} (|G| = {g.order}, rank {m.rank}): Sha^2 = {got}, "
              f"build {built - start:.2f} s, sha2_cyclic {fast - built:.2f} s, "
              f"every cyclic subgroup {done - fast:.2f} s")


def test_sha2_on_maximal_cyclic_subgroups_against_every_cyclic_subgroup():
    """sha2_cyclic builds no restriction map: it splits the lattice into the
    blocks of its generators' support and reads each block's Sha^2 off d^1
    stacked with the corestricted 1-cycles of the maximal cyclic subgroups C
    with H^2(C, M) != 0; tests/support.py restricts to every cyclic subgroup
    and takes the kernel over all of them.  Tier-1 compares the two up to
    |G| = 16 and on C4 x C12.  Here on norm-one plus Z over 840/squares,
    (Z/260)^x, C4 x C8 and C2^5, and on the norm-one times split-1 product
    over C2^8, where every nontrivial cyclic subgroup has a nonzero H^2.  The
    oracle starts from a cleared restriction cache.  Measured 3.5-3.7 s in
    all, C2^8 alone 0.06-0.07 s build + 0.68-0.71 s sha2_cyclic + 1.93-2.06 s
    oracle (three runs), peaking at 166 MB (Python 3.11, a shared 2-vCPU
    machine); must stay under 60 s."""
    _, took, _ = in_child(_sha2_both_ways)
    assert took < 60, took


def _maximal_spans_both_ways():
    for name, g in (("(Z/1001)^x", AbelianGaloisDatum(1001).group),
                    ("(Z/4095)^x", AbelianGaloisDatum(4095).group),
                    ("(Z/3315)^x", AbelianGaloisDatum(3315).group), ("C2^9", abelian(*[2] * 9))):
        start = perf_counter()
        got = maximal_cyclic_subgroups(g)
        closed = perf_counter()
        want = maximal_by_inclusion(cyclic_subgroups(g))
        done = perf_counter()
        assert got == want, name
        print(f"{name} (|G| = {g.order}): {len(got)} maximal cyclic subgroups, closed form "
              f"{closed - start:.2f} s, pairwise inclusion {done - closed:.2f} s")


def test_maximal_cyclic_spans_in_closed_form_at_scale():
    """sha2_cyclic walks the maximal cyclic subgroups of an abelian G in
    closed form: <x> is maximal exactly when x is no p-th power for any
    prime p dividing |G|, read off x's exponent vector.  That rests on two
    facts: <x> is the sum of the <x_p> over the p-primary parts x_p of x, and
    in an abelian p-group <y> lies strictly inside a cyclic <z> exactly when
    y is a p-th power; the trivial group keeps its one span.  Tier-1 checks
    it against pairwise inclusion on (Z/n)^x, n <= 120, and on products of
    mixed orders; here on the mixed orders of (Z/1001)^x (C2 x C6 x C60),
    (Z/4095)^x (C2 x C6 x C12 x C12) and (Z/3315)^x (C2 x C4 x C4 x C48),
    and on C2^9, in one fresh process.  Measured 2.6 s with the spawn, the
    two routes 0.1 s of it (Python 3.11, a shared 2-vCPU machine); must stay
    under 60 s."""
    _, took, _ = in_child(_maximal_spans_both_ways)
    assert took < 60, took


def _packed_and_integer_h1_h2():
    engine = sys.modules["toruskit.cohomology"]
    cases = []
    for name, splitting in (("C2^5", abelian(*[2] * 5)), ("C2^6", abelian(*[2] * 6)),
                            ("C2^7", abelian(*[2] * 7)), ("C4 x C8", abelian(4, 8)),
                            ("C4^3", abelian(4, 4, 4)),
                            ("840/squares", AbelianGaloisDatum(840, SQUARES_840))):
        tori = [make_torus(splitting, kind, **extra)
                for kind, extra in (("norm_one", {}), ("res", {}), ("split", {"dim": 1}))]
        cases.append((name, tori[0].group, [t.X for t in tori] + [
            direct_sum_all([t.X for t in tori]), dual(tori[0].X)]))
    for n in (64, 128):  # one long cyclic factor, where the two routes' costs meet
        g = abelian(n)
        cases.append((f"C{n}", g, [make_torus(g, "norm_one").X,
                                   random_glattice(g, 2, Random(n))]))
    for name, g, modules in cases:
        spent = {}
        for cells in (10 ** 12, 0):  # every D packed, then every D on the integer Smith form
            engine._PACKED_CELLS = cells
            cohomology.cache_clear()
            began = perf_counter()
            groups = [cohomology(g, m, q) for m in modules for q in (1, 2)]
            spent[cells] = groups, perf_counter() - began
        assert spent[0][0] == spent[10 ** 12][0], name
        print(f"{name} (|G| = {g.order}): H^1, H^2 of {len(modules)} lattices up to rank "
              f"{max(m.rank for m in modules)} agree; packed {spent[10 ** 12][1]:.2f} s, "
              f"integer {spent[0][1]:.2f} s")


def test_packed_2adic_h1_h2_against_the_integer_smith_form():
    """At |G| = 2^v cohomology reads H^1 and H^2 off D^(q-1) packed mod
    2^(v+1) while D has fewer than _PACKED_CELLS entries; tier-1 compares that
    with the integer Smith form up to |G| = 16.  Here the norm-one, res and
    split-1 tori, their sum and the dual of the norm-one lattice over C2^5,
    C2^6, C2^7, C4 x C8, C4^3 and 840/squares, and the norm-one torus and a
    random lattice of rank at most 2 over C64 and C128, with the constant
    forced both ways in a fresh process: every D packed (up to the 7168 x
    1792 d^1 of the rank-256 sum over C2^7), then every D on the integer
    Smith form.  Measured 1.9 s in all at an 88 MB peak, C64 and C128 under
    0.02 s each way (Python 3.11, a shared 2-vCPU machine); must stay under
    60 s."""
    _, took, _ = in_child(_packed_and_integer_h1_h2)
    assert took < 60, took


def _presented_norm_one_mod_m():
    engine = sys.modules["toruskit.cohomology"]
    g = abelian(*[2] * 8)
    x = make_torus(g, "norm_one").X
    began = perf_counter()
    coprime = [cohomology(g, presentation_mod(x, m), q) for m in (3, 5) for q in (1, 2)]
    took = perf_counter() - began
    g = abelian(*[2] * 7)
    x = make_torus(g, "norm_one").X
    mod_2 = {}
    for cells in (10 ** 12, 0):  # every D packed, then every D on the integer Smith form
        engine._PACKED_CELLS = cells
        cohomology.cache_clear()
        mod_2[cells] = [cohomology(g, presentation_mod(x, 2), q) for q in (1, 2)]
    return coprime, took, mod_2[10 ** 12], mod_2[0]


def test_presented_norm_one_mod_m_at_128_and_256():
    """For q >= 1 gcd(exponent, |G|) kills H^q of a presented module, so over
    C2^8 the norm-one lattice mod 3 and mod 5 has H^1 = H^2 = 0, read with no
    elimination: the four calls must take under 1 s together.  (Before that
    rule the cone was eliminated in full: 20.7 s for H^2 mod 3 alone.)  Mod 2
    over C2^7 (g = 2), the cone packed mod 4, up to its 14224 x 4445 D^1,
    must give the integer Smith form's answers, C2^28 and C2^84.  Measured 0.01 s for the four
    coprime calls, and 2.0 s packed against 1.9 s integer at C2^7 (Python
    3.11, a shared 2-vCPU machine); runs in a fresh process."""
    (coprime, took, packed, integer), _, _ = in_child(_presented_norm_one_mod_m)
    assert all(h.is_trivial() for h in coprime), coprime
    assert took < 1, took
    assert packed == integer
    assert [len(h.torsion) for h in packed] == [28, 84], packed


@pytest.mark.parametrize("modulus, moduli", [(7, (2, 3, 5, 6)), (24, (2, 3, 4, 6))],
                         ids=["C6", "C2^3"])
def test_presented_split_2_against_the_bar_complex_at_6_and_8(modulus, moduli):
    """Tier-1 holds presented H^2 against the bar complex up to |G| = 4.
    Here Z^2 with the trivial action, mod m, over (Z/7)^x = C6 and (Z/24)^x
    = C2^3, which covers every route of g = gcd(m, |G|): g = 1 eliminates
    nothing (C6 mod 5, C2^3 mod 3), g = 2 and 4 are packed mod 4 and 8 on the
    mixed order C6 and on C2^3, and g = 3 and 6 take the integer Smith form.
    The bar complex is the cost: measured 0.3 s per modulus over C6 and
    2.0-2.6 s over C2^3 (Python 3.11, a shared 2-vCPU machine)."""
    g = AbelianGaloisDatum(modulus).group
    for m in moduli:
        pres = presentation_mod(trivial_lattice(g, 2), m)
        for q in (1, 2):
            fg = cohomology(g, pres, q)
            assert (fg.free_rank, fg.torsion) == bar_presented_cohomology(pres, q), (m, q)


def _caller_stacks_at_128():
    g = abelian(*[2] * 7)
    x = make_torus(g, "norm_one").X
    nested = [m.tolist() for m in x.action]
    assert glattice(g, nested) == x
    start = perf_counter()
    assert GLattice(g, x.action) == x
    matrix_read = perf_counter() - start
    with pytest.raises(TypeError):
        linalg.Matrix((1, 1), (((0, 2.5),),))
    gens = generating_set(g)
    bad = max(a for a in g.elements() if a != g.identity and a not in gens)
    other = next(b for b in g.elements() if b not in (g.identity, bad))
    swapped = nested[:bad] + [nested[other]] + nested[bad + 1:]
    with pytest.raises(ValueError, match="group law"):
        glattice(g, swapped)
    GModulePresentation(g, linalg.diag((3,) * x.rank), nested)
    moved = scrambled_presentation(x, 6, Random(7))
    assert [m.tolist() for m in moved.action] != nested
    h0 = cohomology(g, presentation_mod(x, 6), 0)
    assert cohomology(g, moved, 0) == h0, h0
    print(f"C2^7 norm-one stack of rank {x.rank}: accepted, read from its Matrix stack in "
          f"{matrix_read:.3f} s, swapped element {bad} refused, accepted mod 3, and mod 6 "
          f"in a scrambled frame with H^0 = {h0}")


def test_caller_stacks_at_order_128_through_the_probe():
    """Only caller data is probed, and tier-1 probes no stack of more than
    4096 entries (|G| n^2).  Here the rank-127 norm-one stack over C2^7
    (2 million entries) comes back as nested lists: it must be accepted, the
    same stack with the matrix of an element outside the generating set
    swapped for another must fail the group law, and its presentation mod 3
    must be accepted.  So must its presentation mod 6 in a scrambled frame
    (6 P, P X P^-1), whose Smith frame and group law are checked with stack
    products; its H^0 must be that of presentation_mod(X, 6).  Handed over as
    the lattice's own Matrix stack, it is read once, with no entry read again
    (every Matrix was checked when it was built), and probed: the lattice
    must equal X.  A hand-built Matrix with a float entry must raise
    TypeError as it is built.  Measured 1.1-1.2 s at a 78 MB peak, the
    Matrix-stack read 0.07 s (Python 3.11, one core of a shared 2-vCPU
    machine); runs in a fresh process."""
    in_child(_caller_stacks_at_128)


@pytest.mark.parametrize("modulus, squares", [(120, (1, 49)), (840, SQUARES_840)],
                         ids=["120-C2^4", "840-C2^5"])
def test_derived_lattices_at_16_and_32_against_full_products(modulus, squares):
    """Restricted, dual, summed, induced and quotient lattices skip the
    group-law probe; tier-1 checks them against full products up to |G| = 8.
    Here, on the witness 120/{1,49} (C2^4) and on 840/squares (C2^5): every
    cyclic restriction of the norm-one lattice (written off the group table),
    its dual, the sum of norm-one, res and split 1, and a lattice induced from
    a cyclic subgroup.  The check multiplies every pair of matrices in int64
    arrays read off each stack's rows, which is exact while
    rank * (largest entry)^2 < 2^62; in object arrays the rank-64 sum alone
    takes about 4 s.  Measured 0.5-0.8 s (Python 3.11, a shared 2-vCPU
    machine)."""
    datum = AbelianGaloisDatum(modulus, squares)
    x, res = make_torus(datum, "norm_one").X, make_torus(datum, "res").X
    g, cyclic = x.group, cyclic_subgroups(x.group)
    c = cyclic[-1]
    derived = [restrict(x, h) for h in cyclic] + [
        dual(x), direct_sum_all([x, res, trivial_lattice(g, 1)]),
        induce(c, random_glattice(c.as_group(), 2, Random(16)))]
    for m in derived:
        top = max((abs(v) for a in m.action for _, _, v in a.items()), default=0)
        assert m.rank * top * top < 2 ** 62, m
        stack = np.array([a.tolist() for a in m.action], dtype=np.int64)
        assert reference_action_error(m.group, stack) is None, m
