import dataclasses
import importlib
import itertools
import math
import operator
import random
import sys
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toruskit.cli  # noqa: F401  (loads every module, for the cache scan)
from toruskit import linalg
from toruskit.arith import AbelianGaloisDatum
from toruskit.cohomology import (_kernel_invariants, _restriction_map,
                                 _sha2_cyclic, bar_differential,
                                 cohomology, cohomology_classes, differential,
                                 enumerate_splittings, restrict_cochain,
                                 restriction_map, sha2_cyclic, tate_h0)
from toruskit.errors import (EnumerationBoundError, InternalInvariantError,
                             UnsupportedRequestError)
from toruskit.groups import (_CACHE_SIZE, all_subgroups, cyclic_group,
                             cyclic_subgroups, full_subgroup, product_group,
                             subgroup_closure, trivial_subgroup)
from toruskit.lattices import (FGAbelian, GModulePresentation, direct_sum,
                               glattice, induce, norm_vector, presentation_mod,
                               quotient_lattice, regular_lattice, restrict,
                               sign_lattice, trivial_lattice)

from toruskit.tamagawa import tamagawa_number
from toruskit.tori import make_torus

from support import (bar_presented_cohomology, bar_sha2, brute_force_cocycles,
                     brute_force_h1_order, fixed_point_tate_h0,
                     group_family_up_to_8, presentation_of_lattice,
                     random_glattice, random_unimodular, s3_group)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)
KLEIN = product_group(C2, C2)
SIGN = sign_lattice(C2, trivial_subgroup(C2))


def norm_one_lattice(group):
    reg = regular_lattice(group)
    return quotient_lattice(reg, norm_vector(reg))[0]


def sign_through_quotient(group, kernel_gens):
    return sign_lattice(group, subgroup_closure(group, kernel_gens))


def test_h1_c2_sign_is_z2():
    # oracle: direct cocycle solve gives |Z^1/B^1| = 2
    assert brute_force_h1_order(SIGN) == 2
    assert cohomology(C2, SIGN, 1) == FGAbelian(0, (2,))


def test_h1_regular_vanishes_small_groups():
    for g in group_family_up_to_8():
        if g.order <= 6:
            assert cohomology(g, regular_lattice(g), 1).is_trivial()


def test_h0_regular_c2_free_rank_one():
    assert cohomology(C2, regular_lattice(C2), 0) == FGAbelian.free(1)


def test_trivial_group_vanishing():
    one = cyclic_group(1)
    m = trivial_lattice(one, 3)
    assert cohomology(one, m, 1).is_trivial()
    assert cohomology(one, m, 2).is_trivial()
    assert cohomology(one, m, 0) == FGAbelian.free(3)


def test_cohomology_rejects_bad_degree():
    with pytest.raises(ValueError):
        cohomology(C2, SIGN, 3)


def test_tate_h0_examples():
    assert tate_h0(C2, trivial_lattice(C2, 1)) == FGAbelian(0, (2,))
    assert tate_h0(C2, regular_lattice(C2)).is_trivial()
    assert tate_h0(C2, SIGN).is_trivial()


def test_tate_h0_matches_fixed_point_route():
    rng = random.Random(59)
    for g in group_family_up_to_8() + [s3_group()]:
        for m in (random_glattice(g, 2, rng), random_glattice(g, 2, rng),
                  regular_lattice(g), norm_one_lattice(g)):
            assert tate_h0(g, m).torsion == fixed_point_tate_h0(m), (g, m)


def test_restriction_to_whole_group_is_identity():
    m = norm_one_lattice(KLEIN)
    rmap = restriction_map(KLEIN, m, full_subgroup(KLEIN), 2)
    assert rmap.source == rmap.target
    n = len(rmap.matrix)
    assert rmap.matrix == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_restriction_to_trivial_subgroup_is_zero():
    m = norm_one_lattice(KLEIN)
    rmap = restriction_map(KLEIN, m, trivial_subgroup(KLEIN), 2)
    assert rmap.target.is_trivial()
    assert rmap.matrix == ()


def test_restriction_sign_inflated_c4():
    # rank-1 lattice on which C4 acts through its sign quotient
    m = sign_through_quotient(C4, [2])
    h = subgroup_closure(C4, [2])
    assert cohomology(C4, m, 1) == FGAbelian(0, (2,))
    rmap = restriction_map(C4, m, h, 1)
    # the subgroup acts trivially, so H^1 restricts to Hom(C2, Z) = 0
    assert rmap.target.is_trivial()
    # brute-force check: restricting every 1-cocycle of G to H gives a coboundary
    z1, _ = brute_force_cocycles(m)
    for j in range(z1.shape[1]):
        f_at_2 = z1[2, j]  # value of the cocycle at the subgroup generator
        assert f_at_2 % 1 == 0  # lands in Z; class in H^1(C2, Z) = 0 automatically


def test_restriction_map_well_defined_under_representative_change():
    rng = random.Random(41)
    m = norm_one_lattice(KLEIN)
    h = subgroup_closure(KLEIN, [1])
    rmap = restriction_map(KLEIN, m, h, 2)
    src = cohomology_classes(m, 2)
    tgt = cohomology_classes(restrict(m, h), 2)
    d1 = differential(KLEIN, m.action, 1)
    for _ in range(5):
        shift = linalg.intmat([[rng.randrange(-3, 4)] for _ in range(d1.shape[1])])
        perturbed = src.generators + linalg.mul(d1, np.tile(shift, (1, src.generators.shape[1])))
        coords = tgt.coordinates(restrict_cochain(m, h, 2, perturbed))
        base = linalg.intmat(rmap.matrix, shape=coords.shape)
        for i, d in enumerate(tgt.fg.torsion):
            for j in range(coords.shape[1]):
                assert (int(coords[i, j]) - int(base[i, j])) % d == 0


def test_restriction_trivial_coefficients_c4_to_c2_is_onto():
    # H^2(G, Z) is the character group of G; restriction dualizes to the
    # inclusion C2 <= C4, so the order-4 generator must hit the order-2 one
    z = trivial_lattice(C4, 1)
    h = subgroup_closure(C4, [2])
    assert cohomology(C4, z, 2) == FGAbelian(0, (4,))
    assert cohomology(h.as_group(), restrict(z, h), 2) == FGAbelian(0, (2,))
    rmap = restriction_map(C4, z, h, 2)
    assert rmap.matrix[0][0] % 2 == 1  # surjective onto Z/2


def test_rank_zero_lattice():
    zero = trivial_lattice(KLEIN, 0)
    assert cohomology(KLEIN, zero, 0) == FGAbelian.free(0)
    assert cohomology(KLEIN, zero, 1).is_trivial()
    assert cohomology(KLEIN, zero, 2).is_trivial()
    assert tate_h0(KLEIN, zero).is_trivial()
    assert sha2_cyclic(KLEIN, zero).is_trivial()


def test_sha2_cyclic_group_vanishes():
    for n in (2, 3, 4, 6, 8):
        g = cyclic_group(n)
        m = norm_one_lattice(g)
        assert sha2_cyclic(g, m).is_trivial()


def test_sha2_regular_vanishes():
    for g in group_family_up_to_8():
        assert sha2_cyclic(g, regular_lattice(g)).is_trivial()


def test_sha2_klein_norm_one_is_c2():
    m = norm_one_lattice(KLEIN)
    assert cohomology(KLEIN, m, 2) == FGAbelian(0, (2,))
    assert sha2_cyclic(KLEIN, m) == FGAbelian(0, (2,))


def test_sha2_active_path_norm_one_plus_trivial():
    # Cyclic subgroups detect characters, so Sha^2(G, Z) = 0, while every
    # nontrivial cyclic subgroup has H^2(C, Z) != 0 and so constrains the
    # kernel.  Hence Sha^2(G, J_G + Z) = Sha^2(G, J_G) = H^2(G, J_G).
    c2_cubed = product_group(KLEIN, C2)
    for g, expected in ((KLEIN, (2,)), (product_group(C2, C4), (2,)),
                        (c2_cubed, (2, 2, 2))):
        m = direct_sum(norm_one_lattice(g), trivial_lattice(g, 1))
        assert sha2_cyclic(g, trivial_lattice(g, 1)).is_trivial()
        assert cohomology(g, norm_one_lattice(g), 2) == FGAbelian(0, expected)
        assert sha2_cyclic(g, m) == FGAbelian(0, expected)


def test_sha2_order_16_matches_bar_complex_through_the_cache():
    # On the 120/{1,49} norm-one torus plus Z, H^2 = C2^10 and 15 cyclic
    # subgroups have nonzero H^2 (the torus alone has none).  Sha^2 read off
    # cached restriction maps, cached itself, and recomputed after clearing
    # both caches must each be the bar complex's.
    t = make_torus(AbelianGaloisDatum(120, (1, 49)), "norm_one")
    g, m = t.group, direct_sum(t.X, trivial_lattice(t.group, 1))
    subs = cyclic_subgroups(g)
    active = sum(1 for c in subs if not restriction_map(g, m, c, 2).target.is_trivial())
    assert cohomology(g, m, 2) == FGAbelian(0, (2,) * 10) and active == 15
    want = bar_sha2(m)
    assert want == (2,) * 6
    before = _restriction_map.cache_info()
    first = sha2_cyclic(g, m)
    after = _restriction_map.cache_info()
    assert after.hits == before.hits + len(subs) and after.misses == before.misses
    sha_hits = _sha2_cyclic.cache_info().hits
    assert sha2_cyclic(g, m) is first
    assert _sha2_cyclic.cache_info().hits == sha_hits + 1
    _sha2_cyclic.cache_clear()
    _restriction_map.cache_clear()
    again = sha2_cyclic(g, m)
    assert _restriction_map.cache_info().misses == len(subs)
    assert first.torsion == again.torsion == want


def test_equal_lattices_share_restriction_and_sha2_entries():
    g = product_group(C2, C4)
    first = direct_sum(norm_one_lattice(g), trivial_lattice(g, 1))
    again = glattice(g, first.action.tolist())
    assert again is not first and again == first
    _sha2_cyclic.cache_clear()
    _restriction_map.cache_clear()
    sha = sha2_cyclic(g, first)
    assert sha == FGAbelian(0, (2,))
    subs = cyclic_subgroups(g)
    assert _sha2_cyclic.cache_info()[:2] == (0, 1)
    assert _restriction_map.cache_info()[:2] == (0, len(subs))
    assert sha2_cyclic(g, again) is sha
    assert _sha2_cyclic.cache_info()[:2] == (1, 1)
    for sub in cyclic_subgroups(g):  # equal subgroups, built again
        rmap = restriction_map(g, again, sub, 2)
        assert rmap is restriction_map(g, first, sub, 2)
        assert type(rmap.matrix) is tuple
        assert all(type(row) is tuple and all(type(x) is int for x in row)
                   for row in rmap.matrix)
    assert _restriction_map.cache_info()[:2] == (2 * len(subs), len(subs))
    for value, attr in ((sha, "torsion"), (rmap.source, "free_rank"),
                        (rmap.target, "torsion")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, attr, ())
    with pytest.raises(AttributeError):
        rmap.matrix = ()


def test_every_cache_has_the_shared_bound():
    # The scan the benchmark's cache registry makes: every lru_cache defined
    # in a toruskit module.
    caches = {}
    for key, module in sorted(sys.modules.items()):
        if key != "toruskit" and not key.startswith("toruskit."):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)) \
                    and getattr(value, "__module__", None) == key:
                caches[f"{key}.{value.__name__}"] = value
    assert {"toruskit.cohomology._restriction_map", "toruskit.cohomology._sha2_cyclic",
            "toruskit.cohomology._cohomology", "toruskit.groups.abelian_decomposition"} \
        <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] == _CACHE_SIZE == 1024, name


@st.composite
def _divisibility_chain(draw, max_len):
    head = draw(st.integers(2, 6))
    steps = draw(st.lists(st.integers(1, 3), max_size=max_len - 1))
    return tuple(itertools.accumulate([head] + steps, operator.mul))


@st.composite
def _finite_map(draw):
    """(d, e, R): a well-defined map sum Z/d_i -> sum Z/e_j, at most 4096 x.

    x_i has order d_i, so R_ji must be a multiple of e_j / gcd(e_j, d_i);
    entries are not reduced mod e_j.
    """
    d = draw(_divisibility_chain(4).filter(lambda c: math.prod(c) <= 4096))
    e = draw(_divisibility_chain(3))
    matrix = tuple(tuple(draw(st.integers(-g, 2 * g)) * (ej // g)
                         for g in (math.gcd(ej, di) for di in d)) for ej in e)
    return d, e, matrix


def _order_counts(orders, elements):
    """How many of ``elements`` (tuples in sum Z/orders) have each order."""
    return Counter(math.lcm(*(n // math.gcd(n, x) for n, x in zip(orders, t)))
                   for t in elements)


@given(_finite_map())
@settings(deadline=None, max_examples=60)
def test_kernel_by_duality_matches_enumeration(data):
    # Finite abelian groups with the same number of elements of each order
    # are isomorphic, so the counts pin down the kernel.
    d, e, matrix = data
    kernel = [x for x in itertools.product(*map(range, d))
              if all(sum(r * v for r, v in zip(row, x)) % ej == 0
                     for row, ej in zip(matrix, e))]
    factors = _kernel_invariants(d, e, matrix)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert _order_counts(d, kernel) == _order_counts(
        factors, itertools.product(*map(range, factors)))


def test_kernel_by_duality_rejects_ill_defined_maps():
    # x -> x from Z/2 to Z/4 does not respect 2x = 0
    with pytest.raises(InternalInvariantError):
        _kernel_invariants((2,), (4,), ((1,),))
    assert _kernel_invariants((2,), (4,), ((2,),)) == ()
    assert _kernel_invariants((2, 4), (), ()) == (2, 4)


def test_shapiro_small():
    rng = random.Random(3)
    for g in (C4, cyclic_group(6), KLEIN):
        for h in all_subgroups(g):
            a = random_glattice(h.as_group(), 2, rng)
            ind = induce(h, a)
            for q in (0, 1, 2):
                assert cohomology(h.as_group(), a, q) == cohomology(g, ind, q)


def test_long_exact_sequence_order_identity():
    # 0 -> Z -> Z[G] -> J -> 0: if H^1 and H^2 of Z[G] vanish then
    # |H^1(G, J)| = |H^2(G, Z)|
    for g in group_family_up_to_8():
        assert cohomology(g, regular_lattice(g), 1).is_trivial()
        assert cohomology(g, regular_lattice(g), 2).is_trivial()
        j = norm_one_lattice(g)
        h1j = cohomology(g, j, 1)
        h2z = cohomology(g, trivial_lattice(g, 1), 2)
        assert h1j.order() == h2z.order()


def test_h2_trivial_coefficients_is_dual_group():
    # H^2(G, Z) = Hom(G, Q/Z) for finite abelian G
    for g in group_family_up_to_8():
        h2 = cohomology(g, trivial_lattice(g, 1), 2)
        assert h2.order() == g.order


def test_direct_sum_additivity():
    rng = random.Random(13)
    for g in (C2, C4, KLEIN):
        m1 = random_glattice(g, 2, rng)
        m2 = random_glattice(g, 2, rng)
        for q in (0, 1, 2):
            combined = cohomology(g, direct_sum(m1, m2), q)
            split = cohomology(g, m1, q).direct_sum(cohomology(g, m2, q))
            assert combined == split


def test_torsion_annihilated_by_group_order():
    rng = random.Random(29)
    for g in group_family_up_to_8():
        m = random_glattice(g, 2, rng)
        for q in (1, 2):
            h = cohomology(g, m, q)
            assert h.free_rank == 0
            assert all(g.order % d == 0 for d in h.torsion)


def test_lattice_fast_path_matches_explicit_kernel_route():
    # Lattices and their relation-free presentations share the cone engine;
    # the bar complex's cocycles over coboundaries checks both.
    rng = random.Random(37)
    cases = [SIGN, regular_lattice(C2), norm_one_lattice(KLEIN),
             norm_one_lattice(C4), random_glattice(C4, 2, rng),
             random_glattice(KLEIN, 2, rng)]
    for m in cases:
        pres = presentation_of_lattice(m)
        for q in (0, 1, 2):
            bar = FGAbelian(*bar_presented_cohomology(pres, q))
            assert cohomology(m.group, pres, q) == cohomology(m.group, m, q) == bar


def test_presented_cohomology_finite_coefficients():
    # Z/2 with trivial C2-action: H^q = Z/2 for all q
    mod2 = presentation_mod(trivial_lattice(C2, 1), 2)
    assert cohomology(C2, mod2, 0) == FGAbelian(0, (2,))
    assert cohomology(C2, mod2, 1) == FGAbelian(0, (2,))
    assert cohomology(C2, mod2, 2) == FGAbelian(0, (2,))
    # Z/3 with the sign action of C2: cohomology vanishes (coprime orders)
    mod3 = presentation_mod(SIGN, 3)
    assert cohomology(C2, mod3, 0).is_trivial()
    assert cohomology(C2, mod3, 1).is_trivial()
    assert cohomology(C2, mod3, 2).is_trivial()


def test_enumerate_splittings_examples():
    two = enumerate_splittings(C2, presentation_mod(trivial_lattice(C2, 1), 2))
    assert len(two.cocycles) == 2 and two.class_count == 2
    three = enumerate_splittings(C2, presentation_mod(trivial_lattice(C2, 1), 3))
    assert len(three.cocycles) == 1 and three.class_count == 1
    twisted = enumerate_splittings(C2, presentation_mod(SIGN, 3))
    assert len(twisted.cocycles) == 3 and twisted.class_count == 1


def test_enumerate_splittings_matches_engine():
    cases = [
        (C2, presentation_mod(trivial_lattice(C2, 1), 2)),
        (C2, presentation_mod(SIGN, 4)),
        (C3, presentation_mod(trivial_lattice(C3, 1), 3)),
        (C4, presentation_mod(sign_through_quotient(C4, [2]), 2)),
        (KLEIN, presentation_mod(trivial_lattice(KLEIN, 1), 2)),
    ]
    for g, a in cases:
        enum = enumerate_splittings(g, a)
        size = 1
        for d in enum.orders:
            size *= d
        h0 = cohomology(g, a, 0).order()
        h1 = cohomology(g, a, 1).order()
        assert enum.class_count == h1
        assert len(enum.cocycles) == h1 * size // h0


def test_enumerate_splittings_bound():
    big = presentation_mod(trivial_lattice(cyclic_group(8), 2), 8)  # 64^8 maps
    with pytest.raises(EnumerationBoundError):
        enumerate_splittings(cyclic_group(8), big)


def test_enumerate_splittings_rejects_infinite_modules():
    free = presentation_of_lattice(trivial_lattice(C2, 1))
    with pytest.raises(ValueError, match="not finite"):
        enumerate_splittings(C2, free)


def test_bar_differentials_compose_to_zero():
    rng = random.Random(43)
    for g in (C2, C3, KLEIN):
        m = random_glattice(g, 2, rng)
        mats = m.action
        d0 = bar_differential(g, mats, 0)
        d1 = bar_differential(g, mats, 1)
        d2 = bar_differential(g, mats, 2)
        assert linalg.is_zero(linalg.mul(d1, d0))
        assert linalg.is_zero(linalg.mul(d2, d1))


def test_cohomology_submodule_is_shadowed_by_the_function():
    # ``toruskit.cohomology`` is the re-exported function; importlib still
    # returns the submodule, as the package docstring says.
    import toruskit.cohomology as shadowed
    module = importlib.import_module("toruskit.cohomology")
    assert isinstance(module, types.ModuleType) and not isinstance(shadowed, types.ModuleType)
    assert shadowed is module.cohomology is cohomology


def test_cached_arrays_are_read_only():
    m = norm_one_lattice(KLEIN)
    classes = cohomology_classes(m, 2)
    pres = presentation_mod(m, 2)
    for cached in (m.action[1], classes.generators, classes.coordinate_rows,
                   classes.cocycle_test, pres.relations):
        with pytest.raises(ValueError):
            cached[0, 0] = 7
    for stack in (m.action, pres.action, pres._frame[2]):
        with pytest.raises(ValueError):
            stack[1, 0, 0] = 7


def test_cocycle_generators_really_are_cocycles():
    for m in (SIGN, norm_one_lattice(KLEIN), norm_one_lattice(C4)):
        for q in (1, 2):
            classes = cohomology_classes(m, q)
            if not classes.fg.torsion:
                continue
            d_q = differential(m.group, m.action, q)
            assert linalg.is_zero(linalg.mul(d_q, classes.generators))


def test_coordinates_reject_non_cocycles():
    # over a cyclic group every 1-cochain is a cocycle, so use the Klein group
    for m, q in ((norm_one_lattice(KLEIN), 2), (norm_one_lattice(KLEIN), 1),
                 (regular_lattice(KLEIN), 1)):
        classes = cohomology_classes(m, q)
        orders = classes.fg.torsion
        assert linalg.is_zero(classes.coordinates(classes.generators)
                              - linalg.eye(len(orders)))
        d_q = differential(m.group, m.action, q)
        units = [linalg.eye(d_q.shape[1])[:, j:j + 1] for j in range(d_q.shape[1])]
        bad = next(u for u in units if not linalg.is_zero(linalg.mul(d_q, u)))
        for cochain in (bad, np.hstack([bad, bad]),
                        classes.generators[:, :1] + bad if orders else bad):
            with pytest.raises(InternalInvariantError):
                classes.coordinates(cochain)


def test_small_resolution_matches_bar_complex():
    # The bar complex is the reference: same H^1 and H^2 invariant factors,
    # and the same Sha^2 with every class and restriction taken there.
    rng = random.Random(47)
    for g in group_family_up_to_8():
        lattices = [random_glattice(g, 2, rng), random_glattice(g, 2, rng),
                    norm_one_lattice(g),
                    direct_sum(regular_lattice(g), trivial_lattice(g, 1))]
        for m in lattices:
            mats = m.action
            d = [differential(g, mats, q) for q in (0, 1, 2)]
            assert linalg.is_zero(linalg.mul(d[1], d[0]))
            assert linalg.is_zero(linalg.mul(d[2], d[1]))
            for q in (1, 2):
                bar = linalg.invariant_factors(bar_differential(g, mats, q - 1))
                assert cohomology(g, m, q) == FGAbelian(0, bar), (g, m, q)
            assert sha2_cyclic(g, m).torsion == bar_sha2(m), (g, m)


def orbit_presentation(m, rng, modulus):
    """Z^n modulo the G-orbit of a random vector, plus modulus * Z^n if any.

    The orbit columns are dependent, and often span less than Z^n, so the
    relation inclusion needs its Hermite basis and H^0 can have a free part.
    """
    v = linalg.intmat([[rng.randrange(-2, 3)] for _ in range(m.rank)])
    cols = [linalg.mul(m.action[a], v) for a in m.group.elements()]
    if modulus:
        cols.append(modulus * linalg.eye(m.rank))
    return GModulePresentation(m.group, np.hstack(cols), m.action)


def test_presented_small_resolution_matches_bar_complex():
    # presentation_mod has independent relation columns; orbit presentations
    # have dependent ones, and H^0 must pick up a free part somewhere.  The
    # last cases act on Z^n/R but not on Z^n: Z/3 with the sign action
    # written as 2 (and the identity as 4), 3, 7 and 9 acting on Z/8 and Z/16,
    # and units of order 3 and 4 acting on Z/7 and Z/5, which no integer lifts.
    rng, orbit_rng = random.Random(53), random.Random(61)
    free_h0 = 0
    cases = []
    for g in (C2, C3, C4, KLEIN):
        cases += [presentation_mod(m, modulus)
                  for m in (random_glattice(g, 2, rng), norm_one_lattice(g))
                  for modulus in (2, 3)]
        m = random_glattice(g, 2, orbit_rng)
        cases += [orbit_presentation(m, orbit_rng, modulus) for modulus in (0, 2)]
    cases += [GModulePresentation(g, ((modulus,),), tuple(((x,),) for x in scalars))
              for g, modulus, scalars in [
                  (C2, 3, (1, 2)), (C2, 3, (4, 2)), (C2, 8, (1, 3)), (C2, 16, (1, 7)),
                  (C2, 16, (1, 9)), (C3, 7, (1, 2, 4)), (C4, 5, (1, 2, 4, 3))]]
    for pres in cases:
        for q in (0, 1, 2):
            fg = cohomology(pres.group, pres, q)
            assert (fg.free_rank, fg.torsion) == bar_presented_cohomology(pres, q), (pres, q)
        free_h0 += cohomology(pres.group, pres, 0).free_rank > 0
    assert free_h0


@given(st.sampled_from(group_family_up_to_8()), st.sampled_from([(2, 3), (4, 6), (2, 0)]),
       st.integers(0, 2 ** 32))
@settings(deadline=None, max_examples=36)
def test_presented_cohomology_reads_any_smith_frame(g, scales, seed):
    # presentation_mod has the frame U = I.  X = X1 + X2 with R = diag(a I, b I)
    # does not: its Smith form merges chains (2, 3 -> 1, 6) or leaves a free
    # part (b = 0), and conjugating by a unimodular P, to (P X P^-1, P R),
    # scrambles U further.  Both must give the direct sum of the summands' H^q.
    rng = random.Random(seed)
    x1, x2 = random_glattice(g, 2, rng), random_glattice(g, 2, rng)
    x, (a, b) = direct_sum(x1, x2), scales
    rel = np.diag(linalg.intmat([a] * x1.rank + [b] * x2.rank, (x.rank,)))
    p = random_unimodular(x.rank, rng, steps=rng.randint(1, 4))
    conjugated = np.matmul(np.matmul(p, x.action), linalg.solve(p, linalg.eye(x.rank)))
    plain = GModulePresentation(g, rel, x.action)
    moved = GModulePresentation(g, linalg.mul(p, rel), conjugated)
    for q in (0, 1, 2):
        summands = cohomology(g, presentation_mod(x1, a), q).direct_sum(
            cohomology(g, presentation_mod(x2, b) if b else x2, q))
        assert cohomology(g, plain, q) == summands == cohomology(g, moved, q), (g, scales, q)


def test_non_abelian_group_is_unsupported():
    s3 = s3_group()
    z = trivial_lattice(s3, 1)
    for q in (0, 1, 2):
        with pytest.raises(UnsupportedRequestError):
            cohomology(s3, z, q)
    with pytest.raises(UnsupportedRequestError):
        sha2_cyclic(s3, regular_lattice(s3))
    with pytest.raises(UnsupportedRequestError):
        tamagawa_number(make_torus(s3, "norm_one"))
