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
from hypothesis import example, given, seed as fixed_seed, settings, strategies as st

import toruskit.cli  # noqa: F401  (loads every module, for the cache scan)
from toruskit import linalg
from toruskit.arith import AbelianGaloisDatum
from toruskit.cohomology import (_basis, _boundaries, _boundary, _corestricted_cycles,
                                 _cyclic_h2_vanishes, _torsion,
                                 bar_differential, cohomology, cohomology_classes, differential,
                                 enumerate_splittings, restrict_cochain,
                                 restriction_map, sha2_cyclic, tate_h0)
from toruskit.errors import (EnumerationBoundError, InternalInvariantError,
                             UnsupportedRequestError)
from toruskit.groups import (_CACHE_SIZE, Subgroup, abelian_decomposition, all_subgroups,
                             cyclic_group, cyclic_subgroups, full_subgroup, index_two_subgroups,
                             product_group, subgroup_closure, trivial_subgroup)
from toruskit.lattices import (FGAbelian, GLattice, GModulePresentation, _blocks, _regular_cover,
                               direct_sum, direct_sum_all, dual, glattice, induce, invariants,
                               norm_operator, norm_vector, presentation_mod, quotient_lattice,
                               regular_lattice, restrict, sign_lattice, trace_character,
                               trivial_lattice)

from toruskit.tamagawa import tamagawa_number
from toruskit.tori import make_torus

from support import (bar_presented_cohomology, bar_sha2, brute_force_cocycles, conjugate,
                     brute_force_h1_order, dense, fixed_point_tate_h0, identity,
                     group_family_up_to_8, kernel_invariants, maximal_by_inclusion,
                     maximal_cyclic_subgroups, pack_columns,
                     presentation_of_lattice,
                     random_glattice, random_unimodular, s3_group,
                     sha2_over_every_cyclic_subgroup, universal_coefficients_mod)

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


def test_tate_h0_is_cached_by_value_and_type():
    # An equal lattice rebuilt from nested lists hits the entry; the answer
    # is the immutable FGAbelian itself, and a cache hit skips no check.
    g = product_group(C2, C4)
    m = direct_sum(norm_one_lattice(g), trivial_lattice(g, 1))
    tate_h0.cache_clear()
    first = tate_h0(g, m)
    assert tate_h0(g, glattice(g, dense(m.action).tolist())) is first
    assert tate_h0.cache_info()[:2] == (1, 1)
    with pytest.raises(ValueError, match="not over the given group"):
        tate_h0(C4, m)
    with pytest.raises(TypeError):
        tate_h0(g, presentation_mod(m, 2))
    assert tate_h0.cache_info().currsize == 1


def test_tate_h0_matches_fixed_point_route():
    rng = random.Random(59)
    for g in group_family_up_to_8() + [s3_group()]:
        for m in (random_glattice(g, 2, rng), random_glattice(g, 2, rng),
                  regular_lattice(g), norm_one_lattice(g)):
            assert tate_h0(g, m).torsion == fixed_point_tate_h0(m), (g, m)


def test_tate_periodicity_on_cyclic_groups():
    # H^0-hat(C_n, M) = H^2(C_n, M) for every cyclic group: the norm
    # operator's cokernel against the resolution's degree 2.
    rng = random.Random(2401)
    for n in range(1, 9):
        g = cyclic_group(n)
        cases = [random_glattice(g, 3, rng) for _ in range(20)]
        cases += [regular_lattice(g), trivial_lattice(g, 1), trivial_lattice(g, 2)]
        cases += [sign_lattice(g, h) for h in index_two_subgroups(g)]
        for m in cases:
            assert tate_h0(g, m) == cohomology(g, m, 2), (n, dense(m.action).tolist())


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
        shift = dense(linalg.intmat([[rng.randrange(-3, 4)] for _ in range(d1.shape[1])]))
        perturbed = dense(src.generators) + dense(
            linalg.mul(d1, np.tile(shift, (1, src.generators.shape[1]))))
        coords = dense(tgt.coordinates(restrict_cochain(m, h, 2, perturbed)))
        base = dense(linalg.intmat(rmap.matrix, shape=coords.shape))
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
    # subgroups have nonzero H^2 (the torus alone has none).  G = C2^4, so
    # those 15 are the maximal ones, and Sha^2 corestricts from exactly
    # them, on the Z block, with one Smith form with U each.  It reads no
    # restriction map, even with them cached; Sha^2 cached, and recomputed
    # after clearing both caches, must each be the bar complex's.
    t = make_torus(AbelianGaloisDatum(120, (1, 49)), "norm_one")
    g, m = t.group, direct_sum(t.X, trivial_lattice(t.group, 1))
    subs = cyclic_subgroups(g)
    active = sum(1 for c in subs if not restriction_map(g, m, c, 2).target.is_trivial())
    assert cohomology(g, m, 2) == FGAbelian(0, (2,) * 10) and active == 15
    assert len(subs) == 16
    want = bar_sha2(m)
    assert want == (2,) * 6
    before = restriction_map.cache_info()
    first = sha2_cyclic(g, m)
    assert restriction_map.cache_info() == before
    sha_hits = sha2_cyclic.cache_info().hits
    assert sha2_cyclic(g, m) is first
    assert sha2_cyclic.cache_info().hits == sha_hits + 1
    sha2_cyclic.cache_clear()
    restriction_map.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        shapes = counting_smith_forms(patch)
        again = sha2_cyclic(g, m)
    assert restriction_map.cache_info().misses == 0
    assert [shape for shape, u in shapes if u] == [(1, 1)] * 15, shapes
    assert first.torsion == again.torsion == want


@pytest.mark.parametrize("modulus, subgroup", [(15, None), (120, (1, 49))])
def test_sha2_without_cyclic_targets_is_h2_itself(modulus, subgroup):
    # H^2(C, Res J) = H^3(C, Z) = 0 for every cyclic C, so no restriction
    # constrains the kernel and Sha^2 is the cached H^2 object itself.
    t = make_torus(AbelianGaloisDatum(modulus, subgroup), "norm_one")
    g, x = t.group, t.X
    sha2_cyclic.cache_clear()
    assert all(restriction_map(g, x, c, 2).target.is_trivial() for c in cyclic_subgroups(g))
    assert not cohomology(g, x, 2).is_trivial()
    assert sha2_cyclic(g, x) is cohomology(g, x, 2)


@pytest.mark.parametrize("modulus, subgroup", [(15, None), (24, None), (120, (1, 49))])
def test_restriction_map_matches_the_restricted_lattice_route(modulus, subgroup):
    # restriction_map reads H^q(C, Res M) off M's own matrices at C's
    # elements.  The public route builds restrict(M, C) and asks cohomology
    # and cohomology_classes about it; source, target and matrix must agree.
    x = make_torus(AbelianGaloisDatum(modulus, subgroup), "norm_one").X
    g = x.group
    for m in (x, direct_sum(x, trivial_lattice(g, 1))):
        for c, q in itertools.product(cyclic_subgroups(g), (1, 2)):
            res = restrict(m, c)
            rmap = restriction_map(g, m, c, q)
            assert rmap.source == cohomology(g, m, q), (c, q)
            assert rmap.target == cohomology(c.as_group(), res, q), (c, q)
            if rmap.target.is_trivial():
                assert rmap.matrix == (), (c, q)
                continue
            coords = cohomology_classes(res, q).coordinates(
                restrict_cochain(m, c, q, cohomology_classes(m, q).generators))
            assert rmap.matrix == tuple(tuple(int(v) for v in row)
                                        for row in coords.tolist()), (c, q)


def test_sha2_caches_only_the_answers_about_the_module():
    # 15 of the 16 cyclic restrictions of the 120/{1,49} norm-one torus plus
    # Z have a nonzero target, yet no restricted lattice, restriction map,
    # class group or subgroup group enters a cache: cohomology holds H^2 of
    # M and of its two blocks, the norm-one lattice and Z, and sha2_cyclic
    # the Sha^2 of the three.
    t = make_torus(AbelianGaloisDatum(120, (1, 49)), "norm_one")
    g, m = t.group, direct_sum(t.X, trivial_lattice(t.group, 1))
    caches = (cohomology, cohomology_classes, restriction_map, sha2_cyclic, tate_h0,
              sys.modules["toruskit.cohomology"]._chain_map,
              sys.modules["toruskit.groups"]._subgroup_as_group)
    for cache in caches:
        cache.cache_clear()
    assert sha2_cyclic(g, m) == FGAbelian(0, (2,) * 6)
    assert [cache.cache_info().currsize for cache in caches] == [3, 0, 0, 3, 0, 0, 0]
    assert cohomology(g, t.X, 2) is sha2_cyclic(g, t.X)
    assert cohomology.cache_info().currsize == 3


# The splitting data of the cold_tamagawa benchmark workload.
COLD_TAMAGAWA_DATA = [(4, None), (8, (1, 3)), (12, (1, 5)), (5, None), (12, None),
                      (16, (1, 7)), (15, None), (24, None), (40, (1, 9)), (60, (1, 49)),
                      (120, (1, 49)), (17, None), (32, None), (40, None), (48, None)]


def forbidding_restriction(patch):
    """Make every restriction route raise inside ``toruskit.cohomology``:
    ``restriction_map``, ``cohomology_classes``, ``tate_h0`` and
    ``Subgroup.as_group``."""
    def forbidden(*args, **kwargs):
        raise AssertionError("Sha^2 took a restriction route")
    for name in ("restriction_map", "cohomology_classes", "tate_h0"):
        patch.setattr(sys.modules["toruskit.cohomology"], name, forbidden)
    patch.setattr(Subgroup, "as_group", forbidden)


def check_sha2_restricts_only_where_it_cuts(g, m):
    """sha2_cyclic against every cyclic restriction: the same kernel; the norm
    test and restriction_map agree on every cyclic H^2; and, with H^2 of M
    and of its blocks cached, sha2_cyclic builds no restriction map, classes
    or subgroup group, takes one Smith form with U per maximal cyclic C with
    H^2(C, B) != 0 on each distinct block B with H^2(G, B) != 0, and one
    elimination for Sha^2 of each such block (plus one Smith form of their
    sum's diagonal when M splits).  M splits only when it has such a C.
    The number of Smith forms with U is returned."""
    subs = cyclic_subgroups(g)
    for c in subs:
        assert cohomology(c.as_group(), restrict(m, c), 2).torsion \
            == restriction_map(g, m, c, 2).target.torsion, (m, c)

    def targets(b):
        if cohomology(g, b, 2).is_trivial():
            return []
        return [c for c in maximal_by_inclusion(subs)
                if cohomology(c.as_group(), restrict(b, c), 2).torsion]
    split = targets(m) and m.rank > 1 and len(_blocks(m)) > 1
    parts = list(dict.fromkeys(_blocks(m))) if split else [m]  # equal blocks share one entry
    want_u = [(b.rank, b.rank) for b in parts for c in targets(b)]
    eliminations = sum(1 for b in parts if targets(b)) + bool(split)
    total = cohomology(g, m, 2)
    sha2_cyclic.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        forbidding_restriction(patch)
        shapes = counting_smith_forms(patch)
        packed = counting_packed_eliminations(patch)
        sha = sha2_cyclic.__wrapped__(g, m)  # past the cache
    assert [shape for shape, u in shapes if u] == want_u, m
    assert sum(1 for _, u in shapes if not u) + len(packed) == eliminations, (m, shapes, packed)
    assert sha == sha2_over_every_cyclic_subgroup(g, m), m
    if not want_u and not total.is_trivial():
        assert sha is total
    return len(want_u)


@pytest.mark.parametrize("modulus, subgroup", COLD_TAMAGAWA_DATA)
def test_sha2_on_maximal_cyclic_targets_matches_every_cyclic_subgroup(modulus, subgroup):
    # Restriction to C' in C factors through C, and a C with H^2(C, M) = 0
    # cuts nothing, so restricting to the maximal cyclic subgroups with a
    # nonzero H^2 must give the kernel over all of them.  The norm-one and
    # res tori have no cyclic target; the split torus Z, and each torus plus
    # Z, have one at every nontrivial C.
    datum = AbelianGaloisDatum(modulus, subgroup)
    parts = [make_torus(datum, "norm_one"), make_torus(datum, "res"),
             make_torus(datum, "split", dim=1)]
    g = parts[0].group
    restricted = 0
    for t in parts + [make_torus(datum, "product", factors=parts)]:
        for m in (t.X, direct_sum(t.X, trivial_lattice(g, 1))):
            restricted += check_sha2_restricts_only_where_it_cuts(g, m)
    assert restricted > 0


def test_sha2_on_the_small_family_matches_every_cyclic_subgroup():
    # Z and the norm-one lattice plus Z have H^2(C, Z) = Z/|C| at every
    # nontrivial C, so every maximal cyclic subgroup is restricted to; C6
    # has one of order 2 and one of order 3.
    for g in group_family_up_to_8():
        for m in (trivial_lattice(g, 1), direct_sum(norm_one_lattice(g), trivial_lattice(g, 1))):
            check_sha2_restricts_only_where_it_cuts(g, m)


def interleaved_sum(summands, rng):
    """The direct sum of ``summands`` with its basis shuffled by a seeded
    permutation, so that the blocks interleave."""
    m = direct_sum_all(summands)
    order = list(range(m.rank))
    rng.shuffle(order)
    return GLattice(m.group, [dense(x)[np.ix_(order, order)] for x in m.action])


# Data of order at most 16 from the suite, then (Z/7)^x = C6, (Z/21)^x =
# C2 x C6, (Z/13)^x = C12 and (Z/65)^x = C4 x C12, whose cyclic subgroups
# have mixed orders.
SHA2_ROUTE_DATA = COLD_TAMAGAWA_DATA + [(7, None), (21, None), (13, None), (65, None)]


def test_sha2_by_corestriction_matches_every_cyclic_restriction():
    # The norm-one, res, split-1 and product tori and their duals over
    # SHA2_ROUTE_DATA, random lattices and sums over the family up to 8,
    # and random block-diagonal lattices with interleaved blocks: Sha^2 read
    # off d^1 stacked with corestricted cycles against the kernel of the
    # restriction maps to every cyclic subgroup.  Enough of them have Sha^2
    # strictly between 0 and H^2 for the stacked rows to matter.
    rng = random.Random(4601)
    cases = []
    for modulus, subgroup in SHA2_ROUTE_DATA:
        datum = AbelianGaloisDatum(modulus, subgroup)
        parts = [make_torus(datum, "norm_one"), make_torus(datum, "res"),
                 make_torus(datum, "split", dim=1)]
        small = datum.group.order <= 16
        for t in parts + [make_torus(datum, "product", factors=parts)] * small:
            cases += [t.X, dual(t.X)]
    for g in group_family_up_to_8():
        for _ in range(8):
            a, b = random_glattice(g, 2, rng), random_glattice(g, 2, rng)
            cases += [a, direct_sum(a, b),
                      interleaved_sum([a, norm_one_lattice(g), dual(b)], rng)]
    between = 0
    for m in cases:
        g = m.group
        sha, h2 = sha2_cyclic(g, m), cohomology(g, m, 2)
        assert sha == sha2_over_every_cyclic_subgroup(g, m), (g, m)
        between += not sha.is_trivial() and sha != h2
    assert between >= 30, between  # 34 of 414


def test_blocks_of_an_interleaved_sum_are_its_summands():
    # The union-find over the generators' nonzeros finds the blocks of a
    # shuffled sum of connected lattices, each on its basis vectors in order.
    rng = random.Random(4602)
    for g in (C3, KLEIN, product_group(C2, C4)):
        summands = [norm_one_lattice(g), regular_lattice(g), trivial_lattice(g, 1)]
        m = interleaved_sum(summands, rng)
        blocks = _blocks(m)
        assert sorted(b.rank for b in blocks) == sorted(x.rank for x in summands)
        assert FGAbelian.from_divisors(d for b in blocks for d in cohomology(g, b, 2).torsion) \
            == cohomology(g, m, 2)
        x = summands[0]
        assert len(_blocks(x)) == 1 and _blocks(x)[0] is x


def test_sha2_builds_no_restriction_map_classes_or_subgroup_group():
    # Over mixed orders and 2-groups, with targets on a split summand and on
    # a lattice that does not split: sha2_cyclic calls no restriction_map,
    # cohomology_classes, tate_h0 or Subgroup.as_group.
    lattices = []
    for modulus, subgroup in ((21, None), (120, (1, 49)), (13, None)):
        x = make_torus(AbelianGaloisDatum(modulus, subgroup), "norm_one").X
        lattices += [direct_sum(x, trivial_lattice(x.group, 1)), dual(x)]
    g = product_group(C2, C4)
    lattices += [sign_lattice(g, h) for h in index_two_subgroups(g)]
    for m in lattices:
        want = sha2_over_every_cyclic_subgroup(m.group, m)
        sha2_cyclic.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            forbidding_restriction(patch)
            assert sha2_cyclic(m.group, m) == want, m


def test_maximal_cyclic_subgroups_match_the_pairwise_test():
    # One pass over (z, p), z^p for the primes p | ord(z), against a subset
    # test over all pairs, on (Z/n)^x for n <= 120 and products of cyclic
    # groups of mixed prime orders.
    groups = [AbelianGaloisDatum(n).group for n in range(1, 121)] + [
        product_group(cyclic_group(a), cyclic_group(b))
        for a, b in ((3, 9), (6, 6), (2, 12), (5, 10), (4, 18))]
    for g in groups:
        subs = cyclic_subgroups(g)
        assert maximal_cyclic_subgroups(g) == maximal_by_inclusion(subs), g


def test_boundary_chains_are_shared_and_immutable():
    # Every lattice over one group reads the same boundary chains (the tori
    # over one datum share its group); the cached values are tuples, so no
    # caller can change what the next one reads.
    g = AbelianGaloisDatum(24).group
    orders = abelian_decomposition(g).orders
    for q in (0, 1, 2):
        chains = _boundaries(orders, q)
        assert isinstance(chains, tuple) and all(isinstance(c, tuple) for c in chains)
        assert chains is _boundaries(orders, q)
        assert [dict(c) for c in chains] == [
            _boundary({((0,) * len(orders), beta): 1}, orders)
            for beta in _basis(len(orders), q + 1)]
    for t in (make_torus(AbelianGaloisDatum(24), "norm_one"),
              make_torus(AbelianGaloisDatum(24), "res")):
        assert t.group is g


@given(st.sampled_from(group_family_up_to_8()), st.integers(0, 2 ** 32))
@settings(deadline=None, max_examples=40)
def test_sha2_on_random_lattices_matches_every_cyclic_subgroup(g, seed):
    rng = random.Random(seed)
    m = random_glattice(g, 2, rng)
    if rng.random() < 0.5:
        m = direct_sum(m, random_glattice(g, 2, rng))
    check_sha2_restricts_only_where_it_cuts(g, m)


def check_cyclic_h2_vanishes(g, m):
    """The vanishing test against H^2 from C's own resolution at every
    cyclic C; the number of C with H^2(C, M) != 0."""
    nonzero = 0
    for c in cyclic_subgroups(g):
        h2 = cohomology(c.as_group(), restrict(m, c), 2).torsion
        assert _cyclic_h2_vanishes(m, c.elements, {}) == (not h2), (dense(m.action).tolist(), c)
        nonzero += bool(h2)
    return nonzero


# C4 x C4, C16 and C2 x C8 have only cyclic subgroups of 2-power order, whose
# H^2 the packed F_2 rows decide; C12, C2 x C6 and C3 x C9 add orders 3, 6, 9
# and 12, whose H^2 the ranks of N_C mod 2 and mod 3 decide.  The family up
# to 8 has both.
F2_RANK_GROUPS = group_family_up_to_8() + [
    product_group(C4, C4), cyclic_group(16), product_group(C2, cyclic_group(8)),
    cyclic_group(12), product_group(C2, cyclic_group(6)), product_group(C3, cyclic_group(9))]


@fixed_seed(4001)
@given(st.sampled_from(F2_RANK_GROUPS), st.integers(0, 2 ** 32))
@settings(deadline=None, max_examples=150)
def test_cyclic_h2_vanishes_matches_the_smith_form_on_random_lattices(g, case):
    # |C| kills H^2(C, M), so it vanishes exactly when N_C mod p has the
    # rank of M^C for every p dividing |C|: random lattices, their duals and
    # their sums against the invariant factors of coker N_C.
    rng = random.Random(case)
    a, b = random_glattice(g, 2, rng), random_glattice(g, 2, rng)
    for m in (a, dual(a), direct_sum(a, b), direct_sum(dual(a), b)):
        check_cyclic_h2_vanishes(g, m)


@pytest.mark.parametrize("modulus, subgroup", COLD_TAMAGAWA_DATA + [
    (260, None), (840, (1, 121, 169, 289, 361, 529))])
def test_cyclic_h2_vanishes_matches_the_smith_form_on_tori(modulus, subgroup):
    # The norm-one and res tori have H^2(C, M) = 0 at every cyclic C, the
    # split torus Z/|C| at every nontrivial one; (Z/260)^x has cyclic
    # subgroups of order 3, 6 and 12 as well.
    datum = AbelianGaloisDatum(modulus, subgroup)
    nonzero = [check_cyclic_h2_vanishes(datum.group, make_torus(datum, kind, **extra).X)
               for kind, extra in (("norm_one", {}), ("res", {}), ("split", {"dim": 1}))]
    assert nonzero[:2] == [0, 0]
    assert nonzero[2] == len(cyclic_subgroups(datum.group)) - 1


def counting_smith_forms(patch):
    """Wrap ``linalg.smith_normal_form``; the list its calls' (shape,
    want_u) go to."""
    shapes = []
    real = linalg.smith_normal_form

    def counting(a, want_u=False, want_v=False):
        shapes.append((a.shape, want_u))
        return real(a, want_u, want_v)

    patch.setattr(linalg, "smith_normal_form", counting)
    return shapes


def counting_packed_eliminations(patch):
    """Wrap ``linalg._two_adic_smith_form``; the list its calls' (rows,
    columns, e) go to."""
    shapes = []
    real = linalg._two_adic_smith_form

    def counting(columns, m, e):
        shapes.append((m, len(columns), e))
        return real(columns, m, e)

    patch.setattr(linalg, "_two_adic_smith_form", counting)
    return shapes


# Every abelian 2-group of order at most 16, the trivial group included.
TWO_GROUPS = [cyclic_group(n) for n in (1, 2, 4, 8, 16)] + [
    KLEIN, product_group(C2, C4), product_group(KLEIN, C2), product_group(C2, cyclic_group(8)),
    product_group(C4, C4), product_group(KLEIN, C4), product_group(product_group(KLEIN, C2), C2)]


def check_one_coboundary(run, coprime=False, lanes=None):
    """Run ``run`` packed, then with _PACKED_CELLS = 0: the answers are
    equal, and the columns the 2-adic route eliminated are the packing of
    the one matrix the integer route factors.  With ``coprime``, gcd(E,
    |G|) = 1 for the exponent E of the module: neither run eliminates
    anything, and the answer is the trivial group.  With ``lanes``, the
    packed run eliminated mod 2^lanes.  Returns the answer."""
    engine = sys.modules["toruskit.cohomology"]
    packed, factored = [], []
    real_packed, real_factors = linalg._two_adic_smith_form, linalg.invariant_factors

    def two_adic(columns, m, e):
        packed.append((columns, m, e))
        return real_packed(columns, m, e)

    def integer(a):
        factored.append(a)
        return real_factors(a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_two_adic_smith_form", two_adic)
        patch.setattr(linalg, "invariant_factors", integer)
        got = run()
        assert (len(packed), factored) == (0 if coprime else 1, []), (packed, factored)
        patch.setattr(engine, "_PACKED_CELLS", 0)
        assert run() == got
    if coprime:
        assert (packed, factored, got) == ([], [], FGAbelian.trivial())
        return got
    [(columns, m, e)], [d] = packed, factored
    assert d.shape[0] == m and pack_columns(d.rows, d.shape[1], e) == columns
    assert lanes in (None, e), (lanes, e)
    return got


@fixed_seed(4302)
@given(st.sampled_from(TWO_GROUPS), st.integers(0, 2 ** 32))
@example(TWO_GROUPS[0], 0)
@example(TWO_GROUPS[-1], 1)
@settings(deadline=None, max_examples=22)
def test_packed_cohomology_matches_the_integer_route(g, case):
    # At g = gcd(E, |G|) = 2^a, E the module's exponent (0 on a lattice),
    # H^1 and H^2 are read off D^(q-1) packed mod 2^(a+1); _PACKED_CELLS = 0
    # sends every D to the integer Smith form instead.  Both routes
    # eliminate the one D that _torsion assembles: random lattices, their
    # duals and sums, and presentations mod 2, 3, 4.  At g = 1 (mod 3, and
    # everything over the trivial group) H^q is 0 and nothing is eliminated.
    rng = random.Random(case)
    a, b = random_glattice(g, 2, rng), random_glattice(g, 2, rng)
    modules = [(m, 0) for m in (a, dual(a), direct_sum(a, b), direct_sum(dual(a), b))] + [
        (presentation_mod(direct_sum(a, b), k), k) for k in (2, 3, 4)]
    for m, exponent in modules:
        for q in (1, 2):
            check_one_coboundary(lambda: cohomology.__wrapped__(g, m, q),
                                 coprime=math.gcd(exponent, g.order) == 1)
    # So is the Sha^2 stack, d^1 with the corestricted cycles of the maximal
    # cyclic C under it, here unsplit on norm-one + Z, where Z gives every
    # nontrivial C a nonzero H^2(C, M).
    m = direct_sum(make_torus(g, "norm_one").X, trivial_lattice(g, 1))
    targets = [sub for sub in maximal_cyclic_subgroups(g)
               if not _cyclic_h2_vanishes(m, sub.elements, {})]
    if targets:
        cycles = _corestricted_cycles(g, m, targets)
        got = check_one_coboundary(lambda: _torsion(g, m, 2, cycles))
        assert FGAbelian(0, got) == sha2_cyclic(g, m)


@pytest.mark.parametrize("g", [cyclic_group(8), cyclic_group(16),
                               product_group(C2, cyclic_group(8)), product_group(C4, cyclic_group(8))],
                         ids=["C8", "C16", "C2xC8", "C4xC8"])
def test_packed_lanes_hold_norm_blocks_longer_than_the_annihilator(g):
    # Presented mod m = 2 or 4, H^1 and H^2 are killed by m and packed mod
    # 2m, in lanes of 4 or 6 bits, while one entry of a norm block sums 8 or
    # 16 terms (entries 1, or -1 = 2m - 1 on the norm-one lattice): the
    # packing must reduce the lanes as it sums them.  The packed columns are
    # those of the integer route's rows, and H^0-H^2 follow by universal
    # coefficients from the lattice's integer Smith forms, H^0(L/mL) =
    # (L^G)/m + H^1(L)[m].
    for lattice in (make_torus(g, "norm_one").X, regular_lattice(g), trivial_lattice(g, 2)):
        h = [cohomology(g, lattice, q) for q in (0, 1, 2)] + [
            FGAbelian(0, linalg.invariant_factors(differential(g, lattice.action, 2)))]
        for m in (2, 4):
            pres = presentation_mod(lattice, m)
            got = [cohomology.__wrapped__(g, pres, 0)] + [
                check_one_coboundary(lambda: cohomology.__wrapped__(g, pres, q),
                                     lanes=m.bit_length()) for q in (1, 2)]
            want = [FGAbelian.from_divisors([m] * h[0].free_rank
                                            + [math.gcd(d, m) for d in h[1].torsion])] + [
                universal_coefficients_mod(h[q], h[q + 1], m) for q in (1, 2)]
            assert got == want, (g, lattice, m)


def test_cold_sha2_over_c2_4_builds_no_subgroup_and_no_relation_complex():
    # On the norm-one torus of the witness 120/{1,49} (G = C2^4) each of the
    # 15 maximal cyclic spans has H^2(C, M) = 0, so sha2_cyclic checks no
    # Subgroup; and a lattice is its own complex, so no H^q reads its
    # _relation_complex.
    t = make_torus(AbelianGaloisDatum(120, (1, 49)), "norm_one")
    x = GLattice(t.group, t.X.action)  # a fresh record: nothing cached on it
    built = []
    for cache in (cohomology, sha2_cyclic):
        cache.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        real = Subgroup.__init__
        patch.setattr(Subgroup, "__init__",
                      lambda self, *args: built.append(args) or real(self, *args))
        assert sha2_cyclic(t.group, x) == FGAbelian(0, (2,) * 6)
        assert [cohomology(t.group, x, q) for q in (0, 1)] == [FGAbelian.trivial(),
                                                               FGAbelian(0, (2,) * 4)]
    assert built == []
    assert "_relation_complex" not in x.__dict__


@pytest.mark.parametrize("datum, masks", [(AbelianGaloisDatum(21), False),
                                          (AbelianGaloisDatum(120, (1, 49)), True)],
                         ids=["21: C2xC6", "120/{1,49}: C2^4"])
def test_sha2_pass_reads_bitmasks_only_for_two_power_spans(datum, masks):
    # Over (Z/21)^x every maximal cyclic subgroup has order 6, so the pass
    # reads each element's trace and no odd-entry bitmask; over the 2-group
    # C2^4 every span is a 2-power one and each element's bitmasks are read
    # once.  The traces are the trace character either way.
    x = make_torus(datum, "norm_one").X
    passes = []
    with pytest.MonkeyPatch.context() as patch:
        engine = sys.modules["toruskit.cohomology"]
        real = engine._cyclic_h2_vanishes
        patch.setattr(engine, "_cyclic_h2_vanishes",
                      lambda m, span, reads: passes.append((span, reads)) or real(m, span, reads))
        assert not sha2_cyclic.__wrapped__(x.group, x).is_trivial()
    spans = [span for span, _ in passes]
    assert spans == [s.elements for s in maximal_cyclic_subgroups(x.group)]
    assert all(bool(len(s) & (len(s) - 1)) != masks for s in spans)
    reads = passes[0][1]
    assert all(r is reads for _, r in passes) and sorted(reads) == list(x.group.elements())
    assert tuple(trace for trace, _ in reads.values()) == tuple(
        trace_character(x)[c] for c in reads)
    assert all((bitmasks is not None) == masks for _, bitmasks in reads.values())


def test_sha2_on_the_witness_takes_no_smith_form():
    # On the 120/{1,49} norm-one torus (G = C2^4) the F_2 rank test clears
    # all 15 maximal cyclic subgroups, so the one elimination taken is that
    # of H^2(G, M) itself, on the 150 x 60 d^1 packed mod 2^5.
    t = make_torus(AbelianGaloisDatum(120, (1, 49)), "norm_one")
    cohomology.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        shapes = counting_smith_forms(patch)
        packed = counting_packed_eliminations(patch)
        sha = sha2_cyclic.__wrapped__(t.group, t.X)
    assert sha == FGAbelian(0, (2,) * 6)
    assert len(shapes) == 0, shapes
    assert packed == [(150, 60, 5)], packed


@pytest.mark.parametrize("modulus, subgroup, sha, targets, integer, packed",
                         [(120, (1, 49), (2,) * 6, 15, 1, 4), (63, None, (6,), 12, 5, 0)])
def test_sha2_takes_one_smith_form_per_restriction_target(modulus, subgroup, sha, targets,
                                                          integer, packed):
    # Norm-one x split 1 has H^2(C, M) != 0 at every nontrivial cyclic C, so
    # the first maximal cyclic subgroup splits M into the norm-one lattice and
    # Z.  The norm-one block has no target: its Sha^2 is its H^2.  Z has one
    # at each of the 15 maximal cyclic subgroups of C2^4 (all of order 2), or
    # the 12 of C6 x C6 (all of order 6): one Smith form with U of the 1 x 1
    # X(z) - I each, then one elimination for its Sha^2.  With H^2 of M,
    # of the norm-one block and of Z, that is four eliminations, packed mod
    # 2^5 over C2^4 and integer Smith forms over C6 x C6; the sum of the
    # blocks' Sha^2 takes one more Smith form, of a diagonal.
    datum = AbelianGaloisDatum(modulus, subgroup)
    t = make_torus(datum, "product", factors=[make_torus(datum, "norm_one"),
                                              make_torus(datum, "split", dim=1)])
    for cache in (cohomology, cohomology_classes, restriction_map, sha2_cyclic):
        cache.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        forbidding_restriction(patch)
        shapes = counting_smith_forms(patch)
        eliminations = counting_packed_eliminations(patch)
        got = sha2_cyclic.__wrapped__(t.group, t.X)
    assert got == FGAbelian(0, sha)
    assert [shape for shape, u in shapes if u] == [(1, 1)] * targets, shapes
    assert sum(1 for _, u in shapes if not u) == integer, shapes
    assert len(eliminations) == packed, eliminations


def test_restriction_to_a_nonzero_target_takes_one_smith_form():
    # The target's Smith form with U both finds H^2(C, M) != 0 and gives
    # the coordinates of the restricted classes.
    g = product_group(C2, C4)
    m = direct_sum(norm_one_lattice(g), trivial_lattice(g, 1))
    sub = maximal_cyclic_subgroups(g)[0]
    cohomology_classes(m, 2)
    with pytest.MonkeyPatch.context() as patch:
        shapes = counting_smith_forms(patch)
        rmap = restriction_map.__wrapped__(g, m, sub, 2)
    assert not rmap.target.is_trivial()
    assert len(shapes) == 1, shapes


@pytest.mark.parametrize("modulus, subgroup", [(15, None), (24, None), (120, (1, 49))])
def test_restriction_matrices_change_only_with_the_basis(modulus, subgroup):
    # RestrictionMap.matrix is written in the generators that the Smith form
    # of d^(q-1) picks, so a unimodular change of the lattice's basis may
    # change it.  What it describes may not change: for every cyclic
    # restriction in degrees 1 and 2, the source, the target and the kernel,
    # and so Sha^2.
    m = make_torus(AbelianGaloisDatum(modulus, subgroup), "norm_one").X
    g = m.group
    moved = conjugate(m, random_unimodular(m.rank, random.Random(modulus)))
    assert moved != m
    for sub in cyclic_subgroups(g):
        for q in (1, 2):
            want, got = restriction_map(g, m, sub, q), restriction_map(g, moved, sub, q)
            assert (got.source, got.target) == (want.source, want.target), (sub, q)
            assert kernel_invariants(got.source.torsion, got.target.torsion, got.matrix) \
                == kernel_invariants(want.source.torsion, want.target.torsion,
                                      want.matrix), (sub, q)
    assert sha2_cyclic(g, moved) == sha2_cyclic(g, m)


def test_equal_lattices_share_restriction_and_sha2_entries():
    # Of the 6 cyclic subgroups of C2 x C4, Sha^2 corestricts from the 4
    # maximal ones (two of order 4, two of order 2), all with H^2(C, Z) != 0,
    # on the Z block of the norm-one lattice plus Z, and builds no
    # restriction map.  Equal lattices, and equal blocks, share entries: the
    # Z of split 1 and both Z blocks of split 2 are the sum's own Z.
    g = product_group(C2, C4)
    first = direct_sum(norm_one_lattice(g), trivial_lattice(g, 1))
    again = glattice(g, dense(first.action).tolist())
    assert again is not first and again == first
    sha2_cyclic.cache_clear()
    restriction_map.cache_clear()
    sha = sha2_cyclic(g, first)
    assert sha == FGAbelian(0, (2,))
    subs = cyclic_subgroups(g)
    assert len(subs) == 6
    assert sha2_cyclic.cache_info()[:2] == (0, 3)  # the sum and its two blocks
    assert restriction_map.cache_info()[:2] == (0, 0)
    assert sha2_cyclic(g, again) is sha
    assert sha2_cyclic.cache_info()[:2] == (1, 3)
    assert sha2_cyclic(g, trivial_lattice(g, 1)).is_trivial()
    assert sha2_cyclic.cache_info()[:2] == (2, 3)
    assert sha2_cyclic(g, trivial_lattice(g, 2)).is_trivial()
    assert sha2_cyclic.cache_info()[:2] == (4, 4)  # split 2 and, twice, its Z
    for sub in cyclic_subgroups(g):  # equal subgroups, built again
        rmap = restriction_map(g, again, sub, 2)
        assert rmap is restriction_map(g, first, sub, 2)
        assert type(rmap.matrix) is tuple
        assert all(type(row) is tuple and all(type(x) is int for x in row)
                   for row in rmap.matrix)
    assert restriction_map.cache_info()[:2] == (len(subs), len(subs))
    for value, attr in ((sha, "torsion"), (rmap.source, "free_rank"),
                        (rmap.target, "torsion")):
        kept = getattr(value, attr)
        with pytest.raises(AttributeError):
            setattr(value, attr, ())
        assert getattr(value, attr) is kept
    with pytest.raises(AttributeError):
        rmap.matrix = ()


def test_degree_is_read_as_an_integer():
    # From cold caches, 1.0 and True are refused as degrees; a numpy integer
    # is read as the int it holds.
    t = make_torus(AbelianGaloisDatum(15), "norm_one")
    g, m, c = t.group, t.X, cyclic_subgroups(t.group)[-1]
    for cache in (cohomology, cohomology_classes, restriction_map):
        cache.cache_clear()
    for q in (1.0, True):
        for call in (lambda: cohomology(g, m, q), lambda: cohomology_classes(m, q),
                     lambda: restriction_map(g, m, c, q)):
            with pytest.raises(TypeError):
                call()
    assert cohomology(g, m, np.int64(1)) == cohomology(g, m, 1) == FGAbelian(0, (2, 4))
    assert restriction_map(g, m, c, np.int64(1)) == restriction_map(g, m, c, 1)
    # restrict_cochain reads q the same way and restricts degrees 0 to 2.
    cocycles = cohomology_classes(m, 1).generators
    for q in (1.0, True):
        with pytest.raises(TypeError):
            restrict_cochain(m, c, q, cocycles)
    for q in (-1, 3):
        with pytest.raises(ValueError):
            restrict_cochain(m, c, q, cocycles)
    assert restrict_cochain(m, c, np.int64(1), cocycles) == restrict_cochain(m, c, 1, cocycles)


def test_a_cache_hit_never_skips_a_check():
    # The checks run inside the cached functions and keys are typed, so an
    # entry cached for (g, m, 1) answers no call the checks refuse.
    t = make_torus(AbelianGaloisDatum(15), "norm_one")
    g, m, c = t.group, t.X, cyclic_subgroups(t.group)[-1]
    h1, rmap = cohomology(g, m, 1), restriction_map(g, m, c, 1)
    classes = cohomology_classes(m, 1)
    other = cyclic_subgroups(C4)[-1]
    for call in (lambda: cohomology(g, SIGN, 1), lambda: cohomology(C4, m, 1),
                 lambda: cohomology(g, m, 3), lambda: restriction_map(g, m, other, 1),
                 lambda: restriction_map(C4, m, c, 1), lambda: restriction_map(g, m, c, 3)):
        with pytest.raises(ValueError):
            call()
    for q in (True, 1.0):
        for call in (lambda: cohomology(g, m, q), lambda: cohomology_classes(m, q),
                     lambda: restriction_map(g, m, c, q)):
            with pytest.raises(TypeError):
                call()
    assert cohomology(g, m, 1) is h1 and restriction_map(g, m, c, 1) is rmap
    assert cohomology_classes(m, 1) is classes


def test_lattice_functions_refuse_presented_modules():
    # Read as a lattice, a presented module loses its relations: on X/2X of
    # the 15 norm-one torus, restriction would start from H^2(G, X) = C2 and
    # Sha^2 would come out as all of H^2(G, X/2X) = C2^4.  Only cohomology
    # and the splitting enumerator take presented modules.
    t = make_torus(AbelianGaloisDatum(15), "norm_one")
    g, c = t.group, cyclic_subgroups(t.group)[-1]
    cocycles = cohomology_classes(t.X, 1).generators
    mod2 = presentation_mod(t.X, 2)
    assert cohomology(g, mod2, 2) == FGAbelian(0, (2, 2, 2, 2))
    first = identity(t.X.rank)[:, :1]
    for pres in (mod2, presentation_of_lattice(t.X)):
        for fn, args in ((restrict, (pres, c)), (dual, (pres,)), (trace_character, (pres,)),
                         (norm_operator, (pres,)), (tate_h0, (g, pres)),
                         (direct_sum_all, ([pres],)), (direct_sum_all, ([t.X, pres],)),
                         (quotient_lattice, (pres, first)), (induce, (c, pres)),
                         (invariants, (pres,)),
                         (cohomology_classes, (pres, 2)),
                         (restrict_cochain, (pres, c, 1, cocycles)),
                         (restriction_map, (g, pres, c, 2)), (sha2_cyclic, (g, pres))):
            with pytest.raises(TypeError):
                fn(*args)


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
    assert {"toruskit.cohomology.restriction_map", "toruskit.cohomology.sha2_cyclic",
            "toruskit.cohomology.cohomology", "toruskit.cohomology.tate_h0",
            "toruskit.groups.abelian_decomposition"} <= set(caches)
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
    factors = kernel_invariants(d, e, matrix)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert _order_counts(d, kernel) == _order_counts(
        factors, itertools.product(*map(range, factors)))


def test_kernel_by_duality_rejects_ill_defined_maps():
    # x -> x from Z/2 to Z/4 does not respect 2x = 0
    with pytest.raises(InternalInvariantError):
        kernel_invariants((2,), (4,), ((1,),))
    assert kernel_invariants((2,), (4,), ((2,),)) == ()
    assert kernel_invariants((2, 4), (), ()) == (2, 4)


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
    # Cached matrices are immutable linalg.Matrix records of nested tuples,
    # and stacks are tuples of them: no entry, row or matrix can be written.
    m = norm_one_lattice(KLEIN)
    classes = cohomology_classes(m, 2)
    pres = presentation_mod(m, 2)
    for cached in (m.action[1], classes.generators, classes.coordinate_rows,
                   classes.cocycle_test, pres.relations):
        assert type(cached) is linalg.Matrix and type(cached.rows) is tuple
        assert all(type(row) is tuple for row in cached.rows)
        with pytest.raises(TypeError):
            cached[0, 0] = 7
        with pytest.raises(AttributeError):
            cached.rows = ()
    for stack in (m.action, pres.action, pres._frame[2]):
        assert type(stack) is tuple and all(type(x) is linalg.Matrix for x in stack)
        with pytest.raises(TypeError):
            stack[1] = stack[0]


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
        assert classes.coordinates(classes.generators) == linalg.eye(len(orders))
        d_q = differential(m.group, m.action, q)
        units = [identity(d_q.shape[1])[:, j:j + 1] for j in range(d_q.shape[1])]
        bad = next(u for u in units if not linalg.is_zero(linalg.mul(d_q, u)))
        for cochain in (bad, np.hstack([bad, bad]),
                        dense(classes.generators)[:, :1] + bad if orders else bad):
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
    cols = [dense(linalg.mul(m.action[a], v)) for a in m.group.elements()]
    if modulus:
        cols.append(modulus * identity(m.rank))
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


def test_presented_cohomology_matches_universal_coefficients():
    # The cochains of a lattice L are free abelian, so H^q(G, L/mL) =
    # H^q(G, L)/m + H^(q+1)(G, L)[m] (support.universal_coefficients_mod),
    # with H^3(L) the torsion of coker d^2 on the integer Smith form.  Over
    # every (Z/n)^x with n <= 40 and |G| <= 16, on the norm-one, res and
    # split-2 lattices and the dual of the norm-one lattice, m = 1 ... 12:
    # gcd(m, |G|) = 1 eliminates nothing, a power of 2 is packed on 2-groups
    # and mixed orders alike, and the rest takes the integer Smith form.
    # H^2 is also held against the bar complex at |G| <= 4: on every lattice
    # over C2 and on split-2 over C4 and C2^2, 0.01-0.25 s per lattice for the
    # twelve moduli (the others take 1-1.4 s there; tests_slow goes on to
    # |G| = 6 and 8).
    cohomology.cache_clear()
    packed_on_mixed_orders, bar_checked = 0, 0
    with pytest.MonkeyPatch.context() as patch:
        packed = counting_packed_eliminations(patch)
        for n in range(1, 41):
            datum = AbelianGaloisDatum(n)
            g = datum.group
            if g.order > 16:
                continue
            x = make_torus(datum, "norm_one").X
            for lattice in (x, dual(x), regular_lattice(g), trivial_lattice(g, 2)):
                h = [cohomology(g, lattice, q) for q in (1, 2)] + [
                    FGAbelian(0, linalg.invariant_factors(differential(g, lattice.action, 2)))]
                bar = n in (3, 5, 8) and (g.order == 2 or lattice.rank == 2)  # C2, C4, C2^2
                for m in range(1, 13):
                    pres, before = presentation_mod(lattice, m), len(packed)
                    got = [cohomology(g, pres, q) for q in (1, 2)]
                    assert got == [universal_coefficients_mod(h[q - 1], h[q], m)
                                   for q in (1, 2)], (n, lattice, m)
                    if math.gcd(m, g.order) == 1:
                        assert len(packed) == before, (n, lattice, m)
                    if g.order & (g.order - 1):
                        packed_on_mixed_orders += len(packed) - before
                    if bar:
                        assert (0, got[1].torsion) == bar_presented_cohomology(pres, 2), (n, m)
                        bar_checked += 1
    assert packed_on_mixed_orders and bar_checked == 12 * 6


def test_regular_cover_is_the_probed_rebuild():
    # An action that holds only modulo R is rewritten as Z[G]^n / K without
    # the probe; the record must equal, hash like and carry the Smith frame
    # of GModulePresentation(...) on the same entries.  The last case has
    # two generators and relations diag(3, 5), whose own frame is not I.
    cases = [GModulePresentation(g, ((modulus,),), tuple(((x,),) for x in scalars))
             for g, modulus, scalars in [(C2, 3, (1, 2)), (C3, 7, (1, 2, 4)),
                                         (C4, 5, (1, 2, 4, 3))]]
    cases.append(GModulePresentation(C2, ((3, 0), (0, 5)), (((1, 0), (0, 1)), ((2, 0), (0, 4)))))
    for pres in cases:
        assert not pres._frame[0], pres
        cover = _regular_cover(pres)
        probed = GModulePresentation(pres.group, cover.relations.tolist(),
                                     dense(cover.action).tolist())
        assert cover == probed and hash(cover) == hash(probed)
        assert cover.generators == probed.generators == pres.generators * pres.group.order
        (exact, d, frame), want = cover._frame, probed._frame
        assert (exact, d) == want[:2] and frame == want[2], pres
        assert type(cover.relations) is linalg.Matrix and type(frame) is tuple
        assert all(type(x) is linalg.Matrix for x in frame)


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
    rel = dense(linalg.diag([a] * x1.rank + [b] * x2.rank))
    p = random_unimodular(x.rank, rng, steps=rng.randint(1, 4))
    conjugated = np.matmul(np.matmul(p, dense(x.action)),
                           dense(linalg.solve(p, linalg.eye(x.rank))))
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


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: bar_differential(C2, regular_lattice(C2).action, 3), ValueError,
                 "cohomology degree is bounded by 2", id="bar-degree"),
    pytest.param(lambda: tate_h0(C4, regular_lattice(C2)), ValueError,
                 "not over the given group", id="tate-group"),
    pytest.param(lambda: cohomology_classes(regular_lattice(C2), 3), ValueError,
                 "cocycle degree is bounded by 2", id="classes-degree"),
    pytest.param(lambda: restrict_cochain(regular_lattice(C2), trivial_subgroup(C4), 1,
                                          linalg.zeros(4, 1)), ValueError,
                 "subgroup does not belong", id="cochain-subgroup"),
    pytest.param(lambda: sha2_cyclic(C4, regular_lattice(C2)), ValueError,
                 "not over the given group", id="sha2-group"),
    pytest.param(lambda: enumerate_splittings(C4, presentation_mod(regular_lattice(C2), 2)),
                 ValueError, "not over the given group", id="splittings-group"),
])
def test_cohomology_argument_checks(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)
