import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruskit import linalg
from toruskit.arith import AbelianGaloisDatum
from toruskit.cohomology import (_cohomology, _relation_complex, cohomology,
                                 enumerate_splittings)
from toruskit.groups import (all_subgroups, cyclic_group, generating_set,
                             product_group, subgroup_closure,
                             trivial_subgroup)
from toruskit.lattices import (FGAbelian, GLattice, GModulePresentation,
                               direct_sum, dual, glattice, induce,
                               invariants, norm_operator, norm_vector,
                               permutation_lattice, presentation_mod,
                               quotient_lattice, regular_lattice, restrict,
                               sign_lattice, trace_character, trivial_lattice)

from toruskit.tori import make_torus

from support import (conjugate, group_family_up_to_8, hom_lattice,
                     presentation_of_lattice, random_glattice,
                     random_unimodular, rank_two_pool, reference_action_error,
                     reference_quotient_action, s3_group, tensor_lattice)

C2 = cyclic_group(2)
C4 = cyclic_group(4)
KLEIN = product_group(C2, C2)


def test_build_lattice_trivial():
    m = trivial_lattice(KLEIN, 3)
    assert m.rank == 3
    assert all(mat.tolist() == [[int(i == j) for j in range(3)] for i in range(3)]
               for mat in m.action)


def test_build_lattice_regular_c2_swaps():
    m = regular_lattice(C2)
    assert m.action[1].tolist() == [[0, 1], [1, 0]]


def test_build_lattice_sign():
    m = sign_lattice(C2, trivial_subgroup(C2))
    assert m.action[1].tolist() == [[-1]]
    with pytest.raises(ValueError):
        sign_lattice(cyclic_group(3), trivial_subgroup(cyclic_group(3)))


def test_glattice_rejects_non_representations():
    with pytest.raises(ValueError):
        glattice(C2, [[[1]], [[2]]])  # 2 is not an involution
    with pytest.raises(ValueError):
        glattice(C2, [[[0]], [[1]]])  # identity must act as identity


def test_glattice_catches_corruption_outside_generating_set():
    # Validation checks X(a s) = X(a) X(s) on generators s only; a wrong
    # matrix for an element outside the generating set must still be caught.
    # The corrupted element is no product of two generators, so a check on
    # generator pairs alone would miss it.
    for g in (cyclic_group(8), product_group(C2, cyclic_group(4)),
              product_group(product_group(C2, C2), C2), s3_group()):
        good = regular_lattice(g)
        gens = generating_set(g)
        assert len(gens) < g.order - 1
        bad = max(a for a in g.elements() if a != g.identity and a not in gens)
        assert all(g.mul(s, t) != bad for s in gens for t in gens)
        other = next(b for b in g.elements() if b not in (g.identity, bad))
        action = list(good.action)
        action[bad] = good.action[other]  # still a permutation matrix
        with pytest.raises(ValueError, match="group law"):
            GLattice(g, tuple(action))


def test_glattice_owns_a_read_only_copy():
    # Nested lists, writeable arrays and read-only views of writeable arrays
    # are copied in, so writing to the caller's data leaves the lattice alone.
    for stack in (np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
                  regular_lattice(C2).action.copy()):
        view = stack[:]
        view.flags.writeable = False
        for data in (stack, view, stack.tolist()):
            m = GLattice(C2, data)
            stack[1, 0, 0] = 5
            assert m == regular_lattice(C2)
            stack[1, 0, 0] = 0
            with pytest.raises(ValueError):
                m.action[1, 0, 0] = 5
            assert m.matrix(1).flags.writeable


def test_equal_lattices_share_hash_and_cache_entries():
    first = random_glattice(C4, 2, random.Random(71))
    again = glattice(C4, first.action.tolist())
    assert again is not first and again.action is not first.action
    assert again == first and hash(again) == hash(first)
    for module, rebuilt in ((first, again),
                            (presentation_mod(first, 3), presentation_mod(again, 3))):
        assert module == rebuilt and hash(module) == hash(rebuilt)
        cohomology(C4, module, 1)
        hits, misses = _cohomology.cache_info().hits, _cohomology.cache_info().misses
        cohomology(C4, rebuilt, 1)
        assert _cohomology.cache_info().hits == hits + 1
        assert _cohomology.cache_info().misses == misses


def test_induce_from_trivial_subgroup_is_regular():
    for g in (C2, C4, KLEIN):
        h = trivial_subgroup(g)
        ind = induce(h, trivial_lattice(h.as_group(), 1))
        assert ind == regular_lattice(g)


def test_induce_trivial_coefficients_is_coset_permutation():
    from toruskit.groups import coset_gset
    h = subgroup_closure(C4, [2])
    ind = induce(h, trivial_lattice(h.as_group(), 1))
    assert ind == permutation_lattice(coset_gset(C4, h))


def test_induce_from_whole_group_is_identity():
    from toruskit.groups import full_subgroup
    h = full_subgroup(C4)
    a = sign_lattice(h.as_group(), subgroup_closure(h.as_group(), [2]))
    assert induce(h, a) == a


def test_induce_rank():
    h = subgroup_closure(KLEIN, [1])
    a = random_glattice(h.as_group(), 2, random.Random(3))
    assert induce(h, a).rank == h.index * a.rank


def test_restrict():
    reg = regular_lattice(C2)
    res = restrict(reg, trivial_subgroup(C2))
    assert res.rank == 2 and res.group.order == 1
    sign = sign_lattice(C2, trivial_subgroup(C2))
    assert restrict(sign, trivial_subgroup(C2)).action.tolist() == [[[1]]]
    from toruskit.groups import full_subgroup
    assert restrict(reg, full_subgroup(C2)) == reg


def test_dual():
    assert dual(trivial_lattice(KLEIN, 2)) == trivial_lattice(KLEIN, 2)
    sign = sign_lattice(C2, trivial_subgroup(C2))
    assert dual(sign) == sign
    reg = regular_lattice(C2)
    assert dual(reg) == reg  # permutation matrices are orthogonal


def test_dual_is_character_level_involution():
    rng = random.Random(11)
    for g in group_family_up_to_8()[:7]:
        m = random_glattice(g, 2, rng)
        assert trace_character(dual(dual(m))) == trace_character(m)


def test_direct_sum():
    sign = sign_lattice(C2, trivial_subgroup(C2))
    both = direct_sum(trivial_lattice(C2, 1), sign)
    assert both.action[1].tolist() == [[1, 0], [0, -1]]
    zero = trivial_lattice(C2, 0)
    assert direct_sum(sign, zero) == sign
    reg = regular_lattice(C2)
    assert direct_sum(reg, reg).rank == 4
    with pytest.raises(ValueError):
        direct_sum(trivial_lattice(C2, 1), trivial_lattice(C4, 1))


def test_invariants_examples():
    basis, rank = invariants(trivial_lattice(KLEIN, 3))
    assert rank == 3 and linalg.is_zero(basis - linalg.eye(3))
    for g in (C2, C4, KLEIN):
        basis, rank = invariants(regular_lattice(g))
        assert rank == 1
        assert [int(x) for x in basis[:, 0]] == [1] * g.order  # the norm vector
    _, rank = invariants(sign_lattice(C2, trivial_subgroup(C2)))
    assert rank == 0


def test_invariants_saturated():
    rng = random.Random(5)
    for g in group_family_up_to_8():
        m = random_glattice(g, 2, rng)
        basis, _ = invariants(m)
        quotient_lattice(m, basis)  # must not raise


def test_trace_character():
    reg = regular_lattice(C2)
    assert trace_character(reg) == (2, 0)
    sign = sign_lattice(C2, trivial_subgroup(C2))
    assert trace_character(sign) == (1, -1)
    rng = random.Random(9)
    for g in group_family_up_to_8()[:6]:
        m = random_glattice(g, 2, rng)
        assert trace_character(m)[g.identity] == m.rank


def test_quotient_lattice_norm_one_c2():
    reg = regular_lattice(C2)
    quot, proj = quotient_lattice(reg, norm_vector(reg))
    assert quot == sign_lattice(C2, trivial_subgroup(C2))
    p = linalg.intmat(proj, shape=(1, 2))
    assert linalg.is_zero(linalg.mul(p, norm_vector(reg)))


def test_quotient_lattice_edges():
    reg = regular_lattice(C2)
    quot, _ = quotient_lattice(reg, linalg.zeros(2, 0))
    assert quot == reg
    quot, _ = quotient_lattice(reg, linalg.eye(2))
    assert quot.rank == 0


def test_quotient_lattice_rejects_torsion():
    m = trivial_lattice(C2, 2)
    with pytest.raises(ValueError, match="not saturated"):
        quotient_lattice(m, 2 * linalg.eye(2))
    with pytest.raises(ValueError, match="dependent"):
        quotient_lattice(m, linalg.intmat([[2, 4], [0, 0]]))


def test_quotient_lattice_rejects_unstable():
    reg = regular_lattice(C2)
    unstable = linalg.intmat([[1], [0]])
    with pytest.raises(ValueError, match="not stable"):
        quotient_lattice(reg, unstable)


@st.composite
def _stable_sublattices(draw):
    """(lattice, basis): a lattice over a group of order <= 8 and the basis
    of a G-stable saturated sublattice of it."""
    g = draw(st.sampled_from(group_family_up_to_8()))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(("regular", "induced", "random", "conjugate")))
    if kind == "regular":
        m = regular_lattice(g)
    elif kind == "induced":
        h = rng.choice(all_subgroups(g))
        m = induce(h, random_glattice(h.as_group(), 2, rng))
    elif kind == "random":
        m = random_glattice(g, 2, rng)
    else:  # entries far above 1
        base = rng.choice(rank_two_pool(g) + [regular_lattice(g)])
        m = conjugate(base, random_unimodular(base.rank, rng, draw(st.integers(8, 40))))
    sub = draw(st.sampled_from(("norm", "invariants", "norm_kernel", "zero", "full")))
    if sub == "norm":  # N e_1 is fixed, so its primitive part spans a stable line
        v = norm_vector(m)
        d = math.gcd(*v[:, 0])
        return m, v // d if d else linalg.zeros(m.rank, 0)
    if sub == "invariants":
        return m, invariants(m)[0]
    if sub == "norm_kernel":  # N X(g) = N, so ker N is stable
        return m, linalg.kernel_basis(norm_operator(m))
    return m, linalg.zeros(m.rank, 0) if sub == "zero" else linalg.eye(m.rank)


def _assert_quotient_is_object_product(m, basis):
    quot, proj = quotient_lattice(m, basis)
    assert np.array_equal(quot.action, reference_quotient_action(m, proj))
    assert all(type(x) is int for x in quot.action.flat)


@given(_stable_sublattices())
@settings(deadline=None, max_examples=120)
def test_quotient_action_matches_object_product(case):
    # The quotient stack is formed from nonzero entries only; the reference
    # multiplies the whole stack.  Zero-column bases give M itself, full-rank
    # bases a rank-0 quotient.
    _assert_quotient_is_object_product(*case)


def test_quotient_action_matches_object_product_at_order_32():
    squares = (1, 121, 169, 289, 361, 529)
    reg = make_torus(AbelianGaloisDatum(840, squares), "res").X
    assert reg.group.order == 32
    _assert_quotient_is_object_product(reg, norm_vector(reg))


def test_frobenius_reciprocity_fixed_points():
    # rank Hom_H(A, Res M) == rank Hom_G(Ind A, M)
    rng = random.Random(17)
    for g in (C4, KLEIN, cyclic_group(6)):
        for h in all_subgroups(g):
            hg = h.as_group()
            a = random_glattice(hg, 2, rng)
            m = random_glattice(g, 2, rng)
            lhs = invariants(hom_lattice(a, restrict(m, h)))[1]
            rhs = invariants(hom_lattice(induce(h, a), m))[1]
            assert lhs == rhs


def test_tensor_lattice_character_is_product():
    rng = random.Random(23)
    for g in (C2, C4, KLEIN):
        m = random_glattice(g, 2, rng)
        n = random_glattice(g, 2, rng)
        chi_m, chi_n = trace_character(m), trace_character(n)
        assert trace_character(tensor_lattice(m, n)) == \
            tuple(a * b for a, b in zip(chi_m, chi_n))


def test_norm_operator_is_group_invariant():
    reg = regular_lattice(KLEIN)
    n = norm_operator(reg)
    for a in KLEIN.elements():
        assert linalg.is_zero(linalg.mul(reg.matrix(a), n) - n)


def test_conjugate_preserves_character():
    rng = random.Random(31)
    m = random_glattice(C4, 2, rng)
    u = random_unimodular(m.rank, rng)
    assert trace_character(conjugate(m, u)) == trace_character(m)


def test_every_action_matrix_is_unimodular():
    rng = random.Random(47)
    for g in group_family_up_to_8():
        for m in (regular_lattice(g), random_glattice(g, 2, rng)):
            for a in g.elements():
                assert abs(linalg.det(m.matrix(a))) == 1


def test_presentation_mod():
    sign = sign_lattice(C2, trivial_subgroup(C2))
    pres = presentation_mod(sign, 3)
    assert pres.generators == 1
    assert pres.relations.tolist() == [[3]]
    with pytest.raises(ValueError):
        presentation_mod(sign, 0)


def test_presentation_validates_action():
    # scaling by 0 is no group action on Z/3
    with pytest.raises(ValueError):
        GModulePresentation(C2, ((3,),), (((1,),), ((0,),)))
    # multiplication by 2 IS an involution mod 3, even though 2*2 != 1 over Z
    GModulePresentation(C2, ((3,),), (((1,),), ((2,),)))
    # identity may act as anything congruent to the identity
    GModulePresentation(C2, ((3,),), (((4,),), ((2,),)))


def test_presentation_rejects_identity_off_the_quotient():
    # 2 is not congruent to 1 mod 3
    with pytest.raises(ValueError, match="identity"):
        GModulePresentation(C2, ((3,),), (((2,),), ((2,),)))


def test_presentation_rejects_unpreserved_relations():
    # Z/2 + Z with the swap: an involution, but (2, 0) goes to (0, 2)
    swap = ((0, 1), (1, 0))
    with pytest.raises(ValueError, match="preserve"):
        GModulePresentation(C2, ((2,), (0,)), (((1, 0), (0, 1)), swap))


def test_presentation_catches_corruption_outside_generating_set():
    # As for GLattice: a wrong matrix outside the generating set, which still
    # preserves the relations, must be caught, with and without relations.
    for g in (cyclic_group(8), product_group(C2, cyclic_group(4)),
              product_group(product_group(C2, C2), C2), s3_group()):
        good = regular_lattice(g)
        gens = generating_set(g)
        # the last element is a word of length >= 3 in the generators here
        bad = max(a for a in g.elements() if a != g.identity and a not in gens)
        other = next(b for b in g.elements() if b not in (g.identity, bad))
        action = list(good.action)
        action[bad] = good.action[other]
        for pres in (presentation_mod(good, 3), presentation_of_lattice(good)):
            with pytest.raises(ValueError, match="group law"):
                GModulePresentation(g, pres.relations, tuple(action))


def test_presentation_mod_validates_with_three_solves(monkeypatch):
    # The constructor puts the relations into Smith form once, with U and
    # U^-1; validation, the relation cone of H^0-H^2 and the splitting
    # enumerator all read that frame, so no solve and no second transform.
    m = make_torus(AbelianGaloisDatum(5), "norm_one").X
    solves, transforms = [], []
    solve, smith = linalg.solve, linalg.smith_normal_form

    def counting_solve(a, b):
        solves.append(b.shape)
        return solve(a, b)

    def counting_smith(a, **wants):
        if any(wants.values()):
            transforms.append(a.shape)
        return smith(a, **wants)

    monkeypatch.setattr(linalg, "solve", counting_solve)
    monkeypatch.setattr(linalg, "smith_normal_form", counting_smith)
    _relation_complex.cache_clear()  # an earlier test may have built this cone
    _cohomology.cache_clear()
    pres = presentation_mod(m, 2)
    assert m.group.order == 4 and pres.generators == 3
    assert all(cohomology(m.group, pres, q) == FGAbelian(0, (2,)) for q in (0, 1, 2))
    assert enumerate_splittings(m.group, pres).class_count == 2
    assert solves == [] and transforms == [(3, 3)]


_LAW_GROUPS = group_family_up_to_8() + [s3_group()]


@st.composite
def _perturbed_stacks(draw):
    """(group, stack): a valid action, possibly with one entry moved by a
    nonzero integer drawn on both sides of the probe's base b, or with one
    coset x<s> of the first generator s moved to M X(x)."""
    g = draw(st.sampled_from(_LAW_GROUPS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(("random", "regular", "induced", "conjugate", "rank0")))
    if kind == "random":
        m = random_glattice(g, 2, rng)
    elif kind == "regular":
        m = regular_lattice(g)
    elif kind == "induced":
        h = rng.choice(all_subgroups(g))
        m = induce(h, random_glattice(h.as_group(), 2, rng))
    elif kind == "conjugate":  # entries far above 1
        base = rng.choice(rank_two_pool(g) + [regular_lattice(g)])
        m = conjugate(base, random_unimodular(base.rank, rng, draw(st.integers(8, 40))))
    else:
        m = trivial_lattice(g, 0)
    stack = m.action.copy()
    move = draw(st.sampled_from(("none", "entry", "coset"))) if m.rank else "none"
    if move == "entry":
        c = np.abs(stack).max()
        b = m.rank * c * c + c + 1
        size = draw(st.one_of(st.integers(1, 3), st.sampled_from((b - 1, b, b + 1, b * b)),
                              st.integers(1, b ** m.rank)))
        a, i, j = (draw(st.integers(0, bound - 1)) for bound in (g.order, m.rank, m.rank))
        stack[a, i, j] += draw(st.sampled_from((1, -1))) * size
    elif move == "coset":
        # X(x s) = X(x) X(s) still holds for the first generator s, so only
        # the other generators (or the identity) can see the move.
        s = (generating_set(g) or (g.identity,))[0]
        coset = [draw(st.integers(0, g.order - 1))]
        while g.mul(coset[-1], s) != coset[0]:
            coset.append(g.mul(coset[-1], s))
        u = random_unimodular(m.rank, rng) if draw(st.booleans()) else \
            linalg.intmat([[rng.randint(-9, 9) for _ in range(m.rank)] for _ in range(m.rank)])
        for x in coset:
            stack[x] = linalg.mul(u, stack[x])
    return g, stack


def _constructor_error(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@given(_perturbed_stacks())
@settings(deadline=None, max_examples=150)
def test_probe_group_law_matches_full_products(case):
    # The constructors decide the group law on one probe vector; the
    # reference multiplies every pair of matrices.  Verdict and message agree,
    # on Z^n and modulo 3 Z^n (where moves by multiples of 3 keep an action).
    g, stack = case
    n = stack.shape[1]
    assert _constructor_error(lambda: GLattice(g, stack)) == \
        reference_action_error(g, stack)
    rel = 3 * linalg.eye(n)
    assert _constructor_error(lambda: GModulePresentation(g, rel, stack)) == \
        reference_action_error(g, stack, rel)


def test_probe_base_exceeds_product_entries():
    # X(g) = [[-c, 1], [0, 1]] is no involution, yet X(g)^2 - I =
    # [[c^2 - 1, 1 - c], [0, 0]] vanishes on (1, c + 1): a probe in base
    # c + 1 would accept it.  The base n c^2 + c + 1 bounds every entry.
    for c in range(2, 40):
        stack = linalg.intmat([[[1, 0], [0, 1]], [[-c, 1], [0, 1]]])
        assert reference_action_error(C2, stack) is not None
        with pytest.raises(ValueError, match="group law"):
            GLattice(C2, stack)
        rel = 5 * linalg.eye(2)
        assert _constructor_error(lambda: GModulePresentation(C2, rel, stack)) == \
            reference_action_error(C2, stack, rel)


@pytest.mark.parametrize("stack", [
    [[[1, 0], [0, 1]]],  # one matrix for two elements
    [[[1, 0, 0], [0, 1, 0]]] * 2,  # not square
    np.zeros((2, 2, 3), dtype=int),  # not square, as an array
    [[[1, 0], [0, 1]], [[1]]],  # ragged matrices
    [[[1, 0], [0, 1]], [[0, 1], [1]]],  # a ragged row
    [[[1]], [[0, 1], [1, 0]]],  # the identity's matrix sets the rank
], ids=["count", "non-square", "non-square-array", "ragged", "ragged-row", "rank"])
def test_malformed_stacks_raise_one_message(stack):
    # The rank, and a presented module's number of generators, are read off
    # the identity's matrix; both constructors refuse the rest alike.
    rel = 3 * linalg.eye(len(stack[C2.identity]))
    message = _constructor_error(lambda: GLattice(C2, stack))
    assert message is not None
    assert _constructor_error(lambda: GModulePresentation(C2, rel, stack)) == message


def test_rank_and_generators_are_read_off_the_identity():
    assert GLattice(C2, [[], []]).rank == 0
    assert GModulePresentation(C2, [], [[], []]).generators == 0
    swap = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    assert GLattice(C2, swap).rank == 2 == regular_lattice(C2).rank
    assert GModulePresentation(C2, [[2], [2]], swap).generators == 2


def test_fgabelian_normalization():
    g = FGAbelian.from_divisors([0, 4, 6])
    assert g.free_rank == 1 and g.torsion == (2, 12)
    assert str(g) == "Z x C2 x C12"
    assert FGAbelian.from_divisors([2, 3]) == FGAbelian(0, (6,))
    assert FGAbelian.trivial().is_trivial()
    assert FGAbelian.from_divisors([1, 1]).is_trivial()


def test_fgabelian_chain_validation():
    with pytest.raises(ValueError):
        FGAbelian(0, (4, 2))
    with pytest.raises(ValueError):
        FGAbelian(0, (1,))
    with pytest.raises(ValueError):
        FGAbelian(-1, ())


def test_fgabelian_order_and_sum():
    g = FGAbelian(0, (2, 4))
    assert g.order() == 8 and g.exponent() == 4
    with pytest.raises(ValueError):
        FGAbelian(1, ()).order()
    s = g.direct_sum(FGAbelian(2, (3,)))
    assert s.free_rank == 2 and s.torsion == (2, 12)


from hypothesis import given, settings, strategies as st


@given(st.lists(st.integers(0, 40), max_size=6))
@settings(deadline=None, max_examples=80)
def test_fgabelian_from_divisors_preserves_order(divisors):
    g = FGAbelian.from_divisors(divisors)
    assert g.free_rank == divisors.count(0)
    expected = 1
    for d in divisors:
        if d:
            expected *= d
    if g.free_rank == 0:
        assert g.order() == expected


@given(st.lists(st.integers(1, 30), max_size=5), st.lists(st.integers(1, 30), max_size=5))
@settings(deadline=None, max_examples=60)
def test_fgabelian_direct_sum_commutes(xs, ys):
    a, b = FGAbelian.from_divisors(xs), FGAbelian.from_divisors(ys)
    assert a.direct_sum(b) == b.direct_sum(a)
    assert a.direct_sum(b) == FGAbelian.from_divisors(xs + ys)
