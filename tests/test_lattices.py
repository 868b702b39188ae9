import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toruskit import lattices, linalg
from toruskit.arith import AbelianGaloisDatum
from toruskit.cohomology import cohomology, enumerate_splittings
from toruskit.errors import UnsupportedRequestError
from toruskit.groups import (FiniteGroup, all_subgroups, coset_gset, cyclic_group, generating_set,
                             index_two_subgroups, product_group, subgroup_closure,
                             trivial_subgroup)
from toruskit.lattices import (FGAbelian, GLattice,
                               GModulePresentation, direct_sum, direct_sum_all,
                               dual, glattice, induce,
                               invariants, norm_operator, norm_vector,
                               permutation_lattice, presentation_mod,
                               quotient_lattice, regular_lattice, restrict,
                               sign_lattice, trace_character, trivial_lattice)

from toruskit.tori import make_torus

from support import (conjugate, dense, group_family_up_to_8, hom_lattice, identity,
                     norm_vector_by_columns, presentation_of_lattice, random_glattice,
                     random_unimodular, rank_one_pool, rank_two_pool,
                     reference_action_error, reference_quotient_action,
                     s3_group, sorted_permutation_stack, tensor_lattice)

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
    # are copied in, so writing to the caller's data leaves the lattice alone;
    # the lattice's own stack and matrices are immutable.
    for stack in (np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
                  dense(regular_lattice(C2).action)):
        view = stack[:]
        view.flags.writeable = False
        for data in (stack, view, stack.tolist()):
            m = GLattice(C2, data)
            stack[1, 0, 0] = 5
            assert m == regular_lattice(C2)
            stack[1, 0, 0] = 0
            with pytest.raises(TypeError):
                m.action[1] = m.action[0]
            with pytest.raises(AttributeError):
                m.matrix(1).rows = ()
            assert m.matrix(1) is m.action[1] and type(m.action[1]) is linalg.Matrix


def test_matrix_reads_the_element_as_an_integer():
    # matrix(-1) would be the last element's matrix and matrix(True) the whole
    # stack under numpy indexing; both are refused.
    m = regular_lattice(C4)
    assert m.matrix(np.int64(3)).tolist() == m.action[3].tolist()
    for g in (-1, 4):
        with pytest.raises(ValueError):
            m.matrix(g)
    for g in (True, 1.0):
        with pytest.raises(TypeError):
            m.matrix(g)


def _frozen(data) -> np.ndarray:
    """``data`` as a read-only object array that owns its entries, as they are."""
    out = np.array(data, dtype=object)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("entry", [1.0, True, Fraction(1)], ids=["float", "bool", "Fraction"])
def test_frozen_arrays_are_read_as_integers(entry):
    # A read-only object array is caller data like any other: it is copied
    # through linalg.intmat, so an entry that is no integer raises TypeError
    # as it does in nested lists.  A hand-built linalg.Matrix raises as it is
    # built.
    stack, rel = _frozen([[[entry]], [[entry]]]), _frozen([[entry]])

    def hand():
        return linalg.Matrix((1, 1), (((0, entry),),))
    for build in (lambda: GLattice(C2, stack), lambda: glattice(C2, stack),
                  lambda: GModulePresentation(C2, ((3,),), stack),
                  lambda: GModulePresentation(C2, rel, (((1,),), ((2,),))),
                  lambda: GLattice(C2, (hand(), hand())),
                  lambda: GModulePresentation(C2, hand(), (((1,),), ((2,),)))):
        with pytest.raises(TypeError):
            build()


def test_caller_cannot_write_into_a_validated_record():
    # A caller who froze their own array, built records on it and then made
    # it writeable again writes into their own array only.
    stack, rel = np.array([[[1]], [[-1]]], dtype=object), np.array([[3]], dtype=object)
    stack.flags.writeable = rel.flags.writeable = False
    m, pres = GLattice(C2, stack), GModulePresentation(C2, rel, stack)
    stack.flags.writeable = rel.flags.writeable = True
    stack[1, 0, 0], rel[0, 0] = 1, 1
    sign = sign_lattice(C2, trivial_subgroup(C2))
    assert dense(m.action).tolist() == [[[1]], [[-1]]] and hash(m) == hash(sign)
    assert cohomology(C2, m, 1) == FGAbelian(0, (2,))
    assert pres.relations.tolist() == [[3]] and dense(pres.action).tolist() == [[[1]], [[-1]]]
    assert pres == presentation_mod(sign, 3) and hash(pres) == hash(presentation_mod(sign, 3))


def test_equal_lattices_share_hash_and_cache_entries():
    first = random_glattice(C4, 2, random.Random(71))
    again = glattice(C4, dense(first.action).tolist())
    assert again is not first and again.action is not first.action
    assert again == first and hash(again) == hash(first)
    for module, rebuilt in ((first, again),
                            (presentation_mod(first, 3), presentation_mod(again, 3))):
        assert module == rebuilt and hash(module) == hash(rebuilt)
        cohomology(C4, module, 1)
        hits, misses = cohomology.cache_info().hits, cohomology.cache_info().misses
        cohomology(C4, rebuilt, 1)
        assert cohomology.cache_info().hits == hits + 1
        assert cohomology.cache_info().misses == misses


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
    assert dense(restrict(sign, trivial_subgroup(C2)).action).tolist() == [[[1]]]
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
    assert rank == 3 and basis == linalg.eye(3)
    for g in (C2, C4, KLEIN):
        basis, rank = invariants(regular_lattice(g))
        assert rank == 1
        assert [int(x) for x in dense(basis)[:, 0]] == [1] * g.order  # the norm vector
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
        quotient_lattice(m, 2 * identity(2))
    with pytest.raises(ValueError, match="dependent"):
        quotient_lattice(m, linalg.intmat([[2, 4], [0, 0]]))


def test_quotient_lattice_rejects_unstable():
    reg = regular_lattice(C2)
    unstable = linalg.intmat([[1], [0]])
    with pytest.raises(ValueError, match="not stable"):
        quotient_lattice(reg, unstable)


def _relabelled(g, perm, label):
    """``g`` with element a renamed perm[a]."""
    table = [[0] * g.order for _ in range(g.order)]
    for a, row in enumerate(g.table):
        for b, ab in enumerate(row):
            table[perm[a]][perm[b]] = perm[ab]
    return FiniteGroup(table, label)


def test_norm_one_tori_are_the_quotient_of_the_regular_lattice():
    # make_torus writes Z[G] / Z N off the group table; quotient_lattice
    # reaches the same stack through a Hermite form, a Smith form and two
    # stack products.  S3 is also taken with its identity at index 1.
    s3 = s3_group()
    moved = _relabelled(s3, [1, 0] + list(range(2, 6)), "S3 moved")
    assert moved.identity == 1
    groups = [AbelianGaloisDatum(n, None).group for n in range(1, 120)] + [
        cyclic_group(n) for n in range(1, 33)] + [
        product_group(C4, cyclic_group(6)), s3, moved]
    for g in groups:
        reg = regular_lattice(g)
        closed, quotient = make_torus(g, "norm_one").X, quotient_lattice(reg, norm_vector(reg))[0]
        assert closed.action == quotient.action and hash(closed) == hash(quotient), g
        assert closed == quotient and closed.rank == g.order - 1, g
    assert make_torus(cyclic_group(1), "norm_one").X.action == (linalg.zeros(0, 0),)


def test_norm_one_torus_takes_no_smith_form_hermite_form_or_stack_product(monkeypatch):
    # A cold norm-one torus is written off the group table alone.
    calls = []
    for name in ("smith_normal_form", "hermite_column", "stack_product"):
        def counting(*args, _real=getattr(linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counting)
    t = make_torus(AbelianGaloisDatum(120, (1, 49)), "norm_one")
    assert t.dim == 15 and calls == []
    reg = regular_lattice(t.group)  # the wrappers do count the quotient's route
    quotient_lattice(reg, norm_vector(reg))
    assert calls.count("stack_product") == 2 and "smith_normal_form" in calls


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
        v = dense(norm_vector(m))
        d = math.gcd(*v[:, 0])
        return m, v // d if d else linalg.zeros(m.rank, 0)
    if sub == "invariants":
        return m, invariants(m)[0]
    if sub == "norm_kernel":  # N X(g) = N, so ker N is stable
        return m, linalg.kernel_basis(norm_operator(m))
    return m, linalg.zeros(m.rank, 0) if sub == "zero" else linalg.eye(m.rank)


def _assert_quotient_is_object_product(m, basis):
    quot, proj = quotient_lattice(m, basis)
    assert np.array_equal(dense(quot.action), reference_quotient_action(m, proj))
    assert all(type(v) is int for x in quot.action for entry in x.items() for v in entry)


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
        assert linalg.mul(reg.matrix(a), n) == n


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


def test_presentation_mod_reads_modulus_as_an_integer():
    # True used to give M / 1 M; the modulus is read through linalg.integer.
    reg = regular_lattice(C2)
    for modulus in (True, False, 2.0, Fraction(2)):
        with pytest.raises(TypeError):
            presentation_mod(reg, modulus)
    for modulus in (0, -2):
        with pytest.raises(ValueError, match="modulus must be at least 1"):
            presentation_mod(reg, modulus)
    assert presentation_mod(reg, np.int64(2)) == presentation_mod(reg, 2)


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
    # presentation_mod derives its Smith frame (U = I for modulus * I), and
    # the relation cone of H^0-H^2 and the splitting enumerator read it, so
    # no solve and no Smith form with transforms runs at all.
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
    cohomology.cache_clear()
    pres = presentation_mod(m, 2)
    assert m.group.order == 4 and pres.generators == 3
    assert all(cohomology(m.group, pres, q) == FGAbelian(0, (2,)) for q in (0, 1, 2))
    assert enumerate_splittings(m.group, pres).class_count == 2
    assert solves == [] and transforms == []


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
    return g, _moved(draw, rng, m)


def _moved(draw, rng: random.Random, m: GLattice) -> np.ndarray:
    """A copy of the stack of ``m``, possibly with one entry moved by a
    nonzero integer drawn on both sides of the probe's base b, or with one
    coset x<s> of the first generator s moved to M X(x)."""
    g, stack = m.group, dense(m.action).copy()
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
            stack[x] = dense(linalg.mul(u, stack[x]))
    return stack


def _constructor_error(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@given(_perturbed_stacks())
@example((C2, np.zeros((2, 3, 3), dtype=object)))
@example((C2, np.array([[[1, 0], [0, 1]], [[-1, 0], [0, 0]]], dtype=object)))  # a zero row
@example((C2, np.array([[[1, 0], [0, 1]], [[1, -2 ** 71], [0, -1]]], dtype=object)))  # involution
@example((C2, np.array([[[1, 0], [0, 1]], [[1, 2 ** 70], [0, 1]]], dtype=object)))  # X(g)^2 != I
@settings(deadline=None, max_examples=150)
def test_probe_group_law_matches_full_products(case):
    # The constructors decide the group law on one probe vector; the
    # reference multiplies every pair of matrices.  Verdict and message agree,
    # on Z^n and modulo 3 Z^n (where moves by multiples of 3 keep an action).
    g, stack = case
    n = stack.shape[1]
    assert _constructor_error(lambda: GLattice(g, stack)) == \
        reference_action_error(g, stack)
    rel = 3 * identity(n)
    assert _constructor_error(lambda: GModulePresentation(g, rel, stack)) == \
        reference_action_error(g, stack, rel)


_ORDER_16 = [cyclic_group(16), product_group(C2, cyclic_group(8)), product_group(C4, C4),
             product_group(KLEIN, C4), product_group(KLEIN, KLEIN)]


@st.composite
def _larger_stacks(draw):
    """(group, stack) as in ``_perturbed_stacks``, of about 10^3 entries
    |G| n^2: a direct sum of random lattices over a group of order at most
    8, of rank within two of where |G| n^2 reaches 1024, or the regular
    lattice of a group of order 16."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if rng.random() < 0.2:  # the reference takes about 0.2 s at |G| = 16
        m = regular_lattice(draw(st.sampled_from(_ORDER_16)))
    else:
        g = draw(st.sampled_from(group_family_up_to_8()))
        rank = math.isqrt(1024 // g.order) + rng.randint(-2, 2)
        parts = [random_glattice(g, 2, rng)]
        while sum(p.rank for p in parts) < rank:
            parts.append(random_glattice(g, min(2, rank - sum(p.rank for p in parts)), rng))
        m = direct_sum_all(parts)
    return m.group, _moved(draw, rng, m)


def _padded(*blocks) -> np.ndarray:
    """A stack of rank 23 whose X(a) is blocks[a] on the first coordinates
    and the identity on the rest."""
    stack = np.repeat(identity(23)[None], len(blocks), axis=0)
    for a, block in enumerate(blocks):
        block = np.array(block, dtype=object)
        stack[a, :len(block), :len(block)] = block
    return stack


@given(_larger_stacks())
@example((C2, np.zeros((2, 23, 23), dtype=object)))
@example((C2, _padded([[1]], [[-1, 0], [0, 0]])))  # X(g) has an all-zero row
@example((C2, _padded([[1, 0], [0, 1]], [[-7, 1], [0, 1]])))
@settings(deadline=None, max_examples=25)
def test_nonzero_probe_matches_full_products(case):
    # As test_probe_group_law_matches_full_products, on stacks ten times
    # larger, and on an all-zero stack and a zero row, which the probe's
    # nonzero reading must still write as zeros.
    g, stack = case
    rel = 3 * identity(stack.shape[1])
    assert _constructor_error(lambda: GLattice(g, stack)) == \
        reference_action_error(g, stack)
    assert _constructor_error(lambda: GModulePresentation(g, rel, stack)) == \
        reference_action_error(g, stack, rel)


def _derived_family(g, rng: random.Random):
    """Yield (constructor, lattice) for every constructor that skips the
    probe, over ``g``, each before anything probes a lattice built from it:
    trivial and sign lattices; direct sums of 1-4 lattices from the pools;
    the norm-one lattice written off the group table; on the regular
    lattice, a scrambled random lattice of rank at most 2 and the norm-one
    quotient, restrictions to every subgroup, duals and invariant quotients;
    induced lattices and coset permutation lattices from every subgroup."""
    reg = regular_lattice(g)
    ones = rank_one_pool(g)
    yield "trivial", trivial_lattice(g, rng.randint(0, 2))
    yield from (("sign", m) for m in ones[1:])
    yield "direct_sum_all", direct_sum_all(rng.choices(ones + [reg], k=rng.randint(1, 4)))
    pool = rank_two_pool(g) + [random_glattice(g, 2, rng)]
    yield "direct_sum_all", direct_sum_all(rng.choices(pool, k=rng.randint(1, 4)))
    norm_one, _ = quotient_lattice(reg, norm_vector(reg))
    yield "norm_one", norm_one
    yield "make_torus norm_one", make_torus(g, "norm_one").X
    for m in (reg, pool[-1], norm_one):
        yield "dual", dual(m)
        yield "quotient", quotient_lattice(m, invariants(m)[0])[0]
        yield from (("restrict", restrict(m, h)) for h in all_subgroups(g))
    for h in all_subgroups(g):
        yield "permutation", permutation_lattice(coset_gset(g, h))
        yield "induce", induce(h, random_glattice(h.as_group(), 2, rng))


@given(st.sampled_from(_LAW_GROUPS), st.integers(0, 2 ** 32))
@example(s3_group(), 0)  # the duals and induced lattices of S3 are not abelian
@settings(deadline=None, max_examples=20)
def test_derived_lattices_are_actions(g, seed):
    # Derived lattices are not probed at run time; here every one of them is
    # an action by full products over the whole stack, and it equals, and
    # hashes like, the probed lattice rebuilt from its nested lists.
    for name, m in _derived_family(g, random.Random(seed)):
        assert reference_action_error(m.group, m.action) is None, name
        again = glattice(m.group, dense(m.action).tolist())
        assert again == m and hash(again) == hash(m), name
        assert type(m.action) is tuple, name
        assert all(type(x) is linalg.Matrix for x in m.action), name


@pytest.mark.parametrize("g", group_family_up_to_8(), ids=str)
def test_norm_vector_is_the_sum_of_first_columns(g):
    # norm_vector reads column 0 off each row's first pair; the oracle cuts
    # the column out of every matrix and sums the columns.
    for name, m in _derived_family(g, random.Random(g.order)):
        assert norm_vector(m) == norm_vector_by_columns(m), name


# The splitting data of the suite's tori: the cold_tamagawa benchmark's, then
# (Z/260)^x and 840/squares.
TORUS_DATA = [(4, None), (8, (1, 3)), (12, (1, 5)), (5, None), (12, None), (16, (1, 7)),
              (15, None), (24, None), (40, (1, 9)), (60, (1, 49)), (120, (1, 49)), (17, None),
              (32, None), (40, None), (48, None), (260, None),
              (840, (1, 121, 169, 289, 361, 529))]


@pytest.mark.parametrize("modulus, subgroup", TORUS_DATA)
def test_norm_vector_of_tori_is_the_sum_of_first_columns(modulus, subgroup):
    datum = AbelianGaloisDatum(modulus, subgroup)
    norm_one, res = make_torus(datum, "norm_one"), make_torus(datum, "res")
    product = make_torus(datum, "product", factors=[norm_one, res, make_torus(datum, "split")])
    for m in (norm_one.X, res.X, dual(norm_one.X), product.X):
        assert norm_vector(m) == norm_vector_by_columns(m), m


@pytest.mark.parametrize("g", group_family_up_to_8() + [s3_group()], ids=str)
def test_permutation_stacks_match_the_sorted_construction(g):
    # _permutation places each row's 1 by the inverse permutation; the oracle
    # sorts the pairs (image, x) and builds every matrix through Matrix.
    assert regular_lattice(g).action == sorted_permutation_stack(g, g.table)
    for h in all_subgroups(g):
        gset = coset_gset(g, h)
        assert permutation_lattice(gset).action == sorted_permutation_stack(g, gset.action), h
    cover = [[b * 2 + i for b in row for i in range(2)] for row in g.table]  # Z[G]^2
    assert lattices._permutation(g, cover).action == sorted_permutation_stack(g, cover)


def test_only_caller_data_is_probed(monkeypatch):
    # The derived constructors, presentation_mod among them, never run the
    # probe; GLattice(...), glattice, explicit lattice tori and
    # GModulePresentation(...) run it once each.
    calls = []
    probe = lattices._holds_exactly

    def counting(group, stack):
        calls.append((len(stack),) + stack[0].shape)
        return probe(group, stack)

    monkeypatch.setattr(lattices, "_holds_exactly", counting)
    g = product_group(C2, C4)
    h = subgroup_closure(g, [2])
    reg = regular_lattice(g)
    trivial_lattice(g, 2)
    sign_lattice(g, index_two_subgroups(g)[0])
    permutation_lattice(coset_gset(g, h))
    induce(h, sign_lattice(h.as_group(), trivial_subgroup(h.as_group())))
    restrict(reg, h)
    direct_sum(reg, reg)
    direct_sum_all([reg, dual(reg), trivial_lattice(g, 1)])
    quotient_lattice(reg, norm_vector(reg))
    quotient_lattice(reg, invariants(reg)[0])
    for kind in ("norm_one", "res", "split"):
        make_torus(g, kind)
    make_torus(g, "product", factors=[make_torus(g, "res")] * 3)
    presentation_mod(reg, 3)
    assert calls == []
    nested = dense(reg.action).tolist()
    GLattice(g, nested)
    assert len(calls) == 1
    glattice(g, nested)
    assert len(calls) == 2
    make_torus(g, "lattice", matrices=nested)
    assert len(calls) == 3
    GModulePresentation(g, 3 * identity(8), nested)
    assert calls == [(8, 8, 8)] * 4
    # Z/3 with C2 acting by 2 holds only modulo 3; H^1 reads it as the
    # derived Z[C2] / K, so only the constructor probes.
    calls.clear()
    cohomology.cache_clear()
    cohomology(C2, GModulePresentation(C2, ((3,),), (((1,),), ((2,),))), 1)
    assert calls == [(2, 1, 1)]


def test_the_regular_cover_is_built_once_per_record(monkeypatch):
    # Z/3 with C2 acting by 2 holds only modulo 3, so its relation complex is
    # read off the regular cover; the record keeps that complex, and H^0, H^1
    # and H^2 build the cover once between them.
    covers = []
    cover = lattices._regular_cover

    def counting(module):
        covers.append(module)
        return cover(module)

    monkeypatch.setattr(lattices, "_regular_cover", counting)
    cohomology.cache_clear()
    pres = GModulePresentation(C2, ((3,),), (((1,),), ((2,),)))
    assert all(cohomology(C2, pres, q).is_trivial() for q in (0, 1, 2))
    assert len(covers) == 1 and covers[0] is pres


@given(st.sampled_from(group_family_up_to_8()), st.sampled_from((1, 2, 3, 6)),
       st.integers(0, 2 ** 32))
@settings(deadline=None, max_examples=30)
def test_presentation_mod_is_derived(g, k, seed):
    # presentation_mod runs neither the probe nor a Smith form.  The module
    # that GModulePresentation probes and puts into Smith form from the same
    # nested lists must equal it and hash like it, have the same frame and
    # the same H^0-H^2 (each computed from empty caches), and the same count
    # of splitting classes.
    m = random_glattice(g, 2, random.Random(seed))
    derived = presentation_mod(m, k)
    probed = GModulePresentation(g, k * identity(m.rank), dense(m.action).tolist())
    assert derived == probed and hash(derived) == hash(probed)
    (exact, d, frame), (exact_p, d_p, frame_p) = derived._frame, probed._frame
    assert exact is exact_p is True and d == d_p and frame == frame_p
    for q in (0, 1, 2):
        answers = []
        for module in (derived, probed):
            cohomology.cache_clear()
            answers.append(cohomology(g, module, q))
        assert answers[0] == answers[1], q
    if k ** (m.rank * g.order) <= 10 ** 4:
        assert enumerate_splittings(g, derived).class_count == \
            enumerate_splittings(g, probed).class_count


def test_records_are_hashed_on_first_use():
    # Derived records carry no hash until something hashes them; then it is
    # the hash of the probed record built from the same nested lists, and it
    # sees the group as well as the entries.
    g = product_group(C2, C4)
    m = dual(regular_lattice(g))
    pres = presentation_mod(m, 3)
    assert "_hash" not in vars(m) and "_hash" not in vars(pres)
    assert hash(pres) == hash(GModulePresentation(g, 3 * identity(8), dense(m.action).tolist()))
    assert "_hash" in vars(pres) and "_hash" not in vars(m)
    assert hash(m) == hash(glattice(g, dense(m.action).tolist())) and "_hash" in vars(m)
    assert hash(trivial_lattice(C4, 2)) != hash(trivial_lattice(KLEIN, 2))


def test_probe_base_exceeds_product_entries():
    # X(g) = [[-c, 1], [0, 1]] is no involution, yet X(g)^2 - I =
    # [[c^2 - 1, 1 - c], [0, 0]] vanishes on (1, c + 1): a probe in base
    # c + 1 would accept it.  The base n c^2 + c + 1 bounds every entry.
    for c in range(2, 40):
        stack = np.array([[[1, 0], [0, 1]], [[-c, 1], [0, 1]]], dtype=object)
        assert reference_action_error(C2, stack) is not None
        with pytest.raises(ValueError, match="group law"):
            GLattice(C2, stack)
        rel = 5 * identity(2)
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
    rel = 3 * identity(len(stack[C2.identity]))
    message = _constructor_error(lambda: GLattice(C2, stack))
    assert message is not None
    assert _constructor_error(lambda: GModulePresentation(C2, rel, stack)) == message


@pytest.mark.parametrize("g", [C2, C4, KLEIN, product_group(C2, C4)], ids=str)
def test_a_lattice_is_the_presentation_with_no_relations(g):
    # One record: a lattice is a GModulePresentation whose relations are a
    # read-only n x 0 array, probed, hashed and compared by the same code,
    # yet never equal to the presentation on the same entries.  Relations
    # that are all zero columns give the lattice's H^0-H^2, with an n x 0
    # basis in the cone, not the zero columns.
    assert issubclass(GLattice, GModulePresentation)
    assert "__post_init__" in GLattice.__dict__
    rng = random.Random(g.order)
    for m in (regular_lattice(g), trivial_lattice(g, 0), random_glattice(g, 2, rng),
              quotient_lattice(regular_lattice(g), norm_vector(regular_lattice(g)))[0]):
        probed = GLattice(g, dense(m.action).tolist())
        for lattice in (m, probed):
            assert lattice.relations.shape == (lattice.rank, 0)
            assert type(lattice.relations) is linalg.Matrix
            assert lattice.rank == lattice.generators == m.rank
        assert probed == m and hash(probed) == hash(m)
        assert m != presentation_of_lattice(m) != m
        zero = GModulePresentation(g, linalg.zeros(m.rank, 2), m.action)
        assert zero != m
        assert zero._relation_complex[1].shape == (m.rank, 0)
        for q in (0, 1, 2):
            assert cohomology(g, zero, q) == cohomology(g, m, q), (m, q)


def test_rank_and_generators_are_read_off_the_identity():
    assert GLattice(C2, [[], []]).rank == 0
    assert GModulePresentation(C2, [], [[], []]).generators == 0
    swap = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    assert GLattice(C2, swap).rank == 2 == regular_lattice(C2).rank
    assert GModulePresentation(C2, [[2], [2]], swap).generators == 2


def test_fgabelian_reads_integers():
    # int() truncated 2.5 to 2 and read True as 1, and the constructor kept
    # floats, printing Z^1.5 and C2.0.
    for build in (lambda: FGAbelian.from_divisors([2.5, 4]),
                  lambda: FGAbelian.from_divisors([True, 2]),
                  lambda: FGAbelian(1.5, ()), lambda: FGAbelian(0, (2.0, 4))):
        with pytest.raises(TypeError):
            build()
    g = FGAbelian(np.int64(1), [np.int64(2), 4])
    assert g == FGAbelian(1, (2, 4)) and str(g) == "Z x C2 x C4"
    assert type(g.free_rank) is int and type(g.torsion) is tuple
    assert all(type(d) is int for d in g.torsion)


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


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: trivial_lattice(C2, -1), ValueError, "rank must be at least 0",
                 id="trivial-rank"),
    pytest.param(lambda: sign_lattice(C4, trivial_subgroup(C2)), ValueError,
                 "subgroup of the acting group", id="sign-kernel"),
    pytest.param(lambda: induce(trivial_subgroup(C2), trivial_lattice(C2)), ValueError,
                 "not over the given subgroup", id="induce-group"),
    pytest.param(lambda: restrict(regular_lattice(C2), trivial_subgroup(C4)), ValueError,
                 "does not belong", id="restrict-subgroup"),
    pytest.param(lambda: direct_sum_all([]), ValueError, "empty direct sum", id="empty-sum"),
    # Ranks past groups.ORDER_LIMIT (2048) are refused before anything is built.
    pytest.param(lambda: trivial_lattice(C2, 2049), UnsupportedRequestError,
                 "lattice rank is bounded by 2048, got 2049", id="trivial-rank-bound"),
    pytest.param(lambda: direct_sum_all([trivial_lattice(C2, 2048), regular_lattice(C2)]),
                 UnsupportedRequestError, "lattice rank is bounded by 2048, got 2050",
                 id="sum-rank-bound"),
    pytest.param(lambda: induce(trivial_subgroup(C2),
                                trivial_lattice(trivial_subgroup(C2).as_group(), 2048)),
                 UnsupportedRequestError, "lattice rank is bounded by 2048, got 4096",
                 id="induce-rank-bound"),
    pytest.param(lambda: quotient_lattice(regular_lattice(C2), linalg.intmat([[1]])),
                 ValueError, "wrong ambient rank", id="quotient-rank"),
])
def test_lattice_argument_checks(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)
