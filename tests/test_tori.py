import random

import pytest
from hypothesis import given, settings, strategies as st

from toruskit import linalg
from toruskit.arith import AbelianGaloisDatum
from toruskit.cohomology import cohomology
from toruskit.errors import InternalInvariantError
from toruskit.groups import cyclic_group, product_group, trivial_subgroup
from toruskit.lattices import (_lattice, direct_sum, direct_sum_all, invariants, regular_lattice,
                               sign_lattice, trace_character, trivial_lattice)
from toruskit.tori import (RealClassification, Torus, classify_real,
                           dual_torus, isogenous, make_torus, norm_character,
                           rank_profile)

from support import (conjugate, group_family_up_to_8, random_glattice,
                     random_unimodular, s3_group)

C1 = cyclic_group(1)
C2 = cyclic_group(2)
QI = AbelianGaloisDatum(4)  # order-2 Galois group


def lattice_torus(splitting, lattice):
    return make_torus(splitting, "lattice", matrices=[
        m.tolist() for m in lattice.action])


def test_make_torus_split():
    t = make_torus(C1, "split", dim=1)
    assert t.dim == 1 and t.X == trivial_lattice(C1, 1)


def test_make_torus_res_is_regular():
    t = make_torus(QI, "res")
    assert t.X == regular_lattice(QI.group)


def test_make_torus_norm_one_is_sign():
    t = make_torus(QI, "norm_one")
    assert t.X == sign_lattice(QI.group, trivial_subgroup(QI.group))


def test_make_torus_so2_requires_order_two():
    assert make_torus(QI, "so2").X.action[1].tolist() == [[-1]]
    with pytest.raises(ValueError):
        make_torus(cyclic_group(3), "so2")


def test_make_torus_product_and_lattice():
    res = make_torus(QI, "res")
    so2 = make_torus(QI, "so2")
    prod = make_torus(QI, "product", factors=[res, so2])
    assert prod.dim == 3
    with pytest.raises(ValueError):
        make_torus(cyclic_group(2), "product", factors=[res])
    explicit = make_torus(QI, "lattice", matrices=[[[1]], [[-1]]])
    assert explicit.X == so2.X


def test_rank_profile_split():
    for d in (1, 2, 5):
        t = make_torus(QI, "split", dim=d)
        assert rank_profile(t) == (d, d, 0)


def test_rank_profile_norm_one_anisotropic():
    for n in (2, 3, 4, 8):
        datum = cyclic_group(n)
        t = make_torus(datum, "norm_one")
        assert rank_profile(t) == (n - 1, 0, n - 1)


def test_rank_profile_res():
    for n in (1, 2, 4):
        t = make_torus(cyclic_group(n), "res")
        assert rank_profile(t) == (n, 1, n - 1)


def test_rank_profile_refuses_a_trace_character_off_the_integers():
    # A derived lattice is not probed, so a stack that is no action gets
    # through: here C2 acting by (1) and (0), whose trace character averages
    # to 1/2.  rank_profile raises on the remainder, as cohomology does at
    # q = 0, and does not floor it to a split rank of 0.
    broken = _lattice(C2, (linalg.eye(1), linalg.zeros(1, 1)))
    t = Torus(C2, broken, "lattice")
    with pytest.raises(InternalInvariantError, match="average"):
        rank_profile(t)
    with pytest.raises(InternalInvariantError, match="average"):
        cohomology(C2, broken, 0)


@given(st.sampled_from(group_family_up_to_8() + [s3_group()]), st.integers(0, 2 ** 32))
@settings(deadline=None, max_examples=40)
def test_split_rank_is_the_rank_of_the_fixed_sublattice(g, seed):
    # rank_profile averages the trace character; invariants computes a
    # basis of X^G from a Smith form and a Hermite form.
    rng = random.Random(seed)
    parts = [random_glattice(g, 2, rng) for _ in range(rng.randint(1, 3))]
    for kind, t in (("norm_one", make_torus(g, "norm_one")), ("res", make_torus(g, "res")),
                    ("lattice", Torus(g, direct_sum_all(parts), "lattice"))):
        assert rank_profile(t).split_rank == invariants(t.X)[1], kind


def test_classify_real_basic_tori():
    assert classify_real(make_torus(C1, "split", dim=1)) == RealClassification(1, 0, 0)
    assert classify_real(make_torus(QI, "res")) == RealClassification(0, 1, 0)
    assert classify_real(make_torus(QI, "so2")) == RealClassification(0, 0, 1)
    mixed = lattice_torus(QI, direct_sum(trivial_lattice(QI.group, 1),
                                         sign_lattice(QI.group, trivial_subgroup(QI.group))))
    assert classify_real(mixed) == RealClassification(1, 0, 1)


def test_classify_real_additive_and_basis_invariant():
    rng = random.Random(101)
    g = QI.group
    basics = [trivial_lattice(g, 1), regular_lattice(g),
              sign_lattice(g, trivial_subgroup(g))]
    outcomes = [RealClassification(1, 0, 0), RealClassification(0, 1, 0),
                RealClassification(0, 0, 1)]
    for _ in range(25):
        picks = [rng.randrange(3) for _ in range(rng.randrange(1, 4))]
        lattice = basics[picks[0]]
        for p in picks[1:]:
            lattice = direct_sum(lattice, basics[p])
        lattice = conjugate(lattice, random_unimodular(lattice.rank, rng))
        got = classify_real(lattice_torus(QI, lattice))
        want = RealClassification(sum(outcomes[p].a for p in picks),
                                  sum(outcomes[p].b for p in picks),
                                  sum(outcomes[p].c for p in picks))
        assert got == want
        assert got.a + 2 * got.b + got.c == lattice.rank


def test_classify_real_rejects_large_groups():
    with pytest.raises(ValueError):
        classify_real(make_torus(cyclic_group(3), "res"))


def test_isogenous_examples():
    res = make_torus(QI, "res")
    split1 = make_torus(QI, "split", dim=1)
    so2 = make_torus(QI, "so2")
    assert isogenous(res, res)
    assert not isogenous(split1, so2)
    mixed = lattice_torus(QI, direct_sum(split1.X, so2.X))
    assert isogenous(res, mixed)  # same character (2, 0), non-isomorphic lattices
    assert mixed.X != res.X


def test_isogenous_properties():
    rng = random.Random(59)
    res = make_torus(QI, "res")
    so2 = make_torus(QI, "so2")
    assert isogenous(res, so2) == isogenous(so2, res)
    # stable under adding a common summand
    a = lattice_torus(QI, direct_sum(res.X, so2.X))
    b = lattice_torus(QI, direct_sum(lattice_torus(QI, direct_sum(
        trivial_lattice(QI.group, 1), so2.X)).X, so2.X))
    assert isogenous(res, lattice_torus(QI, direct_sum(trivial_lattice(QI.group, 1), so2.X)))
    assert isogenous(a, b)
    # conjugation never changes the isogeny class
    twisted = lattice_torus(QI, conjugate(res.X, random_unimodular(2, rng)))
    assert isogenous(res, twisted)


def test_isogeny_requires_common_group():
    # note: (Z/4)^x and the abstract C2 are canonically identified, so that
    # pair is legal; an order mismatch is not
    assert isogenous(make_torus(QI, "res"), make_torus(cyclic_group(2), "res"))
    with pytest.raises(ValueError):
        isogenous(make_torus(QI, "res"), make_torus(cyclic_group(3), "res"))


def test_dual_torus():
    assert dual_torus(make_torus(QI, "split", dim=3)) == trivial_lattice(QI.group, 3)
    res = make_torus(QI, "res")
    assert dual_torus(res) == res.X  # permutation lattices are self-dual
    rng = random.Random(61)
    twisted = lattice_torus(QI, conjugate(res.X, random_unimodular(2, rng)))
    dd = dual_torus(lattice_torus(QI, dual_torus(twisted)))
    assert trace_character(dd) == trace_character(twisted.X)


def test_norm_character():
    res = make_torus(QI, "res")
    nm = norm_character(res)
    assert nm.matrix == ((1,), (1,))
    trivial = make_torus(C1, "res")
    assert norm_character(trivial).matrix == ((1,),)
    with pytest.raises(ValueError):
        norm_character(make_torus(QI, "split", dim=2))


def test_norm_character_exact_sequence():
    from toruskit.lattices import quotient_lattice
    for n in (2, 3, 4):
        res = make_torus(cyclic_group(n), "res")
        nm = norm_character(res)
        mat = linalg.intmat(nm.matrix, shape=(n, 1))
        quot, proj = quotient_lattice(res.X, mat)
        assert quot.rank == n - 1
        p = linalg.intmat(proj, shape=(n - 1, n))
        assert linalg.is_zero(linalg.mul(p, mat))  # composite is zero


def test_torus_splitting_mismatch():
    with pytest.raises(ValueError):
        Torus(QI, regular_lattice(cyclic_group(3)), "res")


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: make_torus(object(), "split"), TypeError,
                 "FiniteGroup or carry a .group", id="splitting"),
    pytest.param(lambda: make_torus(C2, "product"), ValueError, "at least one factor",
                 id="no-factors"),
    pytest.param(lambda: make_torus(C2, "product", factors=[
        make_torus(C2, "split"), make_torus(cyclic_group(4), "split")]), ValueError,
                 "live over the given splitting", id="mixed-factors"),
    pytest.param(lambda: make_torus(C2, "lattice"), ValueError,
                 "one matrix per group element", id="no-matrices"),
    pytest.param(lambda: make_torus(C2, "spin"), ValueError, "unknown torus kind",
                 id="kind"),
    pytest.param(lambda: make_torus(C2, "split", dim=True), TypeError, "integer",
                 id="dim-bool"),
    pytest.param(lambda: make_torus(C2, "split", dim=2.0), TypeError, "integer",
                 id="dim-float"),
])
def test_make_torus_argument_checks(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)
