import itertools
import math
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from toruskit.errors import UnsupportedRequestError
from toruskit.groups import (FiniteGSet, FiniteGroup, Subgroup,
                             abelian_decomposition, all_subgroups, coset_gset,
                             cyclic_group, cyclic_subgroups,
                             cyclotomic_quotient_group, generating_set,
                             index_two_subgroups, make_group, orbits,
                             product_group, subgroup_closure,
                             trivial_subgroup)

from support import group_family_up_to_8, s3_group


def test_make_group_cyclic_one():
    g = make_group({"type": "cyclic", "n": 1})
    assert g.order == 1 and g.identity == 0


def test_make_group_klein():
    g = make_group({"type": "product",
                    "factors": [{"type": "cyclic", "n": 2}, {"type": "cyclic", "n": 2}]})
    assert g.order == 4
    assert all(g.mul(a, a) == g.identity for a in g.elements())  # exponent 2


def test_make_group_cyclotomic_gaussian():
    # independent oracle: enumerate the units of Z/4 directly
    units = [a for a in range(4) if gcd(a, 4) == 1]
    assert units == [1, 3]
    g = make_group({"type": "cyclotomic", "modulus": 4, "subgroup": [1]})
    assert g.order == 2


def test_make_group_rejects_bad_specs():
    with pytest.raises(ValueError):
        make_group({"type": "cyclic", "n": 0})
    with pytest.raises(ValueError):
        make_group({"type": "cyclotomic", "modulus": 8, "subgroup": [1, 3, 5]})
    with pytest.raises(ValueError):
        make_group({"type": "nope"})
    with pytest.raises(ValueError):
        make_group([1])
    with pytest.raises(ValueError):
        make_group({"type": "product", "factors": ["x"]})


@pytest.mark.parametrize("g", group_family_up_to_8(), ids=lambda g: g.label)
def test_group_axioms_exhaustive(g):
    for a, b, c in itertools.product(g.elements(), repeat=3):
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    for a in g.elements():
        assert g.mul(a, g.inv(a)) == g.identity
        assert g.mul(g.identity, a) == a


def test_cyclic_subgroups_trivial_group():
    g = cyclic_group(1)
    subs = cyclic_subgroups(g)
    assert len(subs) == 1 and subs[0].elements == (0,)


def test_cyclic_subgroups_c4():
    # oracle: close each singleton by hand
    g = cyclic_group(4)
    expected = set()
    for x in g.elements():
        cur = {g.identity}
        y = x
        while y not in cur:
            cur.add(y)
            y = g.mul(y, x)
        expected.add(tuple(sorted(cur)))
    subs = cyclic_subgroups(g)
    assert {s.elements for s in subs} == expected
    assert sorted(s.order for s in subs) == [1, 2, 4]


def test_cyclic_subgroups_klein():
    g = product_group(cyclic_group(2), cyclic_group(2))
    subs = cyclic_subgroups(g)
    assert sorted(s.order for s in subs) == [1, 2, 2, 2]


def test_cyclic_subgroups_generated_by_least_generator():
    # every returned set is <g> for its least generating element; in cyclic
    # parents that element is the least non-identity one
    for g in group_family_up_to_8():
        for s in cyclic_subgroups(g):
            if s.order == 1:
                continue
            gens = [x for x in s.elements
                    if subgroup_closure(g, [x]).elements == s.elements]
            assert gens, f"{s.elements} is not cyclic"
    for n in range(2, 9):
        g = cyclic_group(n)
        for s in cyclic_subgroups(g):
            if s.order == 1:
                continue
            least = min(x for x in s.elements if x != g.identity)
            assert subgroup_closure(g, [least]).elements == s.elements


def test_all_subgroups_lagrange():
    for g in group_family_up_to_8():
        for s in all_subgroups(g):
            assert g.order % s.order == 0


def test_all_subgroups_counts():
    c2 = cyclic_group(2)
    klein = product_group(c2, c2)
    assert len(all_subgroups(klein)) == 5
    assert len(all_subgroups(product_group(klein, c2))) == 16
    assert len(index_two_subgroups(klein)) == 3


def test_subgroup_as_group_roundtrip():
    g = cyclic_group(6)
    s = subgroup_closure(g, [2])
    assert s.elements == (0, 2, 4)
    sub = s.as_group()
    assert sub.order == 3
    for i, a in enumerate(s.elements):
        for j, b in enumerate(s.elements):
            assert s.elements[sub.mul(i, j)] == g.mul(a, b)


def test_orbits_trivial_action():
    g = cyclic_group(2)
    x = FiniteGSet(g, tuple(tuple(range(3)) for _ in g.elements()))
    out = orbits(x)
    assert [o for o, _ in out] == [(0,), (1,), (2,)]
    assert all(stab.order == 2 for _, stab in out)


def test_orbits_swap():
    g = cyclic_group(2)
    x = FiniteGSet(g, ((0, 1), (1, 0)))
    out = orbits(x)
    assert out[0][0] == (0, 1)
    assert out[0][1].order == 1


def test_orbits_regular_klein():
    g = product_group(cyclic_group(2), cyclic_group(2))
    x = FiniteGSet(g, tuple(tuple(g.mul(a, b) for b in g.elements()) for a in g.elements()))
    out = orbits(x)
    assert len(out) == 1
    assert len(out[0][0]) == 4 and out[0][1].order == 1


def test_orbit_stabilizer_identity():
    for g in group_family_up_to_8()[:6]:
        for h in all_subgroups(g):
            x = coset_gset(g, h)
            total = 0
            for orbit, stab in orbits(x):
                assert len(orbit) * stab.order == g.order
                total += len(orbit)
            assert total == x.size


def test_gset_validation():
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        FiniteGSet(g, ((0, 1), (0, 1), (0, 1)))  # wrong shape
    for ragged in (((0, 1), (1,)), ((0,), (1, 0))):
        with pytest.raises(ValueError, match="wrong shape"):
            FiniteGSet(g, ragged)
    assert FiniteGSet(g, ((0, 1, 2), (1, 0, 2))).size == 3
    with pytest.raises(ValueError):
        FiniteGSet(g, ((1, 0), (0, 1)))  # identity must act trivially


def test_gset_catches_corruption_outside_generating_set():
    # the action law is checked on generators only; a wrong permutation for
    # an element outside the generating set must still be caught
    for g in (cyclic_group(8), product_group(cyclic_group(2), cyclic_group(4)),
              s3_group()):
        regular = [tuple(g.mul(a, x) for x in g.elements()) for a in g.elements()]
        gens = generating_set(g)
        bad = max(a for a in g.elements() if a != g.identity and a not in gens)
        other = next(b for b in g.elements() if b not in (g.identity, bad))
        FiniteGSet(g, tuple(regular))
        regular[bad] = regular[other]
        with pytest.raises(ValueError, match="group law"):
            FiniteGSet(g, tuple(regular))


def _relabel(table, perm):
    """The table with every element a renamed perm[a]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return out


@given(st.sampled_from(group_family_up_to_8() + [s3_group()]), st.data())
@settings(deadline=None)
def test_group_fields_follow_a_relabelled_table(g, data):
    # Order, identity and inverses are read off the table, wherever the
    # relabelling puts them; a table that breaks one of them is refused.
    perm = data.draw(st.permutations(range(g.order)))
    h = FiniteGroup(_relabel(g.table, perm))
    assert h == FiniteGroup(h.table) and h.order == g.order
    assert h.identity == perm[g.identity]
    assert all(h.inverse[perm[a]] == perm[g.inverse[a]] for a in g.elements())
    e, others = h.identity, [x for x in h.elements() if x != h.identity]
    if not others:
        return
    with pytest.raises(ValueError, match="no identity"):
        FiniteGroup([list(h.elements())] * g.order)  # x y = y: every x is a left identity
    a = data.draw(st.sampled_from(others))
    b = h.inverse[a]
    table = [list(row) for row in h.table]
    table[a][b] = a  # row a no longer holds the identity
    with pytest.raises(ValueError, match="missing inverse"):
        FiniteGroup(table)
    if g.order < 3:
        return
    # Renaming two products leaves no element acting trivially on both
    # sides: a transposition of three or more elements is no translation.
    x, y = data.draw(st.lists(st.sampled_from(h.elements()), min_size=2, max_size=2,
                              unique=True))
    with pytest.raises(ValueError, match="no identity"):
        FiniteGroup([[{x: y, y: x}.get(c, c) for c in row] for row in h.table])
    # Moving the identity in row b from column a to column c (not a, not e)
    # keeps every row's identity but makes a b = e while b a != e.
    c = data.draw(st.sampled_from([x for x in others if x != a]))
    table = [list(row) for row in h.table]
    table[b][a], table[b][c] = table[b][c], table[b][a]
    with pytest.raises(ValueError, match="two-sided inverse"):
        FiniteGroup(table)


@given(st.permutations(range(5)))
@example([0, 1, 2, 3, 4])
def test_group_rejects_non_associative_loop(perm):
    # a Latin square with identity 0 and every element its own two-sided
    # inverse, but (1 2) 2 = 3 2 = 4 while 1 (2 2) = 1 0 = 1, under any labels
    rows = ("01234", "10342", "24013", "32401", "43120")
    table = tuple(tuple(int(x) for x in row) for row in rows)
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup(_relabel(table, perm))


def test_subgroup_validation():
    g = cyclic_group(4)
    with pytest.raises(ValueError):
        Subgroup(g, (0, 1))  # not closed
    with pytest.raises(ValueError):
        Subgroup(g, (1, 3))  # misses identity


def test_cyclotomic_canonical_order():
    g = cyclotomic_quotient_group(8)
    assert g.order == 4
    assert g.label == "(Z/8)^x"
    # element order must follow increasing representatives 1, 3, 5, 7
    h = cyclotomic_quotient_group(8, [1, 3])
    assert h.order == 2


@pytest.mark.parametrize("g", group_family_up_to_8() + [
    cyclotomic_quotient_group(120, [1, 49]),
    cyclotomic_quotient_group(840, [1, 121, 169, 289, 361, 529])])
def test_abelian_decomposition_is_an_isomorphism(g):
    dec = abelian_decomposition(g)
    assert all(n >= 2 for n in dec.orders)
    assert all(b % a == 0 for a, b in zip(dec.orders[1:], dec.orders))
    assert math.prod(dec.orders) == g.order
    assert [g.element_order(x) for x in dec.generators] == list(dec.orders)
    assert len(set(dec.exponents)) == g.order
    for a in g.elements():
        assert dec.element(dec.exponents[a]) == a
        for b in g.elements():
            summed = [x + y for x, y in zip(dec.exponents[a], dec.exponents[b])]
            assert dec.element(summed) == g.mul(a, b)


def test_abelian_decomposition_invariants():
    two_four = product_group(cyclic_group(2), cyclic_group(4))
    assert abelian_decomposition(two_four).orders == (4, 2)
    assert abelian_decomposition(cyclic_group(6)).orders == (6,)
    assert abelian_decomposition(cyclic_group(1)).orders == ()
    witness = cyclotomic_quotient_group(120, [1, 49])
    assert abelian_decomposition(witness).orders == (2, 2, 2, 2)


def test_abelian_decomposition_rejects_non_abelian():
    with pytest.raises(UnsupportedRequestError):
        abelian_decomposition(s3_group())


@pytest.mark.parametrize("g", group_family_up_to_8() + [
    s3_group(), cyclotomic_quotient_group(1680)])
def test_generating_set_generates(g):
    gens = generating_set(g)
    assert 2 ** len(gens) <= g.order
    assert subgroup_closure(g, gens).order == g.order
