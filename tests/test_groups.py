import itertools
import math
import tracemalloc
from math import gcd
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from toruskit.arith import AbelianGaloisDatum, frobenius
from toruskit.errors import UnsupportedRequestError
from toruskit.groups import (MODULUS_LIMIT, ORDER_LIMIT, FiniteGSet, FiniteGroup, Subgroup,
                             _is_prime, abelian_decomposition, all_subgroups, coset_gset,
                             cyclic_group, cyclic_subgroups,
                             cyclotomic_quotient_group, generating_set,
                             index_two_subgroups, make_group, orbits,
                             product_group, subgroup_closure,
                             trivial_subgroup, units_mod)

from support import group_family_up_to_8, s3_group, sieve_primes


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


def test_cyclic_subgroups_are_the_distinct_singleton_closures():
    # oracle: one subgroup_closure per element, duplicates dropped, sorted
    groups = [*group_family_up_to_8(), s3_group(), cyclotomic_quotient_group(260),
              product_group(cyclic_group(4), cyclic_group(4)),
              product_group(cyclic_group(2), cyclic_group(8)),
              product_group(cyclic_group(3), cyclic_group(9)),
              product_group(s3_group(), cyclic_group(4))]
    for g in groups:
        closures = {subgroup_closure(g, [x]).elements for x in g.elements()}
        want = sorted(closures, key=lambda s: (len(s), s))
        assert [s.elements for s in cyclic_subgroups(g)] == want, g.label


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


def test_gset_copies_its_action_table():
    # Changing the caller's table after construction changes nothing, and the
    # G-set still hashes.
    table = [[0, 1], [1, 0]]
    x = FiniteGSet(cyclic_group(2), table)
    table[1] = [0, 1]
    table[0][1] = 0
    assert x.action == ((0, 1), (1, 0))
    assert hash(x) == hash(FiniteGSet(cyclic_group(2), ((0, 1), (1, 0))))


def test_group_table_entries_become_ints():
    import numpy as np

    g = FiniteGroup(np.array([[0, 1], [1, 0]]))
    assert {type(x) for row in g.table for x in row} == {int}
    assert g == cyclic_group(2) and hash(g) == hash(cyclic_group(2))


def test_gset_reads_entries_as_integers():
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        FiniteGSet(cyclic_group(2), ((0, 1), (1.0, 0)))
    with pytest.raises(TypeError, match="expected an integer"):
        FiniteGSet(cyclic_group(2), ((0, 1), (True, 0)))


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


def test_group_hash_sees_the_table_alone():
    # Labels do not enter equality or the hash, so a group rebuilt from the
    # same table under another label hits the cache entries of the first.
    g = product_group(cyclic_group(2), cyclic_group(4))
    h = FiniteGroup(g.table, "renamed")
    assert h == g and hash(h) == hash(g) and h.label != g.label
    abelian_decomposition(g)
    hits = abelian_decomposition.cache_info().hits
    assert abelian_decomposition(h) == abelian_decomposition(g)
    assert abelian_decomposition.cache_info().hits == hits + 2


def test_a_description_builds_one_shared_group():
    # The cyclotomic quotients are lru_cached on (n, H) as bounded and
    # integer read them: H in another order, with repeats, or as None against
    # (1,) is the same key, and a rebuilt datum shares the group and the
    # representatives of the first.  Its element map is its own.
    d = AbelianGaloisDatum(15, [1, 4])
    for again in (AbelianGaloisDatum(15, [4, 1]), AbelianGaloisDatum(15, [4, 1, 4, 19, -11]),
                  AbelianGaloisDatum(15, (1, 4))):
        assert again == d and again.group is d.group
        assert again.representatives is d.representatives
        assert again._element_of == d._element_of
    assert AbelianGaloisDatum(15).group is AbelianGaloisDatum(15, (1,)).group
    assert AbelianGaloisDatum(15, None).group is AbelianGaloisDatum(15, [16]).group
    assert cyclotomic_quotient_group(15, [4, 1]) is d.group
    assert make_group({"type": "cyclotomic", "modulus": 15, "subgroup": [4, 1]}) is d.group
    assert d.element_of_unit(4) == 0 and d._element_of == {1: 0, 4: 0, 2: 1, 8: 1,
                                                           7: 2, 13: 2, 11: 3, 14: 3}


def test_a_cached_group_answers_no_malformed_description():
    # lru_cache takes 4.0 == 4 and True == 1 as one key, so every key is
    # built from values bounded and integer have read: with the valid
    # descriptions cached, the malformed ones still raise TypeError, as the
    # uncached cyclic_group does.
    assert AbelianGaloisDatum(15, [1, 4]).group is AbelianGaloisDatum(15, [1, 4]).group
    assert AbelianGaloisDatum(1).group is AbelianGaloisDatum(1).group
    assert AbelianGaloisDatum(15).group is cyclotomic_quotient_group(15)
    for call in (lambda: AbelianGaloisDatum(15, [1, 4.0]),
                 lambda: AbelianGaloisDatum(15, [True, 4]),
                 lambda: AbelianGaloisDatum(True),
                 lambda: AbelianGaloisDatum(15.0),
                 lambda: cyclotomic_quotient_group(15, [1, 4.0]),
                 lambda: cyclotomic_quotient_group(15.0),
                 lambda: make_group({"type": "cyclotomic", "modulus": 15, "subgroup": [1, 4.0]}),
                 lambda: cyclic_group(2.0),
                 lambda: cyclic_group(True)):
        with pytest.raises(TypeError):
            call()


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


def test_is_prime_matches_sympy():
    # Trial division below 10^6, Miller-Rabin from there.
    sympy = pytest.importorskip("sympy")
    for n in itertools.chain(range(-5, 20001), range(10 ** 6 - 2000, 10 ** 6 + 2001)):
        assert _is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_a_sieve_below_the_miller_rabin_range():
    # The lookup below 1000 and the gcd with the primes below 1000 up to 10^6,
    # at every n; test_is_prime_matches_sympy checks the hand-over at 10^6.
    assert [n for n in range(-5, 10 ** 6) if _is_prime(n)] == sieve_primes(10 ** 6 - 1)


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911)


def test_is_prime_on_composites_trial_division_must_reach():
    primes = [p for p in range(5, 400) if _is_prime(p)]
    squares = [p * p for p in primes] + [19997 ** 2, 999983 ** 2]
    # products of two primes of the forms 6k - 1 and 6k + 1, both factors
    # near the square root, so the scan has to reach its last step
    near_root = [p * q for p, q in itertools.combinations(primes, 2) if q - p <= 6]
    for n in CARMICHAEL + tuple(squares) + tuple(near_root) + (3 * 5 * 7 * 11 * 13,):
        assert not _is_prime(n), n
    assert _is_prime(2 ** 31 - 1) and _is_prime(19997) and _is_prime(999983)
    assert not _is_prime(2 ** 31 - 3) and not _is_prime((2 ** 31 - 1) * 3)


PSI_12 = 318665857834031151167461  # strong pseudoprime to bases 2 ... 37
PSI_13 = 3317044064679887385961981  # strong pseudoprime to bases 2 ... 41


def test_is_prime_rejects_strong_pseudoprimes():
    # 3215031751 passes bases 2, 3, 5, 7; 3825123056546413051 passes 2 ... 23;
    # psi_12 passes 2 ... 37 and fails only 41.
    for n in (3215031751, 3825123056546413051, PSI_12):
        assert not _is_prime(n), n
    assert _is_prime(PSI_13 - 168)  # the largest prime below psi_13


def test_is_prime_decides_a_mersenne_prime_in_bounded_time():
    # Trial division needs about 2.5 * 10^8 steps at 2^61 - 1 (48 s).
    best = math.inf
    for _ in range(5):
        start = perf_counter()
        assert _is_prime(2 ** 61 - 1)
        best = min(best, perf_counter() - start)
    assert best < 0.01, best


def test_frobenius_refuses_primality_it_cannot_decide():
    datum = AbelianGaloisDatum(5)
    with pytest.raises(UnsupportedRequestError, match="primality"):
        frobenius(datum, PSI_13)
    with pytest.raises(UnsupportedRequestError):
        _is_prime(PSI_13 + 2)
    assert frobenius(datum, 2 ** 61 - 1) == frobenius(datum, 11)  # both 1 mod 5


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: FiniteGroup(()), ValueError, "order must be positive", id="empty"),
    pytest.param(lambda: FiniteGroup(((0, 1),)), ValueError, "wrong shape", id="shape"),
    pytest.param(lambda: FiniteGroup(((0, 2), (1, 0))), ValueError, "out of range",
                 id="entry"),
    pytest.param(lambda: units_mod(0), ValueError, "modulus must be at least 1", id="units"),
    # units_mod is cached by type, so True finds no entry of 1 to return.
    pytest.param(lambda: (units_mod(1), units_mod(True)), TypeError, "expected an integer",
                 id="units-bool"),
    pytest.param(lambda: make_group({"type": "product", "factors": []}), ValueError,
                 "at least one factor", id="product"),
    pytest.param(lambda: Subgroup(cyclic_group(4), (2, 0)), ValueError,
                 "sorted and distinct", id="unsorted"),
    pytest.param(lambda: FiniteGSet(cyclic_group(2), ((0, 1), (0, 0))), ValueError,
                 "act by permutations", id="gset"),
    # JSON true is not the element 1, and an index past the table is refused
    # before any product is looked up.
    pytest.param(lambda: cyclic_group(True), TypeError, "expected an integer", id="cyclic-bool"),
    pytest.param(lambda: subgroup_closure(cyclic_group(2), [5]), ValueError,
                 "no group element 5", id="closure-range"),
    pytest.param(lambda: subgroup_closure(cyclic_group(2), [-1]), ValueError,
                 "no group element -1", id="closure-negative"),
    pytest.param(lambda: subgroup_closure(cyclic_group(2), [True]), TypeError,
                 "expected an integer", id="closure-bool"),
    pytest.param(lambda: Subgroup(cyclic_group(2), (0, 5)), ValueError,
                 "no group element 5", id="subgroup-range"),
    pytest.param(lambda: Subgroup(cyclic_group(2), (0, True)), TypeError,
                 "expected an integer", id="subgroup-bool"),
    # A table is read entry by entry through integer, as G-set tables are.
    pytest.param(lambda: FiniteGroup([[False, True], [True, False]]), TypeError,
                 "expected an integer", id="table-bool"),
    pytest.param(lambda: FiniteGroup([[0, 1], [1, 0.0]]), TypeError,
                 "cannot be interpreted as an integer", id="table-float"),
])
def test_group_argument_checks(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: cyclic_group(10 ** 7), id="cyclic-order"),
    pytest.param(lambda: make_group({"type": "cyclotomic", "modulus": 1000003}), id="modulus"),
    pytest.param(lambda: AbelianGaloisDatum(1000003), id="datum-modulus"),
    pytest.param(lambda: product_group(cyclic_group(64), cyclic_group(64)), id="product-order"),
    pytest.param(lambda: cyclotomic_quotient_group(4099), id="cyclotomic-order"),  # 4098 units
])
def test_group_size_is_refused_before_any_table(build):
    # The table of a group of order 10^7 has 10^14 entries, and the units of
    # a modulus past 10^6 take seconds to list; both are refused at once,
    # before anything of that size is allocated.
    tracemalloc.start()
    start = perf_counter()
    try:
        with pytest.raises(UnsupportedRequestError, match="bounded by"):
            build()
        elapsed, peak = perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 10 ** 6, (elapsed, peak)


def test_group_bounds_keep_the_largest_inputs():
    # The quotient of conductor 503659 by the kernel of the quadratic
    # characters of 13, 17, -43 and 53 is C2^4 (26208 units in H), and the
    # largest groups the suite, CI and benchmark build have order 384.
    assert ORDER_LIMIT >= 384 and MODULUS_LIMIT >= 503659
    squares = {p: {x * x % p for x in range(1, p)} for p in (13, 17, 43, 53)}
    h = [u for u in range(1, 503659) if all(u % p in s for p, s in squares.items())]
    datum = AbelianGaloisDatum(503659, h)
    assert len(h) == 26208 and datum.group.order == 16
    assert abelian_decomposition(datum.group).orders == (2, 2, 2, 2)
