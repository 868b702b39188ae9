"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
cocycle spaces are assembled straight from the defining equations, series
are summed with Euler-Maclaurin tails, primes come from a local sieve, and
characters are spread over the units mod n by a coset walk.
"""

from __future__ import annotations

import cmath
import itertools
import math
import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from toruskit import linalg
from toruskit.arith import characters, frobenius
from toruskit.cohomology import (_maximal_cyclic_spans, _tuple_index, bar_differential, cohomology,
                                 restriction_map)
from toruskit.errors import InternalInvariantError
from toruskit.groups import (FiniteGroup, Subgroup, coset_gset, cyclic_group, cyclic_subgroups,
                             generating_set, index_two_subgroups, make_group,
                             product_group)
from toruskit.lattices import (FGAbelian, GLattice, GModulePresentation, direct_sum,
                               induce, invariants, norm_operator,
                               permutation_lattice, restrict, sign_lattice,
                               trivial_lattice)
from toruskit.tori import Torus


def abelian(*orders: int) -> FiniteGroup:
    """C_n1 x C_n2 x ... for ``orders`` n1, n2, ..., built from a product spec."""
    return make_group({"type": "product", "factors": [{"type": "cyclic", "n": n} for n in orders]})


def norm_one_tau(orders) -> Fraction:
    """tau of the norm-one torus over G = + Z/n_i in closed form: |G| / #wedge^2 G,
    with wedge^2(+ Z/n_i) = + over i < j of Z/gcd(n_i, n_j)."""
    wedge2 = math.prod(math.gcd(a, b) for i, a in enumerate(orders) for b in orders[i + 1:])
    return Fraction(math.prod(orders), wedge2)


def in_child(func, *args):
    """``func(*args)`` in a fresh interpreter, caches cold: its result, wall
    time in seconds and the child's peak RSS in MB.  ``func`` must be
    importable by name; an exception in the child is raised here."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(_timed_call, func, *args).result()


def _timed_call(func, *args):
    start = time.perf_counter()
    result = func(*args)
    took = time.perf_counter() - start
    # VmHWM counts this process since its exec; ru_maxrss would also count
    # the test process's pages, which the fork that started it mapped.
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return result, took, peak / 1024


def group_family_up_to_8() -> list[FiniteGroup]:
    c2 = cyclic_group(2)
    return [cyclic_group(n) for n in range(1, 9)] + [
        product_group(c2, c2),
        product_group(c2, cyclic_group(4)),
        product_group(product_group(c2, c2), c2),
    ]


def s3_group() -> FiniteGroup:
    """The symmetric group on three letters, the smallest non-abelian group."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms]
    return FiniteGroup(table, "S3")


def dense(x) -> np.ndarray:
    """A package matrix, or a stack (sequence) of them, as an object-dtype
    array of Python ints; an array is returned as it is.  The one place where
    the tests turn package output into numpy arrays for their own arithmetic,
    indexing and comparisons."""
    if isinstance(x, np.ndarray):
        return x
    if isinstance(x, linalg.Matrix):
        return np.array(x.tolist(), dtype=object).reshape(x.shape)
    return np.stack([dense(m) for m in x])


def identity(n: int) -> np.ndarray:
    return dense(linalg.eye(n))


def conjugate(m: GLattice, u) -> GLattice:
    """Change of basis: the same lattice written on the columns of u."""
    u = dense(linalg.intmat(u))
    if abs(linalg.det(u)) != 1:
        raise ValueError("basis change must be unimodular")
    uinv = dense(linalg.solve(u, linalg.eye(m.rank)))
    return GLattice(m.group, np.matmul(np.matmul(uinv, dense(m.action)), u))


def scrambled_presentation(m: GLattice, modulus: int,
                           rng: random.Random) -> GModulePresentation:
    """Z^n / modulus Z^n acted on by ``m`` on the columns of a random unimodular
    P: relations modulus P, action P X P^-1 by stack products.  Unlike
    ``presentation_mod``, its relations' Smith frame is not the identity."""
    p = random_unimodular(m.rank, rng, steps=6)
    return GModulePresentation(m.group, modulus * p, linalg.stack_product(
        p, m.action, linalg.solve(p, linalg.eye(m.rank))))


def reference_action_error(group: FiniteGroup, stack,
                           rel=None) -> str | None:
    """The message a constructor must raise for ``stack``, or None if it is
    an action on Z^n / span(rel) (on Z^n when ``rel`` is None or empty).

    The group law is checked by forming X(a) X(b) over the whole stack for
    every b, not only generators, and compared exactly or, with relations,
    modulo span(rel) by one solve; no probe vector is involved.  As in the
    constructors, "preserves span(rel)" is asked of the generators.
    """
    stack = dense(stack)
    rel = None if rel is None else dense(rel)
    ident = stack[group.identity] - identity(stack.shape[1])
    laws = [np.matmul(stack, stack[b]) - stack[[row[b] for row in group.table]]
            for b in group.elements()]
    if rel is None or rel.shape[1] == 0:
        if np.any(ident != 0):
            return "identity must act as the identity matrix"
        if any(np.any(diff != 0) for diff in laws):
            return "action matrices do not respect the group law"
        return None
    gens = generating_set(group)
    if linalg.solve(rel, ident) is None:
        return "identity must act as the identity on the quotient"
    if gens and linalg.solve(rel, np.hstack([np.matmul(stack[s], rel) for s in gens])) is None:
        return "action does not preserve the relation lattice"
    if linalg.solve(rel, np.hstack([block for diff in laws for block in diff])) is None:
        return "action does not respect the group law on the quotient"
    return None


def reference_quotient_action(m: GLattice, proj) -> np.ndarray:
    """proj X(a) section for every a, by object-dtype ``np.matmul`` over the
    whole stack, for the projection ``proj`` that ``quotient_lattice`` returns.

    The section is any integer right inverse of ``proj``, here one solve: two
    differ by vectors of the sublattice ker(proj), which X(a) keeps and
    ``proj`` kills, so the product does not depend on the choice.
    """
    section = dense(linalg.solve(proj, linalg.eye(proj.shape[0])))
    return np.matmul(np.matmul(dense(proj), dense(m.action)), section)


def norm_vector_by_columns(m: GLattice) -> linalg.Matrix:
    """N e_1 as the sum of the stack's first columns, each cut out by
    ``take`` and summed by ``combine``, with no reading of row pairs."""
    return linalg.combine((1, x.take(cols=[0])) for x in m.action)


def sorted_permutation_stack(group: FiniteGroup, images) -> tuple[linalg.Matrix, ...]:
    """The permutation matrices of a sending basis vector x to images[a][x]:
    row y of X(a) has its 1 at the x sent to y, found by sorting the pairs
    (images[a][x], x).  Each matrix goes through the checking constructor."""
    n = len(images[group.identity])
    return tuple(linalg.Matrix((n, n), tuple(((x, 1),) for _, x in sorted(zip(row, range(n)))))
                 for row in images)


def bareiss_charpoly_value(m: GLattice, g: int, x: int) -> int:
    """det(x I - X(g)) by one Bareiss determinant of the matrix itself."""
    return linalg.det(x * identity(m.rank) - dense(m.action[g]))


def bareiss_local_factor(t: Torus, p: int) -> Fraction:
    """1/det(I - Frob_p/p) from the Frobenius matrix, with no character."""
    return Fraction(p ** t.dim, bareiss_charpoly_value(t.X, frobenius(t.splitting, p), p))


def cycle_formula_determinants(modulus: int, subgroup, kind: str, primes) -> dict[int, int]:
    """det(p I - X(Frob_p)) of the ``res`` or ``norm_one`` torus of the field
    cut out by ``subgroup`` of (Z/modulus)^x (None: the trivial subgroup), in
    closed form at each of ``primes`` prime to the modulus.

    The ``res`` lattice permutes the |G| cosets, and Frobenius, of order m,
    does so in |G|/m cycles of length m, each giving x^m - 1: the determinant
    is (p^m - 1)^(|G|/m).  The norm-one lattice is that one modulo the
    trivial line, which takes off p - 1.  |G| and m are read off residues
    mod n, not off any group the package builds."""
    n = modulus
    h = {1 % n} if subgroup is None else {x % n for x in subgroup}
    order = sum(1 for a in range(n) if math.gcd(a, n) == 1) // len(h)
    out = {}
    for p in primes:
        m, x = 1, p % n
        while x not in h:
            m, x = m + 1, x * p % n
        det = (p ** m - 1) ** (order // m)
        out[p] = det if kind == "res" else det // (p - 1)
    return out


def random_unimodular(rank: int, rng: random.Random, steps: int = 8) -> np.ndarray:
    u = identity(rank)
    for _ in range(steps):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            u[:, i] *= rng.choice((1, -1))
            continue
        u[:, j] += rng.choice((-2, -1, 1, 2)) * u[:, i]
    return u


def rank_one_pool(group: FiniteGroup) -> list[GLattice]:
    pool = [trivial_lattice(group, 1)]
    pool.extend(sign_lattice(group, k) for k in index_two_subgroups(group))
    return pool


def rank_two_pool(group: FiniteGroup) -> list[GLattice]:
    ones = rank_one_pool(group)
    pool = [direct_sum(a, b) for a in ones for b in ones]
    for k in index_two_subgroups(group):
        pool.append(permutation_lattice(coset_gset(group, k)))
        for inner in index_two_subgroups(k.as_group()):
            pool.append(induce(k, sign_lattice(k.as_group(), inner)))
    return pool


def random_glattice(group: FiniteGroup, max_rank: int, rng: random.Random) -> GLattice:
    """A randomized lattice of rank <= max_rank with a scrambled basis."""
    if max_rank >= 2 and rng.random() < 0.7:
        base = rng.choice(rank_two_pool(group))
    else:
        base = rng.choice(rank_one_pool(group))
    return conjugate(base, random_unimodular(base.rank, rng))


def hom_lattice(m: GLattice, n: GLattice) -> GLattice:
    """Hom_Z(M, N) with (g . f)(x) = g f(g^-1 x); basis E_ij, column-major in j."""
    if m.group != n.group:
        raise ValueError("hom lattice requires a common group")
    g = m.group
    rm, rn = m.rank, n.rank
    mats = []
    for a in g.elements():
        big = np.zeros((rm * rn, rm * rn), dtype=object)
        left = dense(n.action[a])
        right = dense(m.action[g.inv(a)])
        # f -> left @ f @ right, flattened with index (j, i) -> j*rn + i
        for j, i in itertools.product(range(rm), range(rn)):
            img = np.matmul(np.matmul(left, _unit_matrix(rn, rm, i, j)), right)
            for jj, ii in itertools.product(range(rm), range(rn)):
                big[jj * rn + ii, j * rn + i] = img[ii, jj]
        mats.append(big)
    return GLattice(g, mats)


def _unit_matrix(rows, cols, i, j):
    u = np.zeros((rows, cols), dtype=object)
    u[i, j] = 1
    return u


def tensor_lattice(m: GLattice, n: GLattice) -> GLattice:
    if m.group != n.group:
        raise ValueError("tensor lattice requires a common group")
    mats = []
    for a in m.group.elements():
        am, an = dense(m.action[a]), dense(n.action[a])
        big = np.zeros((m.rank * n.rank, m.rank * n.rank), dtype=object)
        for i, j in itertools.product(range(m.rank), repeat=2):
            if am[i, j] != 0:
                big[i * n.rank:(i + 1) * n.rank, j * n.rank:(j + 1) * n.rank] = \
                    am[i, j] * an
        mats.append(big)
    return GLattice(m.group, mats)


def presentation_of_lattice(m: GLattice) -> GModulePresentation:
    """The lattice viewed as a presented module with no relations."""
    return GModulePresentation(m.group, linalg.zeros(m.rank, 0), m.action)


def is_saturated(a) -> bool:
    """True when Z^m / colspan(a) is torsion-free and a has full column rank."""
    snf = linalg.smith_normal_form(a)
    return snf.rank == a.shape[1] and all(x == 1 for x in snf.diagonal[:snf.rank])


def brute_force_cocycles(lattice: GLattice) -> tuple[np.ndarray, np.ndarray]:
    """Z^1 and the coboundary generators, straight from the defining equations.

    Unknowns are the stacked values f(g) in Z^(|G| rank); for every pair the
    equation f(ab) - f(a) - a.f(b) = 0 contributes rows.  Independent of the
    bar-complex machinery in the package.
    """
    group = lattice.group
    r = lattice.rank
    n = group.order * r
    rows = []
    for a in group.elements():
        for b in group.elements():
            block = np.zeros((r, n), dtype=object)
            ab = group.mul(a, b)
            block[:, ab * r:(ab + 1) * r] += identity(r)
            block[:, a * r:(a + 1) * r] -= identity(r)
            block[:, b * r:(b + 1) * r] -= dense(lattice.matrix(a))
            rows.append(block)
    cocycles = dense(linalg.kernel_basis(np.vstack(rows)))
    cob = np.zeros((n, r), dtype=object)
    for a in group.elements():
        cob[a * r:(a + 1) * r, :] = dense(lattice.matrix(a)) - identity(r)
    return cocycles, cob


def quotient_invariants(numerator, denominator) -> tuple[int, tuple[int, ...]]:
    """Structure of span(numerator)/span(denominator) inside Z^m.

    Requires span(denominator) <= span(numerator).  Returns (free_rank,
    torsion invariant factors).
    """
    basis = linalg.hermite_column(numerator)
    x = linalg.solve(basis, denominator)
    if x is None:
        raise ValueError("denominator does not lie in the span of the numerator")
    snf = linalg.smith_normal_form(x)
    torsion = tuple(t for t in snf.diagonal[:snf.rank] if t >= 2)
    return basis.shape[1] - snf.rank, torsion


def brute_force_h1_order(lattice: GLattice) -> int:
    z1, b1 = brute_force_cocycles(lattice)
    free_rank, torsion = quotient_invariants(z1, b1)
    assert free_rank == 0
    order = 1
    for d in torsion:
        order *= d
    return order


def bar_restrict_cochain(cochain, group: FiniteGroup, sub: Subgroup,
                         q: int, rank: int) -> np.ndarray:
    """Pull bar cochain columns on G^q back to H^q along the inclusion."""
    h, cochain = sub.order, dense(cochain)
    out = np.zeros((rank * h ** q, cochain.shape[1]), dtype=object)
    for tup in itertools.product(range(h), repeat=q):
        src = _tuple_index([sub.elements[i] for i in tup], group.order) * rank
        dst = _tuple_index(tup, h) * rank
        out[dst:dst + rank, :] = cochain[src:src + rank, :]
    return out


def bar_classes(lattice: GLattice, q: int):
    """H^q (q = 1, 2) from the bar complex: orders, generating cocycles and
    the coboundary matrix d^(q-1), read off one Smith form with U^-1."""
    d_prev = bar_differential(lattice.group, lattice.action, q - 1)
    snf = linalg.smith_normal_form(d_prev, want_u=True)
    cols = [i for i in range(snf.rank) if snf.diagonal[i] >= 2]
    return [snf.diagonal[i] for i in cols], dense(snf.uinv)[:, cols], dense(d_prev)


def bar_presented_cohomology(module: GModulePresentation, q: int
                             ) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of H^q of a presented module from the bar complex:
    cocycles modulo relations over coboundaries plus relations."""
    group = module.group
    mats = module.action
    rel = dense(module.relations)

    def relations(copies):
        n, k = rel.shape
        out = np.zeros((n * copies, k * copies), dtype=object)
        for t in range(copies):
            out[t * n:(t + 1) * n, t * k:(t + 1) * k] = rel
        return out

    dim_q = module.generators * group.order ** q
    d_q = dense(bar_differential(group, mats, q))
    kernel = dense(linalg.kernel_basis(np.hstack([d_q, relations(group.order ** (q + 1))])))
    here = relations(group.order ** q)
    d_prev = dense(bar_differential(group, mats, q - 1) if q else linalg.zeros(dim_q, 0))
    return quotient_invariants(np.hstack([kernel[:dim_q, :], here]),
                               np.hstack([d_prev, here]))


def universal_coefficients_mod(lower: FGAbelian, upper: FGAbelian, modulus: int) -> FGAbelian:
    """H^q(G, L/mL) of a lattice L from H^q(G, L) (``lower``) and H^(q+1)(G,
    L) (``upper``), both finite (q >= 1), by universal coefficients: the
    cochains of L are free abelian groups and those of L/mL are their
    reductions mod m, so H^q(L/mL) = H^q(L)/m + H^(q+1)(L)[m], split.  A
    factor Z/d of either gives Z/gcd(d, m)."""
    assert lower.is_finite() and upper.is_finite(), (lower, upper)
    return FGAbelian.from_divisors(math.gcd(d, modulus) for d in lower.torsion + upper.torsion)


def fixed_point_tate_h0(lattice: GLattice) -> tuple[int, ...]:
    """Invariant factors of M^G / NM, with NM written in a basis of M^G."""
    basis, fixed_rank = invariants(lattice)
    coords = linalg.solve(basis, norm_operator(lattice))
    assert coords is not None, "norm image escapes the fixed sublattice"
    snf = linalg.smith_normal_form(coords)
    assert snf.rank == fixed_rank, "norm quotient is not finite"
    return tuple(d for d in snf.diagonal[:snf.rank] if d >= 2)


def _diagonal(entries) -> np.ndarray:
    out = np.zeros((len(entries), len(entries)), dtype=object)
    for i, d in enumerate(entries):
        out[i, i] = d
    return out


def bar_sha2(lattice: GLattice) -> tuple[int, ...]:
    """Invariant factors of ker(H^2(G, M) -> prod over cyclic C of H^2(C, M)),
    with every class and restriction taken in the bar complex."""
    group = lattice.group
    orders, gens, _ = bar_classes(lattice, 2)
    if not orders:
        return ()
    blocks, target_orders = [], []
    for sub in cyclic_subgroups(group):
        t_orders, t_gens, t_cob = bar_classes(restrict(lattice, sub), 2)
        if not t_orders:
            continue
        cochains = bar_restrict_cochain(gens, group, sub, 2, lattice.rank)
        coords = linalg.solve(np.hstack([t_gens, t_cob]), cochains)
        assert coords is not None
        blocks.append(dense(coords)[:len(t_orders), :])
        target_orders += t_orders
    if not blocks:
        return tuple(orders)
    # x lies in the kernel iff R x = 0 modulo the target orders
    system = np.hstack([np.vstack(blocks), _diagonal(target_orders)])
    kernel = dense(linalg.kernel_basis(system))[:len(orders), :]
    diag = _diagonal(orders)
    free_rank, torsion = quotient_invariants(np.hstack([kernel, diag]), diag)
    assert free_rank == 0
    return torsion


def kernel_invariants(source, target, matrix) -> tuple[int, ...]:
    """Invariant factors of the kernel of phi: sum Z/d_i -> sum Z/e_j,
    phi(x)_j = sum over i of R_ji x_i, for d = ``source``, e = ``target``
    and R = ``matrix``.

    For finite abelian groups ker phi is dual to coker phi^dual.  On the dual
    bases phi^dual has entries d_i R_ji / e_j, integers because phi is well
    defined, so the kernel has the invariant factors of [R^dual | diag(d)].
    """
    m, k = len(target), len(source)
    dual = linalg.intmat(matrix, (m, k)).T.rows
    if any(x * source[i] % target[j] for i, row in enumerate(dual) for j, x in row):
        raise InternalInvariantError("restriction is not well defined on the classes")
    return linalg.invariant_factors(linalg._matrix((k, m + k), tuple(
        tuple((j, x * source[i] // target[j]) for j, x in row) + ((m + i, source[i]),)
        for i, row in enumerate(dual))))


def sha2_over_every_cyclic_subgroup(group: FiniteGroup, module: GLattice) -> FGAbelian:
    """Sha^2 the long way: ``restriction_map`` to every cyclic subgroup, the
    trivial one and those inside larger ones included, with no test for a
    vanishing target, then the kernel by duality."""
    maps = [restriction_map(group, module, sub, 2) for sub in cyclic_subgroups(group)]
    return FGAbelian(0, kernel_invariants(
        cohomology(group, module, 2).torsion,
        [e for rmap in maps for e in rmap.target.torsion],
        [row for rmap in maps for row in rmap.matrix]))


def maximal_by_inclusion(subgroups: list[Subgroup]) -> list[Subgroup]:
    """The members of ``subgroups`` that lie in no other member, by a pairwise
    subset test, in their given order."""
    sets = [set(s.elements) for s in subgroups]
    return [s for s, e in zip(subgroups, sets) if not any(e < f for f in sets)]


def maximal_cyclic_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """The maximal cyclic spans that ``sha2_cyclic`` walks, as checked subgroups."""
    return [Subgroup(group, span) for span in _maximal_cyclic_spans(group)]


def pack_columns(rows, n: int, e: int) -> list[int]:
    """The n columns, mod 2^e, of the matrix whose row i has the (column,
    entry) pairs ``rows[i]``, in any order, zeros allowed: each column one
    int whose 2e-bit lane i holds row i's entry in [0, 2^e), the layout of
    ``linalg._two_adic_smith_form``, each entry shifted into its lane on its
    own.  A ``Matrix`` a packs as ``a.rows``."""
    low, width = (1 << e) - 1, 2 * e
    cols = [0] * n
    for i, row in enumerate(rows):
        shift = i * width
        for j, x in row:
            cols[j] |= (x & low) << shift
    return cols


def sieve_primes(n: int) -> list[int]:
    flags = [True] * (n + 1)
    out = []
    for p in range(2, n + 1):
        if flags[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                flags[q] = False
    return out


def l_chi4_series_oracle() -> float:
    """sum (-1)^k / (2k+1) with paired terms and an Euler-Maclaurin tail."""
    terms = 100_000
    total = sum(2.0 / ((4 * k + 1) * (4 * k + 3)) for k in range(terms))
    k = float(terms)
    tail = 0.25 * math.log((4 * k + 3) / (4 * k + 1))
    tail += 1.0 / ((4 * k + 1) * (4 * k + 3))
    tail += (-4 / (4 * k + 1) ** 2 + 4 / (4 * k + 3) ** 2) / -12.0
    return total + tail


def l_chi3_series_oracle() -> float:
    """sum over n of chi_-3(n)/n with paired terms and an Euler-Maclaurin tail."""
    terms = 100_000
    total = sum(1.0 / ((3 * k + 1) * (3 * k + 2)) for k in range(terms))
    k = float(terms)
    tail = (1.0 / 3.0) * math.log((3 * k + 2) / (3 * k + 1))
    tail += 0.5 / ((3 * k + 1) * (3 * k + 2))
    tail += (-3 / (3 * k + 1) ** 2 + 3 / (3 * k + 2) ** 2) / -12.0
    return total + tail


def catalan_series_oracle() -> float:
    """sum (-1)^k / (2k+1)^2 with paired terms and an integral tail.

    Paired term f(k) = 8(4k+2)/((4k+1)^2 (4k+3)^2) integrates in closed form
    to 1/((4x+2)^2 - 1), so the tail beyond the summed range is exact to
    well below double precision.
    """
    terms = 200_000
    total = 0.0
    for k in range(terms):
        a, b = 4 * k + 1, 4 * k + 3
        total += (b * b - a * a) / (a * a * b * b)
    u = 4.0 * terms + 2.0
    total += 1.0 / (u * u - 1.0)  # integral tail
    a, b = 4.0 * terms + 1.0, 4.0 * terms + 3.0
    total += 0.5 * (b * b - a * a) / (a * a * b * b)  # Euler-Maclaurin half term
    return total


def per_unit_character_check(datum) -> int:
    """Check ``characters(datum)`` against each character spread over the units.

    The units mod n are listed by gcd and walked in increasing order; each
    unit not yet met opens the next group element's coset, its products with
    H.  A character is then a unit -> exponent table, its conductor the least
    f | n on which the table depends only on u mod f, and the character is
    odd when its exponent at -1 is 1/2.  The package's conductor, parity,
    value at every residue mod n (and at its negative representative) and
    primitive exponent at every unit mod f (and refusal at a non-unit) must
    agree.  Returns the number of characters.
    """
    n = datum.modulus
    divisors = [f for f in range(1, n + 1) if n % f == 0]
    cosets, met = [], set()
    for u in range(n):
        if math.gcd(u, n) == 1 and u not in met:
            cosets.append(sorted({u * h % n for h in datum.subgroup}))
            met.update(cosets[-1])
    assert [c[0] for c in cosets] == list(datum.representatives)
    chars = characters(datum)
    assert len(chars) == len(cosets) == datum.group.order
    for chi in chars:
        table = {u: q for coset, q in zip(cosets, chi.exponents) for u in coset}

        def reduces_mod(f):
            seen = {}
            return all(seen.setdefault(u % f, q) == q for u, q in table.items())

        f = next(f for f in divisors if reduces_mod(f))
        assert chi.conductor == f, (n, chi)
        assert chi.is_odd() == (table[-1 % n] == Fraction(1, 2)), (n, chi)
        for a in range(n):
            want = cmath.exp(2j * math.pi * float(table[a])) if a in table else 0j
            got = chi.value(a)
            assert abs(got - want) <= 1e-12 and chi.value(a - n) == got, (n, chi, a)
        primitive = {u % f: q for u, q in table.items()}
        assert sorted(primitive) == [a for a in range(f) if math.gcd(a, f) == 1]
        for a, q in primitive.items():
            assert chi.primitive_exponent(a) == chi.primitive_exponent(a + f) == q, (n, chi, a)
        if f > 1:
            with pytest.raises(ValueError, match="not a unit mod the conductor"):
                chi.primitive_exponent(f)
    return len(chars)
