"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
cocycle spaces are assembled straight from the defining equations, series
are summed with Euler-Maclaurin tails, and primes come from a local sieve.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from toruskit import linalg
from toruskit.arith import frobenius
from toruskit.cohomology import _tuple_index, bar_differential
from toruskit.groups import (FiniteGroup, Subgroup, coset_gset, cyclic_group, cyclic_subgroups,
                             generating_set, index_two_subgroups,
                             product_group)
from toruskit.lattices import (GLattice, GModulePresentation, direct_sum,
                               induce, invariants, norm_operator,
                               permutation_lattice, restrict, sign_lattice,
                               trivial_lattice)
from toruskit.tori import Torus


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


def conjugate(m: GLattice, u) -> GLattice:
    """Change of basis: the same lattice written on the columns of u."""
    u = u if isinstance(u, np.ndarray) else linalg.intmat(u)
    if abs(linalg.det(u)) != 1:
        raise ValueError("basis change must be unimodular")
    uinv = linalg.solve(u, linalg.eye(m.rank))
    return GLattice(m.group, np.matmul(np.matmul(uinv, m.action), u))


def reference_action_error(group: FiniteGroup, stack: np.ndarray,
                           rel: np.ndarray | None = None) -> str | None:
    """The message a constructor must raise for ``stack``, or None if it is
    an action on Z^n / span(rel) (on Z^n when ``rel`` is None or empty).

    The group law is checked by forming X(a) X(b) over the whole stack for
    every b, not only generators, and compared exactly or, with relations,
    modulo span(rel) by one solve; no probe vector is involved.  As in the
    constructors, "preserves span(rel)" is asked of the generators.
    """
    ident = stack[group.identity] - linalg.eye(stack.shape[1])
    laws = [np.matmul(stack, stack[b]) - stack[[row[b] for row in group.table]]
            for b in group.elements()]
    if rel is None or rel.shape[1] == 0:
        if not linalg.is_zero(ident):
            return "identity must act as the identity matrix"
        if not all(linalg.is_zero(diff) for diff in laws):
            return "action matrices do not respect the group law"
        return None
    gens = generating_set(group)
    if linalg.solve(rel, ident) is None:
        return "identity must act as the identity on the quotient"
    if gens and linalg.solve(rel, np.hstack([linalg.mul(stack[s], rel) for s in gens])) is None:
        return "action does not preserve the relation lattice"
    if linalg.solve(rel, np.hstack([block for diff in laws for block in diff])) is None:
        return "action does not respect the group law on the quotient"
    return None


def reference_quotient_action(m: GLattice, proj: np.ndarray) -> np.ndarray:
    """proj X(a) section for every a, by object-dtype ``np.matmul`` over the
    whole stack, for the projection ``proj`` that ``quotient_lattice`` returns.

    The section is any integer right inverse of ``proj``, here one solve: two
    differ by vectors of the sublattice ker(proj), which X(a) keeps and
    ``proj`` kills, so the product does not depend on the choice.
    """
    section = linalg.solve(proj, linalg.eye(proj.shape[0]))
    return np.matmul(np.matmul(proj, m.action), section)


def bareiss_charpoly_value(m: GLattice, g: int, x: int) -> int:
    """det(x I - X(g)) by one Bareiss determinant of the matrix itself."""
    return linalg.det(x * linalg.eye(m.rank) - m.action[g])


def bareiss_local_factor(t: Torus, p: int) -> Fraction:
    """1/det(I - Frob_p/p) from the Frobenius matrix, with no character."""
    return Fraction(p ** t.dim, bareiss_charpoly_value(t.X, frobenius(t.splitting, p), p))


def random_unimodular(rank: int, rng: random.Random, steps: int = 8) -> np.ndarray:
    u = linalg.eye(rank)
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
        big = linalg.zeros(rm * rn, rm * rn)
        left = n.action[a]
        right = m.action[g.inv(a)]
        # f -> left @ f @ right, flattened with index (j, i) -> j*rn + i
        for j, i in itertools.product(range(rm), range(rn)):
            img = linalg.mul(linalg.mul(left, _unit_matrix(rn, rm, i, j)), right)
            for jj, ii in itertools.product(range(rm), range(rn)):
                big[jj * rn + ii, j * rn + i] = img[ii, jj]
        mats.append(big)
    return GLattice(g, mats)


def _unit_matrix(rows, cols, i, j):
    u = linalg.zeros(rows, cols)
    u[i, j] = 1
    return u


def tensor_lattice(m: GLattice, n: GLattice) -> GLattice:
    if m.group != n.group:
        raise ValueError("tensor lattice requires a common group")
    mats = []
    for a in m.group.elements():
        am, an = m.action[a], n.action[a]
        big = linalg.zeros(m.rank * n.rank, m.rank * n.rank)
        for i, j in itertools.product(range(m.rank), repeat=2):
            if am[i, j] != 0:
                big[i * n.rank:(i + 1) * n.rank, j * n.rank:(j + 1) * n.rank] = \
                    am[i, j] * an
        mats.append(big)
    return GLattice(m.group, mats)


def presentation_of_lattice(m: GLattice) -> GModulePresentation:
    """The lattice viewed as a presented module with no relations."""
    return GModulePresentation(m.group, linalg.zeros(m.rank, 0), m.action)


def is_saturated(a: np.ndarray) -> bool:
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
            block = linalg.zeros(r, n)
            ab = group.mul(a, b)
            block[:, ab * r:(ab + 1) * r] += linalg.eye(r)
            block[:, a * r:(a + 1) * r] -= linalg.eye(r)
            block[:, b * r:(b + 1) * r] -= lattice.matrix(a)
            rows.append(block)
    cocycles = linalg.kernel_basis(np.vstack(rows))
    cob = linalg.zeros(n, r)
    for a in group.elements():
        cob[a * r:(a + 1) * r, :] = lattice.matrix(a) - linalg.eye(r)
    return cocycles, cob


def quotient_invariants(numerator: np.ndarray, denominator: np.ndarray
                        ) -> tuple[int, tuple[int, ...]]:
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


def bar_restrict_cochain(cochain: np.ndarray, group: FiniteGroup, sub: Subgroup,
                         q: int, rank: int) -> np.ndarray:
    """Pull bar cochain columns on G^q back to H^q along the inclusion."""
    h = sub.order
    out = linalg.zeros(rank * h ** q, cochain.shape[1])
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
    return [snf.diagonal[i] for i in cols], snf.uinv[:, cols], d_prev


def bar_presented_cohomology(module: GModulePresentation, q: int
                             ) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of H^q of a presented module from the bar complex:
    cocycles modulo relations over coboundaries plus relations."""
    group = module.group
    mats = module.action
    rel = module.relations

    def relations(copies):
        n, k = rel.shape
        out = linalg.zeros(n * copies, k * copies)
        for t in range(copies):
            out[t * n:(t + 1) * n, t * k:(t + 1) * k] = rel
        return out

    dim_q = module.generators * group.order ** q
    d_q = bar_differential(group, mats, q)
    kernel = linalg.kernel_basis(np.hstack([d_q, relations(group.order ** (q + 1))]))
    here = relations(group.order ** q)
    d_prev = bar_differential(group, mats, q - 1) if q else linalg.zeros(dim_q, 0)
    return quotient_invariants(np.hstack([kernel[:dim_q, :], here]),
                               np.hstack([d_prev, here]))


def fixed_point_tate_h0(lattice: GLattice) -> tuple[int, ...]:
    """Invariant factors of M^G / NM, with NM written in a basis of M^G."""
    basis, fixed_rank = invariants(lattice)
    coords = linalg.solve(basis, norm_operator(lattice))
    assert coords is not None, "norm image escapes the fixed sublattice"
    snf = linalg.smith_normal_form(coords)
    assert snf.rank == fixed_rank, "norm quotient is not finite"
    return tuple(d for d in snf.diagonal[:snf.rank] if d >= 2)


def _diagonal(entries) -> np.ndarray:
    out = linalg.zeros(len(entries), len(entries))
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
        blocks.append(coords[:len(t_orders), :])
        target_orders += t_orders
    if not blocks:
        return tuple(orders)
    # x lies in the kernel iff R x = 0 modulo the target orders
    system = np.hstack([np.vstack(blocks), _diagonal(target_orders)])
    kernel = linalg.kernel_basis(system)[:len(orders), :]
    diag = _diagonal(orders)
    free_rank, torsion = quotient_invariants(np.hstack([kernel, diag]), diag)
    assert free_rank == 0
    return torsion


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
