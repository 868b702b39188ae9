"""Group cohomology of finite groups via the inhomogeneous bar complex.

Coefficients are G-lattices or finitely presented G-modules.  The cochain
modules are M, M^{|G|}, M^{|G|^2}, ... with the usual differentials

    (d0 m)(g)      = g.m - m
    (d1 f)(g,h)    = g.f(h) - f(gh) + f(g)
    (d2 f)(g,h,k)  = g.f(h,k) - f(gh,k) + f(g,hk) - f(g,h)

and H^q = ker d^q / im d^(q-1) is read off Smith normal forms.  For lattice
coefficients and q >= 1 the group H^q is finite (it is killed by |G|), so
ker d^q equals the saturation of im d^(q-1) inside the free cochain module;
H^q is therefore exactly the torsion of coker d^(q-1) and the large d^q
matrix never has to be materialized.  Presented coefficients go through the
general subquotient route, kernels included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import EnumerationBoundError, InternalInvariantError
from .groups import FiniteGroup, Subgroup, cyclic_subgroups
from .lattices import (FGAbelian, GLattice, GModulePresentation, _np_action,
                       invariants, norm_operator, restrict)

SPLITTING_ENUMERATION_BOUND = 10 ** 6


def _tuple_index(gs: Sequence[int], base: int) -> int:
    idx = 0
    for g in gs:
        idx = idx * base + g
    return idx


def bar_differential(group: FiniteGroup, mats: Sequence[np.ndarray], q: int) -> np.ndarray:
    """Matrix of d^q from M^(|G|^q) to M^(|G|^(q+1)), M of rank n."""
    n = mats[0].shape[0]
    order = group.order
    ident = linalg.eye(n)
    out = linalg.zeros(n * order ** (q + 1), n * order ** q)

    def add(row_tuple, col_tuple, block):
        i = _tuple_index(row_tuple, order) * n
        j = _tuple_index(col_tuple, order) * n
        out[i:i + n, j:j + n] += block

    if q == 0:
        for a in group.elements():
            add((a,), (), mats[a] - ident)
    elif q == 1:
        for a, b in itertools.product(group.elements(), repeat=2):
            add((a, b), (b,), mats[a])
            add((a, b), (group.mul(a, b),), -ident)
            add((a, b), (a,), ident)
    elif q == 2:
        for a, b, c in itertools.product(group.elements(), repeat=3):
            add((a, b, c), (b, c), mats[a])
            add((a, b, c), (group.mul(a, b), c), -ident)
            add((a, b, c), (a, group.mul(b, c)), ident)
            add((a, b, c), (a, b), -ident)
    else:
        raise ValueError("only degrees 0, 1, 2 are supported")
    return out


def cohomology(group: FiniteGroup, module: GLattice | GModulePresentation,
               q: int) -> FGAbelian:
    """H^q(G, M) as a finitely generated abelian group, q in {0, 1, 2}."""
    if q not in (0, 1, 2):
        raise ValueError("cohomology degree must be 0, 1 or 2")
    if module.group != group:
        raise ValueError("module is not over the given group")
    if isinstance(module, GLattice):
        return _lattice_cohomology(module, q)
    return _presented_cohomology(module, q)


@lru_cache(maxsize=None)
def _lattice_cohomology(module: GLattice, q: int) -> FGAbelian:
    if q == 0:
        _, fixed_rank = invariants(module)
        return FGAbelian.free(fixed_rank)
    mats = _np_action(module)
    d_prev = bar_differential(module.group, mats, q - 1)
    factors = linalg.invariant_factors(d_prev)
    return FGAbelian(0, factors)


def _relation_block(module: GModulePresentation, copies: int) -> np.ndarray:
    rel = module.relations_matrix()
    n, k = rel.shape
    out = linalg.zeros(n * copies, k * copies)
    for t in range(copies):
        out[t * n:(t + 1) * n, t * k:(t + 1) * k] = rel
    return out


@lru_cache(maxsize=None)
def _presented_cohomology(module: GModulePresentation, q: int) -> FGAbelian:
    """Cocycles plus relation translates over coboundaries plus the same."""
    group = module.group
    mats = [module.action_matrix(a) for a in group.elements()]
    n = module.generators
    order = group.order
    dim_q = n * order ** q
    d_q = bar_differential(group, mats, q)
    rel_next = _relation_block(module, order ** (q + 1))
    kernel = linalg.kernel_basis(linalg.hstack([d_q, rel_next]))
    cocycles = kernel[:dim_q, :]
    rel_here = _relation_block(module, order ** q)
    if q == 0:
        d_prev = linalg.zeros(dim_q, 0)
    else:
        d_prev = bar_differential(group, mats, q - 1)
    return FGAbelian(*linalg.quotient_invariants(linalg.hstack([cocycles, rel_here]),
                                                 linalg.hstack([d_prev, rel_here])))


def tate_h0(group: FiniteGroup, module: GLattice) -> FGAbelian:
    """Fixed points modulo the image of the norm operator; always finite."""
    if module.group != group:
        raise ValueError("module is not over the given group")
    basis, fixed_rank = invariants(module)
    coords = linalg.solve(basis, norm_operator(module))
    if coords is None:
        raise InternalInvariantError("norm image escapes the fixed sublattice")
    snf = linalg.smith_normal_form(coords)
    if snf.rank != fixed_rank:
        raise InternalInvariantError("norm quotient is not finite")
    return FGAbelian(0, tuple(d for d in snf.diagonal[:snf.rank] if d >= 2))


@dataclass(frozen=True)
class CohomologyClasses:
    """H^q(G, M) of a lattice, q in {1, 2}, with cocycle representatives.

    ``generators`` columns are cocycles in the free cochain module; their
    classes generate H^q with orders ``fg.torsion``, in that order.
    ``reducer`` is d^(q-1), whose columns span the coboundaries.  Both arrays
    are cached and read-only.
    """

    fg: FGAbelian
    generators: np.ndarray
    reducer: np.ndarray

    def coordinates(self, cocycles: np.ndarray) -> np.ndarray:
        """Class coordinates of cocycle columns on ``generators``, mod orders."""
        orders = self.fg.torsion
        if not orders:
            return linalg.zeros(0, cocycles.shape[1])
        sol = linalg.solve(linalg.hstack([self.generators, self.reducer]), cocycles)
        if sol is None:
            raise InternalInvariantError("vector is not a cocycle of this class group")
        out = sol[:len(orders), :]
        for i, d in enumerate(orders):
            out[i, :] %= d
        return out


@lru_cache(maxsize=None)
def cohomology_classes(module: GLattice, q: int) -> CohomologyClasses:
    """H^q as the torsion of coker d^(q-1), generated by columns of U^-1."""
    if q not in (1, 2):
        raise ValueError("cocycle representatives are computed in degrees 1 and 2")
    d_prev = bar_differential(module.group, _np_action(module), q - 1)
    snf = linalg.smith_normal_form(d_prev, want_uinv=True)
    cols = [i for i in range(snf.rank) if snf.diagonal[i] >= 2]
    gens = snf.uinv[:, cols]
    gens.flags.writeable = False
    d_prev.flags.writeable = False
    return CohomologyClasses(FGAbelian(0, tuple(snf.diagonal[i] for i in cols)),
                             gens, d_prev)


class RestrictionMap(NamedTuple):
    """Integer matrix of H^q(G, M) -> H^q(H, Res M) on chosen generators."""

    source: FGAbelian
    target: FGAbelian
    matrix: tuple[tuple[int, ...], ...]  # target-generator rows


def restrict_cochain(cochain: np.ndarray, group: FiniteGroup, sub: Subgroup,
                     q: int, rank: int) -> np.ndarray:
    """Pull cochain columns on G^q back to H^q along the inclusion."""
    h = sub.order
    out = linalg.zeros(rank * h ** q, cochain.shape[1])
    for tup in itertools.product(range(h), repeat=q):
        src = _tuple_index([sub.elements[i] for i in tup], group.order) * rank
        dst = _tuple_index(tup, h) * rank
        out[dst:dst + rank, :] = cochain[src:src + rank, :]
    return out


def restriction_map(group: FiniteGroup, module: GLattice, sub: Subgroup,
                    q: int) -> RestrictionMap:
    """Cochain-level restriction on cohomology, q in {1, 2}.

    A vanishing target gives the empty matrix without building any cocycle
    representatives.
    """
    if q not in (1, 2):
        raise ValueError("restriction is computed in degrees 1 and 2")
    if module.group != group or sub.parent != group:
        raise ValueError("module and subgroup must belong to the given group")
    restricted = restrict(module, sub)
    if cohomology(restricted.group, restricted, q).is_trivial():
        return RestrictionMap(cohomology(group, module, q), FGAbelian.trivial(), ())
    source = cohomology_classes(module, q)
    target = cohomology_classes(restricted, q)
    cochains = restrict_cochain(source.generators, group, sub, q, module.rank)
    coords = target.coordinates(cochains)
    matrix = tuple(tuple(int(x) for x in row) for row in coords.tolist())
    return RestrictionMap(source.fg, target.fg, matrix)


def _diagonal(entries: Sequence[int]) -> np.ndarray:
    out = linalg.zeros(len(entries), len(entries))
    for i, d in enumerate(entries):
        out[i, i] = d
    return out


def sha2_cyclic(group: FiniteGroup, module: GLattice) -> FGAbelian:
    """Kernel of H^2(G, M) -> prod over cyclic subgroups of H^2(C, Res M).

    Cyclic subgroups stand in for the decomposition groups of unramified
    places.
    """
    if module.group != group:
        raise ValueError("module is not over the given group")
    total = cohomology(group, module, 2)
    if total.is_trivial():
        return FGAbelian.trivial()
    # Only subgroups with nonvanishing H^2 constrain the kernel, and
    # restriction to the others builds no cocycle representatives.
    maps = [rmap for rmap in (restriction_map(group, module, sub, 2)
                              for sub in cyclic_subgroups(group))
            if not rmap.target.is_trivial()]
    if not maps:
        return total
    # x in H^2(G) lies in the kernel iff every R_C x = 0 in its target, i.e.
    # (x, y) solves [R | diag(target orders)] (x, y) = 0 for some y.
    target_orders = [d for rmap in maps for d in rmap.target.torsion]
    system = linalg.hstack([linalg.vstack([linalg.intmat(rmap.matrix) for rmap in maps]),
                            _diagonal(target_orders)])
    kernel = linalg.kernel_basis(system)[:len(total.torsion), :]
    diag = _diagonal(total.torsion)
    free_rank, torsion = linalg.quotient_invariants(
        linalg.hstack([kernel, diag]), diag)
    if free_rank:
        raise InternalInvariantError("local-kernel subgroup came out infinite")
    return FGAbelian(0, torsion)


class SplittingEnumeration(NamedTuple):
    """Brute-force 1-cocycles of a finite module, in residue coordinates.

    ``orders`` describes the coordinate system (one residue per generator of
    the underlying finite abelian group); each cocycle maps group elements,
    in order, to coordinate tuples.
    """

    orders: tuple[int, ...]
    cocycles: list[tuple[tuple[int, ...], ...]]
    class_count: int


def enumerate_splittings(group: FiniteGroup, module: GModulePresentation
                         ) -> SplittingEnumeration:
    """All crossed homomorphisms f: G -> A by exhaustion, plus their classes.

    Splittings of A x| G correspond to these cocycles, and splitting classes
    to cocycles modulo coboundaries, so ``class_count`` must match the order
    of H^1(G, A) from the bar-complex engine.
    """
    if module.group != group:
        raise ValueError("module is not over the given group")
    orders, act = _finite_module_structure(module)
    size = 1
    for d in orders:
        size *= d
    if size ** group.order > SPLITTING_ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"{size}^{group.order} candidate maps exceed the "
            f"{SPLITTING_ENUMERATION_BOUND} bound")
    elements = [tuple(t) for t in itertools.product(*(range(d) for d in orders))]

    def add(u, v):
        return tuple((x + y) % d for x, y, d in zip(u, v, orders))

    def neg(u):
        return tuple((-x) % d for x, d in zip(u, orders))

    cocycles = []
    for values in itertools.product(elements, repeat=group.order):
        ok = True
        for a in group.elements():
            if not ok:
                break
            for b in group.elements():
                if values[group.mul(a, b)] != add(values[a], act(a, values[b])):
                    ok = False
                    break
        if ok:
            cocycles.append(tuple(values))
    coboundaries = {tuple(add(act(a, x), neg(x)) for a in group.elements())
                    for x in elements}
    if cocycles and len(cocycles) % len(coboundaries) != 0:
        raise InternalInvariantError("coboundaries do not tile the cocycles")
    return SplittingEnumeration(orders, cocycles,
                                len(cocycles) // len(coboundaries))


def _finite_module_structure(module: GModulePresentation):
    """Residue coordinates for a finite presented module.

    Returns (orders, act) where the module is the product of Z/orders[i] and
    act(g, coords) applies the group action in those coordinates.
    """
    rel = module.relations_matrix()
    n = module.generators
    snf = linalg.smith_normal_form(rel, want_u=True, want_uinv=True)
    if snf.rank != n:
        raise ValueError("module is not finite")
    orders = tuple(int(d) for d in snf.diagonal[:n])
    mats = {}
    for a in module.group.elements():
        w = linalg.mul(linalg.mul(snf.u, module.action_matrix(a)), snf.uinv)
        mats[a] = w

    def act(a: int, coords: Sequence[int]) -> tuple[int, ...]:
        w = mats[a]
        return tuple(int(sum(w[i, j] * coords[j] for j in range(n))) % orders[i]
                     for i in range(n))

    return orders, act
