"""Group cohomology of finite abelian groups via a small free resolution.

Write G = C_{n_1} x ... x C_{n_k} on independent generators g_i.  The tensor
product of the periodic resolutions of the cyclic factors is a free
Z[G]-resolution of Z whose degree-q module has one basis vector e_alpha for
each multi-index alpha in N^k with |alpha| = q, and

    d e_beta = sum over i with beta_i > 0 of
               (-1)^(beta_1 + ... + beta_{i-1}) D_i(beta_i) e_(beta - eps_i)

where D_i(b) is g_i - 1 for odd b and the norm 1 + g_i + ... + g_i^(n_i - 1)
for even b (Brown, Cohomology of Groups, I.6 and V.1).  ``_boundary`` is the
only code that writes d; ``differential`` evaluates cochains on the
boundaries of basis chains, so the cochains of degree q are M^C(q+k-1, k-1)
instead of the M^(|G|^q) of the inhomogeneous bar complex.  H^q is
Z^(rank ker d^q - rank d^(q-1)) plus the torsion of coker d^(q-1), finite
for q >= 1.  A presented module Z^n/R on which G acts through Z^n (the
constructors' probe test) is quasi-isomorphic to R -> Z^n, read in the Smith
frame of R that its constructor computed, so its cochains are the cone
C^q(Z^n) + C^(q+1)(R) (Weibel, 1.5); a lattice is the case R = 0.

Restriction to a subgroup H pulls cochains back along a chain map from the
resolution of H into that of G, built from the resolution's explicit
contracting homotopy and evaluated on cochains by the same helper as d.
H^q, its cocycle classes, each restriction map and Sha^2 are computed once
per module and kept in ``lru_cache``s keyed by value, so equal lattices share
entries; every cache in the package holds at most ``_CACHE_SIZE`` (1024)
entries.  The cached results are immutable: frozen ``FGAbelian``s, tuples and
read-only arrays.
``bar_differential`` is kept as the independent reference the tests compare
this engine with; no package path calls it.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import EnumerationBoundError, InternalInvariantError
from .groups import (_CACHE_SIZE, FiniteGroup, Subgroup, abelian_decomposition,
                     cyclic_subgroups)
from .lattices import (FGAbelian, GLattice, GModulePresentation, norm_operator,
                       regular_lattice, restrict)

SPLITTING_ENUMERATION_BOUND = 10 ** 6


def _tuple_index(gs: Sequence[int], base: int) -> int:
    idx = 0
    for g in gs:
        idx = idx * base + g
    return idx


def bar_differential(group: FiniteGroup, mats: Sequence[np.ndarray], q: int) -> np.ndarray:
    """Matrix of d^q from M^(|G|^q) to M^(|G|^(q+1)), M of rank n.

    The inhomogeneous bar complex, kept as the tests' reference for the
    small resolution.
    """
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


@lru_cache(maxsize=_CACHE_SIZE)
def _multi_indices(k: int, q: int) -> tuple[tuple[int, ...], ...]:
    """alpha in N^k with |alpha| = q, in decreasing lexicographic order."""
    if k == 0:
        return ((),) if q == 0 else ()
    return tuple((a,) + rest for a in range(q, -1, -1)
                 for rest in _multi_indices(k - 1, q - a))


@lru_cache(maxsize=_CACHE_SIZE)
def _positions(k: int, q: int) -> dict[tuple[int, ...], int]:
    return {alpha: i for i, alpha in enumerate(_multi_indices(k, q))}


def _cochain_rank(group: FiniteGroup, q: int) -> int:
    """Number of free generators of the degree-q resolution module."""
    return len(_multi_indices(len(abelian_decomposition(group).orders), q))


# Chains of the resolution of G, as Z-combinations of the basis g^t e_alpha:
# {(t, alpha): coefficient}, t the exponent tuple of the group element.
Chain = dict[tuple[tuple[int, ...], tuple[int, ...]], int]


def _boundary(chain: Chain, orders: Sequence[int]) -> Chain:
    """d of the tensor resolution of prod C_{orders[i]}, applied Z-linearly."""
    out: Chain = defaultdict(int)
    for (t, alpha), c in chain.items():
        signed = c  # c times (-1)^(alpha_1 + ... + alpha_(i-1))
        for i, b in enumerate(alpha):
            if not b:
                continue
            lower = alpha[:i] + (b - 1,) + alpha[i + 1:]
            if b % 2:  # g_i - 1
                out[(t[:i] + ((t[i] + 1) % orders[i],) + t[i + 1:], lower)] += signed
                out[(t, lower)] -= signed
                signed = -signed
            else:  # norm of <g_i>
                for j in range(orders[i]):
                    out[(t[:i] + (j,) + t[i + 1:], lower)] += signed
    return {key: c for key, c in out.items() if c}


def differential(group: FiniteGroup, mats: Sequence[np.ndarray], q: int) -> np.ndarray:
    """Matrix of d^q on the small cochains, M^C(q+k-1, k-1) to M^C(q+k, k-1).

    ``mats[a]`` is the matrix of group element a on M; row block beta holds
    f -> f(d e_beta), with d as written in ``_boundary``.
    """
    orders = abelian_decomposition(group).orders
    zero = (0,) * len(orders)
    return _evaluation(group, mats, q, [_boundary({(zero, beta): 1}, orders)
                                         for beta in _multi_indices(len(orders), q + 1)])


def _evaluation(group: FiniteGroup, mats: Sequence[np.ndarray], q: int,
                chains: Sequence[Chain]) -> np.ndarray:
    """Matrix of f -> (f(c) for c in chains) on degree-q cochains.

    A cochain is Z[G]-linear, so f(g^t e_alpha) = X(g^t) f(e_alpha).
    """
    dec = abelian_decomposition(group)
    cols = _positions(len(dec.orders), q)
    n = mats[group.identity].shape[0]
    out = linalg.zeros(n * len(chains), n * len(cols))
    for r, chain in enumerate(chains):
        for (t, alpha), c in chain.items():
            j = cols[alpha] * n
            out[r * n:(r + 1) * n, j:j + n] += c * mats[dec.element(t)]
    return out


def cohomology(group: FiniteGroup, module: GLattice | GModulePresentation,
               q: int) -> FGAbelian:
    """H^q(G, M) as a finitely generated abelian group, q in {0, 1, 2}.

    G must be abelian; other groups raise ``UnsupportedRequestError``.
    """
    if q not in (0, 1, 2):
        raise ValueError("cohomology degree must be 0, 1 or 2")
    if module.group != group:
        raise ValueError("module is not over the given group")
    abelian_decomposition(group)
    return _cohomology(module, q)


@lru_cache(maxsize=_CACHE_SIZE)
def _relation_complex(module: GLattice | GModulePresentation) -> tuple:
    """(M, B, A): the module as the lattice complex B: Z^r -> Z^n, read in the
    Smith frame U R V = diag(d) that its constructor computed (``_frame``).

    M(g) = U X(g) U^-1 acts on Z^n itself, B is diag(d) over n - r zero rows,
    and A(g) = diag(d)^-1 M(g)[:r, :r] diag(d) acts on Z^r (r = 0 for a
    lattice).  An action that holds only modulo R is first rewritten as
    Z[G]^n / K, Z[G] acting regularly and K the kernel of e_(g,i) -> X(g) e_i,
    spanned by R and e_(g,i) - X(g) e_i in the identity's block, so that the
    cone is a complex; that presentation's constructor computes its frame."""
    group = module.group
    if isinstance(module, GLattice):
        return module.action, linalg.zeros(module.rank, 0), []
    exact, d, frame = module._frame
    if not exact:
        rel, n, order, ident = module.relations, module.generators, group.order, group.identity
        regular = np.stack([np.kron(x, linalg.eye(n)) for x in regular_lattice(group).action])
        kernel = np.hstack([linalg.eye(n * order), linalg.zeros(n * order, rel.shape[1])])
        kernel[ident * n:(ident + 1) * n, :] -= np.hstack(list(module.action) + [-rel])
        return _relation_complex(GModulePresentation(group, kernel, regular))
    d = linalg.intmat(d, (len(d),))
    basis = np.vstack([np.diag(d), linalg.zeros(module.generators - len(d), len(d))])
    return frame, basis, [m[:len(d), :len(d)] * d // d[:, None] for m in frame]


@lru_cache(maxsize=_CACHE_SIZE)
def _cohomology(module: GLattice | GModulePresentation, q: int) -> FGAbelian:
    """H^q as the torsion of coker D^(q-1) plus, for q = 0, the rank of M^G.

    D^q = [[d^q, B], [0, -d_R^(q+1)]] is the cone differential of
    ``_relation_complex``; a lattice, or R = 0, has D = d.  Over Q invariants
    are exact, so rank M^G = rank (Z^n)^G - rank R^G."""
    group = module.group
    action, basis, rel_action = _relation_complex(module)
    k = basis.shape[1]
    d = differential(group, action, q - 1)
    if k:
        d_rel = differential(group, rel_action, q)
        d = np.vstack([
            np.hstack([d, np.kron(linalg.eye(_cochain_rank(group, q)), basis)]),
            np.hstack([linalg.zeros(d_rel.shape[0], d.shape[1]), -d_rel])])
    torsion = linalg.invariant_factors(d)
    if q:
        return FGAbelian(0, torsion)

    def fixed_rank(mats) -> int:
        return len(mats[0]) - linalg.smith_normal_form(differential(group, mats, 0)).rank
    return FGAbelian(fixed_rank(action) - (fixed_rank(rel_action) if k else 0), torsion)


def tate_h0(group: FiniteGroup, module: GLattice) -> FGAbelian:
    """Tate's H^0: the fixed points M^G modulo the norm image NM.

    M^G is saturated and N x = |G| x on it, so NM has finite index in M^G,
    and M^G/NM is the torsion of coker N.  Any finite group will do.
    """
    if module.group != group:
        raise ValueError("module is not over the given group")
    return FGAbelian(0, linalg.invariant_factors(norm_operator(module)))


@dataclass(frozen=True)
class CohomologyClasses:
    """H^q(G, M) of a lattice, q in {1, 2}, read off one Smith form
    U d^(q-1) V = D of the coboundary matrix.

    ``generators`` columns are cocycles in the free cochain module, the
    columns of U^-1 at the diagonal entries d >= 2; their classes generate
    H^q with orders ``fg.torsion``, in that order.  The matching rows of U,
    ``coordinate_rows``, give a cocycle's class coordinates mod the orders,
    and the rows past the rank, ``cocycle_test``, vanish exactly on cocycles:
    H^q is finite, so the cocycles are the saturation of the coboundaries.
    All arrays are cached and read-only.
    """

    fg: FGAbelian
    generators: np.ndarray
    coordinate_rows: np.ndarray
    cocycle_test: np.ndarray

    def coordinates(self, cocycles: np.ndarray) -> np.ndarray:
        """Class coordinates of cocycle columns on ``generators``, mod orders."""
        if not linalg.is_zero(linalg.mul(self.cocycle_test, cocycles)):
            raise InternalInvariantError("vector is not a cocycle of this class group")
        out = linalg.mul(self.coordinate_rows, cocycles)
        for i, d in enumerate(self.fg.torsion):
            out[i, :] %= d
        return out


@lru_cache(maxsize=_CACHE_SIZE)
def cohomology_classes(module: GLattice, q: int) -> CohomologyClasses:
    """H^q as the torsion of coker d^(q-1), generated by columns of U^-1."""
    if q not in (1, 2):
        raise ValueError("cocycle representatives are computed in degrees 1 and 2")
    snf = linalg.smith_normal_form(differential(module.group, module.action, q - 1), want_u=True)
    cols = [i for i in range(snf.rank) if snf.diagonal[i] >= 2]
    arrays = (snf.uinv[:, cols], snf.u[cols], snf.u[snf.rank:])
    for a in arrays:
        a.flags.writeable = False
    return CohomologyClasses(FGAbelian(0, tuple(snf.diagonal[i] for i in cols)), *arrays)


class RestrictionMap(NamedTuple):
    """Integer matrix of H^q(G, M) -> H^q(H, Res M) on chosen generators."""

    source: FGAbelian
    target: FGAbelian
    matrix: tuple[tuple[int, ...], ...]  # target-generator rows


def _contract(chain: Chain, orders: Sequence[int]) -> Chain:
    """The contracting homotopy s of the tensor resolution, with ds + sd = 1.

    On one cyclic factor, s(g^t e_a) is (1 + g + ... + g^(t-1)) e_(a+1) for
    even a and [t = n - 1] e_(a+1) for odd a.  On the tensor product,
    s = s_1 x 1 + (eta eps)_1 x s_rest, where eta eps sends g^t e_0 to e_0.
    """
    out: Chain = defaultdict(int)
    for (t, alpha), c in chain.items():
        for i, a in enumerate(alpha):
            up = alpha[:i] + (a + 1,) + alpha[i + 1:]
            head, tail = (0,) * i, t[i + 1:]
            if a % 2 == 0:
                for j in range(t[i]):
                    out[(head + (j,) + tail, up)] += c
            elif t[i] == orders[i] - 1:
                out[(head + (0,) + tail, up)] += c
            if a:  # later terms need factors 1..i in degree 0
                break
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=_CACHE_SIZE)
def _chain_map(sub: Subgroup) -> tuple[tuple[Chain, ...], ...]:
    """phi_q(e'_beta) for q = 0, 1, 2: a chain map from the resolution of H
    into that of G over Z[H], lifting the identity of Z.

    phi_q = s phi_(q-1) d on the basis of H's resolution, extended
    Z[H]-linearly; degree 1 is the Fox derivative of each generator of H
    written in the g_i.
    """
    group = sub.parent
    dec = abelian_decomposition(group)
    sub_dec = abelian_decomposition(sub.as_group())
    zero = (0,) * len(dec.orders)
    phi: list[tuple[Chain, ...]] = [({(zero, zero): 1},)]
    for q in (1, 2):
        images = []
        for beta in _multi_indices(len(sub_dec.orders), q):
            target: Chain = defaultdict(int)
            for (u, lower), c in _boundary({((0,) * len(beta), beta): 1},
                                           sub_dec.orders).items():
                shift = dec.exponents[sub.elements[sub_dec.element(u)]]
                for (t, alpha), x in phi[q - 1][_positions(len(beta), q - 1)[lower]].items():
                    moved = tuple((a + b) % n for a, b, n in zip(t, shift, dec.orders))
                    target[(moved, alpha)] += c * x
            target = {key: c for key, c in target.items() if c}
            image = _contract(target, dec.orders)
            if _boundary(image, dec.orders) != target:
                raise InternalInvariantError("restriction chain map does not commute with d")
            images.append(image)
        phi.append(tuple(images))
    return tuple(phi)


def restrict_cochain(module: GLattice, sub: Subgroup, q: int,
                     cochain: np.ndarray) -> np.ndarray:
    """Pull degree-q cochain columns of G on ``module`` back to H along the
    chain map phi_q: f o phi at e'_beta is f evaluated on phi(e'_beta)."""
    if sub.parent != module.group:
        raise ValueError("subgroup does not belong to the module's group")
    return linalg.mul(_evaluation(module.group, module.action, q, _chain_map(sub)[q]), cochain)


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
    return _restriction_map(module, sub, q)


@lru_cache(maxsize=_CACHE_SIZE)
def _restriction_map(module: GLattice, sub: Subgroup, q: int) -> RestrictionMap:
    restricted = restrict(module, sub)
    if cohomology(restricted.group, restricted, q).is_trivial():
        return RestrictionMap(cohomology(module.group, module, q), FGAbelian.trivial(), ())
    source = cohomology_classes(module, q)
    target = cohomology_classes(restricted, q)
    coords = target.coordinates(restrict_cochain(module, sub, q, source.generators))
    matrix = tuple(tuple(int(x) for x in row) for row in coords.tolist())
    return RestrictionMap(source.fg, target.fg, matrix)


def sha2_cyclic(group: FiniteGroup, module: GLattice) -> FGAbelian:
    """Kernel of H^2(G, M) -> prod over cyclic subgroups of H^2(C, Res M).

    Cyclic subgroups stand in for the decomposition groups of unramified
    places.  The kernel is read off the restriction matrices by duality; see
    ``_kernel_invariants``.
    """
    if module.group != group:
        raise ValueError("module is not over the given group")
    return _sha2_cyclic(module)


@lru_cache(maxsize=_CACHE_SIZE)
def _sha2_cyclic(module: GLattice) -> FGAbelian:
    group = module.group
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
    return FGAbelian(0, _kernel_invariants(
        total.torsion, [e for rmap in maps for e in rmap.target.torsion],
        [row for rmap in maps for row in rmap.matrix]))


def _kernel_invariants(source: Sequence[int], target: Sequence[int],
                       matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors of the kernel of phi: sum Z/d_i -> sum Z/e_j,
    phi(x)_j = sum over i of R_ji x_i, for d = ``source``, e = ``target``
    and R = ``matrix``.

    For finite abelian groups ker phi is dual to coker phi^dual.  On the dual
    bases phi^dual has entries d_i R_ji / e_j, integers because phi is well
    defined, so the kernel has the invariant factors of [R^dual | diag(d)].
    """
    d = linalg.intmat(source, (len(source),))
    e = linalg.intmat([[x] for x in target], (len(target), 1))
    scaled = linalg.intmat(matrix, (len(target), len(source))) * d
    if not linalg.is_zero(scaled % e):
        raise InternalInvariantError("restriction is not well defined on the classes")
    return linalg.invariant_factors(np.hstack([(scaled // e).T, np.diag(d)]))


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
    to cocycles modulo coboundaries, so ``class_count`` is an independent
    count of the order of H^1(G, A) that ``cohomology`` reads off the small
    resolution.
    """
    if module.group != group:
        raise ValueError("module is not over the given group")
    orders, act = _finite_module_structure(module)
    size = math.prod(orders)
    if size ** group.order > SPLITTING_ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"{size}^{group.order} candidate maps exceed the "
            f"{SPLITTING_ENUMERATION_BOUND} bound")
    elements = [tuple(t) for t in itertools.product(*(range(d) for d in orders))]

    def add(u, v):
        return tuple((x + y) % d for x, y, d in zip(u, v, orders))

    def neg(u):
        return tuple((-x) % d for x, d in zip(u, orders))

    cocycles = [values for values in itertools.product(elements, repeat=group.order)
                if all(values[group.mul(a, b)] == add(values[a], act(a, values[b]))
                       for a in group.elements() for b in group.elements())]
    coboundaries = {tuple(add(act(a, x), neg(x)) for a in group.elements())
                    for x in elements}
    if cocycles and len(cocycles) % len(coboundaries) != 0:
        raise InternalInvariantError("coboundaries do not tile the cocycles")
    return SplittingEnumeration(orders, cocycles,
                                len(cocycles) // len(coboundaries))


def _finite_module_structure(module: GModulePresentation):
    """Residue coordinates for a finite presented module.

    Returns (orders, act) where the module is the product of Z/orders[i] and
    act(g, coords) applies the group action in those coordinates: the Smith
    frame of the relations, as its constructor computed it.
    """
    n = module.generators
    _, orders, mats = module._frame
    if len(orders) != n:
        raise ValueError("module is not finite")

    def act(a: int, coords: Sequence[int]) -> tuple[int, ...]:
        w = mats[a]
        return tuple(int(sum(w[i, j] * coords[j] for j in range(n))) % orders[i]
                     for i in range(n))

    return orders, act
