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
frame of R that its constructor computed (the record's cached property
``_relation_complex``), so its cochains are the cone C^q(Z^n) + C^(q+1)(R)
(Weibel, 1.5).  A lattice is the presented module with no relations, so one
engine serves both: R = 0, and the module is its own complex.
For q >= 1, H^q is killed by |G| and by the exponent E of M (0 when a
generator has infinite order, as on a lattice), so by g = gcd(E, |G|), and
every invariant factor >= 2 of D^(q-1) divides g.  At g = 1 H^q is 0 and
nothing is assembled; at g = 2^a the Smith form over Z/2^(a+1) is exact, on
any G.  ``_torsion`` reads E off the module's Smith frame and describes D
once, as row blocks of terms c X(g) (``_terms``).  H^1 and H^2 at g = 2^a
sum them into columns mod 2^(a+1) for ``linalg._two_adic_smith_form`` while
D has fewer than ``_PACKED_CELLS`` entries; H^0, other g and a larger D add
them into sparse rows for ``linalg.smith_normal_form``, which ``tate_h0``
and every Smith form with transforms take too.

Restriction to a subgroup H pulls cochains back along a chain map from the
resolution of H into that of G, built from the resolution's explicit
contracting homotopy and evaluated straight on the cochain's rows.  The
target H^q(H, Res M) is read off one Smith form with U of d^(q-1) of H's
resolution on M's own matrices at H's elements: its diagonal says whether the
target vanishes, and its U gives the coordinates when it does not.  No
restricted lattice enters a cache.  Sha^2 builds no restriction map.  It
looks only at the maximal cyclic subgroups C whose H^2(C, M) = M^C / N_C M,
Tate's H^0, does not vanish, which the ranks of N_C mod each prime dividing
|C| decide: at p = 2 on rows packed into integer bitmasks, at odd p on
sparse rows; <x> is a maximal C exactly when x is no p-th power for a prime
p dividing |G|.  By universal coefficients H^2(G, M) is dual to H_1(G,
M^dual), whose chains are the transposed cochains, and corestriction is the
transpose of restriction; so Sha^2 has the invariant factors of d^1 with
the corestricted 1-cycles of those C stacked under it, read by one
elimination, packed or integer as for H^2.  A lattice with such a C is
first split into the blocks of its generators' support, and their Sha^2
summed.
Restriction and Sha^2 take lattices only.  H^q, its cocycle classes, each
restriction map, Sha^2 and Tate's H^0 are each one module-level
``lru_cache``d function that checks its own arguments, keyed by value and
type: equal modules share entries, and ``True`` for 1 is checked again.
``enumerate_splittings`` is not cached: its ``cocycles`` is a list, which
a caller could change.  The resolution's boundary chains ``_boundaries``
depend on the invariant orders of G alone, so they are cached on those
orders and shared by every lattice over G.  A cyclotomic
quotient is one group object per (n, H) (see ``groups``), so a cache keyed
on it compares identical groups.
Every cache in the package holds at most ``_CACHE_SIZE`` (1024) entries.
The cached results are immutable: frozen ``FGAbelian``s, tuples and
``linalg.Matrix`` sparse rows, the one matrix type of every differential.
``bar_differential`` is kept as the independent reference the tests compare
this engine with; no package path calls it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from functools import lru_cache, reduce
from typing import NamedTuple, Sequence

from . import linalg
from ._record import Record
from .errors import EnumerationBoundError, InternalInvariantError
from .groups import _CACHE_SIZE, FiniteGroup, Subgroup, _factorint, abelian_decomposition
from .lattices import (FGAbelian, GLattice, GModulePresentation, _blocks, _require_lattice,
                       norm_operator)
from .linalg import Matrix

SPLITTING_ENUMERATION_BOUND = 10 ** 6
# H^q, q >= 1, killed by g = 2^a takes the packed 2-adic route when D^(q-1)
# has fewer entries than this.  ``_torsion`` on norm-one tori, packed /
# integer, assembly from the blocks included, in ms (best of 5; Python 3.11,
# shared 2-vCPU machine), where g = |G| = 2^v and the lanes are for e = v + 1:
#   C64      d^0     63 x 63    0.24 / 0.25   d^1    63 x 63     1.11 / 0.92
#   C128     d^0    127 x 127   0.64 / 0.47   d^1   127 x 127    5.80 / 3.43
#   C2xC64   d^0    254 x 127   0.82 / 0.90   d^1   381 x 254    5.85 / 5.92
#   C16xC16  d^0    510 x 255   2.67 / 1.94   d^1   765 x 510   15.5 / 43.6
#   C2^6     d^0    378 x 63    0.54 / 2.19   d^1  1323 x 378    9.33 / 24.3
#   C4^3     d^0    189 x 63    0.37 / 0.93   d^1   378 x 189    2.34 / 4.43
#   C4^4     d^0   1020 x 255   3.70 / 6.43   d^1  2550 x 1020  82 / 47
#   C2^8     d^0   2040 x 255   5.50 / 14.5   d^1  9180 x 2040  494 / 298
# Below it one long cyclic factor, one block of tall lanes, costs up to 1.7x
# and short ones gain up to 4x; past it packing loses 1.7x, its columns growing
# as rows x columns.  A presented module with g < |G| packs narrower lanes,
# e = a + 1, which only makes the bound conservative; it is not retuned.
_PACKED_CELLS = 10 ** 6


def _tuple_index(gs: Sequence[int], base: int) -> int:
    idx = 0
    for g in gs:
        idx = idx * base + g
    return idx


def bar_differential(group: FiniteGroup, mats: Sequence[Matrix], q: int) -> Matrix:
    """Matrix of d^q from M^(|G|^q) to M^(|G|^(q+1)), M of rank n.

    The inhomogeneous bar complex, kept as the tests' reference for the
    small resolution.  ``q`` is read by ``linalg.bounded``, as in ``cohomology``.
    """
    q = linalg.bounded(q, 0, 2, "cohomology degree")
    mats = [linalg.intmat(x) for x in mats]
    n = mats[0].shape[0]
    order = group.order
    ident = linalg.eye(n)
    out: list[dict[int, int]] = [{} for _ in range(n * order ** (q + 1))]

    def add(row_tuple, col_tuple, block, c=1):
        linalg._add_block(out, _tuple_index(row_tuple, order) * n,
                          _tuple_index(col_tuple, order) * n, c, block)

    if q == 0:
        for a in group.elements():
            add((a,), (), mats[a])
            add((a,), (), ident, -1)
    elif q == 1:
        for a, b in itertools.product(group.elements(), repeat=2):
            add((a, b), (b,), mats[a])
            add((a, b), (group.mul(a, b),), ident, -1)
            add((a, b), (a,), ident)
    else:
        for a, b, c in itertools.product(group.elements(), repeat=3):
            add((a, b, c), (b, c), mats[a])
            add((a, b, c), (group.mul(a, b), c), ident, -1)
            add((a, b, c), (a, group.mul(b, c)), ident)
            add((a, b, c), (a, b), ident, -1)
    return linalg._from_rows((len(out), n * order ** q), out)


@lru_cache(maxsize=_CACHE_SIZE)
def _basis(k: int, q: int) -> dict[tuple[int, ...], int]:
    """alpha in N^k with |alpha| = q, in decreasing lexicographic order, each
    sent to its position; the keys iterate in that order."""
    alphas = [()] if q == 0 else []
    if k:
        alphas = [(a,) + rest for a in range(q, -1, -1) for rest in _basis(k - 1, q - a)]
    return {alpha: i for i, alpha in enumerate(alphas)}


# Chains of the resolution of G, as Z-combinations of the basis g^t e_alpha:
# {(t, alpha): coefficient}, t the exponent tuple of the group element.
Chain = dict[tuple[tuple[int, ...], tuple[int, ...]], int]
# A chain's items, as the cached ``_boundaries`` share them: a tuple, which
# no caller can change.
Terms = tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], int], ...]


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


@lru_cache(maxsize=_CACHE_SIZE)
def _boundaries(orders: tuple[int, ...], q: int) -> tuple[Terms, ...]:
    """d e_beta for beta in ``_basis(len(orders), q + 1)``, as the terms of
    each chain: the chains that d^q evaluates cochains on.  They depend on
    the invariant orders alone, so every lattice over G shares them."""
    zero = (0,) * len(orders)
    return tuple(tuple(_boundary({(zero, beta): 1}, orders).items())
                 for beta in _basis(len(orders), q + 1))


Blocks = list[tuple[int, list[tuple[int, int, Matrix]]]]  # (height, [(column, c, a)])


def _terms(group: FiniteGroup, mats: Sequence[Matrix], q: int, col: int = 0,
           sign: int = 1) -> tuple[Blocks, int]:
    """d^q of ``differential``, one row block per chain of ``_boundaries``
    with a term (col + the column of block alpha, sign c, X(g^t)) per term
    ((t, alpha), c), and its width: the one reading of the resolution's d."""
    dec = abelian_decomposition(group)
    cols, chains = _basis(len(dec.orders), q), _boundaries(dec.orders, q)
    n, at = mats[group.identity].shape[0], dict(zip(dec.exponents, mats))  # X(g^t) at t
    return [(n, [(col + cols[alpha] * n, sign * c, at[t]) for (t, alpha), c in terms])
            for terms in chains], n * len(cols)


def _sum_terms(blocks: Blocks, width: int) -> Matrix:
    """The matrix of ``width`` columns whose row blocks add up the terms c a."""
    rows: list[dict[int, int]] = []
    for height, terms in blocks:
        rows += [{} for _ in range(height)]
        for j, c, a in terms:
            linalg._add_block(rows, len(rows) - height, j, c, a)
    return linalg._from_rows((len(rows), width), rows)


def _pack_terms(blocks: Blocks, width: int, e: int) -> tuple[list[int], int]:
    """The ``width`` columns mod 2^e of the blocks' matrix, packed for
    ``linalg._two_adic_smith_form``, and its number of rows.  A block sums
    c x mod 2^e into per-column ints of its own height; a 2e-bit lane holds
    2^e such addends, so they are reduced every 2^e terms, however long a
    norm block is, and shifted into their lanes once."""
    w, low, out, at = 2 * e, (1 << e) - 1, [0] * width, 0
    for height, terms in blocks:
        mask, sums = ((1 << height * w) - 1) // ((1 << w) - 1) * low, [0] * width
        for k, (j, c, a) in enumerate(terms, 1):
            for i, row in enumerate(a.rows):
                for l, x in row:
                    sums[j + l] += (c * x & low) << i * w
            if not k & low:
                sums = [x & mask for x in sums]
        for j, x in enumerate(sums):
            if x:
                out[j] |= (x & mask) << at * w
        at += height
    return out, at


def differential(group: FiniteGroup, mats: Sequence[Matrix], q: int) -> Matrix:
    """Matrix of d^q on the small cochains, M^C(q+k-1, k-1) to M^C(q+k, k-1).

    ``mats[a]`` is the matrix of group element a on M; row block beta holds
    f -> f(d e_beta), with d as written in ``_boundary``.  A cochain is
    Z[G]-linear, so f(g^t e_alpha) = X(g^t) f(e_alpha).
    """
    return _sum_terms(*_terms(group, mats, q))


def _torsion(group: FiniteGroup, module: GLattice | GModulePresentation, q: int,
             below: Blocks = ()) -> tuple[int, ...]:
    """The invariant factors >= 2 of D^(q-1) of ``cohomology``, with the
    row blocks ``below`` stacked under it.  They are those of the
    saturation of the row lattice over the lattice.  For q >= 1 and no
    ``below`` that quotient is dual to H^q, so g = gcd(E, |G|) kills it, E
    the exponent of M off its Smith frame (``module._frame``; 0 on a
    lattice); rows of ``below`` inside the saturation (``sha2_cyclic``'s)
    leave a quotient of it.  At g = 1 there is no factor and nothing is
    assembled.  Otherwise D is the blocks of ``_terms`` on the module's own
    stack when its relations span nothing, as on a lattice, else on the cone;
    at g = 2^a and fewer than ``_PACKED_CELLS`` entries ``_pack_terms`` sums
    them mod 2^(a+1), exact there, else ``_sum_terms`` over Z."""
    _, d, frame = module._frame
    annihilator = q and math.gcd(math.lcm(*d) if len(d) == module.generators else 0, group.order)
    if annihilator == 1:
        return ()
    action, basis, rel_action = module._relation_complex if d else (frame, None, ())
    blocks, width = _terms(group, action, q - 1)
    if basis is not None:  # D = [[d, I x B], [0, -d_R]]: B beside each block of d
        r = basis.shape[1]
        for b, (_, terms) in enumerate(blocks):
            terms.append((width + b * r, 1, basis))
        rel, rel_width = _terms(group, rel_action, q, width, -1)
        blocks, width = blocks + rel, width + rel_width
    blocks += below
    if annihilator and not annihilator & (annihilator - 1) \
            and sum(h for h, _ in blocks) * width < _PACKED_CELLS:
        cols, m = _pack_terms(blocks, width, e := annihilator.bit_length())
        return tuple(x for x in linalg._two_adic_smith_form(cols, m, e).diagonal if x > 1)
    return linalg.invariant_factors(_sum_terms(blocks, width))


@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def cohomology(group: FiniteGroup, module: GLattice | GModulePresentation,
               q: int) -> FGAbelian:
    """H^q(G, M) as a finitely generated abelian group, q in {0, 1, 2}.

    G must be abelian; other groups raise ``UnsupportedRequestError``, and so
    does q > 2 (q is read by ``linalg.bounded``).  H^q is the torsion of
    coker D^(q-1) plus, for q = 0, the rank of M^G.  D^q = [[d^q, B], [0,
    -d_R^(q+1)]] is the cone differential of ``module._relation_complex``; a
    lattice, or R = 0, has D = d on its own stack.  ``_torsion`` describes D
    once, as blocks of terms.  For q >= 1, H^q is killed by g = gcd(E, |G|),
    E the exponent of M (0 on a lattice, where g = |G|): at g = 1 it is 0
    and no D is assembled; at g = 2^a, on any G, the torsion is read off D
    packed mod 2^(a+1) when it has fewer than ``_PACKED_CELLS`` entries; and
    otherwise off the integer Smith form.  Over Q
    invariants are exact, so rank M^G = rank
    (Z^n)^G - rank R^G, and a fixed rank is the average of a trace character:
    (sum over g of tr M(g) - tr A(g)) / |G|."""
    q = linalg.bounded(q, 0, 2, "cohomology degree")
    if module.group != group:
        raise ValueError("module is not over the given group")
    torsion = _torsion(group, module, q)
    if q:
        return FGAbelian(0, torsion)
    _, d, frame = module._frame
    action, _, rel_action = module._relation_complex if d else (frame, None, ())
    free_rank, rem = divmod(sum(map(linalg.trace, action)) - sum(map(linalg.trace, rel_action)),
                            group.order)
    if rem:
        raise InternalInvariantError("the trace character does not average to a rank")
    return FGAbelian(free_rank, torsion)


@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def tate_h0(group: FiniteGroup, module: GLattice) -> FGAbelian:
    """Tate's H^0: the fixed points M^G modulo the norm image NM.

    M^G is saturated and N x = |G| x on it, so NM has finite index in M^G,
    and M^G/NM is the torsion of coker N.  Any finite group will do.
    """
    if module.group != group:
        raise ValueError("module is not over the given group")
    return FGAbelian(0, linalg.invariant_factors(norm_operator(module)))


class CohomologyClasses(Record):
    """H^q(G, M) of a lattice, q in {1, 2}, read off one Smith form
    U d^(q-1) V = D of the coboundary matrix.

    ``generators`` columns are cocycles in the free cochain module, the
    columns of U^-1 at the diagonal entries d >= 2; their classes generate
    H^q with orders ``fg.torsion``, in that order.  The matching rows of U,
    ``coordinate_rows``, give a cocycle's class coordinates mod the orders,
    and the rows past the rank, ``cocycle_test``, vanish exactly on cocycles:
    H^q is finite, so the cocycles are the saturation of the coboundaries.
    All matrices are cached and immutable.
    """

    _fields = ("fg", "generators", "coordinate_rows", "cocycle_test")

    def __init__(self, fg: FGAbelian, generators: Matrix, coordinate_rows: Matrix,
                 cocycle_test: Matrix):
        object.__setattr__(self, "fg", fg)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "coordinate_rows", coordinate_rows)
        object.__setattr__(self, "cocycle_test", cocycle_test)

    def coordinates(self, cocycles) -> Matrix:
        """Class coordinates of cocycle columns on ``generators``, mod orders."""
        if not linalg.is_zero(linalg.mul(self.cocycle_test, cocycles)):
            raise InternalInvariantError("vector is not a cocycle of this class group")
        out = linalg.mul(self.coordinate_rows, cocycles)
        return linalg._from_rows(out.shape, ({j: x % d for j, x in row}
                                             for row, d in zip(out.rows, self.fg.torsion)))


@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def cohomology_classes(module: GLattice, q: int) -> CohomologyClasses:
    """H^q of a lattice as the torsion of coker d^(q-1), generated by columns
    of U^-1.

    The generators are whichever the Smith form's pivot order gives, so they
    change with the lattice's basis and with the elimination; the group they
    generate does not."""
    _require_lattice(module)
    q = linalg.bounded(q, 1, 2, "cocycle degree")
    return _classes(differential(module.group, module.action, q - 1))


def _classes(d: Matrix) -> CohomologyClasses:
    """The classes of the torsion of coker d, read off one Smith form U d V."""
    snf = linalg.smith_normal_form(d, want_u=True)
    cols = [i for i in range(snf.rank) if snf.diagonal[i] >= 2]
    return CohomologyClasses(FGAbelian(0, tuple(snf.diagonal[i] for i in cols)),
                             snf.uinv.take(cols=cols), snf.u.take(rows=cols),
                             snf.u.take(rows=range(snf.rank, d.shape[0])))


class RestrictionMap(NamedTuple):
    """Integer matrix of H^q(G, M) -> H^q(H, Res M) on chosen generators.

    ``matrix`` is written in the generators of ``cohomology_classes`` on G's
    side and in those of the same Smith form of H's d^(q-1) on the other
    (the generators ``cohomology_classes(restrict(M, H), q)`` gives).  Both
    follow the Smith form's pivot order, so a change of the lattice's basis
    may change it; ``source``, ``target`` and the kernel do not change."""

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
        for beta in _basis(len(sub_dec.orders), q):
            target: Chain = defaultdict(int)
            for (u, lower), c in _boundary({((0,) * len(beta), beta): 1},
                                           sub_dec.orders).items():
                shift = dec.exponents[sub.elements[sub_dec.element(u)]]
                for (t, alpha), x in phi[q - 1][_basis(len(beta), q - 1)[lower]].items():
                    moved = tuple((a + b) % n for a, b, n in zip(t, shift, dec.orders))
                    target[(moved, alpha)] += c * x
            target = {key: c for key, c in target.items() if c}
            image = _contract(target, dec.orders)
            if _boundary(image, dec.orders) != target:
                raise InternalInvariantError("restriction chain map does not commute with d")
            images.append(image)
        phi.append(tuple(images))
    return tuple(phi)


def restrict_cochain(module: GLattice, sub: Subgroup, q: int, cochain) -> Matrix:
    """Pull degree-q cochain columns of G on ``module`` back to H along the
    chain map phi_q, q in {0, 1, 2}: f o phi at e'_beta is f evaluated on
    phi(e'_beta).  So row block beta sums c X(g^t) times the cochain's rows
    in block alpha over the terms (t, alpha) of phi(e'_beta), and no matrix
    of the evaluation is built.  The cochain is read by ``linalg.intmat``,
    and one with the wrong number of rows raises ``ValueError``."""
    _require_lattice(module)
    q = linalg.bounded(q, 0, 2, "cochain degree")
    if sub.parent != module.group:
        raise ValueError("subgroup does not belong to the module's group")
    cochain, chains = linalg.intmat(cochain), _chain_map(sub)[q]
    dec, n = abelian_decomposition(module.group), module.rank
    cols = _basis(len(dec.orders), q)
    if cochain.shape[0] != n * len(cols):
        raise ValueError(f"shape mismatch {(n * len(chains), n * len(cols))} @ {cochain.shape}")
    out: list[dict[int, int]] = []
    for chain in chains:
        block: list[dict[int, int]] = [{} for _ in range(n)]
        for (t, alpha), c in chain.items():
            base = cols[alpha] * n
            for acc, row in zip(block, module.action[dec.element(t)].rows):
                for l, y in row:
                    y *= c
                    for j, z in cochain.rows[base + l]:
                        acc[j] = acc.get(j, 0) + y * z
        out += block
    return linalg._from_rows((len(out), cochain.shape[1]), out)


@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def restriction_map(group: FiniteGroup, module: GLattice, sub: Subgroup,
                    q: int) -> RestrictionMap:
    """Cochain-level restriction on cohomology, q in {1, 2}, of a lattice.

    H^q(H, Res M) is read off one Smith form with U of d^(q-1) of H's
    resolution on M's own matrices at H's elements; no restricted lattice is
    built.  A vanishing target, read off that form's diagonal, gives the
    empty matrix without building any cocycle representatives; a nonzero one
    takes its coordinates from the same form.  ``sha2_cyclic`` does not call
    this: it reads Sha^2 off corestricted cycles, and the tests hold it
    against the kernel of these maps over every cyclic subgroup.  The matrix
    is in the generators of Smith forms with U, not canonical ones (see
    ``RestrictionMap``).
    """
    _require_lattice(module)
    q = linalg.bounded(q, 1, 2, "restriction degree")
    if module.group != group or sub.parent != group:
        raise ValueError("module and subgroup must belong to the given group")
    d = differential(sub.as_group(), [module.action[a] for a in sub.elements], q - 1)
    target = _classes(d)
    if target.fg.is_trivial():
        return RestrictionMap(cohomology(group, module, q), target.fg, ())
    source = cohomology_classes(module, q)
    coords = target.coordinates(restrict_cochain(module, sub, q, source.generators))
    matrix = tuple(map(tuple, coords.tolist()))
    return RestrictionMap(source.fg, target.fg, matrix)


@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def sha2_cyclic(group: FiniteGroup, module: GLattice) -> FGAbelian:
    """Kernel of H^2(G, M) -> prod over cyclic subgroups of H^2(C, Res M),
    for a lattice M.

    Cyclic subgroups stand in for the decomposition groups of unramified
    places.  For C' in C, restriction to C' factors through C, so the kernel
    over the maximal cyclic subgroups is the kernel over all of them; and a
    C with H^2(C, M) = 0 cuts nothing.  That is read off the ranks of the
    norm N_C mod each prime dividing |C| (``_cyclic_h2_vanishes``), in one
    lazy pass over the closed-form ``_maximal_cyclic_spans`` that reads each
    element's matrix once; only the C with H^2(C, M) != 0 become checked
    ``Subgroup``s.  On a norm-one torus every cyclic H^2 vanishes (H^3(C, Z)
    = 0), and Sha^2 is H^2 itself.

    No restriction map is built.  H^2(G, M) is dual to H_1(G, M^dual), whose
    chains on the same resolution are the transposed cochains, and
    corestriction is the transpose of restriction; so Sha^2 is dual to
    H_1(G, M^dual) modulo the corestricted cycles of the targets C, and has
    the invariant factors of the row lattice of d^1 stacked with them
    (``_corestricted_cycles``), read by one elimination (``_torsion``).  A
    lattice with a target whose generators' support splits into blocks
    (``lattices._blocks``) is first split: Sha^2 is additive, and equal
    blocks, such as the Z of a split summand, share one cache entry.
    """
    _require_lattice(module)
    if module.group != group:
        raise ValueError("module is not over the given group")
    total = cohomology(group, module, 2)
    if total.is_trivial():
        return FGAbelian.trivial()
    reads: dict[int, tuple[int, list[int] | None]] = {}
    targets = (Subgroup(group, span) for span in _maximal_cyclic_spans(group)
               if not _cyclic_h2_vanishes(module, span, reads))
    first = next(targets, None)
    if first is None:  # with no target left the kernel is H^2 itself
        return total
    if module.rank > 1 and len(blocks := _blocks(module)) > 1:
        return FGAbelian.from_divisors(d for block in blocks
                                       for d in sha2_cyclic(group, block).torsion)
    cycles = _corestricted_cycles(group, module, [first, *targets])
    return FGAbelian(0, _torsion(group, module, 2, cycles))


def _corestricted_cycles(group: FiniteGroup, module: GLattice,
                         targets: Sequence[Subgroup]) -> Blocks:
    """The rows w R_C over the cyclic subgroups C of ``targets``, one row
    block each, in the coordinates of d^1's columns.

    For C generated by z = prod g_i^(s_i), the chain map from C's resolution
    takes e'_1 to the Fox derivative of z in the g_i, s(z e_0) for the
    contracting homotopy s, so restriction of 1-cochains is the n-row R_C
    whose block alpha sums c X(g^t) over its terms (t, alpha).  The 1-cycles
    of C with coefficients in M^dual are the left kernel of X(z) - I: the
    rows of U past the rank in one Smith form with U of it.  So each target
    adds rank M^C rows."""
    dec = abelian_decomposition(group)
    n, zero, cols = module.rank, (0,) * len(dec.orders), _basis(len(dec.orders), 1)
    eye, blocks = linalg.eye(n), []
    for sub in targets:
        z = next(x for x in sub.elements if group.element_order(x) == sub.order)
        snf = linalg.smith_normal_form(
            linalg.combine([(1, module.action[z]), (-1, eye)]), want_u=True)
        fox = [(n, [(cols[alpha] * n, c, module.action[dec.element(t)]) for (t, alpha), c
                    in _contract({(dec.exponents[z], zero): 1}, dec.orders).items()])]
        blocks.append((n - snf.rank, [(0, 1, linalg.mul(snf.u.take(rows=range(snf.rank, n)),
                                                        _sum_terms(fox, n * len(cols))))]))
    return blocks


def _maximal_cyclic_spans(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The cyclic subgroups of an abelian group in no larger cyclic one, as
    sorted elements in the order of ``cyclic_subgroups``: the <x> with x no
    p-th power for any prime p dividing |G|, that is, with an exponent prime
    to p at some n_i divisible by p.  One pass meets each at its least
    generator x and skips the others, x^j with j prime to ord(x)."""
    dec, table = abelian_decomposition(group), group.table
    seen = {dec.element(t) for p in _factorint(group.order) for t in itertools.product(
        *(range(0, n, p) if n % p == 0 else range(n) for n in dec.orders))}  # pG, p | |G|
    spans = []
    for x in group.elements():
        if x in seen:
            continue
        powers = [x]
        while powers[-1] != group.identity:
            powers.append(table[powers[-1]][x])
        seen.update(y for j, y in enumerate(powers, 1) if math.gcd(j, len(powers)) == 1)
        spans.append(tuple(sorted(powers)))
    return sorted(spans, key=lambda s: (len(s), s))


def _cyclic_h2_vanishes(module: GLattice, span: Sequence[int], reads: dict) -> bool:
    """Whether H^2(C, Res M) = M^C / N_C M vanishes, for the cyclic subgroup
    C whose elements are ``span``.

    |C| kills H^2, the torsion of coker N_C, and N_C has rank r = rank M^C
    over Q (the mean of the trace character over C), so H^2 vanishes exactly
    when N_C mod p has rank r for each prime p dividing |C| (``_rank_mod``).
    When |C| is a power of 2, row i of N_C mod 2 is summed straight into a
    bitmask, as the XOR over c of the odd-entry bitmask of row i of M(c);
    any other C sums N_C over Z once.  ``reads`` keeps each M(c)'s trace, and
    its bitmasks (None until a 2-power span reads them), for the other spans
    of one pass; no maximal span is a 2-power one when |G| has an odd factor."""
    two_power = not len(span) & (len(span) - 1)
    for c in span:
        if c not in reads or two_power and reads[c][1] is None:
            if not two_power:
                reads[c] = linalg.trace(module.action[c]), None
                continue
            trace, masks = 0, []
            for i, row in enumerate(module.action[c].rows):
                mask = 0
                for j, y in row:
                    trace += y if j == i else 0
                    mask |= (y & 1) << j
                masks.append(mask)
            reads[c] = trace, masks
    fixed, rem = divmod(sum(reads[c][0] for c in span), len(span))
    if rem:
        raise InternalInvariantError("the trace character does not average to a rank")
    if not two_power:
        norm = linalg.combine((1, module.action[c]) for c in span).rows
        return all(_rank_mod(norm, p, fixed) == fixed for p in _factorint(len(span)))
    rows = reduce(lambda a, b: list(map(operator.xor, a, b)), (reads[c][1] for c in span))
    return _f2_rank(rows, fixed) == fixed


def _f2_rank(rows: Sequence[int], bound: int) -> int:
    """The F_2 rank of rows given as bitmasks, counted up to ``bound``, which
    callers set to the rational rank that no rank mod p exceeds: each row is
    eliminated on its highest set bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        if len(pivots) == bound:
            break
        while row:
            top = row.bit_length()
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _rank_mod(rows: Sequence[tuple[tuple[int, int], ...]], p: int, bound: int) -> int:
    """The rank mod a prime p of sparse rows ((column, entry), ...), counted
    up to ``bound``.  At p = 2 the rows become bitmasks of their odd entries
    (``_f2_rank``); otherwise each row, reduced mod p, is eliminated on its
    first column against pivot rows scaled to lead with 1."""
    if p == 2:
        return _f2_rank([sum(1 << j for j, x in row if x & 1) for row in rows], bound)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(pivots) == bound:
            break
        v = {j: x % p for j, x in row if x % p}
        while v:
            j = min(v)
            pivot = pivots.get(j)
            if pivot is None:
                inv = pow(v[j], -1, p)
                pivots[j] = {k: x * inv % p for k, x in v.items()}
                break
            c = v[j]
            for k, x in pivot.items():
                y = (v.get(k, 0) - c * x) % p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return len(pivots)


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
        return tuple(sum(x * coords[j] for j, x in row) % orders[i]
                     for i, row in enumerate(mats[a].rows))

    return orders, act
