"""G-lattices: free Z-modules with a finite group acting by unimodular matrices.

A lattice of rank n is held as one read-only ``(|G|, n, n)`` object array of
Python ints, the matrix of every group element in element order; a presented
module adds one read-only relation matrix.  Both are hashed once, when they
are built, and compare by value, so they are cheap ``lru_cache`` keys.  The
constructors (trivial, sign, regular, permutation, induced, restricted, duals,
sums) build or slice that stack directly.  A quotient forms proj X(a) section
from sparse rows (``linalg.stack_product``): the norm-one stack at |G| = 96
is about 2 % nonzero.
``FGAbelian`` carries finitely generated abelian groups as invariant factors
plus a free rank.  All normal-form work is delegated to :mod:`toruskit.linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import InternalInvariantError
from .groups import FiniteGroup, FiniteGSet, Subgroup, coset_gset, generating_set


def _read_only(data, shape: tuple[int, ...]) -> np.ndarray:
    """``data`` as a read-only object array of Python ints of shape ``shape``.

    A read-only object array that owns its entries, such as another lattice's
    ``action``, is shared; anything else is copied, so no caller keeps a
    handle that writes into the result.
    """
    if not (isinstance(data, np.ndarray) and data.dtype == object and data.shape == shape
            and data.base is None and not data.flags.writeable):
        data = linalg.intmat(data, shape)
        data.flags.writeable = False
    return data


@dataclass(frozen=True, eq=False)
class GLattice:
    """A rank-n free Z-module with ``group`` acting through integer matrices.

    ``action`` is a read-only ``(|G|, n, n)`` object array of Python ints, and
    ``action[g]`` is the matrix of g on column vectors.  Nested lists and
    writeable arrays are copied in.  The hash is computed once, here, and
    equality compares group, rank and entries, so a lattice rebuilt from the
    same data hits every cache keyed on the first.

    The constructor checks (``_check_action``) that the assignment is a
    homomorphism sending the identity to the identity matrix, which forces
    every matrix to be unimodular."""

    group: FiniteGroup
    action: np.ndarray
    rank: int = field(init=False)  # the size of the identity's matrix
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        g = self.group
        if len(self.action) != g.order:
            raise ValueError("one action matrix per group element required")
        n = len(self.action[g.identity])
        action = _read_only(self.action, (g.order, n, n))
        _check_action(g, action)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "_hash", hash((g, n, tuple(action.flat))))

    def __eq__(self, other):
        return (isinstance(other, GLattice) and self._hash == other._hash
                and self.group == other.group and self.rank == other.rank
                and np.array_equal(self.action, other.action))

    def __hash__(self):
        return self._hash

    def matrix(self, g: int) -> np.ndarray:
        return self.action[g].copy()

    @cached_property
    def characteristic_polynomials(self) -> tuple[tuple[int, ...], ...]:
        """det(x I - X(g)) for every element g, coefficients from x^rank down.

        X(g)^i = X(g^i), so the eigenvalue power sums are p_i = chi(g^i), and
        Newton's identities k e_k = sum over i <= k of (-1)^(i-1) e_(k-i) p_i
        give the coefficients c_k = (-1)^k e_k as k c_k = -sum c_(k-i) p_i.
        """
        chi, table, out = trace_character(self), self.group.table, []
        for g in self.group.elements():
            sums, c, power = [], [1], g
            for k in range(1, self.rank + 1):
                sums.append(chi[power])
                power = table[power][g]
                c_k, rem = divmod(-sum(a * b for a, b in zip(c, reversed(sums))), k)
                if rem:
                    raise InternalInvariantError("Newton's identities left a remainder")
                c.append(c_k)
            out.append(tuple(c))
        return tuple(out)

    def __repr__(self):
        return f"GLattice({self.group.label or self.group.order}, rank={self.rank})"


def _holds_exactly(group: FiniteGroup, stack: np.ndarray) -> tuple[bool, bool]:
    """(X(e) = I, X(a s) = X(a) X(s) for all a and s in ``generating_set``),
    exactly.  Generators suffice, as every element is a word in them.  Both
    are tested on v = (1, b, b^2, ...): for c the largest entry, b = n c^2 +
    c + 1 exceeds every entry of X(a) X(s) - X(a s) and, unless X = 0, of
    X(e) - I, so by base-b digits no nonzero difference vanishes on v."""
    n, c = stack.shape[1], np.abs(stack).max(initial=0)
    v = np.array([(n * c * c + c + 1) ** i for i in range(n)], dtype=object)
    images = np.dot(stack, v)
    return (np.array_equal(images[group.identity], v),
            all(np.array_equal(np.dot(stack, images[s]), images[[row[s] for row in group.table]])
                for s in generating_set(group)))


def _check_action(group: FiniteGroup, stack: np.ndarray, rel: np.ndarray | None = None
                  ) -> tuple[bool, tuple[int, ...], np.ndarray]:
    """Raise ``ValueError`` unless a -> stack[a] is an action on Z^n / span(rel).

    Returns the Smith frame (exact, d, M) of the quotient: ``exact`` says the
    action holds on Z^n itself, and U rel V = diag(d) with d_1 | ... | d_r
    nonzero puts Z^n / span(rel) into the coordinates Z/d_1 + ... + Z/d_r +
    Z^(n-r), where a acts by M(a) = U X(a) U^-1.  What holds on Z^n
    (``_holds_exactly``) holds modulo R, so identity and group law are tested
    in the frame only when they fail on Z^n: a column lies in span(diag(d))
    when its first r entries are multiples of d and the rest vanish."""
    identity, law = _holds_exactly(group, stack)
    if rel is None or rel.shape[1] == 0:
        if not identity:
            raise ValueError("identity must act as the identity matrix")
        if not law:
            raise ValueError("action matrices do not respect the group law")
        return True, (), stack
    snf = linalg.smith_normal_form(rel, want_u=True)
    r, eye = snf.rank, linalg.eye(len(rel))
    if np.array_equal(snf.u, eye):  # then U^-1 = I too: the frame is the stack
        frame = stack
    else:
        frame = np.matmul(np.matmul(snf.u, stack), snf.uinv)
        frame.flags.writeable = False
    d = linalg.intmat(snf.diagonal[:r], (r,))

    def spanned(cols: np.ndarray) -> bool:
        return linalg.is_zero(cols[:r] % d[:, None]) and linalg.is_zero(cols[r:])
    gens = generating_set(group)
    if not identity and not spanned(frame[group.identity] - eye):
        raise ValueError("identity must act as the identity on the quotient")
    if gens and not spanned(np.hstack([frame[s][:, :r] * d for s in gens])):
        raise ValueError("action does not preserve the relation lattice")
    if not law and not spanned(np.hstack(
            [block for s in gens for block in
             np.matmul(frame, frame[s]) - frame[[row[s] for row in group.table]]])):
        raise ValueError("action does not respect the group law on the quotient")
    return identity and law, snf.diagonal[:r], frame


def _lattice(group: FiniteGroup, stack: np.ndarray) -> GLattice:
    """GLattice on a stack a constructor just built; frozen in place, it is
    shared instead of copied."""
    stack.flags.writeable = False
    return GLattice(group, stack)


def glattice(group: FiniteGroup, matrices: Sequence[Sequence[Sequence[int]]]) -> GLattice:
    return GLattice(group, matrices)


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return _lattice(group, np.repeat(linalg.eye(rank)[None], group.order, axis=0))


def sign_lattice(group: FiniteGroup, kernel: Subgroup) -> GLattice:
    """Rank-1 lattice where elements of ``kernel`` fix and the rest negate."""
    if kernel.parent != group:
        raise ValueError("kernel must be a subgroup of the acting group")
    if kernel.index != 2:
        raise ValueError("sign lattice needs an index-2 subgroup as kernel")
    return _lattice(group, np.array([[[1 if g in kernel.elements else -1]]
                                     for g in group.elements()], dtype=object))


def _permutation(group: FiniteGroup, images: Sequence[Sequence[int]]) -> GLattice:
    """a sends basis vector x to basis vector images[a][x]."""
    n = len(images[group.identity])
    stack = linalg.zeros(group.order, n, n)
    for a, row in enumerate(images):
        stack[a, list(row), list(range(n))] = 1
    return _lattice(group, stack)


def permutation_lattice(gset: FiniteGSet) -> GLattice:
    return _permutation(gset.group, gset.action)


def regular_lattice(group: FiniteGroup) -> GLattice:
    """Z[G] on the basis of group elements in canonical order."""
    return _permutation(group, group.table)


def induce(h: Subgroup, a: GLattice) -> GLattice:
    """Induction from a subgroup: block-permute cosets, twist by the H-action.

    ``a`` must be a lattice over ``h.as_group()``; the result has rank
    [G:H] * rank(a) on the basis (coset representative, basis vector of a).
    """
    g = h.parent
    if a.group != h.as_group():
        raise ValueError("lattice is not over the given subgroup")
    cosets = coset_gset(g, h).action
    # Cosets are ordered by least representative, so r_0 is element 0, x r_0
    # lies in coset cosets[x][0], and r_j is the least such product in coset j.
    reps = [g.order] * len(cosets[0])
    for x in g.elements():
        j = cosets[x][0]
        reps[j] = min(reps[j], g.mul(x, 0))
    r_a = a.rank
    stack = linalg.zeros(g.order, len(reps) * r_a, len(reps) * r_a)
    for x in g.elements():
        for i, j in enumerate(cosets[x]):
            k = g.mul(g.inv(reps[j]), g.mul(x, reps[i]))  # x r_i = r_j k with k in H
            stack[x, j * r_a:(j + 1) * r_a, i * r_a:(i + 1) * r_a] = a.action[h.position(k)]
    return _lattice(g, stack)


def restrict(m: GLattice, h: Subgroup) -> GLattice:
    if h.parent != m.group:
        raise ValueError("subgroup does not belong to the lattice's group")
    return _lattice(h.as_group(), m.action[list(h.elements)])


def dual(m: GLattice) -> GLattice:
    """Contragredient lattice: g acts by the transpose of the g^-1 matrix."""
    g = m.group
    return _lattice(g, m.action[list(g.inverse)].swapaxes(1, 2).copy())


def direct_sum(m1: GLattice, m2: GLattice) -> GLattice:
    if m1.group != m2.group:
        raise ValueError("direct sum requires lattices over the same group")
    r1, r2 = m1.rank, m2.rank
    stack = linalg.zeros(m1.group.order, r1 + r2, r1 + r2)
    stack[:, :r1, :r1] = m1.action
    stack[:, r1:, r1:] = m2.action
    return _lattice(m1.group, stack)


def direct_sum_all(lattices: Sequence[GLattice]) -> GLattice:
    if not lattices:
        raise ValueError("empty direct sum")
    return reduce(direct_sum, lattices)


def norm_operator(m: GLattice) -> np.ndarray:
    """The averaging operator N = sum over g of action(g)."""
    return m.action.sum(axis=0)


def norm_vector(m: GLattice) -> np.ndarray:
    """Image of the first basis vector under the norm operator, as a column."""
    return norm_operator(m)[:, :1]


def invariants(m: GLattice) -> tuple[np.ndarray, int]:
    """Hermite basis of the fixed sublattice M^G (saturated) and its rank.

    A vector fixed by a generating set is fixed by the whole group.
    """
    rows = [m.action[s] - linalg.eye(m.rank) for s in generating_set(m.group)]
    if not rows:
        return linalg.eye(m.rank), m.rank
    basis = linalg.kernel_basis(np.vstack(rows))
    return basis, basis.shape[1]


def trace_character(m: GLattice) -> tuple[int, ...]:
    """chi(g) = trace of the matrix of g, indexed by group element."""
    return tuple(sum(mat.diagonal().tolist()) for mat in m.action)


def quotient_lattice(m: GLattice, sub_basis) -> tuple[GLattice, np.ndarray]:
    """Quotient by a G-stable saturated sublattice, with the projection matrix.

    ``sub_basis`` is a rank x s integer matrix whose columns form a basis of
    the sublattice.  Torsion quotients are refused (the sublattice must be
    saturated), as is any basis the group action does not preserve.  All of
    it is read off one Smith form U S V = D of the Hermite basis S: with D = 1
    the last rows of U vanish exactly on the sublattice, and they are the
    projection; the matching columns of U^-1 are a section of it.  The
    quotient's stack proj X(a) section multiplies nonzero entries only
    (``linalg.stack_product``): the projection of a norm vector has two
    nonzeros per row and its section one per column.
    """
    s = sub_basis if isinstance(sub_basis, np.ndarray) else linalg.intmat(
        sub_basis, shape=(m.rank, len(sub_basis[0]) if len(sub_basis) else 0))
    if s.shape[0] != m.rank:
        raise ValueError("sublattice basis lives in the wrong ambient rank")
    ncols = s.shape[1]
    s = linalg.hermite_column(s)  # canonical basis of the same sublattice
    if s.shape[1] < ncols:
        raise ValueError("sublattice basis columns are dependent")
    full = linalg.smith_normal_form(s, want_u=True)
    if any(d != 1 for d in full.diagonal):
        raise ValueError("sublattice is not saturated; quotient would have torsion")
    proj = full.u[ncols:, :]
    if not all(linalg.is_zero(linalg.mul(proj, linalg.mul(m.action[a], s)))
               for a in generating_set(m.group)):  # stable under generators is stable
        raise ValueError("sublattice is not stable under the group action")
    section = full.uinv[:, ncols:]
    return _lattice(m.group, linalg.stack_product(proj, m.action, section)), proj


@dataclass(frozen=True, eq=False)
class GModulePresentation:
    """Finitely generated G-module: Z^n modulo the column span of ``relations``.

    ``relations`` is a read-only ``(n, k)`` array whose columns span the
    relation lattice, and ``action`` a read-only ``(|G|, n, n)`` stack of
    matrices on the generators, held, hashed, compared and checked as for
    ``GLattice``.  The matrices must preserve the relation lattice, so they
    descend to the quotient.  The check puts the relations into Smith form
    once; ``_frame`` keeps what ``_check_action`` read off it, and the
    cohomology engine and the splitting enumerator reuse it."""

    group: FiniteGroup
    relations: np.ndarray
    action: np.ndarray
    generators: int = field(init=False)  # the size of the identity's matrix
    _hash: int = field(init=False, repr=False)
    _frame: tuple[bool, tuple[int, ...], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        g = self.group
        if len(self.action) != g.order:
            raise ValueError("one action matrix per group element required")
        n = len(self.action[g.identity])
        action = _read_only(self.action, (g.order, n, n))
        k = np.shape(self.relations)[-1] if n else 0
        relations = _read_only(self.relations, (n, k))
        object.__setattr__(self, "_frame", _check_action(g, action, relations))
        object.__setattr__(self, "generators", n)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_hash", hash((g, n, tuple(relations.flat),
                                                tuple(action.flat))))

    def __eq__(self, other):
        return (isinstance(other, GModulePresentation) and self._hash == other._hash
                and self.group == other.group
                and self.generators == other.generators
                and np.array_equal(self.relations, other.relations)
                and np.array_equal(self.action, other.action))

    def __hash__(self):
        return self._hash


def presentation_mod(m: GLattice, modulus: int) -> GModulePresentation:
    """The finite module M / modulus*M with the inherited action."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    return GModulePresentation(m.group, modulus * linalg.eye(m.rank), m.action)


@dataclass(frozen=True)
class FGAbelian:
    """Finitely generated abelian group: free rank plus invariant factors.

    >>> str(FGAbelian.from_divisors([0, 4, 6]))
    'Z x C2 x C12'
    """

    free_rank: int
    torsion: tuple[int, ...]  # d1 | d2 | ..., each >= 2

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def trivial(cls) -> "FGAbelian":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelian":
        return cls(rank, ())

    @classmethod
    def from_divisors(cls, divisors: Iterable[int]) -> "FGAbelian":
        """Normalize arbitrary cyclic orders (0 meaning Z) to invariant factors."""
        orders = [abs(int(d)) for d in divisors]
        finite = linalg.intmat([d for d in orders if d], (len(orders) - orders.count(0),))
        return cls(orders.count(0), linalg.invariant_factors(np.diag(finite)))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        """Order of the group; raises for infinite groups."""
        if self.free_rank:
            raise ValueError("group is infinite")
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def exponent(self) -> int:
        if self.free_rank:
            raise ValueError("group is infinite")
        return self.torsion[-1] if self.torsion else 1

    def direct_sum(self, other: "FGAbelian") -> "FGAbelian":
        merged = FGAbelian.from_divisors(list(self.torsion) + list(other.torsion))
        return FGAbelian(self.free_rank + other.free_rank, merged.torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"C{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"
