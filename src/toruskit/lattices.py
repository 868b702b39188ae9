"""G-lattices: free Z-modules with a finite group acting by unimodular matrices.

A lattice of rank n is held as one read-only ``(|G|, n, n)`` object array of
Python ints, the matrix of every group element in element order; a presented
module adds one read-only relation matrix.  Both are hashed once, when they
are built, and compare by value, so they are cheap ``lru_cache`` keys.  The
constructors (trivial, sign, regular, permutation, induced, restricted, duals,
sums, quotients, conjugates) build or slice that stack directly.
``FGAbelian`` carries finitely generated abelian groups as invariant factors
plus a free rank.  All normal-form work is delegated to :mod:`toruskit.linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .groups import (FiniteGroup, FiniteGSet, Subgroup, _factorint,
                     coset_representatives, generating_set)


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

    The constructor checks that the assignment is a homomorphism sending the
    identity to the identity matrix (which forces every matrix to be
    unimodular).  Like every group-law check in the package, it reads only a
    generating set: X(a s) = X(a) X(s) for every a and every s in
    ``generating_set`` suffices, because every element is a word in the
    generators, so X(ab) = X(a) X(b) follows by induction on the length of b.
    """

    group: FiniteGroup
    rank: int
    action: np.ndarray
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        g = self.group
        if len(self.action) != g.order:
            raise ValueError("one action matrix per group element required")
        action = _read_only(self.action, (g.order, self.rank, self.rank))
        _check_action(g, action)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_hash", hash((g, self.rank, tuple(action.flat))))

    def __eq__(self, other):
        return (isinstance(other, GLattice) and self._hash == other._hash
                and self.group == other.group and self.rank == other.rank
                and np.array_equal(self.action, other.action))

    def __hash__(self):
        return self._hash

    def matrix(self, g: int) -> np.ndarray:
        return self.action[g].copy()

    def __repr__(self):
        return f"GLattice({self.group.label or self.group.order}, rank={self.rank})"


def _check_action(group: FiniteGroup, stack: np.ndarray,
                  rel: np.ndarray | None = None) -> None:
    """Raise ``ValueError`` unless a -> stack[a] is an action on Z^n / span(rel).

    The group law is checked as X(a s) = X(a) X(s) for s in ``generating_set``
    only, one product over the whole stack per generator.  Without relations
    matrices are compared exactly, stopping after the first generator that
    fails.  With relations each property (identity, relation lattice
    preserved, group law) is one solve over the stacked differences: X(a)
    then preserves span(rel) for every a, by the same induction.
    """
    gens = generating_set(group)
    ident = stack[group.identity] - linalg.eye(stack.shape[1])
    laws = (np.matmul(stack, stack[s]) - stack[[row[s] for row in group.table]]
            for s in gens)
    if rel is None or rel.shape[1] == 0:
        if not linalg.is_zero(ident):
            raise ValueError("identity must act as the identity matrix")
        if not all(linalg.is_zero(diff) for diff in laws):
            raise ValueError("action matrices do not respect the group law")
        return
    if linalg.solve(rel, ident) is None:
        raise ValueError("identity must act as the identity on the quotient")
    if gens and linalg.solve(rel, linalg.hstack(
            [linalg.mul(stack[s], rel) for s in gens])) is None:
        raise ValueError("action does not preserve the relation lattice")
    if gens and linalg.solve(rel, linalg.hstack(
            [block for diff in laws for block in diff])) is None:
        raise ValueError("action does not respect the group law on the quotient")


def _lattice(group: FiniteGroup, stack: np.ndarray) -> GLattice:
    """GLattice on a stack a constructor just built; frozen in place, it is
    shared instead of copied."""
    stack.flags.writeable = False
    return GLattice(group, stack.shape[1], stack)


def glattice(group: FiniteGroup, matrices: Sequence[Sequence[Sequence[int]]]) -> GLattice:
    return GLattice(group, len(matrices[0]) if len(matrices) else 0, matrices)


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
    reps = coset_representatives(g, h)
    rep_index = {}
    for i, r in enumerate(reps):
        for k in h.elements:
            rep_index[g.mul(r, k)] = i
    r_a = a.rank
    stack = linalg.zeros(g.order, len(reps) * r_a, len(reps) * r_a)
    for x in g.elements():
        for i, r in enumerate(reps):
            xr = g.mul(x, r)
            j = rep_index[xr]
            k = g.mul(g.inv(reps[j]), xr)  # x . r_i = r_j . k with k in H
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
    basis = linalg.kernel_basis(linalg.vstack(rows))
    return basis, basis.shape[1]


def trace_character(m: GLattice) -> tuple[int, ...]:
    """chi(g) = trace of the matrix of g, indexed by group element."""
    return tuple(sum(mat.diagonal().tolist()) for mat in m.action)


def quotient_lattice(m: GLattice, sub_basis) -> tuple[GLattice, np.ndarray]:
    """Quotient by a G-stable saturated sublattice, with the projection matrix.

    ``sub_basis`` is a rank x s integer matrix whose columns form a basis of
    the sublattice.  Torsion quotients are refused (the sublattice must be
    saturated), as is any basis the group action does not preserve.
    """
    s = sub_basis if isinstance(sub_basis, np.ndarray) else linalg.intmat(
        sub_basis, shape=(m.rank, len(sub_basis[0]) if len(sub_basis) else 0))
    if s.shape[0] != m.rank:
        raise ValueError("sublattice basis lives in the wrong ambient rank")
    ncols = s.shape[1]
    if ncols:
        snf = linalg.smith_normal_form(s)
        if snf.rank != ncols:
            raise ValueError("sublattice basis columns are dependent")
        if any(d != 1 for d in snf.diagonal[:snf.rank]):
            raise ValueError("sublattice is not saturated; quotient would have torsion")
        s = linalg.hermite_column(s)  # canonical basis of the same sublattice
        gens = generating_set(m.group)  # stable under generators is stable
        if gens and linalg.solve(s, linalg.hstack(
                [linalg.mul(m.action[a], s) for a in gens])) is None:
            raise ValueError("sublattice is not stable under the group action")
    full = linalg.smith_normal_form(s, want_u=True, want_uinv=True)
    proj = full.u[ncols:, :]
    section = full.uinv[:, ncols:]
    return _lattice(m.group, np.matmul(np.matmul(proj, m.action), section)), proj


def conjugate(m: GLattice, u) -> GLattice:
    """Change of basis: the same lattice written on the columns of u."""
    u = u if isinstance(u, np.ndarray) else linalg.intmat(u)
    if abs(linalg.det(u)) != 1:
        raise ValueError("basis change must be unimodular")
    uinv = linalg.solve(u, linalg.eye(m.rank))
    return _lattice(m.group, np.matmul(np.matmul(uinv, m.action), u))


@dataclass(frozen=True, eq=False)
class GModulePresentation:
    """Finitely generated G-module: Z^n modulo the column span of ``relations``.

    ``relations`` is a read-only ``(n, k)`` array whose columns span the
    relation lattice, and ``action`` a read-only ``(|G|, n, n)`` stack of
    matrices on the generators, held, hashed and compared as for
    ``GLattice``.  The matrices must preserve the relation lattice, so they
    descend to the quotient.  As for ``GLattice``, the constructor checks the
    group law on ``generating_set`` only.
    """

    group: FiniteGroup
    generators: int
    relations: np.ndarray
    action: np.ndarray
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        g, n = self.group, self.generators
        if len(self.action) != g.order:
            raise ValueError("one action matrix per group element required")
        k = np.shape(self.relations)[-1] if n else 0
        relations = _read_only(self.relations, (n, k))
        action = _read_only(self.action, (g.order, n, n))
        _check_action(g, action, relations)
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
    return GModulePresentation(m.group, m.rank, modulus * linalg.eye(m.rank), m.action)


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
        rank = 0
        primary: dict[int, list[int]] = {}
        for d in divisors:
            d = abs(int(d))
            if d == 0:
                rank += 1
            elif d > 1:
                for p, e in _factorint(d).items():
                    primary.setdefault(p, []).append(e)
        chains = {p: sorted(v, reverse=True) for p, v in primary.items()}
        width = max((len(c) for c in chains.values()), default=0)
        factors = []
        for i in range(width):
            f = 1
            for p, chain in chains.items():
                if i < len(chain):
                    f *= p ** chain[i]
            factors.append(f)
        return cls(rank, tuple(sorted(factors)))

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
