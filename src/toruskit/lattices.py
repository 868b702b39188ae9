"""G-lattices: free Z-modules with a finite group acting by unimodular matrices.

Constructors cover the lattices the rest of the package needs (trivial, sign,
regular, permutation, induced, duals, sums, quotients), and ``FGAbelian``
carries finitely generated abelian groups as invariant factors plus a free
rank.  All normal-form work is delegated to :mod:`toruskit.linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .groups import (FiniteGroup, FiniteGSet, Subgroup, coset_representatives,
                     generating_set)

Matrix = tuple[tuple[int, ...], ...]


def _freeze(a: np.ndarray) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in a.tolist())


def _thaw(m: Matrix, rank: int) -> np.ndarray:
    return linalg.intmat(m, shape=(rank, rank))


@dataclass(frozen=True)
class GLattice:
    """A rank-n free Z-module with ``group`` acting through integer matrices.

    ``action[g]`` is the matrix of g on column vectors; the constructor checks
    that the assignment is a homomorphism sending the identity to the identity
    matrix (which forces every matrix to be unimodular).  Like every group-law
    check in the package, it reads only a generating set: X(a s) = X(a) X(s)
    for every a and every s in ``generating_set`` suffices, because every
    element is a word in the generators, so X(ab) = X(a) X(b) follows by
    induction on the length of b.
    """

    group: FiniteGroup
    rank: int
    action: tuple[Matrix, ...]

    def __post_init__(self):
        g = self.group
        if len(self.action) != g.order:
            raise ValueError("one action matrix per group element required")
        _check_action(g, [_thaw(m, self.rank) for m in self.action])

    def matrix(self, g: int) -> np.ndarray:
        return _np_action(self)[g].copy()

    def __repr__(self):
        return f"GLattice({self.group.label or self.group.order}, rank={self.rank})"


def _check_action(group: FiniteGroup, mats: Sequence[np.ndarray],
                  rel: np.ndarray | None = None) -> None:
    """Raise ``ValueError`` unless a -> mats[a] is an action on Z^n / span(rel).

    The group law is checked as X(a s) = X(a) X(s) for s in ``generating_set``
    only.  Without relations matrices are compared exactly, stopping at the
    first mismatch.  With relations each property (identity, relation lattice
    preserved, group law) is one solve over the stacked differences: X(a)
    then preserves span(rel) for every a, by the same induction.
    """
    gens = generating_set(group)
    ident = mats[group.identity] - linalg.eye(mats[group.identity].shape[0])
    laws = (linalg.mul(mats[a], mats[s]) - mats[group.mul(a, s)]
            for s in gens for a in group.elements())
    if rel is None or rel.shape[1] == 0:
        if not linalg.is_zero(ident):
            raise ValueError("identity must act as the identity matrix")
        if not all(linalg.is_zero(diff) for diff in laws):
            raise ValueError("action matrices do not respect the group law")
        return
    if linalg.solve(rel, ident) is None:
        raise ValueError("identity must act as the identity on the quotient")
    if gens and linalg.solve(rel, linalg.hstack(
            [linalg.mul(mats[s], rel) for s in gens])) is None:
        raise ValueError("action does not preserve the relation lattice")
    if gens and linalg.solve(rel, linalg.hstack(list(laws))) is None:
        raise ValueError("action does not respect the group law on the quotient")


@lru_cache(maxsize=None)
def _np_action(m: GLattice) -> tuple[np.ndarray, ...]:
    # Cached object-dtype copies, read-only so no caller can corrupt them.
    mats = tuple(_thaw(a, m.rank) for a in m.action)
    for a in mats:
        a.flags.writeable = False
    return mats


def glattice(group: FiniteGroup, matrices: Sequence[Sequence[Sequence[int]]]) -> GLattice:
    mats = [linalg.intmat(m) if not isinstance(m, np.ndarray) else m for m in matrices]
    rank = mats[0].shape[0] if mats else 0
    return GLattice(group, rank, tuple(_freeze(m) for m in mats))


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    ident = _freeze(linalg.eye(rank))
    return GLattice(group, rank, tuple(ident for _ in group.elements()))


def sign_lattice(group: FiniteGroup, kernel: Subgroup) -> GLattice:
    """Rank-1 lattice where elements of ``kernel`` fix and the rest negate."""
    if kernel.parent != group:
        raise ValueError("kernel must be a subgroup of the acting group")
    if kernel.index != 2:
        raise ValueError("sign lattice needs an index-2 subgroup as kernel")
    mats = tuple(((1,),) if g in kernel.elements else ((-1,),) for g in group.elements())
    return GLattice(group, 1, mats)


def permutation_lattice(gset: FiniteGSet) -> GLattice:
    g = gset.group
    mats = []
    for a in g.elements():
        m = linalg.zeros(gset.size, gset.size)
        for x in range(gset.size):
            m[gset.action[a][x], x] = 1
        mats.append(_freeze(m))
    return GLattice(g, gset.size, tuple(mats))


def regular_lattice(group: FiniteGroup) -> GLattice:
    """Z[G] on the basis of group elements in canonical order."""
    mats = []
    for a in group.elements():
        m = linalg.zeros(group.order, group.order)
        for b in group.elements():
            m[group.mul(a, b), b] = 1
        mats.append(_freeze(m))
    return GLattice(group, group.order, tuple(mats))


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
    amats = _np_action(a)
    mats = []
    for x in g.elements():
        m = linalg.zeros(len(reps) * r_a, len(reps) * r_a)
        for i, r in enumerate(reps):
            xr = g.mul(x, r)
            j = rep_index[xr]
            k = g.mul(g.inv(reps[j]), xr)  # x . r_i = r_j . k with k in H
            block = amats[h.position(k)]
            m[j * r_a:(j + 1) * r_a, i * r_a:(i + 1) * r_a] = block
        mats.append(_freeze(m))
    return GLattice(g, len(reps) * r_a, tuple(mats))


def restrict(m: GLattice, h: Subgroup) -> GLattice:
    if h.parent != m.group:
        raise ValueError("subgroup does not belong to the lattice's group")
    return GLattice(h.as_group(), m.rank, tuple(m.action[x] for x in h.elements))


def dual(m: GLattice) -> GLattice:
    """Contragredient lattice: g acts by the transpose of the g^-1 matrix."""
    g = m.group
    mats = tuple(_freeze(_np_action(m)[g.inv(a)].T) for a in g.elements())
    return GLattice(g, m.rank, mats)


def direct_sum(m1: GLattice, m2: GLattice) -> GLattice:
    if m1.group != m2.group:
        raise ValueError("direct sum requires lattices over the same group")
    r1, r2 = m1.rank, m2.rank
    mats = []
    for a in m1.group.elements():
        m = linalg.zeros(r1 + r2, r1 + r2)
        m[:r1, :r1] = _np_action(m1)[a]
        m[r1:, r1:] = _np_action(m2)[a]
        mats.append(_freeze(m))
    return GLattice(m1.group, r1 + r2, tuple(mats))


def direct_sum_all(lattices: Sequence[GLattice]) -> GLattice:
    if not lattices:
        raise ValueError("empty direct sum")
    out = lattices[0]
    for m in lattices[1:]:
        out = direct_sum(out, m)
    return out


def norm_operator(m: GLattice) -> np.ndarray:
    """The averaging operator N = sum over g of action(g)."""
    out = linalg.zeros(m.rank, m.rank)
    for a in m.group.elements():
        out += _np_action(m)[a]
    return out


def norm_vector(m: GLattice) -> np.ndarray:
    """Image of the first basis vector under the norm operator, as a column."""
    return norm_operator(m)[:, :1]


def invariants(m: GLattice) -> tuple[np.ndarray, int]:
    """Hermite basis of the fixed sublattice M^G (saturated) and its rank.

    A vector fixed by a generating set is fixed by the whole group.
    """
    rows = [_np_action(m)[s] - linalg.eye(m.rank) for s in generating_set(m.group)]
    if not rows:
        basis = linalg.eye(m.rank)
        return basis, m.rank
    stacked = linalg.vstack(rows)
    basis = linalg.kernel_basis(stacked)
    return basis, basis.shape[1]


def trace_character(m: GLattice) -> tuple[int, ...]:
    """chi(g) = trace of the matrix of g, indexed by group element."""
    return tuple(int(sum(_np_action(m)[a][i, i] for i in range(m.rank)))
                 for a in m.group.elements())


def quotient_lattice(m: GLattice, sub_basis) -> tuple[GLattice, Matrix]:
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
                [linalg.mul(_np_action(m)[a], s) for a in gens])) is None:
            raise ValueError("sublattice is not stable under the group action")
    full = linalg.smith_normal_form(s, want_u=True, want_uinv=True)
    proj = full.u[ncols:, :]
    section = full.uinv[:, ncols:]
    mats = tuple(_freeze(linalg.mul(proj, linalg.mul(_np_action(m)[a], section)))
                 for a in m.group.elements())
    quot = GLattice(m.group, m.rank - ncols, mats)
    return quot, _freeze(proj)


def conjugate(m: GLattice, u) -> GLattice:
    """Change of basis: the same lattice written on the columns of u."""
    u = u if isinstance(u, np.ndarray) else linalg.intmat(u)
    if abs(linalg.det(u)) != 1:
        raise ValueError("basis change must be unimodular")
    uinv = linalg.solve(u, linalg.eye(m.rank))
    mats = tuple(_freeze(linalg.mul(uinv, linalg.mul(_np_action(m)[a], u)))
                 for a in m.group.elements())
    return GLattice(m.group, m.rank, mats)


@dataclass(frozen=True)
class GModulePresentation:
    """Finitely generated G-module: Z^n modulo the column span of ``relations``.

    The action matrices act on the generators and must preserve the relation
    lattice, so they descend to the quotient.  As for ``GLattice``, the
    constructor checks the group law on ``generating_set`` only.
    """

    group: FiniteGroup
    generators: int
    relations: Matrix  # generators x k, columns span the relation lattice
    action: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.action) != self.group.order:
            raise ValueError("one action matrix per group element required")
        _check_action(self.group, [_thaw(m, self.generators) for m in self.action],
                      self.relations_matrix())

    def relations_matrix(self) -> np.ndarray:
        k = len(self.relations[0]) if self.relations else 0
        return linalg.intmat(self.relations, shape=(self.generators, k))

    def action_matrix(self, g: int) -> np.ndarray:
        return _thaw(self.action[g], self.generators)


def presentation_mod(m: GLattice, modulus: int) -> GModulePresentation:
    """The finite module M / modulus*M with the inherited action."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    rel = _freeze(modulus * linalg.eye(m.rank))
    return GModulePresentation(m.group, m.rank, rel, m.action)


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


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
