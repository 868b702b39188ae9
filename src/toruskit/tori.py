"""Tori presented by their character lattices, tagged with a splitting datum.

A torus here is a G-lattice X (the characters over the splitting field)
together with either an abstract finite group or an arithmetic cyclotomic
datum describing how G arises as a Galois group.  The functor to lattices is
contravariant, so subtori/quotients swap sides; all the operations below are
pure lattice computations.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import linalg
from ._record import Record
from .cohomology import cohomology, tate_h0
from .errors import InternalInvariantError
from .groups import FiniteGroup, trivial_subgroup
from .lattices import (GLattice, _norm_one_lattice, direct_sum_all, dual, glattice,
                       regular_lattice, sign_lattice, trace_character, trivial_lattice)


def splitting_group(splitting) -> FiniteGroup:
    if isinstance(splitting, FiniteGroup):
        return splitting
    group = getattr(splitting, "group", None)
    if isinstance(group, FiniteGroup):
        return group
    raise TypeError("splitting must be a FiniteGroup or carry a .group")


class Torus(Record):
    _fields = ("splitting", "X", "kind")

    def __init__(self, splitting, X: GLattice, kind: str):
        if X.group != splitting_group(splitting):
            raise ValueError("character lattice group does not match the splitting datum")
        object.__setattr__(self, "splitting", splitting)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "kind", kind)

    @property
    def dim(self) -> int:
        return self.X.rank

    @property
    def group(self) -> FiniteGroup:
        return self.X.group

    def __repr__(self):
        return f"Torus({self.kind}, dim={self.dim}, G={self.group.label or self.group.order})"


class RealClassification(Record):
    """T(R) = (R^x)^a x (C^x)^b x (circle)^c."""

    _fields = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


class RankProfile(NamedTuple):
    dim: int
    split_rank: int
    anisotropic_rank: int


class LatticeMap(NamedTuple):
    source: GLattice
    target: GLattice
    matrix: tuple[tuple[int, ...], ...]  # target.rank x source.rank


def make_torus(splitting, kind: str, *, dim: int = 1,
               factors: Sequence[Torus] = (),
               matrices: Sequence[Sequence[Sequence[int]]] | None = None) -> Torus:
    """Construct a torus of the given kind over a splitting datum.

    Kinds: ``split`` (trivial action, rank ``dim``), ``res`` (regular
    lattice), ``norm_one`` (the regular lattice modulo the norm vector, on
    the images of e_1 ... e_(n-1), e_0 being minus their sum: column x - 1
    of X(a) is e_(ax), written straight off the group table with no Smith
    form), ``so2`` (rank-1 sign action, order-2 group only), ``product``
    (factors over the identical splitting), ``lattice`` (explicit matrices,
    one per group element).
    """
    group = splitting_group(splitting)
    if kind == "split":
        return Torus(splitting, trivial_lattice(group, dim), kind)
    if kind == "res":
        return Torus(splitting, regular_lattice(group), kind)
    if kind == "norm_one":
        return Torus(splitting, _norm_one_lattice(group), kind)
    if kind == "so2":
        if group.order != 2:
            raise ValueError("so2 needs a splitting group of order 2")
        return Torus(splitting, sign_lattice(group, trivial_subgroup(group)), kind)
    if kind == "product":
        if not factors:
            raise ValueError("product of tori needs at least one factor")
        for t in factors:
            if t.splitting != splitting:
                raise ValueError("product factors must live over the given splitting")
        return Torus(splitting, direct_sum_all([t.X for t in factors]), kind)
    if kind == "lattice":
        if matrices is None:
            raise ValueError("explicit torus needs one matrix per group element")
        return Torus(splitting, glattice(group, matrices), kind)
    raise ValueError(f"unknown torus kind {kind!r}")


def rank_profile(t: Torus) -> RankProfile:
    """Dimension, rank of the split part (rank X^G, the average of the trace
    character), rank of the anisotropic part.  A trace character that does
    not average to an integer raises ``InternalInvariantError``, as in
    ``cohomology``."""
    split_rank, rem = divmod(sum(trace_character(t.X)), t.group.order)
    if rem:
        raise InternalInvariantError("the trace character does not average to a rank")
    return RankProfile(t.dim, split_rank, t.dim - split_rank)


def classify_real(t: Torus) -> RealClassification:
    """The unique (a, b, c) with T(R) = (R^x)^a x (C^x)^b x S^c.

    Needs a splitting group of order 1 or 2.  ``a`` is the F2-dimension of
    the norm quotient (fixed vectors modulo norms), ``c`` that of H^1; both
    functors are additive and separate the three rank-1/2 building blocks.
    """
    group = t.group
    if group.order == 1:
        return RealClassification(t.dim, 0, 0)
    if group.order != 2:
        raise ValueError("real classification needs a splitting group of order <= 2")
    h0 = tate_h0(group, t.X)
    h1 = cohomology(group, t.X, 1)
    if any(d != 2 for d in h0.torsion) or any(d != 2 for d in h1.torsion):
        raise InternalInvariantError("involution invariants must be 2-torsion")
    a = len(h0.torsion)
    c = len(h1.torsion)
    if (t.dim - a - c) % 2:
        raise InternalInvariantError("parity failure in the real classification")
    b = (t.dim - a - c) // 2
    if b < 0:
        raise InternalInvariantError("negative swap multiplicity")
    return RealClassification(a, b, c)


def isogenous(t1: Torus, t2: Torus) -> bool:
    """True iff the rational character representations are isomorphic.

    Rational representations of a finite group are determined by their
    characters, so comparing traces decides isogeny exactly.
    """
    if t1.group != t2.group:
        raise ValueError("isogeny test requires a common splitting group")
    return trace_character(t1.X) == trace_character(t2.X)


def dual_torus(t: Torus) -> GLattice:
    """Cocharacter lattice: characters of the complex dual torus."""
    return dual(t.X)


def norm_character(t: Torus) -> LatticeMap:
    """The equivariant map Z -> Z[G] sending 1 to the sum of the basis.

    Only defined for a torus built as ``res``; its cokernel is the norm-one
    character lattice, so composing with that projection gives zero.
    """
    if t.kind != "res":
        raise ValueError("norm character is defined for res tori only")
    group = t.group
    source = trivial_lattice(group, 1)
    ones = ((1,),) * t.dim
    mat = linalg.intmat(ones)
    if linalg.stack_product(linalg.eye(t.dim), t.X.action, mat) != (mat,) * t.group.order:
        raise InternalInvariantError("norm vector is not invariant")
    return LatticeMap(source, t.X, ones)
