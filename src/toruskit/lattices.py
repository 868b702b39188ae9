"""G-modules: Z^n modulo a relation lattice, with a finite group acting.

``GModulePresentation`` is the one record: an ``(n, k)`` relation matrix and
a stack, the tuple of the ``n x n`` matrices of the group elements in element
order, all immutable ``linalg.Matrix`` sparse rows.  A ``GLattice`` is the
record with no relations (n x 0).  Both share one constructor, one hash
(computed on first use) and one type-strict equality, so they are cheap
``lru_cache`` keys.

Caller data (``GLattice(...)``, ``glattice``, explicit ``lattice`` tori,
``GModulePresentation(...)``) is read (``linalg.intmat``) and probed
(``_check_action``).  The package's own constructors build actions by
construction from validated inputs, check only their own arguments and derive
(``_derived``, unprobed): the lattices through ``_lattice``, plus
``presentation_mod`` and ``_regular_cover``.  The norm-one lattice Z[G] / Z N
of ``make_torus`` (``_norm_one_lattice``) is written off the group table on
the images of e_1 ... e_(n-1), with no Hermite form, Smith form or product:
it is the stack ``quotient_lattice`` reaches from the regular lattice, and
the tests hold the two equal.  Stacks are multiplied only by
``linalg.stack_product``: the stability test proj X(s) S and the proj X(a)
section of a quotient by a caller's sublattice, a Smith frame U X(a) U^-1
and the group law in that frame.
In ``tests/test_lattices.py``, ``test_derived_lattices_are_actions`` and
``test_presentation_mod_is_derived`` stand in for the probe on them.
A record's cached property ``_relation_complex`` reads its Smith frame as the
complex R -> Z^n whose cone the cohomology engine takes.  Functions written
for lattices raise ``TypeError`` on any other module.  ``FGAbelian`` carries
finitely generated abelian groups as invariant factors plus a free rank.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from . import linalg
from ._record import Record
from .errors import InternalInvariantError
from .groups import ORDER_LIMIT, FiniteGroup, FiniteGSet, Subgroup, coset_gset, generating_set
from .linalg import Matrix

Stack = tuple[Matrix, ...]


class GModulePresentation(Record):
    """Finitely generated G-module: Z^n modulo the column span of ``relations``.

    ``relations`` is an ``(n, k)`` matrix whose columns span the relation
    lattice, and ``action`` a stack, ``action[g]`` the ``n x n`` matrix of g
    on the generators (column vectors).  Caller data (matrices, nested lists
    or any arrays) is read once, through ``linalg.intmat``: a ``Matrix`` was
    checked when it was built and is taken as it is.  The hash is computed on
    first use, and equality compares type, group, relations and entries, so a
    record rebuilt from the same data hits every cache keyed on the first.

    The constructor checks (``_check_action``) that the matrices preserve the
    relation lattice and act on the quotient as a homomorphism sending the
    identity to the identity; with no relations this forces every matrix to
    be unimodular.  It puts the relations into Smith form once, and
    ``_frame`` keeps what it read off: the cohomology engine and the
    splitting enumerator reuse it.  ``generators`` is the size of the
    identity's matrix."""

    _fields = ("group", "relations", "action", "generators")

    def __init__(self, group: FiniteGroup, relations, action):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "action", action)
        self.__post_init__()

    def __post_init__(self):
        g = self.group
        if len(self.action) != g.order:
            raise ValueError("one action matrix per group element required")
        action = tuple(map(linalg.intmat, self.action))
        n = action[g.identity].shape[0]
        action = tuple(linalg.intmat(x, (n, n)) for x in action)
        relations = linalg.intmat(self.relations)
        relations = linalg.intmat(relations, (n, relations.shape[1] if n else 0))
        object.__setattr__(self, "_frame", _check_action(g, action, relations))
        object.__setattr__(self, "generators", n)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "action", action)

    @cached_property
    def _hash(self) -> int:
        return hash((self.group, self.relations, self.action))

    @cached_property
    def _relation_complex(self) -> tuple:
        """(M, B, A): the module as the lattice complex B: Z^r -> Z^n, read in
        the Smith frame U R V = diag(d) of ``_frame``.

        M(g) = U X(g) U^-1 acts on Z^n itself, B is diag(d) over n - r zero
        rows, and A(g) = diag(d)^-1 M(g)[:r, :r] diag(d) acts on Z^r.  With
        r = 0, a lattice or relations that span nothing, B is n x 0 and A(g)
        0 x 0.  An action that holds only modulo R is first rewritten
        (``_regular_cover``) so that the cone is a complex."""
        exact, d, frame = self._frame
        if not exact:
            return _regular_cover(self)._relation_complex
        r = len(d)
        return frame, linalg.diag(d, self.generators), [linalg._matrix((r, r), tuple(
            tuple((j, x * d[j] // d[i]) for j, x in row if j < r)
            for i, row in enumerate(m.rows[:r]))) for m in frame]

    def __eq__(self, other):
        return (type(other) is type(self) and self._hash == other._hash
                and self.group == other.group and self.action == other.action
                and self.relations == other.relations)

    def __hash__(self):
        return self._hash


class GLattice(GModulePresentation):
    """A rank-n free Z-module with ``group`` acting by unimodular matrices:
    ``GLattice(group, action)`` is the presented module whose ``relations``
    are an n x 0 matrix, and ``rank`` is ``generators``.  It never
    equals a ``GModulePresentation`` on the same entries.  The package's
    constructors derive lattices (``_lattice``) with the same hash and
    equality as the probed ones."""

    def __init__(self, group: FiniteGroup, action):
        super().__init__(group, (), action)  # no relations: read as n x 0

    # Restated, so that lattice construction has an entry of its own to wrap.
    __post_init__ = GModulePresentation.__post_init__

    @property
    def rank(self) -> int:
        return self.generators

    def matrix(self, g: int) -> Matrix:
        """The matrix of element g, read by ``linalg.integer``."""
        g = linalg.integer(g)
        if not 0 <= g < self.group.order:
            raise ValueError(f"no group element {g} in a group of order {self.group.order}")
        return self.action[g]

    @cached_property
    def _cycle_exponents(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each element g of order m, the pairs (e, c_e) with c_e != 0, e
        increasing, in det(x I - X(g)) = prod over e | m of (x^e - 1)^(c_e).

        X(g)^m = I and det(x I - X(g)) is rational, so X restricted to <g> is
        a virtual sum of c_e copies of Q[x]/(x^e - 1), on which g^d has trace
        e if e | d and 0 otherwise.  So chi(g^e) = sum over d | e of d c_d,
        which gives c_e from the trace character on <g> alone, for the
        divisors e of m in increasing order.  The division by e must be
        exact: a remainder raises."""
        chi, table, identity = trace_character(self), self.group.table, self.group.identity
        out = []
        for g in self.group.elements():
            values, power = [chi[identity]], g
            while power != identity:
                values.append(chi[power])
                power = table[power][g]
            m, c = len(values), {}
            for e in range(1, m + 1):
                if m % e == 0:
                    e_c_e = values[e % m] - sum(d * c[d] for d in c if e % d == 0)
                    c[e], rem = divmod(e_c_e, e)
                    if rem:
                        raise InternalInvariantError(
                            f"cycle exponents of element {g} left a remainder")
            out.append(tuple((e, k) for e, k in c.items() if k))
        return tuple(out)

    @cached_property
    def characteristic_polynomials(self) -> tuple[tuple[int, ...], ...]:
        """det(x I - X(g)) for every element g, coefficients from x^rank down: the
        (x^e - 1)^(c_e) of ``_cycle_exponents`` multiplied, c_e < 0 by exact division."""
        out = []
        for exponents in self._cycle_exponents:
            poly = [1]
            for e, c in exponents:
                for _ in range(c):  # c > 0: times x^e - 1
                    poly = [a - b for a, b in zip(poly + [0] * e, [0] * e + poly)]
            for e, c in exponents:
                for _ in range(-c):  # c < 0: q_k = poly_k + q_(k-e), the last e vanish
                    for k in range(e, len(poly)):
                        poly[k] += poly[k - e]
                    if any(poly[-e:]):
                        raise InternalInvariantError("division by x^e - 1 left a remainder")
                    del poly[-e:]
            out.append(tuple(poly))
        return tuple(out)

    def __repr__(self):
        return f"GLattice({self.group.label or self.group.order}, rank={self.rank})"


def _holds_exactly(group: FiniteGroup, stack: Stack) -> tuple[bool, bool]:
    """(X(e) = I, X(a s) = X(a) X(s) for all a and s in ``generating_set``),
    exactly.  Generators suffice, as every element is a word in them.  Both
    are tested on v = (1, b, b^2, ...): for c the largest entry, b = n c^2 +
    c + 1 exceeds every entry of X(a) X(s) - X(a s) and, unless X = 0, of
    X(e) - I, so by base-b digits no nonzero difference vanishes on v.

    Every X(a) w is summed in plain Python over the stack's sparse rows: a
    regular stack is 1/|G| nonzero, a norm-one quotient about 2/|G|."""
    n = stack[group.identity].shape[0]
    c = max((abs(x) for m in stack for _, _, x in m.items()), default=0)
    v = [(n * c * c + c + 1) ** i for i in range(n)]

    def times(w: list[int]) -> list[list[int]]:
        return [[sum(x * w[j] for j, x in row) for row in m.rows] for m in stack]
    images = times(v)
    return (images[group.identity] == v,
            all(times(images[s]) == [images[row[s]] for row in group.table]
                for s in generating_set(group)))


def _check_action(group: FiniteGroup, stack: Stack, rel: Matrix
                  ) -> tuple[bool, tuple[int, ...], Stack]:
    """Raise ``ValueError`` unless a -> stack[a] is an action on Z^n / span(rel).

    Returns the Smith frame (exact, d, M) of the quotient: ``exact`` says the
    action holds on Z^n itself, and U rel V = diag(d) with d_1 | ... | d_r
    nonzero puts Z^n / span(rel) into the coordinates Z/d_1 + ... + Z/d_r +
    Z^(n-r), where a acts by M(a) = U X(a) U^-1.  What holds on Z^n
    (``_holds_exactly``) holds modulo R, so identity and group law are tested
    in the frame only when they fail on Z^n: an entry (i, x) of a column
    lies in span(diag(d)) when i < r and d_i divides x."""
    identity, law = _holds_exactly(group, stack)
    if rel.shape[1] == 0:
        if not identity:
            raise ValueError("identity must act as the identity matrix")
        if not law:
            raise ValueError("action matrices do not respect the group law")
        return True, (), stack
    d, frame = _smith_frame(stack, rel)
    r, eye = len(d), linalg.eye(rel.shape[0])

    def spanned(entries) -> bool:
        return all(i < r and x % d[i] == 0 for i, x in entries)
    gens = generating_set(group)
    if not identity and not spanned(
            (i, x) for i, _, x in linalg.combine([(1, frame[group.identity]), (-1, eye)]).items()):
        raise ValueError("identity must act as the identity on the quotient")
    if not spanned((i, x * d[j]) for s in gens for i, j, x in frame[s].items() if j < r):
        raise ValueError("action does not preserve the relation lattice")
    if not law and not spanned(
            (i, x) for s in gens
            for m, row in zip(linalg.stack_product(eye, frame, frame[s]), group.table)
            for i, _, x in linalg.combine([(1, m), (-1, frame[row[s]])]).items()):
        raise ValueError("action does not respect the group law on the quotient")
    return identity and law, d, frame


def _smith_frame(stack: Stack, rel: Matrix) -> tuple[tuple[int, ...], Stack]:
    """(d, M): d_1 | ... | d_r, the nonzero diagonal of one Smith form U rel V,
    and the frame M(a) = U X(a) U^-1 of the stack X.  Like every product over
    a whole stack, it is one ``linalg.stack_product``."""
    snf = linalg.smith_normal_form(rel, want_u=True)
    return snf.diagonal[:snf.rank], linalg.stack_product(snf.u, stack, snf.uinv)


def _derived(cls, group: FiniteGroup, relations: Matrix, action: Stack,
             frame: tuple[bool, tuple[int, ...], Stack]):
    """A ``cls`` record on what ``__post_init__`` would set, which a
    constructor just built from validated inputs as an action by construction
    with the Smith frame ``frame``.

    The immutable matrices are shared.  The result equals, hashes like and
    shares every cache entry with the probed record built from the same
    nested lists; no probe runs."""
    record = object.__new__(cls)
    for name, value in (("group", group), ("relations", relations), ("action", action),
                        ("generators", relations.shape[0]), ("_frame", frame)):
        object.__setattr__(record, name, value)
    return record


def _lattice(group: FiniteGroup, stack: Stack) -> GLattice:
    """The derived lattice of a fresh stack that is an action by
    construction: no relations, and the stack is its own frame."""
    return _derived(GLattice, group, linalg.zeros(stack[0].shape[0], 0), stack, (True, (), stack))


def _blocks(m: GLattice) -> tuple[GLattice, ...]:
    """M as the direct sum of the blocks of its generators' support, each
    derived (``_lattice``) on its basis vectors in order, the blocks ordered
    by their first vector; M itself when there is one block.

    A union-find over the nonzeros of X(s) for s in ``generating_set``: when
    every X(s) is block-diagonal on a partition of the basis, so is every
    X(g), a product of them, and M is the sum of the blocks as G-lattices.
    Blocks may interleave."""
    parent = list(range(m.rank))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i
    for s in generating_set(m.group):
        for i, j, _ in m.action[s].items():
            parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(m.rank):
        blocks.setdefault(find(i), []).append(i)
    if len(blocks) < 2:
        return (m,)
    out = []
    for block in blocks.values():
        k = len(block)
        if block[-1] == k - 1:  # the first k vectors: their rows are shared as they are
            out.append(_lattice(m.group, tuple(linalg._matrix((k, k), x_a.rows[:k])
                                               for x_a in m.action)))
            continue
        at, moved = {i: x for x, i in enumerate(block)}, {}  # each moved pair made once
        out.append(_lattice(m.group, tuple(linalg._matrix((k, k), tuple(
            tuple(moved.get(p) or moved.setdefault(p, (at[p[0]], p[1])) for p in x_a.rows[i])
            for i in block)) for x_a in m.action)))
    return tuple(out)


def glattice(group: FiniteGroup, matrices: Sequence[Sequence[Sequence[int]]]) -> GLattice:
    return GLattice(group, matrices)


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    rank = linalg.bounded(rank, 0, ORDER_LIMIT, "lattice rank")
    return _lattice(group, (linalg.eye(rank),) * group.order)


def sign_lattice(group: FiniteGroup, kernel: Subgroup) -> GLattice:
    """Rank-1 lattice where elements of ``kernel`` fix and the rest negate."""
    if kernel.parent != group:
        raise ValueError("kernel must be a subgroup of the acting group")
    if kernel.index != 2:
        raise ValueError("sign lattice needs an index-2 subgroup as kernel")
    return _lattice(group, tuple(linalg.diag((1 if g in kernel.elements else -1,))
                                 for g in group.elements()))


def _permutation(group: FiniteGroup, images: Sequence[Sequence[int]]) -> GLattice:
    """a sends basis vector x to basis vector images[a][x]: row y of X(a) has
    its 1 at the x sent to y, placed by the inverse permutation; rows are shared."""
    n = len(images[group.identity])
    units, stack = [((x, 1),) for x in range(n)], []
    for row in images:
        sent = [0] * n
        for x, y in enumerate(row):
            sent[y] = units[x]
        stack.append(linalg._matrix((n, n), tuple(sent)))
    return _lattice(group, tuple(stack))


def permutation_lattice(gset: FiniteGSet) -> GLattice:
    return _permutation(gset.group, gset.action)


def regular_lattice(group: FiniteGroup) -> GLattice:
    """Z[G] on the basis of group elements in canonical order."""
    return _permutation(group, group.table)


def _norm_one_lattice(group: FiniteGroup) -> GLattice:
    """Z[G] / Z N, N the sum of the elements, written off the group table on
    the images of e_1 ... e_(n-1): the stack ``quotient_lattice(regular,
    norm_vector(regular))`` computes, entry for entry.

    The image of e_0 is minus the sum of the others, so row r - 1 of X(a) is
    +1 at column a^-1 r - 1 unless a^-1 r = 0, and -1 at column a^-1 0 - 1
    unless a is the identity, whose matrix is I.  The pairs are made once
    and shared across the stack."""
    n, table = group.order - 1, group.table
    # plus[x] and minus[x]: the +1 and the -1 in element x's column, x - 1
    plus, minus = [None] + [(j, 1) for j in range(n)], [None] + [(j, -1) for j in range(n)]
    stack = []
    for b in group.inverse:  # b = a^-1, so table[b][r] = a^-1 r
        images = table[b]
        c = images[0]
        if not c:  # a is the identity
            stack.append(linalg._matrix((n, n), tuple((p,) for p in plus[1:])))
            continue
        m = minus[c]
        stack.append(linalg._matrix((n, n), tuple(
            (m,) if not x else (plus[x], m) if x < c else (m, plus[x])
            for x in images[1:])))
    return _lattice(group, tuple(stack))


def _require_lattice(m) -> None:
    # Read as a lattice, a presented module would lose its relations.
    if not isinstance(m, GLattice):
        raise TypeError(f"expected a GLattice, got {type(m).__name__}")


def induce(h: Subgroup, a: GLattice) -> GLattice:
    """Induction from a subgroup: block-permute cosets, twist by the H-action.

    ``a`` must be a lattice over ``h.as_group()``; the result has rank
    [G:H] * rank(a) on the basis (coset representative, basis vector of a).
    """
    _require_lattice(a)
    g = h.parent
    if a.group != h.as_group():
        raise ValueError("lattice is not over the given subgroup")
    linalg.bounded(h.index * a.rank, 0, ORDER_LIMIT, "lattice rank")
    cosets = coset_gset(g, h).action
    # Cosets are ordered by least representative, so r_0 is element 0, x r_0
    # lies in coset cosets[x][0], and r_j is the least such product in coset j.
    reps = [g.order] * len(cosets[0])
    for x in g.elements():
        j = cosets[x][0]
        reps[j] = min(reps[j], g.mul(x, 0))
    r_a, n = a.rank, len(reps) * a.rank
    stack = []
    for x in g.elements():
        rows: list[dict[int, int]] = [{} for _ in range(n)]
        for i, j in enumerate(cosets[x]):
            k = g.mul(g.inv(reps[j]), g.mul(x, reps[i]))  # x r_i = r_j k with k in H
            linalg._add_block(rows, j * r_a, i * r_a, 1, a.action[h.position(k)])
        stack.append(linalg._from_rows((n, n), rows))
    return _lattice(g, tuple(stack))


def restrict(m: GLattice, h: Subgroup) -> GLattice:
    _require_lattice(m)
    if h.parent != m.group:
        raise ValueError("subgroup does not belong to the lattice's group")
    return _lattice(h.as_group(), tuple(m.action[a] for a in h.elements))


def dual(m: GLattice) -> GLattice:
    """Contragredient lattice: g acts by the transpose of the g^-1 matrix."""
    _require_lattice(m)
    g = m.group
    return _lattice(g, tuple(m.action[a].T for a in g.inverse))


def direct_sum(m1: GLattice, m2: GLattice) -> GLattice:
    return direct_sum_all([m1, m2])


def direct_sum_all(lattices: Sequence[GLattice]) -> GLattice:
    """One block-diagonal stack, the summands in order down the diagonal."""
    if not lattices:
        raise ValueError("empty direct sum")
    for m in lattices:
        _require_lattice(m)
    group = lattices[0].group
    if any(m.group != group for m in lattices):
        raise ValueError("direct sum requires lattices over the same group")
    at = [sum(m.rank for m in lattices[:k]) for k in range(len(lattices) + 1)]
    linalg.bounded(at[-1], 0, ORDER_LIMIT, "lattice rank")
    return _lattice(group, tuple(linalg._matrix((at[-1], at[-1]), tuple(
        tuple((j + at[k], x) for j, x in row)
        for k, m in enumerate(lattices) for row in m.action[a].rows))
        for a in group.elements()))


def norm_operator(m: GLattice) -> Matrix:
    """The averaging operator N = sum over g of action(g)."""
    _require_lattice(m)
    return linalg.combine((1, x) for x in m.action)


def norm_vector(m: GLattice) -> Matrix:
    """N e_1, the sum of the first columns of the stack, as a column."""
    _require_lattice(m)
    column = [0] * m.rank
    for x in m.action:
        for i, row in enumerate(x.rows):
            if row and row[0][0] == 0:  # column 0 can only be a row's first pair
                column[i] += row[0][1]
    return linalg._matrix((m.rank, 1), tuple(((0, x),) if x else () for x in column))


def invariants(m: GLattice) -> tuple[Matrix, int]:
    """Hermite basis of the fixed sublattice M^G (saturated) and its rank.

    A vector fixed by a generating set is fixed by the whole group.
    """
    _require_lattice(m)
    gens, eye = generating_set(m.group), linalg.eye(m.rank)
    rows = [linalg.combine([(1, m.action[s]), (-1, eye)]).rows for s in gens]
    basis = linalg.kernel_basis(linalg._matrix((len(gens) * m.rank, m.rank), sum(rows, ())))
    return basis, basis.shape[1]


def trace_character(m: GLattice) -> tuple[int, ...]:
    """chi(g) = trace of the matrix of g, indexed by group element."""
    _require_lattice(m)
    return tuple(map(linalg.trace, m.action))


def quotient_lattice(m: GLattice, sub_basis) -> tuple[GLattice, Matrix]:
    """Quotient by a G-stable saturated sublattice, with the projection matrix.

    ``sub_basis`` is a rank x s integer matrix whose columns form a basis of
    the sublattice.  Torsion quotients are refused (the sublattice must be
    saturated), as is any basis the group action does not preserve.  All of
    it is read off one Smith form U S V = D of the Hermite basis S: with D = 1
    the last rows of U vanish exactly on the sublattice, and they are the
    projection; the matching columns of U^-1 are a section of it.  Both the
    stability test proj X(s) S on the generators s and the quotient's stack
    proj X(a) section are one ``linalg.stack_product``: the projection of a
    norm vector has two nonzeros per row and its section one per column.
    """
    _require_lattice(m)
    s = linalg.intmat(sub_basis)
    if s.shape[0] != m.rank:
        raise ValueError("sublattice basis lives in the wrong ambient rank")
    ncols = s.shape[1]
    s = linalg.hermite_column(s)  # canonical basis of the same sublattice
    if s.shape[1] < ncols:
        raise ValueError("sublattice basis columns are dependent")
    full = linalg.smith_normal_form(s, want_u=True)
    if any(d != 1 for d in full.diagonal):
        raise ValueError("sublattice is not saturated; quotient would have torsion")
    proj = full.u.take(rows=range(ncols, m.rank))
    gens = [m.action[a] for a in generating_set(m.group)]  # stable under these is stable
    if not all(map(linalg.is_zero, linalg.stack_product(proj, gens, s))):
        raise ValueError("sublattice is not stable under the group action")
    section = full.uinv.take(cols=range(ncols, m.rank))
    quotient = linalg.stack_product(proj, m.action, section)
    return _lattice(m.group, quotient), proj



def presentation_mod(m: GLattice, modulus: int) -> GModulePresentation:
    """The finite module M / modulus*M with the inherited action, derived on
    the shared stack with the Smith frame (True, (modulus,) * rank, stack).

    The modulus is read as an integer: ``bool``, ``float`` and ``Fraction``
    raise ``TypeError``."""
    modulus = linalg.bounded(modulus, 1, None, "modulus")
    return _derived(GModulePresentation, m.group, linalg.diag((modulus,) * m.rank),
                    m.action, (True, (modulus,) * m.rank, m.action))


def _regular_cover(module: GModulePresentation) -> GModulePresentation:
    """The module as Z[G]^n / K, Z[G] acting regularly and K the kernel of
    e_(g,i) -> X(g) e_i, spanned by R and e_(g,i) - X(g) e_i in the identity's
    block.  Derived: the regular action holds on Z[G]^n, and K is G-stable as
    the module's constructor checked its action modulo R."""
    group, rel, n = module.group, module.relations, module.generators
    order, ident = group.order, group.identity
    regular = _permutation(group, [[b * n + i for b in row for i in range(n)]
                                   for row in group.table]).action
    # [I | 0] less [X(0) ... X(|G| - 1) | -R] in the identity's block of rows
    kernel = [{y: 1} for y in range(n * order)]
    for g, x in enumerate(module.action):
        linalg._add_block(kernel, ident * n, g * n, -1, x)
    linalg._add_block(kernel, ident * n, n * order, 1, rel)
    kernel = linalg._from_rows((n * order, n * order + rel.shape[1]), kernel)
    d, frame = _smith_frame(regular, kernel)
    return _derived(GModulePresentation, group, kernel, regular, (True, d, frame))


class FGAbelian(Record):
    """Finitely generated abelian group: free rank plus invariant factors,
    read as integers (``linalg.integer``; a ``bool`` or ``float`` raises
    ``TypeError``) and kept as a tuple of ints.

    >>> str(FGAbelian.from_divisors([0, 4, 6]))
    'Z x C2 x C12'
    """

    _fields = ("free_rank", "torsion")  # torsion: d1 | d2 | ..., each >= 2

    def __init__(self, free_rank: int, torsion: Iterable[int]):
        object.__setattr__(self, "free_rank", linalg.integer(free_rank))
        object.__setattr__(self, "torsion", tuple(map(linalg.integer, torsion)))
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
        orders = [abs(linalg.integer(d)) for d in divisors]
        return cls(orders.count(0), linalg.invariant_factors(linalg.diag([d for d in orders if d])))

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
