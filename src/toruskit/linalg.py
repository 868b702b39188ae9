"""Exact linear algebra over the integers.

Every matrix is a ``Matrix``: an immutable shape plus, per row, the (column,
entry) pairs of its nonzero Python ints, so nothing rounds or overflows and
only nonzero entries cost work; a stack is a tuple of them, one per group
element.  One rule reads caller data: a matrix is checked once, when it is
built.  ``Matrix(shape, rows)`` checks sparse rows, and ``intmat`` reads
dense data (nested lists, any array); both read each entry through
``integer``.  So every ``Matrix`` is valid, and ``intmat`` passes one
through.  Only the package builds matrices unchecked, through ``_matrix``,
on rows it made valid itself.  The workhorse is a Smith normal form with
optional unimodular transforms: one elimination on sparse rows that takes
+-1 pivots in one sweep over the columns, sparsest first, then entries of
least absolute value; it keeps the divisibility chain at every pivot and
serves plain and transform requests alike.  Invariant factors, kernels and
integer solves are derived from it.  A matrix whose nonzero invariant
factors all divide 2^(e-1), as a coboundary matrix does when 2^(e-1) kills
the cohomology it presents, may instead go to ``_two_adic_smith_form``:
packed into columns mod 2^e, one int each, it is eliminated over Z/2^e,
where that Smith form is exact.  A column-style
Hermite form puts lattice bases into a canonical shape; ``stack_product``
multiplies a stack by a matrix on either side, each output row in one pass.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Optional, Sequence

from ._record import Record
from .errors import UnsupportedRequestError

_entry = operator.itemgetter(1)
_set = object.__setattr__  # looked up once: every product builds Matrix records


def integer(x) -> int:
    if isinstance(x, bool):  # operator.index would read JSON true as 1
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


def bounded(x, floor: int, limit: Optional[int], what: str, *, plural: bool = False) -> int:
    """The count ``x``, read by ``integer``: below ``floor`` it is malformed
    (``ValueError``), above a ``limit`` it is outside what toruskit computes
    (``UnsupportedRequestError``).  Every count the package takes is read here."""
    x = integer(x)
    if x < floor:
        raise ValueError(f"{what} must be at least {floor}, got {x}")
    if limit is not None and x > limit:
        raise UnsupportedRequestError(
            f"{what} {'are' if plural else 'is'} bounded by {limit}, got {x}")
    return x


def integers(xs) -> tuple[int, ...]:
    """The entries of ``xs`` read by ``integer``, as a tuple; an int is taken as it is."""
    return tuple([x if type(x) is int else integer(x) for x in xs])


class Matrix(Record):
    """An immutable m x n integer matrix: ``rows[i]`` holds the (column,
    entry) pairs of row i's nonzero entries, columns increasing.  Equality
    and the hash see the shape and the rows.

    The constructor checks a caller's matrix: ``shape`` is two non-negative
    ints, and there is one row per row index, whose columns are ints
    increasing inside [0, n) and whose entries are nonzero.  Columns and
    entries are read through ``integer`` (a ``bool``, ``float`` or
    ``Fraction`` raises ``TypeError``, a numpy int becomes an int); any other
    violation raises ``ValueError``.  It stores the tuples it built, not the
    caller's objects."""

    _fields = ("shape", "rows")

    def __init__(self, shape: tuple[int, int], rows: tuple[tuple[tuple[int, int], ...], ...]):
        shape = tuple(map(integer, shape))
        if len(shape) != 2 or min(shape) < 0:
            raise ValueError(f"a matrix shape is two non-negative ints, got {shape}")
        rows = tuple(tuple((integer(j), integer(x)) for j, x in row) for row in rows)
        if len(rows) != shape[0]:
            raise ValueError(f"{len(rows)} rows for a matrix of shape {shape}")
        for row in rows:
            cols = [-1] + [j for j, _ in row] + [shape[1]]
            if any(a >= b for a, b in zip(cols, cols[1:])):
                raise ValueError(f"row columns must increase inside [0, {shape[1]}), got {row}")
            if not all(x for _, x in row):
                raise ValueError(f"a row lists a zero entry: {row}")
        _set(self, "shape", shape)
        _set(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.shape, self.rows) == (other.shape, other.rows)
        return NotImplemented

    def __hash__(self):
        return hash((self.shape, self.rows))

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def T(self) -> Matrix:
        cols: list[list] = [[] for _ in range(self.shape[1])]
        for i, j, x in self.items():
            cols[j].append((i, x))
        return _matrix(self.shape[::-1], tuple(map(tuple, cols)))

    def items(self) -> Iterable[tuple[int, int, int]]:  # (i, j, entry) where nonzero
        return ((i, j, x) for i, row in enumerate(self.rows) for j, x in row)

    def tolist(self) -> list[list[int]]:
        out = [[0] * self.shape[1] for _ in self.rows]
        for i, j, x in self.items():
            out[i][j] = x
        return out

    def _entries(self) -> list[int]:  # the nonzero entries, and a 0 if any
        xs = [x for _, _, x in self.items()]
        return xs + [0] * (len(xs) < self.size)

    def max(self) -> int:
        return max(self._entries())

    def min(self) -> int:
        return min(self._entries())

    def take(self, rows: Iterable[int] | None = None,
             cols: Iterable[int] | None = None) -> Matrix:
        """The submatrix on ``rows`` and ``cols`` (all when None), in their order."""
        picked = self.rows if rows is None else tuple(self.rows[i] for i in rows)
        at = {j: k for k, j in enumerate(range(self.shape[1]) if cols is None else cols)}
        return _matrix((len(picked), len(at)), tuple(
            tuple(sorted((at[j], x) for j, x in row if j in at)) for row in picked))


def _matrix(shape: tuple[int, int], rows: tuple[tuple[tuple[int, int], ...], ...]) -> Matrix:
    """The ``Matrix`` on rows the package built valid, unchecked: checking
    every internal product too took the median cold tau query of
    ``perfbench`` (``cold_tamagawa``) from 1.9 to 3.3 ms."""
    a = object.__new__(Matrix)
    _set(a, "shape", shape)
    _set(a, "rows", rows)
    return a


def _from_rows(shape: tuple[int, int], rows: Iterable[dict[int, int]]) -> Matrix:
    """The matrix whose rows are the sparse vectors {column: entry} of ints."""
    return _matrix(shape, tuple([tuple(sorted(filter(_entry, row.items()))) for row in rows]))


def intmat(data, shape: tuple[int, int] | None = None) -> Matrix:
    """``data`` as a ``Matrix``: a Matrix as it is, since its constructor
    checked it, anything else (nested lists, any array) read row by row, each
    entry through ``integer``.  ``shape`` is required when ``data`` cannot
    determine it (no rows, or rows of length zero); a mismatch raises
    ``ValueError``."""
    if type(data) is not Matrix:
        lists = data.tolist() if hasattr(data, "tolist") else data
        rows = [integers(row) for row in lists]
        n = len(rows[0]) if rows else getattr(data, "shape", (0,))[-1]  # an array's width
        if any(len(row) != n for row in rows):
            raise ValueError("matrix rows differ in length")
        data = _matrix((len(rows), n), tuple(
            tuple((j, x) for j, x in enumerate(row) if x) for row in rows))
    if shape is None or data.shape == tuple(shape):
        return data
    if data.size or 0 not in shape:
        raise ValueError(f"data of shape {data.shape} does not match requested {tuple(shape)}")
    return zeros(*shape)


def zeros(m: int, n: int) -> Matrix:
    """The m x n zero matrix; m and n are read through ``integer``."""
    m, n = integer(m), integer(n)
    if m < 0 or n < 0:
        raise ValueError(f"a matrix shape is two non-negative ints, got {(m, n)}")
    return _matrix((m, n), ((),) * m)


def diag(entries: Sequence[int], m: int | None = None) -> Matrix:
    """The m x len(entries) matrix, m = len(entries) unless given and never
    less, with ``entries``, read through ``integer``, down its diagonal."""
    entries = list(map(integer, entries))
    n = len(entries)
    m = n if m is None else integer(m)
    if m < n:
        raise ValueError(f"a diagonal of {n} entries needs at least {n} rows, got {m}")
    return _matrix((m, n), tuple(((i, x),) if x else () for i, x in enumerate(entries))
                   + ((),) * (m - n))


def eye(n: int) -> Matrix:
    return diag((1,) * n)


def mul(a, b) -> Matrix:
    """Exact matrix product: row i of a b sums the rows of b that row i of a selects."""
    a, b = intmat(a), intmat(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    rows = []
    for row in a.rows:
        out: dict[int, int] = {}
        for l, y in row:
            for j, z in b.rows[l]:
                out[j] = out.get(j, 0) + y * z
        rows.append(out)
    return _from_rows((a.shape[0], b.shape[1]), rows)


def _add_block(rows: list[dict[int, int]], i: int, j: int, c: int, a: Matrix) -> None:
    """Add c a to the sparse rows {column: entry} with a's (0, 0) at (i, j)."""
    for out, row in zip(rows[i:i + a.shape[0]], a.rows):
        for k, x in row:
            k += j
            out[k] = out.get(k, 0) + c * x


def combine(terms: Iterable[tuple[int, Matrix]]) -> Matrix:
    """The sum of c a over the pairs (c, a) of ``terms``, at least one, all
    matrices of one shape; each c is read through ``integer``."""
    terms = [(integer(c), intmat(a)) for c, a in terms]
    shape = terms[0][1].shape
    rows: list[dict[int, int]] = [{} for _ in range(shape[0])]
    for c, a in terms:
        if a.shape != shape:
            raise ValueError(f"shape mismatch {shape} + {a.shape}")
        _add_block(rows, 0, 0, c, a)
    return _from_rows(shape, rows)


def stack_product(left, stack: Sequence[Matrix], right) -> tuple[Matrix, ...]:
    """left @ X @ right for every matrix X of ``stack``, over nonzero entries,
    one pass per output row: row i of left @ X is merged first, so each row of
    ``right`` (dense for a Smith frame's U^-1) is read at most once per row."""
    left, right = intmat(left), intmat(right)
    out = []
    for x in map(intmat, stack):
        if (left.shape[1], right.shape[0]) != x.shape:
            raise ValueError(f"shape mismatch {left.shape} @ {x.shape} @ {right.shape}")
        rows = []
        for row in left.rows:
            mid: dict[int, int] = {}
            for l, y in row:
                for k, z in x.rows[l]:
                    mid[k] = mid.get(k, 0) + y * z
            end: dict[int, int] = {}
            for k, y in mid.items():
                for j, z in right.rows[k] if y else ():
                    end[j] = end.get(j, 0) + y * z
            rows.append(end)
        out.append(_from_rows((left.shape[0], right.shape[1]), rows))
    return tuple(out)


def is_zero(a) -> bool:
    return not any(intmat(a).rows)


def trace(a: Matrix) -> int:
    return sum(x for i, row in enumerate(a.rows) for j, x in row if j == i)


def det(a) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = intmat(a)
    m, n = a.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    if m == 0:
        return 1
    d = a.tolist()
    sign = prev = 1
    for k in range(m - 1):
        if d[k][k] == 0:
            for i in range(k + 1, m):
                if d[i][k] != 0:
                    d[k], d[i] = d[i], d[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                d[i][j] = (d[i][j] * d[k][k] - d[i][k] * d[k][j]) // prev
        prev = d[k][k]
    return sign * d[m - 1][m - 1]


class SmithForm(NamedTuple):
    """U @ A @ V = diag(diagonal), with U, V unimodular when requested.

    ``diagonal`` has length min(m, n); its nonzero entries are positive,
    come first, and form a divisibility chain d1 | d2 | ... .  ``uinv`` is
    the inverse of ``u`` (maintained directly, never by matrix inversion).
    """

    diagonal: tuple[int, ...]
    rank: int
    u: Optional[Matrix]
    uinv: Optional[Matrix]
    v: Optional[Matrix]


def _axpy(y: dict[int, int], c: int, x: dict[int, int]) -> None:
    """y += c x on sparse vectors {index: entry}, c != 0."""
    for k, xk in x.items():
        s = y.get(k, 0) + c * xk
        if s:
            y[k] = s
        else:
            del y[k]


def _ordered(vectors: list[dict[int, int]], fixed: list[int], signs: list[int]) -> Matrix:
    """The square matrix whose rows are signs[t] * vectors[fixed[t]], then
    the other vectors in index order."""
    order = fixed + sorted(set(range(len(vectors))).difference(fixed))
    return _from_rows((len(order), len(order)), (
        {c: -x for c, x in vectors[k].items()} if r < len(signs) and signs[r] < 0
        else vectors[k] for r, k in enumerate(order)))


def smith_normal_form(a, want_u: bool = False, want_v: bool = False) -> SmithForm:
    """The Smith normal form of ``a``, with U and U^-1, and V, on request.

    One elimination on sparse rows {column: entry}.  It first sweeps the
    columns once, sparsest first by their nonzeros at the start, and pivots
    each on a +-1 in its sparsest row, if it has one.  Then, while any entry
    is left, it pivots on the first entry of least absolute value: the
    non-unit pivots, and any +-1 that fill-in made after the sweep passed.
    Each step clears the pivot's column by row operations and only then its
    row by column operations; a remainder ends the step and is a smaller
    entry for a later one.  A pivot p != +-1 is fixed only when p divides
    every entry left; otherwise the row of one that it does not divide is
    added to the pivot row, and clearing that row leaves a remainder.  So
    the pivots are fixed in the order d_1 | d_2 | ..., the +-1 first.

    U rows, U^-1 columns and V columns are kept as sparse vectors only when
    asked for, then put into pivot order once at the end.  The diagonal is
    unique; U, U^-1 and V are one valid choice among many.

    >>> smith_normal_form(intmat([[2, 0], [0, 3]])).diagonal
    (1, 6)
    """
    a = intmat(a)
    m, n = a.shape
    rows = [dict(row) for row in a.rows]
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    nnz = sum(map(len, rows))
    u = [{k: 1} for k in range(m)] if want_u else None
    uinv = [{k: 1} for k in range(m)] if want_u else None
    v = [{k: 1} for k in range(n)] if want_v else None

    def add_row(k, c, i):
        # row k += c row i; U^-1 takes column i -= c column k
        nonlocal nnz
        row = rows[k]
        for l, x in rows[i].items():
            y = row.get(l, 0) + c * x
            if y:
                if l not in row:
                    cols[l].add(k)
                    nnz += 1
                row[l] = y
            else:
                del row[l]
                cols[l].discard(k)
                nnz -= 1
        if u is not None:
            _axpy(u[k], c, u[i])
            _axpy(uinv[i], -c, uinv[k])

    def clear_row(i, j):
        # column l -= q column j for l != j; column j is clear but for row i,
        # so only row i and V change.  True if a remainder is left.
        nonlocal nnz
        pivot = rows[i]
        p = pivot[j]
        for l in [l for l in pivot if l != j]:
            q = pivot[l] // p
            if not q:
                continue
            if v is not None:
                _axpy(v[l], -q, v[j])
            y = pivot[l] - q * p
            if y:
                pivot[l] = y
            else:
                del pivot[l]
                cols[l].discard(i)
                nnz -= 1
        return len(pivot) > 1

    live = list(range(m))  # rows that may be nonzero; none turns nonzero again

    def steps():  # ties go to the lower index: columns, then rows
        for j in sorted(range(n), key=lambda j: len(cols[j])):
            units = [i for i in cols[j] if rows[i][j] in (1, -1)]
            if units:
                yield min(units, key=lambda i: (len(rows[i]), i)), j
        while nnz:
            live[:] = [i for i in live if rows[i]]
            yield min((abs(x), i, j) for i in live for j, x in rows[i].items())[1:]

    pivots: list[tuple[int, int, int]] = []
    for i, j in steps():
        pivot = rows[i]
        p = pivot[j]
        for k in cols[j] - {i}:
            add_row(k, -(rows[k][j] // p), i)
        if p not in (1, -1):
            if len(cols[j]) > 1 or clear_row(i, j):
                continue  # the remainder is a smaller entry
            bad = next((k for k in live if any(x % p for x in rows[k].values())), None)
            if bad is not None:
                add_row(i, 1, bad)
                clear_row(i, j)
                continue
        elif v is not None:
            clear_row(i, j)
        pivots.append((i, j, p))
        for l in pivot:
            cols[l].discard(i)
        nnz -= len(pivot)
        rows[i] = {}
    signs = [1 if p > 0 else -1 for _, _, p in pivots]
    fixed = [i for i, _, _ in pivots]
    if u is not None:
        u = _ordered(u, fixed, signs)
        uinv = _ordered(uinv, fixed, signs).T
    if v is not None:
        v = _ordered(v, [j for _, j, _ in pivots], []).T
    fixed_d = tuple(abs(p) for _, _, p in pivots)
    return SmithForm(fixed_d + (0,) * (min(m, n) - len(fixed_d)), len(fixed_d), u, uinv, v)


def _two_adic_smith_form(columns: list[int], m: int, e: int) -> SmithForm:
    """The Smith form, without transforms, of an m-row integer matrix whose
    nonzero invariant factors all divide 2^(e-1), given as its columns mod
    2^e: one int each, whose 2e-bit lane i holds row i's entry in [0, 2^e).

    Over Z/2^e each such factor is 2^s with s < e, and a zero one reads 0,
    so the local Smith form mod 2^e is the integer one.  Stage s = 0 ... e-1
    pivots on lanes of 2-valuation exactly s; every entry left has valuation
    at least s, so a pivot clears its lane from every other column, and its
    column is then dropped: the row operations that would clear the rest of
    it touch nothing else.  Lanes are 2e bits wide, so y + c x with lanes
    under 2^e never carries into the next lane, and a column operation is
    one multiply, one add and one mask.  A column that passed stage s
    unpivoted keeps valuation s + 1 under the rest of that stage (its
    multipliers are even), so each stage is one pass.  The pass takes the
    columns from the last and pivots each on its highest lane of valuation
    s, which on the resolution's differentials clears the lanes from the
    top: the 3556 x 889 d^1 of C2^7 took 0.07 s, against 0.30-0.44 s from
    the first column (Python 3.11, shared 2-vCPU machine).
    """
    width, low = 2 * e, (1 << e) - 1
    ones = ((1 << (m * width)) - 1) // ((1 << width) - 1)  # bit 0 of every lane
    mask = ones * low
    live = [x for x in columns if x]
    diagonal: list[int] = []
    for s in range(e):
        passed = []  # columns whose every lane is 0 mod 2^(s+1)
        while live:
            x = live.pop()
            lanes = (x >> s) & ones
            if not lanes:
                passed.append(x)
                continue
            at = lanes.bit_length() - 1
            neg_inv = -pow(((x >> at) & low) >> s, -1, 1 << e)
            diagonal.append(1 << s)
            for cols in (live, passed):
                for i in [i for i, y in enumerate(cols) if y >> at & low]:
                    y = cols[i]
                    cols[i] = (y + ((y >> at & low) >> s) * neg_inv % (1 << e) * x) & mask
        live = [x for x in reversed(passed) if x]
    rank = len(diagonal)
    return SmithForm(tuple(diagonal) + (0,) * (min(m, len(columns)) - rank), rank,
                     None, None, None)


def invariant_factors(a) -> tuple[int, ...]:
    """Nontrivial invariant factors (entries >= 2) of the Smith form."""
    return tuple(x for x in smith_normal_form(a).diagonal if x not in (0, 1))


def kernel_basis(a) -> Matrix:
    """Columns form a basis of {x : a @ x = 0}; always a saturated lattice."""
    snf = smith_normal_form(a, want_v=True)
    return hermite_column(snf.v.take(cols=range(snf.rank, snf.v.shape[1])))


def solve(a, b) -> Optional[Matrix]:
    """An integer solution X of a @ X = b, or None if there is none."""
    a, b = intmat(a), intmat(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError("shape mismatch in solve")
    snf = smith_normal_form(a, want_u=True, want_v=True)
    r, y = snf.rank, mul(snf.u, b)  # D V^-1 X = U b
    d = snf.diagonal
    if any(i >= r or x % d[i] for i, _, x in y.items()):
        return None
    x = _from_rows((a.shape[1], b.shape[1]), [{j: z // d[i] for j, z in row} for i, row in
                                              enumerate(y.rows[:r])] + [{}] * (a.shape[1] - r))
    return mul(snf.v, x)


def hermite_column(a) -> Matrix:
    """Column-style Hermite normal form, zero columns dropped.

    Pivots are positive and sit strictly lower as one moves right; entries to
    the right of a pivot in its row vanish and entries to the left are reduced
    into [0, pivot).  The result is the canonical basis of the column span.
    """
    a = intmat(a)
    m, n = a.shape
    h = a.T.tolist()  # h[j] is column j

    def sub(j, q, c):  # column j -= q column c
        h[j] = [x - q * y for x, y in zip(h[j], h[c])]
    c = 0  # next pivot column
    for r in range(m):
        # gcd-collect row r into column c using columns >= c
        piv = next((j for j in range(c, n) if h[j][r] != 0), None)
        if piv is None:
            continue
        h[c], h[piv] = h[piv], h[c]
        for j in range(c + 1, n):
            while h[j][r]:
                sub(j, h[j][r] // h[c][r], c)
                if h[j][r]:
                    h[c], h[j] = h[j], h[c]
        if h[c][r] < 0:
            h[c] = [-x for x in h[c]]
        for j in range(c):
            sub(j, h[j][r] // h[c][r], c)
        c += 1
    keep = [col for col in h if any(col)]
    return intmat(keep, (len(keep), m)).T
