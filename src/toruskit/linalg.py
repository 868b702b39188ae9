"""Exact linear algebra over the integers.

All matrices are numpy arrays with ``dtype=object`` holding Python ints, so
nothing ever rounds or overflows.  The workhorse is a Smith normal form with
optional unimodular transforms: one elimination on sparse rows that takes
+-1 pivots in one sweep over the columns, sparsest first, then entries of
least absolute value; it keeps the divisibility chain at every pivot and
serves plain and transform requests alike.  Invariant factors, kernels
and integer solves are derived from it.  A column-style Hermite form is used
to put lattice bases into a canonical shape, and the product of a stack of
sparse matrices with a matrix on either side multiplies nonzero entries only.
``sparse_rows`` is the one reader that turns a matrix into rows: the Smith
form, the stack product and the lattices' group-law probe all read it.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional

import numpy as np


def integer(x) -> int:
    if isinstance(x, bool):  # operator.index would read JSON true as 1
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


def intmat(data, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Copy ``data`` into a fresh object-dtype array of Python ints.

    ``shape`` is required when ``data`` cannot determine it (no rows, or rows
    of length zero).  Entries of type exactly ``int`` are copied as they are;
    every other entry goes through ``integer``, so non-integers raise
    ``TypeError``."""
    src = np.array(data, dtype=object)
    shape = src.shape if shape is None else tuple(shape)
    if src.shape != shape and (src.size or 0 not in shape):
        raise ValueError(f"data of shape {src.shape} does not match requested {shape}")
    out = np.empty(shape, dtype=object)
    out.reshape(-1)[:] = [x if type(x) is int else integer(x) for x in src.flat]
    return out


def zeros(*shape: int) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = 0
    return out


def eye(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product; handles empty inner dimensions."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    return np.dot(a, b)


def is_zero(a: np.ndarray) -> bool:
    return a.size == 0 or not (a != 0).any()


def det(a: np.ndarray) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    m, n = a.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    if m == 0:
        return 1
    d = a.copy()
    sign = 1
    prev = 1
    for k in range(m - 1):
        if d[k, k] == 0:
            for i in range(k + 1, m):
                if d[i, k] != 0:
                    d[[k, i]] = d[[i, k]]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                d[i, j] = (d[i, j] * d[k, k] - d[i, k] * d[k, j]) // prev
        prev = d[k, k]
    return sign * int(d[m - 1, m - 1])


class SmithForm(NamedTuple):
    """U @ A @ V = diag(diagonal), with U, V unimodular when requested.

    ``diagonal`` has length min(m, n); its nonzero entries are positive,
    come first, and form a divisibility chain d1 | d2 | ... .  ``uinv`` is
    the inverse of ``u`` (maintained directly, never by matrix inversion).
    """

    diagonal: tuple[int, ...]
    rank: int
    u: Optional[np.ndarray]
    uinv: Optional[np.ndarray]
    v: Optional[np.ndarray]


def _axpy(y: dict[int, int], c: int, x: dict[int, int]) -> None:
    """y += c x on sparse vectors {index: entry}, c != 0."""
    for k, xk in x.items():
        s = y.get(k, 0) + c * xk
        if s:
            y[k] = s
        else:
            del y[k]


def sparse_rows(a: np.ndarray) -> list[dict[int, int]]:
    """The rows of the 2-D object array ``a`` as sparse vectors {column: entry}."""
    rows: list[dict[int, int]] = [{} for _ in range(a.shape[0])]
    at = np.nonzero(a)
    for i, j, x in zip(at[0].tolist(), at[1].tolist(), a[at].tolist()):
        rows[i][j] = x
    return rows


def stack_product(left: np.ndarray, stack: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ X @ right for every matrix X of the ``(k, n, n)`` object stack.

    Only nonzero entries are multiplied.  ``left``, ``right`` and the stack
    are each read once as sparse rows; row i of left @ X sums the rows of X
    that the nonzeros of row i of ``left`` select, and its nonzeros select
    the rows of ``right`` in turn.  The sums are written into the dense
    ``(k, r, c)`` result at once.
    """
    k, n = stack.shape[:2]
    if left.shape[1] != n or right.shape[0] != n:
        raise ValueError(f"shape mismatch {left.shape} @ {stack.shape} @ {right.shape}")
    r, c = left.shape[0], right.shape[1]
    lrows, rrows = sparse_rows(left), sparse_rows(right)
    xrows = sparse_rows(stack.reshape(k * n, n))
    sums: dict[int, int] = {}  # flat index into the result: entry
    for a in range(k):
        x = xrows[a * n:(a + 1) * n]
        for i, lrow in enumerate(lrows):
            lx: dict[int, int] = {}
            for l, y in lrow.items():
                for j, z in x[l].items():
                    lx[j] = lx.get(j, 0) + y * z
            base = (a * r + i) * c
            for l, y in lx.items():
                for j, z in rrows[l].items():
                    sums[base + j] = sums.get(base + j, 0) + y * z
    out = zeros(k, r, c)
    if sums:
        out.reshape(-1)[list(sums)] = np.array(list(sums.values()), dtype=object)
    return out


def _dense(vectors: list[dict[int, int]], fixed: list[int], signs: list[int]) -> np.ndarray:
    """The square matrix whose rows are signs[t] * vectors[fixed[t]], then
    the other vectors in index order."""
    order = fixed + sorted(set(range(len(vectors))).difference(fixed))
    out = zeros(len(order), len(order))
    for r, k in enumerate(order):
        s = signs[r] if r < len(signs) else 1
        for c, x in vectors[k].items():
            out[r, c] = s * x
    return out


def smith_normal_form(a: np.ndarray, want_u: bool = False,
                      want_v: bool = False) -> SmithForm:
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
    asked for, then put into pivot order and made dense once at the end.
    The diagonal is unique; U, U^-1 and V are one valid choice among many.

    >>> smith_normal_form(intmat([[2, 0], [0, 3]])).diagonal
    (1, 6)
    """
    if a.dtype != object:
        a = intmat(a)
    m, n = a.shape
    rows = sparse_rows(a)
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
        u = _dense(u, fixed, signs)
        uinv = _dense(uinv, fixed, signs).T.copy()
    if v is not None:
        v = _dense(v, [j for _, j, _ in pivots], []).T.copy()
    diag = tuple(abs(p) for _, _, p in pivots)
    return SmithForm(diag + (0,) * (min(m, n) - len(diag)), len(diag), u, uinv, v)


def invariant_factors(a: np.ndarray) -> tuple[int, ...]:
    """Nontrivial invariant factors (entries >= 2) of the Smith form."""
    return tuple(x for x in smith_normal_form(a).diagonal if x not in (0, 1))


def kernel_basis(a: np.ndarray) -> np.ndarray:
    """Columns form a basis of {x : a @ x = 0}; always a saturated lattice."""
    snf = smith_normal_form(a, want_v=True)
    ker = snf.v[:, snf.rank:]
    return hermite_column(ker)


def solve(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """An integer solution X of a @ X = b, or None if there is none."""
    if b.shape[0] != a.shape[0]:
        raise ValueError("shape mismatch in solve")
    snf = smith_normal_form(a, want_u=True, want_v=True)
    r, y = snf.rank, mul(snf.u, b)  # D V^-1 X = U b
    d = intmat(snf.diagonal[:r], (r,))[:, None]
    if not is_zero(y[:r] % d) or not is_zero(y[r:]):
        return None
    x = zeros(a.shape[1], b.shape[1])
    x[:r] = y[:r] // d
    return mul(snf.v, x)


def hermite_column(a: np.ndarray) -> np.ndarray:
    """Column-style Hermite normal form, zero columns dropped.

    Pivots are positive and sit strictly lower as one moves right; entries to
    the right of a pivot in its row vanish and entries to the left are reduced
    into [0, pivot).  The result is the canonical basis of the column span.
    """
    h = a.copy() if a.dtype == object else intmat(a)
    m, n = h.shape
    c = 0  # next pivot column
    for r in range(m):
        # gcd-collect row r into column c using columns >= c
        piv = None
        for j in range(c, n):
            if h[r, j] != 0:
                piv = j
                break
        if piv is None:
            continue
        if piv != c:
            h[:, [c, piv]] = h[:, [piv, c]]
        for j in range(c + 1, n):
            while h[r, j] != 0:
                q = h[r, j] // h[r, c]
                if q:
                    h[:, j] -= q * h[:, c]
                if h[r, j] == 0:
                    break
                h[:, [c, j]] = h[:, [j, c]]
        if h[r, c] < 0:
            h[:, c] *= -1
        for j in range(c):
            q = h[r, j] // h[r, c]
            if q:
                h[:, j] -= q * h[:, c]
        c += 1
        if c == n:
            break
    # drop zero columns
    keep = [j for j in range(n) if not is_zero(h[:, j:j + 1])]
    return h[:, keep] if keep else zeros(m, 0)
