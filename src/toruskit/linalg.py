"""Exact linear algebra over the integers.

All matrices are numpy arrays with ``dtype=object`` holding Python ints, so
nothing ever rounds or overflows.  The workhorse is a one-pass Smith normal
form with optional unimodular transforms, which keeps the divisibility chain
at every pivot; invariant factors, kernels and integer solves are derived
from it.  A form without transforms first eliminates +-1 pivots on sparse
rows, so the dense loop sees only the core of a resolution differential.
A column-style Hermite form is used to put lattice bases into a canonical
shape.
"""

from __future__ import annotations

import heapq
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
    of length zero).  Non-integer entries raise ``TypeError`` (``integer``)."""
    src = np.array(data, dtype=object)
    shape = src.shape if shape is None else tuple(shape)
    if src.shape != shape and (src.size or 0 not in shape):
        raise ValueError(f"data of shape {src.shape} does not match requested {shape}")
    out = np.empty(shape, dtype=object)
    out.reshape(-1)[:] = [integer(x) for x in src.flat]
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


def _unit_pivots(rows: list[dict[int, int]]) -> tuple[int, np.ndarray]:
    """Eliminate +-1 pivots from the sparse rows {column: entry}, in place.

    A pivot a_ij = p = +-1 clears its column by row operations (row k minus
    a_kj p times row i) and then its row by column operations, which touch
    nothing else; neither changes the invariant factors.  Pivots go cheapest
    first by Markowitz cost (row nonzeros - 1) (column nonzeros - 1), kept
    in a heap and re-checked when popped; entries that fill-in turns into
    +-1 join it.  Returns the number of pivots and the dense core: the rows
    and columns that still hold a nonzero entry, none of them +-1."""
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)
    heap = [(cost(i, j), i, j) for i, row in enumerate(rows)
            for j, x in row.items() if x in (1, -1)]
    heapq.heapify(heap)
    units = 0
    while heap:
        old, i, j = heapq.heappop(heap)
        pivot = rows[i]
        if pivot.get(j) not in (1, -1):
            continue  # eliminated, or no longer a unit
        if cost(i, j) > old:
            heapq.heappush(heap, (cost(i, j), i, j))
            continue
        p = pivot[j]
        for k in cols[j] - {i}:
            row, f = rows[k], rows[k][j] * p
            for l, x in pivot.items():
                y = row.get(l, 0) - f * x
                if y:
                    if l not in row:
                        cols[l].add(k)
                    row[l] = y
                    if y in (1, -1):
                        heapq.heappush(heap, (cost(k, l), k, l))
                else:
                    del row[l]
                    cols[l].discard(k)
        for l in pivot:
            cols[l].discard(i)
        rows[i] = {}
        units += 1
    left = [row for row in rows if row]
    index = {j: c for c, j in enumerate(sorted(set().union(*left)))}
    core = zeros(len(left), len(index))
    for r, row in enumerate(left):
        for j, x in row.items():
            core[r, index[j]] = x
    return units, core


def smith_normal_form(a: np.ndarray, want_u: bool = False,
                      want_uinv: bool = False, want_v: bool = False) -> SmithForm:
    """The Smith normal form of ``a``, with U, U^-1 and V on request.

    One elimination loop: step t moves the first nonzero entry of least
    absolute value in the trailing block to (t, t), then clears row and
    column t, taking any nonzero remainder as a new, smaller pivot.  Once
    they are clear, d_t must divide every entry of the trailing block; if
    it does not, the offending row is added to row t and clearing resumes,
    so d_1 | d_2 | ... holds as each pivot is fixed.  The diagonal is unique;
    U, U^-1 and V are one valid choice among many.

    Without transforms, ``_unit_pivots`` first eliminates the +-1 pivots,
    if there are any, cheapest first by Markowitz cost, and the loop runs on
    the core that is left; each eliminated pivot puts a 1 in front of the
    core's diagonal.  Requests for U, U^-1 or V run the loop on the whole
    matrix.

    >>> smith_normal_form(intmat([[2, 0], [0, 3]])).diagonal
    (1, 6)
    """
    d = a.copy() if a.dtype == object else intmat(a)
    size = min(d.shape)
    units = 0
    if not (want_u or want_uinv or want_v):
        nonzero = np.nonzero(d)
        values = d[nonzero].tolist()
        if 1 in values or -1 in values:
            rows = [{} for _ in range(d.shape[0])]
            for i, j, x in zip(*(k.tolist() for k in nonzero), values):
                rows[i][j] = x
            units, d = _unit_pivots(rows)
    m, n = d.shape
    u = eye(m) if want_u else None
    uinv = eye(m) if want_uinv else None
    v = eye(n) if want_v else None

    def row_add(i, j, c):
        # row_i += c * row_j
        d[i, :] += c * d[j, :]
        if u is not None:
            u[i, :] += c * u[j, :]
        if uinv is not None:
            uinv[:, j] -= c * uinv[:, i]

    def row_swap(i, j):
        d[[i, j]] = d[[j, i]]
        if u is not None:
            u[[i, j]] = u[[j, i]]
        if uinv is not None:
            uinv[:, [i, j]] = uinv[:, [j, i]]

    def row_negate(i):
        d[i, :] *= -1
        if u is not None:
            u[i, :] *= -1
        if uinv is not None:
            uinv[:, i] *= -1

    def col_add(j, i, c):
        # col_j += c * col_i
        d[:, j] += c * d[:, i]
        if v is not None:
            v[:, j] += c * v[:, i]

    def col_swap(i, j):
        d[:, [i, j]] = d[:, [j, i]]
        if v is not None:
            v[:, [i, j]] = v[:, [j, i]]

    def find_pivot(t):
        rows, cols = np.nonzero(d[t:, t:])
        if not len(rows):
            return None
        k = int(np.argmin(np.abs(d[t + rows, t + cols])))
        return t + int(rows[k]), t + int(cols[k])

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = find_pivot(t)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        while True:
            if d[t, t] < 0:
                row_negate(t)
            # clear column t
            again = False
            for i in np.nonzero(d[t + 1:, t])[0]:
                i = t + 1 + int(i)
                q = d[i, t] // d[t, t]
                if q:
                    row_add(i, t, -q)
                if d[i, t] != 0:
                    row_swap(t, i)  # strictly smaller pivot
                    again = True
                    break
            if again:
                continue
            # clear row t
            for j in np.nonzero(d[t, t + 1:])[0]:
                j = t + 1 + int(j)
                q = d[t, j] // d[t, t]
                if q:
                    col_add(j, t, -q)
                if d[t, j] != 0:
                    col_swap(t, j)
                    again = True
                    break
            if again:
                continue
            if d[t, t] != 1:
                # d_t must divide the trailing block; the remainder of an
                # entry that it does not divide becomes a smaller pivot
                rest = np.nonzero(d[t + 1:, t + 1:] % d[t, t])[0]
                if len(rest):
                    row_add(t, t + 1 + int(rest[0]), 1)
                    continue
            break
        t += 1
    diag = (1,) * units + tuple(int(d[k, k]) for k in range(t))
    return SmithForm(diag + (0,) * (size - len(diag)), units + t, u, uinv, v)


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
    y = mul(snf.u, b)
    x = zeros(a.shape[1], b.shape[1])
    for i in range(a.shape[0]):
        di = snf.diagonal[i] if i < len(snf.diagonal) else 0
        for j in range(b.shape[1]):
            if i < snf.rank:
                q, r = divmod(y[i, j], di)
                if r != 0:
                    return None
                x[i, j] = q
            elif y[i, j] != 0:
                return None
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
