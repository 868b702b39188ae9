import random

import numpy as np
import pytest
from hypothesis import example, given, seed as fixed_seed, settings, strategies as st

from toruskit import linalg

from support import dense, is_saturated, pack_columns, quotient_invariants, random_unimodular


def matrix_lists(max_dim=5, lo=-9, hi=9):
    def rows(shape):
        m, n = shape
        return st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                        min_size=m, max_size=m)
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(rows)


def diagonal_matrix(shape, diag):
    m, n = shape
    return linalg.intmat([[diag[i] if i == j else 0 for j in range(n)] for i in range(m)], shape)


# Pivots that do not divide their trailing block: the divisibility chain is
# restored inside the elimination loop (the last follows a unit pivot).
CHAIN_REPAIRS = ([[2, 0], [0, 3]], [[4, 0], [0, 6]], [[-2, 0], [0, 3]],
                 [[2, 0, 0], [0, 3, 0]], [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
                 [[1, 0, 0], [0, 2, 0], [0, 0, 3]])


def chain_examples(test):
    for rows in CHAIN_REPAIRS:
        test = example(rows)(test)
    return test


@given(matrix_lists())
@chain_examples
@settings(deadline=None, max_examples=80)
def test_smith_form_properties(rows):
    a = linalg.intmat(rows)
    snf = linalg.smith_normal_form(a, want_u=True, want_v=True)
    d = diagonal_matrix(a.shape, snf.diagonal)
    assert linalg.mul(linalg.mul(snf.u, a), snf.v) == d
    assert linalg.mul(snf.u, snf.uinv) == linalg.eye(a.shape[0])
    assert abs(linalg.det(snf.u)) == 1
    assert abs(linalg.det(snf.v)) == 1
    nonzero = [x for x in snf.diagonal if x]
    assert len(nonzero) == snf.rank
    assert all(x > 0 for x in nonzero)
    assert all(b % a_ == 0 for a_, b in zip(nonzero, nonzero[1:]))
    assert all(x == 0 for x in snf.diagonal[snf.rank:])


@given(matrix_lists())
@chain_examples
@settings(deadline=None, max_examples=60)
def test_smith_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ
    a = linalg.intmat(rows)
    ours = [x for x in linalg.smith_normal_form(a).diagonal if x]
    ref = smith_normal_form(sympy.Matrix(rows), domain=ZZ)
    theirs = sorted(abs(int(ref[i, i])) for i in range(min(ref.shape))
                    if ref[i, i] != 0)
    assert sorted(ours) == theirs


# Entries of resolution differentials: mostly +-1, some larger.
SPARSE_ENTRIES = (1, -1, 1, -1, 1, -1, 2, -2, 3, -4, 6)


@st.composite
def sparse_matrices(draw, max_dim=25):
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    density = draw(st.floats(0.05, 0.4))
    rng = draw(st.randoms(use_true_random=False))
    return linalg.intmat([[rng.choice(SPARSE_ENTRIES) if rng.random() < density else 0
                           for _ in range(n)] for _ in range(m)], (m, n))


@given(sparse_matrices())
@example(linalg.zeros(0, 4))
@example(linalg.zeros(3, 0))
@example(linalg.zeros(3, 5))
@example(linalg.intmat([[1, 2, 0], [0, -1, 3], [0, 0, 1]]))  # units only: empty core
@example(linalg.intmat([[2, 4, 0], [6, 8, 2], [0, 2, 4]]))  # 2 A: nothing to eliminate
@example(linalg.intmat([[1, 2], [2, 3]]))  # eliminating the 1 leaves a new -1
@example(np.array([[3, 1, 0], [1, 2, -1], [0, 5, 4]], dtype=np.int64))
# unimodular; clearing row 0 while column 0 still holds a remainder breaks it
@example(linalg.intmat([[-3, 2, 0, 2], [0, 1, 0, 0], [3, 0, 1, -2], [-4, 2, 0, 3]]))
@example(linalg.intmat([[1] * 8] * 8))  # the first pivot empties every row
@example(linalg.intmat([[-2, 3], [0, 4]]))  # negative pivots, a remainder in the row
@settings(deadline=None, max_examples=60)
def test_plain_smith_form_matches_transform_loop(a):
    # Plain and transform requests share one elimination; U, U^-1 and V must
    # be unimodular, U A V = D, and D the plain form's diagonal.
    plain = linalg.smith_normal_form(a)
    snf = linalg.smith_normal_form(a, want_u=True, want_v=True)
    assert snf.diagonal == plain.diagonal
    assert snf.rank == plain.rank
    d = diagonal_matrix(a.shape, snf.diagonal)
    assert linalg.mul(linalg.mul(snf.u, linalg.intmat(a)), snf.v) == d
    assert linalg.mul(snf.u, snf.uinv) == linalg.eye(a.shape[0])
    assert abs(linalg.det(snf.u)) == abs(linalg.det(snf.v)) == 1


@st.composite
def permuted_sparse_matrices(draw):
    a = draw(sparse_matrices())
    m, n = a.shape
    return a, draw(st.permutations(range(m))), draw(st.permutations(range(n)))


# Swapping the columns of [[1, 2], [2, 3]] puts its 1 in the column the sweep
# visits last; eliminating it leaves a -1 in the column visited first, which
# only the least-|entry| loop can take.
@given(permuted_sparse_matrices())
@example((linalg.intmat([[1, 2], [2, 3]]), [0, 1], [1, 0]))
@settings(deadline=None, max_examples=60)
def test_smith_diagonal_does_not_depend_on_pivot_order(case):
    # Permuting rows and columns changes the sweep's column order and its
    # choice of rows, and so every pivot; the diagonal is unique.
    a, rows, cols = case
    want = linalg.smith_normal_form(a)
    b = dense(a)[list(rows)][:, list(cols)]
    plain = linalg.smith_normal_form(b)
    snf = linalg.smith_normal_form(b, want_u=True, want_v=True)
    assert (plain.diagonal, plain.rank) == (snf.diagonal, snf.rank) == (want.diagonal, want.rank)
    d = diagonal_matrix(b.shape, snf.diagonal)
    assert linalg.mul(linalg.mul(snf.u, b), snf.v) == d
    assert linalg.mul(snf.u, snf.uinv) == linalg.eye(b.shape[0])


@given(matrix_lists())
@settings(deadline=None, max_examples=60)
def test_kernel_basis(rows):
    a = linalg.intmat(rows)
    k = linalg.kernel_basis(a)
    assert linalg.is_zero(linalg.mul(a, k))
    assert k.shape[1] == a.shape[1] - linalg.smith_normal_form(a).rank
    if k.shape[1]:
        assert is_saturated(k)


def test_solve_and_span():
    a = linalg.intmat([[2, 0], [0, 3]])
    b = linalg.intmat([[4], [9]])
    x = linalg.solve(a, b)
    assert linalg.mul(a, x) == b
    assert linalg.solve(a, linalg.intmat([[1], [0]])) is None
    assert linalg.solve(a, linalg.intmat([[2], [3]])) is not None
    assert linalg.solve(a, linalg.intmat([[1], [1]])) is None


def test_hermite_column_canonical():
    a = linalg.intmat([[2, 4, 4], [0, 6, 12], [0, 0, 0]])
    h = linalg.hermite_column(a)
    assert linalg.hermite_column(h) == h
    # same column span
    assert linalg.solve(h, a) is not None
    assert linalg.solve(a, h) is not None


def test_hermite_drops_zero_columns():
    a = linalg.intmat([[0, 1], [0, 1]])
    h = linalg.hermite_column(a)
    assert h.shape == (2, 1)
    assert h.tolist() == [[1], [1]]



def test_quotient_invariants():
    # Z^2 / <2e1, 3e2> inside the full lattice
    num = linalg.eye(2)
    den = linalg.intmat([[2, 0], [0, 3]])
    free, torsion = quotient_invariants(num, den)
    assert free == 0 and torsion == (6,)
    free, torsion = quotient_invariants(num, linalg.zeros(2, 0))
    assert free == 2 and torsion == ()


def test_det_bareiss():
    a = linalg.intmat([[2, 3, 1], [4, 1, -3], [0, 5, 2]])
    # cofactor expansion by hand: 2*(1*2 - (-3)*5) - 3*(4*2 - (-3)*0) + 1*(4*5 - 0)
    assert linalg.det(a) == 2 * 17 - 3 * 8 + 20
    assert linalg.det(linalg.eye(4)) == 1
    assert linalg.det(linalg.zeros(0, 0)) == 1


def test_empty_shapes():
    e = linalg.zeros(3, 0)
    snf = linalg.smith_normal_form(e, want_u=True, want_v=True)
    assert snf.rank == 0 and snf.diagonal == ()
    assert linalg.kernel_basis(linalg.zeros(0, 3)).shape == (3, 3)
    assert linalg.mul(linalg.zeros(2, 0), linalg.zeros(0, 2)).shape == (2, 2)


def test_intmat_rejects_non_integers():
    with pytest.raises(TypeError):
        linalg.intmat([[1.5]])


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: linalg.Matrix((1, 1), (((0, 2.5),),)), TypeError, id="float-entry"),
    pytest.param(lambda: linalg.Matrix((1, 1), (((0, True),),)), TypeError, id="bool-entry"),
    pytest.param(lambda: linalg.Matrix((1, 1), (((0.0, 1),),)), TypeError, id="float-column"),
    pytest.param(lambda: linalg.Matrix((1.0, 1), ((),)), TypeError, id="float-shape"),
    pytest.param(lambda: linalg.Matrix((1, 3), (((2, 1), (0, 1)),)), ValueError, id="unsorted"),
    pytest.param(lambda: linalg.Matrix((1, 3), (((1, 1), (1, 2)),)), ValueError, id="repeated"),
    pytest.param(lambda: linalg.Matrix((1, 2), (((2, 1),),)), ValueError, id="column-past-n"),
    pytest.param(lambda: linalg.Matrix((1, 2), (((-1, 1),),)), ValueError, id="negative-column"),
    pytest.param(lambda: linalg.Matrix((1, 2), (((0, 0),),)), ValueError, id="zero-entry"),
    pytest.param(lambda: linalg.Matrix((2, 2), (((0, 1),),)), ValueError, id="row-count"),
    pytest.param(lambda: linalg.Matrix((-1, 2), ()), ValueError, id="negative-shape"),
    pytest.param(lambda: linalg.Matrix((1, 2, 3), ((),)), ValueError, id="three-dims"),
    pytest.param(lambda: linalg.diag([2.5]), TypeError, id="diag-float"),
    pytest.param(lambda: linalg.diag([1, 2], 1), ValueError, id="diag-short"),
    pytest.param(lambda: linalg.zeros(-1, 2), ValueError, id="zeros-negative"),
    pytest.param(lambda: linalg.combine([(0.5, linalg.eye(1))]), TypeError, id="combine-float"),
])
def test_every_matrix_is_checked_when_built(call, error):
    # intmat takes a Matrix as it is, so no public way may build an invalid one:
    # a hand-built float entry used to come back as a Smith diagonal (2.5,).
    with pytest.raises(error):
        call()


def test_matrix_reads_numpy_ints_and_keeps_no_caller_object():
    rows = [[(np.int64(1), np.int64(-3))], []]
    m = linalg.Matrix([np.int64(2), 2], rows)
    rows[0].append((0, 5))
    want = linalg.intmat([[0, -3], [0, 0]])
    assert m == want and hash(m) == hash(want)
    assert m.shape == (2, 2) and m.rows == (((1, -3),), ())
    assert all(type(v) is int for v in m.shape + m.rows[0][0])
    assert linalg.smith_normal_form(m).diagonal == (3, 0)
    d = linalg.diag(np.array([2, 0]), np.int64(3))
    assert d == linalg.intmat([[2, 0], [0, 0], [0, 0]]) and type(d.rows[0][0][1]) is int


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: linalg.mul(linalg.zeros(2, 3), linalg.zeros(2, 3)),
                 "shape mismatch", id="mul"),
    pytest.param(lambda: linalg.det(linalg.zeros(2, 3)), "non-square", id="det"),
    pytest.param(lambda: linalg.stack_product(linalg.eye(2), (linalg.zeros(3, 3),),
                                              linalg.eye(3)), "shape mismatch", id="stack"),
    pytest.param(lambda: linalg.solve(linalg.eye(2), linalg.zeros(3, 1)),
                 "shape mismatch in solve", id="solve"),
])
def test_shape_checks(call, fragment):
    with pytest.raises(ValueError) as exc:
        call()
    assert fragment in str(exc.value)


def sparse_of_shape(m, n):
    """m x n matrices, about half their entries zero and some rows all zero."""
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    row = st.one_of(st.just([0] * n), st.lists(entry, min_size=n, max_size=n))
    return st.lists(row, min_size=m, max_size=m).map(lambda rows: linalg.intmat(rows, (m, n)))


@st.composite
def stack_products(draw):
    """(left, stack, right): sparse factors of any shape, zero sizes included,
    or, as in a Smith frame, a dense unimodular U and U^-1 around a stack."""
    m, k, l, n = (draw(st.integers(0, 5)) for _ in range(4))
    if draw(st.booleans()):
        k = l = draw(st.integers(1, 8))
        u = linalg.intmat(random_unimodular(k, random.Random(draw(st.integers(0, 2 ** 32))), 30))
        left, right = u, linalg.solve(u, linalg.eye(k))
    else:
        left, right = draw(sparse_of_shape(m, k)), draw(sparse_of_shape(l, n))
    return left, tuple(draw(st.lists(sparse_of_shape(k, l), max_size=3))), right


@given(stack_products())
@example((linalg.zeros(0, 0), (linalg.zeros(0, 0),) * 2, linalg.zeros(0, 0)))
@example((linalg.eye(3), (linalg.intmat([[0, 1, 0], [0, 0, 0], [2, 0, 0]]),), linalg.zeros(3, 0)))
@example((linalg.zeros(0, 2), (linalg.eye(2),), linalg.eye(2)))
@settings(deadline=None, max_examples=150)
def test_stack_product_is_two_products(case):
    # One pass per row, merging left @ X before it meets right, against the
    # two full products of every element.
    left, stack, right = case
    assert linalg.stack_product(left, stack, right) == tuple(
        linalg.mul(linalg.mul(left, x), right) for x in stack)


@given(st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(lambda s: sparse_of_shape(*s)))
@settings(deadline=None, max_examples=80)
def test_trace_is_the_dense_diagonal(a):
    assert linalg.trace(a) == sum(dense(a).diagonal())


@st.composite
def two_power_smith_matrices(draw):
    """(A, e) with A = U diag(2^a_1, ..., 0, ...) V, every a_i < e, and U, V
    products of elementary operations with multipliers up to 10^6 of either
    sign, and of sign changes."""
    m, n, e = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(1, 12))
    rank = draw(st.integers(0, min(m, n)))
    rows = [[0] * n for _ in range(m)]
    for i in range(rank):
        rows[i][i] = 2 ** draw(st.integers(0, e - 1))
    for _ in range(draw(st.integers(0, 12))):
        big = st.integers(-10 ** 6, 10 ** 6)
        if m > 1 and draw(st.booleans()):  # row i += c row j, or row i negated
            i, j, c = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), draw(big)
            rows[i] = [-x for x in rows[i]] if i == j else [
                x + c * y for x, y in zip(rows[i], rows[j])]
        elif n > 1:  # column i += c column j, or column i negated
            i, j, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(big)
            for row in rows:
                row[i] = -row[i] if i == j else row[i] + c * row[j]
    return linalg.intmat(rows, (m, n)), e


@fixed_seed(4301)
@given(two_power_smith_matrices())
@example((linalg.zeros(0, 0), 1))
@example((linalg.zeros(0, 4), 3))
@example((linalg.zeros(5, 0), 3))
@example((linalg.zeros(3, 4), 2))
@example((linalg.intmat([[2 ** 11, 0], [0, -1]]), 12))  # the largest factor 2^(e-1)
@settings(deadline=None, max_examples=150)
def test_two_adic_smith_form_matches_the_integer_one(case):
    # Packed mod 2^e, a matrix whose nonzero invariant factors divide
    # 2^(e-1) has the integer Smith form's diagonal and rank.
    a, e = case
    want = linalg.smith_normal_form(a)
    got = linalg._two_adic_smith_form(
        pack_columns(a.rows, a.shape[1], e), a.shape[0], e)
    assert (got.diagonal, got.rank) == (want.diagonal, want.rank)
