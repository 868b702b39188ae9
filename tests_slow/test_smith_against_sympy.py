"""Smith normal forms against sympy's on matrices larger than tier-1 draws."""

from random import Random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

from toruskit import linalg


def dense_matrix(rng):
    m, n, density = rng.randint(6, 12), rng.randint(6, 12), rng.choice((0.2, 0.5, 1))
    return [[rng.randint(-30, 30) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]


def sparse_matrix(rng):
    m, n, density = rng.randint(10, 40), rng.randint(10, 40), rng.uniform(0.05, 0.3)
    return [[rng.choice((1, -1, 1, -1, 1, -1, rng.randint(-6, 6))) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("draw, seed, count, shuffle_seed", [
    pytest.param(dense_matrix, 12, 300, None, id="dense-up-to-12x12"),
    pytest.param(sparse_matrix, 14, 200, 15, id="sparse-up-to-40x40"),
])
def test_smith_forms_match_sympy(draw, seed, count, shuffle_seed):
    """Tier-1 draws matrices up to 5 x 5.  Dense: 300 seeded matrices with
    6-12 rows and columns, density 0.2, 0.5 or 1 and entries in [-30, 30],
    about 2 s.  Sparse: 200 seeded matrices with 10-40 rows and columns,
    density 0.05-0.3 and entries mostly +-1, some in [-6, 6], where the column
    sweep takes most pivots, about 5 s.  The diagonal must be sympy's, with
    U A V = D, U U^-1 = I and |det U| = |det V| = 1.  On the sparse family the
    plain form's diagonal must be sympy's too, and so must that of a seeded
    row and column permutation of each matrix, which changes every pivot
    choice."""
    rng = Random(seed)
    shuffle = None if shuffle_seed is None else Random(shuffle_seed)
    for _ in range(count):
        rows = draw(rng)
        m, n = len(rows), len(rows[0])
        ref = smith_normal_form(sympy.Matrix(rows), domain=ZZ)
        want = tuple(abs(int(ref[i, i])) for i in range(min(m, n)))
        a = linalg.intmat(rows)
        if shuffle is not None:
            assert linalg.smith_normal_form(a).diagonal == want, rows
            shuffled = a.take(shuffle.sample(range(m), m), shuffle.sample(range(n), n))
            assert linalg.smith_normal_form(shuffled).diagonal == want, rows
        snf = linalg.smith_normal_form(a, want_u=True, want_v=True)
        assert snf.diagonal == want, rows
        d = linalg.intmat([[snf.diagonal[i] if i == j else 0 for j in range(n)]
                           for i in range(m)])
        assert linalg.mul(linalg.mul(snf.u, a), snf.v) == d, rows
        assert linalg.mul(snf.u, snf.uinv) == linalg.eye(m), rows
        assert abs(linalg.det(snf.u)) == abs(linalg.det(snf.v)) == 1, rows
