"""Local volumes, canonical convergence coefficients, and Tamagawa numbers.

The unramified local volume of the integral points is the exact rational
det(I - Frob/p) = prod (1 - p^-e)^(c_e), over the cycle exponents of Frobenius
(read off the trace character once per Galois element, ``arith``);
the canonical coefficient is its inverse off the ramified set and 1 on it.
A local volume makes one checked read of p per call, in ``arith.frobenius``.
Frobenius acts through GL_n(Z), so det(p I - Frob) = det(-Frob) = +-1 mod p is
prime to p^n: every unramified volume and coefficient is built in lowest
terms without a gcd, and ``arith._local_determinant`` checks the congruence.
The global number tau comes out of the finiteness theorem as a ratio of two
cohomology orders, and a numeric adelic check reproduces tau = 1 for the
multiplicative group from quadrature alone, on plain floats taking numpy's
operations in numpy's order: its coefficient-volume product is 1 by
construction, so it builds no torus and sieves no primes.  Its Simpson rule
equals scipy's bit for bit on the pinned test cases and on odd sample
counts; on an even count, scipy takes the h^3 of Cartwright's correction
from numpy's vectorised ``power``, which can differ from libm's ``pow`` by
one ulp.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import (_arithmetic_datum, _coprime_fraction, _local_determinant, frobenius,
                    primes_up_to)
from .cohomology import cohomology, sha2_cyclic
from .errors import InternalInvariantError
from .linalg import bounded, integer
from .tori import Torus


def local_volume(t: Torus, p: int) -> Fraction:
    """vol(T(Z_p)) = det(I - Frob_p / p), an exact positive rational.

    The inverse of ``local_artin_factor``, with the same checks in the same
    order (p read once, by ``frobenius``), from the same determinant.  det(p I -
    Frob) = +-1 mod p, so det / p^dim is in lowest terms, built without a gcd."""
    frob = frobenius(_arithmetic_datum(t, "local factors need"), p)
    p = p if type(p) is int else integer(p)  # a numpy int, say, as frobenius read it
    return _coprime_fraction(_local_determinant(t, frob, p), p ** t.X.rank)


# The largest pmax for canonical_coefficients: 500 times 20000, the largest
# the benchmark asks for.  The sieve takes pmax + 1 bytes, and the answer one
# Fraction per prime (664579 below 10^7).  gm_adelic_check reads its pmax
# through the same bound, so the CLI refuses the same values, and sieves
# nothing.
PMAX_LIMIT = 10 ** 7


def canonical_coefficients(t: Torus, pmax: int) -> dict[int, Fraction]:
    """Lambda_p for p <= pmax: the inverse local volume off S, 1 on S.
    Off S, det(p I - Frob) = +-1 mod p, so p^dim / det is in lowest terms and
    is built without a gcd.  ``pmax`` is read by ``bounded``: below 2 it
    raises ``ValueError``, above ``PMAX_LIMIT`` ``UnsupportedRequestError``."""
    pmax = bounded(pmax, 2, PMAX_LIMIT, "pmax")
    datum = _arithmetic_datum(t, "canonical coefficients need")
    ramified, n, element_of, dim = datum.ramified, datum.modulus, datum._element_of, t.X.rank
    one, new, determinant = Fraction(1), object.__new__, _local_determinant
    out: dict[int, Fraction] = {}
    for p in primes_up_to(pmax):
        if p in ramified:
            out[p] = one
        else:  # a sieve prime off S is a unit: Frobenius is its class, no primality test
            out[p] = x = new(Fraction)  # _coprime_fraction's slots, set in the loop
            x._numerator, x._denominator = p ** dim, determinant(t, element_of[p % n], p)
    return out


def tamagawa_number(t: Torus) -> Fraction:
    """tau_omega = #H^1(G, X) / #Sha^2_omega(G, X), an exact rational.

    Sha^2_omega is the kernel of restriction from H^2 to the cyclic subgroups
    (Colliot-Thelene and Sansuc 1977).  tau_omega is Ono's tau(T) when every
    decomposition group is cyclic, and may differ otherwise: the norm-one
    torus over 120/{1, 49} has tau_omega = 1/4 but tau(T) = 8.  Any splitting
    datum works, since both sides only see the lattice.
    """
    group = t.group
    h1 = cohomology(group, t.X, 1)
    if not h1.is_finite():
        raise InternalInvariantError("H^1 of a lattice over a finite group must be finite")
    sha = sha2_cyclic(group, t.X)
    return Fraction(h1.order(), sha.order())


# The adelic check's numerator is sampled at u = log t in [LOG_MIN, LOG_MAX],
# its denominator at t in [0, T_MAX]; F(T_MAX) < 1e-86.  Each grid holds at
# most POINTS_LIMIT samples.
LOG_MIN, LOG_MAX, T_MAX = -18.0, 2.5, 8.0
POINTS_LIMIT = 10 ** 6


class GmAdelicCheck(NamedTuple):
    tau_hat: float
    deviation: float
    coefficient_volume_product: Fraction


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """numpy's ``linspace(start, stop, n)``: i * step + start, then ``stop``."""
    step = (stop - start) / (n - 1)
    return [i * step + start for i in range(n - 1)] + [stop]


def _pairwise_sum(v: list[float], lo: int = 0, hi: int | None = None) -> float:
    """v[lo:hi] added in numpy's pairwise order, so the sum is numpy's bit for
    bit: from Python 3.12 the builtin ``sum`` of floats is compensated."""
    hi = len(v) if hi is None else hi
    n = hi - lo
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(v, lo, lo + half) + _pairwise_sum(v, lo + half, hi)
    total, tail = -0.0, lo
    if n >= 8:  # eight running sums, then the tail in order
        r, tail = v[lo:lo + 8], hi - n % 8
        for i in range(lo + 8, tail, 8):
            for j in range(8):
                r[j] += v[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(tail, hi):
        total += v[i]
    return total


def simpson(y, x) -> float:
    """Composite Simpson rule for samples y at strictly increasing x, lists or
    arrays of the same length, at least 3; other abscissae raise
    ``ValueError``.

    Interval pairs take the uneven-spacing rule, an even count adds Cartwright's
    last-interval correction; the operations and the pairwise sum are numpy's,
    in numpy's order.  Tests pin the result to scipy's bit for bit; that holds
    on odd counts, but on an even one scipy's h^3 comes from numpy's
    vectorised ``power``, which can differ from ``b ** 3`` by one ulp."""
    y, x = [float(v) for v in y], [float(v) for v in x]
    n = len(y)
    if len(x) != n:
        raise ValueError(f"simpson needs one abscissa per sample, got {len(x)} for {n}")
    if n < 3:
        raise ValueError(f"simpson needs at least 3 samples, got {n}")
    h = [b - a for a, b in zip(x, x[1:])]
    if not all(step > 0 for step in h):  # a NaN step compares false too
        raise ValueError("simpson needs increasing abscissae")
    terms = []
    for i in range(0, n - 2 if n % 2 else n - 3, 2):
        h0, h1 = h[i], h[i + 1]
        hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
        terms.append(hsum / 6.0 * (y[i] * (2.0 - 1.0 / ratio)
                                   + y[i + 1] * (hsum * (hsum / hprod))
                                   + y[i + 2] * (2.0 - ratio)))
    result = _pairwise_sum(terms)
    if n % 2 == 0:
        a, b = h[-2], h[-1]
        alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        beta = (b ** 2 + 3.0 * a * b) / (6 * a)
        eta = b ** 3 / (6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def gm_adelic_check(pmax: int = 100, points: int = 2001) -> GmAdelicCheck:
    """Numeric Tamagawa number of the multiplicative group over Q.

    Integrates F(t) = 2 t exp(-pi t^2) over the idele-class fundamental
    domain (product of unit balls times the positive ray): the finite places
    contribute the product of coefficient times volume, the ray is
    integrated in the substituted coordinate u = log t, and the normalizing
    integral is done directly in t.  The coefficient-volume product is 1 by
    construction, since lambda_p is the inverse local volume, so it is
    returned as ``Fraction(1)`` and no local factor is computed; both
    integrals equal that of the self-dual Gaussian exp(-pi t^2) over R,
    which is 1.  So tau_hat = 1 checks Simpson's rule on the two grids and
    the Gaussian's normalization, not the arithmetic of the coefficients.
    ``points`` samples make each of the two grids, the numerator's in u and
    the denominator's in t.  ``points`` is read by ``bounded``: fewer than 9
    raise ``ValueError``, more than ``POINTS_LIMIT``
    ``UnsupportedRequestError``.  ``pmax`` only keeps the CLI's contract: it
    is read the same way, below 2 or above ``PMAX_LIMIT``, before either grid
    is built, and otherwise changes nothing.
    """
    points = bounded(points, 9, POINTS_LIMIT, "quadrature points", plural=True)
    bounded(pmax, 2, PMAX_LIMIT, "pmax")
    product = Fraction(1)

    def f(t):
        return 2.0 * t * math.exp(-math.pi * t * t)

    u = _linspace(LOG_MIN, LOG_MAX, points)
    numerator = simpson([f(math.exp(v)) for v in u], x=u)

    t = _linspace(0.0, T_MAX, points)
    # F(t)/t, with its limit at t = 0
    integrand = [2.0] + [f(s) / s for s in t[1:]]
    denominator = simpson(integrand, x=t)
    coarse = simpson(integrand[::2], x=t[::2])
    err = abs(denominator - coarse) / abs(denominator)
    if err > 1e-6:
        raise ValueError(f"grid too coarse: denominator error estimate {err:.2e}")

    tau_hat = float(product) * numerator / denominator
    return GmAdelicCheck(tau_hat, abs(tau_hat - 1.0), product)
