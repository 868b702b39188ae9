"""Local volumes, canonical convergence coefficients, and Tamagawa numbers.

The unramified local volume of the integral points is the exact rational
det(I - Frob/p), read off the characteristic polynomial of Frobenius (built
from the trace character by Newton's identities, once per Galois element);
the canonical coefficient is its inverse off the ramified set and 1 on it.
The global number tau comes out of the finiteness theorem as a ratio of two
cohomology orders, and a numeric adelic check reproduces tau = 1 for the
multiplicative group from quadrature alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import AbelianGaloisDatum, _artin_factor, local_artin_factor, primes_up_to
from .cohomology import cohomology, sha2_cyclic
from .errors import InternalInvariantError, UnsupportedRequestError
from .tori import Torus, make_torus


def local_volume(t: Torus, p: int) -> Fraction:
    """vol(T(Z_p)) = det(I - Frob_p / p), an exact positive rational."""
    factor = local_artin_factor(t, p)
    return 1 / factor


def canonical_coefficients(t: Torus, pmax: int) -> dict[int, Fraction]:
    """Lambda_p for p <= pmax: the inverse local volume off S, 1 on S."""
    if pmax < 2:
        raise ValueError("pmax must be at least 2")
    datum = t.splitting
    if not isinstance(datum, AbelianGaloisDatum):
        raise UnsupportedRequestError("canonical coefficients need an arithmetic datum")
    ramified = datum.ramified
    out: dict[int, Fraction] = {}
    for p in primes_up_to(pmax):
        if p in ramified:
            out[p] = Fraction(1)
        else:  # a sieve prime off S: Frobenius is its class, no primality test
            out[p] = _artin_factor(t, datum.element_of_unit(p), p)
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
# its denominator at t in [0, T_MAX]; F(T_MAX) < 1e-86.
LOG_MIN, LOG_MAX, T_MAX = -18.0, 2.5, 8.0


@dataclass(frozen=True)
class QuadratureGrid:
    """Sampling for the adelic check: ``points`` samples on each of the
    log-variable grid of the numerator and the direct t-grid of the
    denominator."""

    points: int = 2001


class GmAdelicCheck(NamedTuple):
    tau_hat: float
    deviation: float
    coefficient_volume_product: Fraction


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule for samples y at increasing x, len(y) >= 3.

    Interval pairs take the uneven-spacing rule, an even count adds Cartwright's
    last-interval correction; tests pin the order of operations bit for bit."""
    n, h = len(y), np.diff(x)
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                                  + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2 == 0:
        a, b = h[-2], h[-1]
        alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        beta = (b ** 2 + 3.0 * a * b) / (6 * a)
        eta = b ** 3 / (6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def gm_adelic_check(pmax: int = 100, grid: QuadratureGrid | None = None,
                    scale: float = 1.0) -> GmAdelicCheck:
    """Numeric Tamagawa number of the multiplicative group over Q.

    Integrates F(t) = 2 t exp(-pi t^2) over the idele-class fundamental
    domain (product of unit balls times the positive ray): the finite places
    contribute the exact product of coefficient times volume, the ray is
    integrated in the substituted coordinate u = log t, and the normalizing
    integral is done directly in t.  The coefficient-volume product is 1 by
    construction, since lambda_p is the inverse local volume; both integrals
    equal that of the self-dual Gaussian exp(-pi t^2) over R, which is 1.  So
    tau_hat = 1 checks Simpson's rule on the two grids and the Gaussian's
    normalization, not the arithmetic of the coefficients.
    ``scale`` multiplies F; the result must not depend on it.
    """
    if pmax < 2:
        raise ValueError("pmax must be at least 2")
    grid = grid or QuadratureGrid()
    if grid.points < 9:
        raise ValueError("grid too coarse: need at least 9 points")
    if scale <= 0:
        raise ValueError("scale must be positive")
    gm = _gm_torus()
    coeffs = canonical_coefficients(gm, pmax)
    product = Fraction(1)
    for p, lam in coeffs.items():
        product *= lam * (1 / lam)

    def f(t):
        return scale * 2.0 * t * np.exp(-math.pi * t * t)

    u = np.linspace(LOG_MIN, LOG_MAX, grid.points)
    numerator = simpson(f(np.exp(u)), x=u)

    t = np.linspace(0.0, T_MAX, grid.points)
    integrand = np.empty_like(t)
    integrand[0] = scale * 2.0  # limit of F(t)/t at t = 0
    integrand[1:] = f(t[1:]) / t[1:]
    denominator = simpson(integrand, x=t)
    coarse = simpson(integrand[::2], x=t[::2])
    err = abs(denominator - coarse) / abs(denominator)
    if err > 1e-6:
        raise ValueError(f"grid too coarse: denominator error estimate {err:.2e}")

    tau_hat = float(product) * numerator / denominator
    return GmAdelicCheck(tau_hat, abs(tau_hat - 1.0), product)


def _gm_torus() -> Torus:
    return make_torus(AbelianGaloisDatum(1), "split", dim=1)
