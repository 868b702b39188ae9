"""Local factors, characters and rebuilt Galois data at sizes tier-1 is too short for."""

from fractions import Fraction
from math import gcd
from time import perf_counter

from toruskit.arith import (AbelianGaloisDatum, _local_determinant, frobenius,
                            local_artin_factor, residue)
from toruskit.groups import abelian_decomposition
from toruskit.tamagawa import canonical_coefficients, local_volume
from toruskit.tori import make_torus

from support import (bareiss_local_factor, cycle_formula_determinants, in_child,
                     per_unit_character_check, sieve_primes)


def lowest(x):
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def test_local_factors_to_20000_against_bareiss():
    """canonical_coefficients reads det(p I - X(Frob)) off the cycle exponents
    of Frobenius, taken from the trace character; tests/support.py takes a
    Bareiss determinant of the matrix instead.  local_volume must be the exact
    inverse at every unramified p.  Each factor is built without a gcd, so
    each lambda_p, volume and local_artin_factor must be a plain Fraction in
    lowest terms.  1.5-2.6 s in five runs (Python 3.11, one core of a shared
    2-vCPU machine), too slow for tier-1."""
    for modulus, subgroup in ((120, (1, 49)), (17, None)):
        t = make_torus(AbelianGaloisDatum(modulus, subgroup), "norm_one")
        coeffs = canonical_coefficients(t, 20000)
        want = {p: Fraction(1) if modulus % p == 0 else bareiss_local_factor(t, p)
                for p in coeffs}
        assert coeffs == want, modulus
        assert all(lowest(lam) for lam in coeffs.values()), modulus
        for p, lam in want.items():
            if modulus % p:
                volume, factor = local_volume(t, p), local_artin_factor(t, p)
                assert volume == 1 / lam and factor == lam, (modulus, p)
                assert lowest(volume) and lowest(factor), (modulus, p)


def _cycle_formula_at_1024():
    datum = AbelianGaloisDatum(2048)
    primes = [p for p in sieve_primes(200) if p != 2]
    for kind in ("res", "norm_one"):
        t = make_torus(datum, kind)
        start = perf_counter()
        coeffs = canonical_coefficients(t, 3)
        took = perf_counter() - start
        want = cycle_formula_determinants(2048, None, kind, primes)
        assert coeffs[3] == Fraction(3 ** t.dim, want[3]), kind
        assert {p: _local_determinant(t, frobenius(datum, p), p) for p in primes} == want, kind
        print(f"{kind}: {len(primes)} local factors match the cycle formula; "
              f"canonical_coefficients(t, 3) took {took:.2f} s")
        assert took < 5, took


def test_local_factors_at_1024_against_the_cycle_formula():
    """The res and norm-one tori over (Z/2048)^x, rank 1024 and 1023, at every
    p <= 200 against the closed form of a permutation lattice in
    tests/support.py, in a fresh process.  canonical_coefficients(t, 3) reads
    one Frobenius class; it took 0.14 s for the res torus (13.6 s when it
    built every characteristic polynomial by Newton's identities; Python 3.11,
    a shared 2-vCPU machine), and must stay under 5 s."""
    in_child(_cycle_formula_at_1024)


def _characters_against_the_oracle():
    for n, g, rho in ((5400, None, None), (1001, None, None),
                      (8192, 5 ** 16, 0.2738445315622362),
                      (2 ** 17, 5 ** 32, 0.2423904957398425)):
        start = perf_counter()
        datum = AbelianGaloisDatum(n, None if g is None else {pow(g, i, n) for i in range(n)})
        count = per_unit_character_check(datum)
        checked = perf_counter()
        line = f"{datum!r}: {count} characters match the oracle in {checked - start:.2f} s"
        if rho is not None:
            got = residue(make_torus(datum, "res")).rho
            assert got == rho, (n, got)
            line += f", res torus rho = {got!r} in {perf_counter() - checked:.2f} s"
        print(line)


def test_characters_against_the_per_unit_oracle_up_to_phi_65536():
    """tests/support.py spreads each character over the units mod n by a coset
    walk and reads conductor, parity, values and primitive exponents off that
    table; tier-1 runs it up to n = 8192.  Here on (Z/5400)^x (|G| = 1440),
    (Z/1001)^x (|G| = 720), (Z/8192)^x/<5^16> and (Z/2^17)^x/<5^32>
    (|G| = 32 and 64), and rho of the res tori over the last two is pinned.
    Measured 10.8, 2.0, 0.3 and 11.3 s, the two residues 0.00 and 0.03 s
    (Python 3.11, a shared 2-vCPU machine); must stay under 60 s in a fresh
    process."""
    _, took, _ = in_child(_characters_against_the_oracle)
    assert took < 60, took


def _rebuild_times():
    for n in (1001, 4095):
        start = perf_counter()
        first = AbelianGaloisDatum(n)
        built = perf_counter() - start
        abelian_decomposition(first.group)
        start = perf_counter()
        second = AbelianGaloisDatum(n)
        rebuilt = perf_counter() - start
        start = perf_counter()
        dec = abelian_decomposition(second.group)
        cached = perf_counter() - start
        print(f"{second!r}: first build {built:.3f} s, second {rebuilt * 1e3:.3f} ms, "
              f"cached abelian_decomposition {cached * 1e3:.3f} ms")
        assert second.group is first.group, n
        assert dec is abelian_decomposition(first.group), n
        assert rebuilt < 0.01 and cached < 0.01, (n, rebuilt, cached)


def test_rebuilt_data_share_their_group_at_720_and_1728():
    """(Z/1001)^x and (Z/4095)^x, in a fresh process: the first
    AbelianGaloisDatum builds and validates the |G|^2 table, a second one with
    the same modulus must return the identical group, and a cached
    abelian_decomposition on it must compare identity instead of the whole
    table.  The second build and the cached decomposition must each take
    under 10 ms, and the whole check under 60 s."""
    _, took, _ = in_child(_rebuild_times)
    assert took < 60, took
