"""Batch front-end: read a torus spec file, run one computation, print JSON.

Exit codes: 0 success, 2 malformed input, 3 unsupported request (ramified
volume, nonabelian or missing arithmetic datum, a group order, a lattice
rank, a modulus, ``--pmax``, ``--points``, ``--prec`` or a character table
past its bound), 4 internal invariant violation.  Output is a single JSON
object with stable key order, ``schema_version`` first; rationals are
serialized as "num/den" strings so nothing is truncated.  ``main`` writes all of it, and every
usage, error and ``--help`` line, to the streams it is given.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from .arith import AbelianGaloisDatum, _coprime_fraction, residue
from .cohomology import cohomology, sha2_cyclic
from .errors import (InternalInvariantError, RamifiedPrimeError,
                     UnsupportedRequestError)
from .groups import make_group
from .lattices import trace_character
from .linalg import bounded
from .tamagawa import canonical_coefficients, gm_adelic_check, tamagawa_number
from .tori import Torus, classify_real, isogenous, make_torus, rank_profile

SCHEMA_VERSION = 1
PREC_LIMIT = 17  # significant digits a double carries; more would only pad


def _rat(x: Fraction) -> str:
    return str(Fraction(x))


def load_splitting(spec: dict):
    kind = spec["type"]
    if kind == "cyclotomic":
        return AbelianGaloisDatum(spec["modulus"], spec.get("subgroup"))
    if kind == "abstract":
        return make_group(spec["group"])
    raise ValueError(f"unknown field type {kind!r}")


def build_torus(splitting, spec: dict) -> Torus:
    kind = spec["type"]
    if kind == "split":
        return make_torus(splitting, "split", dim=spec["dim"])
    if kind in ("res", "norm_one", "so2"):
        return make_torus(splitting, kind)
    if kind == "product":
        factors = [build_torus(splitting, s) for s in spec["factors"]]
        return make_torus(splitting, "product", factors=factors)
    if kind == "lattice":
        mats = spec["matrices"]
        if isinstance(mats, dict):
            order = len(mats)
            mats = [mats[str(g)] for g in range(order)]
        return make_torus(splitting, "lattice", matrices=mats)
    raise ValueError(f"unknown torus type {kind!r}")


def load_torus(path: str) -> Torus:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        return build_torus(load_splitting(spec["field"]), spec["torus"])
    except RecursionError:  # JSON or descriptors nested past the recursion limit
        raise ValueError("spec is nested too deeply") from None


def cmd_info(args) -> dict:
    t = load_torus(args.file)
    profile = rank_profile(t)
    return {
        "group_order": t.group.order,
        "group_label": t.group.label,
        "dim": profile.dim,
        "split_rank": profile.split_rank,
        "anisotropic_rank": profile.anisotropic_rank,
        "character_table": list(trace_character(t.X)),
    }


def cmd_cohomology(args) -> dict:
    t = load_torus(args.file)
    h = cohomology(t.group, t.X, args.q)
    return {
        "q": args.q,
        "free_rank": h.free_rank,
        "invariant_factors": list(h.torsion),
        "group": str(h),
    }


def cmd_classify_real(args) -> dict:
    t = load_torus(args.file)
    cls = classify_real(t)
    return {"a": cls.a, "b": cls.b, "c": cls.c}


def cmd_isogeny(args) -> dict:
    t1 = load_torus(args.file_a)
    t2 = load_torus(args.file_b)
    return {"isogenous": isogenous(t1, t2)}


def cmd_volumes(args) -> dict:
    t = load_torus(args.file)
    coeffs = canonical_coefficients(t, args.pmax)
    ramified = t.splitting.ramified
    # each volume is its coefficient's coprime pair swapped: no second gcd
    volumes = {str(p): _rat(_coprime_fraction(coeffs[p].denominator, coeffs[p].numerator))
               for p in sorted(coeffs) if p not in ramified}
    return {
        "pmax": args.pmax,
        "ramified": sorted(ramified),
        "lambda": {str(p): _rat(v) for p, v in sorted(coeffs.items())},
        "volume": volumes,
    }


def cmd_residue(args) -> dict:
    prec = bounded(args.prec, 1, PREC_LIMIT, "--prec")
    t = load_torus(args.file)
    result = residue(t)
    return {"d": result.d, "rho": f"{result.rho:.{prec}g}"}


def cmd_tamagawa(args) -> dict:
    t = load_torus(args.file)
    tau = tamagawa_number(t)
    h1 = cohomology(t.group, t.X, 1)
    sha = sha2_cyclic(t.group, t.X)
    return {
        "tau": _rat(tau),
        "numerator": tau.numerator,
        "denominator": tau.denominator,
        "h1_order": h1.order(),
        "sha2_order": sha.order(),
    }


def cmd_check_gm(args) -> dict:
    result = gm_adelic_check(args.pmax, args.points)
    return {
        "pmax": args.pmax,
        "tau_hat": result.tau_hat,
        "deviation": result.deviation,
        "coefficient_volume_product": _rat(result.coefficient_volume_product),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruskit",
        description="exact invariants of algebraic tori presented as Galois lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dimension, rank profile and lattice character")
    p.add_argument("file")
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser("cohomology", help="invariant factors of H^q of the character lattice")
    p.add_argument("file")
    p.add_argument("--q", type=int, choices=(0, 1, 2), required=True)
    p.set_defaults(handler=cmd_cohomology)

    p = sub.add_parser("classify-real", help="real-points classification (a, b, c)")
    p.add_argument("file")
    p.set_defaults(handler=cmd_classify_real)

    p = sub.add_parser("isogeny", help="decide isogeny of two tori")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(handler=cmd_isogeny)

    p = sub.add_parser("volumes", help="canonical coefficients and local volumes")
    p.add_argument("file")
    p.add_argument("--pmax", type=int, default=100)
    p.set_defaults(handler=cmd_volumes)

    p = sub.add_parser("residue", help="residue of the lattice L-function at s=1")
    p.add_argument("file")
    p.add_argument("--prec", type=int, default=15)
    p.set_defaults(handler=cmd_residue)

    p = sub.add_parser("tamagawa", help="tau_omega = #H^1 / #Sha^2_omega (kernel of restriction to "
                       "cyclic subgroups); Ono's tau if every decomposition group is cyclic")
    p.add_argument("file")
    p.set_defaults(handler=cmd_tamagawa)

    p = sub.add_parser("check-gm", help="numeric adelic verification for the multiplicative group")
    p.add_argument("--pmax", type=int, default=100)
    p.add_argument("--points", type=int, default=2001)
    p.set_defaults(handler=cmd_check_gm)

    return parser


def main(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:  # usage errors and --help go to the given streams too
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
    except (UnsupportedRequestError, RamifiedPrimeError) as exc:
        err.write(f"unsupported request: {exc}\n")
        return 3
    except InternalInvariantError as exc:
        err.write(f"internal invariant violation: {exc}\n")
        return 4
    except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError) as exc:
        err.write(f"malformed input: {exc}\n")
        return 2
    out.write(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2) + "\n")
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
