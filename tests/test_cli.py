import io
import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from toruskit.arith import AbelianGaloisDatum, local_artin_factor
from toruskit.cli import main
from toruskit.tamagawa import canonical_coefficients, local_volume
from toruskit.tori import make_torus

from support import sieve_primes

GM = {"field": {"type": "cyclotomic", "modulus": 1},
      "torus": {"type": "split", "dim": 1}}
SO2 = {"field": {"type": "cyclotomic", "modulus": 4}, "torus": {"type": "so2"}}
QI_RES = {"field": {"type": "cyclotomic", "modulus": 4}, "torus": {"type": "res"}}
QI_N1 = {"field": {"type": "cyclotomic", "modulus": 4}, "torus": {"type": "norm_one"}}
SPLIT_SIGN = {"field": {"type": "cyclotomic", "modulus": 4},
              "torus": {"type": "product",
                        "factors": [{"type": "split", "dim": 1}, {"type": "so2"}]}}
ABSTRACT_KLEIN_N1 = {
    "field": {"type": "abstract",
              "group": {"type": "product",
                        "factors": [{"type": "cyclic", "n": 2},
                                    {"type": "cyclic", "n": 2}]}},
    "torus": {"type": "norm_one"}}
EXPLICIT = {"field": {"type": "cyclotomic", "modulus": 4},
            "torus": {"type": "lattice", "matrices": {"0": [[1]], "1": [[-1]]}}}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return json.loads(out)


def test_tamagawa_gm(tmp_path):
    payload = run_json(["tamagawa", write(tmp_path, "gm.json", GM)])
    assert payload["tau"] == "1"
    assert payload["h1_order"] == 1 and payload["sha2_order"] == 1
    assert payload["schema_version"] == 1


def test_tamagawa_abstract(tmp_path):
    payload = run_json(["tamagawa", write(tmp_path, "k.json", ABSTRACT_KLEIN_N1)])
    assert payload["tau"] == "2"
    assert payload["h1_order"] == 4 and payload["sha2_order"] == 2


def test_classify_real_so2(tmp_path):
    payload = run_json(["classify-real", write(tmp_path, "so2.json", SO2)])
    assert (payload["a"], payload["b"], payload["c"]) == (0, 0, 1)


def test_volumes_gm(tmp_path):
    payload = run_json(["volumes", "--pmax", "5", write(tmp_path, "gm.json", GM)])
    assert payload["lambda"] == {"2": "2", "3": "3/2", "5": "5/4"}
    assert payload["volume"]["5"] == "4/5"
    assert payload["ramified"] == []


def test_volumes_ramified_lambda_one(tmp_path):
    payload = run_json(["volumes", "--pmax", "5", write(tmp_path, "r.json", QI_RES)])
    assert payload["lambda"]["2"] == "1"
    assert "2" not in payload["volume"]
    assert payload["ramified"] == [2]


def count_local_factors(monkeypatch) -> list[int]:
    """The primes of every local factor evaluated, by patching each binding of
    ``_local_determinant``, the one cycle-exponent product behind every factor."""
    from toruskit import arith, tamagawa
    calls = []
    original = arith._local_determinant

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    for module in (arith, tamagawa):
        monkeypatch.setattr(module, "_local_determinant", counting)
    return calls


def test_volumes_one_local_factor_per_prime(tmp_path, monkeypatch):
    calls = count_local_factors(monkeypatch)
    payload = run_json(["volumes", "--pmax", "30", write(tmp_path, "r.json", QI_RES)])
    assert payload["volume"]["3"] == "8/9" and payload["lambda"]["3"] == "9/8"
    assert sorted(calls) == [int(p) for p in payload["volume"]]


def test_one_determinant_per_local_factor(monkeypatch):
    # canonical_coefficients evaluates each unramified prime's determinant
    # once and the ramified ones not at all; local_volume and
    # local_artin_factor take one each, also for a p that frobenius reads
    # through operator.index (a numpy int would overflow in p ** dim).
    t = make_torus(AbelianGaloisDatum(120, (1, 49)), "norm_one")
    calls = count_local_factors(monkeypatch)
    coeffs = canonical_coefficients(t, 2000)
    assert calls == [p for p in sieve_primes(2000) if 120 % p]
    for fn in (local_volume, local_artin_factor):
        for p in (1999, np.int64(1999)):
            calls.clear()
            value = fn(t, p)
            assert calls == [1999] and type(calls[0]) is int, (fn, p)
            assert value == (coeffs[1999] if fn is local_artin_factor else 1 / coeffs[1999])
            assert type(value.numerator) is int and type(value.denominator) is int


def test_check_gm_computes_no_local_factor(monkeypatch):
    # the coefficient-volume product is 1 by construction: --pmax is bounded
    # and echoed, but no prime's factor is evaluated
    calls = count_local_factors(monkeypatch)
    payload = run_json(["check-gm", "--pmax", "100"])
    assert payload["coefficient_volume_product"] == "1"
    assert calls == []


def test_residue(tmp_path):
    payload = run_json(["residue", "--prec", "12",
                        write(tmp_path, "n1.json", QI_N1)])
    assert payload["d"] == 0
    assert abs(float(payload["rho"]) - 0.7853981634) < 1e-9


def test_isogeny(tmp_path):
    a = write(tmp_path, "res.json", QI_RES)
    b = write(tmp_path, "ss.json", SPLIT_SIGN)
    payload = run_json(["isogeny", a, b])
    assert payload["isogenous"] is True
    payload = run_json(["isogeny", a, write(tmp_path, "n1.json", QI_N1)])
    assert payload["isogenous"] is False


def test_info(tmp_path):
    payload = run_json(["info", write(tmp_path, "res.json", QI_RES)])
    assert payload["dim"] == 2
    assert payload["split_rank"] == 1
    assert payload["anisotropic_rank"] == 1
    assert payload["character_table"] == [2, 0]


def test_cohomology_command(tmp_path):
    payload = run_json(["cohomology", "--q", "1", write(tmp_path, "n1.json", QI_N1)])
    assert payload["invariant_factors"] == [2]
    assert payload["free_rank"] == 0


def test_explicit_lattice(tmp_path):
    payload = run_json(["classify-real", write(tmp_path, "x.json", EXPLICIT)])
    assert (payload["a"], payload["b"], payload["c"]) == (0, 0, 1)


def test_check_gm():
    payload = run_json(["check-gm", "--pmax", "20"])
    assert payload["deviation"] <= 1e-3
    assert payload["coefficient_volume_product"] == "1"


def test_exit_2_on_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(["info", str(bad)])
    assert code == 2 and out == "" and "malformed" in err
    code, _, _ = run(["info", str(tmp_path / "missing.json")])
    assert code == 2
    wrong = write(tmp_path, "wrong.json", {"field": {"type": "q"}, "torus": {}})
    assert run(["info", wrong])[0] == 2
    kind = write(tmp_path, "kind.json", {"field": {"type": "cyclotomic", "modulus": 4},
                                         "torus": {"type": "spin"}})
    code, out, err = run(["info", kind])
    assert (code, out) == (2, "") and "malformed input: unknown torus type 'spin'" in err
    notrep = write(tmp_path, "notrep.json",
                   {"field": {"type": "cyclotomic", "modulus": 4},
                    "torus": {"type": "lattice", "matrices": {"0": [[1]], "1": [[2]]}}})
    assert run(["info", notrep])[0] == 2
    zero = write(tmp_path, "zero.json", {"field": {"type": "cyclotomic", "modulus": 0},
                                         "torus": {"type": "res"}})
    for sub in ("info", "tamagawa"):
        code, out, err = run([sub, zero])
        assert code == 2 and out == "" and "modulus" in err
    # Non-integer numbers are refused, not truncated.
    for field, torus in (({"type": "cyclotomic", "modulus": 7.5}, {"type": "res"}),
                         ({"type": "cyclotomic", "modulus": 15, "subgroup": [1, 4.0]},
                          {"type": "res"}),
                         ({"type": "cyclotomic", "modulus": 5}, {"type": "split", "dim": 2.9}),
                         ({"type": "abstract", "group": {"type": "cyclic", "n": 2.7}},
                          {"type": "res"}),
                         ({"type": "abstract", "group": {"type": "cyclotomic", "modulus": 7.5}},
                          {"type": "res"})):
        spec = write(tmp_path, "real.json", {"field": field, "torus": torus})
        code, out, err = run(["info", spec])
        assert code == 2 and out == "" and "malformed" in err
    # JSON booleans are not integers, though Python reads true as 1.
    for field, torus in (({"type": "cyclotomic", "modulus": True}, {"type": "res"}),
                         ({"type": "cyclotomic", "modulus": 5}, {"type": "split", "dim": True}),
                         ({"type": "abstract", "group": {"type": "cyclic", "n": True}},
                          {"type": "res"}),
                         ({"type": "cyclotomic", "modulus": 15, "subgroup": [True]},
                          {"type": "res"}),
                         ({"type": "abstract", "group": {"type": "cyclotomic", "modulus": 15,
                                                         "subgroup": [True]}},
                          {"type": "res"}),
                         ({"type": "cyclotomic", "modulus": 4},
                          {"type": "lattice", "matrices": [[[True]], [[True]]]})):
        spec = write(tmp_path, "bool.json", {"field": field, "torus": torus})
        code, out, err = run(["info", spec])
        assert code == 2 and out == "" and "malformed" in err
    for group in ([1], {"type": "product", "factors": ["x"]}):
        spec = write(tmp_path, "group.json", {"field": {"type": "abstract", "group": group},
                                              "torus": {"type": "res"}})
        code, out, err = run(["info", spec])
        assert code == 2 and out == "" and "malformed" in err


def test_exit_2_on_malformed_input_whose_valid_twin_is_cached(tmp_path):
    # The cyclotomic quotients are cached on (n, H); a key is made only from
    # values already read as integers, so 4.0, 15.0 and true never find the
    # cached 4, 15 and 1.  An abstract cyclic n of 2.0 or true is refused too.
    for field in ({"type": "cyclotomic", "modulus": 15, "subgroup": [1, 4]},
                  {"type": "cyclotomic", "modulus": 1},
                  {"type": "cyclotomic", "modulus": 15},
                  {"type": "abstract", "group": {"type": "cyclotomic", "modulus": 15,
                                                 "subgroup": [1, 4]}},
                  {"type": "abstract", "group": {"type": "cyclic", "n": 2}},
                  {"type": "abstract", "group": {"type": "cyclic", "n": 1}}):
        spec = write(tmp_path, "valid.json", {"field": field, "torus": {"type": "res"}})
        assert run(["info", spec])[0] == 0
    for field in ({"type": "cyclotomic", "modulus": 15, "subgroup": [1, 4.0]},
                  {"type": "cyclotomic", "modulus": 15, "subgroup": [True, 4]},
                  {"type": "cyclotomic", "modulus": True},
                  {"type": "cyclotomic", "modulus": 15.0},
                  {"type": "abstract", "group": {"type": "cyclotomic", "modulus": 15,
                                                 "subgroup": [1, 4.0]}},
                  {"type": "abstract", "group": {"type": "cyclic", "n": 2.0}},
                  {"type": "abstract", "group": {"type": "cyclic", "n": True}}):
        spec = write(tmp_path, "twin.json", {"field": field, "torus": {"type": "res"}})
        code, out, err = run(["info", spec])
        assert code == 2 and out == "" and "malformed" in err, field


def test_exit_2_on_deeply_nested_input(tmp_path):
    # Both exceed the interpreter's recursion limit while the spec is read.
    product = ('{"field": {"type": "cyclotomic", "modulus": 4}, "torus": '
               + '{"type": "product", "factors": [' * 500 + '{"type": "split", "dim": 1}'
               + ']}' * 500 + '}')
    for name, text in (("product.json", product), ("array.json", "[" * 100000 + "]" * 100000)):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(["info", str(path)])
        assert code == 2 and out == "" and "malformed input" in err


def test_exit_2_on_bad_usage():
    code, _, _ = run(["no-such-command"])
    assert code == 2


def test_usage_and_help_go_to_the_given_streams(capsys):
    # argparse writes usage errors to sys.stderr and --help to sys.stdout;
    # main hands it the streams it was given.
    code, out, err = run(["cohomology", "--q", "x", "f.json"])
    assert (code, out) == (2, "") and err.startswith("usage: toruskit cohomology"), err
    assert "argument --q: invalid int value: 'x'" in err
    code, out, err = run(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: toruskit"), out
    assert capsys.readouterr() == ("", "")


def test_exit_3_on_unsupported(tmp_path):
    path = write(tmp_path, "abs.json", ABSTRACT_KLEIN_N1)
    code, out, err = run(["residue", path])
    assert code == 3 and "unsupported" in err
    assert run(["volumes", path])[0] == 3


@pytest.mark.parametrize("argv", [
    ["volumes", "--pmax", "10000000000000", "GM"],
    ["check-gm", "--pmax", "10000000000000"],
    ["check-gm", "--points", "1000000000"],
], ids=["volumes-pmax", "check-gm-pmax", "check-gm-points"])
def test_exit_3_on_numeric_inputs_past_their_bounds(tmp_path, argv):
    # Each would otherwise allocate a sieve or a quadrature grid of that size.
    argv = [write(tmp_path, "gm.json", GM) if a == "GM" else a for a in argv]
    code, out, err = run(argv)
    assert (code, out) == (3, "")
    assert err.startswith("unsupported request:") and err.count("\n") == 1, err


def _split(dim):
    return {"type": "split", "dim": dim}


@pytest.mark.parametrize("torus", [
    _split(10 ** 9),
    {"type": "product", "factors": [_split(2048), _split(2048)]},
], ids=["split", "product"])
def test_exit_3_on_lattice_rank_past_the_bound(tmp_path, monkeypatch, torus):
    # A rank past ORDER_LIMIT (2048) is refused before a matrix of that size is
    # built: a 60-byte spec used to ask for a 10^9 x 10^9 identity.
    from toruskit import linalg
    from toruskit.groups import ORDER_LIMIT

    eye = linalg.eye

    def bounded_eye(n):
        assert n <= ORDER_LIMIT, f"eye({n}) was built"
        return eye(n)

    monkeypatch.setattr(linalg, "eye", bounded_eye)
    path = write(tmp_path, "big.json", {"field": {"type": "cyclotomic", "modulus": 4},
                                        "torus": torus})
    start = time.perf_counter()
    code, out, err = run(["info", path])
    assert (code, out) == (3, "") and time.perf_counter() - start < 5
    assert err.startswith("unsupported request:") and "rank is bounded by 2048" in err, err


def test_lattice_rank_at_the_bound_builds(tmp_path):
    path = write(tmp_path, "split.json", {"field": {"type": "cyclotomic", "modulus": 4},
                                          "torus": _split(2048)})
    payload = run_json(["info", path])
    assert (payload["dim"], payload["split_rank"]) == (2048, 2048)


@pytest.mark.parametrize("prec, want", [(10 ** 9, 3), (18, 3), (0, 2), (-1, 2)])
def test_residue_precision_is_bounded(tmp_path, monkeypatch, prec, want):
    # A double carries at most 17 significant digits; --prec 10^9 used to
    # format a buffer of a gigabyte.  The refusal comes before the spec is
    # even read.
    from toruskit import cli

    def unread(_path):
        raise AssertionError("the torus was loaded")

    monkeypatch.setattr(cli, "load_torus", unread)
    code, out, err = run(["residue", "--prec", str(prec), write(tmp_path, "n1.json", QI_N1)])
    assert (code, out) == (want, "") and err.count("\n") == 1, err
    assert err.startswith("unsupported request:" if want == 3 else "malformed input:"), err


def test_residue_precision_limit_is_accepted(tmp_path):
    path = write(tmp_path, "n1.json", QI_N1)
    assert run_json(["residue", "--prec", "17", path])["rho"] == "0.78539816339744828"
    assert run_json(["residue", path])["rho"] == "0.785398163397448"


def test_info_refuses_a_modulus_past_its_bound_at_once(tmp_path):
    # (Z/1000003)^x has order 1000002: its table would have 10^12 entries.
    spec = {"field": {"type": "cyclotomic", "modulus": 1000003}, "torus": {"type": "res"}}
    start = time.perf_counter()
    code, out, err = run(["info", write(tmp_path, "big.json", spec)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "") and err.startswith("unsupported request:"), err


def test_exit_4_on_internal_invariant_violation(tmp_path, monkeypatch):
    from toruskit import cli
    from toruskit.errors import InternalInvariantError

    def boom(_torus):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli, "rank_profile", boom)
    code, out, err = run(["info", write(tmp_path, "gm.json", GM)])
    assert code == 4 and out == "" and "invariant" in err


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    import toruskit
    src = os.path.dirname(os.path.dirname(toruskit.__file__))
    path = write(tmp_path, "gm.json", GM)
    # console_main exits with main's code, and writes what main writes in-process
    for argv in (["tamagawa", path], ["tamagawa"]):
        proc = subprocess.run([sys.executable, "-m", "toruskit.cli"] + argv,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout, proc.stderr) == run(argv)
    assert json.loads(run(["tamagawa", path])[1])["tau"] == "1"
    code, out, err = run(["tamagawa"])
    assert (code, out) == (2, "") and err.startswith("usage: toruskit tamagawa"), err


def test_deterministic_output(tmp_path):
    files = {
        "gm.json": GM, "so2.json": SO2, "res.json": QI_RES, "n1.json": QI_N1,
        "abs.json": ABSTRACT_KLEIN_N1,
    }
    paths = {name: write(tmp_path, name, payload) for name, payload in files.items()}
    commands = [
        ["info", paths["res.json"]],
        ["cohomology", "--q", "2", paths["n1.json"]],
        ["classify-real", paths["so2.json"]],
        ["isogeny", paths["res.json"], paths["n1.json"]],
        ["volumes", "--pmax", "30", paths["res.json"]],
        ["residue", paths["n1.json"]],
        ["tamagawa", paths["abs.json"]],
        ["check-gm", "--pmax", "30"],
    ]
    first = [run(argv) for argv in commands]
    second = [run(argv) for argv in commands]
    assert first == second
    for code, out, _ in first:
        assert code == 0
        assert out.encode() == out.encode()  # bytes stable under encoding
        json.loads(out)  # every payload is a single valid JSON object


# Every slot of a spec takes any JSON value or a near-valid one.  Inputs stay
# small so that a valid spec computes in milliseconds: moduli <= 64, cyclic
# n <= 8, abstract groups of order <= 64 when valid, at most 3 factors,
# dim <= 3, --pmax <= 300, --points <= 101.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
SUBGROUPS = st.none() | st.just([1, -1]) | st.lists(st.integers(-1, 64), max_size=4)


@st.composite
def slot(draw, near):
    """A near-valid value, and one time in sixteen any JSON value instead."""
    return draw(JSON if draw(st.integers(0, 15)) == 0 else near)


@st.composite
def abstract_groups(draw, order=64):
    """A group descriptor; a valid one has order at most ``order``."""
    kind = draw(st.sampled_from(("cyclic", "cyclotomic", "product")))
    if kind == "cyclic":
        return {"type": kind, "n": draw(slot(st.integers(-1, min(order, 8))))}
    if kind == "cyclotomic":  # |(Z/m)^x| < m for m >= 2
        spec = {"type": kind, "modulus": draw(slot(st.integers(-1, min(order + 1, 64))))}
        if draw(st.booleans()):
            spec["subgroup"] = draw(slot(SUBGROUPS))
        return spec
    k = draw(st.integers(0, 3))  # k factors of order at most order^(1/k) each
    return {"type": kind, "factors": draw(st.lists(
        slot(abstract_groups(round(order ** (1 / max(k, 1))))), min_size=k, max_size=k))}


FIELDS = slot(
    st.builds(lambda m, h: {"type": "cyclotomic", "modulus": m, "subgroup": h},
              slot(st.integers(-1, 64)), slot(SUBGROUPS))
    | st.builds(lambda g: {"type": "abstract", "group": g}, slot(abstract_groups())))


@st.composite
def matrices(draw):
    rank = draw(st.integers(0, 2))
    entries = st.lists(st.lists(slot(st.integers(-2, 2)), min_size=rank, max_size=rank),
                       min_size=rank, max_size=rank)
    eye = [[int(i == j) for j in range(rank)] for i in range(rank)]
    pool = st.sampled_from([eye, [[-x for x in row] for row in eye]]) | entries
    mats = draw(st.lists(slot(pool), max_size=4))
    if draw(st.booleans()):  # the dict form, keyed by element
        return {str(g): m for g, m in enumerate(mats)}
    return mats


@st.composite
def tori(draw, depth=0):
    kind = draw(st.sampled_from(("split", "res", "norm_one", "so2", "product", "lattice")))
    if kind == "split":
        return {"type": kind, "dim": draw(slot(st.integers(-1, 3)))}
    if kind == "product" and depth == 0:
        return {"type": kind, "factors": draw(st.lists(slot(tori(depth + 1)), max_size=3))}
    if kind == "lattice":
        return {"type": kind, "matrices": draw(slot(matrices()))}
    return {"type": kind}


SPECS = slot(st.fixed_dictionaries({"field": FIELDS, "torus": slot(tori())}))


@st.composite
def cli_calls(draw, path_a, path_b):
    """(argv, {path: spec}) for one of the eight subcommands."""
    command = draw(st.sampled_from(("info", "cohomology", "classify-real", "isogeny",
                                    "volumes", "residue", "tamagawa", "check-gm")))
    if command == "check-gm":
        return [command, "--pmax", str(draw(st.integers(-1, 300))),
                "--points", str(draw(st.integers(-1, 101)))], {}
    specs = {path_a: draw(SPECS)}
    argv = [command, path_a]
    if command == "isogeny":
        specs[path_b] = draw(SPECS)
        argv.append(path_b)
    elif command == "cohomology":
        argv += ["--q", draw(st.sampled_from(("-1", "0", "1", "2", "3", "x")))]
    elif command == "volumes":
        argv += ["--pmax", str(draw(st.integers(-1, 300)))]
    elif command == "residue":
        argv += ["--prec", str(draw(st.integers(-1, 20)))]
    return argv, specs


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
@settings(deadline=None, max_examples=500, suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz_exits_0_2_or_3(fuzz_dir, data):
    # Any exit 4 or escaping exception is a reader bug: malformed input exits
    # 2 and a request past a bound 3.
    argv, specs = data.draw(cli_calls(str(fuzz_dir / "a.json"), str(fuzz_dir / "b.json")))
    for path, spec in specs.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
    code, _, err = run(argv)
    assert code in (0, 2, 3), (argv, specs, err)
