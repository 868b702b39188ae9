import io
import json

from toruskit.cli import main

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
    """The primes of every local factor the tamagawa module evaluates, by the
    public ``local_artin_factor`` or by the Horner helper behind it."""
    from toruskit import tamagawa
    calls = []
    for name in ("local_artin_factor", "_artin_factor"):
        original = getattr(tamagawa, name)

        def counting(*args, original=original):
            calls.append(args[-1])
            return original(*args)

        monkeypatch.setattr(tamagawa, name, counting)
    return calls


def test_volumes_one_local_factor_per_prime(tmp_path, monkeypatch):
    calls = count_local_factors(monkeypatch)
    payload = run_json(["volumes", "--pmax", "30", write(tmp_path, "r.json", QI_RES)])
    assert payload["volume"]["3"] == "8/9" and payload["lambda"]["3"] == "9/8"
    assert sorted(calls) == [int(p) for p in payload["volume"]]


def test_check_gm_one_local_factor_per_prime(monkeypatch):
    calls = count_local_factors(monkeypatch)
    payload = run_json(["check-gm", "--pmax", "100"])
    assert payload["coefficient_volume_product"] == "1"
    assert len(calls) == 25 and len(set(calls)) == 25


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


def test_exit_3_on_unsupported(tmp_path):
    path = write(tmp_path, "abs.json", ABSTRACT_KLEIN_N1)
    code, out, err = run(["residue", path])
    assert code == 3 and "unsupported" in err
    assert run(["volumes", path])[0] == 3


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
    proc = subprocess.run([sys.executable, "-m", "toruskit.cli", "tamagawa", path],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tau"] == "1"


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
