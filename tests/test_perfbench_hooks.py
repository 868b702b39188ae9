"""The benchmark's hooks into toruskit: the tracer wraps functions by name,
so every name must resolve, and the CLI must reproduce the golden stdout."""

import ast
import glob
import importlib
import importlib.util
import io
import json
import os
import sys

import pytest

import toruskit
from toruskit import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


def load_perfbench(path, name):
    if not os.path.exists(path):
        pytest.skip(f"perfbench/{os.path.basename(path)} is not in this checkout")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench(TRACER, "perfbench_tracer")


def test_tracer_targets_resolve():
    tracer = load_tracer()
    for mod_name, attr, *_ in tracer.FUNCTIONS:
        module = importlib.import_module("toruskit." + mod_name)
        assert callable(getattr(module, attr, None)), f"toruskit.{mod_name}.{attr}"
    for mod_name, cls_name, attr, *_ in tracer.METHODS:
        cls = getattr(importlib.import_module("toruskit." + mod_name), cls_name, None)
        assert cls is not None, f"toruskit.{mod_name}.{cls_name}"
        assert attr in cls.__dict__, f"toruskit.{mod_name}.{cls_name}.{attr}"


def test_every_lru_cache_is_module_level_and_registered():
    # The benchmark clears the caches that CacheRegistry finds among module
    # attributes before each cold query.  A cache on a method or a nested
    # function would survive that and make cold queries warm unnoticed.
    registered = {name for name, _ in load_tracer().CacheRegistry().caches}
    package = os.path.dirname(os.path.abspath(toruskit.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = "toruskit." + os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "attr", getattr(target, "id", None)) == "lru_cache":
                    assert node in tree.body, f"{module}.{node.name} is not module-level"
                    found.append(f"{module}.{node.name}")
    assert found
    assert set(found) <= registered, set(found) - registered


def test_cold_queries_rebuild_their_groups():
    # Cyclotomic quotients and the boundary chains are shared through
    # lru_caches, which the benchmark clears before each cold query.  An
    # intern table it cannot see (a module-level dict or a
    # WeakValueDictionary) would make the cold queries warm unnoticed: after
    # clear(), a rebuilt datum must have a new group.
    from toruskit.arith import AbelianGaloisDatum
    from toruskit.cohomology import _boundaries
    from toruskit.groups import abelian_decomposition

    caches = load_tracer().CacheRegistry()

    def build():
        group = AbelianGaloisDatum(15, [1, 4]).group
        return group, _boundaries(abelian_decomposition(group).orders, 1)

    first = build()
    assert all(a is b for a, b in zip(first, build()))
    caches.clear()
    again = build()
    assert all(a == b and a is not b for a, b in zip(first, again))


def test_cli_matches_golden_stdout(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads imports its siblings
    workloads = load_perfbench(WORKLOADS, "perfbench_workloads")
    paths = {}
    for key, (modulus, subgroup, torus) in workloads.CLI_SPECS.items():
        field = {"type": "cyclotomic", "modulus": modulus}
        if subgroup is not None:
            field["subgroup"] = list(subgroup)
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps({"field": field, "torus": torus}))
    with open(workloads.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    cases = [(sub, args) for sub, arg_lists in workloads.CLI_CASES.items()
             for args in arg_lists]
    assert sorted(workloads.cli_case_id(sub, args) for sub, args in cases) == sorted(golden)
    for sub, args in cases:
        out = io.StringIO()
        code = cli.main([sub] + [str(paths.get(a, a)) for a in args],
                        stdout=out, stderr=io.StringIO())
        assert (code, out.getvalue()) == (0, golden[workloads.cli_case_id(sub, args)])


_CLI_SUBCOMMANDS = ["info", "cohomology", "classify-real", "isogeny", "volumes", "residue",
                    "tamagawa", "check-gm"]


@pytest.mark.parametrize("sub", _CLI_SUBCOMMANDS)
def test_cli_subcommands_load_no_numpy(tmp_path, monkeypatch, sub):
    # Every subcommand runs without numpy: the first golden case of each,
    # through cli.main in a fresh interpreter, gives the golden stdout and
    # leaves no numpy module loaded.
    import subprocess

    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = load_perfbench(WORKLOADS, "perfbench_workloads")
    assert set(workloads.CLI_CASES) == set(_CLI_SUBCOMMANDS)
    args = workloads.CLI_CASES[sub][0]
    argv = [sub]
    for a in args:
        if a in workloads.CLI_SPECS:
            modulus, subgroup, torus = workloads.CLI_SPECS[a]
            field = {"type": "cyclotomic", "modulus": modulus}
            if subgroup is not None:
                field["subgroup"] = list(subgroup)
            path = tmp_path / f"{a}.json"
            path.write_text(json.dumps({"field": field, "torus": torus}))
            a = str(path)
        argv.append(a)
    code = ("import io, json, sys; from toruskit import cli; out = io.StringIO(); "
            f"status = cli.main({argv!r}, stdout=out, stderr=io.StringIO()); "
            "print(json.dumps([status, out.getvalue(), "
            "[m for m in sys.modules if m.split('.')[0] == 'numpy']]))")
    src = os.path.dirname(os.path.dirname(toruskit.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    with open(workloads.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)[workloads.cli_case_id(sub, args)]
    assert json.loads(proc.stdout) == [0, golden, []]
