"""Each bound a CLI input can cross ends in a refusal, in bounded time."""

import json
import os
import subprocess
import sys
from time import perf_counter

import pytest

import toruskit

N, G = 2 ** 19, pow(5, 64, 2 ** 19)  # (Z/2^19)^x / <5^64>: |G| = 128, phi(n) = 262144
SPECS = {
    "n1.json": {"field": {"type": "cyclotomic", "modulus": 4}, "torus": {"type": "norm_one"}},
    "order.json": {"field": {"type": "abstract", "group": {"type": "cyclic", "n": 2049}},
                   "torus": {"type": "res"}},
    "modulus.json": {"field": {"type": "cyclotomic", "modulus": 1000001},
                     "torus": {"type": "norm_one"}},
    "dim.json": {"field": {"type": "cyclotomic", "modulus": 4},
                 "torus": {"type": "split", "dim": 2049}},
    "characters.json": {"field": {"type": "cyclotomic", "modulus": N, "subgroup": [
        pow(G, i, N) for i in range(2048)]}, "torus": {"type": "split", "dim": 1}},
}


@pytest.mark.parametrize("command", [
    "check-gm --points 1000001", "check-gm --pmax 10000001", "residue --prec 18 n1.json",
    "info order.json", "info modulus.json", "info dim.json", "residue characters.json"])
def test_refusal_exits_3_within_a_second(command, tmp_path):
    """One past each bound a CLI input can cross: quadrature points, pmax,
    --prec, the order of an abstract group, a cyclotomic modulus, a split
    torus's rank and the character table (|G| phi(n) exponents;
    (Z/2^19)^x/<5^64> has 128 x 262144, a 16 KB spec whose datum takes about
    0.14 s).  Each must exit 3 within 1 s in a fresh process, interpreter
    start and imports included."""
    for name, spec in SPECS.items():
        (tmp_path / name).write_text(json.dumps(spec), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(toruskit.__file__))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "toruskit.cli", *command.split()], cwd=tmp_path,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=10, env=dict(os.environ, PYTHONPATH=src))
    took = perf_counter() - start
    print(f"{command}: exit {proc.returncode} in {took * 1e3:.0f} ms, {proc.stderr}")
    assert proc.returncode == 3 and took < 1, (proc.returncode, took, proc.stderr)
