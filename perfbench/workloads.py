"""The four benchmark workloads: their inputs, queries and answer checks.

Each workload is built from a seed.  A query is a closure that calls the
package and returns its answer as plain data; ``check`` compares that answer
with ``oracles`` (or, for the CLI, with golden stdout), never with the
package itself.  Why each workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import median
from typing import Callable

import oracles as orc
from refclock import Interval

HERE = os.path.dirname(os.path.abspath(__file__))
SQUARES_840 = (1, 121, 169, 289, 361, 529)  # squares in (Z/840)^x, |G| = 32


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    tag: str = ""
    info: dict = field(default_factory=dict)


def build_torus(tk, modulus, subgroup, kind):
    """``kind`` is split<d>, res, norm_one, so2, or a +-joined product."""
    datum = tk.AbelianGaloisDatum(modulus, subgroup)
    parts = []
    for part in kind.split("+"):
        if part.startswith("split"):
            parts.append(tk.make_torus(datum, "split", dim=int(part[5:])))
        else:
            parts.append(tk.make_torus(datum, part))
    if len(parts) == 1:
        return parts[0]
    return tk.make_torus(datum, "product", factors=parts)


def _fg(h):
    return h.free_rank, tuple(h.torsion)


_GROUPS: dict = {}


def coset_group(modulus, subgroup):
    key = (modulus, subgroup)
    if key not in _GROUPS:
        _GROUPS[key] = orc.CosetGroup(modulus, subgroup)
    return _GROUPS[key]


def factors_of(modulus, subgroup):
    return tuple(coset_group(modulus, subgroup).primary_factors())


# ------------------------------------------------------------ cold_tamagawa

COLD_TAMAGAWA = [
    # |G| = 2, quadratic data
    (4, None, "norm_one"), (8, (1, 3), "norm_one"), (12, (1, 5), "norm_one"),
    # |G| = 4
    (5, None, "norm_one"), (12, None, "norm_one"), (16, (1, 7), "norm_one"),
] + [
    # |G| = 8, three times each (see ColdTamagawa)
    (15, None, "norm_one"), (24, None, "norm_one"), (40, (1, 9), "norm_one"),
    (60, (1, 49), "norm_one"),
] * 3 + [
    # |G| = 16: the tau = 1/4 witness first
    (120, (1, 49), "norm_one"), (17, None, "norm_one"), (32, None, "norm_one"),
    (40, None, "norm_one"), (48, None, "norm_one"),
    (120, (1, 49), "res"),
    (15, None, "norm_one+res+split1"),
]


class ColdTamagawa:
    """Cold `tamagawa` queries: build, tamagawa_number, H^1 and Sha^2.

    The |G| = 8 tori come three times per round, so the median query falls in
    the middle of twelve like queries instead of on one query of a short
    cluster, whose single timings vary by half on a shared machine.
    """

    name = "cold_tamagawa"
    cold = True
    round_s = 21.0  # one round at the defining commit, reference machine
    time_limit_s = 120.0

    def __init__(self, tk, seed, small, workdir):
        self.tk = tk
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = [x for x in COLD_TAMAGAWA
                       if not small or coset_group(x[0], x[1]).order <= 8]

    def _query(self, modulus, subgroup, kind):
        tk = self.tk
        order = coset_group(modulus, subgroup).order

        def run():
            t = build_torus(tk, modulus, subgroup, kind)
            tau = tk.tamagawa_number(t)
            h1 = tk.cohomology(t.group, t.X, 1)
            sha = tk.sha2_cyclic(t.group, t.X)
            return str(tau), h1.order(), sha.order()

        def check(answer):
            f = factors_of(modulus, subgroup)
            want = (str(orc.torus_tau(kind, f)),
                    orc.finite_order(orc.torus_h(kind, f, 1)),
                    orc.finite_order(orc.torus_sha2(kind, f)))
            if (modulus, subgroup, kind) == (120, (1, 49), "norm_one") and want[0] != "1/4":
                return False
            return answer == want

        return Query(f"tamagawa {modulus}/{subgroup} {kind}", run, check,
                     "g16" if order == 16 else "")

    def round(self):
        order = list(self.inputs)
        self.rng.shuffle(order)
        return [self._query(*x) for x in order]

    def trace_queries(self):
        return self.round()

    def extra_metrics(self, records):
        g16 = [r.seconds for r in records if r.query.tag == "g16"]
        return {"g16_tau_s": (median(g16), "s", len(g16))} if g16 else {}


# ------------------------------------------------------------ euler_sweep

EULER = [
    ("volumes", 120, (1, 49), "norm_one", 20000),
    ("volumes", 17, None, "norm_one", 20000),
    ("volumes", 15, None, "res", 20000),
    ("volumes", 4, None, "norm_one", 20000),
    ("volumes", 840, SQUARES_840, "norm_one", 2000),
    ("residue", 840, SQUARES_840, "norm_one", 0),
    ("residue", 4, None, "norm_one", 0),
    ("check_gm", 1, None, "split1", 10000),
]


class EulerSweep:
    """Cold `volumes`, `residue` and `check-gm` queries; H^2 is never computed."""

    name = "euler_sweep"
    cold = True
    round_s = 17.0  # one round at the defining commit, reference machine
    time_limit_s = 60.0

    def __init__(self, tk, seed, small, workdir):
        self.tk = tk
        self.rng = random.Random(f"{self.name}:{seed}")
        if small:
            self.inputs = [(kind, n, h, tk_kind, min(pmax, 300))
                           for kind, n, h, tk_kind, pmax in EULER if n != 840]
        else:
            self.inputs = list(EULER)

    def _query(self, what, modulus, subgroup, kind, pmax):
        tk = self.tk
        group = coset_group(modulus, subgroup)
        if what == "volumes":
            def run():
                t = build_torus(tk, modulus, subgroup, kind)
                coeffs = tk.canonical_coefficients(t, pmax)
                ramified = t.splitting.ramified
                volumes = {p: tk.local_volume(t, p) for p in sorted(coeffs) if p not in ramified}
                return coeffs, volumes

            def check(answer):
                coeffs, volumes = answer
                want = orc.canonical_coefficients(kind, group, pmax)
                return coeffs == want and volumes == {
                    p: 1 / lam for p, lam in want.items() if modulus % p}

            q = Query(f"volumes {modulus}/{subgroup} {kind} pmax={pmax}", run, check, "volumes")
            q.info["primes"] = sum(1 for p in orc.primes_up_to(pmax) if modulus % p)
            return q
        if what == "residue":
            def run():
                r = tk.residue(build_torus(tk, modulus, subgroup, kind))
                return r.rho, r.d

            def check(answer):
                rho, d = answer
                want = orc.norm_one_residue(group)
                if modulus == 4 and abs(want - 3.141592653589793 / 4) > 1e-12:
                    return False
                return d == 0 and abs(rho - want) <= 1e-9 * want

            return Query(f"residue {modulus}/{subgroup} {kind}", run, check)

        def run():
            r = tk.gm_adelic_check(pmax)
            return r.tau_hat, r.deviation, r.coefficient_volume_product

        def check(answer):
            tau_hat, deviation, product = answer
            return product == Fraction(1) and deviation < 1e-6 \
                and deviation == abs(tau_hat - 1.0)

        return Query(f"check-gm pmax={pmax}", run, check)

    def round(self):
        order = list(self.inputs)
        self.rng.shuffle(order)
        return [self._query(*x) for x in order]

    def trace_queries(self):
        return self.round()

    def extra_metrics(self, records):
        vol = [r for r in records if r.query.tag == "volumes"]
        if not vol:
            return {}
        primes = sum(r.query.info["primes"] for r in vol)
        return {"volumes_primes_per_s": (primes / sum(r.seconds for r in vol), "1/s", len(vol))}


# ------------------------------------------------------------ cli_cold

CLI_SPECS = {
    "gm": (1, None, {"type": "split", "dim": 1}),
    "gauss_n1": (4, None, {"type": "norm_one"}),
    "gauss_res": (4, None, {"type": "res"}),
    "gauss_so2": (4, None, {"type": "so2"}),
    "gauss_split_so2": (4, None, {"type": "product",
                                  "factors": [{"type": "split", "dim": 1}, {"type": "so2"}]}),
    "c5_n1": (5, None, {"type": "norm_one"}),
    "c12_res": (12, None, {"type": "res"}),
    "c12_n1": (12, None, {"type": "norm_one"}),
    "c15_n1": (15, None, {"type": "norm_one"}),
    "c24_n1": (24, None, {"type": "norm_one"}),
}

# subcommand -> argument lists; names in CLI_SPECS stand for spec files
CLI_CASES = {
    "info": [["gauss_n1"], ["c12_res"], ["c15_n1"]],
    "cohomology": [["--q", "1", "c24_n1"], ["--q", "2", "c15_n1"], ["--q", "2", "c12_n1"]],
    "classify-real": [["gauss_so2"], ["gauss_n1"], ["gm"]],
    "isogeny": [["gauss_res", "gauss_split_so2"], ["c12_res", "c12_n1"],
                ["gauss_so2", "gauss_n1"]],
    "volumes": [["--pmax", "100", "gm"], ["--pmax", "100", "c12_res"],
                ["--pmax", "100", "c15_n1"]],
    "residue": [["gauss_n1"], ["c5_n1"], ["c24_n1"]],
    "tamagawa": [["gauss_n1"], ["c15_n1"], ["c24_n1"]],
    "check-gm": [["--pmax", "100"], ["--pmax", "300"]],
}

GOLDEN_PATH = os.path.join(HERE, "golden", "cli.json")


def cli_case_id(sub, args):
    return " ".join([sub] + args)


class CliCold:
    """Fresh `toruskit` processes, one per call, over all eight subcommands."""

    name = "cli_cold"
    cold = True
    round_s = 7.0  # one round at the defining commit, reference machine
    time_limit_s = 60.0

    def __init__(self, tk, seed, small, workdir, in_process=False):
        self.tk = tk
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = os.path.dirname(HERE)
        spec_dir = os.path.join(workdir, "specs")
        os.makedirs(spec_dir, exist_ok=True)
        self.paths = {}
        for key, (modulus, subgroup, torus) in CLI_SPECS.items():
            field_spec = {"type": "cyclotomic", "modulus": modulus}
            if subgroup is not None:
                field_spec["subgroup"] = list(subgroup)
            path = os.path.join(spec_dir, key + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"field": field_spec, "torus": torus}, fh)
            self.paths[key] = path
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        self.in_process = in_process

    def _argv(self, sub, args):
        return [sub] + [self.paths.get(a, a) for a in args]

    def _query(self, sub, args):
        case = cli_case_id(sub, args)
        argv = self._argv(sub, args)

        def run_subprocess():
            env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
            proc = subprocess.Popen([sys.executable, "-m", "toruskit.cli"] + argv,
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                    cwd=self.root, env=env)
            try:
                out, _ = proc.communicate(timeout=self.time_limit_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
            return proc.returncode, out.decode("utf-8")

        def run_in_process():
            buf = io.StringIO()
            code = self.tk.cli.main(argv, stdout=buf, stderr=io.StringIO())
            return code, buf.getvalue()

        def check(answer):
            return answer == (0, self.golden[case])

        return Query(case, run_in_process if self.in_process else run_subprocess, check, sub)

    def round(self):
        picks = [(sub, self.rng.choice(cases)) for sub, cases in CLI_CASES.items()]
        self.rng.shuffle(picks)
        return [self._query(sub, args) for sub, args in picks]

    def trace_queries(self):
        return [self._query(sub, args) for sub, cases in CLI_CASES.items() for args in cases]

    def extra_metrics(self, records):
        return {}


# ------------------------------------------------------------ presented_session

ORDER_2 = [(3, None), (4, None), (5, (1, 4)), (6, None), (8, (1, 7)), (10, (1, 9)),
           (12, (1, 11))]
ORDER_4 = [(5, None), (8, None), (10, None), (12, None), (15, (1, 14)), (16, (1, 15)),
           (20, (1, 19)), (24, (1, 23))]
ORDER_8 = [(15, None), (16, None), (17, (1, 16)), (20, None), (24, None), (32, (1, 31)),
           (40, (1, 9)), (60, (1, 49))]


def _kinds(order):
    kinds = ["norm_one", "split1", "res", "split2", "norm_one+split1"]
    if order == 2:
        kinds += ["so2", "res+so2"]
    return kinds


def _keys(data, kinds_of, extra):
    return [(d, kind) + e for d in data for kind in kinds_of(coset_group(*d).order)
            for e in extra]


# Presented H^1 of this norm-one torus mod 3 ran for over four minutes and
# 600 MB at the defining commit, while its 31 neighbours take 2-4 s.
UNFINISHED = [((60, (1, 49)), "norm_one", 3)]


def _tori(data):
    return [(d, kind) for d in data for kind in _kinds(coset_group(*d).order)]


def presented_lists(small):
    """The fixed key lists the session's blocks draw from, in order."""
    def enumerable(key):
        (d, kind, m) = key
        return (m ** orc.torus_rank(kind, coset_group(*d).order)) ** coset_group(*d).order <= 5000

    high = (ORDER_4 if small else ORDER_8)[::-1]
    return {
        "heavy": [k for k in _keys(high, lambda o: ["norm_one", "res"], [(2,), (3,)])
                  if k not in UNFINISHED],
        "presented": _tori(ORDER_4),
        "split": _keys(high, lambda o: ["split1", "split2"], [(2,), (3,)]),
        "enumerate": [k for k in _keys(ORDER_2 + ORDER_4, _kinds, [(2,), (3,)])
                      if enumerable(k)],
        # |G| = 4 last: the presented keys' tori come up here only after the
        # five blocks a run takes
        "lattice": _tori(ORDER_2 if small else ORDER_2 + ORDER_8 + ORDER_4),
    }


LATTICE_PER_BLOCK = 16


def block_keys(lists, b):
    """The 23 new keys of block b.

    Nearly every key of a block has a torus of its own, and blocks take
    fresh tori from the lists (the lattice list wraps around after eight
    blocks, the others after ten).  So work cached for one key is not reused
    by another, a query costs about the same wherever the seed puts it, and
    every block costs about the same.  The sixteen cheap lattice-coefficient
    keys put many samples around the median query.
    """
    def at(name, i):
        keys = lists[name]
        return keys[i % len(keys)]

    p = [at("presented", 4 * b + i) for i in range(4)]
    x = [at("lattice", LATTICE_PER_BLOCK * b + i) for i in range(LATTICE_PER_BLOCK)]

    def element(t):
        return 1 + b % (coset_group(*t[0]).order - 1)

    return [("heavy_h1",) + at("heavy", b),
            ("presented_h2",) + p[0] + (2,), ("presented_h2",) + p[1] + (3,),
            ("light_h1",) + p[2] + (3,), ("light_h1",) + p[3] + (2,),
            ("light_h1",) + at("split", b),
            ("enumerate",) + at("enumerate", b)] + [
            key for y in (x[:8], x[8:]) for key in (
                ("tamagawa",) + y[0], ("tamagawa",) + y[1],
                ("cohomology",) + y[2] + (1,), ("cohomology",) + y[3] + (2,),
                ("sha2",) + y[4], ("tate_h0",) + y[5],
                ("restriction",) + y[6] + (element(y[6]), 2),
                ("restriction",) + y[7] + (element(y[7]), 1))]


class PresentedSession:
    """One warm process: library queries over |G| <= 8, half of them repeats."""

    name = "presented_session"
    cold = False
    round_s = 3.0  # one round at the defining commit, reference machine
    time_limit_s = 60.0
    blocks = 100
    trace_blocks = 3

    def __init__(self, tk, seed, small, workdir):
        self.tk = tk
        self.rng = random.Random(f"{self.name}:{seed}")
        lists = presented_lists(small)
        self.tori: dict = {}
        self.presentations: dict = {}
        self.subgroups: dict = {}
        self.stream: list[list[tuple]] = []
        self._next = 0
        for b in range(2 if small else self.blocks):
            block = block_keys(lists, b)
            self.rng.shuffle(block)
            # every key is asked again once, at a seeded place after its first use
            for key in list(block):
                block.insert(self.rng.randint(block.index(key) + 1, len(block)), key)
            self.stream.append(block)

    def _torus(self, d, kind):
        if (d, kind) not in self.tori:
            self.tori[(d, kind)] = build_torus(self.tk, d[0], d[1], kind)
        return self.tori[(d, kind)]

    def _presentation(self, d, kind, m):
        if (d, kind, m) not in self.presentations:
            self.presentations[(d, kind, m)] = self.tk.presentation_mod(self._torus(d, kind).X, m)
        return self.presentations[(d, kind, m)]

    def _subgroup(self, d, kind, element):
        if (d, kind, element) not in self.subgroups:
            group = self._torus(d, kind).group
            self.subgroups[(d, kind, element)] = self.tk.subgroup_closure(group, [element])
        return self.subgroups[(d, kind, element)]

    def _query(self, key):
        tk = self.tk
        what, d, kind = key[0], key[1], key[2]
        f = factors_of(*d)
        inv = orc.invariant_factors

        if what in ("heavy_h1", "light_h1", "presented_h2"):
            m = key[3]
            q = 2 if what == "presented_h2" else 1

            def run():
                t = self._torus(d, kind)
                return _fg(tk.cohomology(t.group, self._presentation(d, kind, m), q))

            def check(answer):
                return answer == orc.presented_h(kind, f, m, q)
        elif what == "enumerate":
            m = key[3]

            def run():
                t = self._torus(d, kind)
                e = tk.enumerate_splittings(t.group, self._presentation(d, kind, m))
                return tuple(e.orders), len(e.cocycles), e.class_count

            def check(answer):
                orders, cocycles, classes = answer
                rank = orc.torus_rank(kind, coset_group(*d).order)
                return orc.finite_order(orders) == m ** rank and \
                    (cocycles, classes) == orc.splitting_counts(kind, f, rank, m)
        elif what == "tamagawa":
            def run():
                return str(tk.tamagawa_number(self._torus(d, kind)))

            def check(answer):
                return answer == str(orc.torus_tau(kind, f))
        elif what == "cohomology":
            q = key[3]

            def run():
                t = self._torus(d, kind)
                return _fg(tk.cohomology(t.group, t.X, q))

            def check(answer):
                return answer == inv(orc.torus_h(kind, f, q))
        elif what == "sha2":
            def run():
                t = self._torus(d, kind)
                return _fg(tk.sha2_cyclic(t.group, t.X))

            def check(answer):
                return answer == inv(orc.torus_sha2(kind, f))
        elif what == "tate_h0":
            def run():
                t = self._torus(d, kind)
                return _fg(tk.tate_h0(t.group, t.X))

            def check(answer):
                return answer == inv(orc.torus_tate_h0(kind, f))
        else:
            element, q = key[3], key[4]

            def run():
                t = self._torus(d, kind)
                r = tk.restriction_map(t.group, t.X, self._subgroup(d, kind, element), q)
                return _fg(r.source), _fg(r.target), r.matrix

            def check(answer):
                source, target, matrix = answer
                sub_order = coset_group(*d).element_order(element)
                return source == inv(orc.torus_h(kind, f, q)) \
                    and target == inv(orc.restricted_h(kind, sub_order, q)) \
                    and len(matrix) == len(target[1]) \
                    and all(len(row) == len(source[1]) for row in matrix)

        return Query(f"{what} {d[0]}/{d[1]} {kind} {key[3:]}", run, check, what)

    def round(self):
        """The next block of the stream; after the last block it starts over."""
        block = self.stream[self._next % len(self.stream)]
        self._next += 1
        return [self._query(key) for key in block]

    def trace_queries(self):
        return [self._query(key) for block in self.stream[:self.trace_blocks] for key in block]

    def reset(self):
        """Forget the session's tori, so a second pass builds them again."""
        self.tori.clear()
        self.presentations.clear()
        self.subgroups.clear()

    def extra_metrics(self, records):
        return {}


WORKLOADS = {w.name: w for w in (ColdTamagawa, PresentedSession, EulerSweep, CliCold)}


@dataclass
class Record:
    query: Query
    interval: Interval
    answer: object
    error: str | None
    ok: bool = False

    @property
    def seconds(self) -> float:
        """Reference seconds, once the clock has rescaled the interval."""
        return self.interval.seconds

    @property
    def raw_s(self) -> float:
        return self.interval.raw_s


def execute(query: Query, caches, cold: bool, time_limit: float, clock) -> Record:
    """Run one query; cold queries start from empty caches."""
    if cold:
        caches.clear()
        before = caches.totals()
    mark = clock.begin()
    try:
        answer, error = query.run(), None
    except Exception as exc:  # a failing query is counted, not fatal
        answer, error = None, f"{type(exc).__name__}: {exc}"
    timed = clock.end(mark)
    if cold:
        caches.check_cold_query(before)
    if timed.raw_s > time_limit and error is None:
        error = f"exceeded the {time_limit} s limit"
    return Record(query, timed, answer, error)
