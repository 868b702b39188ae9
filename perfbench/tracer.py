"""Spans around toruskit's public functions, installed from outside the package.

``Tracer.install`` rebinds every module-level binding of each target function
across ``toruskit.*`` (``tamagawa.cohomology`` and ``cli.cohomology`` are
separate bindings of one function) and wraps the validating
``__post_init__`` of ``GLattice`` and ``FiniteGroup``.  Each call becomes a
span with its name, start, end, parent span and query id, kept in memory and
written out by the caller at the end of the run.  ``layer_metrics`` turns the
spans into per-layer counts and self times; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _snf_attrs(args, kwargs, result):
    m, n = args[0].shape
    transform = any(args[1:]) or any(kwargs.get(k) for k in ("want_u", "want_uinv", "want_v"))
    bits = max((abs(d).bit_length() for d in result.diagonal), default=0)
    for mat in (result.u, result.uinv, result.v):
        if mat is not None and mat.size:
            bits = max(bits, abs(int(mat.max())).bit_length(), abs(int(mat.min())).bit_length())
    return {"cells": m * n, "transform": bool(transform), "out_bits": bits}


def _bar_attrs(args, kwargs, result):
    return {"cells": result.shape[0] * result.shape[1]}


def _validate_attrs(args, kwargs, result):
    return {"group_order": args[0].group.order}


def _frobenius_attrs(args, kwargs, result):
    datum = args[0]
    return {"frob": [datum.modulus, list(datum.subgroup), result]}


def _cohomology_name(args, kwargs):
    module = args[1] if len(args) > 1 else kwargs["module"]
    return "cohomology.presented" if type(module).__name__ == "GModulePresentation" \
        else "cohomology.lattice"


# (module, attribute, span name, attribute recorder).  Span names start with
# their layer.  ``validate`` spans are the constructors' consistency checks.
FUNCTIONS = [
    ("groups", "make_group", "groups.make_group", None),
    ("groups", "cyclotomic_quotient_group", "groups.cyclotomic_quotient_group", None),
    ("groups", "product_group", "groups.product_group", None),
    ("groups", "cyclic_subgroups", "groups.cyclic_subgroups", None),
    ("groups", "subgroup_closure", "groups.subgroup_closure", None),
    ("lattices", "glattice", "lattices.glattice", None),
    ("lattices", "regular_lattice", "lattices.regular_lattice", None),
    ("lattices", "quotient_lattice", "lattices.quotient_lattice", None),
    ("lattices", "restrict", "lattices.restrict", None),
    ("lattices", "direct_sum_all", "lattices.direct_sum_all", None),
    ("lattices", "presentation_mod", "lattices.presentation_mod", None),
    ("lattices", "invariants", "lattices.invariants", None),
    ("lattices", "trace_character", "lattices.trace_character", None),
    ("tori", "make_torus", "tori.make_torus", None),
    ("linalg", "smith_normal_form", "linalg.snf", _snf_attrs),
    ("linalg", "hermite_column", "linalg.hnf", None),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "det", "linalg.det", None),
    ("cohomology", "cohomology", _cohomology_name, None),
    ("cohomology", "bar_differential", "cohomology.bar", _bar_attrs),
    ("cohomology", "sha2_cyclic", "cohomology.sha2", None),
    ("cohomology", "restriction_map", "cohomology.restriction", None),
    ("cohomology", "enumerate_splittings", "cohomology.enumerate", None),
    ("cohomology", "tate_h0", "cohomology.tate_h0", None),
    ("cohomology", "cohomology_classes", "cohomology.classes", None),
    ("cohomology", "restrict_cochain", "cohomology.restrict_cochain", None),
    ("arith", "local_artin_factor", "arith.local_factor", None),
    ("arith", "frobenius", "arith.frobenius", _frobenius_attrs),
    ("arith", "characters", "arith.characters", None),
    ("arith", "decompose", "arith.decompose", None),
    ("arith", "dirichlet_L1", "arith.l1", None),
    ("arith", "residue", "arith.residue", None),
    ("tamagawa", "canonical_coefficients", "tamagawa.coefficients", None),
    ("tamagawa", "local_volume", "tamagawa.local_volume", None),
    ("tamagawa", "tamagawa_number", "tamagawa.tamagawa_number", None),
    ("tamagawa", "gm_adelic_check", "tamagawa.gm_adelic_check", None),
    ("tamagawa", "simpson", "tamagawa.quadrature", None),
]

# (module, class, method, span name, attribute recorder)
METHODS = [
    ("groups", "Subgroup", "as_group", "groups.as_group", None),
    ("groups", "FiniteGroup", "__post_init__", "groups.validate", None),
    ("lattices", "GLattice", "__post_init__", "lattices.validate", _validate_attrs),
    ("arith", "AbelianGaloisDatum", "__init__", "arith.datum", None),
]

NOT_CALLS = {"groups.validate", "lattices.validate"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, query id, attrs]
        self.query_id = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def call(self, name, fn, args, kwargs, recorder):
        if callable(name):
            name = name(args, kwargs)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, parent, self.query_id, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        if recorder is not None:
            # Recording attributes is tracing work: it gets a span of its own
            # so that no layer's self time includes it.
            record[5] = recorder(args, kwargs, result)
            self.spans.append(["trace.attrs", record[2], perf_counter(), parent,
                               self.query_id, None])
        return result

    def _wrap(self, fn, name, recorder):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, recorder)
        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "toruskit" or key.startswith("toruskit.")]
        for mod_name, attr, name, recorder in FUNCTIONS:
            original = getattr(sys.modules["toruskit." + mod_name], attr)
            wrapper = self._wrap(original, name, recorder)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        for mod_name, cls_name, attr, name, recorder in METHODS:
            cls = getattr(sys.modules["toruskit." + mod_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, name, recorder))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, qid, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": qid,
                                     "attrs": attrs}) + "\n")


def frobenius_by_query(spans) -> dict:
    """query id -> (distinct Frobenius classes, local_artin_factor calls)."""
    calls: dict = {}
    classes: dict = {}
    for name, _, _, parent, qid, attrs in spans:
        if name == "arith.local_factor":
            calls[qid] = calls.get(qid, 0) + 1
        elif name == "arith.frobenius" and parent >= 0 and spans[parent][0] == "arith.local_factor":
            classes.setdefault(qid, set()).add(str(attrs["frob"]))
    return {qid: (len(classes.get(qid, ())), n) for qid, n in calls.items()}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    snf = {"cells": 0, "max_cells": 0, "transform_calls": 0, "max_out_bits": 0}
    bar = {"cells": 0, "max_cells": 0}
    validation_products = 0
    for i, (name, start, end, _, _, attrs) in enumerate(spans):
        own = end - start - covered[i]
        layer = name.split(".")[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if name not in NOT_CALLS:
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
        if name == "linalg.snf":
            snf["cells"] += attrs["cells"]
            snf["max_cells"] = max(snf["max_cells"], attrs["cells"])
            snf["transform_calls"] += attrs["transform"]
            snf["max_out_bits"] = max(snf["max_out_bits"], attrs["out_bits"])
        elif name == "cohomology.bar":
            bar["cells"] += attrs["cells"]
            bar["max_cells"] = max(bar["max_cells"], attrs["cells"])
        elif name == "lattices.validate":
            validation_products += attrs["group_order"] ** 2

    def n(key):
        return calls.get(key, 0)

    def s(key):
        return self_s.get(key, 0.0)

    local_factor_calls = n("arith.local_factor")
    frob_classes = sum(c for c, _ in frobenius_by_query(spans).values())
    return {
        "groups.calls": layer_calls.get("groups", 0),
        "groups.self_s": layer_self.get("groups", 0.0),
        "lattices.calls": layer_calls.get("lattices", 0),
        "lattices.self_s": layer_self.get("lattices", 0.0),
        "lattices.glattice_built": n("lattices.validate"),
        "lattices.validation_products": validation_products,
        "tori.make_torus.self_s": s("tori.make_torus"),
        "linalg.snf.calls": n("linalg.snf"),
        "linalg.snf.self_s": s("linalg.snf"),
        "linalg.snf.cells": snf["cells"],
        "linalg.snf.max_cells": snf["max_cells"],
        "linalg.snf.transform_calls": snf["transform_calls"],
        "linalg.snf.max_out_bits": snf["max_out_bits"],
        "linalg.hnf.calls": n("linalg.hnf"),
        "linalg.hnf.self_s": s("linalg.hnf"),
        "linalg.solve.calls": n("linalg.solve"),
        "linalg.solve.self_s": s("linalg.solve"),
        "linalg.det.calls": n("linalg.det"),
        "linalg.det.self_s": s("linalg.det"),
        "cohomology.self_s": layer_self.get("cohomology", 0.0),
        "cohomology.bar.calls": n("cohomology.bar"),
        "cohomology.bar.self_s": s("cohomology.bar"),
        "cohomology.bar.cells": bar["cells"],
        "cohomology.bar.max_cells": bar["max_cells"],
        "cohomology.sha2.self_s": s("cohomology.sha2"),
        "cohomology.restriction.calls": n("cohomology.restriction"),
        "cohomology.restriction.self_s": s("cohomology.restriction"),
        "cohomology.presented.self_s": s("cohomology.presented"),
        "cohomology.enumerate.self_s": s("cohomology.enumerate"),
        "arith.local_factor.calls": local_factor_calls,
        "arith.local_factor.self_s": s("arith.local_factor"),
        "arith.frob_class_ratio": frob_classes / local_factor_calls
        if local_factor_calls else 0.0,
        "arith.frob_classes": frob_classes,
        "arith.characters.self_s": s("arith.characters"),
        "arith.decompose.self_s": s("arith.decompose"),
        "arith.l1.calls": n("arith.l1"),
        "arith.l1.self_s": s("arith.l1"),
        "arith.datum.self_s": s("arith.datum"),
        "tamagawa.quadrature.self_s": s("tamagawa.quadrature"),
        "tamagawa.coefficients.self_s": s("tamagawa.coefficients"),
        "trace.spans": len(spans),
        "trace.attrs_s": s("trace.attrs"),
    }


class CacheRegistry:
    """Every functools.lru_cache defined in a toruskit module.

    Found by scanning the modules, so a cache added to the package is cleared
    without a change here.  Statistics survive clearing: ``clear`` folds the
    current hits and misses into running totals first.
    """

    def __init__(self):
        self.caches = []
        seen = set()
        for key, module in sorted(sys.modules.items()):
            if key != "toruskit" and not key.startswith("toruskit."):
                continue
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)) \
                        and callable(getattr(value, "cache_clear", None)) \
                        and getattr(value, "__module__", None) == key \
                        and id(value) not in seen:
                    seen.add(id(value))
                    self.caches.append((f"{key}.{value.__name__}", value))
        self._hits = {name: 0 for name, _ in self.caches}
        self._misses = {name: 0 for name, _ in self.caches}

    def clear(self):
        for name, cache in self.caches:
            info = cache.cache_info()
            self._hits[name] += info.hits
            self._misses[name] += info.misses
            cache.cache_clear()
            if cache.cache_info().currsize:
                raise AssertionError(f"{name} kept entries after cache_clear")

    def totals(self, prefix: str = "toruskit.") -> tuple[int, int]:
        hits = misses = 0
        for name, cache in self.caches:
            if name.startswith(prefix):
                info = cache.cache_info()
                hits += self._hits[name] + info.hits
                misses += self._misses[name] + info.misses
        return hits, misses

    def check_cold_query(self, before: tuple[int, int]):
        """After clear() and one query: any cache use must have started with a miss."""
        hits, misses = self.totals()
        if hits + misses > before[0] + before[1] and misses == before[1]:
            raise AssertionError("a cold query hit a cache without missing first")
