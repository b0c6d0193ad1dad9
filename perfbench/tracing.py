"""Spans around calls into serreq's layers, recorded from outside the program.

Each traced function is replaced where its name is bound: a module-level
function in every serreq module that imported it by name (zmodules,
quiver and category import the linalg kernels that way), a method on its
class.  A span records its name, start, end, parent span and op id; spans
are kept in memory in flat arrays and written out when the run ends.  Self
time (span time minus the time its child spans cover) and the per-layer
counts are accumulated as the spans close.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

# (layer name, module, attribute path, what else to record)
#   distinct: count distinct inputs, for F.distinct_ratio
#   bits:     largest entry of the returned transforms, for F.max_bits
#   size:     a count taken from the result, for F.<size>
TARGETS = [
    ("linalg.smith", "serreq.linalg", "smith", {"distinct": True, "bits": (1, 2)}),
    ("linalg.row_echelon", "serreq.linalg", "row_echelon", {"distinct": True, "bits": (1,)}),
    ("linalg.int_solve", "serreq.linalg", "int_solve", {}),
    ("linalg.f_rref", "serreq.linalg", "f_rref", {"distinct": True}),
    ("quiver.saturate", "serreq.quiver", "SinkSupportTheory.saturate", {}),
    ("quiver.hom_group", "serreq.quiver", "A2Engine.hom_group", {}),
    ("quiver.extend_along_unit", "serreq.quiver", "SinkSupportTheory.extend_along_unit", {}),
    ("zmodules.saturate", "serreq.zmodules", "PPrimaryTheory.saturate", {"distinct": True}),
    ("zmodules.saturate", "serreq.zmodules", "FixtureTheory.saturate", {"distinct": True}),
    ("zmodules.hom_group", "serreq.zmodules", "ZModuleEngine.hom_group", {}),
    ("zmodules.finite_subobject_embeddings", "serreq.zmodules",
     "finite_subobject_embeddings", {"size": "subgroups"}),
    ("serre.monad_at", "serreq.serre", "monad_at", {"distinct": True}),
    ("serre.w_on_morphism", "serreq.serre", "w_on_morphism", {"distinct": True}),
    ("serre.q_hom", "serreq.serre", "q_hom", {}),
    ("serre.q_hom_via_colimit", "serreq.serre", "q_hom_via_colimit", {}),
    ("category.invert", "serreq.category", "AbelianEngine.invert", {}),
    ("category.homology_at", "serreq.category", "AbelianEngine.homology_at", {}),
    ("category.hom_map_is_bijective", "serreq.category", "hom_map_is_bijective", {}),
    ("session.load_session_input", "serreq.session", "load_session_input", {}),
    ("session.build_document", "serreq.session", "build_document", {}),
    ("session.canonical_json", "serreq.session", "canonical_json", {"size": "report_bytes"}),
    ("session.replay_witness", "serreq.session", "replay_witness", {}),
]
SUITE_TARGET = ("serreq.serre", "run_suite")
SUITES = ("monad-laws", "idempotent", "zigzag", "saturating", "gabriel-equiv", "ker-q")

# Which statistics each layer reports (the per-layer metric names).
REPORTED = {
    "linalg.smith": ("calls", "self_ms", "distinct_ratio", "max_bits"),
    "linalg.row_echelon": ("calls", "self_ms", "distinct_ratio", "max_bits"),
    "linalg.int_solve": ("calls", "self_ms"),
    "linalg.f_rref": ("calls", "self_ms", "distinct_ratio"),
    "quiver.saturate": ("calls", "self_ms"),
    "quiver.hom_group": ("calls", "self_ms"),
    "quiver.extend_along_unit": ("calls", "self_ms"),
    "zmodules.saturate": ("calls", "self_ms", "distinct_ratio"),
    "zmodules.hom_group": ("calls", "self_ms"),
    "zmodules.finite_subobject_embeddings": ("calls", "self_ms", "subgroups"),
    "serre.monad_at": ("calls", "self_ms", "distinct_ratio"),
    "serre.w_on_morphism": ("calls", "self_ms", "distinct_ratio"),
    "serre.q_hom": ("self_ms",),
    "serre.q_hom_via_colimit": ("self_ms",),
    "category.invert": ("calls", "self_ms"),
    "category.homology_at": ("calls", "self_ms"),
    "category.hom_map_is_bijective": ("self_ms",),
    "session.load_session_input": ("self_ms",),
    "session.build_document": ("self_ms",),
    "session.canonical_json": ("self_ms",),
    "session.replay_witness": ("self_ms",),
}
UNITS = {"calls": "count", "self_ms": "ms", "distinct_ratio": "ratio", "max_bits": "bits",
         "subgroups": "count", "ms": "ms", "report_bytes": "bytes"}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = [(f"{layer}.{stat}", UNITS[stat]) for layer, stats in REPORTED.items()
           for stat in stats]
    out += [(f"serre.suite.{s}.ms", "ms") for s in SUITES]
    out += [("session.report_bytes", "bytes"), ("cli.main.ms", "ms"),
            ("trace.overhead_ratio", "ratio")]
    return out


def _key(x):
    """A hashable stand-in for an argument, equal for equal inputs.

    Theories and engines are built afresh by every command, so they are
    keyed by what they describe rather than by identity."""
    describe = getattr(x, "describe", None)
    if callable(describe):
        return ("theory", json.dumps(describe(), sort_keys=True))
    if type(x).__name__.endswith("Engine"):
        return (type(x).__name__, getattr(x, "field", None))
    return x


def _max_bits(result, positions):
    best = 0
    for pos in positions:
        for row in result[pos].data:
            for x in row:
                b = abs(x).bit_length()
                if b > best:
                    best = b
    return best


class Layer:
    __slots__ = ("calls", "total_s", "self_s", "seen", "distinct", "max_bits", "size")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.seen = set()
        self.distinct = 0
        self.max_bits = 0
        self.size = 0


class Tracer:
    """Installs the span wrappers; `enabled` switches recording on and off."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.names = []
        self.name_ids = {}
        self.s_name = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.stack = []          # [span index, child seconds]
        self.layers = {}

    # -- recording ------------------------------------------------------------

    def _layer(self, name):
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        return layer

    def new_round(self):
        """Distinct inputs are counted within one round of ops."""
        for layer in self.layers.values():
            layer.seen = set()

    def span(self, name, fn, args, kwargs, opts=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        layer = self._layer(name)
        if opts and opts.get("distinct"):
            key = tuple(_key(a) for a in args)
            if key not in layer.seen:
                layer.seen.add(key)
                layer.distinct += 1
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.s_start)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1][0] if self.stack else -1)
        self.s_op.append(self.op)
        frame = [idx, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        self.s_start.append(start)
        self.s_end.append(start)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.s_end[idx] = end
            self.stack.pop()
            dur = end - start
            layer.calls += 1
            layer.total_s += dur
            layer.self_s += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur
        if opts:
            if "bits" in opts:
                layer.max_bits = max(layer.max_bits, _max_bits(result, opts["bits"]))
            if opts.get("size") == "subgroups":
                layer.size += len(result)
            elif opts.get("size") == "report_bytes":
                layer.size += len(result.encode())
        return result

    # -- installing -------------------------------------------------------------

    def _wrap(self, name, fn, opts):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, opts)

        traced.__wrapped__ = fn
        return traced

    def _wrap_suite(self, fn):
        tracer = self

        def traced(theory, suite, *args, **kwargs):
            if suite == "all":
                return fn(theory, suite, *args, **kwargs)
            return tracer.span(f"serre.suite.{suite}", fn, (theory, suite) + args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "serreq" or name.startswith("serreq.")]
        for name, mod_name, path, opts in TARGETS + [(None, *SUITE_TARGET, None)]:
            mod = importlib.import_module(mod_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, opts))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap_suite(orig) if name is None else self._wrap(name, orig, opts)
            for m in modules:
                if getattr(m, path, None) is orig:
                    setattr(m, path, wrapped)

    # -- results ------------------------------------------------------------------

    def per_layer(self, rounds, traced_cpu_s, untraced_cpu_s):
        """Per-layer metrics, as totals per round of ops."""
        out = {}
        for layer, stats in REPORTED.items():
            rec = self.layers.get(layer, Layer())
            for stat in stats:
                if stat == "calls":
                    value = rec.calls / rounds
                elif stat == "self_ms":
                    value = rec.self_s * 1000 / rounds
                elif stat == "distinct_ratio":
                    value = rec.distinct / rec.calls if rec.calls else 0.0
                elif stat == "max_bits":
                    value = rec.max_bits
                else:
                    value = rec.size / rounds
                out[f"{layer}.{stat}"] = value
        for s in SUITES:
            out[f"serre.suite.{s}.ms"] = self._total_ms(f"serre.suite.{s}") / rounds
        out["session.report_bytes"] = self.layers.get(
            "session.canonical_json", Layer()).size / rounds
        out["cli.main.ms"] = self._total_ms("cli.main") / rounds
        out["trace.overhead_ratio"] = traced_cpu_s / untraced_cpu_s
        return out

    def _total_ms(self, name):
        return 1000 * self.layers.get(name, Layer()).total_s

    def write(self, path):
        doc = {"names": self.names, "name": self.s_name.tolist(),
               "start": self.s_start.tolist(), "end": self.s_end.tolist(),
               "parent": self.s_parent.tolist(), "op": self.s_op.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
