"""Spans around the calls into each starshift module, recorded from outside.

`Tracer.install` replaces public functions and a few methods of the loaded
starshift modules with wrappers that record one span per call: its name,
start, end and parent span.  A function imported into another module is
replaced under every name it is looked up by (for example
`matrixmodel.transfer` and `cli.verify_relations`), or those calls would
escape the trace.  Spans stay in memory and are written when the run ends.
`Word.__str__` runs about a million times per census pass, so it is only
counted; its time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("cli", "matrixmodel", "cylinder", "dictionary", "gf2poly", "starcomm", "words", "ledrappier")

# (module, attribute, span name): module-level functions, wrapped wherever imported.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("matrixmodel", "verify_relations", "matrixmodel.verify_relations"),
    ("matrixmodel", "isometry_matrix", "matrixmodel.isometry_matrix"),
    ("cylinder", "transfer", "cylinder.transfer"),
    ("cylinder", "refine_frame", "cylinder.refine_frame"),
    ("dictionary", "_image_table", "dictionary.image_table"),
    ("dictionary", "classify_dictionary", "dictionary.classify"),
    ("dictionary", "kernel_elements", "dictionary.kernel_elements"),
    ("gf2poly", "recurrence_kernel", "gf2poly.recurrence_kernel"),
    ("gf2poly", "poly_gcd", "gf2poly.gcd"),
    ("gf2poly", "poly_factor", "gf2poly.factor"),
    ("starcomm", "independence_profile", "starcomm.independence_profile"),
    ("starcomm", "star_commutes_on_kernel", "starcomm.star_commutes_on_kernel"),
    ("starcomm", "star_commute_windows", "starcomm.star_commute_windows"),
    ("starcomm", "certify_system", "starcomm.certify"),
    ("ledrappier", "complete_patch", "ledrappier.complete_patch"),
    ("ledrappier", "conjugate_vertical", "ledrappier.conjugate_vertical"),
)

# (module, class, method, span name): methods, wrapped on the class.
METHODS = (
    ("matrixmodel", "LevelOperator", "__post_init__", "matrixmodel.operator_build"),
    ("matrixmodel", "LevelOperator", "__matmul__", "matrixmodel.operator_product"),
    ("cylinder", "CylinderFunction", "__post_init__", "cylinder.function_build"),
    ("dictionary", "WindowMap", "compose", "dictionary.compose"),
    ("words", "PeriodicSeq", "__post_init__", "words.periodic_seq_build"),
    ("words", "PeriodicSeq", "__add__", "words.seq_add"),
)

COUNTED = (("words", "Word", "__str__", "words.word_str"),)

# Per-layer metric: (unit, how it is read from the per-pass stats).
PER_LAYER = {
    "cli.self_s": ("s", ("self", "cli.main")),
    "cli.output_kb": ("kB", ("output_kb",)),
    "matrixmodel.verify_relations_s": ("s", ("time", "matrixmodel.verify_relations")),
    "matrixmodel.isometry_matrix_calls": ("count", ("calls", "matrixmodel.isometry_matrix")),
    "matrixmodel.operators_built": ("count", ("calls", "matrixmodel.operator_build")),
    "matrixmodel.operator_build_s": ("s", ("time", "matrixmodel.operator_build")),
    "matrixmodel.operator_products": ("count", ("calls", "matrixmodel.operator_product")),
    "matrixmodel.operator_product_s": ("s", ("time", "matrixmodel.operator_product")),
    "matrixmodel.dense_mcells": ("Mcell", ("dense_mcells",)),
    "matrixmodel.self_s": ("s", ("module_self", "matrixmodel")),
    "cylinder.transfer_calls": ("count", ("calls", "cylinder.transfer")),
    "cylinder.transfer_s": ("s", ("time", "cylinder.transfer")),
    "cylinder.functions_built": ("count", ("calls", "cylinder.function_build")),
    "cylinder.refine_frame_s": ("s", ("time", "cylinder.refine_frame")),
    "cylinder.self_s": ("s", ("module_self", "cylinder")),
    "dictionary.image_table_calls": ("count", ("calls", "dictionary.image_table")),
    "dictionary.image_table_s": ("s", ("time", "dictionary.image_table")),
    "dictionary.image_table_repeat_ratio": ("ratio", ("repeat_ratio",)),
    "dictionary.compose_s": ("s", ("time", "dictionary.compose")),
    "dictionary.classify_calls": ("count", ("calls", "dictionary.classify")),
    "dictionary.classify_s": ("s", ("time", "dictionary.classify")),
    "dictionary.kernel_elements_s": ("s", ("time", "dictionary.kernel_elements")),
    "dictionary.self_s": ("s", ("module_self", "dictionary")),
    "gf2poly.recurrence_kernel_calls": ("count", ("calls", "gf2poly.recurrence_kernel")),
    "gf2poly.recurrence_kernel_s": ("s", ("time", "gf2poly.recurrence_kernel")),
    "gf2poly.gcd_calls": ("count", ("calls", "gf2poly.gcd")),
    "gf2poly.factor_s": ("s", ("time", "gf2poly.factor")),
    "gf2poly.self_s": ("s", ("module_self", "gf2poly")),
    "starcomm.independence_profile_s": ("s", ("time", "starcomm.independence_profile")),
    "starcomm.star_commutes_on_kernel_calls": ("count", ("calls", "starcomm.star_commutes_on_kernel")),
    "starcomm.star_commutes_on_kernel_s": ("s", ("time", "starcomm.star_commutes_on_kernel")),
    "starcomm.star_commute_windows_s": ("s", ("time", "starcomm.star_commute_windows")),
    "starcomm.certify_s": ("s", ("time", "starcomm.certify")),
    "starcomm.self_s": ("s", ("module_self", "starcomm")),
    "words.word_str_calls": ("count", ("calls", "words.word_str")),
    "words.periodic_seqs_built": ("count", ("calls", "words.periodic_seq_build")),
    "words.seq_add_calls": ("count", ("calls", "words.seq_add")),
    "words.self_s": ("s", ("module_self", "words")),
    "ledrappier.complete_patch_s": ("s", ("time", "ledrappier.complete_patch")),
    "ledrappier.conjugate_vertical_s": ("s", ("time", "ledrappier.conjugate_vertical")),
    "ledrappier.self_s": ("s", ("module_self", "ledrappier")),
}


class Tracer:
    """In-memory span recorder for one workload process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self.output_bytes = 0
        self.dense_cells = 0
        self.image_calls = 0
        self.image_repeats = 0
        self._seen_tables = set()
        self.passes = 0

    def _id(self, span_name: str) -> int:
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._ids[span_name]

    def _span(self, span_name: str, fn, before=None):
        nid = self._id(span_name)
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _counter(self, span_name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[span_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _before_image_table(self, args):
        key = (args[0], args[1])
        self.image_calls += 1
        if key in self._seen_tables:
            self.image_repeats += 1
        else:
            self._seen_tables.add(key)

    def _before_operator(self, args):
        shape = args[0].num_a.shape
        self.dense_cells += shape[0] * shape[1]

    def install(self) -> None:
        """Wrap the traced functions and methods of the loaded starshift modules."""
        mods = {m: sys.modules["starshift." + m] for m in MODULES}
        hooks = {
            "dictionary.image_table": self._before_image_table,
            "matrixmodel.operator_build": self._before_operator,
        }
        for mod, attr, span_name in FUNCTIONS:
            original = getattr(mods[mod], attr)
            wrapper = self._span(span_name, original, hooks.get(span_name))
            for other in mods.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
        for mod, cls_name, method, span_name in METHODS:
            cls = getattr(mods[mod], cls_name)
            setattr(cls, method, self._span(span_name, cls.__dict__[method], hooks.get(span_name)))
        for mod, cls_name, method, span_name in COUNTED:
            cls = getattr(mods[mod], cls_name)
            setattr(cls, method, self._counter(span_name, cls.__dict__[method]))

    def begin_pass(self) -> None:
        """Start a pass; the repeat ratio counts (map, length) repeats within one pass."""
        self.passes += 1
        self._seen_tables = set()

    def metrics(self) -> dict:
        """Every per-layer metric, per pass, as {name: {"value", "unit"}}."""
        calls = defaultdict(int, self.counts)
        total = defaultdict(float)
        own = defaultdict(float)
        for i in range(len(self.start)):
            label = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[label] += 1
            total[label] += dur
            own[label] += dur
            if self.parent[i] >= 0:
                own[self.names[self.name[self.parent[i]]]] -= dur
        module_self = defaultdict(float)
        for label, value in own.items():
            module_self[label.split(".")[0]] += value
        stats = {
            "calls": calls,
            "time": total,
            "self": own,
            "module_self": module_self,
        }
        passes = max(self.passes, 1)
        out = {}
        for metric, (unit, (kind, *key)) in PER_LAYER.items():
            if kind == "output_kb":
                value = self.output_bytes / 1000 / passes
            elif kind == "dense_mcells":
                value = self.dense_cells / 1e6 / passes
            elif kind == "repeat_ratio":
                value = self.image_repeats / self.image_calls if self.image_calls else 0.0
            elif kind == "calls":
                count = stats["calls"][key[0]]
                value = count // passes if count % passes == 0 else count / passes
            else:
                value = stats[kind][key[0]] / passes
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent] rows, gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            [self.name[i], self.start[i], self.end[i], self.parent[i]] for i in range(len(self.start))
        ]
        doc = {"names": self.names, "passes": self.passes, "counts": dict(self.counts), "spans": spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
