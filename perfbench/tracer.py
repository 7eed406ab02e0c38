"""Spans around calls into permrel's layers, installed from outside the
program and removed afterwards.

Each traced public function is replaced, in every permrel module namespace
that holds it, by a wrapper that records a span: name, start, end, parent
span and run id (the index of the answer being computed, -1 during
set-up).  ``Group.mult`` and ``Group.inv`` get a span only when the table
is actually built.  ``uninstall`` puts every original object back, so an
untraced pass never pays for tracing.
"""

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# Module -> public functions that get a span.  The span and metric name
# is "<layer>.<function>", where the layer is the module name without a
# leading underscore (metric names must start with a letter).
TRACED = {
    "perm": ("generate",),
    "subgroups": ("enumerate_classes", "normal_subgroups", "quotient", "subgroup_as_group"),
    "_kernels": ("closure", "normalizer_members", "count_fixed", "coset_reps"),
    "burnside": ("marks_table", "fixed_points"),
    "zlattice": ("hnf", "snf"),
    "relations": ("brauer_kernel", "imprimitive_lattice", "prim", "predict_prim"),
    "classify": ("main_case_classify",),
    "cli": ("run_command",),
}

# Group attribute -> the slot that holds the lazily built table.
TABLES = {"mult": "_mult", "inv": "_inv"}
TABLES_SPAN = "perm.tables"

# Calls whose group argument is a top-level group when no span of these
# names encloses them.
TOP_LEVEL_CALLS = ("relations.prim", "relations.brauer_kernel")
NESTING_CALLS = TOP_LEVEL_CALLS + ("relations.imprimitive_lattice",)


def _max_bits(matrices):
    bits = 0
    for m in matrices:
        for row in m.data:
            if row:
                bits = max(bits, max(map(abs, row)).bit_length())
    return bits


# Span name -> function (args, result) -> attributes kept on the span.
HOOKS = {
    "subgroups.enumerate_classes": lambda args, result: {"group": args[0], "table": result},
    "relations.prim": lambda args, result: {"group": args[0]},
    "relations.brauer_kernel": lambda args, result: {"group": args[0]},
    "relations.imprimitive_lattice": lambda args, result: {"rank": result.cols},
    "zlattice.hnf": lambda args, result: {"cols": args[0].cols, "bits": _max_bits(result)},
}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        # each span: [name, start, end, parent index, run id, attributes]
        self.spans = []
        self.run = -1
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        hook = HOOKS.get(name)
        if hook is not None:
            span[5] = hook(args, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _wrap_table(self, prop, slot):
        fget = prop.fget

        def getter(group):
            if getattr(group, slot, None) is not None:
                return fget(group)
            return self.call(TABLES_SPAN, fget, (group,), {})

        return property(getter, doc=prop.__doc__)

    def install(self):
        """Wrap every traced function wherever a permrel module holds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        homes = {short: importlib.import_module("permrel." + short) for short in TRACED}
        modules = [
            mod
            for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == "permrel" or modname.startswith("permrel."))
        ]
        for short, names in TRACED.items():
            for fname in names:
                original = getattr(homes[short], fname)
                wrapper = self._wrap("%s.%s" % (short.lstrip("_"), fname), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        group_cls = homes["perm"].Group
        for attr, slot in TABLES.items():
            original = group_cls.__dict__[attr]
            self._patched.append((group_cls, attr, original))
            setattr(group_cls, attr, self._wrap_table(original, slot))

    def uninstall(self):
        """Put back every original object, in reverse order."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path, header):
        """Write the spans (without attributes) as gzipped JSON."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(header)
        doc["fields"] = ["name", "start_s", "end_s", "parent", "run"]
        doc["names"] = names
        doc["spans"] = [
            [index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], s[4]]
            for s in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _ancestor_names(spans, i):
    names = set()
    parent = spans[i][3]
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


def layer_metrics(spans):
    """Per-layer counts, times and ratios from one traced pass.

    For every span name: ``.calls``; ``.s``, the time inside outermost
    spans of that name; ``.self_s``, the summed self time.  Plus the
    sizes and ratios named in the benchmark's README.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    own = self_times(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        self_s[name] += own[i]
        if name not in _ancestor_names(spans, i):
            total[name] += s[2] - s[1]
        if s[3] >= 0:
            children[s[3]].append(i)

    metrics = {}
    names = set(calls)
    for short, fnames in TRACED.items():
        names.update("%s.%s" % (short.lstrip("_"), f) for f in fnames)
    names.add(TABLES_SPAN)
    for name in sorted(names):
        metrics[name + ".calls"] = calls[name]
        metrics[name + ".s"] = total[name]
        metrics[name + ".self_s"] = self_s[name]

    # top-level groups: the groups that outermost prim/brauer_kernel calls
    # were made on
    top = []
    for i, s in enumerate(spans):
        if s[0] in TOP_LEVEL_CALLS and s[5] is not None:
            if _ancestor_names(spans, i) & set(NESTING_CALLS):
                continue
            if not any(g is s[5]["group"] for g in top):
                top.append(s[5]["group"])

    def descendants(i):
        stack = list(children[i])
        while stack:
            j = stack.pop()
            yield j
            stack.extend(children[j])

    tables = []
    closures = 0
    for i, s in enumerate(spans):
        if s[0] != "subgroups.enumerate_classes" or s[5] is None:
            continue
        if not any(g is s[5]["group"] for g in top):
            continue
        closures += sum(spans[j][0] == "kernels.closure" for j in descendants(i))
        if not any(t is s[5]["table"] for t in tables):
            tables.append(s[5]["table"])
    subgroups = sum(len(t.sub_to_class) for t in tables)
    metrics["subgroups.classes"] = sum(len(t) for t in tables)
    metrics["subgroups.subgroups"] = subgroups
    metrics["subgroups.closure_yield"] = subgroups / closures if closures else 0.0

    stacked = rank = 0
    for i, s in enumerate(spans):
        if s[0] != "relations.imprimitive_lattice" or s[5] is None:
            continue
        cols = [
            spans[j][5]["cols"]
            for j in children[i]
            if spans[j][0] == "zlattice.hnf" and spans[j][5] is not None
        ]
        if cols:  # a cached call stacks nothing
            stacked += sum(cols)
            rank += s[5]["rank"]
    metrics["relations.imprimitive.stacked_cols"] = stacked
    metrics["relations.imprimitive.yield"] = rank / stacked if stacked else 0.0

    hnfs = [s[5] for s in spans if s[0] == "zlattice.hnf" and s[5] is not None]
    metrics["zlattice.hnf.max_cols"] = max((a["cols"] for a in hnfs), default=0)
    metrics["zlattice.hnf.max_entry_bits"] = max((a["bits"] for a in hnfs), default=0)
    return metrics
