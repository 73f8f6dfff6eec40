"""Spans around calls into sweedler's modules, for the traced run only.

``Tracer.install`` rebinds the public functions and methods of each module
(the layers) to timing wrappers.  Every wrapped call records a span -- name,
start, end, parent and the verdict it belongs to -- in flat in-memory
arrays; nothing is written until ``write`` at the end of the run.  A few
boundaries also count work: kets leaving ``from_terms``, subsets and set
partitions yielded by the enumerators, and the share of that work done
inside the promotion rule of the proof semantics.

Wrapped, per module: functions defined there whose names are public, plus
public methods and the arithmetic operators of its public classes.  Not
wrapped: the per-element ``HELPERS``, constructors,
``__eq__``/``__hash__``/``__repr__`` and the entry-space callbacks
(``contains``, ``expand``, ``key``, ``render``, ``label``) that
canonicalisation calls per entry; their time counts as self time of the
wrapped caller.  The promotion rule's closures get spans of their own
(``PROM``), because work under them is counted apart.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("exact", "bang", "poly", "syntax", "sexpr", "semantics", "encodings",
          "laws", "cli")
OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__matmul__", "__pow__")
CALLBACKS = frozenset(("contains", "expand", "key", "render", "label"))
# per-element helpers that cost less than the wrapper that would time them
HELPERS = frozenset(("as_scalar", "check_dim", "entry_of", "entry_to_value",
                     "entry_space", "check_value", "require_value"))
ENUMERATORS = {"index_subsets": "bang.subsets", "set_partitions": "bang.partitions"}
PROM = "semantics.rule.Prom"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_verdict = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.top = -1
        self.verdict = -1
        self.prom_depth = 0
        self.counts: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, scope=False):
        """fn, recording a span per call; inside a scope span, enumerations
        and ket canonicalisation count as work of the promotion rule."""
        nid = self._id(name)
        names, parents, verdicts = self.span_name, self.span_parent, self.span_verdict
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(tracer.top)
            verdicts.append(tracer.verdict)
            ends.append(0)
            tracer.top = idx
            if scope:
                tracer.prom_depth += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.top = parents[idx]
                if scope:
                    tracer.prom_depth -= 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count_yields(self, counter, fn):
        """A generator function's wrapper that counts the items it yields."""
        counts, tracer = self.counts, self

        def traced(*args, **kwargs):
            inside = counter + ".under_prom" if tracer.prom_depth else None
            for item in fn(*args, **kwargs):
                counts[counter] += 1
                if inside:
                    counts[inside] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def phase(self, name, verdict, fn):
        """Run fn under a root span; spans below it carry the verdict index."""
        self.verdict = verdict
        try:
            return self.wrap(name, fn)()
        finally:
            self.verdict = -1

    # -- installation ----------------------------------------------------------

    def install(self, mods):
        """Replace each layer's public callables with wrappers, everywhere."""
        swaps = {}
        for layer in LAYERS:
            mod = getattr(mods, layer)
            for attr, obj in list(vars(mod).items()):
                if (getattr(obj, "__module__", None) != mod.__name__
                        or attr.startswith("_") or attr in HELPERS):
                    continue
                if inspect.isclass(obj):
                    self._install_class(layer, obj)
                elif inspect.isgeneratorfunction(obj) and attr in ENUMERATORS:
                    swaps[id(obj)] = self.count_yields(ENUMERATORS[attr], obj)
                elif inspect.isfunction(obj):
                    swaps[id(obj)] = self.wrap("%s.%s" % (layer, attr), obj)
        for law in mods.laws.LAWS:
            swaps[id(law.fn)] = self.wrap("laws.trial", law.fn)
        for layer in LAYERS:
            mod = getattr(mods, layer)
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swaps:
                    setattr(mod, attr, swaps[id(obj)])
        self._install_prom(mods)

    def _install_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if attr in CALLBACKS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, classmethod):
                fn = self.wrap(name, raw.__func__)
                if name == "bang.BangElement.from_terms":
                    fn = self._count_kets(fn)
                setattr(cls, attr, classmethod(fn))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def _count_kets(self, from_terms):
        """Count the kets from_terms returns and its calls under promotion."""
        counts, tracer = self.counts, self

        def traced(*args, **kwargs):
            if tracer.prom_depth:
                counts["bang.from_terms.calls_under_prom"] += 1
            elt = from_terms(*args, **kwargs)
            counts["bang.from_terms.kets_out"] += len(elt.terms)
            return elt

        traced.__wrapped__ = from_terms
        return traced

    def _install_prom(self, mods):
        """Give every promotion-rule denotation built from now on a span."""
        sem, syn = mods.semantics, mods.syntax
        den = sem._den
        tracer = self

        def traced_den(p):
            d = den(p)
            if isinstance(p, syn.Prom):
                d = sem.Denotation(d.source, d.target, tracer.wrap(PROM, d.fn, scope=True))
            return d

        sem._den = traced_den

    def write(self, path, header):
        """All spans, gzip-compressed: a JSON header line, then the arrays.

        The header names the arrays in order (span name id, parent index,
        verdict index, start ns, end ns), their type codes and length, and
        the span names that the name ids index.
        """
        arrays = (("name", self.span_name), ("parent", self.span_parent),
                  ("verdict", self.span_verdict), ("start_ns", self.span_start),
                  ("end_ns", self.span_end))
        head = dict(header, spans=len(self.span_name), names=self.names,
                    counts=dict(self.counts), byteorder=sys.byteorder,
                    arrays=[[label, a.typecode] for label, a in arrays])
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(head).encode("utf-8") + b"\n")
            for _, a in arrays:
                a.tofile(fh)


class Summary:
    """Calls and self time per span name and phase of a finished traced run.

    A span's self time is its duration minus the durations of its direct
    children; its phase is the name of the root span above it.  Self time is
    given as a percentage of the whole traced run (set-up, verdicts and
    checks), because the tracer's own cost inflates absolute times.
    """

    def __init__(self, tracer, verdicts, busy):
        self.counts = tracer.counts
        self.spans = len(tracer.span_name)
        self.verdicts = verdicts
        self.busy = busy
        n = self.spans
        parents, starts, ends = tracer.span_parent, tracer.span_start, tracer.span_end
        child = array("q", bytes(8 * n))
        root = array("i", bytes(4 * n))
        self.total_ns = 0
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                root[i] = root[p]
            else:
                root[i] = i
                self.total_ns += ends[i] - starts[i]
        self.table: dict = {}
        names, span_name = tracer.names, tracer.span_name
        for i in range(n):
            key = (names[span_name[root[i]]], names[span_name[i]])
            row = self.table.get(key)
            if row is None:
                row = self.table[key] = [0, 0]
            row[0] += 1
            row[1] += ends[i] - starts[i] - child[i]

    def calls(self, *names, phase="verdict"):
        return sum(self.table.get((phase, n), (0, 0))[0] for n in names)

    def self_pct(self, *names, phase="verdict"):
        own = sum(self.table.get((phase, n), (0, 0))[1] for n in names)
        return 100 * own / self.total_ns

    def layer_self_pct(self, layer, phase="verdict"):
        own = sum(own for (ph, name), (_, own) in self.table.items()
                  if ph == phase and name.split(".")[0] == layer)
        return 100 * own / self.total_ns
