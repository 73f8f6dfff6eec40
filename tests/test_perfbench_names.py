"""Every span the benchmark reads names a function of sweedler.

``perfbench/run.py`` reads its per-layer metrics off spans named
``layer.function`` or ``layer.Class.method``, and ``perfbench/tracer.py``
counts the yields of the enumerators named in ``ENUMERATORS``.  A span whose
function was renamed away reads 0 without any error, so each name must
resolve.  The files are read as text: the benchmark is not imported.
"""

import ast
import importlib
import inspect
import os
import random

BENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _tree(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _constants(tree, *targets):
    """The literal values assigned at module level to the given names."""
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and node.targets[0].id in targets}


def span_names():
    """Literal arguments of ``t.calls``/``t.self_pct``, ``FROM_TERMS`` and ``ORACLES``."""
    tree = _tree("run.py")
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("calls", "self_pct")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "t"):
            names.update(a.value for a in node.args
                         if isinstance(a, ast.Constant) and isinstance(a.value, str))
    consts = _constants(tree, "FROM_TERMS", "ORACLES")
    return names | {consts["FROM_TERMS"]} | set(consts["ORACLES"])


def resolve(name):
    layer, *path = name.split(".")
    obj = importlib.import_module("sweedler." + layer)
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_every_span_name_resolves_to_a_function():
    # the Prom rule's span wraps closures, not a named function
    prom = _constants(_tree("tracer.py"), "PROM")["PROM"]
    names = span_names() - {prom}
    for short in ("semantics.nl_eval", "semantics.derivative_eval", "semantics.apply_hom",
                  "bang.coproduct", "bang.promote", "semantics.denote_proof",
                  "syntax.check_proof"):
        assert short in names
    for name in sorted(names):
        obj = resolve(name)
        assert callable(obj) and obj.__module__ == "sweedler." + name.split(".")[0], name


def test_every_counted_enumerator_is_a_generator_of_bang():
    enumerators = _constants(_tree("tracer.py"), "ENUMERATORS")["ENUMERATORS"]
    assert set(enumerators) == {"index_subsets", "set_partitions"}
    for attr in enumerators:
        assert inspect.isgeneratorfunction(resolve("bang." + attr)), attr


def _count_yields(fn, counter, counts):
    """A generator function that counts its yields, as the tracer's ``count_yields``."""
    def counted(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            yield item
    return counted


def test_delta_and_promotion_drive_the_counted_enumerators(monkeypatch):
    # the tracer rebinds the module attributes; an enumerator that Delta or
    # promotion stopped calling through them would read 0
    bang = importlib.import_module("sweedler.bang")
    vec = importlib.import_module("sweedler.exact").Vec
    counts = {}
    for attr, counter in _constants(_tree("tracer.py"), "ENUMERATORS")["ENUMERATORS"].items():
        monkeypatch.setattr(bang, attr, _count_yields(getattr(bang, attr), counter, counts))
    ket = bang.BangElement.ket(bang.BaseSpace(2), vec((1, 2)), (vec.basis(2, 1),) * 4)
    bang.coproduct(ket)
    assert counts == {"bang.subsets": 5}
    bang.promote(ket)
    assert counts == {"bang.subsets": 5, "bang.partitions": 5}


# Names bound to sweedler modules in the benchmark: the ``m``/``mods``
# namespace of layers, the short aliases of ``build_doubling``,
# ``build_numerals`` and the Prom span, and the module parameters of the
# verdict functions.
ALIASES = {"enc": "encodings", "sem": "semantics", "syn": "syntax", "sx": "sexpr",
           "cli": "cli"}


def module_reads(name):
    """``layer.attribute`` for every sweedler attribute the file reads."""
    reads = set()
    for node in ast.walk(_tree(name)):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in ALIASES:
            reads.add(ALIASES[base.id] + "." + node.attr)
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and base.value.id in ("m", "mods")):
            reads.add(base.attr + "." + node.attr)
    return reads


def test_every_attribute_the_benchmark_reads_resolves():
    names = module_reads("workloads.py") | module_reads("tracer.py")
    for expected in ("cli.main", "semantics.add_values", "semantics._den",
                     "semantics.Denotation", "laws.LAWS", "laws.RunConfig",
                     "semantics.ProbeConfig", "exact.Matrix", "sexpr.print_proof"):
        assert expected in names
    for layer in _constants(_tree("tracer.py"), "LAYERS")["LAYERS"]:
        importlib.import_module("sweedler." + layer)
    for name in sorted(names):
        resolve(name)


def test_the_benchmark_configs_construct():
    consts = _constants(_tree("workloads.py"), "DOUBLING_PROBES", "LAW_MAX_TANGENTS")
    semantics = importlib.import_module("sweedler.semantics")
    laws = importlib.import_module("sweedler.laws")
    semantics.ProbeConfig(seed=0, **consts["DOUBLING_PROBES"])
    laws.RunConfig(seed=0, dim=1, max_tangents=consts["LAW_MAX_TANGENTS"])


def test_the_traced_promotion_rule_rebuilds_its_denotation():
    # the tracer re-wraps each Prom denotation as Denotation(source, target, fn)
    sem = importlib.import_module("sweedler.semantics")
    syn = importlib.import_module("sweedler.syntax")
    d = sem.denote_proof(syn.Prom(syn.Der(0, syn.Axiom(syn.PropVar("A", 1)))))
    wrapped = sem.Denotation(d.source, d.target, d.fn)
    ket = sem.bg.BangElement.ket(sem.Base(1), sem.Vec((2,)))
    assert wrapped.eval(ket) == d.eval(ket)


def test_every_law_is_reachable_by_its_function_name():
    # the laws workload calls each trial as getattr(laws, law.fn.__name__)
    laws = importlib.import_module("sweedler.laws")
    for l in laws.LAWS:
        assert getattr(laws, l.fn.__name__) is l.fn, l.name


def test_every_benchmarked_law_trial_returns_none():
    # the laws workload calls each trial as below and fails the verdict on any
    # answer but None, so a trial that handed back its body's (inputs, checks)
    # would break every benchmark run
    consts = _constants(_tree("workloads.py"), "LAW_GROUPS", "LAW_COUNT", "LAW_MAX_TANGENTS")
    laws = importlib.import_module("sweedler.laws")
    picked = [l for l in laws.LAWS if l.group in consts["LAW_GROUPS"]]
    assert len(picked) == consts["LAW_COUNT"] == 22
    cfg = laws.RunConfig(seed=0, dim=1, max_tangents=consts["LAW_MAX_TANGENTS"])
    for l in picked:
        assert getattr(laws, l.fn.__name__)(random.Random(0), cfg) is None, l.name
