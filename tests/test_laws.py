import gc
import weakref
from fractions import Fraction

from sweedler.encodings import bint_proof, bint_value
from sweedler.exact import ONE
from sweedler.laws import LAWS, LawResult, RunConfig, run_law, run_laws
from sweedler.semantics import denote_proof


def test_all_laws_pass_at_small_budget():
    results = run_laws(RunConfig(trials=25))
    assert len(results) == len(LAWS)
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_laws_pass_in_dimension_three():
    results = run_laws(RunConfig(trials=10, dim=3), groups=("bang", "poly"))
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_laws_pass_in_dimension_one():
    results = run_laws(RunConfig(trials=10, dim=1), groups=("bang", "poly"))
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_groups_are_registered_in_order():
    # each group's first law registers it
    groups = tuple(dict.fromkeys(l.group for l in LAWS))
    assert groups == ("bang", "poly", "semantics", "encodings")


def test_mutated_deriving_map_is_caught():
    cfg = RunConfig(trials=60, mutate=True)
    results = {r.name: r for r in run_laws(cfg, groups=("bang",))}
    # sign flips cancel where the tangent count is even in both sides
    assert results["deriving-counit"].passed
    assert results["deriving-coproduct"].passed
    # but the linear-rule and chain-rule identities see the corruption
    assert not results["deriving-dereliction"].passed
    assert results["deriving-dereliction"].witness
    assert not results["deriving-promotion"].passed
    assert results["deriving-promotion"].witness


def test_runs_are_deterministic():
    cfg = RunConfig(trials=15, seed=42)
    a = run_laws(cfg, groups=("bang", "poly"))
    b = run_laws(cfg, groups=("bang", "poly"))
    assert [r.line() for r in a] == [r.line() for r in b]


def test_seed_changes_draws_but_not_verdicts():
    a = run_laws(RunConfig(trials=10, seed=1), groups=("bang",))
    b = run_laws(RunConfig(trials=10, seed=2), groups=("bang",))
    assert all(r.passed for r in a + b)


def test_result_lines():
    ok = LawResult("g", "n", True, 5)
    bad = LawResult("g", "n", False, 2, "x = 1")
    assert ok.line() == "PASS g/n (5 trials)"
    assert bad.line() == "FAIL g/n (trial 2): x = 1"


def test_weighted_laws_run_fewer_rounds():
    heavy = next(l for l in LAWS if l.weight > 1)
    res = run_law(heavy, RunConfig(trials=40))
    assert res.passed and res.trials == max(1, 40 // heavy.weight)


def test_law_runs_keep_no_denotation_alive():
    run_laws(RunConfig(trials=5), groups=("semantics", "encodings"))
    bint_value("0110", 2)
    d = denote_proof(bint_proof("0110", arrows=1))
    alive = weakref.ref(d)
    del d
    gc.collect()
    assert alive() is None


def test_no_law_multiplies_by_the_shared_one(monkeypatch):
    # the coalgebra skips products by the shared 1 (exact._mul); a product that
    # takes it, or the int 1, as a factor is work whose answer was known
    trivial = []
    for name in ("__mul__", "__rmul__"):
        op = getattr(Fraction, name)

        def counted(a, b, op=op):
            if any(x is ONE or type(x) is int and x == 1 for x in (a, b)):
                trivial.append((a, b))
            return op(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    results = run_laws(RunConfig(seed=0, dim=2, max_tangents=4, trials=20),
                       groups=("bang", "poly"))
    monkeypatch.undo()
    assert len(results) == 22 and all(r.passed for r in results)
    assert trivial == []
