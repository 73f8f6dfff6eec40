"""Acceptance suite: one test per primary criterion, all at zero tolerance.

Every check is exact rational arithmetic or exact probe agreement; there are
no epsilons anywhere.  Each test prints a single PASS line (visible with
``pytest -s``); the ``pytest -v`` listing gives the same one-line-per-criterion
report.
"""

import itertools
import random
import time

from sweedler import bang as bg
from sweedler.laws import RunConfig, rand_matrix, run_laws
from sweedler.semantics import (
    BangSpace, Base, HomSpace, ProbeConfig, add_values, apply_hom,
    denote_formula, denote_proof, derivative_eval, extensional_equal, nl_eval)
from sweedler.syntax import Cut, Prom, derivative_transform
from sweedler.encodings import (
    bint_001_examples, bint_formula, bint_oracle, bint_proof, bint_value,
    church_derivative_oracle, church_proof, church_value_oracle, end_ket, int_proof,
    mult_by_numeral, mult_derivative_oracle, mult_difference_quotient, repeat_proof)
from sweedler.exact import Matrix

END = HomSpace(Base(2), Base(2))
BINT_SPACE = HomSpace(BangSpace(END), HomSpace(BangSpace(END), END))

D_LAWS = ("deriving-counit", "deriving-coproduct",
          "deriving-dereliction", "deriving-promotion")


def _report(n, text):
    print("[criterion %02d] PASS: %s" % (n, text))


def _strings(max_len):
    return ["".join(b) for l in range(max_len + 1)
            for b in itertools.product("01", repeat=l)]


def test_criterion_01_deriving_transformation_axioms():
    t0 = time.perf_counter()
    for dim in (1, 2, 3):
        results = run_laws(RunConfig(seed=0, dim=dim, trials=200, max_tangents=4),
                           groups=("bang",), names=D_LAWS)
        assert len(results) == 4
        for r in results:
            assert r.passed and r.trials >= 200, r.line()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, "took %.1fs" % elapsed
    _report(1, "four deriving axioms, dims 1-3, 200 elements each, "
               "tangents <= 4, %.1fs" % elapsed)


def test_criterion_02_hopf_and_codereliction_laws():
    names = ("cocontraction-commutative-monoid", "bialgebra-compatibility",
             "coweakening-group-like", "antipode-convolution-inverse",
             "codereliction-primitives", "deriving-via-cocontraction")
    results = run_laws(RunConfig(seed=0, trials=200), groups=("bang",), names=names)
    assert len(results) == len(names)
    for r in results:
        assert r.passed and r.trials >= 200, r.line()
    _report(2, "product/bialgebra/antipode/codereliction laws, 200 trials each")


def test_criterion_03_residue_pairing_duality():
    for dim in (1, 2, 3):
        results = run_laws(RunConfig(seed=0, dim=dim, trials=200), groups=("poly",))
        assert len(results) == 5
        for r in results:
            assert r.passed and r.trials >= 200, (dim, r.line())
    _report(3, "five pairing identities vs polynomial algebra, dims 1-3, "
               "200 pairs each")


def test_criterion_04_church_numerals():
    rng = random.Random(4)
    for n in range(6):
        p = church_proof(n)
        for _ in range(50):
            alpha = rand_matrix(rng, 2)
            nu = rand_matrix(rng, 2)
            assert nl_eval(p, alpha) == church_value_oracle(n, alpha)
            assert derivative_eval(p, alpha, nu) \
                == church_derivative_oracle(n, alpha, nu)
    _report(4, "iterate and derivative values for n <= 5, 50 pairs each")


def test_criterion_05_binary_integers_exhaustive():
    rng = random.Random(5)

    def run(s, first, second):
        v = denote_proof(bint_proof(s)).eval()
        return apply_hom(apply_hom(v, first), second)

    checks = 0
    for s in _strings(3):
        for stang in range(4):
            for rtang in range(4 - stang):
                g, d = rand_matrix(rng, 2), rand_matrix(rng, 2)
                alphas = tuple(rand_matrix(rng, 2) for _ in range(stang))
                betas = tuple(rand_matrix(rng, 2) for _ in range(rtang))
                got = run(s, end_ket(2, g, *alphas), end_ket(2, d, *betas))
                assert got == bint_oracle(s, g, d, alphas, betas), \
                    (s, stang, rtang)
                checks += 1
    assert checks == 150

    # the five displayed values for the string 001, plus vanishing
    g, d = rand_matrix(rng, 2), rand_matrix(rng, 2)
    a, a2, b = (rand_matrix(rng, 2) for _ in range(3))
    rows = bint_001_examples(g, d, a, a2, b)
    assert len(rows) == 6
    for label, first, second, want in rows:
        assert run("001", end_ket(2, *first), end_ket(2, *second)) == want, label
    zero = Matrix.zero(2, 2)
    assert run("001", end_ket(2, g), end_ket(2, d, b, b)) == zero
    assert run("", end_ket(2, g, a), end_ket(2, d)) == zero
    _report(5, "evaluator equals closed form for all |S| <= 3, "
               "all tangent profiles s+r <= 3, plus displayed 001 values")


def test_criterion_06_repeat_is_concatenation():
    t0 = time.perf_counter()
    cfg = ProbeConfig(seed=6, samples=2, max_tangents=3, depth=4)
    rp = repeat_proof()
    for s in _strings(2):
        got = nl_eval(rp, bint_value(s, 2))
        assert extensional_equal(got, bint_value(s + s, 2), BINT_SPACE, cfg), s
    for s in _strings(2):
        for t in _strings(2):
            got = derivative_eval(rp, bint_value(s, 2), bint_value(t, 2))
            want = add_values(bint_value(s + t, 2), bint_value(t + s, 2))
            assert extensional_equal(got, want, BINT_SPACE, cfg), (s, t)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, "took %.1fs" % elapsed
    _report(6, "value and derivative of the doubling proof for all "
               "|S|,|T| <= 2, probes with <= 3 tangents, %.1fs" % elapsed)


def test_criterion_07_mult_derivative_closed_form():
    rng = random.Random(7)
    for l in range(4):
        for m in range(4):
            for n in range(4):
                dv = derivative_eval(mult_by_numeral(n),
                                     denote_proof(int_proof(l)).eval(),
                                     denote_proof(int_proof(m)).eval())
                for _ in range(2):
                    x = rand_matrix(rng, 2)
                    got = apply_hom(dv, end_ket(2, x))
                    assert got == mult_derivative_oracle(l, m, n, x)
                    assert got == mult_difference_quotient(l, m, n, x)
    _report(7, "multiplication derivative equals n*x^(l(n-1)+m) and its "
               "difference-quotient interpolation for all l,m,n <= 3")


def test_criterion_08_promotion_and_comonad():
    names = ("promotion-dereliction", "promotion-coalgebra-morphism",
             "promotion-on-identity", "promotion-group-like-totem",
             "promotion-tangent-totem", "cut-against-promotion")
    results = run_laws(RunConfig(seed=0, trials=200),
                       groups=("bang", "semantics"), names=names)
    assert len(results) == len(names)
    for r in results:
        assert r.passed, r.line()
    # cut of a promoted string numeral against the doubling proof, fixed sizes
    cfg = ProbeConfig(seed=8, samples=2, max_tangents=2, depth=4)
    for s in ("", "0", "01"):
        p = Cut(0, Prom(bint_proof(s)), repeat_proof())
        got = denote_proof(p).eval()
        assert extensional_equal(got, bint_value(s + s, 2), BINT_SPACE, cfg), s
    _report(8, "comonad counit/morphism laws, promoted-proof totem values, "
               "and cut-vs-concatenation agreement")


def test_criterion_09_derivative_path_coherence():
    rng = random.Random(9)
    # numerals: exact matrix agreement between both derivative paths
    for n in (0, 1, 2, 3):
        p = church_proof(n)
        dpi = denote_proof(derivative_transform(p))
        for _ in range(5):
            a, v = rand_matrix(rng, 2), rand_matrix(rng, 2)
            got = dpi.eval(end_ket(2, a), v)
            want = derivative_eval(p, a, v)
            assert got == want == church_derivative_oracle(n, a, v)
    # string numerals: extensional agreement on the curried form
    cfg = ProbeConfig(seed=9, samples=2, max_tangents=2, depth=4)
    for s in ("", "0", "10", "001"):
        p = bint_proof(s, arrows=1)
        dpi = denote_proof(derivative_transform(p))
        g, v = rand_matrix(rng, 2), rand_matrix(rng, 2)
        got = dpi.eval(end_ket(2, g), v)
        want = derivative_eval(p, g, v)
        assert extensional_equal(got, want, HomSpace(BangSpace(END), END), cfg), s
    # doubling proof: the bang argument carries higher-order entries
    rp = repeat_proof()
    dpi = denote_proof(derivative_transform(rp))
    bsp = denote_formula(bint_formula())
    for s, t in (("0", "1"), ("", "01")):
        sv, tv = bint_value(s, 2), bint_value(t, 2)
        arg = bg.BangElement.ket(bsp, sv)
        got = dpi.eval(arg, tv)
        want = derivative_eval(rp, sv, tv)
        assert extensional_equal(got, want, BINT_SPACE, cfg), (s, t)
    _report(9, "syntactic derivative transform matches the semantic "
               "derivative on numerals, string numerals, and doubling")


def test_criterion_10_mutation_sensitivity():
    results = {r.name: r for r in run_laws(
        RunConfig(seed=0, trials=200, mutate=True), groups=("bang",), names=D_LAWS)}
    # the corrupted map evades the laws where its sign cancels ...
    assert results["deriving-counit"].passed
    assert results["deriving-coproduct"].passed
    # ... but the linear-rule and chain-rule axioms catch it with witnesses
    broken = [results["deriving-dereliction"], results["deriving-promotion"]]
    assert not broken[0].passed and not broken[1].passed
    assert any(not results[n].passed
               for n in ("deriving-coproduct", "deriving-promotion"))
    for r in broken:
        assert r.witness
        print("[criterion 10] witness %s" % r.line())
    _report(10, "corrupted deriving map detected by the law suite")
