import os
import random
from fractions import Fraction

import pytest

from sweedler import bang as bg
from sweedler.exact import Matrix, Vec
from sweedler.sexpr import parse_proof, print_proof
from sweedler.syntax import (
    Bang, Cut, Lolli, LolliL, Prom, PropVar, Sequent, Weak, check_proof, derivative_transform)
from sweedler.semantics import (
    BangSpace, Base, HomSpace, ProbeConfig, denote_proof, derivative_eval,
    extensional_equal, nl_eval)
from sweedler.encodings import (
    bint_001_examples, bint_formula, bint_oracle, bint_proof, bundled_proofs,
    church_derivative_oracle, church_proof, church_value_oracle, comp_proof, end_formula,
    int_formula, int_proof, mult_by_numeral, mult_derivative_oracle,
    mult_difference_quotient, mult_proof, parse_bits, repeat_proof, write_proof_files)

A = PropVar("A", 2)
E = Lolli(A, A)
END = HomSpace(Base(2), Base(2))
BEND = BangSpace(END)
BINT_SPACE = HomSpace(BEND, HomSpace(BEND, END))


def bend(point, *tangents, coeff=1):
    return bg.BangElement.ket(END, point, tangents, coeff)


def rand_mat(rng, span=3):
    return Matrix(tuple(tuple(rng.randint(-span, span) for _ in range(2)) for _ in range(2)))


def test_conclusions_frozen():
    assert check_proof(comp_proof(3)) == Sequent((E, E, E), E)
    assert check_proof(comp_proof(0)) == Sequent((), E)
    assert check_proof(church_proof(0)) == Sequent((Bang(E),), E)
    assert check_proof(church_proof(4)) == Sequent((Bang(E),), E)
    assert check_proof(int_proof(2)) == Sequent((), int_formula())
    assert check_proof(bint_proof("001")) == Sequent((), bint_formula())
    assert check_proof(bint_proof("")) == Sequent((), bint_formula())
    assert check_proof(bint_proof("01", arrows=1)) == Sequent((Bang(E),), Lolli(Bang(E), E))
    assert check_proof(bint_proof("01", arrows=0)) == Sequent((Bang(E), Bang(E)), E)
    assert check_proof(repeat_proof()) == Sequent((Bang(bint_formula()),), bint_formula())
    assert check_proof(mult_proof()) == Sequent((Bang(int_formula()), int_formula()), int_formula())
    assert check_proof(mult_by_numeral(3)) == Sequent((Bang(int_formula()),), int_formula())


def test_long_numerals_build_without_recursion():
    # construction only: hashing and denoting such a proof still recurse
    p, links = comp_proof(2000).premise.premise, 0
    while isinstance(p, LolliL):
        p, links = p.body, links + 1
    assert links == 2000
    church_proof(2000)


def test_parse_bits():
    assert parse_bits("001") == (0, 0, 1)
    assert parse_bits("") == ()
    assert parse_bits((1, 0)) == (1, 0)
    with pytest.raises(ValueError):
        parse_bits("012")


def test_comp_applies_first_slot_first():
    rng = random.Random(5)
    d = denote_proof(comp_proof(3))
    for _ in range(5):
        f, g, h = (rand_mat(rng) for _ in range(3))
        got = d.eval(f, g, h)
        assert got == h @ g @ f
    assert denote_proof(comp_proof(0)).eval() == Matrix.identity(2)


def test_church_on_group_likes():
    rng = random.Random(6)
    for n in range(5):
        p = church_proof(n)
        for _ in range(4):
            alpha = rand_mat(rng)
            assert nl_eval(p, alpha) == church_value_oracle(n, alpha)


def test_church_shear_frozen():
    # iterating the unit shear twice squares it
    shear = Matrix(((1, 1), (0, 1)))
    assert nl_eval(church_proof(2), shear) == Matrix(((1, 2), (0, 1)))


def test_church_derivative_lemma():
    rng = random.Random(7)
    for n in range(5):
        p = church_proof(n)
        for _ in range(4):
            alpha, nu = rand_mat(rng), rand_mat(rng)
            got = derivative_eval(p, alpha, nu)
            assert got == church_derivative_oracle(n, alpha, nu)


def test_church_is_the_all_zeros_string_body():
    # the numeral n is the body of the string 0^n with its unused 1-slot dropped
    for n in range(41):
        assert Weak(1, Bang(E), church_proof(n)) == bint_proof("0" * n, arrows=0), n


def _bint_eval(s, *args):
    """Apply the denotation of the closed bint proof to two bang arguments."""
    from sweedler.semantics import apply_hom
    d = denote_proof(bint_proof(s))
    v = d.eval()
    return apply_hom(apply_hom(v, args[0]), args[1])


def test_bint_001_examples_agree_with_the_oracle():
    rng = random.Random(12)
    for _ in range(5):
        g, dl, a, a2, b = (rand_mat(rng) for _ in range(5))
        rows = bint_001_examples(g, dl, a, a2, b)
        assert len({label for label, *_ in rows}) == 6
        for label, (gp, *alphas), (dp, *betas), want in rows:
            assert (gp, dp) == (g, dl)
            assert _bint_eval("001", bend(gp, *alphas), bend(dp, *betas)) == want, label
            assert bint_oracle("001", g, dl, alphas, betas) == want, label


def test_bint_vanishing_when_tangents_exceed_positions():
    rng = random.Random(9)
    g, dl, a, a2, a3, b, b2 = (rand_mat(rng) for _ in range(7))
    assert _bint_eval("001", bend(g, a, a2, a3), bend(dl)) == Matrix.zero(2, 2)
    assert _bint_eval("001", bend(g), bend(dl, b, b2)) == Matrix.zero(2, 2)
    assert _bint_eval("", bend(g, a), bend(dl)) == Matrix.zero(2, 2)


def test_bint_matches_oracle_small():
    rng = random.Random(10)
    for s in ("", "0", "1", "10", "01", "110"):
        for stang, rtang in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)):
            g, dl = rand_mat(rng), rand_mat(rng)
            alphas = tuple(rand_mat(rng) for _ in range(stang))
            betas = tuple(rand_mat(rng) for _ in range(rtang))
            got = _bint_eval(s, bend(g, *alphas), bend(dl, *betas))
            want = bint_oracle(s, g, dl, alphas, betas)
            assert got == want, (s, stang, rtang)


def test_bint_oracle_frozen_products():
    g = Matrix(((1, 1), (0, 1)))
    dl = Matrix(((2, 0), (0, 1)))
    assert bint_oracle("01", g, dl) == dl @ g       # leftmost char acts first
    assert bint_oracle("10", g, dl) == g @ dl
    assert bint_oracle("", g, dl) == Matrix.identity(2)


def test_repeat_is_self_concatenation():
    rp = repeat_proof()
    cfg = ProbeConfig(seed=3, samples=2, max_tangents=2)
    for s in ("0", "01"):
        val = nl_eval(rp, denote_proof(bint_proof(s)).eval())
        want = denote_proof(bint_proof(s + s)).eval()
        assert extensional_equal(val, want, BINT_SPACE, cfg)


def test_repeat_derivative_is_two_sided_insertion():
    from sweedler.semantics import add_values
    rp = repeat_proof()
    cfg = ProbeConfig(seed=4, samples=2, max_tangents=2)
    s_val = denote_proof(bint_proof("0")).eval()
    t_val = denote_proof(bint_proof("1")).eval()
    got = derivative_eval(rp, s_val, t_val)
    want = add_values(denote_proof(bint_proof("01")).eval(),
                      denote_proof(bint_proof("10")).eval())
    assert extensional_equal(got, want, BINT_SPACE, cfg)


def test_promotion_totem_values():
    # prom(church n) sends |>_a to |>_{a^n} and |v>_a to |dv>_{a^n}
    rng = random.Random(11)
    for n in (1, 2, 3):
        d = denote_proof(Prom(church_proof(n)))
        alpha, nu = rand_mat(rng), rand_mat(rng)
        out0 = d.eval(bend(alpha))
        assert out0 == bend(church_value_oracle(n, alpha))
        out1 = d.eval(bend(alpha, nu))
        assert out1 == bend(church_value_oracle(n, alpha),
                            church_derivative_oracle(n, alpha, nu))


def test_cut_promoted_bint_through_repeat():
    p = Cut(0, Prom(bint_proof("01")), repeat_proof())
    assert check_proof(p) == Sequent((), bint_formula())
    got = denote_proof(p).eval()
    want = denote_proof(bint_proof("0101")).eval()
    assert extensional_equal(got, want, BINT_SPACE, ProbeConfig(seed=5, max_tangents=2))


def test_mult_derivative_closed_form():
    rng = random.Random(12)
    int_space = HomSpace(BEND, END)
    from sweedler.semantics import apply_hom
    for (l, m, n) in ((1, 1, 2), (2, 1, 2), (1, 2, 3), (2, 3, 1)):
        dv = derivative_eval(mult_by_numeral(n),
                             denote_proof(int_proof(l)).eval(),
                             denote_proof(int_proof(m)).eval())
        for _ in range(3):
            x = rand_mat(rng)
            got = apply_hom(dv, bend(x))
            assert got == mult_derivative_oracle(l, m, n, x)
            assert got == mult_difference_quotient(l, m, n, x)


def test_difference_quotient_agrees_with_closed_form():
    rng = random.Random(13)
    for _ in range(20):
        l, m, n = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        x = rand_mat(rng)
        assert mult_difference_quotient(l, m, n, x) == mult_derivative_oracle(l, m, n, x)


def test_derivative_transform_coherence_on_church():
    rng = random.Random(14)
    for n in (0, 1, 2, 3):
        dpi = denote_proof(derivative_transform(church_proof(n)))
        for _ in range(3):
            alpha, nu = rand_mat(rng), rand_mat(rng)
            got = dpi.eval(bend(alpha), nu)
            want = derivative_eval(church_proof(n), alpha, nu)
            assert got == want == church_derivative_oracle(n, alpha, nu)


def test_bundled_files_match_constructors(tmp_path):
    proofs_dir = os.path.join(os.path.dirname(__file__), "..", "proofs")
    names = write_proof_files(tmp_path)
    for name in names:
        fresh = (tmp_path / (name + ".sexp")).read_text()
        committed_path = os.path.join(proofs_dir, name + ".sexp")
        assert os.path.exists(committed_path), "missing committed proof %s" % name
        committed = open(committed_path).read()
        assert committed == fresh, "stale committed proof %s" % name
        body = "\n".join(line for line in committed.splitlines()
                         if not line.startswith(";"))
        assert parse_proof(body) == bundled_proofs()[name]


def test_bundled_proofs_all_check():
    for name, proof in bundled_proofs().items():
        check_proof(proof)
        text = print_proof(proof)
        assert parse_proof(text) == proof
