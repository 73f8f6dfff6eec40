import gc
import itertools
import math
import os
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from sweedler.exact import Matrix, Vec
from sweedler import bang as bg
from sweedler import semantics as sem
from sweedler import syntax
from sweedler.encodings import bint_proof, church_proof, end_formula
from sweedler.sexpr import parse_proof, print_proof
from sweedler.syntax import (
    Axiom, Bang, Coctr, Coder, Coweak, Ctr, Cut, Der, Exchange, Lolli, LolliL,
    LolliR, Prom, Proof, PropVar, TensorL, TensorR, Weak, derivative_transform)
from sweedler.semantics import (
    BangSpace, Base, Denotation, HomSpace, MapVal, ProbeConfig, ProbeDepthError,
    SpaceMismatch, TensorSpace, TensorVal, denote_formula,
    denote_proof, derivative_eval, extensional_equal, nl_eval,
    parse_value, value_to_json)

from lazy_maps import lazy_map
from proof_gen import well_typed_proofs

A = PropVar("A", 2)
NA = Bang(A)
PROOFS = os.path.join(os.path.dirname(__file__), "..", "proofs")


def bval(point, *tangents, coeff=1):
    return bg.BangElement.ket(Base(2), Vec(point), tuple(Vec(t) for t in tangents), coeff)


def test_denote_formula():
    f = Lolli(Bang(A), PropVar("B", 3))
    assert denote_formula(f) == HomSpace(BangSpace(Base(2)), Base(3))
    assert denote_formula(Bang(Bang(A))) == BangSpace(BangSpace(Base(2)))


def test_axiom_is_identity():
    d = denote_proof(Axiom(A))
    v = Vec((1, 2))
    assert d.eval(v) == v
    with pytest.raises(SpaceMismatch):
        d.eval(Vec((1, 2, 3)))
    with pytest.raises(SpaceMismatch):
        d.eval(v, v)


def test_lolli_r_materializes_matrices():
    d = denote_proof(LolliR(Axiom(A)))          # |- A -o A
    assert d.source == ()
    assert d.eval() == Matrix.identity(2)


def test_lolli_l_applies():
    p = LolliL(0, Axiom(A), Axiom(A))           # A, A -o A |- A
    d = denote_proof(p)
    f = Matrix(((1, 1), (0, 1)))
    assert d.eval(Vec((2, 3)), f) == Vec((5, 3))


def test_dereliction_rule():
    d = Der(0, Axiom(A))                        # !A |- A
    den = denote_proof(d)
    assert den.eval(bval((1, 2))) == Vec((1, 2))
    assert den.eval(bval((1, 2), (0, 1), coeff=3)) == Vec((0, 3))
    assert den.eval(bval((1, 2), (0, 1), (1, 0))) == Vec((0, 0))
    assert nl_eval(d, Vec((4, 5))) == Vec((4, 5))
    assert derivative_eval(d, Vec((4, 5)), Vec((1, 1))) == Vec((1, 1))


def test_contraction_splits_tangents():
    pair = TensorR(Der(0, Axiom(A)), Der(0, Axiom(A)))   # !A, !A |- A * A
    p = Ctr(0, pair)                                     # !A |- A * A
    d = denote_proof(p)
    P, v = Vec((1, 2)), Vec((0, 1))
    got = d.eval(bval((1, 2), (0, 1)))
    space = TensorSpace(Base(2), Base(2))
    want = TensorVal.make(space, [
        (1, (P, v)),
        (1, (v, P)),
    ])
    assert got == want


def test_tensor_value_repr_and_json_frozen():
    space = TensorSpace(Base(2), Base(2))
    t = TensorVal.make(space, [(Fraction(3, 2), (Vec((0, 1)), Vec((1, 0)))),
                               (-1, (Vec((1, 0)), Vec((0, 2))))])
    assert repr(t) == "3/2 (0, 1) (x) (1, 0) - 2 (1, 0) (x) (0, 1)"
    assert value_to_json(t) == [
        {"coeff": "3/2", "factors": [["0", "1"], ["1", "0"]]},
        {"coeff": "-2", "factors": [["1", "0"], ["0", "1"]]}]
    mixed = TensorSpace(BangSpace(Base(1)), HomSpace(Base(1), Base(2)))
    u = TensorVal.make(mixed, [(Fraction(-2, 3), (
        bg.BangElement.ket(Base(1), Vec((1,)), (Vec((3,)),)), Matrix(((1,), (2,)))))])
    assert repr(u) == "-4 |(1)>_(1) (x) [0; 1] - 2 |(1)>_(1) (x) [1; 0]"
    assert value_to_json(u) == [
        {"coeff": "-4", "factors": [[{"coeff": "1", "point": ["1"], "tangents": [["1"]]}],
                                    [["0"], ["1"]]]},
        {"coeff": "-2", "factors": [[{"coeff": "1", "point": ["1"], "tangents": [["1"]]}],
                                    [["1"], ["0"]]]}]


def test_weakening_is_counit():
    B3 = PropVar("B", 3)
    p = Weak(0, NA, Axiom(B3))                 # !A, B |- B
    d = denote_proof(p)
    b = Vec((1, 2, 3))
    assert d.eval(bval((5, 6), coeff=4), b) == Vec((4, 8, 12))
    assert d.eval(bval((5, 6), (1, 0)), b) == Vec((0, 0, 0))


def test_promotion_of_dereliction_is_identity():
    p = Prom(Der(0, Axiom(A)))                 # !A |- !A
    d = denote_proof(p)
    t = bval((1, 2), (1, 0), (0, 1))
    assert d.eval(t) == t

    q = Cut(0, p, Der(0, Axiom(A)))            # d after prom(d) = d
    dq = denote_proof(q)
    assert dq.eval(t) == Vec((0, 0))
    assert dq.eval(bval((1, 2), (3, 4))) == Vec((3, 4))


def test_promotion_of_axiom_is_the_comultiplication():
    delta = Prom(Axiom(NA))                    # !A |- !!A
    d = denote_proof(delta)
    t = bval((1, 2), (1, 0), (0, 1))
    out = d.eval(t)
    assert BangSpace(BangSpace(Base(2))).contains(out)
    assert out == bg.promote(t)


def test_exchange_permutes_arguments():
    B3 = PropVar("B", 3)
    body = Weak(0, NA, Axiom(B3))              # !A, B |- B
    p = Exchange((1, 0), body)                 # B, !A |- B
    d = denote_proof(p)
    b = Vec((1, 0, 0))
    assert d.eval(b, bval((9, 9), coeff=2)) == Vec((2, 0, 0))
    # a permutation given as a list is kept as a tuple: the proof equals p
    assert Exchange([1, 0], body) == p and Exchange([1, 0], body).perm == (1, 0)
    assert denote_proof(Exchange([1, 0], body)) is d


def test_derivative_transform_semantics():
    d = Der(0, Axiom(A))
    t = derivative_transform(d)                # !A, A |- A
    den = denote_proof(t)
    out = den.eval(bval((1, 2)), Vec((3, 4)))
    assert out == Vec((3, 4))
    # and at a ket that already has one tangent, the group-like part is dead
    out2 = den.eval(bval((1, 2), (1, 0)), Vec((3, 4)))
    assert out2 == Vec((0, 0))


def test_coweak_inserts_unit():
    d = Der(0, Axiom(A))
    p = Coweak(0, NA, d)                       # |- A
    den = denote_proof(p)
    assert den.eval() == Vec((0, 0))


def test_multilinearity_of_eval():
    p = Ctr(0, TensorR(Der(0, Axiom(A)), Der(0, Axiom(A))))
    d = denote_proof(p)
    u = bval((1, 2), (1, 0))
    v = bval((3, 4))
    lhs = d.eval(u.scale(2) + v)
    rhs = d.eval(u).scale(2) + d.eval(v)
    assert lhs == rhs


def test_closures_print_in_creation_order():
    hom = HomSpace(BangSpace(Base(2)), Base(2))
    zero = lambda x: Vec((0, 0))
    # Freed closures leave holes that later ones fill, so that addresses no
    # longer follow creation order.
    for _ in range(100):
        maps = [lazy_map(hom, zero) for _ in range(8)]
        del maps[:4]
        maps += [lazy_map(hom, zero) for _ in range(4)]
        if sorted(maps, key=id) != maps:
            break
    assert sorted(maps, key=id) != maps
    elt = bg.BangElement.from_terms(
        hom, [(i + 1, m, ()) for i, m in reversed(list(enumerate(maps)))])
    body = "|>_<linear map (!2 -o 2)>"
    assert repr(elt) == " + ".join([body] + ["%d %s" % (i, body) for i in range(2, 9)])


def test_equal_closures_merge_and_cancel():
    # the same proof evaluated twice curries the same denotation: equal maps
    d = denote_proof(parse_proof("(lolli-r (der 0 (axiom (pvar A 1))))"))
    f, g = d.eval(), d.eval()
    assert f is not g and f == g and hash(f) == hash(g)
    diff = bg.BangElement.ket(d.target, f) - bg.BangElement.ket(d.target, g)
    assert diff.is_zero() and repr(diff) == "0"
    assert (f - g).is_zero() and f + g == f.scale(2) and repr(f.scale(-2)) == (
        "-2 <linear map (!1 -o 1)>")
    # a lazy map expands into its atoms: kets are linear in each tangent;
    # a lone atom prints bare in a ket, a sum in parentheses
    h = lazy_map(d.target, lambda x: Vec((bg.counit(x),)))
    assert bg.BangElement.ket(d.target, f, (f + h,)) == (
        bg.BangElement.ket(d.target, f, (f,)) + bg.BangElement.ket(d.target, f, (h,)))
    assert bg.BangElement.ket(d.target, f, (g - f,)).is_zero()
    assert repr(bg.BangElement.ket(d.target, f + f, (f,))) == (
        "|<linear map (!1 -o 1)>>_(2 <linear map (!1 -o 1)>)")


def test_a_structural_match_short_cuts_the_probes(monkeypatch):
    hom = HomSpace(BangSpace(Base(2)), Base(2))
    lolli, calls = _build_counted(LolliR, Der(0, Axiom(A)), monkeypatch)
    f, g = lolli.fn(), lolli.fn()
    assert extensional_equal(f, f, hom) and extensional_equal(f, g, hom)
    assert extensional_equal(f + g, g.scale(2), hom) and calls == []
    # maps that differ structurally are still probed
    h = lazy_map(hom, lambda x: bg.derelict(x) or Vec((0, 0)))
    assert extensional_equal(f, h, hom) and calls


def test_extensional_equal_probes_maps():
    hom = HomSpace(Base(2), Base(2))
    mat = Matrix(((1, 1), (0, 1)))
    clone = lazy_map(hom, mat.apply)
    other = lazy_map(hom, lambda x: x)
    assert extensional_equal(mat, clone, hom)
    assert not extensional_equal(mat, other, hom)
    assert extensional_equal(mat, mat, hom)


def test_extensional_equal_on_bang_domains():
    # two syntactically different proofs of !A |- A with equal meaning
    d1 = denote_proof(LolliR(Der(0, Axiom(A))))
    d2 = denote_proof(LolliR(Ctr(0, Weak(0, NA, Der(0, Axiom(A))))))
    h = HomSpace(BangSpace(Base(2)), Base(2))
    assert extensional_equal(d1.eval(), d2.eval(), h)
    d3 = denote_proof(LolliR(Coweak(1, NA, Coctr(0, Der(0, Axiom(A))))))
    assert extensional_equal(d1.eval(), d3.eval(), h)


def test_probe_depth_error_for_unreachable_domains():
    weird = HomSpace(HomSpace(BangSpace(Base(2)), Base(2)), Base(2))
    a = lazy_map(weird, lambda x: Vec((0, 0)))
    b = lazy_map(weird, lambda x: Vec((0, 0)))
    with pytest.raises(ProbeDepthError):
        extensional_equal(a, b, weird)


def test_parse_value_round_trip():
    v = parse_value(Base(2), ["1/2", "-3"])
    assert v == Vec(("1/2", -3))
    assert value_to_json(v) == ["1/2", "-3"]

    hom = HomSpace(Base(2), Base(2))
    m = parse_value(hom, [["1", "0"], ["2", "1/3"]])
    assert m == Matrix(((1, 0), (2, "1/3")))

    ket_json = [{"coeff": "3", "point": ["1", "0"], "tangents": [["0", "2"]]}]
    t = parse_value(BangSpace(Base(2)), ket_json)
    assert t == bval((1, 0), (0, 1), coeff=6)  # tangent (0,2) = 2*e1
    assert value_to_json(t) == [{"coeff": "6", "point": ["1", "0"], "tangents": [["0", "1"]]}]

    bang_end = BangSpace(hom)
    tm = parse_value(bang_end, {"point": [["1", "1"], ["0", "1"]], "tangents": []})
    assert value_to_json(tm) == [{"coeff": "1", "point": [["1", "1"], ["0", "1"]], "tangents": []}]


def test_parse_value_mismatch():
    with pytest.raises(SpaceMismatch):
        parse_value(HomSpace(Base(2), Base(2)), [["1", "0"]])
    with pytest.raises(SpaceMismatch):
        parse_value(BangSpace(Base(2)), [{"coeff": "1"}])
    with pytest.raises(SpaceMismatch):
        parse_value(HomSpace(BangSpace(Base(2)), Base(2)), [])


# -- one denotation per distinct proof ------------------------------------------


def _nodes(p):
    """Every node of a proof tree, repeated sub-trees once per occurrence."""
    yield p
    for name in p._fields:
        v = getattr(p, name)
        if isinstance(v, Proof):
            yield from _nodes(v)


def test_equal_proofs_share_one_live_denotation():
    d = denote_proof(bint_proof("0110"))
    assert denote_proof(bint_proof("0110")) is d
    assert denote_proof(parse_proof(print_proof(bint_proof("0110")))) is d
    assert not hasattr(d, "__dict__")


def _twin_proof(name):
    """|- !U -o U * U, built with two equal but distinct copies of Der(0, Axiom(U)).

    ``name`` is a variable no other test uses, so no other live denotation
    shares a node with the proof.
    """
    u = PropVar(name, 3)
    return LolliR(Ctr(0, TensorR(Der(0, Axiom(u)), Der(0, Axiom(u)))))


def test_equal_sub_trees_are_denoted_once(monkeypatch):
    p = _twin_proof("Twin")
    nodes = list(_nodes(p))
    built = []
    build = sem._build
    monkeypatch.setattr(sem, "_build", lambda q: built.append(q) or build(q))
    denote_proof(p)
    assert len(built) == len(set(built)) == len(set(nodes)) < len(nodes)


def test_denotation_cache_holds_no_dead_entries():
    p = _twin_proof("Dropped")
    d = denote_proof(p)
    alive = weakref.ref(d)
    assert all(sem._denotations.get(q) is not None for q in _nodes(p))
    del d
    gc.collect()
    assert alive() is None
    assert not any(q in sem._denotations for q in _nodes(p))


def _every_rule_proof():
    """(Arg -o (!Live * Live)), Arg |- Live * Live: the seven context rules, a
    LolliL whose argument is an axiom, and an exchange, over variables that no
    other test uses."""
    u, x = PropVar("Live", 2), PropVar("LiveArg", 1)
    p = Ctr(0, TensorR(Der(0, Axiom(u)), Der(0, Axiom(u))))   # !U |- U * U
    p = Coder(1, Coweak(2, Bang(u), Coctr(0, Weak(1, Bang(u), p))))
    return Exchange((1, 0), LolliL(0, Axiom(x), TensorL(0, p)))


def test_denotation_cache_keeps_every_rule_premise_alive():
    p = _every_rule_proof()
    kinds = {type(q) for q in _nodes(p)}
    assert set(sem._STRUCTURAL) | {LolliL, Exchange, Axiom} <= kinds
    d = denote_proof(p)
    gc.collect()
    assert all(sem._denotations.get(q) is not None for q in _nodes(p))
    # and the closures still evaluate: h(1) = |>_(1,2) (x) (3,4)
    hom, arg = d.source
    P, Q = Vec((1, 2)), Vec((3, 4))
    h = lazy_map(hom, lambda a: TensorVal.make(hom.cod, [(a.coords[0], (bval((1, 2)), Q))]))
    space = TensorSpace(Base(2), Base(2))
    assert d.eval(h, Vec((1,))) == TensorVal.make(space, [(1, (P, Q)), (1, (Q, P))])
    alive = weakref.ref(d)
    del d
    gc.collect()
    assert alive() is None
    assert not any(q in sem._denotations for q in _nodes(p))


# -- the promotion rule calls its premise once per distinct block -------------


def _set_partitions(items):
    """Reference: the Bell(n) partitions of a list into blocks, as lists of tuples."""
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for blocks in _set_partitions(tail):
        yield [(head,)] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [(head,) + blocks[i]] + blocks[i + 1:]


def _prom_by_partitions(prem, vals):
    """Reference promotion: one premise call per block of every set partition."""
    spaces = tuple(s.inner for s in prem.source)
    items = []
    for combo in itertools.product(*(v.sorted_terms() for v in vals)):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        kets = [k for k, _ in combo]
        tagged = [(si, x) for si, k in enumerate(kets) for x in k.tangents]
        point = prem.fn(*(bg.BangElement.ket(spaces[si], k.point) for si, k in enumerate(kets)))
        for blocks in _set_partitions(list(range(len(tagged)))):
            entries = []
            for block in blocks:
                picked = {}
                for j in block:
                    si, x = tagged[j]
                    picked.setdefault(si, []).append(x)
                entries.append(prem.fn(*(
                    bg.BangElement.from_terms(
                        spaces[si], [(1, kets[si].point, tuple(picked.get(si, ())))])
                    for si in range(len(kets)))))
            items.append((coeff, point, tuple(entries)))
    return bg.BangElement.from_terms(prem.target, items)


def _rand_ket_sum(rng, space, tangents):
    """One or two kets over End(Q^2) with `tangents` sparse tangents each."""
    def mat(nonzero):
        cells = rng.sample(range(4), nonzero)
        return Matrix(tuple(tuple(sem.rand_fraction(rng) or 1 if 2 * i + j in cells else 0
                                  for j in range(2)) for i in range(2)))
    return bg.BangElement.from_terms(space, [
        (sem.rand_fraction(rng) or 1, mat(4), tuple(mat(rng.randint(1, 2)) for _ in range(tangents)))
        for _ in range(rng.randint(1, 2))])


@pytest.mark.parametrize("premise,profiles", [
    (church_proof(2), [(s,) for s in range(5)]),
    (bint_proof("01", arrows=0), [(s, r) for s in range(5) for r in range(5 - s)]),
], ids=["one slot", "two slots"])
def test_promotion_calls_the_premise_once_per_distinct_block(premise, profiles, monkeypatch):
    prem = denote_proof(premise)
    calls = []
    counted = Denotation(prem.source, prem.target, lambda *a: calls.append(a) or prem.fn(*a))
    den = sem._den
    monkeypatch.setattr(sem, "_den", lambda p: counted if p == premise else den(p))
    prom = sem._build(Prom(premise))
    space = denote_formula(end_formula())
    for seed, profile in enumerate(profiles):
        rng = random.Random(seed)
        vals = [_rand_ket_sum(rng, space, s) for s in profile]
        calls.clear()
        out = prom.fn(*vals)
        # 1 call at the point, one per nonempty sub-multiset of the tangents
        # tagged with their slot: prod (m + 1) over the runs of m equal ones
        assert len(calls) == sum(
            math.prod(m + 1 for m in Counter((si, x) for si, k in enumerate(kets)
                                             for x in k.tangents).values())
            for kets in itertools.product(*(v.terms for v in vals)))
        ref = _prom_by_partitions(prem, vals)
        assert out.terms == ref.terms
        assert repr(out) == repr(ref)


# -- the context rules: value and premise calls --------------------------------


B3 = PropVar("B", 3)


def test_one_table_holds_the_context_rules():
    assert set(sem._STRUCTURAL) == set(syntax.CONTEXT_RULES)
    assert set(syntax.CONTEXT_RULES) == {TensorL, Der, Ctr, Weak, Coder, Coctr, Coweak}


def test_checker_and_semantics_agree_on_spaces():
    """Every generated proof and every bundled one denotes a map from the
    spaces of its sequent's context to the space of its conclusion."""
    names = sorted(os.listdir(PROOFS))
    assert len(names) == 13
    proofs = []
    for name in names:
        with open(os.path.join(PROOFS, name), encoding="utf-8") as fh:
            proofs.append(parse_proof(fh.read()))
    generated = [p for seed in range(3) for p, _ in well_typed_proofs(seed, 200)]
    assert {type(p) for p in generated} == set(Proof.__args__)
    for p in proofs + generated:
        s, d = sem.denote_sequent(p)
        assert d.source == tuple(map(denote_formula, s.context))
        assert d.target == denote_formula(s.conclusion)


def _build_counted(rule, premise, monkeypatch):
    """The rule's denotation over a premise that records each of its calls;
    the premise is matched by identity, since an equal sub-proof may sit
    beside it."""
    prem = denote_proof(premise)
    calls = []
    counted = Denotation(prem.source, prem.target, lambda *a: calls.append(a) or prem.fn(*a))
    den = sem._den
    monkeypatch.setattr(sem, "_den", lambda p: counted if p is premise else den(p))
    return sem._build(rule(premise)), calls


def test_tensor_left_calls_the_premise_once_per_pure_tensor(monkeypatch):
    # B * A |- A * B: the swap
    swap, calls = _build_counted(
        partial(TensorL, 0), Exchange((1, 0), TensorR(Axiom(A), Axiom(B3))), monkeypatch)
    e0, e1 = Vec((1, 0, 0)), Vec((0, 1, 0))
    x, y = Vec((1, 0)), Vec((0, 1))
    t = TensorVal.make(TensorSpace(Base(3), Base(2)),
                       [(2, (e0, y)), (-1, (e1, x)), (Fraction(1, 3), (e1, y))])
    out = swap.fn(t)
    assert out == TensorVal.make(TensorSpace(Base(2), Base(3)),
                                 [(2, (y, e0)), (-1, (x, e1)), (Fraction(1, 3), (y, e1))])
    assert calls == [pair for pair, _ in t.sorted_terms()]


def test_dereliction_skips_the_premise_on_kets_of_order_two(monkeypatch):
    der, calls = _build_counted(partial(Der, 0), Axiom(A), monkeypatch)
    t = bval((1, 2), (1, 0), (0, 1)) + bval((3, 4), (1, 1), (0, 1), coeff=5)
    assert der.fn(t) == Vec((0, 0)) and calls == []
    assert der.fn(t + bval((1, 1), (0, 2), coeff=3) + bval((1, 0))) == Vec((1, 6))
    assert len(calls) == 1


def test_weakening_multiplies_the_premise_by_the_counit(monkeypatch):
    weak, calls = _build_counted(partial(Weak, 0, NA), Axiom(B3), monkeypatch)
    b = Vec((1, 2, 3))
    for zero in (bval((5, 6), (1, 0)), bval((1, 2)) - bval((3, 4))):
        assert weak.fn(zero, b) == Vec((0, 0, 0)) and calls == []
    assert weak.fn(bval((5, 6), coeff=4) + bval((1, 1), (1, 0)), b) == Vec((4, 8, 12))
    assert calls == [(b,)]


def test_contraction_calls_the_premise_once_per_distinct_left_factor(monkeypatch):
    ctr, calls = _build_counted(
        partial(Ctr, 0), TensorR(Der(0, Axiom(A)), Der(0, Axiom(A))), monkeypatch)
    P, Q, v = Vec((1, 2)), Vec((3, 4)), Vec((0, 1))
    space = TensorSpace(Base(2), Base(2))
    out = ctr.fn(bval((1, 2), (0, 1)) + bval((3, 4)))
    assert out == TensorVal.make(space, [(1, (P, v)), (1, (v, P)), (1, (Q, Q))])
    assert len(calls) == 3
    calls.clear()
    # four splittings of |v, v>, three distinct left factors
    assert ctr.fn(bval((1, 2), (0, 1), (0, 1))) == TensorVal.make(space, [(2, (v, v))])
    assert len(calls) == 3
    monkeypatch.undo()
    # the shape doubling feeds Ctr: two full matrix tangents over End(Q^2) expand
    # into 10 kets |u, u'>_P of elementary units; left factors: |>_P, 4 of one
    # unit, 10 of two, so 15 calls where a split by rank would make 2
    end = Lolli(A, A)
    ctr, calls = _build_counted(
        partial(Ctr, 0), TensorR(Der(0, Axiom(end)), Der(0, Axiom(end))), monkeypatch)
    P, M, N = Matrix(((2, 0), (1, 3))), Matrix(((1, 1), (1, 1))), Matrix(((1, 2), (3, 4)))
    t = bg.BangElement.ket(denote_formula(end), P, (M, N))
    assert len(t.terms) == 10
    hom = denote_formula(end)
    assert ctr.fn(t) == TensorVal.make(TensorSpace(hom, hom), [(1, (M, N)), (1, (N, M))])
    assert len(calls) == len({xs[0] for xs in calls}) == 15


def test_context_rules_return_zero_at_a_zero_argument():
    u = bval((1, 2), (0, 1))
    cases = [   # (proof, arguments with the rule's conclusion slot at zero)
        (TensorL(0, TensorR(Axiom(A), Axiom(B3))), (TensorSpace(Base(2), Base(3)).zero(),)),
        (Der(0, Axiom(A)), (bval((1, 2)).scale(0),)),
        (Ctr(0, TensorR(Der(0, Axiom(A)), Der(0, Axiom(A)))), (bval((1, 2)).scale(0),)),
        (Weak(0, NA, Axiom(B3)), (bval((1, 2)) - bval((1, 2)), Vec((1, 2, 3)))),
        (Coder(0, Der(0, Axiom(A))), (Vec((0, 0)),)),
        (Coctr(0, Der(0, Axiom(A))), (bval((1, 2)).scale(0), u)),
        (Coctr(0, Der(0, Axiom(A))), (u, bval((1, 2)).scale(0))),
    ]
    for p, args in cases:
        d = denote_proof(p)
        out = d.eval(*args)
        assert out is not None and out == d.target.zero()
    # Coweak has no conclusion slot; at u = |>_0 two derelictions of Delta give 0 (x) 0
    d = denote_proof(Coweak(0, NA, Ctr(0, TensorR(Der(0, Axiom(A)), Der(0, Axiom(A))))))
    assert d.source == () and d.eval() == TensorSpace(Base(2), Base(2)).zero()


def test_co_rules_call_the_premise_once(monkeypatch):
    coder, calls = _build_counted(partial(Coder, 0), Der(0, Axiom(A)), monkeypatch)
    assert coder.fn(Vec((2, 5))) == Vec((2, 5)) and len(calls) == 1
    monkeypatch.undo()
    coctr, calls = _build_counted(partial(Coctr, 0), Der(0, Axiom(A)), monkeypatch)
    assert coctr.fn(bval((1, 2)), bval((3, 4), (0, 7))) == Vec((0, 7)) and len(calls) == 1
    monkeypatch.undo()
    coweak, calls = _build_counted(partial(Coweak, 0, NA), Weak(0, NA, Axiom(B3)), monkeypatch)
    b = Vec((1, 2, 3))
    assert coweak.fn(b) == b and len(calls) == 1


# -- LolliL and Cut skip a premise whose argument they computed as zero --------


def test_lolli_l_skips_the_body_when_the_map_gives_zero(monkeypatch):
    lolli, calls = _build_counted(partial(LolliL, 0, Axiom(A)), Axiom(A), monkeypatch)
    nil = Matrix(((0, 1), (0, 0)))
    assert lolli.fn(Vec((3, 0)), nil) == Vec((0, 0)) and calls == []
    assert lolli.fn(Vec((3, 5)), Matrix.zero(2, 2)) == Vec((0, 0)) and calls == []
    assert lolli.fn(Vec((3, 5)), nil) == Vec((5, 0)) and calls == [(Vec((5, 0)),)]
    monkeypatch.undo()
    # !A, (!A -o !A) |- !A: a zero ket sum is skipped, the group-like |>_0 is not
    lolli, calls = _build_counted(partial(LolliL, 0, Axiom(NA)), Axiom(NA), monkeypatch)
    ident = denote_proof(LolliR(Axiom(NA))).eval()
    assert lolli.fn(bval((1, 2)).scale(0), ident).is_zero() and calls == []
    u = bg.coweaken(Base(2))
    assert u == bval((0, 0)) and not u.is_zero()
    assert lolli.fn(u, ident) == u and calls == [(u,)]


def test_lolli_l_skips_the_body_at_the_zero_map(monkeypatch):
    # C, (C -o C) |- C with C = !A -o A: the zero map is the empty sum
    c = Lolli(NA, A)
    lolli, calls = _build_counted(partial(LolliL, 0, Axiom(c)), Axiom(c), monkeypatch)
    zero_map = denote_formula(c).zero()
    assert zero_map == HomSpace(BangSpace(Base(2)), Base(2)).zero()
    assert isinstance(zero_map, MapVal) and zero_map.is_zero() and repr(zero_map) == "0"
    ident = denote_proof(LolliR(Axiom(c))).eval()
    assert lolli.fn(zero_map, ident) == zero_map and calls == []
    # h = 0 gives h(x) = 0 without a call of the body, and so does h - h
    zero_hom = HomSpace(denote_formula(c), denote_formula(c)).zero()
    f = lazy_map(denote_formula(c), lambda x: Vec((bg.counit(x), 0)))
    assert lolli.fn(f, zero_hom) == zero_map and calls == []
    assert lolli.fn(f, ident - ident) == zero_map and calls == []
    assert lolli.fn(f, ident) == f and calls == [(f,)]


def test_cut_skips_the_right_premise_when_the_left_gives_zero(monkeypatch):
    cut, calls = _build_counted(partial(Cut, 0, Der(0, Axiom(A))), Axiom(A), monkeypatch)
    assert cut.fn(bval((1, 2), (1, 0), (0, 1))) == Vec((0, 0)) and calls == []
    assert cut.fn(bval((1, 2), (1, 0)) - bval((3, 4), (1, 0))) == Vec((0, 0)) and calls == []
    assert cut.fn(bval((1, 2), (0, 3))) == Vec((0, 3)) and calls == [(Vec((0, 3)),)]
    monkeypatch.undo()
    # the group-like ket |>_0 is u, not zero: the right premise sees it
    cut, calls = _build_counted(partial(Cut, 0, Axiom(NA)), Weak(0, NA, Axiom(B3)), monkeypatch)
    b = Vec((1, 2, 3))
    assert cut.fn(bg.coweaken(Base(2)), b) == b and len(calls) == 1
    assert cut.fn(bval((1, 2)).scale(0), b) == Vec((0, 0, 0)) and len(calls) == 1
    monkeypatch.undo()
    # the zero map is skipped, a nonzero lazy map is passed on
    c = Lolli(NA, A)
    cut, calls = _build_counted(partial(Cut, 0, Axiom(c)), Axiom(c), monkeypatch)
    zero_map = denote_formula(c).zero()
    assert cut.fn(zero_map) == zero_map and calls == []
    f = lazy_map(denote_formula(c), lambda x: Vec((0, 0)))
    assert cut.fn(f) is f and calls == [(f,)]


# -- work counts: a regression in the work shows without timing the host ------


def test_doubling_derivative_check_pins_its_matrix_applications(monkeypatch):
    """One criterion-06-style check: the derivative of the doubling proof at
    S = 01 toward T = 10, probed against 0110 + 1001.  1,608 applications
    before LolliL and Cut skipped premises at zero arguments."""
    from sweedler import exact
    from sweedler.encodings import bint_formula, bint_value, repeat_proof
    calls = []
    apply = exact.Matrix.apply
    monkeypatch.setattr(exact.Matrix, "apply", lambda m, v: calls.append(None) or apply(m, v))
    cfg = ProbeConfig(seed=6, samples=2, max_tangents=2, depth=4)
    got = derivative_eval(repeat_proof(2), bint_value("01", 2), bint_value("10", 2))
    want = bint_value("0110", 2) + bint_value("1001", 2)
    assert extensional_equal(got, want, denote_formula(bint_formula(2)), cfg)
    assert len(calls) == 1100


def _closed(text):
    """Value and target space of a closed proof given as text, A = (pvar A 1)."""
    d = denote_proof(parse_proof(text.replace("A", "(pvar A 1)")))
    return d.eval(), d.target


def test_promotion_into_a_tensor():
    p = parse_proof(
        "(prom (tensor-r (der 0 (axiom (pvar A 1))) (der 0 (axiom (pvar B 1)))))")
    d = denote_proof(p)
    V1 = Base(1)
    space = TensorSpace(V1, V1)
    assert d.target == BangSpace(space) and d.target.label() == "!(1 * 1)"

    def pure(a, b):
        return TensorVal.make(space, [(1, (Vec((a,)), Vec((b,))))])

    # Delta of |5>_2 (x) |7>_3: the block {5, 7}, or the blocks {5} and {7}
    x = bg.BangElement.ket(V1, Vec((2,)), (Vec((5,)),))
    y = bg.BangElement.ket(V1, Vec((3,)), (Vec((7,)),))
    got = d.eval(x, y)
    point = pure(2, 3)
    assert got == bg.BangElement.from_terms(
        space, [(1, point, (pure(5, 7),)), (1, point, (pure(5, 3), pure(2, 7)))])
    unit = [{"coeff": "1", "factors": [["1"], ["1"]]}]
    at = [{"coeff": "6", "factors": [["1"], ["1"]]}]
    assert value_to_json(got) == [{"coeff": "35", "point": at, "tangents": [unit]},
                                  {"coeff": "210", "point": at, "tangents": [unit, unit]}]
    # group-likes promote to the group-like at the tensor of the points
    got = d.eval(bg.BangElement.ket(V1, Vec((2,))), bg.BangElement.ket(V1, Vec((3,))))
    assert got == bg.BangElement.ket(space, point)
    assert value_to_json(got) == [{"coeff": "1", "point": at, "tangents": []}]


def test_probes_over_a_tensor_domain():
    v, space = _closed("(lolli-r (axiom (tensor A (pvar B 2))))")
    assert space == HomSpace(TensorSpace(Base(1), Base(2)), TensorSpace(Base(1), Base(2)))
    cfg = ProbeConfig(seed=3)
    rows = sem.probes(space.dom, random.Random(3), cfg, cfg.depth, cfg.max_tangents)
    assert len(rows) == cfg.samples
    for probe, used in rows:
        assert used == 0 and space.dom.contains(probe) and not probe.is_zero()
        assert sem.apply_hom(v, probe) == probe
        data = value_to_json(probe)
        assert [len(term["factors"][0]) for term in data] == [1] * len(data)
        assert [len(term["factors"][1]) for term in data] == [2] * len(data)
    assert extensional_equal(v, v, space)


def test_extensional_equality_with_a_bang_valued_codomain():
    ident, space = _closed("(lolli-r (axiom (bang A)))")
    assert space == HomSpace(BangSpace(Base(1)), BangSpace(Base(1)))
    # !d after delta is the identity of !A
    prom_der, _ = _closed("(lolli-r (prom (der 0 (axiom A))))")
    assert extensional_equal(prom_der, ident, space)
    # nabla after Delta multiplies a ket of order s by 2^s
    doubled, _ = _closed("(lolli-r (ctr 0 (coctr 0 (axiom (bang A)))))")
    assert not extensional_equal(doubled, ident, space)
    # kets whose entries are closures: a structural match decides them, else
    # only probing could, and it ends here
    lazy, space = _closed("(lolli-r (prom (lolli-r (weak 0 (bang A) (der 0 (axiom A))))))")
    same, _ = _closed(
        "(lolli-r (prom (lolli-r (weak 0 (bang A) (ctr 0 (weak 0 (bang A) (der 0 (axiom A))))))))")
    assert space.cod == BangSpace(HomSpace(BangSpace(Base(1)), Base(1)))
    assert extensional_equal(lazy, lazy, space)
    with pytest.raises(ProbeDepthError, match="opaque values"):
        extensional_equal(lazy, same, space)
    # a pure tensor whose left factor is a closure is opaque too
    pair, space = _closed("(lolli-r (tensor-r (lolli-r (axiom (bang A))) (axiom (pvar B 1))))")
    twin, _ = _closed("(lolli-r (tensor-r (lolli-r (prom (der 0 (axiom A)))) (axiom (pvar B 1))))")
    assert space.cod == TensorSpace(HomSpace(BangSpace(Base(1)), BangSpace(Base(1))), Base(1))
    with pytest.raises(ProbeDepthError, match="opaque values"):
        extensional_equal(pair, twin, space)


def test_lazy_maps_scale_and_negate():
    ident, space = _closed("(lolli-r (axiom (bang A)))")
    x = bg.BangElement.ket(Base(1), Vec((2,)), (Vec((5,)),), coeff=3)
    assert ident.scale(1) == ident and (ident - ident).is_zero()
    assert sem.apply_hom(ident.scale(Fraction(-3, 2)), x) == x.scale(Fraction(-3, 2))
    assert sem.apply_hom(-ident, x) == -x
    assert value_to_json(sem.apply_hom(-ident, x)) == [
        {"coeff": "-15", "point": ["2"], "tangents": [["1"]]}]
    assert extensional_equal(ident.scale(2), ident + ident, space)
    assert not extensional_equal(-ident, ident, space)
