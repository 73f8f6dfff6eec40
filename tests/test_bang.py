import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sweedler.exact import Matrix, Vec, as_scalar
from sweedler import bang as bg
from sweedler.bang import (
    MAX_SUBSET_TANGENTS, BangElement, BangSpace, BaseSpace, EnumerationLimitError, Ket,
    SpaceError, TensorElement, antipode, cocontract, codereliction, coproduct,
    coproduct_pairs, counit, coweaken, dereliction, deriving,
    index_subsets, promote, promote_blocks, set_partitions,
    split_inverse, split_merge, tangent_lift, tensor, unit)
from sweedler.laws import deriving_mutated
from sweedler.poly import Polynomial
from sweedler.semantics import HomSpace, MapVal, TensorSpace, TensorVal

V2 = BaseSpace(2)
E0 = Vec.basis(2, 0)
E1 = Vec.basis(2, 1)


def ket(point, *tangents, coeff=1):
    return BangElement.ket(V2, Vec(point), tuple(Vec(t) for t in tangents), coeff)


def test_canonicalization_expands_tangents():
    # |2 e0 + e1>_P = 2|e0>_P + |e1>_P
    t = BangElement.ket(V2, Vec((1, 1)), (Vec((2, 1)),))
    assert t == ket((1, 1), (1, 0)).scale(2) + ket((1, 1), (0, 1))


def test_canonicalization_sorts_and_merges():
    a = BangElement.ket(V2, Vec((0, 0)), (E1, E0))
    b = BangElement.ket(V2, Vec((0, 0)), (E0, E1))
    assert a == b
    assert list(a.terms.values()) == [Fraction(1)]
    assert (a - b).is_zero()


def test_zero_tangent_kills_ket():
    assert BangElement.ket(V2, Vec((1, 0)), (Vec((0, 0)),)).is_zero()


def test_point_is_not_linear():
    assert ket((2, 0)) != ket((1, 0)).scale(2)


def test_counit_frozen():
    t = ket((1, 2), coeff=2) + ket((3, 4), (1, 0), coeff=3)
    assert counit(t) == 2
    assert counit(BangElement.zero(V2)) == 0


def test_dereliction_frozen():
    t = ket((1, 2), coeff=2) + ket((3, 4), (1, 0), coeff=3) + ket((5, 6), (1, 0), (0, 1), coeff=5)
    # 2*(1,2) + 3*(1,0); the two-tangent ket dies
    assert dereliction(t) == Vec((5, 4))


def test_coproduct_two_tangents_frozen():
    P = Vec((1, 1))
    t = ket((1, 1), (1, 0), (0, 1))
    both = Ket(P, (E1, E0))  # canonical tangent order is lexicographic: (0,1) < (1,0)
    none = Ket(P, ())
    left = Ket(P, (E0,))
    right = Ket(P, (E1,))
    expected = TensorElement.from_terms((V2, V2), [
        (1, (none, both)),
        (1, (both, none)),
        (1, (left, right)),
        (1, (right, left)),
    ])
    assert coproduct(t) == expected


def test_coproduct_group_like():
    g = ket((2, 3))
    k = Ket(Vec((2, 3)), ())
    assert coproduct(g) == TensorElement.from_terms((V2, V2), [(1, (k, k))])


def test_promote_three_tangents_has_bell3_kets():
    t = ket((0, 0), (1, 0), (0, 1), (1, 1))
    dt = promote(t)
    assert dt.space == BangSpace(V2)
    # 3 tangents -> 5 set partitions, but tangent expansion of (1,1) doubles
    # the underlying sums; counting distinct outer kets after merging:
    orders = sorted(k.order for k in dt.terms)
    assert counit(dt) == 0
    assert orders.count(1) >= 1 and orders.count(3) >= 1


def test_promote_group_like_and_single():
    g = ket((2, 5))
    inner = Ket(Vec((2, 5)), ())
    assert promote(g) == BangElement.ket(BangSpace(V2), unit(V2, inner))
    s = ket((2, 5), (1, 0))
    ds = promote(s)
    expected = BangElement.ket(BangSpace(V2), unit(V2, inner),
                               (unit(V2, Ket(Vec((2, 5)), (E0,))),))
    assert ds == expected


def test_promote_merges_partitions_of_repeated_tangents():
    # |e0,e0,e1>_P: the partitions {0,2}{1} and {0}{1,2} give the same outer ket
    p = (1, 2)
    expected = BangElement.from_terms(BangSpace(V2), [
        (1, ket(p), (ket(p, (1, 0), (1, 0), (0, 1)),)),
        (1, ket(p), (ket(p, (1, 0), (1, 0)), ket(p, (0, 1)))),
        (2, ket(p), (ket(p, (1, 0)), ket(p, (1, 0), (0, 1)))),
        (1, ket(p), (ket(p, (1, 0)), ket(p, (1, 0)), ket(p, (0, 1)))),
    ])
    got = promote(ket(p, (1, 0), (1, 0), (0, 1)))
    assert got == expected
    assert repr(got) == repr(expected)


def test_coproduct_pairs_sum_to_the_coproduct():
    rng = random.Random(12)
    for _ in range(30):
        t = _random_element(rng, max_tangents=4)
        pairs = coproduct_pairs(t)
        lefts = [left for left, _ in pairs]
        assert all(len(left.terms) == 1 and set(left.terms.values()) == {1} for left in lefts)
        reference = _coproduct_by_subsets(t)
        assert len(set(lefts)) == len(pairs) == len({k1 for k1, _ in reference.terms})
        total = TensorElement.from_terms((V2, V2), [])
        for left, right in pairs:
            total = total + tensor(left, right)
        assert total == reference


def test_coproduct_matches_the_subset_enumeration():
    rng = random.Random(2017)
    lone = [ket((1, 2), coeff=c) for c in (1, Fraction(-3, 2))] \
        + [ket((1, 2), (0, 1), coeff=c) for c in (1, 5)]
    drawn = [_random_element(rng, max_tangents=4, nterms=n) for n in (1, 2, 3) for _ in range(8)]
    for t in [BangElement.zero(V2)] + lone + drawn:
        got = coproduct(t)
        assert got == _coproduct_by_subsets(t)
        assert got.space == (t.space, t.space) and 0 not in got.terms.values()


def test_coproduct_pairs_merge_equal_right_factors():
    # |e0,e0>_P splits as |e0> (x) |e0> in two ways: one pair, coefficient 2
    p = Vec((1, 2))
    pairs = dict((next(iter(left.terms)), right)
                 for left, right in coproduct_pairs(ket((1, 2), (1, 0), (1, 0), coeff=3)))
    assert pairs[Ket(p, (E0,))] == ket((1, 2), (1, 0), coeff=6)
    assert pairs[Ket(p, ())] == ket((1, 2), (1, 0), (1, 0), coeff=3)
    assert pairs[Ket(p, (E0, E0))] == ket((1, 2), coeff=3)
    assert len(pairs) == 3


def _index_splits(n):
    """Reference: the 2^n splittings of range(n) into (chosen, rest)."""
    for mask in range(1 << n):
        yield ([i for i in range(n) if mask >> i & 1],
               [i for i in range(n) if not mask >> i & 1])


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


def _coproduct_by_subsets(t):
    """Reference Delta as one tensor, every ket split over its index subsets."""
    items = []
    for k, c in t.terms.items():
        for chosen, rest in _index_splits(k.order):
            items.append((c, (Ket(k.point, tuple(k.tangents[j] for j in chosen)),
                              Ket(k.point, tuple(k.tangents[j] for j in rest)))))
    return TensorElement.from_terms((t.space, t.space), items)


def _pairs_by_splits(t):
    """Reference Delta grouped by left factor, every ket split over its index subsets."""
    rights = {}
    for k, c in t.terms.items():
        for chosen, rest in _index_splits(k.order):
            k1 = Ket(k.point, tuple(k.tangents[j] for j in chosen))
            k2 = Ket(k.point, tuple(k.tangents[j] for j in rest))
            right = rights.setdefault(k1, {})
            right[k2] = right.get(k2, 0) + c
    return [(k1, BangElement(t.space, right)) for k1, right in rights.items()]


def test_coproduct_pairs_fast_paths_match_the_subset_enumeration():
    rng = random.Random(1701)
    fixed = [
        BangElement.zero(V2),
        ket((1, 2)),                                    # the (t, t) path
        ket((1, 2), coeff=Fraction(-3, 2)),
        ket((1, 2), (1, 0)),
        ket((1, 2), (2, -1), coeff=5),                  # two order-1 kets
        ket((1, 2)) + ket((3, 4), (0, 1)) + ket((1, 2), (1, 0), (1, 1), coeff=-2),
        ket((0, 0), (1, 0), (1, 0), (0, 1)),
    ]
    drawn = [_random_element(rng, max_tangents=s, nterms=n)
             for s in range(4) for n in (1, 2, 3) for _ in range(4)]
    orders = set()
    for t in fixed + drawn:
        pairs = coproduct_pairs(t)
        for left, _ in pairs:
            assert len(left.terms) == 1 and set(left.terms.values()) == {1}
        got = [(next(iter(left.terms)), right) for left, right in pairs]
        assert dict(got) == dict(_pairs_by_splits(t)) and len(got) == len(dict(got))
        orders |= {k.order for k in t.terms}
    assert orders == {0, 1, 2, 3}
    t = ket((1, 2))
    assert coproduct_pairs(t) == ((t, t),)


def test_two_slot_promotion_calls_the_block_once_per_distinct_block():
    calls = []

    def merged(u1, u2):
        calls.append((u1, u2))
        return cocontract(u1, u2)

    x, y = ket((1, 0), (1, 0)), ket((0, 2), (0, 1))
    got = promote_blocks((x, y), merged, BangSpace(V2))
    # one tangent per slot: Bell(2) = 2 partitions, from the blocks {x}, {y}, {x, y}
    assert len(got.terms) == 2
    assert len(calls) == len(set(calls)) == 1 + 3
    assert got == promote(cocontract(x, y))
    assert repr(got) == repr(promote(cocontract(x, y)))
    # three tangents: Bell(3) = 5 partitions hold 10 blocks, 7 of them distinct
    calls.clear()
    x = ket((1, 0), (1, 0), (0, 1))
    got = promote_blocks((x, y), merged, BangSpace(V2))
    assert len(calls) == len(set(calls)) == 1 + 7
    assert got == promote(cocontract(x, y))


def test_partitions_bell_numbers():
    bells = [1, 1, 2, 5, 15, 52, 203]
    for n, b in enumerate(bells):
        assert sum(1 for _ in set_partitions([1] * n)) == b
        assert sum(w for _, w in set_partitions([n])) == b


SUBSET_LIMIT = r"refusing to enumerate 2\^13 subsets \(limit 12 tangents\)"
PARTITION_LIMIT = r"refusing to enumerate partitions of 9 items \(limit 8\)"


def test_subsets_count_and_guard():
    assert sum(1 for _ in index_subsets(range(5))) == 32
    with pytest.raises(EnumerationLimitError, match=SUBSET_LIMIT):
        list(index_subsets((0,) * 13))
    with pytest.raises(EnumerationLimitError, match=PARTITION_LIMIT):
        list(set_partitions([1] * 9))
    with pytest.raises(EnumerationLimitError, match=PARTITION_LIMIT):
        list(set_partitions([9]))


def test_guards_fire_through_maps():
    many = BangElement.ket(V2, Vec((0, 0)), (E0,) * 13)
    with pytest.raises(EnumerationLimitError, match=SUBSET_LIMIT):
        coproduct(many)
    with pytest.raises(EnumerationLimitError, match=PARTITION_LIMIT):
        promote(BangElement.ket(V2, Vec((0, 0)), (E0,) * 9))


@given(st.lists(st.integers(0, 3), max_size=8).map(sorted))
def test_index_subsets_yield_each_sub_multiset_once(items):
    got = {}
    for chosen, rest, w in index_subsets(items):
        assert list(chosen) == sorted(chosen) and list(rest) == sorted(rest)
        assert sorted(chosen + rest) == items and chosen not in got
        got[chosen] = w
    # the weight of a sub-multiset is the number of index subsets that choose it
    assert got == Counter(tuple(items[i] for i in chosen) for chosen, _ in _index_splits(len(items)))
    assert sum(got.values()) == 2 ** len(items)


@given(st.lists(st.integers(1, 3), max_size=4).filter(lambda counts: sum(counts) <= 7))
def test_set_partitions_yield_each_multiset_partition_once(counts):
    items = [i for i, m in enumerate(counts) for _ in range(m)]

    def blocks_of(partition):
        return tuple(sorted((tuple(part.count(i) for i in range(len(counts))) for part in partition),
                            reverse=True))

    got = {}
    for blocks, w in set_partitions(counts):
        assert blocks not in got
        got[blocks] = w
    # the weight of a multiset partition is the number of set partitions it
    # stands for; its blocks come in decreasing order
    want = Counter(blocks_of(p) for p in _set_partitions(items))
    assert got == want
    assert sum(got.values()) == sum(want.values())  # Bell(len(items))


def _promote_by_set_partitions(vals, block, space):
    """Reference promotion: one block call per block of every set partition."""
    items = []
    for combo in itertools.product(*(v.terms.items() for v in vals)):
        kets = [k for k, _ in combo]
        tagged = [(si, x) for si, k in enumerate(kets) for x in k.tangents]
        point = block(*(BangElement.ket(v.space, k.point) for v, k in zip(vals, kets)))
        for partition in _set_partitions(tagged):
            entries = tuple(block(*(
                BangElement.ket(v.space, k.point, [x for sj, x in part if sj == si])
                for si, (v, k) in enumerate(zip(vals, kets)))) for part in partition)
            items.append((math.prod(c for _, c in combo), point, entries))
    return BangElement.from_terms(space, items)


def _element(kets):
    return BangElement.from_terms(V2, [(i + 1, Vec((i, 1)), ts) for i, ts in enumerate(kets)])


_KETS = st.lists(st.lists(st.sampled_from([E0, E1]), max_size=3), min_size=1, max_size=2)


@settings(deadline=None, max_examples=40)
@given(_KETS, _KETS)
@example([[E0, E0, E1]], [[E0, E1]])  # e0 in both slots: two different items
def test_promote_blocks_equals_the_set_partition_reference(xs, ys):
    x, y = _element(xs), _element(ys)
    for vals, block in (((x,), lambda u: u), ((x, y), cocontract)):
        got = promote_blocks(vals, block, BangSpace(V2))
        ref = _promote_by_set_partitions(vals, block, BangSpace(V2))
        assert got == ref and repr(got) == repr(ref)


def _count_yields(monkeypatch, name):
    """Rebind bang's enumerator to one that records what it yields."""
    seen, fn = [], getattr(bg, name)

    def counted(*args):
        for item in fn(*args):
            seen.append(item)
            yield item

    monkeypatch.setattr(bg, name, counted)
    return seen


def test_four_equal_tangents_split_five_ways_and_partition_five_ways(monkeypatch):
    P = Vec((1, 2))
    subsets = _count_yields(monkeypatch, "index_subsets")
    partitions = _count_yields(monkeypatch, "set_partitions")
    t = BangElement.ket(V2, P, (E1,) * 4)
    pairs = dict((next(iter(left.terms)), right) for left, right in coproduct_pairs(t))
    assert len(subsets) == len(pairs) == 5
    for b in range(5):
        assert pairs[Ket(P, (E1,) * b)] == BangElement.ket(V2, P, (E1,) * (4 - b), math.comb(4, b))
    calls = []
    got = promote_blocks((t,), lambda u: calls.append(u) or u, BangSpace(V2))
    # 1 call at the point and one per distinct block: e1, e1^2, e1^3, e1^4
    assert len(partitions) == len(calls) == len(set(calls)) == 5
    # the partitions 4, 3+1, 2+2, 2+1+1, 1+1+1+1 stand for 1, 4, 3, 6, 1 set partitions
    assert sorted(got.terms.values()) == [1, 1, 3, 4, 6]
    assert got == _promote_by_set_partitions((t,), lambda u: u, BangSpace(V2))


def test_ket_product_guard_at_2_to_the_subset_limit():
    # (e0 + e1)^12 expands into 2^12 = 4096 products: allowed, and binomial
    ones = (Vec((1, 1)),) * MAX_SUBSET_TANGENTS
    t = BangElement.ket(V2, Vec((0, 0)), ones)
    assert len(t.terms) == MAX_SUBSET_TANGENTS + 1
    assert sum(t.terms.values()) == 2 ** MAX_SUBSET_TANGENTS
    with pytest.raises(EnumerationLimitError, match="tangent products"):
        BangElement.ket(V2, Vec((0, 0)), ones + (Vec((1, 1)),))
    # basis tangents expand into one product each, whatever their number
    assert BangElement.ket(V2, Vec((0, 0)), (E0,) * 13).terms


def test_deriving_appends_and_expands():
    t = ket((1, 0), (1, 0))
    d = deriving(t, Vec((1, 1)))
    assert d == ket((1, 0), (1, 0), (1, 0)) + ket((1, 0), (1, 0), (0, 1))
    assert deriving_mutated(t, Vec((1, 1))) == -d


def test_cocontract_frozen():
    a = ket((1, 0), (1, 0))
    b = ket((0, 2), (0, 1), coeff=3)
    assert cocontract(a, b) == ket((1, 2), (1, 0), (0, 1), coeff=3)
    g = coweaken(V2)
    assert cocontract(g, a) == a  # unit law at the origin


def test_antipode_signs():
    assert antipode(ket((1, 2), (1, 0))) == ket((-1, -2), (1, 0), coeff=-1)
    assert antipode(ket((1, 2), (1, 0), (0, 1))) == ket((-1, -2), (1, 0), (0, 1))
    t = ket((1, 2), (1, 0), (0, 1)) + ket((3, 1), coeff=2)
    assert antipode(antipode(t)) == t


def test_codereliction_and_coweaken():
    assert coweaken(V2) == ket((0, 0))
    assert codereliction(V2, Vec((2, 0))) == ket((0, 0), (1, 0), coeff=2)


def test_split_merge_frozen():
    V1 = BaseSpace(1)
    a = BangElement.ket(V1, Vec((1,)), (Vec((1,)),))
    b = BangElement.ket(V1, Vec((2,)), (Vec((1,)),), coeff=5)
    m = split_merge(a, b)
    W = BaseSpace(2)
    assert m == BangElement.ket(W, Vec((1, 2)), (Vec((1, 0)), Vec((0, 1))), coeff=5)
    back = split_inverse(m, 1, 1)
    assert back == tensor(a, b)


def test_split_inverse_rejects_straddlers():
    W = BaseSpace(2)
    t = BangElement(W, {Ket(Vec((0, 0)), (Vec((1, 1)),)): Fraction(1)})
    with pytest.raises(SpaceError):
        split_inverse(t, 1, 1)


def test_tangent_lift_examples():
    g, tan = tangent_lift(V2, Vec((1, 0)), Vec((0, 1)))
    assert g == ket((1, 0))
    assert tan == ket((1, 0), (0, 1))
    g2, tan2 = tangent_lift(V2, Vec((0, 0)), Vec((0, 0)))
    assert g2 == ket((0, 0))
    assert tan2.is_zero()


def test_space_mismatch_raises():
    V3 = BaseSpace(3)
    with pytest.raises(SpaceError):
        ket((0, 0)) + BangElement.ket(V3, Vec((0, 0, 0)))
    with pytest.raises(SpaceError):
        cocontract(ket((0, 0)), BangElement.ket(V3, Vec((0, 0, 0))))
    with pytest.raises(SpaceError):
        BangElement.ket(V2, Vec((0, 0, 0)))


def _random_element(rng, dim=2, max_tangents=3, nterms=2):
    space = BaseSpace(dim)
    items = []
    for _ in range(nterms):
        point = Vec(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)))
        s = rng.randint(0, max_tangents)
        tangents = tuple(Vec(tuple(rng.randint(-2, 2) for _ in range(dim))) for _ in range(s))
        items.append((Fraction(rng.randint(-3, 3)), point, tangents))
    return BangElement.from_terms(space, items)


def test_repr_is_deterministic():
    t = ket((1, 0), (0, 1)) + ket((-1, 2), coeff=-2) + ket((1, 0), (1, 0))
    assert repr(t) == repr(ket((1, 0), (1, 0)) + ket((-1, 2), coeff=-2) + ket((1, 0), (0, 1)))
    assert "|" in repr(t) and ">_" in repr(t)


def test_each_term_prints_its_own_sign():
    t = ket((-1, 2), coeff=-1) + ket((1, 0), (0, 1), coeff=Fraction(-3, 2)) \
        + ket((1, 0), coeff=2) + ket((0, 0), (1, 0), coeff=-1)
    assert repr(t) == "-|>_(-1, 2) - |(1, 0)>_(0, 0) + 2 |>_(1, 0) - 3/2 |(0, 1)>_(1, 0)"
    assert repr(ket((1, 0), coeff=-2) + ket((0, 0))) == "|>_(0, 0) - 2 |>_(1, 0)"
    assert repr(ket((1, 0), coeff=Fraction(-3, 2))) == "-3/2 |>_(1, 0)"
    # entries of !!V are sums of kets: in parentheses
    assert repr(promote(ket((1, 0), (1, 0), (0, 1), coeff=-1))) == (
        "-|(|(0, 1)>_(1, 0)), (|(1, 0)>_(1, 0))>_(|>_(1, 0))"
        " - |(|(0, 1), (1, 0)>_(1, 0))>_(|>_(1, 0))")
    assert repr(BangElement.zero(V2)) == "0"
    # the same printer for tensors of kets, tensor values and polynomials
    p, q = ket((1, 0)), ket((0, 0), (1, 0))
    assert repr(tensor(p, q).scale(-2) - tensor(q, p)) == (
        "-|(1, 0)>_(0, 0) (x) |>_(1, 0) - 2 |>_(1, 0) (x) |(1, 0)>_(0, 0)")
    assert repr(tensor(p, q) - tensor(q, p)) == (
        "-|(1, 0)>_(0, 0) (x) |>_(1, 0) + |>_(1, 0) (x) |(1, 0)>_(0, 0)")
    assert repr(TensorElement.from_terms((V2, V2), [])) == "0"
    pair = TensorSpace(V2, V2)
    t = TensorVal.make(pair, [(-1, (E0, E1)), (Fraction(-3, 2), (E1, E0)), (2, (E0, E0))])
    assert repr(t) == "-3/2 (0, 1) (x) (1, 0) - (1, 0) (x) (0, 1) + 2 (1, 0) (x) (1, 0)"
    assert repr(TensorVal.make(pair, [])) == "0"
    assert repr(Polynomial(1, {(1,): 1, (0,): -1})) == "x1 - 1"
    assert repr(Polynomial(2, {(1, 0): -1, (0, 0): 1})) == "-x1 + 1"
    assert repr(Polynomial(2, {(0, 2): Fraction(-1, 2), (1, 0): -1})) == "-1/2 x2^2 - x1"
    assert repr(Polynomial.const(2, -1)) == "-1"
    assert repr(Polynomial.zero(2)) == "0"


def test_term_sums_share_one_printer_key_and_builder():
    for cls in (BangElement, TensorElement, TensorVal, Polynomial):
        assert issubclass(cls, bg._TermSum)
        assert not {"__repr__", "__str__", "term_key", "_sum"} & set(vars(cls)), cls


# -- coproduct_pairs and derelict are kept on the element -----------------------


def test_stored_pairs_and_dereliction_are_returned_again():
    t = ket((1, 2), (1, 0)) + ket((3, 4))
    pairs = coproduct_pairs(t)
    assert isinstance(pairs, tuple) and coproduct_pairs(t) is pairs
    d = bg.derelict(t)
    assert d == Vec((4, 4)) and bg.derelict(t) is d
    high = ket((1, 2), (1, 0), (0, 1))
    assert bg.derelict(high) is None and bg.derelict(high) is None
    assert dereliction(high) == Vec((0, 0))
    # a lone unit ket of order <= 1 is itself a factor, and its pairs are not
    # kept: kept on it, they would hold it
    u = ket((1, 2))
    assert coproduct_pairs(u) == ((u, u),) and coproduct_pairs(u)[0][1] is u
    v = ket((1, 2), (0, 1))
    (p0, r0), (l1, p1) = coproduct_pairs(v)
    assert r0 is v and l1 is v and p0 == p1 == u
    assert not hasattr(u, "_pairs") and not hasattr(v, "_pairs")


def test_stored_pairs_and_dereliction_match_a_fresh_computation():
    rng = random.Random(17)
    for dim in (1, 2, 3):
        for _ in range(12):
            t = _random_element(rng, dim=dim, max_tangents=3, nterms=rng.randint(1, 3))
            first_pairs, first_d = coproduct_pairs(t), bg.derelict(t)
            stored_pairs, stored_d = coproduct_pairs(t), bg.derelict(t)
            fresh = BangElement(t.space, t.terms)   # equal, with nothing stored
            assert fresh == t and fresh is not t
            lone = len(t.terms) == 1 and all(   # pairs built on each call
                c == 1 and k.order <= 1 for k, c in t.terms.items())
            assert (stored_pairs is first_pairs) != lone and stored_d is first_d
            assert stored_pairs == coproduct_pairs(fresh)
            assert stored_d == bg.derelict(fresh)
            total = TensorElement.from_terms((t.space, t.space), [])
            for left, right in stored_pairs:
                total = total + tensor(left, right)
            assert total == coproduct(t)


# -- D and nabla keep canonical tangents ----------------------------------------

V1, V3 = BaseSpace(1), BaseSpace(3)
_HOM = HomSpace(V2, V1)
_CLOSURES = HomSpace(BangSpace(V1), V1)  # not concrete: its entries are closures
_PAIR = TensorSpace(V2, V1)


def _bang_entry(*kets):
    return BangElement.from_terms(V2, [(c, Vec(p), tuple(map(Vec, ts))) for c, p, ts in kets])


# per entry space, a few entries (units and sums of units) to draw points,
# tangents and the new tangent of D from, so that tangents repeat
_ENTRIES = {
    "base1": (V1, [Vec((1,)), Vec((-2,)), Vec((0,))]),
    "base2": (V2, [E0, E1, Vec((1, 1)), Vec((2, -1)), Vec((0, 0))]),
    "base3": (V3, [Vec.basis(3, i) for i in range(3)] + [Vec((1, 0, 1)), Vec((0, -1, 2))]),
    "bang": (BangSpace(V2), [
        _bang_entry((1, (0, 1), ())), _bang_entry((1, (1, 0), ((1, 0),))),
        _bang_entry((1, (0, 1), ()), (2, (1, 1), ((0, 1),))),
        _bang_entry((-1, (0, 0), ((1, 1),)))]),
    "hom": (_HOM, [Matrix(((1, 0),)), Matrix(((0, 1),)), Matrix(((1, -1),)), Matrix(((2, 1),))]),
    "closures": (_CLOSURES, [MapVal(_CLOSURES, lambda x: V1.zero()) for _ in range(3)]),
    "tensor": (_PAIR, [TensorVal.make(_PAIR, [(1, (E0, Vec((1,))))]),
                       TensorVal.make(_PAIR, [(1, (E1, Vec((1,)))), (-1, (E0, Vec((2,))))])]),
}


def _drawn_element(data, space, entries):
    pick = st.sampled_from(entries)
    kets = data.draw(st.lists(st.tuples(
        st.sampled_from([1, -1, 2, Fraction(1, 2)]), pick, st.lists(pick, max_size=3)),
        max_size=3))
    return BangElement.from_terms(space, [(c, p, tuple(ts)) for c, p, ts in kets])


def _same(got, ref):
    assert got == ref and hash(got) == hash(ref) and repr(got) == repr(ref)
    assert list(got.terms.items()) == list(ref.terms.items())


@pytest.mark.parametrize("name", sorted(_ENTRIES))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_deriving_equals_the_from_terms_reference(name, data):
    space, entries = _ENTRIES[name]
    t = _drawn_element(data, space, entries)
    v = data.draw(st.sampled_from(entries))
    ref = BangElement.from_terms(
        space, ((c, k.point, k.tangents + (v,)) for k, c in t.terms.items()))
    _same(deriving(t, v), ref)


@pytest.mark.parametrize("name", sorted(_ENTRIES))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_cocontract_equals_the_from_terms_reference(name, data):
    space, entries = _ENTRIES[name]
    a, b = _drawn_element(data, space, entries), _drawn_element(data, space, entries)
    # a sum of two closures is a new closure: share each one between the two
    # sides, so that their points are the same objects
    sums, add = {}, MapVal.__add__

    def shared_sum(f, g):
        if (f, g) not in sums:
            sums[f, g] = add(f, g)
        return sums[f, g]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MapVal, "__add__", shared_sum)
        got = cocontract(a, b)
        ref = BangElement.from_terms(space, (
            (ca * cb, ka.point + kb.point, ka.tangents + kb.tangents)
            for ka, ca in a.terms.items() for kb, cb in b.terms.items()))
    _same(got, ref)


@pytest.mark.parametrize("name", sorted(_ENTRIES))
def test_a_canonical_unit_is_a_fixed_point_of_expand(name):
    space, entries = _ENTRIES[name]
    for entry in entries:
        for _, u in space.expand(entry):
            assert space.expand(u) == [(1, u)]
    # the tangents of a canonical ket are such units, sorted by key
    nonzero = tuple(e for e in entries if space.expand(e))
    t = BangElement.from_terms(space, [(1, entries[0], nonzero * 2)])
    assert t.terms
    for k in t.terms:
        assert all(space.expand(x) == [(1, x)] for x in k.tangents)
        keys = [space.key(x) for x in k.tangents]
        assert keys == sorted(keys)


def test_unit_elements_share_one_exact_one():
    k1, k2 = Ket(Vec((0, 1)), ()), Ket(Vec((1, 0)), (E0,))
    assert unit(V2, k1).terms[k1] is unit(V2, k2).terms[k2] is as_scalar(1)


def test_deriving_keeps_its_guard_on_the_new_tangent():
    # an entry of !V with 2^12 + 1 kets expands into 4097 units of !V
    outer = BangSpace(V1)
    t = BangElement.ket(outer, BangElement.ket(V1, Vec((1,))))
    at_limit = BangElement.from_terms(
        V1, [(1, Vec((i,)), ()) for i in range(1 << MAX_SUBSET_TANGENTS)])
    assert len(deriving(t, at_limit).terms) == 1 << MAX_SUBSET_TANGENTS
    past = at_limit + BangElement.ket(V1, Vec((-1,)))
    with pytest.raises(EnumerationLimitError, match=re.escape(
            "refusing to expand a ket into 4097 tangent products (limit 2^12)")):
        deriving(t, past)


def test_deriving_checks_its_tangent_on_the_zero_element():
    message = re.escape("expected a vector of dim 2, got %r" % (Vec((1, 2, 3)),))
    with pytest.raises(SpaceError, match=message):
        deriving(BangElement.zero(V2), Vec((1, 2, 3)))


def test_deriving_checks_its_tangent_on_a_ket():
    message = re.escape("expected a vector of dim 2, got %r" % (Vec((1, 2, 3)),))
    with pytest.raises(SpaceError, match=message):
        deriving(BangElement.ket(V2, Vec((0, 0))), Vec((1, 2, 3)))


def test_deriving_the_zero_element_by_a_valid_tangent_is_zero():
    got = deriving(BangElement.zero(V2), Vec((1, 2)))
    assert got == BangElement.zero(V2) and got.is_zero() and repr(got) == "0"


def _dict_sum(pairs):
    """Reference: a plain dict sum, zeros dropped at the end, first-seen order."""
    acc = {}
    for k, c in pairs:
        acc[k] = acc.get(k, 0) + c
    return {k: c for k, c in acc.items() if c != 0}


_COEFFS = st.sampled_from([as_scalar(1), Fraction(1), as_scalar(-1), Fraction(0),
                           as_scalar(2), Fraction(-1, 2), Fraction(1, 2)])
_POINTS = [Vec((0, 0)), Vec((1, 0)), Vec((0, 1)), Vec((1, 1))]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(range(len(_POINTS))), st.integers(0, 2), _COEFFS),
                max_size=12))
def test_term_sum_equals_a_plain_dict_sum(raw):
    kets = [(Ket(_POINTS[p], (E0,) * order), c) for p, order, c in raw]
    ref = _dict_sum(kets)
    got = BangElement._sum(V2, kets)
    _same(got, BangElement._of(V2, ref))
    assert list(got.terms) == list(ref)
    # the same sums over polynomial terms
    monos = [((p, order), c) for p, order, c in raw]
    ref = _dict_sum(monos)
    got = Polynomial._sum(2, monos)
    _same(got, Polynomial._of(2, ref))
    assert list(got.terms) == list(ref)


def test_term_sum_drops_cancelled_and_zero_terms_in_order():
    a, b, c = (Ket(p, ()) for p in _POINTS[:3])
    half = Fraction(1, 2)
    pairs = [(a, as_scalar(1)), (b, Fraction(0)), (c, half), (a, as_scalar(-1)),
             (c, half), (a, as_scalar(2))]
    got = BangElement._sum(V2, pairs)
    assert list(got.terms.items()) == [(a, 2), (c, 1)]
    assert BangElement._sum(V2, [(a, half), (a, -half)]).terms == {}


def _partitions_reference(counts):
    """Reference: the recursion that partitions a multiset block by block,
    each block at most the one before, weights from factorials."""
    top = math.prod(map(math.factorial, counts))

    def rec(rest, bound, blocks):
        if not any(rest):
            den = math.prod(math.factorial(b) for part in blocks for b in part)
            den *= math.prod(math.factorial(blocks.count(p)) for p in set(blocks))
            yield blocks, top // den
            return
        i = next(j for j, m in enumerate(rest) if m)
        ranges = [range(m + 1) for m in rest]
        ranges[i] = range(1, rest[i] + 1)
        for part in itertools.product(*ranges):
            if part <= bound:
                yield from rec(tuple(m - b for m, b in zip(rest, part)), part, blocks + (part,))

    return list(rec(tuple(counts), tuple(counts), ()))


def _compositions(n):
    """Every tuple of positive counts that sums to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_set_partitions_equal_the_recursive_reference_cold_and_warm(monkeypatch):
    monkeypatch.setattr(bg, "_PARTITIONS", {})
    built, partitions = [], bg._partitions
    monkeypatch.setattr(bg, "_partitions", lambda counts: built.append(counts) or partitions(counts))
    every = [c for n in range(bg.MAX_PARTITION_TANGENTS + 1) for c in _compositions(n)]
    assert len(every) == 256
    for counts in every:
        want = _partitions_reference(counts)
        assert list(set_partitions(list(counts))) == want  # fills the table
        assert list(set_partitions(counts)) == want  # reads it
    assert built == every and len(bg._PARTITIONS) == 256
    for past in ([1] * 9, [9], [4, 5], [8, 1]):
        with pytest.raises(EnumerationLimitError, match=PARTITION_LIMIT):
            list(set_partitions(past))
    assert built == every and len(bg._PARTITIONS) == 256
