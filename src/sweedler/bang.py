"""Cofree cocommutative coalgebra !V with exact rational coefficients.

Elements are finite sums ``c |t1,...,ts>_P`` of kets: a base point ``P``
together with an unordered multiset of tangent vectors attached at that
point.  Over a concrete base space Q^n the sums are kept canonical:
tangents are expanded multilinearly into sorted basis vectors, like kets
are merged, zero terms are dropped.  Points are never expanded, because no
structural map is linear in the point.  The same machinery runs one level
up, for !!V, with unit kets playing the role of basis vectors.

Any space with ``contains``, ``expand`` (into canonical units), ``key``,
``zero`` and ``label`` can carry kets; ``BaseSpace`` and ``BangSpace`` here,
the map and tensor spaces of ``semantics``.  A canonical unit u is a fixed
point, ``expand(u) == [(1, u)]``, and a canonical ket's tangents are units
sorted by ``key``.  ``from_terms`` canonicalises raw input; D and nabla keep
canonical tangents: ``deriving`` expands only the new tangent and inserts its
units, ``cocontract`` merges two sorted tuples.  Entries do their own
arithmetic: ``+``, unary ``-`` and ``scale``, and print as their ``repr``, in
parentheses when the entry is itself a sum of terms other than one lazy map.

Every exact sum of terms, ``BangElement`` here as much as ``TensorElement``,
``semantics.TensorVal``, the lazy maps ``semantics.MapVal`` and
``poly.Polynomial``, is a ``_TermSum``: a space, a dict from terms to nonzero
coefficients and a cached hash, with the arithmetic on them, one builder from
(term, coefficient) pairs (``_sum``), one key (``term_key``) and one printer,
in which each term writes its own sign.  A subclass adds only its constructor
or canonicaliser, its products, its term order (``_sort_key``) and how one
term prints (``_term_str``).  ``tensor`` is the pure tensor of n elements.

Two splittings serve the exponential rules of the proof semantics, and each
ket operation has one home.  Both read a ket's sorted tangents as a multiset,
runs of equal units as multiplicities (over the base space a monomial of
Sym(V)), and enumerate sub-multisets (``index_subsets``) or multiset
partitions (``set_partitions``) once each, weighted by the number of index
subsets or set partitions they stand for.  ``coproduct_pairs`` is the one
Delta, grouped by left factor: one pair (unit ket, sum of right kets) per
distinct left factor, split ket by ket by ``_splits`` into the binomial
coproduct (kets of order 0 and 1 split without the enumeration); a lone unit
ket |>_P or |v>_P is itself a factor of its pairs.  Contraction sums over the
pairs, so do the laws (coassociativity splits the factors of the pairs once
more), and ``coproduct`` is their pure tensors as one ``TensorElement``.
``promote_blocks`` is delta on several slots at once followed by a map on
blocks, for promotion: the map runs once per distinct sub-multiset and
receives unit elements, one per slot; ``promote`` is the one-slot case with
the identity.  ``BangElement.ket``
builds every single-ket value, and ``derelict`` reads d in one pass.  A
``BangElement`` keeps its ``coproduct_pairs`` tuple and its ``derelict`` value
in two slots filled on first use, as it keeps its hash (a lone unit ket of
order <= 1 keeps no pairs: they hold it): inner contractions and derelictions
meet the same factors again and read the stored result.  The one table
keyed by arguments is ``_PARTITIONS``: the partitions and weights of each
count tuple, filled on first use.  Promotion passes positive counts that sum
to at most ``MAX_PARTITION_TANGENTS``, so it holds at most 2^8 = 256 tuples.

Tangent expansion, subset and partition enumerations are guarded by tangent
counts, repeated or not; blowing a guard raises ``EnumerationLimitError``
rather than silently truncating.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import reduce
from operator import itemgetter

from .exact import (
    ONE as _ONE, ZERO as _ZERO, Vec, _add, _mul, _neg, as_scalar, check_dim, scalar_str)
from .record import Immutable, record

MAX_SUBSET_TANGENTS = 12
MAX_PARTITION_TANGENTS = 8
_KEY = itemgetter(1)
_PARTITIONS = {}  # counts -> [(blocks, weight)], filled on first use


class SpaceError(ValueError):
    """An entry was used with a space it does not belong to."""


class EnumerationLimitError(RuntimeError):
    """A subset/partition enumeration exceeded its resource guard."""


def index_subsets(items):
    """Every sub-multiset of a sorted sequence once, as (chosen, rest, weight).

    chosen and rest are sorted tuples that together make up items; weight is
    the number of index subsets that give them, prod C(m, b) over the runs
    of m equal items of which b are chosen, so the weights add up to 2^n.
    """
    n = len(items)
    if n > MAX_SUBSET_TANGENTS:
        raise EnumerationLimitError(
            "refusing to enumerate 2^%d subsets (limit %d tangents)" % (n, MAX_SUBSET_TANGENTS))
    splits = [((), (), 1)]
    for x, run in itertools.groupby(items):
        m = len(list(run))
        splits = [(c + (x,) * b, r + (x,) * (m - b), w * math.comb(m, b))
                  for c, r, w in splits for b in range(m + 1)]
    yield from splits


def set_partitions(counts):
    """Every partition of a multiset into unordered nonempty blocks once.

    The multiset holds counts[i] copies of item i, and a block is a tuple of
    such counts; each partition is yielded as (blocks, weight), its blocks in
    decreasing order.  weight is the number of set partitions of the
    sum(counts) copies that it stands for, prod m! / (prod over blocks of
    prod b! * prod over repeated blocks of r!), so the weights add up to the
    Bell number.  Each count tuple is partitioned once, into ``_PARTITIONS``.
    """
    n = sum(counts)
    if n > MAX_PARTITION_TANGENTS:
        raise EnumerationLimitError(
            "refusing to enumerate partitions of %d items (limit %d)"
            % (n, MAX_PARTITION_TANGENTS))
    counts = tuple(counts)
    table = _PARTITIONS.get(counts)
    if table is None:
        table = _PARTITIONS[counts] = list(_partitions(counts))
    yield from table


def _partitions(counts):
    top = math.prod(map(math.factorial, counts))

    def rec(rest, bound, blocks):
        i = next((j for j, m in enumerate(rest) if m), None)
        if i is None:
            den = math.prod(math.factorial(b) for part in blocks for b in part)
            den *= math.prod(math.factorial(len(list(r))) for _, r in itertools.groupby(blocks))
            yield blocks, top // den
            return
        ranges = [range(m + 1) for m in rest]
        ranges[i] = range(1, rest[i] + 1)
        for part in itertools.product(*ranges):
            if part <= bound:
                yield from rec(tuple([m - b for m, b in zip(rest, part)]), part, blocks + (part,))

    return rec(counts, counts, ())


@record
class BaseSpace:
    """The base space V = Q^dim; entries are Vec values."""

    dim: int

    def __init__(self, dim):
        self._fill(check_dim(dim))

    def contains(self, entry):
        return isinstance(entry, Vec) and entry.dim == self.dim

    def expand(self, entry):
        """Decompose into canonical units: the standard basis vectors."""
        if not self.contains(entry):
            raise SpaceError("expected a vector of dim %d, got %r" % (self.dim, entry))
        return [(c, Vec.basis(self.dim, i)) for i, c in enumerate(entry.coords) if c]

    def key(self, entry):
        return entry.coords

    def zero(self):
        return Vec.zero(self.dim)

    def label(self):
        return str(self.dim)


@record
class BangSpace:
    """!W for an inner space W; entries are BangElement values over W."""

    inner: object

    def contains(self, entry):
        return isinstance(entry, BangElement) and entry.space == self.inner

    def expand(self, entry):
        """Canonical units of !W are the single kets with coefficient 1."""
        if not self.contains(entry):
            raise SpaceError("expected an element of !%s" % self.inner.label())
        if len(entry.terms) == 1:
            (k, c), = entry.terms.items()
            return [(c, entry if c is _ONE else unit(self.inner, k))]
        return [(c, unit(self.inner, k)) for k, c in entry.sorted_terms()]

    def key(self, entry):
        return entry.term_key()

    def zero(self):
        return BangElement(self.inner, {})

    def label(self):
        return "!%s" % self.inner.label()


@record
class Ket:
    """One ket |t1,...,ts>_P: a tuple of tangents, sorted by the space key."""

    point: object
    tangents: tuple

    @property
    def order(self):
        return len(self.tangents)


# loops, not generators or map: nested !-values recurse here once per level
def ket_key(space, k: Ket):
    keys = []
    for t in k.tangents:
        keys.append(space.key(t))
    return (space.key(k.point), tuple(keys))


def ket_str(k: Ket):
    """|t1, ..., ts>_P, each entry its repr, parenthesized if a sum (but ``_bare_unit``)."""
    entries = []
    for e in k.tangents + (k.point,):
        bare = not isinstance(e, _TermSum) or e._bare_unit and list(e.terms.values()) == [1]
        entries.append(repr(e) if bare else "(%r)" % (e,))
    return "|%s>_%s" % (", ".join(entries[:-1]), entries[-1])


def _keyed(space, entry):
    """An entry's expansion into canonical units, as (coeff, key, unit); the
    shared ONE, every 1 the kernel computes, is stored as None, so products
    skip it cheaply."""
    return [(None if c is _ONE else c, space.key(u), u) for c, u in space.expand(entry)]


def _check_products(size):
    if size > 1 << MAX_SUBSET_TANGENTS:
        raise EnumerationLimitError(
            "refusing to expand a ket into %d tangent products (limit 2^%d)"
            % (size, MAX_SUBSET_TANGENTS))


def _add_kets(coeff, point, expansions):
    """The (ket, coefficient) pairs of coeff |t1,...,ts>_point, the tangents
    given by their keyed expansions, for ``_TermSum._sum`` to merge.

    Multiplies the expansions out and sorts each product's units by key.
    More than 2^MAX_SUBSET_TANGENTS products raise EnumerationLimitError.
    """
    _check_products(math.prod(map(len, expansions)))
    for combo in itertools.product(*expansions):
        c = coeff
        for u, _, _ in combo:
            if u is not None:
                c = _mul(c, u)
        yield Ket(point, tuple([e for _, _, e in sorted(combo, key=_KEY)])), c


class _TermSum(Immutable):
    """Exact linear combinations of terms over a fixed space.

    The representation and arithmetic shared by ``BangElement`` (terms are
    kets over an entry space), ``TensorElement`` (terms are tuples of kets,
    its space a tuple of entry spaces), ``semantics.TensorVal`` (terms are
    pairs of canonical units over a ``TensorSpace``), ``semantics.MapVal``
    (terms are curried denotations over a ``HomSpace``) and ``poly.Polynomial``
    (terms are exponent tuples, its space the variable count).  The
    constructor trusts its term dict; subclasses add only their canonicaliser
    or validating constructor, products, ``_sort_key`` and ``_term_str``.  The
    arithmetic builds its results through ``_of``, which runs no subclass
    ``__init__``.
    """

    __slots__ = ("space", "terms", "_hash")
    _bare_unit = False  # whether ket_str prints a lone term of coefficient 1 bare

    def __init__(self, space, terms):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", dict(terms))

    @classmethod
    def _of(cls, space, terms):
        """Trusted: ``terms`` is a fresh dict of valid terms, nonzero coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def _sum(cls, space, pairs):
        """Trusted: adds up (term, coefficient) pairs of valid terms, one hash
        per new term; drops zeros, if an input or a merged sum was zero."""
        acc, zeros = {}, False
        for k, c in pairs:
            n = len(acc)
            c0 = acc.setdefault(k, c)
            if len(acc) == n:
                acc[k] = c = _add(c0, c)
            zeros = zeros or not c
        if zeros:
            for k in [k for k, c in acc.items() if not c]:
                del acc[k]
        return cls._of(space, acc)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        items = list(self.terms.items())
        return items if len(items) == 1 else sorted(items, key=self._sort_key)

    def _merge(self, other, negate):
        if type(other) is not type(self):
            return NotImplemented
        if other.space != self.space:
            raise SpaceError("cannot combine elements over %r and %r"
                             % (self.space, other.space))
        acc = dict(self.terms)
        for k, c in other.terms.items():
            c = _neg(c) if negate else c
            c0 = acc.get(k)
            c1 = c if c0 is None else _add(c0, c)
            if not c1:
                acc.pop(k, None)
            else:
                acc[k] = c1
        return self._of(self.space, acc)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return self._of(self.space, {k: _neg(v) for k, v in self.terms.items()})

    def scale(self, c):
        c = as_scalar(c)
        if not c:
            return self._of(self.space, {})
        return self._of(self.space, {k: _mul(c, v) for k, v in self.terms.items()})

    def __eq__(self, other):
        return (type(other) is type(self)
                and other.space == self.space and other.terms == self.terms)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((type(self).__name__, self.space, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def term_key(self):
        # one _sort_key per term: nested !-values would otherwise cost 2^depth
        keyed = []
        for item in self.terms.items():
            keyed.append((self._sort_key(item), item[1]))
        keyed.sort()  # keys differ for distinct terms: coefficients never compared
        return tuple(keyed)

    def __repr__(self):
        """The terms in ``_sort_key`` order, each with its own sign; a
        coefficient of magnitude 1 is left out where the term prints."""
        if not self.terms:
            return "0"
        bits = []
        for i, (term, c) in enumerate(self.sorted_terms()):
            if c < 0:
                bits.append(" - " if i else "-")
            elif i:
                bits.append(" + ")
            body = self._term_str(term)
            if abs(c) != 1 or not body:
                body = scalar_str(abs(c)) + (" " + body if body else "")
            bits.append(body)
        return "".join(bits)


class BangElement(_TermSum):
    """A finite linear combination of kets over a fixed entry space.

    Use ``ket`` / ``from_terms`` to build canonical sums from raw data.
    ``_pairs`` and ``_d`` hold ``coproduct_pairs`` and ``derelict`` of the
    element once either has been asked for, as ``_hash`` holds its hash.
    """

    __slots__ = ("_pairs", "_d")

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def ket(cls, space, point, tangents=(), coeff=1):
        return cls.from_terms(space, [(coeff, point, tuple(tangents))])

    @classmethod
    def from_terms(cls, space, items):
        """Canonicalize raw (coeff, point, tangents) triples into a sum.

        The canonicaliser of raw input: tangents are expanded multilinearly
        into the space's canonical units and sorted; like kets merge; zero
        coefficients vanish.  Points pass through untouched.  A raw ket whose
        expansion would exceed 2^MAX_SUBSET_TANGENTS products raises
        EnumerationLimitError.
        """
        def kets():
            for coeff, point, tangents in items:
                coeff = as_scalar(coeff)
                if coeff == 0:
                    continue
                if not space.contains(point):
                    raise SpaceError("point %r does not lie in %s" % (point, space.label()))
                yield from _add_kets(coeff, point, [_keyed(space, t) for t in tangents])
        return cls._sum(space, kets())

    def _sort_key(self, item):
        return ket_key(self.space, item[0])

    _term_str = staticmethod(ket_str)


def unit(space, k: Ket) -> BangElement:
    """The single-ket element 1·k; the ket must already be canonical."""
    return BangElement(space, {k: _ONE})


class TensorElement(_TermSum):
    """A sum of pure tensors of kets; ``space`` holds one entry space per factor.

    Kets inside tensor terms are always taken from canonical elements, so
    only merging happens here, never re-expansion.
    """

    __slots__ = ()

    @classmethod
    def from_terms(cls, spaces, items):
        """Sum raw (coeff, kets) items; the kets must already be canonical."""
        return cls._sum(spaces, ((tuple(kets), as_scalar(c)) for c, kets in items))

    def _sort_key(self, item):
        return tuple(ket_key(s, k) for s, k in zip(self.space, item[0]))

    def _term_str(self, kets):
        return " (x) ".join(map(ket_str, kets))


def tensor(*factors) -> TensorElement:
    """x1 (x) ... (x) xn for elements x1, ..., xn of !V1, ..., !Vn."""
    return TensorElement._sum(tuple(x.space for x in factors), (
        (tuple([k for k, _ in combo]), reduce(_mul, [c for _, c in combo], _ONE))
        for combo in itertools.product(*(x.terms.items() for x in factors))))


# ---------------------------------------------------------------------------
# structural maps


def _splits(k: Ket):
    """A ket's tangents split into (chosen, rest, weight) once per sub-multiset
    of chosen tangents, in ``index_subsets`` order; weight is the number of
    index subsets that choose it.  Kets of order 0 and 1 split directly."""
    point, ts = k.point, k.tangents
    if not ts:
        return ((k, k, 1),)
    if len(ts) == 1:
        k0 = Ket(point, ())
        return ((k0, k, 1), (k, k0, 1))
    return [(Ket(point, chosen), Ket(point, rest), w) for chosen, rest, w in index_subsets(ts)]


def coproduct_pairs(t: BangElement):
    """Delta grouped by left factor: pairs (|k1>, sum c |k2>), one per distinct k1.

    This is the one Delta: ``coproduct`` reads its pure tensors off the
    pairs, and contraction and the laws sum over them.  A ket splits once per
    sub-multiset of its tangents, its coefficient times the weight of the
    split, and distinct kets of t share no splitting, so no right factor
    adds up or cancels.  The tuple of pairs is kept on t and returned again by
    later calls, except where t is a lone ket |>_P or |v>_P of coefficient 1:
    then t is itself a factor, (t, t) or (|>_P, t), (t, |>_P), built on each
    call, since kept on t it would hold t, a cycle that only the garbage
    collector frees.
    """
    if len(t.terms) == 1:
        (k, c), = t.terms.items()
        if c == 1 and len(k.tangents) <= 1:
            if not k.tangents:
                return ((t, t),)
            k0 = unit(t.space, Ket(k.point, ()))
            return ((k0, t), (t, k0))
    try:
        return t._pairs
    except AttributeError:
        pass
    rights = {}
    for k, c in t.terms.items():
        for k1, k2, w in _splits(k):
            rights.setdefault(k1, {})[k2] = c if w == 1 else _mul(c, as_scalar(w))
    pairs = tuple([(unit(t.space, k1), BangElement(t.space, right))
                   for k1, right in rights.items()])
    object.__setattr__(t, "_pairs", pairs)
    return pairs


def coproduct(t: BangElement) -> TensorElement:
    """Delta as one tensor: the pure tensors of ``coproduct_pairs(t)``."""
    return TensorElement._of((t.space, t.space), {
        (k1, k2): c for left, right in coproduct_pairs(t)
        for k1 in left.terms for k2, c in right.terms.items()})


def counit(t: BangElement):
    """The coefficient sum over the tangent-free kets."""
    return reduce(_add, [c for k, c in t.terms.items() if not k.tangents], _ZERO)


def dereliction(t: BangElement):
    """d: group-likes fall to their point, single tangents to their vector."""
    acc = derelict(t)
    return t.space.zero() if acc is None else acc


def derelict(t: BangElement):
    """d of t read in one pass, or None when t has no ket of order <= 1; the
    result is kept on t and returned again by later calls."""
    try:
        return t._d
    except AttributeError:
        pass
    acc = None
    for k, c in t.terms.items():
        if len(k.tangents) > 1:
            continue
        v = k.tangents[0] if k.tangents else k.point
        v = v if c is _ONE else v.scale(c)
        acc = v if acc is None else acc + v
    object.__setattr__(t, "_d", acc)
    return acc


def promote_blocks(vals, block, space) -> BangElement:
    """delta on every slot, then a map on blocks: !A1 (x) ... (x) !An -> !B.

    For each choice of one ket per slot, the multiset of the chosen kets'
    tangents, each tagged with its slot, is split over its partitions (equal
    tangents of one slot are copies of one item, of two slots two items).  A
    block is one part, read back as one unit element per slot (that slot's
    point, the block's tangents from that slot); ``block`` maps such elements
    to an entry of ``space``.  Each partition gives the ket of !B whose point
    is ``block`` at the tangent-free kets and whose tangents are ``block`` at
    its parts, times its weight: the number of set partitions of the tangents
    it stands for.  ``block`` is called, and its value expanded, once per
    distinct sub-multiset of the tangents and once at the point.
    """
    pairs = []
    for combo in itertools.product(*(v.sorted_terms() for v in vals)):
        coeff = reduce(_mul, [c for _, c in combo], _ONE)
        kets = [k for k, _ in combo]
        runs = [(si, x, len(list(run)))
                for si, k in enumerate(kets) for x, run in itertools.groupby(k.tangents)]
        point = block(*(unit(v.space, Ket(k.point, ())) for v, k in zip(vals, kets)))
        if not space.contains(point):
            raise SpaceError("point %r does not lie in %s" % (point, space.label()))
        parts = {}
        for blocks, w in set_partitions([m for _, _, m in runs]):
            expansions = []
            for part in blocks:
                keyed = parts.get(part)
                if keyed is None:
                    picked = [()] * len(kets)
                    for (si, x, _), b in zip(runs, part):
                        picked[si] += (x,) * b
                    keyed = parts[part] = _keyed(space, block(*(
                        unit(v.space, Ket(k.point, xs)) for v, k, xs in zip(vals, kets, picked))))
                expansions.append(keyed)
            pairs.extend(_add_kets(coeff if w == 1 else _mul(coeff, as_scalar(w)), point, expansions))
    return BangElement._sum(space, pairs)


def promote(t: BangElement) -> BangElement:
    """delta: !V -> !!V, each block read back as its unit ket."""
    return promote_blocks((t,), lambda u: u, BangSpace(t.space))


def deriving(t: BangElement, v) -> BangElement:
    """D: adjoin one more tangent v to every ket, keeping the tangents canonical.

    v is expanded once, and each unit is inserted into each ket's sorted
    tangents at its key.  More than 2^MAX_SUBSET_TANGENTS units raise
    EnumerationLimitError.
    """
    space, pairs = t.space, []
    units = _keyed(space, v)
    _check_products(len(units))
    for k, c in t.terms.items():
        ts = k.tangents
        for cu, key, u in units:
            i = bisect.bisect_right(ts, key, key=space.key)
            pairs.append((Ket(k.point, ts[:i] + (u,) + ts[i:]), c if cu is None else _mul(c, cu)))
    return BangElement._sum(space, pairs)


def cocontract(a: BangElement, b: BangElement) -> BangElement:
    """nabla: multiply kets by adding points and merging their sorted tangents."""
    if a.space != b.space:
        raise SpaceError("cocontraction needs matching spaces")
    key = a.space.key
    return BangElement._sum(a.space, (
        (Ket(ka.point + kb.point, tuple(sorted(ka.tangents + kb.tangents, key=key))
             if ka.tangents and kb.tangents else ka.tangents or kb.tangents), _mul(ca, cb))
        for ka, ca in a.terms.items() for kb, cb in b.terms.items()))


def antipode(t: BangElement) -> BangElement:
    """S: negate the point and every tangent."""
    return BangElement.from_terms(
        t.space, ((c, -k.point, tuple(-x for x in k.tangents)) for k, c in t.terms.items()))


def coweaken(space) -> BangElement:
    """u: the group-like ket at the origin."""
    return BangElement.ket(space, space.zero())


def codereliction(space, v) -> BangElement:
    """dbar: a single tangent at the origin."""
    return BangElement.ket(space, space.zero(), (v,))


def split_merge(a: BangElement, b: BangElement) -> BangElement:
    """Psi: !V1 (x) !V2 -> !(V1 + V2), concatenating points blockwise."""
    if not isinstance(a.space, BaseSpace) or not isinstance(b.space, BaseSpace):
        raise SpaceError("split_merge needs concrete base spaces")
    d1, d2 = a.space.dim, b.space.dim
    target = BaseSpace(d1 + d2)
    z1, z2 = Vec.zero(d1), Vec.zero(d2)
    items = []
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            point = ka.point.concat(kb.point)
            tangents = tuple(x.concat(z2) for x in ka.tangents) \
                + tuple(z1.concat(x) for x in kb.tangents)
            items.append((_mul(ca, cb), point, tangents))
    return BangElement.from_terms(target, items)


def split_inverse(t: BangElement, d1, d2) -> TensorElement:
    """Psi^{-1}: split a !(V1 + V2) element back into !V1 (x) !V2 terms.

    Every tangent must be supported in a single block; canonical elements
    always are, since their tangents are standard basis vectors.
    """
    if not isinstance(t.space, BaseSpace) or t.space.dim != d1 + d2:
        raise SpaceError("expected an element over a base space of dim %d" % (d1 + d2))
    s1, s2 = BaseSpace(d1), BaseSpace(d2)
    items = []
    for k, c in t.terms.items():
        p1 = Vec(k.point.coords[:d1])
        p2 = Vec(k.point.coords[d1:])
        left, right = [], []
        for x in k.tangents:
            head, tail = Vec(x.coords[:d1]), Vec(x.coords[d1:])
            if tail.is_zero():
                left.append(head)
            elif head.is_zero():
                right.append(tail)
            else:
                raise SpaceError("tangent %r straddles the direct-sum blocks" % (x,))
        items.append((c, (Ket(p1, tuple(left)), Ket(p2, tuple(right)))))
    return TensorElement.from_terms((s1, s2), items)


def tangent_lift(space, point, direction):
    """The curve-of-kets pair (|>_P, |v>_P) induced by a tangent vector."""
    return BangElement.ket(space, point), BangElement.ket(space, point, (direction,))
