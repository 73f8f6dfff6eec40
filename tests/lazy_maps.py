"""Opaque lazy maps for tests: a Python callable wrapped as a proof's map."""

from fractions import Fraction

from sweedler.semantics import Curried, Denotation, MapVal


def lazy_map(hom, fn):
    """The one-atom lazy map x -> fn(x) of hom, over a fresh denotation of fn,
    so that it equals no other lazy map."""
    return MapVal(hom, {Curried(Denotation((hom.dom,), hom.cod, fn), ()): Fraction(1)})
