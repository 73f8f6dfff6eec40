"""Immutable values and frozen records with slots, built without generated code.

``record`` reads a class body of annotated fields, class-level values being
defaults, and returns a ``__slots__`` class: ``__init__`` takes the fields by
position or keyword, ``==`` holds within one class and ``hash`` of the field
tuple is computed once per instance, the repr is ``Name(field=value, ...)``
and ``_fields`` names the fields.  A body that checks or converts its fields
writes its own ``__init__`` and stores them with ``self._fill(*values)``;
``trusted_maker`` gives a one-field record built on a hot path a trusted
constructor, which skips the checks and ``_fill`` and stores the slots
directly.  The field tuple also sits in a ``_values`` slot, so ``==`` and
``hash`` build none.  ``slots=`` names slots that hold no field, such as a
value kept on first use: they stay out of ``_fields``, ``_values``, ``==``,
``hash`` and the repr, and are set only through ``object.__setattr__``.
"""

from itertools import repeat

_MISSING = object()


class Immutable:
    """Assignment and deletion raise; record constructors store through the
    slot descriptors (``_fill``, ``trusted_maker``)."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__


class _Record(Immutable):
    __slots__ = ()

    def __repr__(self):
        values = map(getattr, repeat(self), self._fields)
        return "%s(%s)" % (self.__class__.__qualname__,
                           ", ".join(map("%s=%r".__mod__, zip(self._fields, values))))

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        # proofs key the denotation cache at every node, and a tuple hash walks
        # the whole sub-tree: uncached, denoting would hash nodes x depth times
        h = self._hash
        if h is None:
            h = hash(self._values)
            object.__setattr__(self, "_hash", h)
        return h


def record(cls=None, /, *, slots=()):
    if cls is None:
        return lambda c: record(c, slots=slots)
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    names = ns["_fields"] = tuple(ns.get("__annotations__", ()))
    defaults = {n: ns.pop(n) for n in names if n in ns}
    ns["__slots__"] = names + ("_values", "_hash") + slots
    ns["__qualname__"] = cls.__qualname__
    cls = type(cls)(cls.__name__, (_Record,), ns)
    n, sv, sh = len(names), cls._values.__set__, cls._hash.__set__
    s0, s1, s2, *rest = [getattr(cls, name).__set__ for name in names] + [None] * 3

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args += tuple([kwargs.pop(name, defaults.get(name, _MISSING))
                           for name in names[len(args):]])
            if kwargs or len(args) != n or _MISSING in args:
                raise TypeError("%s() takes the fields %s" % (cls.__name__, ", ".join(names)))
        sv(self, args)
        sh(self, None)
        s0(self, args[0])
        # records built in hot loops have at most three fields: stores unrolled
        if n > 1:
            s1(self, args[1])
            if n > 2:
                s2(self, args[2])
                if n > 3:
                    for setter, value in zip(rest, args[3:]):
                        setter(self, value)

    cls._fill = __init__
    cls.__init__ = ns.get("__init__", __init__)
    return cls


def trusted_maker(cls):
    """A trusted constructor of the one-field record ``cls``: it stores the
    field, the field tuple and the unset hash through the slot descriptors."""
    (name,) = cls._fields
    new = object.__new__
    set_field, set_values, set_hash = (
        getattr(cls, name).__set__, cls._values.__set__, cls._hash.__set__)

    def make(value):
        self = new(cls)
        set_field(self, value)
        set_values(self, (value,))
        set_hash(self, None)
        return self
    return make
