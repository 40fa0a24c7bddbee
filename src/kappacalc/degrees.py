"""Disbelief degrees: non-negative integers extended with infinity.

A degree is a plain non-negative ``int`` or ``INF`` (``math.inf``).  Python
integers are arbitrary precision, so finite addition is always exact.  ``INF``
saturates under addition (``INF + c == INF``) and is the identity of ``min``
(``min(INF, c) == c``), which is exactly the arithmetic the calculus needs.
Python's ``INF + c`` converts ``c`` to a float, which overflows past 1.8e308,
so the library skips a sum with an ``INF`` addend instead of computing it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import AllInfinite

INF: float = math.inf

#: A non-negative ``int``, or ``INF``.
Degree = int | float

#: An ``int``, ``INF``, or ``-INF`` (codomain of belief and scalar utility).
Signed = int | float


class Frozen:
    """Base of the immutable value classes: `_fields` drive ==, hash and repr.

    `__init__` stores one value per field; slots outside `_fields` are derived.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} values, "
                            f"got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f}={show(getattr(self, f))}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # pickle rebuilds through __init__
        return type(self), self._key()

    def __copy__(self):  # immutable, so a copy is the value itself, as for tuples
        return self

    def __deepcopy__(self, memo):
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def show(value: object) -> str:
    """``repr(value)``, naming each int too long to write in decimal by its size."""
    if type(value) is tuple:
        return f"({show(value[0])},)" if len(value) == 1 else f"({', '.join(map(show, value))})"
    if type(value) is list:
        return f"[{', '.join(map(show, value))}]"
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        return f"an int of {value.bit_length()} bits"


def check_degree(value: object) -> Degree:
    """Return ``value`` unchanged if it is a non-negative int or ``INF``; bools do not count."""
    if isinstance(value, int):
        if value >= 0 and not isinstance(value, bool):
            return value
    elif isinstance(value, float) and value == INF:
        return value
    raise TypeError(f"not a disbelief degree: {show(value)} (need a non-negative int or INF)")


def check_degrees(values: Iterable[object]) -> tuple[Degree, ...]:
    # Bridge-path tuples come from lists: tuple(generator) resizes a 10-slot
    # tuple, moving a fresh block onto the size-n freelist, which only a full gc empties.
    return tuple([v if type(v) is int and v >= 0 else check_degree(v) for v in values])


def normalize_degrees(values: Iterable[object]) -> tuple[Degree, ...]:
    """Shift a degree vector so its minimum is zero.

    The finite minimum is subtracted from every finite entry; infinite
    entries stay infinite.  Raises :class:`AllInfinite` when there is no
    finite entry to anchor the shift.

    >>> normalize_degrees((3, 5, INF))
    (0, 2, inf)
    """
    vec = check_degrees(values)
    low = min(vec, default=INF)
    if low == INF:
        raise AllInfinite("every degree is infinite; nothing to normalize")
    return tuple([v if v == INF else v - low for v in vec])

