"""Exact model of Heronian parallelograms.

A Heronian parallelogram has a positive integer base, a positive integer
side, and a positive integer area.  Fixing base and side, the shape can be
sheared continuously from the upright rectangle down to a degenerate sliver,
so every integer area from 1 up to base*side is realizable; the triple
(base, side, area) therefore pins down all the Heronian data.  The height is
the derived exact rational area/base and never exceeds the side.

All arithmetic in this module is exact: Python integers and
``fractions.Fraction``.  Values are immutable and safe to share.
"""

from __future__ import annotations

import sys
from math import gcd, isqrt
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

# CPython refuses int<->str conversions of more than 4300 digits by default,
# and no setting may go below 640; pieces of this many digits always convert.
_DIGIT_CHUNK = 600


class HeronianError(ValueError):
    """Base class for invalid Heronian parallelogram data or queries."""


class NonIntegerDimension(HeronianError):
    """A base, side, area, perimeter or index that is not a plain ``int``
    (bools included)."""


class ZeroDimension(HeronianError):
    """A base, side, height, or area that must be positive is not."""


class AreaOutOfRange(HeronianError):
    """Requested area exceeds base*side; no such parallelogram exists."""


class SideTooShort(HeronianError):
    """Requested side is shorter than the height it has to span."""


class NonIntegerArea(HeronianError):
    """base*height is not an integer, so the area would not be integral."""


class InvalidPerimeter(HeronianError):
    """Parallelogram perimeters are even and at least 4."""


def non_integer_fields(names: str, values: tuple) -> NonIntegerDimension:
    """The refusal of fields ``names`` that must all be plain ints, naming
    the type of each of ``values``."""
    kinds = ", ".join(type(value).__name__ for value in values)
    return NonIntegerDimension(f"{names} must be ints, got ({kinds})")


def int_to_decimal(value: int) -> str:
    """Decimal text of any int, past CPython's int/str digit limit too.

    Small values take plain ``str``; larger ones are split at a power of
    ten into halves until every piece is short enough to convert.
    """
    try:
        return str(value)
    except ValueError:  # past the int/str digit limit
        return "-" + _digits_of(-value) if value < 0 else _digits_of(value)


def _digits_of(value: int) -> str:
    digits = value.bit_length() * 30103 // 100000 + 1  # at most one too many
    if digits <= _DIGIT_CHUNK:
        return str(value)
    low_digits = digits // 2
    high, low = divmod(value, 10**low_digits)
    return _digits_of(high) + _digits_of(low).zfill(low_digits)


def decimal_to_int(text: str) -> int:
    """Parse decimal text: ASCII ``-?[0-9]+`` at any length, nothing else.

    Anything else, a non-string included, raises :class:`HeronianError`.
    Checked text takes plain ``int`` when it is short enough for it.
    """
    if isinstance(text, str):
        digits = text[1:] if text.startswith("-") else text
        if digits.isascii() and digits.isdigit():
            try:
                return int(text)
            except ValueError:  # past the int/str digit limit
                value = _value_of(digits)
                return -value if text[0] == "-" else value
        raise HeronianError(f"not a decimal integer (-?[0-9]+): {text!r:.40}")
    raise HeronianError(f"decimal text expected, got {type(text).__name__}")


def _value_of(digits: str) -> int:
    if len(digits) <= _DIGIT_CHUNK:
        return int(digits)
    low_digits = len(digits) // 2
    return _value_of(digits[:-low_digits]) * 10**low_digits + _value_of(
        digits[-low_digits:]
    )


def value_repr(value: object) -> str:
    """``repr(value)``, with a plain int printed past the digit limit too,
    also as an item of a plain tuple."""
    if type(value) is int:
        return int_to_decimal(value)
    if type(value) is tuple:
        items = ", ".join(map(value_repr, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


def fields_repr(self) -> str:
    """The generated ``__repr__`` of a dataclass or a ``NamedTuple``, past
    the int/str digit limit too.

    The generated repr's ``!r`` fails on an int of more digits than the
    limit; this one prints each field through :func:`value_repr`.  The
    field names are the class's ``__match_args__``, which a value type and
    a ``NamedTuple`` both have.  :func:`value_type` sets it on every value
    type; a ``NamedTuple`` assigns it as ``__repr__`` in its class body.
    """
    values = ", ".join(
        f"{name}={value_repr(getattr(self, name))}" for name in self.__match_args__
    )
    return f"{type(self).__qualname__}({values})"


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order.

    For the constructors :func:`value_type` writes, for the one written out
    by hand, ``Parallelogram``'s, and for :func:`prechecked`:
    ``setter(self, value)`` stores a validated field past the frozen
    ``__setattr__``, as ``object.__setattr__`` would, without looking the
    descriptor up by name on each call.
    """
    return tuple(cls.__dict__[name].__set__ for name in cls.__match_args__)


def prechecked(cls: type):
    """A builder of ``cls`` from fields already known valid, past its checks.

    ``build(*fields)``, the fields positionally in field order, makes the
    instance with ``object.__new__`` and stores each field through
    :func:`slot_setters`, running none of the constructor's checks.  Only a
    route whose fields are valid by construction may use it; every value
    built from a caller's input goes through the constructor.  The builder
    is written out per field count, as a loop over the setters costs more
    than the checks it skips.
    """
    new = object.__new__
    setters = slot_setters(cls)
    if len(setters) == 3:
        set_0, set_1, set_2 = setters

        def build(field_0, field_1, field_2):
            self = new(cls)
            set_0(self, field_0)
            set_1(self, field_1)
            set_2(self, field_2)
            return self

    elif len(setters) == 2:
        set_0, set_1 = setters

        def build(field_0, field_1):
            self = new(cls)
            set_0(self, field_0)
            set_1(self, field_1)
            return self

    else:
        raise TypeError(f"no prechecked builder for {len(setters)} fields")
    return build


# dataclasses, with the inspect it loads, is about a third of the CLI's
# import time, so only the refusals and the dataclass API below import
# from it, when first used.


def _refuse_assignment(self, name: str, value: object) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _field_values(self) -> list:
    # A slots dataclass's __getstate__: the field values, in field order.
    return [getattr(self, name) for name in self.__match_args__]


def _store_fields(self, state: list) -> None:
    # A slots dataclass's __setstate__, so the pickles a dataclass wrote load.
    for name, value in zip(self.__match_args__, state):
        object.__setattr__(self, name, value)


def _replace(self, /, **changes):
    # copy.replace's hook, which a dataclass has from Python 3.13 on: the
    # constructor, so its checks, on the fields with ``changes`` applied.
    for name in self.__match_args__:
        changes.setdefault(name, getattr(self, name))
    return type(self)(**changes)


class _DataclassApi:
    """A value type's ``__dataclass_fields__`` or ``__dataclass_params__``,
    made on its first read.

    That read imports ``dataclasses`` and sets both attributes of the plain
    frozen slots dataclass with the same fields on the value type, in place
    of both descriptors, so later reads are plain class attributes and
    ``is_dataclass``, ``fields``, ``replace``, ``astuple`` and ``asdict``
    work as on that dataclass.  A read that races the first sets equal
    values again.
    """

    def __init__(self, fields: list) -> None:
        self.fields = fields  # make_dataclass's (name, type[, default]) items

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: object, owner: type):
        from dataclasses import make_dataclass

        plain = make_dataclass(owner.__name__, self.fields, frozen=True, slots=True)
        for name in ("__dataclass_fields__", "__dataclass_params__"):
            setattr(owner, name, getattr(plain, name))
        return owner.__dict__[self.name]


def value_type(cls: type) -> type:
    """Declare an exact value type: a frozen slots dataclass, built here.

    The class's annotations, in order, are its fields, and a class
    attribute of a field's name is its default.  The class is built again
    with ``__slots__`` and ``__match_args__`` of the field names and these:
    - ``__init__``, taking the fields with their annotations and defaults,
      storing each through :func:`slot_setters` and then calling
      ``__post_init__`` if the class has one; a class-body ``__init__`` is
      kept instead;
    - ``__eq__`` and ``__hash__`` over the field tuple, written out per
      class as a dataclass's are;
    - :func:`fields_repr` as the repr, and two refusals as ``__setattr__``
      and ``__delattr__``, which raise ``FrozenInstanceError`` with the
      text a plain frozen dataclass gives, for any name;
    - a slots dataclass's ``__getstate__`` and ``__setstate__``, so pickles
      keep their form, and on Python 3.13 ``__replace__``;
    - ``__dataclass_fields__`` and ``__dataclass_params__``, which import
      ``dataclasses`` on first read (:class:`_DataclassApi`).

    Nothing here imports ``dataclasses``, and so ``inspect``: a run that
    asks for neither the dataclass API nor a refusal loads neither.

    A value type checks its fields in ``__post_init__``.  Only a type
    whose checks are on a measured hot path writes its own ``__init__``,
    checking before it stores through :func:`slot_setters`; a route whose
    fields are valid by construction builds through :func:`prechecked`.
    """
    annotations = cls.__annotations__
    names = tuple(annotations)
    body = cls.__dict__
    defaults = {name: body[name] for name in names if name in body}
    fields = [
        (name, annotations[name], defaults[name]) if name in defaults else (name, annotations[name])
        for name in names
    ]
    namespace = {
        key: value
        for key, value in body.items()
        if key not in names and key not in ("__dict__", "__weakref__")
    }
    namespace.update(
        __qualname__=cls.__qualname__,
        __slots__=names,
        __match_args__=names,
        __repr__=fields_repr,
        __setattr__=_refuse_assignment,
        __delattr__=_refuse_deletion,
        __getstate__=_field_values,
        __setstate__=_store_fields,
        __dataclass_fields__=_DataclassApi(fields),
        __dataclass_params__=_DataclassApi(fields),
    )
    if sys.version_info >= (3, 13):
        namespace["__replace__"] = _replace

    def fields_of(owner: str) -> str:
        return "".join(f"{owner}.{name}," for name in names)

    source = [
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({fields_of('self')}) == ({fields_of('other')})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({fields_of('self')}))",
    ]
    if "__init__" not in body:
        params = ", ".join(f"{name}=_default_{name}" if name in defaults else name for name in names)
        source.append(f"def __init__(self, {params}):")
        source += [f"    _set_{name}(self, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            source.append("    self.__post_init__()")
    # The methods' globals: the defaults, and the slot setters, which are
    # set once the class exists.
    scope = {"__name__": cls.__module__}
    scope.update((f"_default_{name}", value) for name, value in defaults.items())
    exec("\n".join(source), scope)
    for method in ("__eq__", "__hash__", "__init__"):
        if method in scope:
            namespace[method] = scope[method]
            scope[method].__qualname__ = f"{cls.__qualname__}.{method}"
    if "__init__" in scope:
        scope["__init__"].__annotations__ = {**annotations, "return": None}
    value = type(cls)(cls.__name__, cls.__bases__, namespace)
    scope.update(zip([f"_set_{name}" for name in names], slot_setters(value)))
    return value


class _KeyFields(NamedTuple):
    short_side: int
    long_side: int
    area: int


class CanonicalKey(_KeyFields):
    """Geometric identity of a parallelogram for counting purposes.

    Which of the two sides is called the base is a presentation choice, as
    is the shear direction, so shapes are identified by the unordered side
    pair plus the area.  A ``NamedTuple`` whose constructor, ``_make`` and
    ``_replace`` refuse a field that is not a plain int.
    """

    # A NamedTuple body may not define __new__ or _make, so they are
    # written on this subclass of one.
    __slots__ = ()

    def __new__(cls, short_side: int, long_side: int, area: int) -> CanonicalKey:
        if not type(short_side) is type(long_side) is type(area) is int:
            raise non_integer_fields(
                "short_side, long_side, and area", (short_side, long_side, area)
            )
        return tuple.__new__(cls, (short_side, long_side, area))

    @classmethod
    def _make(cls, iterable) -> CanonicalKey:
        return cls(*iterable)

    __repr__ = fields_repr


@value_type
class Parallelogram:
    """A Heronian parallelogram, stored as (base, side, area).

    The constructor validates the data, so every reachable instance
    satisfies 1 <= area <= base*side, has an even perimeter, and has a
    height (area/base) that is positive and at most the side.  The bound is
    exact at any size: large operands settle it by bit length (see
    :func:`exceeds_product`) and form base*side only when the sizes are
    within one bit of it.
    """

    base: int
    side: int
    area: int

    def __init__(self, base: int, side: int, area: int) -> None:
        # Written out rather than generated, as it is on measured hot paths
        # (companions, family_pair's members, every request): validation
        # runs before the fields are stored, with no __post_init__ call.
        if not type(base) is type(side) is type(area) is int:
            raise non_integer_fields("base, side, and area", (base, side, area))
        if base < 1 or side < 1 or area < 1:
            raise ZeroDimension(
                f"base, side, and area must be positive, got {value_repr((base, side, area))}"
            )
        # Below 2**30 each operand is one CPython digit, and the product is
        # cheaper than the bit lengths that would avoid it.  The bound is
        # written 2**30 - 1 because a one-digit constant keeps these
        # comparisons on the interpreter's fast path for small ints.
        if (
            area > base * side
            if base <= 2**30 - 1 and side <= 2**30 - 1
            else exceeds_product(area, base, side)
        ):
            raise AreaOutOfRange(
                f"area {int_to_decimal(area)} exceeds "
                f"base*side = {int_to_decimal(base * side)}"
            )
        # Stored through the slot descriptors themselves (bound once, below
        # the class), which skips the by-name lookup object.__setattr__ does
        # on every call.  The frozen __setattr__ still refuses assignment.
        _set_base(self, base)
        _set_side(self, side)
        _set_area(self, area)

    @classmethod
    def from_base_height_side(
        cls, base: int, height: Fraction | int, side: int
    ) -> Parallelogram:
        """Build the parallelogram with the given base, height, and side.

        The height may be rational, but base*height must be an integer or
        the area would not be.  The side must be at least the height.  Base
        and side must be ints and the height an int or a ``Fraction`` (bools
        refused), or :class:`NonIntegerDimension` is raised.
        """
        require_int(base, "base")
        require_int(side, "side")
        if type(height) is not int and type(height) is not _fraction_class():
            raise NonIntegerDimension(
                f"height must be an int or a Fraction, got {type(height).__name__}"
            )
        # An int height is used as it is: it compares and multiplies like a
        # Fraction and has a numerator and a denominator (1) too.
        if base < 1 or side < 1 or height <= 0:
            raise ZeroDimension(
                f"base, side, and height must be positive, got ({int_to_decimal(base)}, "
                f"{_fraction_to_decimal(height)}, {int_to_decimal(side)})"
            )
        if side < height:
            raise SideTooShort(
                f"side {int_to_decimal(side)} is shorter than "
                f"height {_fraction_to_decimal(height)}"
            )
        area = base * height
        if area.denominator != 1:
            raise NonIntegerArea(
                f"base*height = {_fraction_to_decimal(area)} is not an integer"
            )
        return cls(base, side, int(area))

    @property
    def perimeter(self) -> int:
        """2*(base + side); always even."""
        return 2 * (self.base + self.side)

    @property
    def height(self) -> Fraction:
        """Exact height area/base, in lowest terms.  Never exceeds side."""
        return _Fraction(self.area, self.base)

    @property
    def is_rectangle(self) -> bool:
        """True iff the height equals the side, i.e. area == base*side.

        The constructor guarantees area <= base*side, so this is
        area + 1 > base*side, which large shapes settle by bit length.
        """
        return exceeds_product(self.area + 1, self.base, self.side)

    @property
    def canonical_key(self) -> CanonicalKey:
        # The fields are checked ints, so the key skips its own check.
        if self.base <= self.side:
            return _new_tuple(CanonicalKey, (self.base, self.side, self.area))
        return _new_tuple(CanonicalKey, (self.side, self.base, self.area))

    def swapped(self) -> Parallelogram:
        """The same shape with the base/side designation exchanged.

        Legal for every instance since area <= base*side = side*base.
        """
        return Parallelogram(self.side, self.base, self.area)

    def _field_texts(self) -> tuple[str, str, str, str, str]:
        """Decimal text of base, side, area and the height's num and den.

        The height is area/base in lowest terms; when the gcd is 1 it is
        already, and the area and base text is reused.
        """
        base = int_to_decimal(self.base)
        area = int_to_decimal(self.area)
        common = gcd(self.area, self.base)
        if common == 1:
            num, den = area, base
        else:
            num = int_to_decimal(self.area // common)
            den = int_to_decimal(self.base // common)
        return base, int_to_decimal(self.side), area, num, den

    def to_json_dict(self) -> dict:
        """Wire form with all integers as decimal strings.

        Schema: {"base": str, "side": str, "area": str,
                 "height": {"num": str, "den": str}}
        """
        base, side, area, num, den = self._field_texts()
        return {
            "base": base,
            "side": side,
            "area": area,
            "height": {"num": num, "den": den},
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict())``, from one template.

        Every value is a decimal string, which JSON prints as it is, so the
        encoder's scan of each character for escapes is skipped.
        """
        base, side, area, num, den = self._field_texts()
        return (
            f'{{"base": "{base}", "side": "{side}", "area": "{area}", '
            f'"height": {{"num": "{num}", "den": "{den}"}}}}'
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> Parallelogram:
        """Parse the wire form produced by :meth:`to_json_dict`.

        Each integer is a plain ``int`` or a string of ASCII digits with an
        optional leading ``-``; anything else raises :class:`HeronianError`.
        A present height field must be area/base in lowest terms.
        """
        if not isinstance(data, dict):
            kind = type(data).__name__
            raise HeronianError(f"wire form must be an object, got {kind}")
        base = _json_int(data, "base")
        side = _json_int(data, "side")
        area = _json_int(data, "area")
        shape = cls(base, side, area)
        if "height" in data:
            height = data["height"]
            if not isinstance(height, dict):
                raise HeronianError("height field must be an object with num and den")
            # A height already in lowest terms repeats the area and base
            # text, which has been parsed once already.
            claimed = (
                _json_int(height, "num", data["area"], area),
                _json_int(height, "den", data["base"], base),
            )
            common = gcd(area, base)
            if claimed != (area // common, base // common):
                raise HeronianError(
                    f"height field {int_to_decimal(claimed[0])}/"
                    f"{int_to_decimal(claimed[1])} is not area/base = "
                    f"{_fraction_to_decimal(shape.height)} in lowest terms"
                )
        return shape


_set_base, _set_side, _set_area = slot_setters(Parallelogram)
_new_tuple = tuple.__new__


def _fraction_class() -> type:
    """``fractions.Fraction``, imported on first use and bound to
    ``_Fraction``.

    ``fractions`` brings ``decimal`` and ``numbers`` with it, and only
    ``height`` and ``from_base_height_side`` need it, so a run that calls
    neither never loads it.
    """
    global _Fraction
    from fractions import Fraction

    _Fraction = Fraction
    return Fraction


def _first_fraction(numerator: int, denominator: int) -> Fraction:
    # What _Fraction is until fractions loads: height reads the global, so
    # its calls after the first take no import statement.
    return _fraction_class()(numerator, denominator)


_Fraction = _first_fraction


def _json_int(data: dict, key: str, parsed_text=None, parsed_value=None) -> int:
    """The integer in wire field ``key``: a plain int or -?[0-9]+ text.

    Text equal to ``parsed_text``, whose value is ``parsed_value``, is not
    parsed again.
    """
    value = data.get(key)
    if type(value) is int:
        return value
    if type(value) is type(parsed_text) is str and value == parsed_text:
        return parsed_value
    try:
        return decimal_to_int(value)
    except HeronianError:
        pass
    try:
        shown = f"{value!r:.40}"
    except ValueError:  # holds an int past the int/str digit limit
        shown = f"a {type(value).__name__} holding an int too long to print"
    raise HeronianError(f"field {key!r} must be a decimal integer, got {shown}")


def _fraction_to_decimal(value: Fraction | int) -> str:
    """``str(value)`` in the form Fraction prints, past the digit limit too."""
    if value.denominator == 1:
        return int_to_decimal(value.numerator)
    return f"{int_to_decimal(value.numerator)}/{int_to_decimal(value.denominator)}"


def exceeds_product(x: int, a: int, b: int) -> bool:
    """``x > a*b`` for a non-negative int x and positive ints a and b.

    a*b has either bl(a) + bl(b) - 1 or bl(a) + bl(b) bits (bl is
    ``int.bit_length``), so an x of any other bit length is settled without
    the product, which at thousands of digits costs far more than the
    comparison.  Only an x of one of those two lengths forms ``a * b``.
    """
    size = a.bit_length() + b.bit_length()
    bits = x.bit_length()
    if bits > size:
        return True
    if bits < size - 1:
        return False
    return x > a * b


def splits_at_least(half: int, bound: int) -> range:
    """Every a with a*(half - a) >= bound, for ints half >= 2 and bound >= 1.

    The splits a + (half - a) = half whose product reaches the bound form
    one interval between the roots of a^2 - half*a + bound, symmetric about
    half/2.  This is the paper's quadratic bound: with half = A/2 and
    bound = P it gives the companion bases of an (A, P) pair, and with
    half = P/2 and bound = A the short sides that can carry area A at
    perimeter P.  Both ends are read off the integer square root of the
    discriminant alone, exactly at any size (the comment below says why).
    When no split reaches the bound the range is empty and starts at
    half // 2 + 1, one past the middle split, so a walk from its
    start up to the middle is empty too.
    """
    disc = half * half - 4 * bound
    if disc < 0:
        return range(half // 2 + 1, half // 2 + 1)
    # The splits are the integers in [y, half - y], y = (half - sqrt(disc))/2.
    # s = isqrt(disc) has s <= sqrt(disc) < s + 1, so y lies in
    # ((half - s - 1)/2, (half - s)/2], a half-open interval of length 1/2
    # that ends on a multiple of 1/2: ceil(y) = (half - s + 1) // 2 exactly,
    # and by symmetry the greatest split is half - ceil(y).  The range is not
    # empty: low <= half // 2, as s >= 1 when half is odd (disc is odd then).
    low = (half - isqrt(disc) + 1) // 2
    return range(low, half - low + 1)


def require_int(value: object, name: str) -> None:
    """Refuse a value that is not a plain int; like a ``Parallelogram``
    dimension, a bool or other int subclass is refused too."""
    if type(value) is not int:
        raise NonIntegerDimension(f"{name} must be an int, got {type(value).__name__}")


def require_even_perimeter(perimeter: int) -> None:
    """Reject perimeters no parallelogram can have (not an int, odd, or
    below 4)."""
    require_int(perimeter, "perimeter")
    if perimeter < 4 or perimeter % 2:
        raise InvalidPerimeter(
            f"perimeter must be an even integer >= 4, got {int_to_decimal(perimeter)}"
        )


def perimeters_up_to(max_perimeter: int) -> range:
    """Every perimeter from 4 to ``max_perimeter``: the grid of ``verify``,
    the census and :func:`census.enumerate_by_area`.  Checks the maximum
    when called, as :func:`require_even_perimeter` does."""
    require_even_perimeter(max_perimeter)
    return range(4, max_perimeter + 1, 2)


def require_positive_area(area: int) -> None:
    """Reject areas no parallelogram can have (not an int, or below 1)."""
    require_int(area, "area")
    if area < 1:
        raise ZeroDimension(f"area must be positive, got {int_to_decimal(area)}")
