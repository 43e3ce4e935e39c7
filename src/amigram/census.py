"""Exhaustive enumeration and small censuses of Heronian parallelograms.

Enumeration is canonical: each shape appears once, as its unordered side
pair plus area, and streams are emitted in a fixed order so text output is
byte-stable.  The module also builds non-amicable witnesses for any target
area or perimeter, and solves for the amicable rectangle pairs
(rectangles where the area of each equals the perimeter of the other)
rather than searching for them: for a x b and c x d with short sides a and
c, substituting d = ab/2 - c into cd = 2(a + b) gives
b(ac - 4) = 2(2a + c^2), and ab <= 4d, cd <= 4b give ac <= 16, so the 42
short-side pairs with 4 < ac <= 16 yield the complete list.

The census is counted, not enumerated.  By the paper's condition (A even
and A^2 >= 16*P) the amicable areas of a perimeter are the even areas from
A0 = :func:`amicability.least_amicable_area` up, and each side split
a + (h - a) = h = P/2 carries the areas 1..a(h - a).  So every tally of a
perimeter counts integers over the splits from one end of an interval of
:func:`core.splits_at_least` to the middle split, and sums of a(h - a)
over such splits have a closed form: :func:`perimeter_counts` is one row
in O(1) arithmetic, :func:`count_amicable` is the list of them, and the
``census`` command streams them.

The module applies no amicability rule of its own: a row's flags are
:func:`amicability.is_amicable` and :func:`amicability.is_self_amicable`,
a witness leaves only once :func:`amicability.is_amicable` refuses it,
and the counted census reads its threshold off
:func:`amicability.least_amicable_area`.

The census and the rectangle pairs each have a fast route and keep the
literal search it replaced (:func:`count_amicable_exhaustive`,
:func:`amicable_rectangle_pairs_exhaustive`) as its test oracle.  Every
entry that takes a maximum perimeter walks :func:`core.perimeters_up_to`,
which checks it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count
from math import isqrt

from .amicability import is_amicable, is_self_amicable, least_amicable_area
from .core import (
    HeronianError,
    Parallelogram,
    exceeds_product,
    int_to_decimal,
    non_integer_fields,
    perimeters_up_to,
    prechecked,
    require_even_perimeter,
    require_int,
    require_positive_area,
    splits_at_least,
    value_repr,
    value_type,
)

CSV_HEADER = "short_side,long_side,area,perimeter,amicable,self_amicable"


@value_type
class CensusRow:
    """One canonical parallelogram, with its perimeter and amicability flags
    read off its sides and area.

    The constructor refuses fields that are not plain ints or that name no
    shape (1 <= short_side <= long_side, 1 <= area <= short_side*long_side),
    so no row carries a flag the rule contradicts.
    """

    short_side: int
    long_side: int
    area: int

    def __post_init__(self) -> None:
        # Identity, not equality: a bool or other int subclass is refused.
        short, long, area = self.short_side, self.long_side, self.area
        if not type(short) is type(long) is type(area) is int:
            raise non_integer_fields("short_side, long_side, and area", (short, long, area))
        if not 1 <= short <= long or area < 1 or exceeds_product(area, short, long):
            raise HeronianError(
                "short_side, long_side, and area must satisfy 1 <= short_side <= "
                "long_side and 1 <= area <= short_side*long_side, got "
                f"{value_repr((short, long, area))}"
            )

    @property
    def perimeter(self) -> int:
        """2*(short_side + long_side)."""
        return 2 * (self.short_side + self.long_side)

    @property
    def amicable(self) -> bool:
        """:func:`amicability.is_amicable` of this shape."""
        return is_amicable(self)

    @property
    def self_amicable(self) -> bool:
        """:func:`amicability.is_self_amicable` of this shape."""
        return is_self_amicable(self)

    def to_csv(self) -> str:
        return (
            f"{int_to_decimal(self.short_side)},{int_to_decimal(self.long_side)},"
            f"{int_to_decimal(self.area)},{int_to_decimal(self.perimeter)},"
            f'{"true" if self.amicable else "false"},'
            f'{"true" if self.self_amicable else "false"}'
        )

    def to_json_dict(self) -> dict:
        return {
            "short_side": int_to_decimal(self.short_side),
            "long_side": int_to_decimal(self.long_side),
            "area": int_to_decimal(self.area),
            "perimeter": int_to_decimal(self.perimeter),
            "amicable": self.amicable,
            "self_amicable": self.self_amicable,
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict())``, from one template."""
        return (
            f'{{"short_side": "{int_to_decimal(self.short_side)}", '
            f'"long_side": "{int_to_decimal(self.long_side)}", '
            f'"area": "{int_to_decimal(self.area)}", '
            f'"perimeter": "{int_to_decimal(self.perimeter)}", '
            f'"amicable": {"true" if self.amicable else "false"}, '
            f'"self_amicable": {"true" if self.self_amicable else "false"}}}'
        )


@value_type
class PerimeterCounts:
    """Census tallies for a single perimeter value.

    ``amicable`` includes the self-amicable shapes; ``self_amicable``
    reports them separately so either counting convention can be read off.
    """

    perimeter: int
    total: int
    amicable: int
    self_amicable: int

    def __post_init__(self) -> None:
        # Identity, as in CensusRow: a bool or other int subclass is refused.
        if not (
            type(self.perimeter) is type(self.total) is type(self.amicable)
            is type(self.self_amicable) is int
        ):
            raise non_integer_fields(
                "perimeter, total, amicable, and self_amicable",
                (self.perimeter, self.total, self.amicable, self.self_amicable),
            )


@value_type
class RectanglePair:
    """Two rectangles, each stored as (short side, long side), where the
    area of each equals the perimeter of the other."""

    first: tuple[int, int]
    second: tuple[int, int]

    def __post_init__(self) -> None:
        # Identity tests: a side of "1" or True would print as 1 or True
        # from to_json_text but as "1" or true from json.dumps(to_json_dict()).
        for name in ("first", "second"):
            member = getattr(self, name)
            if type(member) is not tuple:
                raise HeronianError(f"{name} must be a tuple, got {type(member).__name__}")
            if len(member) != 2:
                raise HeronianError(f"{name} must hold two sides, got {len(member)}")
            for side in member:
                require_int(side, "side")

    @property
    def distinct(self) -> bool:
        return self.first != self.second

    def to_json_dict(self) -> dict:
        return {
            "first": list(self.first),
            "second": list(self.second),
            "distinct": self.distinct,
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict())``, from one template."""
        a, b, c, d = map(int_to_decimal, (*self.first, *self.second))
        distinct = "true" if self.distinct else "false"
        return f'{{"first": [{a}, {b}], "second": [{c}, {d}], "distinct": {distinct}}}'


def enumerate_by_perimeter(perimeter: int) -> Iterator[Parallelogram]:
    """Every canonical parallelogram with the given perimeter, once each.

    For each unordered side split a <= s of perimeter/2, every area from 1
    to a*s; ordered by (shorter side, area).  Invalid input raises here,
    not at the first ``next()``.
    """
    require_even_perimeter(perimeter)
    return _shapes_with_perimeter(perimeter)


_prechecked_shape = prechecked(Parallelogram)


def _shapes_with_perimeter(perimeter: int) -> Iterator[Parallelogram]:
    # Valid by construction, so built past the constructor's checks: ints
    # with 1 <= short <= long and 1 <= area <= short*long.
    half = perimeter // 2
    for short in range(1, half // 2 + 1):
        long = half - short
        for area in range(1, short * long + 1):
            yield _prechecked_shape(short, long, area)


def enumerate_by_area(area: int, max_perimeter: int) -> Iterator[Parallelogram]:
    """Every canonical parallelogram with this exact area and perimeter up
    to ``max_perimeter``, ordered by (perimeter, shorter side).  Invalid
    input raises here, not at the first ``next()``."""
    perimeters = perimeters_up_to(max_perimeter)
    require_positive_area(area)
    return _shapes_with_area(area, perimeters)


def _shapes_with_area(area: int, perimeters: range) -> Iterator[Parallelogram]:
    # The short sides that carry the area are the splits of perimeter/2 from
    # the least one with short*long >= area up to the middle.
    for perimeter in perimeters:
        half = perimeter // 2
        for short in range(splits_at_least(half, area).start, half // 2 + 1):
            yield Parallelogram(short, half - short, area)


def census_row(shape: Parallelogram) -> CensusRow:
    return CensusRow(*shape.canonical_key)


def census_rows(perimeter: int) -> Iterator[CensusRow]:
    """Canonical census rows for one perimeter, in enumeration order.

    Like :func:`enumerate_by_perimeter`, raises on a bad perimeter here.
    """
    return map(census_row, enumerate_by_perimeter(perimeter))


def _split_products(half: int, k: int) -> int:
    # Sum of a*(half - a) for a = 1..k: half*k(k+1)/2 - k(k+1)(2k+1)/6.
    return k * (k + 1) * (3 * half - 2 * k - 1) // 6


def perimeter_counts(perimeter: int) -> PerimeterCounts:
    """Census tallies for one perimeter, in closed form, without building a
    shape or walking a side split.

    With h = P/2, the splits a + (h - a) = h for a = 1..m, m = floor(h/2),
    carry the areas 1..a(h - a), so the total is T(m), where
    T(k) = sum of a(h - a) over a = 1..k = k(k+1)(3h - 2k - 1)/6.  The
    amicable areas of a split are the even ones from A0 =
    :func:`least_amicable_area` up, floor(a(h - a)/2) - A0/2 + 1 of them,
    for the splits from a0, the least with a(h - a) >= A0, to m.  Summing,
    the floors lose 1/2 for each odd product, and a(h - a) is odd only for
    odd a when h is even, so with ``odd`` the odd a in [a0, m]:
    amicable = (T(m) - T(a0 - 1) - odd)/2 - (m - a0 + 1)(A0/2 - 1).  The one
    self-amicable area, A = P, lies on the splits from aP, the least with
    a(h - a) >= P, to m: m + 1 - aP of them.  a0 and aP are the starts of
    :func:`core.splits_at_least`; an empty interval starts at m + 1 and
    counts 0.  Raises :class:`InvalidPerimeter` on a bad perimeter.
    """
    require_even_perimeter(perimeter)
    half = perimeter // 2
    middle = half // 2
    least = least_amicable_area(perimeter)
    first = splits_at_least(half, least).start
    total = _split_products(half, middle)
    odd = (middle + 1) // 2 - first // 2 if half % 2 == 0 else 0
    halves = (total - _split_products(half, first - 1) - odd) // 2
    amicable = halves - (middle - first + 1) * (least // 2 - 1)
    self_amicable = middle + 1 - splits_at_least(half, perimeter).start
    return PerimeterCounts(perimeter, total, amicable, self_amicable)


def count_amicable(max_perimeter: int) -> list[PerimeterCounts]:
    """Per-perimeter tallies over every perimeter from 4 to ``max_perimeter``:
    the :func:`perimeter_counts` row of each, O(1) arithmetic per perimeter
    (derived there).  No shape is built and no split is walked.  Its oracle
    is :func:`count_amicable_exhaustive`, which builds every shape and
    decides each one.
    """
    return list(map(perimeter_counts, perimeters_up_to(max_perimeter)))


def count_amicable_exhaustive(max_perimeter: int) -> list[PerimeterCounts]:
    """The same tallies by a plain exhaustive sweep: every canonical shape is
    enumerated and run through :func:`is_amicable` and
    :func:`is_self_amicable`.  The oracle for :func:`count_amicable`.
    """
    table = []
    for perimeter in perimeters_up_to(max_perimeter):
        total = amicable = self_amicable = 0
        for shape in enumerate_by_perimeter(perimeter):
            total += 1
            amicable += is_amicable(shape)
            self_amicable += is_self_amicable(shape)
        table.append(PerimeterCounts(perimeter, total, amicable, self_amicable))
    return table


def non_amicable_witness_area(area: int) -> Parallelogram:
    """A valid Heronian parallelogram with the given area that is not
    amicable.

    The construction picks the shape and :func:`is_amicable` decides it.
    The base is the area.  An odd area takes side 1, the flat strip
    (area, 1, area); an even one takes side max(1, area^2//32 - area + 2),
    which makes the perimeter 2*(area + side) too large for the quadratic
    bound: area^2 < 16*perimeter.  That side is not the least that fails:
    with this base, max(1, area^2//32 - area + 1) already does (area 42:
    side 14, where the witness has side 15), but the witness is kept as it
    has always been.  A shape the rule calls amicable raises
    ``AssertionError``, which ``amigram witness`` reports as exit 2 and the
    one line ``amigram: error: <message>``.
    """
    require_positive_area(area)
    side = 1 if area % 2 else max(1, area * area // 32 - area + 2)
    return _not_amicable(Parallelogram(area, side, area))


def non_amicable_witness_perimeter(perimeter: int) -> Parallelogram:
    """A valid non-amicable Heronian parallelogram with the given perimeter.

    The construction picks (1, perimeter/2 - 1, 1) and :func:`is_amicable`
    decides it, as for :func:`non_amicable_witness_area`: a shape the rule
    calls amicable raises ``AssertionError``, exit 2 in ``amigram witness``.
    """
    require_even_perimeter(perimeter)
    return _not_amicable(Parallelogram(1, perimeter // 2 - 1, 1))


def _not_amicable(shape: Parallelogram) -> Parallelogram:
    # Every witness leaves through the rule, never on its construction alone.
    if is_amicable(shape):
        raise AssertionError(f"witness {shape!r} is amicable")
    return shape


def amicable_rectangle_pairs(max_side: int = 1000) -> list[RectanglePair]:
    """All amicable rectangle pairs with a member whose sides are at most
    ``max_side``, self-pairs included, solved rather than searched.

    Rectangles a x b and c x d (a <= b, c <= d) are amicable when
    c + d = a*b/2 and c*d = 2*(a + b).  Substituting d = a*b/2 - c into the
    second equation gives b*(a*c - 4) = 2*(2*a + c^2), so a*c > 4 and the
    short sides fix b.  They also bound each other: a*b = 2(c + d) <= 4d
    and c*d = 2(a + b) <= 4b multiply to a*c <= 16.  So the 42 pairs (a, c)
    with 4 < a*c <= 16 give every amicable pair there is, and the list is
    complete for every ``max_side``: a candidate is kept when b is an
    integer >= a, a*b is even and d = a*b/2 - c >= c (c*d = 2(a + b) then
    follows), and some member's long side is at most ``max_side``.  Its
    oracle is :func:`amicable_rectangle_pairs_exhaustive`.  The pairs come
    sorted by member, which lists every distinct pair (first short side 1
    or 2) before the two self-pairs (3 x 6 and 4 x 4).
    """
    require_int(max_side, "max_side")
    found = set()
    for a in range(1, 17):
        for c in range(4 // a + 1, 16 // a + 1):
            b, rest = divmod(2 * (2 * a + c * c), a * c - 4)
            d = a * b // 2 - c
            if not rest and b >= a and not a * b % 2 and c <= d and min(b, d) <= max_side:
                found.add(tuple(sorted([(a, b), (c, d)])))
    return [RectanglePair(first, second) for first, second in sorted(found)]


def amicable_rectangle_pairs_exhaustive(max_side: int = 1000) -> list[RectanglePair]:
    """The same pairs by brute force over every first member a x b with
    a <= b <= ``max_side``: the partner's sides c and d are the integer
    roots of x^2 - (a*b/2)x + 2(a + b), solved exactly.  The oracle for
    :func:`amicable_rectangle_pairs`."""
    require_int(max_side, "max_side")
    found = set()
    for a in range(1, max_side + 1):
        for b in range(a, max_side + 1):
            if (a * b) % 2:
                continue
            side_sum = a * b // 2
            disc = side_sum * side_sum - 8 * (a + b)
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc:
                continue
            # root^2 = disc = side_sum^2 - 8(a + b) makes root < side_sum and
            # of its parity, so c below is an integer >= 1.
            c = (side_sum - root) // 2
            d = (side_sum + root) // 2
            found.add(tuple(sorted([(a, b), (c, d)])))
    return [RectanglePair(first, second) for first, second in sorted(found)]


def smallest_amicable() -> Parallelogram:
    """The amicable parallelogram minimizing (perimeter, area, shorter
    side), found by sweeping perimeters from 4 upward.

    The least amicable area at a perimeter is A0, carried first by the
    least split a0 with a0*(h - a0) >= A0, so the answer is
    (a0, h - a0, A0) at the first perimeter where a0 <= floor(h/2).
    """
    for perimeter in count(4, 2):  # endless: it returns at perimeter 16
        half = perimeter // 2
        least = least_amicable_area(perimeter)
        for short in splits_at_least(half, least):  # a0, if any split reaches A0
            return Parallelogram(short, half - short, least)
