"""Exhaustive enumeration and small censuses of Heronian parallelograms.

Enumeration is canonical: each shape appears once, as its unordered side
pair plus area, and streams are emitted in a fixed order so text output is
byte-stable.  The module also builds non-amicable witnesses for any target
area or perimeter, and re-derives from scratch the amicable rectangle
pairs (rectangles where the area of each equals the perimeter of the
other) by bounded brute force.

The census and the rectangle search each have a fast route and keep the
literal search they replaced (:func:`count_amicable_exhaustive`,
:func:`amicable_rectangle_pairs_exhaustive`) as its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import isqrt
from typing import Iterator

from .amicability import Reason, closed_form, is_amicable_invariants, is_self_amicable
from .core import (
    Parallelogram,
    int_to_decimal,
    rebind_frozen_slots,
    require_even_perimeter,
    require_int,
    require_positive_area,
    splits_at_least,
)

CSV_HEADER = "short_side,long_side,area,perimeter,amicable,self_amicable"
_OK = Reason.OK


@rebind_frozen_slots
@dataclass(frozen=True, slots=True)
class CensusRow:
    """One canonical parallelogram with its amicability flags."""

    short_side: int
    long_side: int
    area: int
    perimeter: int
    amicable: bool
    self_amicable: bool

    def to_csv(self) -> str:
        return (
            f"{int_to_decimal(self.short_side)},{int_to_decimal(self.long_side)},"
            f"{int_to_decimal(self.area)},{int_to_decimal(self.perimeter)},"
            f"{str(self.amicable).lower()},{str(self.self_amicable).lower()}"
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


@rebind_frozen_slots
@dataclass(frozen=True, slots=True)
class PerimeterCounts:
    """Census tallies for a single perimeter value.

    ``amicable`` includes the self-amicable shapes; ``self_amicable``
    reports them separately so either counting convention can be read off.
    """

    perimeter: int
    total: int
    amicable: int
    self_amicable: int


@dataclass(frozen=True)
class RectanglePair:
    """Two rectangles, each stored as (short side, long side), where the
    area of each equals the perimeter of the other."""

    first: tuple[int, int]
    second: tuple[int, int]

    @property
    def distinct(self) -> bool:
        return self.first != self.second

    def to_json_dict(self) -> dict:
        return {
            "first": list(self.first),
            "second": list(self.second),
            "distinct": self.distinct,
        }


def enumerate_by_perimeter(perimeter: int) -> Iterator[Parallelogram]:
    """Every canonical parallelogram with the given perimeter, once each.

    For each unordered side split a <= s of perimeter/2, every area from 1
    to a*s; ordered by (shorter side, area).  Invalid input raises here,
    not at the first ``next()``.
    """
    require_even_perimeter(perimeter)
    return _shapes_with_perimeter(perimeter)


def _shapes_with_perimeter(perimeter: int) -> Iterator[Parallelogram]:
    half = perimeter // 2
    for short in range(1, half // 2 + 1):
        long = half - short
        for area in range(1, short * long + 1):
            yield Parallelogram(short, long, area)


def enumerate_by_area(area: int, max_perimeter: int) -> Iterator[Parallelogram]:
    """Every canonical parallelogram with this exact area and perimeter up
    to ``max_perimeter``, ordered by (perimeter, shorter side).  Invalid
    input raises here, not at the first ``next()``."""
    require_even_perimeter(max_perimeter)
    require_positive_area(area)
    return _shapes_with_area(area, max_perimeter)


def _shapes_with_area(area: int, max_perimeter: int) -> Iterator[Parallelogram]:
    # The short sides that carry the area are the splits of perimeter/2 from
    # the least one with short*long >= area up to the middle.
    for perimeter in range(4, max_perimeter + 1, 2):
        half = perimeter // 2
        for short in range(splits_at_least(half, area).start, half // 2 + 1):
            yield Parallelogram(short, half - short, area)


def census_row(shape: Parallelogram) -> CensusRow:
    # The constructor has checked the shape, so the bare rule decides it.
    key = shape.canonical_key
    area = shape.area
    perimeter = shape.perimeter
    return CensusRow(
        key.short_side,
        key.long_side,
        area,
        perimeter,
        closed_form(area, perimeter) is _OK,
        is_self_amicable(shape),
    )


def census_rows(perimeter: int) -> Iterator[CensusRow]:
    """Canonical census rows for one perimeter, in enumeration order.

    Like :func:`enumerate_by_perimeter`, raises on a bad perimeter here.
    """
    return map(census_row, enumerate_by_perimeter(perimeter))


def count_amicable(max_perimeter: int) -> list[PerimeterCounts]:
    """Per-perimeter tallies over every perimeter from 4 to ``max_perimeter``.

    Counted in closed form, one side split a + s = P/2 at a time, without
    building any shape.  The split has areas 1..a*s.  The amicable ones are
    the even areas from A0 up, where A0 is the least even A with
    A^2 >= 16*P: floor(a*s/2) - A0/2 + 1 of them when a*s >= A0.  The one
    self-amicable area, A = P, occurs iff a*s >= P.
    """
    require_even_perimeter(max_perimeter)
    table = []
    for perimeter in range(4, max_perimeter + 1, 2):
        half = perimeter // 2
        least = isqrt(16 * perimeter - 1) + 1  # least A with A^2 >= 16*P
        least += least % 2
        total = amicable = self_amicable = 0
        for short in range(1, half // 2 + 1):
            top = short * (half - short)
            total += top
            if top >= least:
                amicable += top // 2 - least // 2 + 1
            self_amicable += top >= perimeter
        table.append(PerimeterCounts(perimeter, total, amicable, self_amicable))
    return table


def count_amicable_exhaustive(max_perimeter: int) -> list[PerimeterCounts]:
    """The same tallies by a plain exhaustive sweep: every canonical shape is
    enumerated and run through the amicability test.  The oracle for
    :func:`count_amicable`.
    """
    require_even_perimeter(max_perimeter)
    table = []
    for perimeter in range(4, max_perimeter + 1, 2):
        total = amicable = self_amicable = 0
        for row in census_rows(perimeter):
            total += 1
            amicable += row.amicable
            self_amicable += row.self_amicable
        table.append(PerimeterCounts(perimeter, total, amicable, self_amicable))
    return table


def non_amicable_witness_area(area: int) -> Parallelogram:
    """A valid Heronian parallelogram with the given area that is not
    amicable.

    Odd areas fail on parity alone, so the flat strip (area, 1, area)
    works.  For even areas the base is the area and the side is
    max(1, area^2//32 - area + 2), which makes the perimeter
    2*(area + side) too large for the quadratic bound: area^2 <
    16*perimeter.  That side is not the least that fails: with this base,
    max(1, area^2//32 - area + 1) already does (area 42: side 14, where
    the witness has side 15), but the witness is kept as it has always
    been.  The failure is re-checked here rather than trusted.
    """
    require_positive_area(area)
    if area % 2:
        return Parallelogram(area, 1, area)
    side = max(1, area * area // 32 - area + 2)
    shape = Parallelogram(area, side, area)
    if is_amicable_invariants(area, shape.perimeter):
        raise AssertionError(f"witness for area {int_to_decimal(area)} is amicable")
    return shape


def non_amicable_witness_perimeter(perimeter: int) -> Parallelogram:
    """A valid non-amicable Heronian parallelogram with the given perimeter.

    (1, perimeter/2 - 1, 1) has odd area, which already rules amicability
    out.
    """
    require_even_perimeter(perimeter)
    return Parallelogram(1, perimeter // 2 - 1, 1)


# a*c <= 16 for the shorter sides of a pair (see amicable_rectangle_pairs),
# and c >= 1 leaves a <= 16.
_MAX_SHORT_SIDE = 16


def amicable_rectangle_pairs(max_side: int = 1000) -> list[RectanglePair]:
    """All amicable rectangle pairs with a member whose sides are at most
    ``max_side``, self-pairs included.

    For a first rectangle a x b, a partner c x d must satisfy
    c + d = a*b/2 and c*d = 2*(a + b), so c and d are the integer roots of
    x^2 - (a*b/2)x + 2(a+b), solved exactly.  Multiplying the two equations
    and using a + b <= 2b, c + d <= 2d shows the shorter sides satisfy
    a*c <= 16, so only first members with a <= 16 are tried, which finds
    the same pairs as :func:`amicable_rectangle_pairs_exhaustive`.  The
    default bound is generous: back-substitution keeps the longer sides far
    below 1000, and raising the bound is expected to change nothing.
    """
    return _rectangle_pairs(_MAX_SHORT_SIDE, max_side)


def amicable_rectangle_pairs_exhaustive(max_side: int = 1000) -> list[RectanglePair]:
    """The same pairs by brute force over every first member with sides up
    to ``max_side``.  The oracle for :func:`amicable_rectangle_pairs`."""
    return _rectangle_pairs(max_side, max_side)


def _rectangle_pairs(max_short: int, max_side: int) -> list[RectanglePair]:
    """Pairs found from first members a x b, a <= max_short, a <= b <= max_side."""
    require_int(max_side, "max_side")
    found: dict[tuple, RectanglePair] = {}
    for a in range(1, min(max_short, max_side) + 1):
        for b in range(a, max_side + 1):
            if (a * b) % 2:
                continue
            side_sum = a * b // 2
            disc = side_sum * side_sum - 8 * (a + b)
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc or (side_sum - root) % 2:
                continue
            c = (side_sum - root) // 2
            if c < 1:
                continue
            d = (side_sum + root) // 2
            key = tuple(sorted([(a, b), (c, d)]))
            found.setdefault(key, RectanglePair(key[0], key[1]))
    return sorted(found.values(), key=lambda pair: (pair.first, pair.second))


def smallest_amicable() -> Parallelogram:
    """The amicable parallelogram minimizing (perimeter, area, shorter
    side), found by sweeping perimeters from 4 upward."""
    for perimeter in count(4, 2):
        hits = [
            shape
            for shape in enumerate_by_perimeter(perimeter)
            if closed_form(shape.area, perimeter) is _OK
        ]
        if hits:
            return min(hits, key=lambda shape: (shape.area, shape.base))
    raise AssertionError("unreachable")
