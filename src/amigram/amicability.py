"""Amicability of Heronian parallelograms.

Two polygons are amicable when the area of each equals the perimeter of the
other.  For a Heronian parallelogram the decision depends only on its own
area A and perimeter P: a companion exists exactly when A is even and
A*A >= 16*P.

Why: a companion must have perimeter A and area P, so its base b and side u
satisfy b + u = A/2 (forcing A even) and, since a parallelogram's side is at
least its height P/b, the quadratic bound b*(A/2 - b) >= P.  The product
b*(A/2 - b) peaks at b = A/4 with value (A/4)^2, giving the closed form; an
integer b at or next to the peak always works when the closed form holds,
which is how :func:`companion_from_invariants` builds its witness.  The
bases that work form one interval around the peak:
:func:`companion_base_range` reads it off :func:`core.splits_at_least`,
the one place that interval is solved.

:func:`closed_form` is the one place that rule is written, for a positive
int area and a checked perimeter, and this module is the only one that
binds it or :func:`companion_scan`: a census row asks :func:`is_amicable`.
:func:`least_amicable_area` solves the rule for the least area A0 it
passes at a perimeter, the threshold a census counts from.
:func:`decide` is its checked entry: it refuses a bad perimeter, then a
bad area, then returns the rule.  Routes on checked data call the rule
directly: :func:`classify`,
:func:`is_amicable`, :func:`companion` and :func:`all_companion_bases`,
whose shape the ``Parallelogram`` constructor validated, and
:func:`classify_invariants` once :func:`exists_heronian_with` has passed
both arguments.

:func:`companion_exists_bruteforce` runs the same existence question as a
literal exhaustive scan over every candidate base, deliberately ignoring the
closed form, so the two routes can be played against each other on any
finite grid.  :func:`companion_scan` is that scan for a perimeter already
checked, so a grid row checks its perimeter once, not once per cell:
:func:`verify_row` is that row, the cells of ``amigram verify``.
Likewise :func:`companion_bases_exhaustive` is the literal scan that
:func:`companion_base_range` replaces; it stays as the oracle.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt

from .core import (
    HeronianError,
    Parallelogram,
    exceeds_product,
    int_to_decimal,
    prechecked,
    require_even_perimeter,
    require_int,
    require_positive_area,
    splits_at_least,
    value_type,
)


class Reason(Enum):
    """Why a parallelogram is or is not amicable."""

    ODD_AREA = "ODD_AREA"
    BOUND_FAIL = "BOUND_FAIL"
    OK = "OK"


# Looking a member up on an Enum class costs a Python-level call, which shows
# on the per-cell paths below, so they read these module globals instead.
_ODD_AREA, _BOUND_FAIL, _OK = Reason.ODD_AREA, Reason.BOUND_FAIL, Reason.OK


class NotAmicable(HeronianError):
    """Companion requested for a parallelogram that has none."""

    def __init__(self, reason: Reason, message: str):
        super().__init__(message)
        self.reason = reason


@value_type
class Verdict:
    """Amicability decision with a machine-checkable reason.

    ``amicable`` is true iff ``reason`` is OK iff ``companion`` is present,
    and the fields are a bool, a :class:`Reason` and a ``Parallelogram``
    or None; any other triple is refused.
    """

    amicable: bool
    reason: Reason
    companion: Parallelogram | None

    def __post_init__(self) -> None:
        # Identity, not equality, so that amicable is a bool and not 1 or 0,
        # which to_json_dict would print as a number, and the reason is a
        # Reason, whose value both wire methods print.
        amicable, reason, companion = self.amicable, self.reason, self.companion
        if not (
            amicable is True and type(companion) is Parallelogram
            if reason is _OK
            else amicable is False and companion is None and type(reason) is Reason
        ):
            raise HeronianError(f"inconsistent verdict: {self!r}")

    def to_json_dict(self) -> dict:
        return {
            "amicable": self.amicable,
            "reason": self.reason.value,
            "companion": None
            if self.companion is None
            else self.companion.to_json_dict(),
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict())``, from one template."""
        companion = "null" if self.companion is None else self.companion.to_json_text()
        amicable = "true" if self.amicable else "false"
        return (
            f'{{"amicable": {amicable}, "reason": "{self.reason.value}", '
            f'"companion": {companion}}}'
        )


_prechecked_verdict = prechecked(Verdict)


def closed_form(area: int, perimeter: int) -> Reason:
    """The closed form, written in one place: ODD_AREA, BOUND_FAIL or OK.

    Pure integer arithmetic: area even and area^2 >= 16*perimeter.  Checks
    nothing: the area must be a positive int and the perimeter an even int
    >= 4, as :func:`decide` makes sure.
    """
    if area % 2:
        return _ODD_AREA
    if area * area < 16 * perimeter:
        return _BOUND_FAIL
    return _OK


def least_amicable_area(perimeter: int) -> int:
    """A0, the least area that :func:`closed_form` passes at this perimeter.

    The least even A = 2k with A^2 >= 16*P has k^2 >= 4*P, so
    k = ceil(sqrt(4*P)) = isqrt(4*P - 1) + 1; every even area from A0 up
    is amicable and none below it.  Checks nothing: the perimeter must be
    an even int >= 4.
    """
    return 2 * (isqrt(4 * perimeter - 1) + 1)


def decide(area: int, perimeter: int) -> Reason:
    """The closed form on unchecked data: checks both arguments, then
    returns :func:`closed_form`.

    Checks the perimeter, then the area: raises :class:`InvalidPerimeter`
    for perimeters no parallelogram can have, :class:`ZeroDimension` for an
    area below 1 and :class:`NonIntegerDimension` for an argument that is
    not an int.  It does not check that some shape has this area and
    perimeter (see :func:`exists_heronian_with`).
    """
    require_even_perimeter(perimeter)
    require_positive_area(area)
    return closed_form(area, perimeter)


def is_amicable_invariants(area: int, perimeter: int) -> bool:
    """Closed-form amicability test on an (area, perimeter) pair."""
    return decide(area, perimeter) is _OK


def is_amicable(shape: Parallelogram) -> bool:
    """True iff the parallelogram belongs to an amicable pair.

    Reads only ``area`` and ``perimeter``, so a ``census.CensusRow`` asks it
    too.  The constructor has checked the shape, so this runs the bare rule.
    """
    return closed_form(shape.area, shape.perimeter) is _OK


# Refusals carry no companion, so one verdict per reason serves every call.
_ODD_AREA_VERDICT = Verdict(False, _ODD_AREA, None)
_BOUND_FAIL_VERDICT = Verdict(False, _BOUND_FAIL, None)


def _verdict(area: int, perimeter: int) -> Verdict:
    """Verdict for an int area and a checked perimeter."""
    reason = closed_form(area, perimeter)
    if reason is _OK:
        # Consistent by construction: True, OK and the companion the checked
        # constructor has just built, so the verdict skips its own check.
        return _prechecked_verdict(True, _OK, _build_companion(area, perimeter))
    return _ODD_AREA_VERDICT if reason is _ODD_AREA else _BOUND_FAIL_VERDICT


def classify_invariants(area: int, perimeter: int) -> Verdict:
    """Full verdict for an (area, perimeter) pair, companion included.

    Raises :class:`HeronianError` when no Heronian parallelogram has this
    area and perimeter, so no verdict is given on impossible data.
    """
    if not exists_heronian_with(area, perimeter):
        require_even_perimeter(perimeter)  # a bad perimeter is named as such
        raise HeronianError(
            f"no Heronian parallelogram has area {int_to_decimal(area)} "
            f"and perimeter {int_to_decimal(perimeter)}"
        )
    # exists_heronian_with has passed an int area and an even perimeter >= 4.
    return _verdict(area, perimeter)


def classify(shape: Parallelogram) -> Verdict:
    """Full verdict for a parallelogram, companion included.

    The constructor has checked the shape, so this runs the bare rule.
    """
    return _verdict(shape.area, shape.perimeter)


def _build_companion(area: int, perimeter: int) -> Parallelogram:
    # Base ceil(area/4), the integer at or next to the peak of b*(area/2 - b).
    base = (area + 3) // 4
    return Parallelogram(base, area // 2 - base, perimeter)


def companion_from_invariants(area: int, perimeter: int) -> Parallelogram:
    """Deterministic companion for an amicable (area, perimeter) pair.

    The companion base is area/4 when that is an integer, else the next
    integer up; its side is area/2 - base and its area is the perimeter.
    The constructor's own check perimeter <= base*side is exactly the
    quadratic bound, i.e. the side spans the height perimeter/base, and it
    stays exact at any size, where it is settled by bit length.
    Raises :class:`NotAmicable` when no companion exists.
    """
    return _companion(decide(area, perimeter), area, perimeter)


def companion(shape: Parallelogram) -> Parallelogram:
    """Deterministic amicable companion of ``shape``.

    Raises :class:`NotAmicable` when ``shape`` is not amicable.  Companions
    are generally not unique; :func:`all_companion_bases` lists every base
    that would do.  The constructor has checked the shape, so this runs the
    bare rule.
    """
    area, perimeter = shape.area, shape.perimeter
    return _companion(closed_form(area, perimeter), area, perimeter)


def _companion(reason: Reason, area: int, perimeter: int) -> Parallelogram:
    """The companion when the rule's ``reason`` is OK, else the refusal
    naming why."""
    if reason is _OK:
        return _build_companion(area, perimeter)
    if reason is _ODD_AREA:
        raise NotAmicable(reason, f"area {int_to_decimal(area)} is odd")
    raise NotAmicable(
        reason,
        f"area^2 < 16*perimeter for area {int_to_decimal(area)} "
        f"and perimeter {int_to_decimal(perimeter)}",
    )


def verify_pair(first: Parallelogram, second: Parallelogram) -> bool:
    """True iff the two shapes are amicable partners of each other."""
    return (
        first.area == second.perimeter and second.area == first.perimeter
    )


def companion_exists_bruteforce(area: int, perimeter: int) -> bool:
    """Exhaustive companion search, independent of the closed form.

    Checks both arguments, then runs :func:`companion_scan`.
    """
    require_even_perimeter(perimeter)
    require_positive_area(area)
    return companion_scan(area, perimeter)


def companion_scan(area: int, perimeter: int) -> bool:
    """The literal base scan, for a positive int area and a checked perimeter.

    Tries every integer base b = 1, 2, ..., area/2 - 1 in order; the
    matching side is area/2 - b and the companion needs area ``perimeter``,
    which fits iff b*(area/2 - b) >= perimeter.  Odd areas fail outright
    because the companion's perimeter 2*(b + u) is always even.  Steps b
    by hand: most even cells fit at b = 1, where building a ``range``
    would cost more than the scan.
    """
    if area % 2:
        return False
    half = area // 2
    b = 1
    while b < half:
        if b * (half - b) >= perimeter:
            return True
        b += 1
    return False


def verify_row(perimeter: int) -> tuple[int, list[tuple[int, int]]]:
    """Grid row for one perimeter: (cells, disagreeing areas).

    The perimeter is checked once here and every area is an int, so each
    cell is the two bare calls, closed form then brute-force scan, and
    nothing else.
    """
    require_even_perimeter(perimeter)
    half = perimeter // 2
    cells = (half // 2) * ((half + 1) // 2)
    disagreements = []
    for area in range(1, cells + 1):
        # Both sides are bools, so identity is equality.
        if (closed_form(area, perimeter) is _OK) is not companion_scan(area, perimeter):
            disagreements.append((area, perimeter))
    return cells, disagreements


def companion_base_range(area: int, perimeter: int) -> range:
    """Every companion base for an (area, perimeter) pair, as a range.

    The bases are the integers b with b*(area/2 - b) >= perimeter, the
    splits of area/2 that :func:`core.splits_at_least` returns: one
    interval symmetric about area/4, exact at any size.  Empty iff not
    amicable.
    """
    if decide(area, perimeter) is not _OK:
        return range(0)
    return splits_at_least(area // 2, perimeter)


def companion_bases_exhaustive(area: int, perimeter: int) -> list[int]:
    """Every companion base by a literal scan of [1, area/2 - 1].

    The O(area) oracle for :func:`companion_base_range`.
    """
    require_even_perimeter(perimeter)
    require_positive_area(area)
    if area % 2:
        return []
    half = area // 2
    return [b for b in range(1, half) if b * (half - b) >= perimeter]


def all_companion_bases(shape: Parallelogram) -> list[int]:
    """Every companion base for ``shape``, ascending; empty iff not amicable.

    Each listed b yields a valid companion with height perimeter/b and side
    area/2 - b.  The constructor has checked the shape, so this runs the
    bare rule.  A shape with more bases than a list can hold raises
    :class:`HeronianError`; :func:`companion_base_range` gives them at any
    size.
    """
    area, perimeter = shape.area, shape.perimeter
    if closed_form(area, perimeter) is not _OK:
        return []
    bases = splits_at_least(area // 2, perimeter)
    try:
        return list(bases)
    except OverflowError:  # the range's length is past sys.maxsize
        raise HeronianError(
            "too many companion bases for a list; "
            "companion_base_range(area, perimeter) gives them as a range"
        ) from None


def is_self_amicable(shape: Parallelogram) -> bool:
    """True iff the shape pairs with itself (area equals own perimeter).

    Reads only ``area`` and ``perimeter``, as :func:`is_amicable` does.
    """
    return shape.area == shape.perimeter


def exists_heronian_with(area: int, perimeter: int) -> bool:
    """Is any Heronian parallelogram with this area and perimeter possible?

    Needs an even perimeter >= 4 and area at most the largest product of
    two sides summing to perimeter/2, i.e. floor(P/4)*ceil(P/4), a bound
    settled by bit length at any size (see :func:`core.exceeds_product`).
    Raises :class:`NonIntegerDimension` for an argument that is not an int.
    """
    require_int(area, "area")
    require_int(perimeter, "perimeter")
    if perimeter < 4 or perimeter % 2:
        return False
    half = perimeter // 2
    return area >= 1 and not exceeds_product(area, half // 2, (half + 1) // 2)
