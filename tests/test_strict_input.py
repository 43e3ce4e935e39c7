"""Library constructors reject malformed or oversized input as HeronianError."""

from decimal import Decimal
from fractions import Fraction

import pytest

from amigram import (
    HeronianError,
    NonIntegerArea,
    NonIntegerDimension,
    Parallelogram,
    SideTooShort,
    ZeroDimension,
    classify_invariants,
    companion_base_range,
    companion_bases_exhaustive,
    companion_exists_bruteforce,
    companion_from_invariants,
    decide,
    enumerate_by_area,
    enumerate_by_perimeter,
    exists_heronian_with,
    int_to_decimal,
    is_amicable_invariants,
    non_amicable_witness_area,
    non_amicable_witness_perimeter,
)
from amigram.census import (
    amicable_rectangle_pairs,
    amicable_rectangle_pairs_exhaustive,
    count_amicable,
    count_amicable_exhaustive,
    perimeter_counts,
)
from amigram.core import perimeters_up_to, require_even_perimeter

SHAPE = {"base": "8", "side": "13", "area": "26"}


class TestStrictJson:
    def test_loose_fields_rejected(self):
        with pytest.raises(HeronianError):
            Parallelogram.from_json_dict({"base": 7.9, "side": " 6 ", "area": "4_2"})

    @pytest.mark.parametrize(
        "value",
        [7.9, 8.0, True, None, [8], " 8", "8 ", "4_2", "+8", "", "-", "1e3", "0x8",
         "٨", "8" * 5000 + "x"],
        ids=lambda value: repr(value)[:12],
    )
    def test_bad_base_rejected(self, value):
        with pytest.raises(HeronianError, match="'base'"):
            Parallelogram.from_json_dict({**SHAPE, "base": value})

    def test_missing_field_rejected(self):
        with pytest.raises(HeronianError, match="'side'"):
            Parallelogram.from_json_dict({"base": "8", "area": "26"})

    def test_plain_ints_and_digit_strings_accepted(self):
        assert Parallelogram.from_json_dict(
            {"base": 8, "side": "13", "area": 26, "height": {"num": 13, "den": "4"}}
        ) == Parallelogram(8, 13, 26)

    def test_minus_sign_parses_then_fails_validation(self):
        with pytest.raises(ZeroDimension):
            Parallelogram.from_json_dict({**SHAPE, "base": "-8"})

    @pytest.mark.parametrize(
        "height",
        [
            {"num": "13", "den": "0"},
            {"num": "26", "den": "8"},
            {"num": "-13", "den": "-4"},
            {"num": "13"},
            {"num": "13", "den": 4.0},
            "13/4",
            None,
        ],
    )
    def test_bad_height_rejected(self, height):
        with pytest.raises(HeronianError):
            Parallelogram.from_json_dict({**SHAPE, "height": height})


class TestBigIntegerMessages:
    def test_zero_height(self):
        with pytest.raises(ZeroDimension) as exc:
            Parallelogram.from_base_height_side(10**5000, 0, 1)
        assert int_to_decimal(10**5000) in str(exc.value)

    def test_side_too_short(self):
        with pytest.raises(SideTooShort) as exc:
            Parallelogram.from_base_height_side(1, 10**5000, 1)
        assert str(exc.value).endswith("height " + int_to_decimal(10**5000))

    def test_non_integer_area(self):
        with pytest.raises(NonIntegerArea) as exc:
            Parallelogram.from_base_height_side(3, Fraction(1, 10**5000), 3)
        assert str(exc.value) == (
            f"base*height = 3/{int_to_decimal(10**5000)} is not an integer"
        )

    @pytest.mark.parametrize(
        "args,error,message",
        [
            ((4, 0, 4), ZeroDimension, "base, side, and height must be positive, got (4, 0, 4)"),
            ((3, Fraction(5, 2), 2), SideTooShort, "side 2 is shorter than height 5/2"),
            ((4, Fraction(3, 8), 4), NonIntegerArea, "base*height = 3/2 is not an integer"),
        ],
        ids=["zero-height", "side-too-short", "non-integer-area"],
    )
    def test_small_messages_unchanged(self, args, error, message):
        with pytest.raises(error) as exc:
            Parallelogram.from_base_height_side(*args)
        assert str(exc.value) == message


class TestFromBaseHeightSideTypes:
    """Base and side must be ints and the height an int or a Fraction, bools
    refused, before any arithmetic runs on them."""

    @pytest.mark.parametrize(
        "args,message",
        [
            ((8.0, Fraction(13, 4), 13), "base must be an int, got float"),
            (("8", 1, 1), "base must be an int, got str"),
            ((True, 1, 1), "base must be an int, got bool"),
            ((8, Fraction(13, 4), 13.0), "side must be an int, got float"),
            ((8, Fraction(13, 4), False), "side must be an int, got bool"),
            ((8, 3.25, 13), "height must be an int or a Fraction, got float"),
            ((8, True, 13), "height must be an int or a Fraction, got bool"),
            ((8, "13/4", 13), "height must be an int or a Fraction, got str"),
            ((8, Decimal("3.25"), 13), "height must be an int or a Fraction, got Decimal"),
            ((8, None, 13), "height must be an int or a Fraction, got NoneType"),
        ],
        ids=lambda value: repr(value)[:24],
    )
    def test_refused(self, args, message):
        with pytest.raises(NonIntegerDimension) as exc:
            Parallelogram.from_base_height_side(*args)
        assert str(exc.value) == message

    def test_int_and_fraction_heights_accepted(self):
        assert Parallelogram.from_base_height_side(8, Fraction(13, 4), 13) == (
            Parallelogram(8, 13, 26)
        )
        assert Parallelogram.from_base_height_side(8, 3, 13) == Parallelogram(8, 13, 24)


class TestNonIntInvariants:
    """Every (area, perimeter) entry point refuses a non-int argument, bools
    included, before it can give a verdict or fail with a bare TypeError."""

    @pytest.mark.parametrize(
        "function,args",
        [
            (decide, (42.5, 26)),
            (decide, (42, "26")),
            (decide, (True, 26)),
            (is_amicable_invariants, (42.0, 26.0)),
            (classify_invariants, (42.0, 26)),
            (companion_from_invariants, (42, 26.0)),
            (companion_exists_bruteforce, (42, 26.0)),
            (companion_exists_bruteforce, (42.0, 26)),
            (companion_bases_exhaustive, (42.0, 26)),
            (companion_base_range, (42, 26.0)),
            (exists_heronian_with, ("42", 26)),
            (exists_heronian_with, (42, True)),
            (count_amicable, (8.0,)),
            (perimeter_counts, (8.0,)),
            (enumerate_by_perimeter, (8.0,)),
            (enumerate_by_area, (4.0, 8)),
            (non_amicable_witness_area, (4.0,)),
            (non_amicable_witness_perimeter, (False,)),
            (amicable_rectangle_pairs, (2.5,)),
            (amicable_rectangle_pairs, (True,)),
            (amicable_rectangle_pairs_exhaustive, ("16",)),
            (amicable_rectangle_pairs_exhaustive, (True,)),
        ],
        ids=lambda value: getattr(value, "__name__", repr(value)),
    )
    def test_refused(self, function, args):
        with pytest.raises(NonIntegerDimension, match=r"must be an int, got \w+$"):
            function(*args)


@pytest.mark.parametrize("max_side", [0, -1, -(10**30)])
@pytest.mark.parametrize("function", [amicable_rectangle_pairs, amicable_rectangle_pairs_exhaustive])
def test_rectangle_pairs_below_one_side_are_none(function, max_side):
    assert function(max_side) == []


@pytest.mark.parametrize("perimeter", [7, 2, 41, 0, True, 8.0])
@pytest.mark.parametrize(
    "function",
    [
        perimeter_counts,
        count_amicable,
        count_amicable_exhaustive,
        # A bad area too: the perimeter is checked first.
        lambda max_perimeter: enumerate_by_area(0, max_perimeter),
        perimeters_up_to,
    ],
    ids=[
        "perimeter_counts",
        "count_amicable",
        "count_amicable_exhaustive",
        "enumerate_by_area",
        "perimeters_up_to",
    ],
)
def test_bad_perimeter_is_refused_as_require_even_perimeter_does(function, perimeter):
    with pytest.raises(HeronianError) as expected:
        require_even_perimeter(perimeter)
    with pytest.raises(HeronianError) as exc:
        function(perimeter)
    assert exc.type is expected.type
    assert str(exc.value) == str(expected.value)
