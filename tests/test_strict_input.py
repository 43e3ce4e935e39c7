"""Library constructors reject malformed or oversized input as HeronianError."""

from fractions import Fraction

import pytest

from amigram import (
    HeronianError,
    NonIntegerArea,
    Parallelogram,
    SideTooShort,
    ZeroDimension,
    int_to_decimal,
)

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
