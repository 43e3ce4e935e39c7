import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amigram import (
    AreaOutOfRange,
    CanonicalKey,
    HeronianError,
    NonIntegerArea,
    NonIntegerDimension,
    Parallelogram,
    SideTooShort,
    ZeroDimension,
    decimal_to_int,
    fib,
    int_to_decimal,
)
from amigram.core import perimeters_up_to


class TestConstructFromBaseSideArea:
    def test_rectangle_boundary(self):
        p = Parallelogram(7, 6, 42)
        assert (p.base, p.side, p.area) == (7, 6, 42)
        assert p.height == 6

    def test_sheared_shape_has_rational_height(self):
        # height 26/8 reduced
        p = Parallelogram(8, 13, 26)
        assert p.height == Fraction(13, 4)

    def test_area_above_base_times_side_rejected(self):
        with pytest.raises(AreaOutOfRange):
            Parallelogram(2, 3, 7)

    @pytest.mark.parametrize("triple", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (3, -1, 2)])
    def test_degenerate_dimensions_rejected(self, triple):
        with pytest.raises(ZeroDimension):
            Parallelogram(*triple)


class TestConstructFromBaseHeightSide:
    def test_rational_height(self):
        p = Parallelogram.from_base_height_side(11, Fraction(26, 11), 10)
        assert p == Parallelogram(11, 10, 26)

    def test_integer_height_square(self):
        p = Parallelogram.from_base_height_side(4, 4, 4)
        assert p == Parallelogram(4, 4, 16)

    def test_side_shorter_than_height_rejected(self):
        with pytest.raises(SideTooShort):
            Parallelogram.from_base_height_side(3, Fraction(5, 2), 2)

    def test_fractional_area_rejected(self):
        with pytest.raises(NonIntegerArea):
            Parallelogram.from_base_height_side(4, Fraction(3, 8), 4)

    def test_nonpositive_height_rejected(self):
        with pytest.raises(ZeroDimension):
            Parallelogram.from_base_height_side(4, 0, 4)


class TestDerivedQuantities:
    @pytest.mark.parametrize(
        "triple,perimeter",
        [((7, 6, 42), 26), ((8, 13, 26), 42), ((1, 1, 1), 4)],
    )
    def test_perimeter(self, triple, perimeter):
        assert Parallelogram(*triple).perimeter == perimeter

    @pytest.mark.parametrize(
        "max_perimeter,perimeters",
        [(4, range(4, 5, 2)), (10, range(4, 11, 2))],
    )
    def test_perimeters_up_to(self, max_perimeter, perimeters):
        assert perimeters_up_to(max_perimeter) == perimeters

    @pytest.mark.parametrize(
        "triple,height",
        [
            ((8, 13, 26), Fraction(13, 4)),
            ((7, 6, 42), 6),
            ((11, 10, 26), Fraction(26, 11)),
        ],
    )
    def test_height(self, triple, height):
        assert Parallelogram(*triple).height == height

    @pytest.mark.parametrize(
        "triple,expect",
        [
            ((7, 6, 42), True),
            ((8, 13, 26), False),
            ((4, 4, 16), True),
            # area at base*side and one below, for a product of one bit
            # fewer than bl(base) + bl(side), of exactly that many, and a
            # power of two
            ((2**30 - 1, 2**30 + 1, 2**60 - 1), True),
            ((2**30 - 1, 2**30 + 1, 2**60 - 2), False),
            ((2**31 - 1, 2**31 - 1, (2**31 - 1) ** 2), True),
            ((2**31 - 1, 2**31 - 1, (2**31 - 1) ** 2 - 1), False),
            ((2**30, 2**30, 2**60), True),
            ((2**30, 2**30, 2**60 - 1), False),
            ((3**9000, 2**14_400 + 1, 3**9000 * (2**14_400 + 1)), True),
            ((3**9000, 2**14_400 + 1, 3**9000 * (2**14_400 + 1) - 1), False),
            ((3**9000, 2**14_400 + 1, 1), False),
        ],
    )
    def test_is_rectangle(self, triple, expect):
        assert Parallelogram(*triple).is_rectangle is expect

    @pytest.mark.parametrize(
        "triple,key",
        [
            ((13, 8, 26), (8, 13, 26)),
            ((8, 13, 26), (8, 13, 26)),
            ((4, 4, 16), (4, 4, 16)),
        ],
    )
    def test_canonical_key(self, triple, key):
        assert Parallelogram(*triple).canonical_key == CanonicalKey(*key)

    def test_huge_values_stay_exact(self):
        big = fib(120)
        p = Parallelogram(big, big, big * big)
        assert p.height == big
        assert p.perimeter == 4 * big


# Small side lengths keep the exhaustive-ish property runs quick; the
# invariants themselves carry no size assumptions.
sides = st.integers(min_value=1, max_value=60)


@settings(max_examples=200)
@given(base=sides, side=sides, data=st.data())
def test_constructor_totality_and_invariants(base, side, data):
    # every area in [1, base*side] is constructible, and each instance
    # satisfies the full invariant set
    area = data.draw(st.integers(min_value=1, max_value=base * side))
    p = Parallelogram(base, side, area)
    assert p.perimeter % 2 == 0
    assert 1 <= p.area <= p.base * p.side
    assert p.height * p.base == p.area
    assert 0 < p.height <= p.side
    assert 16 * p.area <= p.perimeter**2


@settings(max_examples=200)
@given(base=sides, side=sides, data=st.data())
def test_base_height_side_round_trip(base, side, data):
    area = data.draw(st.integers(min_value=1, max_value=base * side))
    p = Parallelogram(base, side, area)
    assert Parallelogram.from_base_height_side(p.base, p.height, p.side) == p


@settings(max_examples=200)
@given(base=sides, side=sides, data=st.data())
def test_canonical_key_ignores_base_designation(base, side, data):
    area = data.draw(st.integers(min_value=1, max_value=base * side))
    p = Parallelogram(base, side, area)
    assert p.canonical_key == p.swapped().canonical_key
    assert p.swapped().swapped() == p


class TestJson:
    def test_wire_form_is_decimal_strings_in_fixed_order(self):
        d = Parallelogram(8, 13, 26).to_json_dict()
        assert json.dumps(d) == (
            '{"base": "8", "side": "13", "area": "26", '
            '"height": {"num": "13", "den": "4"}}'
        )

    def test_round_trip(self):
        p = Parallelogram(11, 10, 26)
        assert Parallelogram.from_json_dict(p.to_json_dict()) == p

    def test_round_trip_big(self):
        p = Parallelogram(fib(90), fib(91), fib(89))
        assert Parallelogram.from_json_dict(p.to_json_dict()) == p

    def test_height_mismatch_rejected(self):
        d = Parallelogram(8, 13, 26).to_json_dict()
        d["height"] = {"num": "1", "den": "2"}
        with pytest.raises(HeronianError):
            Parallelogram.from_json_dict(d)

    def test_height_optional_on_input(self):
        assert Parallelogram.from_json_dict(
            {"base": "8", "side": "13", "area": "26"}
        ) == Parallelogram(8, 13, 26)


class TestNonIntegerDimensions:
    @pytest.mark.parametrize(
        "triple",
        [
            (True, 1, 1),
            (1, False, 1),
            (1.5, 2, 1),
            (2, 2.0, 1),
            (2, 2, Fraction(1)),
            ("2", 2, 1),
        ],
    )
    def test_rejected(self, triple):
        with pytest.raises(NonIntegerDimension):
            Parallelogram(*triple)

    def test_is_a_heronian_error(self):
        assert issubclass(NonIntegerDimension, HeronianError)


class TestDecimalConversion:
    def test_json_round_trip_of_5000_digits(self):
        base = 10**4999 + 12345
        p = Parallelogram(base, 3 * 10**4999 + 7, 2 * 10**5000 + 9)
        d = json.loads(json.dumps(p.to_json_dict()))
        assert len(d["base"]) == 5000
        assert len(d["area"]) == 5001
        assert Parallelogram.from_json_dict(d) == p

    @settings(max_examples=100, deadline=None)
    @given(digits=st.integers(min_value=1, max_value=12000), data=st.data())
    def test_matches_str_digit_by_digit(self, digits, data):
        value = data.draw(
            st.integers(min_value=10 ** (digits - 1), max_value=10**digits - 1)
        )
        sign = data.draw(st.sampled_from([1, -1]))
        text = int_to_decimal(sign * value)
        assert text.startswith("-") == (sign < 0)
        body = text.lstrip("-")
        assert len(body) == digits and body[0] != "0"
        # leading and trailing hundred digits against str() of pieces under the limit
        head = max(0, digits - 100)
        assert body[:100] == str(value // 10**head)
        assert body[-100:] == str(value % 10**100).zfill(min(100, digits))
        assert decimal_to_int(text) == sign * value

    @pytest.mark.parametrize(
        "text", ["1" * 5000 + "x", "1" * 2500 + " " + "1" * 2500, "1_" * 2500, "-" * 5000]
    )
    def test_long_garbage_rejected(self, text):
        with pytest.raises(ValueError):
            decimal_to_int(text)
