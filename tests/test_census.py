import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amigram import (
    CSV_HEADER,
    CensusRow,
    InvalidPerimeter,
    Parallelogram,
    PerimeterCounts,
    RectanglePair,
    ZeroDimension,
    amicable_rectangle_pairs,
    census_row,
    census_rows,
    companion,
    count_amicable,
    enumerate_by_area,
    enumerate_by_perimeter,
    is_amicable,
    is_self_amicable,
    non_amicable_witness_area,
    non_amicable_witness_perimeter,
    smallest_amicable,
    verify_pair,
)
from amigram.census import perimeter_counts


def naive_shapes(perimeter):
    """Oracle: all canonical shapes via ordered double loop plus dedup."""
    half = perimeter // 2
    seen = set()
    for base in range(1, half):
        side = half - base
        for area in range(1, base * side + 1):
            seen.add(Parallelogram(base, side, area).canonical_key)
    return seen


class TestEnumerateByPerimeter:
    def test_perimeter_8_exact(self):
        shapes = list(enumerate_by_perimeter(8))
        assert shapes == [
            Parallelogram(1, 3, 1),
            Parallelogram(1, 3, 2),
            Parallelogram(1, 3, 3),
            Parallelogram(2, 2, 1),
            Parallelogram(2, 2, 2),
            Parallelogram(2, 2, 3),
            Parallelogram(2, 2, 4),
        ]

    def test_perimeter_4(self):
        assert list(enumerate_by_perimeter(4)) == [Parallelogram(1, 1, 1)]

    @pytest.mark.parametrize(
        "perimeter,total", [(4, 1), (6, 2), (8, 7), (10, 10), (12, 22), (14, 28), (16, 50)]
    )
    def test_totals(self, perimeter, total):
        assert sum(1 for _ in enumerate_by_perimeter(perimeter)) == total

    @pytest.mark.parametrize("perimeter", range(4, 31, 2))
    def test_complete_and_duplicate_free(self, perimeter):
        shapes = list(enumerate_by_perimeter(perimeter))
        keys = [s.canonical_key for s in shapes]
        assert len(keys) == len(set(keys))
        assert set(keys) == naive_shapes(perimeter)
        assert all(s.perimeter == perimeter for s in shapes)

    @pytest.mark.parametrize("perimeter", [3, 2, 0])
    def test_bad_perimeter(self, perimeter):
        with pytest.raises(InvalidPerimeter):
            list(enumerate_by_perimeter(perimeter))

    @pytest.mark.parametrize("perimeter", [7, 2])
    def test_bad_perimeter_raises_at_the_call(self, perimeter):
        with pytest.raises(InvalidPerimeter):
            enumerate_by_perimeter(perimeter)
        with pytest.raises(InvalidPerimeter):
            census_rows(perimeter)


@pytest.fixture(scope="module")
def shapes_with_area():
    """The oracle: every shape with perimeter up to 120 and a given area, in
    enumerate_by_perimeter's order.

    A function rather than the table, as hypothesis formats each argument
    of every example and the table's text runs to megabytes.
    """
    by_area = {}
    for perimeter in range(4, 121, 2):
        for shape in enumerate_by_perimeter(perimeter):
            by_area.setdefault(shape.area, []).append(shape)
    return lambda area: by_area.get(area, [])


class TestEnumerateByArea:
    def test_area_42_up_to_30(self):
        shapes = list(enumerate_by_area(42, 30))
        assert shapes == [
            Parallelogram(6, 7, 42),
            Parallelogram(5, 9, 42),
            Parallelogram(6, 8, 42),
            Parallelogram(7, 7, 42),
            Parallelogram(4, 11, 42),
            Parallelogram(5, 10, 42),
            Parallelogram(6, 9, 42),
            Parallelogram(7, 8, 42),
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        area=st.integers(min_value=1, max_value=1000),
        max_perimeter=st.integers(min_value=2, max_value=60).map(lambda k: 2 * k),
    )
    # The largest area a perimeter carries, floor(P/4)*ceil(P/4), and one above.
    @example(area=900, max_perimeter=120)
    @example(area=901, max_perimeter=120)
    @example(area=240, max_perimeter=62)
    @example(area=241, max_perimeter=62)
    @example(area=1, max_perimeter=4)
    def test_matches_filtered_perimeter_enumeration(
        self, shapes_with_area, area, max_perimeter
    ):
        expect = [s for s in shapes_with_area(area) if s.perimeter <= max_perimeter]
        assert list(enumerate_by_area(area, max_perimeter)) == expect

    def test_bad_arguments(self):
        with pytest.raises(ZeroDimension):
            list(enumerate_by_area(0, 20))
        with pytest.raises(InvalidPerimeter):
            list(enumerate_by_area(5, 21))

    def test_bad_arguments_raise_at_the_call(self):
        with pytest.raises(ZeroDimension):
            enumerate_by_area(0, 8)
        with pytest.raises(InvalidPerimeter):
            enumerate_by_area(5, 21)


class TestCensusRows:
    def test_row_for_known_amicable(self):
        row = census_row(Parallelogram(7, 6, 42))
        assert row == CensusRow(6, 7, 42)
        assert (row.perimeter, row.amicable, row.self_amicable) == (26, True, False)

    def test_row_for_equable_square(self):
        row = census_row(Parallelogram(4, 4, 16))
        assert row == CensusRow(4, 4, 16)
        assert (row.perimeter, row.amicable, row.self_amicable) == (16, True, True)

    def test_csv_line(self):
        row = census_row(Parallelogram(7, 6, 42))
        assert row.to_csv() == "6,7,42,26,true,false"
        assert CSV_HEADER == "short_side,long_side,area,perimeter,amicable,self_amicable"

    def test_csv_line_past_the_digit_limit(self):
        row = next(census_rows(10**5000))
        assert row.to_csv() == (
            "1," + "4" + "9" * 4999 + ",1,1" + "0" * 5000 + ",false,false"
        )

    def test_json_dict_types(self):
        d = census_row(Parallelogram(4, 4, 16)).to_json_dict()
        assert d == {
            "short_side": "4",
            "long_side": "4",
            "area": "16",
            "perimeter": "16",
            "amicable": True,
            "self_amicable": True,
        }

    @pytest.mark.parametrize("perimeter", range(4, 61, 2))
    def test_rows_align_with_enumeration(self, perimeter):
        rows = list(census_rows(perimeter))
        counts = perimeter_counts(perimeter)
        assert len(rows) == counts.total
        assert sum(r.amicable for r in rows) == counts.amicable
        assert sum(r.self_amicable for r in rows) == counts.self_amicable


class TestCountAmicable:
    def test_frozen_table_to_16(self):
        assert count_amicable(16) == [
            PerimeterCounts(4, 1, 0, 0),
            PerimeterCounts(6, 2, 0, 0),
            PerimeterCounts(8, 7, 0, 0),
            PerimeterCounts(10, 10, 0, 0),
            PerimeterCounts(12, 22, 0, 0),
            PerimeterCounts(14, 28, 0, 0),
            PerimeterCounts(16, 50, 1, 1),
        ]

    def test_perimeter_18(self):
        assert count_amicable(18)[-1] == PerimeterCounts(18, 60, 3, 2)

    def test_perimeter_26(self):
        assert count_amicable(26)[-1] == PerimeterCounts(26, 182, 35, 4)

    def test_self_amicable_never_exceeds_amicable(self):
        for counts in count_amicable(60):
            assert 0 <= counts.self_amicable <= counts.amicable <= counts.total


class TestWitnesses:
    def test_even_area_example(self):
        shape = non_amicable_witness_area(42)
        assert shape == Parallelogram(42, 15, 42)
        assert shape.perimeter == 114

    def test_small_even_area(self):
        assert non_amicable_witness_area(16) == Parallelogram(16, 1, 16)

    def test_odd_area_example(self):
        assert non_amicable_witness_area(9) == Parallelogram(9, 1, 9)

    def test_area_sweep(self):
        for area in range(1, 301):
            shape = non_amicable_witness_area(area)
            assert shape.area == area
            assert not is_amicable(shape)

    def test_perimeter_example(self):
        assert non_amicable_witness_perimeter(26) == Parallelogram(1, 12, 1)

    def test_perimeter_sweep(self):
        for perimeter in range(4, 301, 2):
            shape = non_amicable_witness_perimeter(perimeter)
            assert shape.perimeter == perimeter
            assert not is_amicable(shape)

    def test_bad_arguments(self):
        with pytest.raises(ZeroDimension):
            non_amicable_witness_area(0)
        with pytest.raises(InvalidPerimeter):
            non_amicable_witness_perimeter(7)


# the full solution set; shorter sides first within each rectangle, pairs
# ordered the way amicable_rectangle_pairs sorts them
EXPECTED_PAIRS = [
    RectanglePair((1, 34), (7, 10)),
    RectanglePair((1, 38), (6, 13)),
    RectanglePair((1, 54), (5, 22)),
    RectanglePair((2, 10), (4, 6)),
    RectanglePair((2, 13), (3, 10)),
    RectanglePair((3, 6), (3, 6)),
    RectanglePair((4, 4), (4, 4)),
]


def pairs_by_short_side_bound():
    """Independent oracle for the rectangle search.

    Multiplying the two defining equations a*b = 2(c+d), c*d = 2(a+b) and
    bounding each sum by twice its larger term gives a*c <= 16 for the
    shorter sides.  For fixed (a, c) the equations are linear in b:
    b*(a*c - 4) = 4*a + 2*c*c, then d follows.  Scan all such (a, c).
    """
    found = set()
    for a in range(1, 17):
        for c in range(1, 17):
            if a * c <= 4:
                continue
            num = 4 * a + 2 * c * c
            if num % (a * c - 4):
                continue
            b = num // (a * c - 4)
            if b < a:
                continue
            rest = a * b - 2 * c
            if rest < 0 or rest % 2:
                continue
            d = rest // 2
            if d < c:
                continue
            if a * b == 2 * (c + d) and c * d == 2 * (a + b):
                found.add(tuple(sorted([(a, b), (c, d)])))
    return {RectanglePair(first, second) for first, second in found}


class TestRectanglePairs:
    def test_reproduces_known_solution_set(self):
        assert amicable_rectangle_pairs() == EXPECTED_PAIRS

    def test_counts(self):
        pairs = amicable_rectangle_pairs()
        assert sum(1 for p in pairs if p.distinct) == 5
        assert sum(1 for p in pairs if not p.distinct) == 2

    def test_stable_when_bound_doubles(self):
        assert amicable_rectangle_pairs(2000) == amicable_rectangle_pairs(1000)

    def test_matches_independent_oracle(self):
        assert set(amicable_rectangle_pairs()) == pairs_by_short_side_bound()

    def test_every_pair_satisfies_the_defining_equations(self):
        for pair in amicable_rectangle_pairs():
            (a, b), (c, d) = pair.first, pair.second
            assert a * b == 2 * (c + d)
            assert c * d == 2 * (a + b)

    def test_members_are_amicable_parallelograms(self):
        for pair in amicable_rectangle_pairs():
            (a, b), (c, d) = pair.first, pair.second
            first = Parallelogram(a, b, a * b)
            second = Parallelogram(c, d, c * d)
            assert verify_pair(first, second)
            assert is_amicable(first) and is_amicable(second)

    def test_json_dict(self):
        assert EXPECTED_PAIRS[2].to_json_dict() == {
            "first": [1, 54],
            "second": [5, 22],
            "distinct": True,
        }
        assert EXPECTED_PAIRS[6].to_json_dict()["distinct"] is False


class TestSmallestAmicable:
    def test_identity(self):
        shape = smallest_amicable()
        assert shape == Parallelogram(4, 4, 16)
        assert is_self_amicable(shape)
        assert companion(shape) == shape

    def test_uniqueness_below_its_perimeter(self):
        hits = [
            s
            for p in range(4, 17, 2)
            for s in enumerate_by_perimeter(p)
            if is_amicable(s)
        ]
        assert hits == [Parallelogram(4, 4, 16)]
