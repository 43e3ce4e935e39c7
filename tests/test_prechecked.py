"""Values built past their constructors' checks equal the checked ones.

``core.prechecked`` builds a value type from fields already known valid,
without running its constructor.  Four routes use it: the shapes of
``enumerate_by_perimeter``, the OK verdicts of ``classify``, the entries of
``family_pair`` and the rows of ``verify_family``.  Each value they give must equal the value the checked
constructor builds from the same fields, be of exactly its class, and
survive ``dataclasses.replace``, which runs the checked constructor again.
"""

import dataclasses
from itertools import islice

import pytest

from amigram import (
    FamilyEntry,
    FamilyReportRow,
    Parallelogram,
    PerimeterCounts,
    Reason,
    Verdict,
    classify,
    companion_from_invariants,
    enumerate_by_perimeter,
    family_pair,
    verify_family,
)
from amigram.core import prechecked

PERIMETERS = range(4, 81, 2)


def assert_checked(value, checked):
    """``value`` is ``checked`` as the checked constructor built it."""
    assert value == checked
    assert type(value) is type(checked)
    assert dataclasses.replace(value) == value


def checked_shapes(perimeter):
    """Every canonical shape of the perimeter through the constructor."""
    half = perimeter // 2
    return [
        Parallelogram(short, half - short, area)
        for short in range(1, half // 2 + 1)
        for area in range(1, short * (half - short) + 1)
    ]


@pytest.mark.parametrize("perimeter", PERIMETERS)
def test_enumerated_shapes_equal_the_checked_ones(perimeter):
    shapes = list(enumerate_by_perimeter(perimeter))
    expected = checked_shapes(perimeter)
    assert len(shapes) == len(expected)
    for shape, checked in zip(shapes, expected):
        assert_checked(shape, checked)


def test_enumerated_shapes_at_a_five_thousand_digit_perimeter():
    perimeter = 4 * 10**4999 + 2
    half = perimeter // 2
    shapes = list(islice(enumerate_by_perimeter(perimeter), 50))
    for area, shape in enumerate(shapes, 1):
        assert_checked(shape, Parallelogram(1, half - 1, area))
        assert shape.perimeter == perimeter


@pytest.mark.parametrize("perimeter", PERIMETERS)
def test_ok_verdicts_equal_the_checked_ones(perimeter):
    ok = 0
    for shape in enumerate_by_perimeter(perimeter):
        verdict = classify(shape)
        if verdict.reason is not Reason.OK:
            continue
        ok += 1
        checked = Verdict(True, Reason.OK, companion_from_invariants(shape.area, perimeter))
        assert_checked(verdict, checked)
        assert type(verdict.companion) is Parallelogram
    assert ok or perimeter < 16


# 11000 is past the 4300-digit int/str limit.
@pytest.mark.parametrize("n", [*range(4, 61), 11000])
def test_family_entries_equal_the_checked_ones(n):
    entry = family_pair(n)
    assert entry.n == n
    assert entry.rectangle.is_rectangle and not entry.partner.is_rectangle
    assert_checked(entry, FamilyEntry(entry.n, entry.rectangle, entry.partner))


def test_family_rows_equal_the_checked_ones():
    rows = verify_family(4, 60)
    assert [row.entry.n for row in rows] == list(range(4, 61))
    for row in rows:
        assert_checked(row, FamilyReportRow(row.entry, row.results))
        assert type(row.results) is tuple and len(row.results) == 5
        assert all(type(ok) is bool for ok in row.results)


def test_builders_store_the_fields_in_order():
    shape = prechecked(Parallelogram)(7, 6, 42)
    assert_checked(shape, Parallelogram(7, 6, 42))
    entry = FamilyEntry(4, shape, Parallelogram(8, 13, 26))
    results = (True, False, True, True, False)
    row = prechecked(FamilyReportRow)(entry, results)
    assert row.entry is entry and row.results is results
    assert_checked(row, FamilyReportRow(entry, results))


def test_a_field_count_with_no_builder_is_refused():
    with pytest.raises(TypeError, match="^no prechecked builder for 4 fields$"):
        prechecked(PerimeterCounts)
