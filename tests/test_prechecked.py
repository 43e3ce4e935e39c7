"""Values built past their constructors' checks equal the checked ones.

``core.prechecked(cls)`` returns the builder that ``core.value_type`` writes
beside each value type's constructor, for any number of fields: it builds
the value from fields already known valid, without running the
constructor.  Four routes use it: the shapes of ``enumerate_by_perimeter``,
the OK verdicts of ``classify``, the entries of ``family_pair`` and the rows
of ``verify_family``.  Each value they give must equal the value the checked
constructor builds from the same fields, be of exactly its class, and
survive ``dataclasses.replace``, which runs the checked constructor again.
Every exported value type has a builder, whatever its field count, and it
stores each field object as given.
"""

import dataclasses
from itertools import islice

import pytest

import amigram
from amigram import (
    FamilyEntry,
    FamilyReportRow,
    Parallelogram,
    Reason,
    RenderSpec,
    Verdict,
    amicable_rectangle_pairs,
    census_row,
    classify,
    companion_from_invariants,
    enumerate_by_perimeter,
    family_pair,
    verify_family,
)
from amigram.census import perimeter_counts
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


BIG = 7 * 10**5000
BIG_SHAPE = Parallelogram(BIG, BIG + 1, BIG)

# One value of each exported value type, as the library builds it: two,
# three, four and five fields, some past the int/str digit limit.
SAMPLES = [
    BIG_SHAPE,
    classify(Parallelogram(7, 6, 42)),
    census_row(BIG_SHAPE),
    perimeter_counts(26),
    amicable_rectangle_pairs()[0],
    family_pair(11000),
    verify_family(4, 4)[0],
    RenderSpec(BIG_SHAPE, True, 100, 80, 5),
]


def test_the_samples_cover_every_exported_value_type():
    exported = [getattr(amigram, name) for name in amigram.__all__]
    exported = [cls for cls in exported if isinstance(cls, type) and dataclasses.is_dataclass(cls)]
    sampled = [type(value) for value in SAMPLES]
    assert sorted(exported, key=repr) == sorted(sampled, key=repr)
    assert len(sampled) == 8
    assert {len(dataclasses.fields(cls)) for cls in sampled} == {2, 3, 4, 5}


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda value: type(value).__name__)
def test_every_value_type_has_a_builder(sample):
    cls = type(sample)
    names = [field.name for field in dataclasses.fields(cls)]
    fields = [getattr(sample, name) for name in names]
    value = prechecked(cls)(*fields)
    assert_checked(value, cls(*fields))
    for name, field in zip(names, fields):
        assert getattr(value, name) is field
