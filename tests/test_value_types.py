"""Every value type keeps its contract; shapes and verdicts come first.

``Parallelogram`` stores its fields through slot descriptors in a
written-out constructor, and ``Verdict`` checks in ``__post_init__``.
They must still behave exactly like frozen dataclasses: assignment
refused, no instance ``__dict__``, and equality, hashing, repr, tuples,
pickling and copying as a plain ``@dataclass(frozen=True)`` with the same
fields gives.  Every rejection keeps its exception class and its message
text.  These two and every other value type, all slots classes that
``core.value_type`` builds, refuse any attribute with
``FrozenInstanceError``, field or not.  Census rows refuse sides or an area
that are not ints or name no canonical shape, a verdict refuses a flag that
is not a bool, and family report rows refuse results that are not a tuple
of five bools.  A family report row's checks are a new dict on each read.  A shape, a verdict's refusal, a census row
and tally, a render spec, a canonical key, a rectangle pair and a family
entry print, and a JSON field is refused with its name, past CPython's
int/str digit limit too.  A verdict, a rectangle pair and a family entry
refuse a wrong-typed field when built.

The last part is one gate over every dataclass or ``NamedTuple`` that
``amigram`` exports, found by walking ``amigram.__all__``: each must have a
sample holding a 5000-digit int wherever its constructor admits one, print
it through its repr and every wire method at CPython's default and lowest
int/str digit limits, refuse a wrong-typed field when built, and hash,
copy and convert as a dataclass or ``NamedTuple`` does.  Each
dataclass must be declared with ``core.value_type``, whose two refusals are
its ``__setattr__`` and ``__delattr__``.
"""

import collections
import copy
import dataclasses
import itertools
import json
import pickle
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import amigram
from amigram import (
    AreaOutOfRange,
    CanonicalKey,
    CensusRow,
    FamilyEntry,
    FamilyReportRow,
    HeronianError,
    NonIntegerDimension,
    Parallelogram,
    PerimeterCounts,
    Reason,
    RectanglePair,
    RenderSpec,
    Verdict,
    ZeroDimension,
    verify_family,
)
from amigram import core
from amigram.census import perimeter_counts
from amigram.core import fields_repr
from amigram.families import CHECK_NAMES

# Plain frozen dataclasses with the same names and fields, as references.
RefParallelogram = dataclasses.make_dataclass(
    "Parallelogram", ["base", "side", "area"], frozen=True
)
RefVerdict = dataclasses.make_dataclass(
    "Verdict", ["amicable", "reason", "companion"], frozen=True
)


@st.composite
def shapes(draw):
    base = draw(st.integers(1, 10**30))
    side = draw(st.integers(1, 10**30))
    return Parallelogram(base, side, draw(st.integers(1, base * side)))


@st.composite
def verdicts(draw):
    if draw(st.booleans()):
        return Verdict(True, Reason.OK, draw(shapes()))
    return Verdict(False, draw(st.sampled_from([Reason.ODD_AREA, Reason.BOUND_FAIL])), None)


def reference(value):
    if isinstance(value, Verdict):
        return RefVerdict(value.amicable, value.reason, value.companion)
    return RefParallelogram(value.base, value.side, value.area)


SAMPLES = [
    Parallelogram(7, 6, 42),
    Verdict(True, Reason.OK, Parallelogram(11, 10, 26)),
    Verdict(False, Reason.ODD_AREA, None),
]


@pytest.mark.parametrize("value", SAMPLES, ids=repr)
def test_every_field_refuses_assignment(value):
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field.name)
    assert not hasattr(value, "__dict__")


@given(st.one_of(shapes(), verdicts()), st.one_of(shapes(), verdicts()))
def test_behaves_like_a_plain_frozen_dataclass(first, second):
    ref_first, ref_second = reference(first), reference(second)
    assert (first == second) == (ref_first == ref_second)
    assert hash(first) == hash(ref_first)
    assert repr(first) == repr(ref_first)
    assert dataclasses.astuple(first) == dataclasses.astuple(ref_first)


@given(st.one_of(shapes(), verdicts()))
def test_pickle_and_copy_round_trip(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is type(value) and again == value
    for duplicate in (copy.copy(value), copy.deepcopy(value)):
        assert type(duplicate) is type(value) and duplicate == value
        assert hash(duplicate) == hash(value)


BIG = 10**5000

REJECTIONS = [
    ((7.0, 6, 42), NonIntegerDimension,
     "base, side, and area must be ints, got (float, int, int)"),
    ((7, "6", 42), NonIntegerDimension,
     "base, side, and area must be ints, got (int, str, int)"),
    ((7, 6, True), NonIntegerDimension,
     "base, side, and area must be ints, got (int, int, bool)"),
    ((0, 6, 42), ZeroDimension,
     "base, side, and area must be positive, got (0, 6, 42)"),
    ((7, -6, 42), ZeroDimension,
     "base, side, and area must be positive, got (7, -6, 42)"),
    ((7, 6, 0), ZeroDimension,
     "base, side, and area must be positive, got (7, 6, 0)"),
    ((7, 6, 43), AreaOutOfRange, "area 43 exceeds base*side = 42"),
    ((-BIG, 1, 1), ZeroDimension,
     "base, side, and area must be positive, got (-1" + "0" * 5000 + ", 1, 1)"),
    ((BIG, 1, BIG + 1), AreaOutOfRange,
     "area 1" + "0" * 4999 + "1 exceeds base*side = 1" + "0" * 5000),
]


@pytest.mark.parametrize(
    "args,error,message", REJECTIONS, ids=[r[2][:40] for r in REJECTIONS]
)
def test_constructor_rejections_keep_class_and_message(args, error, message):
    with pytest.raises(error) as info:
        Parallelogram(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_five_thousand_digit_fields_are_stored():
    shape = Parallelogram(BIG, BIG + 1, BIG * BIG)
    assert (shape.base, shape.side, shape.area) == (BIG, BIG + 1, BIG * BIG)


INCONSISTENT = [
    ((True, Reason.OK, None),
     "inconsistent verdict: Verdict(amicable=True, reason=<Reason.OK: 'OK'>, "
     "companion=None)"),
    ((False, Reason.OK, None),
     "inconsistent verdict: Verdict(amicable=False, reason=<Reason.OK: 'OK'>, "
     "companion=None)"),
    ((True, Reason.ODD_AREA, None),
     "inconsistent verdict: Verdict(amicable=True, "
     "reason=<Reason.ODD_AREA: 'ODD_AREA'>, companion=None)"),
    ((False, Reason.BOUND_FAIL, Parallelogram(7, 6, 42)),
     "inconsistent verdict: Verdict(amicable=False, "
     "reason=<Reason.BOUND_FAIL: 'BOUND_FAIL'>, "
     "companion=Parallelogram(base=7, side=6, area=42))"),
]


@pytest.mark.parametrize("args,message", INCONSISTENT, ids=[m[22:] for _, m in INCONSISTENT])
def test_inconsistent_verdicts_keep_their_message(args, message):
    with pytest.raises(ValueError) as info:
        Verdict(*args)
    assert type(info.value) is HeronianError
    assert str(info.value) == message


@pytest.mark.parametrize(
    "args", [(1, Reason.OK, Parallelogram(11, 10, 26)), (0, Reason.ODD_AREA, None)], ids=repr
)
def test_verdict_flag_must_be_a_bool(args):
    # 1 == True, but the wire form would print "amicable": 1
    with pytest.raises(ValueError, match="^inconsistent verdict: Verdict\\(amicable=[01],"):
        Verdict(*args)


@pytest.mark.parametrize("amicable", [True, False])
@pytest.mark.parametrize("reason", list(Reason))
@pytest.mark.parametrize("companion", [None, Parallelogram(11, 10, 26)])
def test_verdict_accepts_exactly_the_consistent_triples(amicable, reason, companion):
    ok = reason is Reason.OK
    consistent = (amicable and ok and companion is not None) or (
        not amicable and not ok and companion is None
    )
    if consistent:
        verdict = Verdict(amicable, reason, companion)
        assert (verdict.amicable, verdict.reason, verdict.companion) == (
            amicable, reason, companion
        )
    else:
        with pytest.raises(ValueError):
            Verdict(amicable, reason, companion)


FROZEN_SLOTS = SAMPLES + [
    CensusRow(6, 7, 42),
    PerimeterCounts(26, 42, 11, 1),
    RectanglePair((1, 54), (5, 22)),
    RenderSpec(Parallelogram(7, 6, 42)),
    FamilyEntry(4, Parallelogram(7, 6, 42), Parallelogram(8, 13, 26)),
    FamilyReportRow(
        FamilyEntry(4, Parallelogram(7, 6, 42), Parallelogram(8, 13, 26)), (True,) * 5
    ),
]


@pytest.mark.parametrize("value", FROZEN_SLOTS, ids=repr)
def test_every_other_attribute_refuses_assignment_and_deletion(value):
    # A plain frozen dataclass refuses any name with FrozenInstanceError;
    # the slots classes must too, not fail inside super() with a TypeError.
    plain = dataclasses.make_dataclass("Plain", ["x"], frozen=True)(1)
    for action in (lambda obj: setattr(obj, "extra", 1), lambda obj: delattr(obj, "extra")):
        with pytest.raises(dataclasses.FrozenInstanceError) as expected:
            action(plain)
        with pytest.raises(dataclasses.FrozenInstanceError) as info:
            action(value)
        assert str(info.value) == str(expected.value)
    assert not hasattr(value, "extra")


# Each names no canonical shape: 1 <= short <= long and 1 <= area <= short*long.
NO_SHAPE = [
    ((2, 1, 1), "(2, 1, 1)"),
    ((0, 1, 1), "(0, 1, 1)"),
    ((1, 0, 1), "(1, 0, 1)"),
    ((1, 1, 0), "(1, 1, 0)"),
    ((1, 2, 3), "(1, 2, 3)"),
    ((BIG, BIG + 1, BIG * (BIG + 1) + 1),
     f"({'1' + '0' * 5000}, {'1' + '0' * 4999 + '1'}, {'1' + '0' * 4999 + '1' + '0' * 4999 + '1'})"),
]


@pytest.mark.parametrize(
    "args,shown",
    NO_SHAPE,
    ids=["short_above_long", "zero_short", "zero_long", "zero_area", "area_above_product",
         "area_above_a_big_product"],
)
def test_census_row_refuses_what_names_no_shape(args, shown):
    message = (
        "short_side, long_side, and area must satisfy 1 <= short_side <= long_side "
        f"and 1 <= area <= short_side*long_side, got {shown}"
    )
    with pytest.raises(HeronianError) as info:
        CensusRow(*args)
    assert type(info.value) is HeronianError
    assert str(info.value) == message
    row = CensusRow(1, 2, 2)
    with pytest.raises(HeronianError) as info:
        dataclasses.replace(row, **dict(zip(["short_side", "long_side", "area"], args)))
    assert str(info.value) == message


FAMILY_ENTRY = FamilyEntry(4, Parallelogram(7, 6, 42), Parallelogram(8, 13, 26))


# 1 == True and 0 == False, but to_json_dict would print them as numbers
# where to_json_text prints true and false.
NOT_BOOLS = [1, 0, 1.0, None, "true"]
ROW_RESULTS = (True, False, True, True, False)
ROW_REFUSAL = "a family row needs a FamilyEntry and a tuple of five bools"


@pytest.mark.parametrize("value", NOT_BOOLS, ids=repr)
@pytest.mark.parametrize("position", range(5))
def test_family_row_results_must_be_bools(value, position):
    results = list(ROW_RESULTS)
    results[position] = value
    results = tuple(results)
    with pytest.raises(HeronianError) as info:
        FamilyReportRow(FAMILY_ENTRY, results)
    assert type(info.value) is HeronianError
    assert str(info.value) == ROW_REFUSAL
    row = FamilyReportRow(FAMILY_ENTRY, ROW_RESULTS)
    with pytest.raises(HeronianError) as info:
        dataclasses.replace(row, results=results)
    assert str(info.value) == ROW_REFUSAL


@pytest.mark.parametrize(
    "entry,results",
    [
        (FAMILY_ENTRY, list(ROW_RESULTS)),
        (FAMILY_ENTRY, ROW_RESULTS[:4]),
        (FAMILY_ENTRY, ROW_RESULTS + (True,)),
        (FAMILY_ENTRY, ()),
        (FAMILY_ENTRY, dict(zip(CHECK_NAMES, ROW_RESULTS))),
        (FAMILY_ENTRY, None),
        ((4, Parallelogram(7, 6, 42), Parallelogram(8, 13, 26)), ROW_RESULTS),
        (Parallelogram(7, 6, 42), ROW_RESULTS),
        (None, ROW_RESULTS),
    ],
    ids=[
        "list", "four", "six", "empty", "dict", "none_results",
        "tuple_entry", "shape_entry", "none_entry",
    ],
)
def test_family_row_refuses_an_entry_or_results_of_the_wrong_shape(entry, results):
    with pytest.raises(HeronianError) as info:
        FamilyReportRow(entry, results)
    assert type(info.value) is HeronianError
    assert str(info.value) == ROW_REFUSAL
    row = FamilyReportRow(FAMILY_ENTRY, ROW_RESULTS)
    with pytest.raises(HeronianError) as info:
        dataclasses.replace(row, entry=entry, results=results)
    assert str(info.value) == ROW_REFUSAL


def test_family_row_checks_are_a_new_dict_on_each_read():
    row = FamilyReportRow(FAMILY_ENTRY, ROW_RESULTS)
    expected = {
        "pair": True, "amicable_h": False, "amicable_c": True,
        "identity": True, "existence_bound": False,
    }
    checks = row.checks
    assert type(checks) is dict and checks == expected
    checks["pair"] = 1
    del checks["amicable_h"]
    assert row.checks == expected and row.checks is not row.checks
    assert row.results == ROW_RESULTS and row.passed is False
    (row,) = verify_family(4, 4)
    assert row.results == (True,) * 5 and row.passed is True
    assert row.to_json_text() == json.dumps(row.to_json_dict())


@pytest.mark.parametrize(
    "results", list(itertools.product((True, False), repeat=5)), ids=str
)
def test_family_row_prints_each_result_under_its_check_name(results):
    row = FamilyReportRow(FAMILY_ENTRY, results)
    text = row.to_json_text()
    assert text == json.dumps(row.to_json_dict())
    assert list(json.loads(text)["checks"]) == list(CHECK_NAMES)
    assert row.checks == dict(zip(CHECK_NAMES, results))
    assert row.passed == all(results)


@pytest.mark.parametrize(
    "value",
    [FAMILY_ENTRY, FamilyReportRow(FAMILY_ENTRY, ROW_RESULTS)],
    ids=lambda value: type(value).__name__,
)
def test_family_values_are_frozen_slots_that_pickle_and_copy(value):
    for name in [field.name for field in dataclasses.fields(value)] + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is type(value) and again == value
    for duplicate in (copy.copy(value), copy.deepcopy(value)):
        assert type(duplicate) is type(value) and duplicate == value


@pytest.fixture(params=[4300, 640], ids=["default_limit", "lowest_limit"])
def digit_limit(request):
    """Run under CPython's default int/str digit limit, then its lowest."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("digits", [600, 1000, 5000])
def test_shapes_and_verdicts_print_past_the_digit_limit(digit_limit, digits):
    assert repr(Parallelogram(7, 6, 42)) == "Parallelogram(base=7, side=6, area=42)"
    shape = Parallelogram(10 ** (digits - 1), 1, 1)
    text = "Parallelogram(base=1" + "0" * (digits - 1) + ", side=1, area=1)"
    assert repr(shape) == text
    with pytest.raises(ValueError) as info:
        Verdict(False, Reason.OK, shape)
    assert type(info.value) is HeronianError
    assert str(info.value) == (
        "inconsistent verdict: Verdict(amicable=False, "
        f"reason=<Reason.OK: 'OK'>, companion={text})"
    )
    assert repr(Verdict(True, Reason.OK, shape)) == (
        f"Verdict(amicable=True, reason=<Reason.OK: 'OK'>, companion={text})"
    )


@pytest.mark.parametrize("digits", [600, 1000, 5000])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_verdict_refusal_prints_an_int_field_past_the_digit_limit(digit_limit, digits, position):
    # Each triple is inconsistent, with the int in one of its three fields.
    args = [[None, Reason.OK, None], [True, None, None], [False, Reason.OK, None]][position]
    shown = [repr(value) for value in args]
    args[position] = 10 ** (digits - 1)
    shown[position] = "1" + "0" * (digits - 1)
    with pytest.raises(ValueError) as info:
        Verdict(*args)
    assert type(info.value) is HeronianError
    assert str(info.value) == (
        f"inconsistent verdict: Verdict(amicable={shown[0]}, "
        f"reason={shown[1]}, companion={shown[2]})"
    )


# Plain dataclasses with the same names and fields, whose generated repr
# the written-out one must match wherever that repr prints at all.
REF_REPR = {
    CensusRow: dataclasses.make_dataclass(
        "CensusRow", ["short_side", "long_side", "area"]
    ),
    PerimeterCounts: dataclasses.make_dataclass(
        "PerimeterCounts", ["perimeter", "total", "amicable", "self_amicable"]
    ),
    RenderSpec: dataclasses.make_dataclass(
        "RenderSpec", ["parallelogram", "include_companion", "width", "height", "margin"]
    ),
}


def printed_values():
    """A census row, a tally and a render spec holding ints of any size."""
    size = st.one_of(st.integers(1, 10**30), st.integers(10**599, 10**5000))
    flag = st.booleans()
    row = st.builds(lambda a, b, area: CensusRow(min(a, b), max(a, b), min(area, a * b)),
                    size, size, size)
    tally = st.builds(PerimeterCounts, size, size, size, size)
    spec = st.builds(
        RenderSpec, st.builds(Parallelogram, size, size, st.just(1)), flag, size, size, size
    )
    return st.one_of(row, tally, spec)


@given(printed_values())
def test_census_values_and_render_specs_print_at_any_size(value):
    # The generated repr, printed with the digit limit lifted, is the text.
    fields = [getattr(value, field.name) for field in dataclasses.fields(value)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = repr(REF_REPR[type(value)](*fields))
    finally:
        sys.set_int_max_str_digits(limit)
    assert repr(value) == expected


def test_census_row_and_tally_print_past_the_digit_limit(digit_limit):
    n = BIG
    text = repr(CensusRow(1, n, n))
    big = "1" + "0" * 5000
    assert text == f"CensusRow(short_side=1, long_side={big}, area={big})"
    counts = perimeter_counts(2 * n)
    assert repr(counts).startswith(f"PerimeterCounts(perimeter=2{'0' * 5000}, total=")
    assert repr(counts).count("=") == 4
    spec = RenderSpec(Parallelogram(7, 6, 42), width=n)
    assert repr(spec) == (
        "RenderSpec(parallelogram=Parallelogram(base=7, side=6, area=42), "
        f"include_companion=False, width={big}, height=360, margin=24)"
    )


@pytest.mark.parametrize(
    "value", [[BIG], (BIG,), {"x": BIG}, [[1, BIG]]], ids=["list", "tuple", "dict", "nested"]
)
def test_json_field_holding_an_int_past_the_limit_is_refused(digit_limit, value):
    with pytest.raises(HeronianError) as info:
        Parallelogram.from_json_dict({"base": "1", "side": value, "area": "1"})
    assert type(info.value) is HeronianError
    assert str(info.value) == (
        f"field 'side' must be a decimal integer, "
        f"got a {type(value).__name__} holding an int too long to print"
    )


@pytest.mark.parametrize(
    "value,shown",
    [([8], "[8]"), (7.9, "7.9"), (None, "None"), ("8" * 5000 + "x", "'" + "8" * 39)],
    ids=["list", "float", "none", "long_text"],
)
def test_json_field_refusals_that_print_keep_their_text(value, shown):
    with pytest.raises(HeronianError) as info:
        Parallelogram.from_json_dict({"base": value, "side": "1", "area": "1"})
    assert str(info.value) == f"field 'base' must be a decimal integer, got {shown}"


BIG_TEXT = "1" + "0" * 5000
SHAPE = Parallelogram(7, 6, 42)
SHAPE_TEXT = "Parallelogram(base=7, side=6, area=42)"


def test_value_types_print_a_five_thousand_digit_int(digit_limit):
    assert repr(CanonicalKey(1, 2, 3)) == "CanonicalKey(short_side=1, long_side=2, area=3)"
    assert repr(CanonicalKey(BIG, BIG, BIG)) == (
        f"CanonicalKey(short_side={BIG_TEXT}, long_side={BIG_TEXT}, area={BIG_TEXT})"
    )
    assert repr(RectanglePair((1, 54), (5, 22))) == (
        "RectanglePair(first=(1, 54), second=(5, 22))"
    )
    assert repr(RectanglePair((1, BIG), (BIG, 22))) == (
        f"RectanglePair(first=(1, {BIG_TEXT}), second=({BIG_TEXT}, 22))"
    )
    assert repr(FamilyEntry(BIG, SHAPE, SHAPE)) == (
        f"FamilyEntry(n={BIG_TEXT}, rectangle={SHAPE_TEXT}, partner={SHAPE_TEXT})"
    )
    # A verdict admits no int field; its refusal prints the int.
    with pytest.raises(ValueError) as info:
        Verdict(False, BIG, None)
    assert str(info.value) == (
        f"inconsistent verdict: Verdict(amicable=False, reason={BIG_TEXT}, companion=None)"
    )


@pytest.mark.parametrize(
    "args,shown",
    [
        ((False, 12345, None), "amicable=False, reason=12345, companion=None"),
        ((False, "ODD_AREA", None), "amicable=False, reason='ODD_AREA', companion=None"),
        ((True, Reason.OK, (7, 6, 42)),
         "amicable=True, reason=<Reason.OK: 'OK'>, companion=(7, 6, 42)"),
        ((False, Reason.BOUND_FAIL, "none"),
         "amicable=False, reason=<Reason.BOUND_FAIL: 'BOUND_FAIL'>, companion='none'"),
    ],
    ids=["int_reason", "str_reason", "tuple_companion", "str_companion"],
)
def test_verdict_refuses_a_wrong_typed_reason_or_companion(args, shown):
    with pytest.raises(ValueError) as info:
        Verdict(*args)
    assert type(info.value) is HeronianError
    assert str(info.value) == f"inconsistent verdict: Verdict({shown})"


@pytest.mark.parametrize(
    "args,error,message",
    [
        ((("1", 54), (5, 22)), NonIntegerDimension, "side must be an int, got str"),
        (((1, 54), (5, True)), NonIntegerDimension, "side must be an int, got bool"),
        (((1, 54.0), (5, 22)), NonIntegerDimension, "side must be an int, got float"),
        (([1, 54], (5, 22)), HeronianError, "first must be a tuple, got list"),
        (((1, 54), None), HeronianError, "second must be a tuple, got NoneType"),
        (((1, 54), (5, 22, 1)), HeronianError, "second must hold two sides, got 3"),
    ],
    ids=["str_side", "bool_side", "float_side", "list_member", "none_member", "three_sides"],
)
def test_rectangle_pair_refuses_a_member_that_is_not_two_ints(args, error, message):
    with pytest.raises(error) as info:
        RectanglePair(*args)
    assert type(info.value) is error
    assert str(info.value) == message
    with pytest.raises(error):
        dataclasses.replace(RectanglePair((1, 54), (5, 22)), first=args[0], second=args[1])


@pytest.mark.parametrize(
    "args,error,message",
    [
        (("4", SHAPE, SHAPE), NonIntegerDimension, "index must be an int, got str"),
        ((True, SHAPE, SHAPE), NonIntegerDimension, "index must be an int, got bool"),
        ((4, (7, 6, 42), SHAPE), HeronianError,
         "rectangle and partner must be Parallelograms, got (tuple, Parallelogram)"),
        ((4, SHAPE, None), HeronianError,
         "rectangle and partner must be Parallelograms, got (Parallelogram, NoneType)"),
    ],
    ids=["str_index", "bool_index", "tuple_rectangle", "none_partner"],
)
def test_family_entry_refuses_wrong_typed_fields(args, error, message):
    with pytest.raises(error) as info:
        FamilyEntry(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_family_entry_checks_types_only():
    # Not a family pair at all, but well typed: verify_family reports such
    # an entry as failing rather than the constructor refusing it.
    entry = FamilyEntry(5, SHAPE, SHAPE)
    assert FamilyReportRow(entry, (False, True, True, True, True)).passed is False


def test_canonical_key_refuses_a_field_that_is_not_an_int():
    message = "short_side, long_side, and area must be ints, got (str, bool, NoneType)"
    with pytest.raises(NonIntegerDimension) as info:
        CanonicalKey("1", True, None)
    assert str(info.value) == message
    key = Parallelogram(7, 6, 42).canonical_key
    assert type(key) is CanonicalKey and key == (6, 7, 42) and isinstance(key, tuple)
    for wrong in ("42", True, 42.0, None):
        with pytest.raises(NonIntegerDimension):
            key._replace(area=wrong)
        with pytest.raises(NonIntegerDimension):
            CanonicalKey._make([6, 7, wrong])
    assert key._replace(area=5) == CanonicalKey(6, 7, 5)
    assert pickle.loads(pickle.dumps(key)) == key and copy.deepcopy(key) == key


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("wrong", ["4", True, 1.5, None], ids=repr)
def test_perimeter_counts_refuse_a_field_that_is_not_an_int(position, wrong):
    args = [26, 42, 11, 1]
    args[position] = wrong
    kinds = ", ".join(type(value).__name__ for value in args)
    with pytest.raises(NonIntegerDimension) as info:
        PerimeterCounts(*args)
    assert str(info.value) == (
        f"perimeter, total, amicable, and self_amicable must be ints, got ({kinds})"
    )
    name = dataclasses.fields(PerimeterCounts)[position].name
    with pytest.raises(NonIntegerDimension):
        dataclasses.replace(PerimeterCounts(26, 42, 11, 1), **{name: wrong})


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize("wrong", ["6", True, 6.0, None], ids=repr)
def test_census_row_refuses_a_number_that_is_not_an_int(position, wrong):
    args = [6, 7, 42]
    args[position] = wrong
    kinds = ", ".join(type(value).__name__ for value in args)
    with pytest.raises(NonIntegerDimension) as info:
        CensusRow(*args)
    assert str(info.value) == f"short_side, long_side, and area must be ints, got ({kinds})"


# The value-type gate: every dataclass or NamedTuple amigram exports.


def exported_value_types():
    """Each class in ``amigram.__all__`` that is a dataclass or a NamedTuple."""
    found = []
    for name in amigram.__all__:
        value = getattr(amigram, name)
        if isinstance(value, type) and (
            dataclasses.is_dataclass(value) or issubclass(value, tuple) and hasattr(value, "_fields")
        ):
            found.append(value)
    return found


VALUE_TYPES = exported_value_types()
BIG_SHAPE = Parallelogram(BIG, BIG + 1, BIG)
BIG_ENTRY = FamilyEntry(BIG, BIG_SHAPE, BIG_SHAPE)

# One instance of each exported value type, holding a 5000-digit int
# wherever its constructor admits one.
BIG_SAMPLES = {
    CanonicalKey: CanonicalKey(BIG, BIG, BIG),
    CensusRow: CensusRow(BIG, BIG, BIG * BIG),
    FamilyEntry: BIG_ENTRY,
    FamilyReportRow: FamilyReportRow(BIG_ENTRY, ROW_RESULTS),
    Parallelogram: BIG_SHAPE,
    PerimeterCounts: PerimeterCounts(BIG, BIG, BIG, BIG),
    RectanglePair: RectanglePair((BIG, BIG), (1, BIG)),
    RenderSpec: RenderSpec(BIG_SHAPE, True, BIG, BIG, BIG),
    Verdict: Verdict(True, Reason.OK, BIG_SHAPE),
}


def sample_of(cls):
    assert cls in BIG_SAMPLES, f"exported value type {cls.__name__} has no sample"
    value = BIG_SAMPLES[cls]
    assert type(value) is cls
    return value


def field_names(cls):
    if issubclass(cls, tuple):
        return list(cls._fields)
    return [field.name for field in dataclasses.fields(cls)]


def lifted_digit_limit(action):
    """``action()`` with the int/str digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return action()
    finally:
        sys.set_int_max_str_digits(limit)


def generated_repr(value):
    """The repr a plain dataclass or namedtuple with these fields generates."""
    cls = type(value)
    names = field_names(cls)
    if issubclass(cls, tuple):
        plain = collections.namedtuple(cls.__name__, names)
    else:
        plain = dataclasses.make_dataclass(cls.__name__, names)
    return lifted_digit_limit(lambda: repr(plain(*[getattr(value, name) for name in names])))


def test_the_walk_finds_every_sampled_type():
    assert sorted(VALUE_TYPES, key=repr) == sorted(BIG_SAMPLES, key=repr)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_exported_value_types_print_past_the_digit_limit(digit_limit, cls):
    value = sample_of(cls)
    text = repr(value)
    assert BIG_TEXT in text
    assert text == generated_repr(value)
    wire = [name for name in dir(cls) if name.startswith("to_")]
    for name in wire:
        try:
            result = getattr(value, name)()
        except HeronianError:
            continue
        assert type(result) is (dict if name == "to_json_dict" else str)
    if "to_json_text" in wire:
        expected = lifted_digit_limit(lambda: json.dumps(value.to_json_dict()))
        assert value.to_json_text() == expected


@pytest.mark.parametrize(
    "cls",
    [cls for cls in VALUE_TYPES if dataclasses.is_dataclass(cls)],
    ids=lambda cls: cls.__name__,
)
def test_exported_dataclasses_are_value_types(cls):
    value = sample_of(cls)
    assert cls.__repr__ is fields_repr
    assert cls.__setattr__ is core._refuse_assignment
    assert cls.__delattr__ is core._refuse_deletion
    assert "__slots__" in cls.__dict__ and not hasattr(value, "__dict__")
    for name in field_names(cls) + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)


# A value of each kind; one whose type differs from a field's is wrong-typed
# for it.
FOREIGN = ["1", 1.5, True, 1, None, (1, 1)]


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_exported_value_types_refuse_a_wrong_typed_field(digit_limit, cls):
    value = sample_of(cls)
    names = field_names(cls)
    for name in names:
        for wrong in FOREIGN:
            if type(wrong) is type(getattr(value, name)):
                continue
            args = {field: getattr(value, field) for field in names}
            args[name] = wrong
            with pytest.raises(HeronianError):
                cls(**args)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_exported_value_types_hash_copy_and_convert(digit_limit, cls):
    value = sample_of(cls)
    names = field_names(cls)
    assert hash(value) == hash(copy.deepcopy(value))
    if dataclasses.is_dataclass(cls):
        assert len(dataclasses.astuple(value)) == len(names)
        assert list(dataclasses.asdict(value)) == names
    else:
        assert tuple(value) == tuple(getattr(value, name) for name in names)
        assert list(value._asdict()) == names
    if hasattr(copy, "replace"):  # Python 3.13 and later
        assert copy.replace(value) == value
