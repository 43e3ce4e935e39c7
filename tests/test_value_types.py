"""The two value types built once per shape keep their contract.

``Parallelogram`` and ``Verdict`` store their fields through slot
descriptors in hand-written constructors.  They must still behave exactly
like frozen dataclasses: assignment refused, no instance ``__dict__``, and
equality, hashing, repr, tuples, pickling and copying as a plain
``@dataclass(frozen=True)`` with the same fields gives.  Every rejection
keeps its exception class and its message text.  These two and the census
rows and tallies, all slots dataclasses, refuse any attribute with
``FrozenInstanceError``, field or not.  Census rows and family report rows
refuse a flag or check value that is not a bool, as a verdict does.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amigram import (
    AreaOutOfRange,
    CensusRow,
    FamilyEntry,
    FamilyReportRow,
    HeronianError,
    NonIntegerDimension,
    Parallelogram,
    PerimeterCounts,
    Reason,
    Verdict,
    ZeroDimension,
)

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
    assert type(info.value) is ValueError
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
    CensusRow(6, 7, 42, 26, True, False),
    PerimeterCounts(26, 42, 11, 1),
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


# 1 == True and 0 == False, but to_json_dict and to_csv would print them as
# numbers where to_json_text prints true and false.
NOT_BOOLS = [1, 0, 1.0, None, "true"]


@pytest.mark.parametrize("flag", NOT_BOOLS, ids=repr)
@pytest.mark.parametrize("position", [4, 5])
def test_census_row_flags_must_be_bools(flag, position):
    args = [1, 2, 2, 6, True, False]
    args[position] = flag
    kinds = [type(value).__name__ for value in args[4:]]
    message = f"amicable and self_amicable must be bools, got ({kinds[0]}, {kinds[1]})"
    with pytest.raises(HeronianError) as info:
        CensusRow(*args)
    assert type(info.value) is HeronianError
    assert str(info.value) == message
    row = CensusRow(1, 2, 2, 6, True, False)
    with pytest.raises(HeronianError, match="^amicable and self_amicable must be bools"):
        dataclasses.replace(row, **{("amicable", "self_amicable")[position - 4]: flag})


FAMILY_ENTRY = FamilyEntry(4, Parallelogram(7, 6, 42), Parallelogram(8, 13, 26))


@pytest.mark.parametrize("value", NOT_BOOLS, ids=repr)
def test_family_row_checks_must_be_bools(value):
    checks = {"pair": True, "identity": value, "existence_bound": False}
    with pytest.raises(HeronianError) as info:
        FamilyReportRow(FAMILY_ENTRY, checks)
    assert type(info.value) is HeronianError
    assert str(info.value) == f"check 'identity' must be a bool, got {type(value).__name__}"

