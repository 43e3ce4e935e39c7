"""Value types stay compatible with the dataclasses they were declared as.

``core.value_type`` builds each value type itself, without importing
``dataclasses``, where the types used to be
``@dataclass(frozen=True, slots=True)`` classes.  What callers see of that
must not change:
- A value type's state is the list of its field values, built back through
  ``copyreg.__newobj__`` and ``__setstate__``, so a pickle written by the
  dataclasses still loads.  The bytes below are such pickles, protocols 2
  and 5, written by CPython 3.11 from one value of each of the eight value
  types.  CPython 3.10 to 3.13 all write the same bytes.
- A constructor called with an argument missing, one too many, or an
  unknown keyword raises the ``TypeError`` text a plain frozen dataclass
  with the same fields raises.
- ``__dataclass_params__`` says frozen slots dataclass, with the generated
  ``__init__``, repr, ``__eq__`` and ``__hash__`` and no ordering.
"""

import copyreg
import dataclasses
import pickle

import pytest

from amigram import (
    CensusRow,
    FamilyEntry,
    FamilyReportRow,
    Parallelogram,
    PerimeterCounts,
    Reason,
    RectanglePair,
    RenderSpec,
    Verdict,
)

SHAPE = Parallelogram(7, 6, 42)
ENTRY = FamilyEntry(4, SHAPE, Parallelogram(8, 13, 26))
VALUES = [
    SHAPE,
    Verdict(True, Reason.OK, Parallelogram(11, 10, 26)),
    CensusRow(6, 7, 42),
    PerimeterCounts(26, 42, 11, 1),
    RectanglePair((1, 54), (5, 22)),
    ENTRY,
    FamilyReportRow(ENTRY, (True, False, True, True, False)),
    RenderSpec(SHAPE, True, 320),
]

PICKLES = {
    Parallelogram: {
        2: (
            b'\x80\x02camigram.core\nParallelogram\nq\x00)\x81q\x01]q\x02(K\x07K'
            b'\x06K*eb.'
        ),
        5: (
            b'\x80\x05\x950\x00\x00\x00\x00\x00\x00\x00\x8c\x0camigram.core\x94'
            b'\x8c\rParallelogram\x94\x93\x94)\x81\x94]\x94(K\x07K\x06K*eb.'
        ),
    },
    Verdict: {
        2: (
            b'\x80\x02camigram.amicability\nVerdict\nq\x00)\x81q\x01]q\x02(\x88c'
            b'amigram.amicability\nReason\nq\x03X\x02\x00\x00\x00OKq\x04\x85q'
            b'\x05Rq\x06camigram.core\nParallelogram\nq\x07)\x81q\x08]q\t(K\x0bK'
            b'\nK\x1aebeb.'
        ),
        5: (
            b'\x80\x05\x95q\x00\x00\x00\x00\x00\x00\x00\x8c\x13amigram.amicabili'
            b'ty\x94\x8c\x07Verdict\x94\x93\x94)\x81\x94]\x94(\x88h\x00\x8c\x06R'
            b'eason\x94\x93\x94\x8c\x02OK\x94\x85\x94R\x94\x8c\x0camigram.core'
            b'\x94\x8c\rParallelogram\x94\x93\x94)\x81\x94]\x94(K\x0bK\nK\x1aebe'
            b'b.'
        ),
    },
    CensusRow: {
        2: (
            b'\x80\x02camigram.census\nCensusRow\nq\x00)\x81q\x01]q\x02(K\x06K'
            b'\x07K*eb.'
        ),
        5: (
            b'\x80\x05\x95.\x00\x00\x00\x00\x00\x00\x00\x8c\x0eamigram.census'
            b'\x94\x8c\tCensusRow\x94\x93\x94)\x81\x94]\x94(K\x06K\x07K*eb.'
        ),
    },
    PerimeterCounts: {
        2: (
            b'\x80\x02camigram.census\nPerimeterCounts\nq\x00)\x81q\x01]q\x02(K'
            b'\x1aK*K\x0bK\x01eb.'
        ),
        5: (
            b'\x80\x05\x956\x00\x00\x00\x00\x00\x00\x00\x8c\x0eamigram.census'
            b'\x94\x8c\x0fPerimeterCounts\x94\x93\x94)\x81\x94]\x94(K\x1aK*K\x0b'
            b'K\x01eb.'
        ),
    },
    RectanglePair: {
        2: (
            b'\x80\x02camigram.census\nRectanglePair\nq\x00)\x81q\x01]q\x02(K'
            b'\x01K6\x86q\x03K\x05K\x16\x86q\x04eb.'
        ),
        5: (
            b'\x80\x05\x958\x00\x00\x00\x00\x00\x00\x00\x8c\x0eamigram.census'
            b'\x94\x8c\rRectanglePair\x94\x93\x94)\x81\x94]\x94(K\x01K6\x86\x94K'
            b'\x05K\x16\x86\x94eb.'
        ),
    },
    FamilyEntry: {
        2: (
            b'\x80\x02camigram.families\nFamilyEntry\nq\x00)\x81q\x01]q\x02(K'
            b'\x04camigram.core\nParallelogram\nq\x03)\x81q\x04]q\x05(K\x07K\x06'
            b'K*ebh\x03)\x81q\x06]q\x07(K\x08K\rK\x1aebeb.'
        ),
        5: (
            b'\x80\x05\x95m\x00\x00\x00\x00\x00\x00\x00\x8c\x10amigram.families'
            b'\x94\x8c\x0bFamilyEntry\x94\x93\x94)\x81\x94]\x94(K\x04\x8c\x0cami'
            b'gram.core\x94\x8c\rParallelogram\x94\x93\x94)\x81\x94]\x94(K\x07K'
            b'\x06K*ebh\x07)\x81\x94]\x94(K\x08K\rK\x1aebeb.'
        ),
    },
    FamilyReportRow: {
        2: (
            b'\x80\x02camigram.families\nFamilyReportRow\nq\x00)\x81q\x01]q\x02('
            b'camigram.families\nFamilyEntry\nq\x03)\x81q\x04]q\x05(K\x04camigra'
            b'm.core\nParallelogram\nq\x06)\x81q\x07]q\x08(K\x07K\x06K*ebh\x06)'
            b'\x81q\t]q\n(K\x08K\rK\x1aebeb(\x88\x89\x88\x88\x89tq\x0beb.'
        ),
        5: (
            b'\x80\x05\x95\x93\x00\x00\x00\x00\x00\x00\x00\x8c\x10amigram.famili'
            b'es\x94\x8c\x0fFamilyReportRow\x94\x93\x94)\x81\x94]\x94(h\x00\x8c'
            b'\x0bFamilyEntry\x94\x93\x94)\x81\x94]\x94(K\x04\x8c\x0camigram.cor'
            b'e\x94\x8c\rParallelogram\x94\x93\x94)\x81\x94]\x94(K\x07K\x06K*ebh'
            b'\x0b)\x81\x94]\x94(K\x08K\rK\x1aebeb(\x88\x89\x88\x88\x89t\x94eb.'
        ),
    },
    RenderSpec: {
        2: (
            b'\x80\x02camigram.render\nRenderSpec\nq\x00)\x81q\x01]q\x02(camigra'
            b'm.core\nParallelogram\nq\x03)\x81q\x04]q\x05(K\x07K\x06K*eb\x88M@'
            b'\x01Mh\x01K\x18eb.'
        ),
        5: (
            b'\x80\x05\x95a\x00\x00\x00\x00\x00\x00\x00\x8c\x0eamigram.render'
            b'\x94\x8c\nRenderSpec\x94\x93\x94)\x81\x94]\x94(\x8c\x0camigram.cor'
            b'e\x94\x8c\rParallelogram\x94\x93\x94)\x81\x94]\x94(K\x07K\x06K*eb'
            b'\x88M@\x01Mh\x01K\x18eb.'
        ),
    },
}


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
@pytest.mark.parametrize("protocol", [2, 5])
def test_a_dataclass_pickle_loads_equal_to_the_value(value, protocol):
    again = pickle.loads(PICKLES[type(value)][protocol])
    assert type(again) is type(value) and again == value
    assert repr(again) == repr(value)
    assert pickle.dumps(value, protocol) == PICKLES[type(value)][protocol]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_the_reduction_is_newobj_with_the_field_list(value):
    fields = [getattr(value, name) for name in type(value).__match_args__]
    assert value.__reduce_ex__(2) == (copyreg.__newobj__, (type(value),), fields, None, None)


def reference_class(cls):
    """A plain frozen dataclass with the name, fields and defaults of ``cls``."""
    fields = [
        (field.name, field.type)
        if field.default is dataclasses.MISSING
        else (field.name, field.type, field.default)
        for field in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def type_error(build):
    with pytest.raises(TypeError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_a_wrong_argument_list_raises_the_dataclass_text(value):
    cls = type(value)
    reference = reference_class(cls)
    fields = [getattr(value, name) for name in cls.__match_args__]
    for args, kwargs in [
        ((), {}),
        ((), {cls.__match_args__[-1]: fields[-1]}),
        (fields + [None], {}),
        (fields, {"extra": None}),
        (fields, {cls.__match_args__[0]: fields[0]}),
    ]:
        expected = type_error(lambda: reference(*args, **kwargs))
        assert type_error(lambda: cls(*args, **kwargs)) == expected


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_the_dataclass_params_are_frozen_slots(value):
    params = type(value).__dataclass_params__
    assert (params.init, params.repr, params.eq, params.frozen) == (True,) * 4
    assert (params.order, params.unsafe_hash) == (False, False)
    assert getattr(params, "slots", True)  # recorded from Python 3.12 on
