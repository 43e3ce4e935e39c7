"""Fixed per-request costs must not change any answer.

The CLI builds its parser once per process and runs every subcommand in
that process, ``--threads`` included; the wire form converts each integer
once, and each JSON line is printed from a template, not by ``json``.
Every in-process ``cli.main`` call must still answer as a fresh process
does, the wire text must stay the one the ``Fraction`` route produced, and
each template must give exactly ``json.dumps`` of its ``to_json_dict``.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amigram.cli as cli
from amigram import (
    CensusRow,
    FamilyReportRow,
    HeronianError,
    Parallelogram,
    RectanglePair,
    amicable_rectangle_pairs,
    census_rows,
    classify,
    int_to_decimal,
    verify_family,
)

GOLDEN = Path(__file__).parent / "golden"

# Run in this order in one process: every subcommand, both check modes and
# both witness modes one after the other, rejections from argparse (through
# _Parser.error) and from the library, -h, and then the first call again.
SEQUENCE = [
    (["check", "--base", "7", "--side", "6", "--area", "42"], "check_7_6_42.json"),
    (["check", "--area", "42", "--perimeter", "26"], "check_7_6_42.json"),
    (["family", "--from", "4", "--to", "10"], "family_4_10.jsonl"),
    (["verify", "--max-perimeter", "20"], None),
    (["enumerate", "--perimeter", "8"], "enumerate_p8.csv"),
    (["enumerate", "--perimeter", "8", "--format", "jsonl", "--amicable-only"], None),
    (["census", "--max-perimeter", "30"], None),
    (["rectangles"], "rectangles.jsonl"),
    (["witness", "--area", "10"], None),
    (["witness", "--perimeter", "26"], None),
    (["render", "--base", "7", "--side", "6", "--area", "42", "--companion"],
     "render_7_6_42.svg"),
    (["check", "--area", "4_2", "--perimeter", "26"], None),
    (["witness", "--area", "4", "--perimeter", "8"], None),
    (["check", "--area", "42", "--perimeter", "7"], None),
    (["check", "-h"], None),
    (["check", "--base", "7", "--side", "6", "--area", "42"], "check_7_6_42.json"),
]


def in_process(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def in_subprocess(argv):
    result = subprocess.run(
        [sys.executable, "-m", "amigram", *argv], capture_output=True, text=True
    )
    return result.returncode, result.stdout, result.stderr


def test_repeated_main_calls_answer_as_fresh_processes(capsys):
    answers = [in_process(argv, capsys) for argv, _ in SEQUENCE]
    assert cli._build_parser() is cli._build_parser()
    for (argv, golden), answer in zip(SEQUENCE, answers):
        assert answer == in_subprocess(argv), argv
        if golden is not None:
            assert answer[:2] == (0, (GOLDEN / golden).read_text()), argv
    codes = [code for code, _, _ in answers]
    assert codes == [0] * 11 + [1, 1, 1, 0, 0]


def test_import_leaves_multiprocessing_out():
    code = (
        "import os, sys\n"
        "from contextlib import redirect_stdout\n"
        "import amigram.cli as cli\n"
        "with open(os.devnull, 'w') as sink, redirect_stdout(sink):\n"
        "    assert cli.main(['verify', '--max-perimeter', '40', '--threads', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_json_lines_leave_json_out():
    code = (
        "import os, sys\n"
        "from contextlib import redirect_stdout\n"
        "import amigram.cli as cli\n"
        "with open(os.devnull, 'w') as sink, redirect_stdout(sink):\n"
        "    assert cli.main(['check', '--base', '7', '--side', '6', '--area', '42']) == 0\n"
        "    assert cli.main(['family', '--from', '4', '--to', '10']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'json'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def wire_by_fraction(shape):
    """The wire form built the literal way, with the height as a Fraction."""
    height = Fraction(shape.area, shape.base)
    return {
        "base": int_to_decimal(shape.base),
        "side": int_to_decimal(shape.side),
        "area": int_to_decimal(shape.area),
        "height": {
            "num": int_to_decimal(height.numerator),
            "den": int_to_decimal(height.denominator),
        },
    }


@st.composite
def scaled_shapes(draw):
    """area = num*common and base = den*common, each up to 5000 digits;
    common is 1 (often coprime) or larger (never coprime)."""
    digits = draw(st.integers(min_value=1, max_value=2500))
    num = draw(st.integers(min_value=1, max_value=10**digits))
    den = draw(st.integers(min_value=1, max_value=10**digits))
    common = draw(st.one_of(st.just(1), st.integers(2, 10**digits)))
    area = num * common
    return Parallelogram(den * common, area, area)  # side = area fits any base


class TestWireForm:
    @settings(max_examples=150, deadline=None)
    @given(shape=scaled_shapes())
    @example(shape=Parallelogram(10**4999 + 1, 10**4999, 10**4999))
    @example(shape=Parallelogram(6 * 10**4999, 10**4999, 4 * 10**4999))
    def test_height_in_lowest_terms_and_text_unchanged(self, shape):
        wire = shape.to_json_dict()
        height = Fraction(shape.area, shape.base)
        assert wire["height"] == {
            "num": int_to_decimal(height.numerator),
            "den": int_to_decimal(height.denominator),
        }
        assert json.dumps(wire) == json.dumps(wire_by_fraction(shape))
        assert Parallelogram.from_json_dict(json.loads(json.dumps(wire))) == shape

    @pytest.mark.parametrize("digits", [1, 5000])
    def test_unreduced_height_rejected(self, digits):
        shape = Parallelogram(4 * 10**digits, 3, 6 * 10**digits)
        wire = shape.to_json_dict()
        wire["height"] = {"num": wire["area"], "den": wire["base"]}
        with pytest.raises(HeronianError, match="in lowest terms$"):
            Parallelogram.from_json_dict(wire)

    def test_unreduced_height_message_unchanged(self):
        wire = Parallelogram(4, 3, 6).to_json_dict()
        wire["height"] = {"num": "6", "den": "4"}
        with pytest.raises(HeronianError) as exc:
            Parallelogram.from_json_dict(wire)
        assert str(exc.value) == "height field 6/4 is not area/base = 3/2 in lowest terms"

    @pytest.mark.parametrize("field", ["num", "den"])
    @pytest.mark.parametrize("value", [True, 1.0], ids=repr)
    def test_non_integer_height_field_rejected(self, field, value):
        wire = Parallelogram(1, 1, 1).to_json_dict()
        wire["height"][field] = value
        with pytest.raises(HeronianError, match=f"field '{field}'"):
            Parallelogram.from_json_dict(wire)

    def test_reused_text_must_match_in_type(self):
        # the area as a JSON integer and num as equal text still parse
        wire = {"base": 2, "side": 3, "area": "3", "height": {"num": 3, "den": "2"}}
        assert Parallelogram.from_json_dict(wire) == Parallelogram(2, 3, 3)


# base and side up to 60, and an area spread over 1..base*side
SMALL_SHAPES = st.builds(
    lambda base, side, permille: Parallelogram(base, side, max(1, permille * base * side // 1000)),
    st.integers(1, 60),
    st.integers(1, 60),
    st.integers(1, 1000),
)
BIG = st.integers(1, 5000).flatmap(lambda digits: st.integers(1, 10**digits))
FAMILY_CHECKS = ["pair", "amicable_h", "amicable_c", "identity", "existence_bound"]


def dumps(value):
    """The oracle every template is held to."""
    return json.dumps(value.to_json_dict())


class TestJsonText:
    """``to_json_text()`` is ``json.dumps(to_json_dict())``, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(shape=scaled_shapes())
    @example(shape=Parallelogram(10**4999 + 1, 10**4999, 10**4999))
    @example(shape=Parallelogram(6 * 10**4999, 10**4999, 4 * 10**4999))
    def test_shape(self, shape):
        assert shape.to_json_text() == dumps(shape)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.one_of(SMALL_SHAPES, scaled_shapes()))
    @example(shape=Parallelogram(7, 6, 42))  # OK
    @example(shape=Parallelogram(7, 6, 41))  # ODD_AREA
    @example(shape=Parallelogram(3, 1, 2))  # BOUND_FAIL
    def test_verdict(self, shape):
        verdict = classify(shape)
        assert verdict.to_json_text() == dumps(verdict)

    def test_verdict_examples_cover_every_reason(self):
        shapes = [Parallelogram(7, 6, 42), Parallelogram(7, 6, 41), Parallelogram(3, 1, 2)]
        assert [classify(shape).reason.value for shape in shapes] == [
            "OK", "ODD_AREA", "BOUND_FAIL"
        ]

    @settings(max_examples=100, deadline=None)
    # canonical shapes with sides up to 5000 digits, the area spread over
    # 1..short*long as in SMALL_SHAPES
    @given(sides=st.tuples(BIG, BIG), permille=st.integers(1, 1000))
    @example(sides=(4, 4), permille=1000)  # amicable and self-amicable
    @example(sides=(7, 6), permille=1000)  # amicable only
    @example(sides=(2, 1), permille=1000)  # neither
    def test_census_row(self, sides, permille):
        short, long = sorted(sides)
        row = CensusRow(short, long, max(1, permille * short * long // 1000))
        assert row.to_json_text() == dumps(row)

    def test_census_rows(self):
        rows = list(census_rows(26))
        assert {(row.amicable, row.self_amicable) for row in rows} == {
            (False, False), (True, False), (True, True)
        }
        for row in rows:
            assert row.to_json_text() == dumps(row)

    @settings(max_examples=100, deadline=None)
    # JSON integers, which json.dumps refuses past the int/str digit limit
    @given(sides=st.tuples(*[st.integers(1, 10**600)] * 4), self_paired=st.booleans())
    def test_rectangle_pair(self, sides, self_paired):
        first = sides[:2]
        pair = RectanglePair(first, first if self_paired else sides[2:])
        assert pair.to_json_text() == dumps(pair)

    def test_rectangle_pairs(self):
        pairs = amicable_rectangle_pairs()
        assert {pair.distinct for pair in pairs} == {True, False}
        for pair in pairs:
            assert pair.to_json_text() == dumps(pair)

    @pytest.mark.parametrize("start, stop", [(4, 300), (11000, 11000)])
    def test_family_rows(self, start, stop):
        for row in verify_family(start, stop):
            assert row.to_json_text() == dumps(row)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(4, 300), results=st.tuples(*[st.booleans()] * 5))
    @example(n=4, results=(False, True, True, True, True))  # as tests/test_cli.py injects
    @example(n=9, results=tuple(name != "identity" for name in FAMILY_CHECKS))
    def test_hand_built_family_row(self, n, results):
        (row,) = verify_family(n, n)
        row = FamilyReportRow(row.entry, results)
        assert row.to_json_text() == dumps(row)
        assert json.loads(row.to_json_text())["checks"] == dict(zip(FAMILY_CHECKS, results))
