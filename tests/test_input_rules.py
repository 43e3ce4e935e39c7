"""Each input rule has one home in the library, and every rejection is one line.

The integer grammar is ASCII ``-?[0-9]+`` at every length, for CLI flags and
JSON alike; range rules raise :class:`HeronianError` from the library; the
CLI reports any rejection, argparse's included, as one stderr line.
"""

import argparse
import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amigram.cli as cli
from amigram import (
    HeronianError,
    IndexTooSmall,
    Parallelogram,
    RenderError,
    ZeroDimension,
    decimal_to_int,
    enumerate_by_area,
    family_pair,
    fib,
    int_to_decimal,
    lucas,
    model_vertices,
    non_amicable_witness_area,
    verify_family,
)
from amigram.families import fib_iterative, lucas_iterative

GRAMMAR = re.compile(r"-?[0-9]+")
HUGE = 10**5000


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "amigram", *args],
        capture_output=True,
        text=True,
    )


class TestIntegerGrammar:
    @pytest.mark.parametrize(
        "text",
        ["4_2", " 42", "42 ", "+42", "٢٦", "４２", "", "-", "--4", "0x2a", "1e3",
         "4.0", "+" + "1" * 5000, " " + "1" * 5000, "1" * 5000 + "\n"],
        ids=lambda text: repr(text)[:12],
    )
    def test_loose_text_rejected_at_every_length(self, text):
        with pytest.raises(HeronianError):
            decimal_to_int(text)

    @pytest.mark.parametrize("value", [42, None, 4.0, b"42"], ids=repr)
    def test_non_text_rejected(self, value):
        with pytest.raises(HeronianError):
            decimal_to_int(value)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="0123456789-+_ ٢x.", max_size=8))
    def test_accepts_exactly_the_grammar(self, text):
        if GRAMMAR.fullmatch(text):
            assert decimal_to_int(text) == int(text)
        else:
            with pytest.raises(HeronianError):
                decimal_to_int(text)


# Every integer flag the library sees, at zero and below, with the message
# it gets: the CLI checks only the grammar, so the message is the library's.
LIBRARY_MESSAGES = [
    (["check", "--area", "0", "--perimeter", "8"],
     "no Heronian parallelogram has area 0 and perimeter 8"),
    (["check", "--area", "-42", "--perimeter", "26"],
     "no Heronian parallelogram has area -42 and perimeter 26"),
    (["check", "--area", "42", "--perimeter", "0"],
     "perimeter must be an even integer >= 4, got 0"),
    (["check", "--area", "42", "--perimeter", "-26"],
     "perimeter must be an even integer >= 4, got -26"),
    (["check", "--base", "7", "--side", "6", "--area", "0"],
     "base, side, and area must be positive, got (7, 6, 0)"),
    (["check", "--base", "0", "--side", "6", "--area", "42"],
     "base, side, and area must be positive, got (0, 6, 42)"),
    (["check", "--base", "7", "--side", "0", "--area", "42"],
     "base, side, and area must be positive, got (7, 0, 42)"),
    (["check", "--base", "7", "--side", "-6", "--area", "42"],
     "base, side, and area must be positive, got (7, -6, 42)"),
    (["family", "--from", "0", "--to", "5"],
     "family is defined for n >= 4, got 0"),
    (["family", "--from", "-4", "--to", "5"],
     "family is defined for n >= 4, got -4"),
    (["family", "--from", "4", "--to", "0"],
     "empty range: stop 0 is below start 4"),
    (["family", "--from", "0", "--to", "0"],
     "family is defined for n >= 4, got 0"),
    (["verify", "--max-perimeter", "0"],
     "perimeter must be an even integer >= 4, got 0"),
    (["verify", "--max-perimeter", "-400"],
     "perimeter must be an even integer >= 4, got -400"),
    (["verify", "--max-perimeter", "41"],
     "perimeter must be an even integer >= 4, got 41"),
    (["enumerate", "--perimeter", "0"],
     "perimeter must be an even integer >= 4, got 0"),
    (["census", "--max-perimeter", "0"],
     "perimeter must be an even integer >= 4, got 0"),
    (["census", "--max-perimeter", "2"],
     "perimeter must be an even integer >= 4, got 2"),
    (["witness", "--area", "0"], "area must be positive, got 0"),
    (["witness", "--area", "-2"], "area must be positive, got -2"),
    (["witness", "--perimeter", "0"],
     "perimeter must be an even integer >= 4, got 0"),
    (["render", "--base", "0", "--side", "6", "--area", "42"],
     "base, side, and area must be positive, got (0, 6, 42)"),
    (["render", "--base", "7", "--side", "0", "--area", "42"],
     "base, side, and area must be positive, got (7, 0, 42)"),
    (["render", "--base", "7", "--side", "6", "--area", "0"],
     "base, side, and area must be positive, got (7, 6, 0)"),
]


class TestOneLineRejections:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--area", "4_2", "--perimeter", "26"],
            ["check", "--area", " 42", "--perimeter", "26"],
            ["check", "--area", "+42", "--perimeter", "26"],
            ["check", "--area", "42", "--perimeter", "٢٦"],
            ["check", "--area", "0", "--perimeter", "8"],
            ["check", "--area", "42"],
            ["check", "--perimeter", "26"],
            ["family", "--from", "10", "--to", "5"],
            ["family", "--from", "3", "--to", "5"],
            ["witness", "--area", "4", "--perimeter", "8"],
            ["witness"],
            ["bogus"],
            [],
        ],
        ids=lambda argv: " ".join(argv) or "no subcommand",
    )
    def test_exit_1_with_one_line(self, argv):
        result = run_cli(*argv)
        assert result.returncode == 1
        assert result.stderr.startswith("amigram: error:")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "argv, message",
        LIBRARY_MESSAGES,
        ids=[" ".join(argv) for argv, _ in LIBRARY_MESSAGES],
    )
    def test_zero_or_negative_flag_gets_the_library_message(self, argv, message, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"amigram: error: {message}\n"

    def test_only_threads_is_ranged_by_the_cli(self):
        # Any other integer flag reaches the library, which judges its range.
        sub = next(
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        ranged = {
            (name, option)
            for name, parser in sub.choices.items()
            for action in parser._actions
            if action.type is cli._positive_int
            for option in action.option_strings
        }
        assert ranged == {(name, "--threads") for name in sub.choices}

    def test_bad_integer_flag_carries_the_grammar(self):
        # argparse used to name the type function: "invalid _positive_int value"
        result = run_cli("check", "--area", "4_2", "--perimeter", "26")
        assert result.stderr == (
            "amigram: error: argument --area: not a decimal integer (-?[0-9]+): '4_2'\n"
        )

    def test_help_still_prints_usage(self):
        result = run_cli("check", "-h")
        assert result.returncode == 0
        assert result.stdout.startswith("usage: amigram check")

    def test_invariant_mode_past_the_limit(self):
        area = 2 * 10**4500
        perimeter = 2 * (10**4500 + 1)
        result = run_cli(
            "check", "--area", int_to_decimal(area),
            "--perimeter", int_to_decimal(perimeter),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith('{"amicable": true, "reason": "OK"')


class TestRangeRulesInTheLibrary:
    def test_empty_family_range(self):
        with pytest.raises(HeronianError, match="stop 5 is below start 10"):
            verify_family(10, 5)

    def test_empty_family_range_past_the_limit(self):
        with pytest.raises(HeronianError) as exc:
            verify_family(HUGE + 1, HUGE)
        assert int_to_decimal(HUGE) in str(exc.value)
        assert int_to_decimal(HUGE + 1) in str(exc.value)


class TestBigIntegerMessages:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: non_amicable_witness_area(-HUGE), ZeroDimension),
            (lambda: next(enumerate_by_area(-HUGE, 8)), ZeroDimension),
            (lambda: family_pair(-HUGE), IndexTooSmall),
        ],
        ids=["witness_area", "enumerate_by_area", "family_pair"],
    )
    def test_error_carries_the_full_decimal(self, call, error):
        with pytest.raises(error) as exc:
            call()
        assert int_to_decimal(-HUGE) in str(exc.value)

    @pytest.mark.parametrize("f", [fib, lucas, fib_iterative, lucas_iterative])
    def test_negative_index_is_a_heronian_error(self, f):
        with pytest.raises(HeronianError, match="got -1$"):
            f(-1)
        with pytest.raises(HeronianError) as exc:
            f(-HUGE)
        assert int_to_decimal(-HUGE) in str(exc.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: fib(n),
        lambda n: lucas(n),
        lambda n: fib_iterative(n),
        lambda n: lucas_iterative(n),
        lambda n: family_pair(n),
        lambda n: verify_family(n, 6),
        lambda n: verify_family(4, n),
    ],
    ids=["fib", "lucas", "fib_iterative", "lucas_iterative", "family_pair",
         "verify_family_start", "verify_family_stop"],
)
@pytest.mark.parametrize("index", [2.5, 5.0, "5", True, None], ids=repr)
def test_index_must_be_a_plain_int(call, index):
    with pytest.raises(HeronianError, match="^index must be an int, got "):
        call(index)


@pytest.mark.parametrize("data", [[1], None, "x"], ids=repr)
def test_from_json_dict_needs_a_mapping(data):
    with pytest.raises(HeronianError):
        Parallelogram.from_json_dict(data)


def fraction_vertices(shape):
    """The vertices by the exact rational route, converted at the end."""
    height = Fraction(shape.area, shape.base)
    offset_sq = Fraction(shape.side) ** 2 - height * height
    offset = math.sqrt(offset_sq.numerator / offset_sq.denominator)
    h = height.numerator / height.denominator
    b = float(shape.base)
    return [(0.0, 0.0), (b, 0.0), (b + offset, h), (offset, h)]


@st.composite
def shapes(draw, max_digits):
    digits = draw(st.integers(min_value=1, max_value=max_digits))
    base = draw(st.integers(min_value=1, max_value=10**digits))
    side = draw(st.integers(min_value=1, max_value=10**digits))
    area = draw(st.integers(min_value=1, max_value=base * side))
    return Parallelogram(base, side, area)


class TestIntegerVertices:
    @settings(max_examples=300, deadline=None)
    @given(shape=shapes(150))
    def test_bit_identical_to_the_rational_route(self, shape):
        assert model_vertices(shape) == fraction_vertices(shape)

    @settings(max_examples=100, deadline=None)
    @given(shape=shapes(400))
    def test_refused_exactly_where_the_rational_route_overflows(self, shape):
        try:
            expected = fraction_vertices(shape)
        except OverflowError:
            with pytest.raises(RenderError):
                model_vertices(shape)
        else:
            assert model_vertices(shape) == expected
