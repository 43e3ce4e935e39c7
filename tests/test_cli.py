import json
import subprocess
import sys
from pathlib import Path

import pytest

from amigram import (
    FamilyEntry,
    InvalidPerimeter,
    Parallelogram,
    Reason,
    companion_exists_bruteforce,
    fib,
    int_to_decimal,
    is_amicable_invariants,
)
from amigram.families import FamilyReportRow
from amigram.render import RenderSpec, render_svg
import amigram.amicability as amicability
import amigram.cli as cli
import amigram.families as families

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "amigram", *args],
        capture_output=True,
        text=True,
    )


class TestCheck:
    def test_triple_mode_matches_golden(self):
        result = run_cli("check", "--base", "7", "--side", "6", "--area", "42")
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "check_7_6_42.json").read_text()

    def test_invariant_mode_same_verdict(self):
        result = run_cli("check", "--area", "42", "--perimeter", "26")
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "check_7_6_42.json").read_text()

    def test_not_amicable_is_still_success(self):
        result = run_cli("check", "--base", "3", "--side", "4", "--area", "9")
        assert result.returncode == 0
        verdict = json.loads(result.stdout)
        assert verdict == {"amicable": False, "reason": "ODD_AREA", "companion": None}

    def test_unrealizable_pair_rejected(self):
        result = run_cli("check", "--area", "100", "--perimeter", "8")
        assert result.returncode == 1
        assert "amigram: error:" in result.stderr

    def test_odd_perimeter_rejected(self):
        result = run_cli("check", "--area", "4", "--perimeter", "7")
        assert result.returncode == 1

    def test_mixed_modes_rejected(self):
        result = run_cli(
            "check", "--area", "42", "--perimeter", "26", "--base", "7"
        )
        assert result.returncode == 1

    def test_missing_side_rejected(self):
        result = run_cli("check", "--base", "7", "--area", "42")
        assert result.returncode == 1

    def test_area_out_of_range_rejected(self):
        result = run_cli("check", "--base", "2", "--side", "3", "--area", "7")
        assert result.returncode == 1
        assert "amigram: error:" in result.stderr


class TestFamily:
    def test_matches_golden(self):
        result = run_cli("family", "--from", "4", "--to", "10")
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "family_4_10.jsonl").read_text()

    def test_rows_parse_and_pass(self):
        result = run_cli("family", "--from", "4", "--to", "10")
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        assert [row["n"] for row in rows] == list(range(4, 11))
        assert all(all(row["checks"].values()) for row in rows)

    def test_index_below_4_rejected(self):
        result = run_cli("family", "--from", "3", "--to", "5")
        assert result.returncode == 1

    def test_empty_range_rejected(self):
        result = run_cli("family", "--from", "5", "--to", "4")
        assert result.returncode == 1


class TestVerify:
    def test_small_grid(self):
        result = run_cli("verify", "--max-perimeter", "60")
        assert result.returncode == 0
        assert result.stdout == (
            "max perimeter: 60\n"
            "cells: 2360\n"
            "agreements: 2360\n"
            "disagreements: 0\n"
        )

    @pytest.mark.parametrize("threads", ["1", "2", "64"])
    def test_threads_do_not_change_output(self, threads):
        single = run_cli("verify", "--max-perimeter", "60")
        given = run_cli("verify", "--max-perimeter", "60", "--threads", threads)
        assert given.returncode == 0
        assert single.stdout == given.stdout

    def test_minimal_grid(self):
        result = run_cli("verify", "--max-perimeter", "4")
        assert "cells: 1\n" in result.stdout
        assert result.returncode == 0

    def test_odd_bound_rejected(self):
        result = run_cli("verify", "--max-perimeter", "7")
        assert result.returncode == 1

    def test_injected_disagreement_exits_2(self, monkeypatch, capsys):
        # force the closed form to lie on one cell; the brute force should
        # catch it and flip the exit code
        real = amicability.closed_form

        def liar(area, perimeter):
            if (area, perimeter) == (3, 8):
                return Reason.OK
            return real(area, perimeter)

        monkeypatch.setattr(amicability, "closed_form", liar)
        code = cli.main(["verify", "--max-perimeter", "8"])
        out = capsys.readouterr().out
        assert code == 2
        assert "disagreements: 1" in out
        assert "disagree: area=3 perimeter=8" in out

    def test_perimeters_taken_one_at_a_time(self, monkeypatch):
        class FirstCall(Exception):
            pass

        def refuse(perimeter):
            raise FirstCall(perimeter)

        # A row checks its perimeter before its first cell.
        monkeypatch.setattr(amicability, "require_even_perimeter", refuse)
        with pytest.raises(FirstCall) as info:
            cli.main(["verify", "--max-perimeter", "1000000000000"])
        assert info.value.args == (4,)

    def test_bruteforce_side_never_consults_the_closed_form(self, monkeypatch, capsys):
        # The row and the scan share amicability's bindings, so the rule
        # refuses only while a wrapped scan runs.
        real_scan = amicability.companion_scan
        scanning = False

        def scan(area, perimeter):
            nonlocal scanning
            scanning = True
            try:
                return real_scan(area, perimeter)
            finally:
                scanning = False

        def refuse(area, perimeter):
            raise AssertionError("the brute-force side must not call decide or closed_form")

        def rule(area, perimeter):
            if scanning:
                refuse(area, perimeter)
            if area % 2 == 0 and area * area >= 16 * perimeter:
                return Reason.OK
            return Reason.BOUND_FAIL

        monkeypatch.setattr(amicability, "decide", refuse)
        monkeypatch.setattr(amicability, "closed_form", rule)
        monkeypatch.setattr(amicability, "companion_scan", scan)
        assert cli.main(["verify", "--max-perimeter", "40"]) == 0
        assert capsys.readouterr().out == (
            "max perimeter: 40\ncells: 715\nagreements: 715\ndisagreements: 0\n"
        )

    def test_injected_bruteforce_lie_exits_2(self, monkeypatch, capsys):
        real = amicability.companion_scan

        def liar(area, perimeter):
            if (area, perimeter) == (4, 8):
                return True
            return real(area, perimeter)

        monkeypatch.setattr(amicability, "companion_scan", liar)
        code = cli.main(["verify", "--max-perimeter", "8"])
        out = capsys.readouterr().out
        assert code == 2
        assert "disagreements: 1" in out
        assert "disagree: area=4 perimeter=8" in out

    def test_lies_in_two_rows_are_reported_in_perimeter_order(self, monkeypatch, capsys):
        real = amicability.companion_scan
        # A false "yes" in the perimeter-8 row and a false "no" in the 16 row.
        lies = {(4, 8): True, (16, 16): False}

        def liar(area, perimeter):
            return lies.get((area, perimeter), real(area, perimeter))

        monkeypatch.setattr(amicability, "companion_scan", liar)
        code = cli.main(["verify", "--max-perimeter", "16"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert lines[3:] == [
            "disagreements: 2",
            "disagree: area=4 perimeter=8",
            "disagree: area=16 perimeter=16",
        ]
        cells = int(lines[1].removeprefix("cells: "))
        assert lines[2] == f"agreements: {cells - 2}"

    @pytest.mark.parametrize("perimeter", [7, 2])
    def test_row_refuses_impossible_perimeter(self, perimeter):
        with pytest.raises(InvalidPerimeter):
            amicability.verify_row(perimeter)

    def test_row_matches_the_public_routes(self):
        for perimeter in range(4, 121, 2):
            half = perimeter // 2
            areas = range(1, (half // 2) * ((half + 1) // 2) + 1)
            disagreements = [
                (area, perimeter)
                for area in areas
                if is_amicable_invariants(area, perimeter)
                != companion_exists_bruteforce(area, perimeter)
            ]
            assert amicability.verify_row(perimeter) == (len(areas), disagreements)


class TestEnumerate:
    def test_csv_matches_golden(self):
        result = run_cli("enumerate", "--perimeter", "8")
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "enumerate_p8.csv").read_text()

    def test_jsonl(self):
        result = run_cli("enumerate", "--perimeter", "8", "--format", "jsonl")
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(rows) == 7
        assert rows[0] == {
            "short_side": "1",
            "long_side": "3",
            "area": "1",
            "perimeter": "8",
            "amicable": False,
            "self_amicable": False,
        }

    def test_amicable_only(self):
        result = run_cli("enumerate", "--perimeter", "16", "--amicable-only")
        assert result.stdout.splitlines() == [
            "short_side,long_side,area,perimeter,amicable,self_amicable",
            "4,4,16,16,true,true",
        ]

    def test_bad_format_rejected(self):
        result = run_cli("enumerate", "--perimeter", "8", "--format", "xml")
        assert result.returncode == 1


class TestCensus:
    def test_frozen_table(self):
        result = run_cli("census", "--max-perimeter", "16")
        assert result.returncode == 0
        assert result.stdout == (
            "perimeter,total,amicable,self_amicable\n"
            "4,1,0,0\n"
            "6,2,0,0\n"
            "8,7,0,0\n"
            "10,10,0,0\n"
            "12,22,0,0\n"
            "14,28,0,0\n"
            "16,50,1,1\n"
        )


class TestRectangles:
    def test_matches_golden(self):
        result = run_cli("rectangles")
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "rectangles.jsonl").read_text()

    def test_distinct_pairs_listed_first(self):
        result = run_cli("rectangles")
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        assert [row["distinct"] for row in rows] == [True] * 5 + [False] * 2


class TestWitness:
    def test_by_area(self):
        result = run_cli("witness", "--area", "42")
        assert result.returncode == 0
        shape = json.loads(result.stdout)
        assert (shape["base"], shape["side"]) == ("42", "15")

    def test_by_perimeter(self):
        result = run_cli("witness", "--perimeter", "26")
        shape = json.loads(result.stdout)
        assert shape == {
            "base": "1",
            "side": "12",
            "area": "1",
            "height": {"num": "1", "den": "1"},
        }

    def test_both_arguments_rejected(self):
        result = run_cli("witness", "--area", "4", "--perimeter", "8")
        assert result.returncode == 1

    def test_neither_argument_rejected(self):
        result = run_cli("witness")
        assert result.returncode == 1


class TestRender:
    def test_matches_golden(self):
        result = run_cli(
            "render", "--base", "7", "--side", "6", "--area", "42", "--companion"
        )
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "render_7_6_42.svg").read_text()

    def test_non_amicable_companion_rejected(self):
        result = run_cli(
            "render", "--base", "3", "--side", "4", "--area", "9", "--companion"
        )
        assert result.returncode == 1

    @pytest.mark.parametrize(
        "flags,given",
        [
            ([], {}),
            (["--width", "800"], {"width": 800}),
            (["--height", "200"], {"height": 200}),
            (["--margin", "0"], {"margin": 0}),
            (
                ["--width", "800", "--height", "200", "--margin", "0"],
                {"width": 800, "height": 200, "margin": 0},
            ),
            (
                ["--companion", "--width", "900"],
                {"include_companion": True, "width": 900},
            ),
        ],
        ids=["no-canvas-flag", "width", "height", "margin", "all-three", "companion-width"],
    )
    def test_zero_margin_drawn_as_the_library_draws_it(self, capsys, flags, given):
        # An absent canvas flag takes RenderSpec's default, not one of the CLI's.
        argv = ["render", "--base", "7", "--side", "6", "--area", "42", *flags]
        assert cli.main(argv) == 0
        expected = render_svg(RenderSpec(Parallelogram(7, 6, 42), **given))
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--margin", "-1", "margin must be at least 0, got -1"),
            ("--width", "0", "width must be at least 1, got 0"),
            ("--height", "-5", "height must be at least 1, got -5"),
        ],
    )
    def test_canvas_ranges_judged_by_the_library(self, capsys, flag, value, message):
        code = cli.main(["render", "--base", "7", "--side", "6", "--area", "42", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"amigram: error: {message}\n"

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_canvas_past_float_range_is_one_line(self, capsys, flag):
        code = cli.main(
            ["render", "--base", "7", "--side", "6", "--area", "42", flag, "9" * 5000]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("amigram: error: canvas too large to draw")
        assert captured.err.count("\n") == 1


class TestCommonBehavior:
    def test_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        result = run_cli("enumerate", "--perimeter", "8", "-o", str(target))
        assert result.returncode == 0
        assert result.stdout == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode() == (GOLDEN / "enumerate_p8.csv").read_text()

    def test_runs_are_byte_identical(self):
        first = run_cli("family", "--from", "4", "--to", "6")
        second = run_cli("family", "--from", "4", "--to", "6")
        assert first.stdout == second.stdout

    def test_zero_is_not_a_positive_int(self):
        result = run_cli("check", "--area", "0", "--perimeter", "8")
        assert result.returncode == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--area", "42", "--perimeter", "26"],
            ["family", "--from", "4", "--to", "5"],
            ["verify", "--max-perimeter", "8"],
            ["enumerate", "--perimeter", "8"],
            ["census", "--max-perimeter", "8"],
            ["rectangles"],
            ["witness", "--area", "10"],
            ["render", "--base", "7", "--side", "6", "--area", "42"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_threads_checked_and_ignored(self, capsys, argv):
        assert cli.main(argv) == 0
        plain = capsys.readouterr()
        assert cli.main(argv + ["--threads", "64"]) == 0
        assert capsys.readouterr() == plain
        assert cli.main(argv + ["--threads", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "amigram: error: argument --threads: must be a positive integer, got 0\n"

    def test_missing_subcommand(self):
        result = run_cli()
        assert result.returncode == 1

    def test_unknown_subcommand(self):
        result = run_cli("bogus")
        assert result.returncode == 1

    def test_injected_family_failure_exits_2(self, monkeypatch, capsys):
        entry = FamilyEntry(4, Parallelogram(7, 6, 42), Parallelogram(8, 13, 26))
        fake = [FamilyReportRow(entry, (False, True, True, True, True))]
        # The family handler imports family_rows from its home module
        # when it runs, so the fake goes there.
        monkeypatch.setattr(families, "family_rows", lambda start, stop: iter(fake))
        code = cli.main(["family", "--from", "4", "--to", "4"])
        out = capsys.readouterr().out
        assert code == 2
        assert '"pair": false' in out
        assert out == json.dumps(fake[0].to_json_dict()) + "\n"


class TestBigIntegers:
    def test_family_past_the_str_digit_limit(self):
        result = run_cli("family", "--from", "11000", "--to", "11000")
        assert result.returncode == 0, result.stderr
        (row,) = [json.loads(line) for line in result.stdout.splitlines()]
        assert row["n"] == 11000
        assert all(row["checks"].values())
        partner = Parallelogram.from_json_dict(row["c"])
        assert partner == Parallelogram(fib(21998), fib(21999), 2 * fib(11003))
        assert len(row["c"]["side"]) > 4300

    def test_check_with_arguments_past_the_limit(self):
        base = 10**4500 + 1
        area = 2 * 10**4500
        result = run_cli(
            "check", "--base", int_to_decimal(base), "--side", "3",
            "--area", int_to_decimal(area),
        )
        assert result.returncode == 0, result.stderr
        verdict = json.loads(result.stdout)
        assert verdict["amicable"] is True
        partner = Parallelogram.from_json_dict(verdict["companion"])
        assert partner.perimeter == area
        assert partner.area == 2 * (base + 3)


class TestErrorsAreOneLine:
    def assert_one_line_exit_1(self, result):
        assert result.returncode == 1
        assert result.stderr.startswith("amigram: error:")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    def test_canvas_too_small(self):
        result = run_cli(
            "render", "--base", "7", "--side", "6", "--area", "42", "--width", "10"
        )
        self.assert_one_line_exit_1(result)

    def test_shape_too_large_to_draw(self):
        big = str(10**400)
        result = run_cli("render", "--base", big, "--side", big, "--area", big)
        self.assert_one_line_exit_1(result)

    def test_unwritable_output_file(self, tmp_path):
        target = tmp_path / "missing" / "x"
        result = run_cli("rectangles", "-o", str(target))
        self.assert_one_line_exit_1(result)
        assert not target.exists()
