"""Every argv of the CLI corpus, ``argvs.txt``, run in process by ``cli.run``.

Each run returns 0, 1 or 2 and raises nothing.  Exit 1 writes nothing to
stdout and exactly one ``amigram: error:`` line to stderr; exits 0 and 2
write nothing to stderr.  A golden argv writes its golden.  The same holds
under a wrong rule, whatever constant answer ``closed_form`` gives, with
one more ending: a witness that fails its own check is exit 2 as one
stderr line, nothing on stdout.  ``diff_outputs.py`` runs the same corpus
as real processes in two trees, and ``tests/test_request_costs.py`` holds
in-process runs to fresh processes.
"""

import io
import sys
from pathlib import Path

import pytest
from diff_outputs import fill, read_argvs, show

import amigram.amicability as amicability
import amigram.cli as cli
from amigram.amicability import Reason

GOLDEN = Path(__file__).parent.parent / "golden"
GOLDENS = {
    "check --base 7 --side 6 --area 42": "check_7_6_42.json",
    "check --area 42 --perimeter 26": "check_7_6_42.json",
    "family --from 4 --to 10": "family_4_10.jsonl",
    "enumerate --perimeter 8": "enumerate_p8.csv",
    "rectangles": "rectangles.jsonl",
    "render --base 7 --side 6 --area 42 --companion": "render_7_6_42.svg",
}
ARGVS = read_argvs()


def short_id(argv):
    """``show(argv)`` with each token past 40 characters cut to its first
    three and its length, so an at-size argv keeps a short test id."""
    return show([token if len(token) <= 40 else f"{token[:3]}...{len(token)}" for token in argv])


def places_in(tmp_path):
    """The corpus placeholders, as paths under ``tmp_path``."""
    return {"file": str(tmp_path / "out.txt"), "missing": str(tmp_path / "missing"),
            "dir": str(tmp_path)}


def one_error_line(out, err):
    """Nothing on stdout and exactly one ``amigram: error:`` line on stderr."""
    return (
        out == ""
        and err.startswith("amigram: error: ")
        and err.count("\n") == 1
        and err.endswith("\n")
    )


@pytest.mark.parametrize("argv", ARGVS, ids=short_id)
def test_argv_ends_as_an_exit_code(argv, tmp_path):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli.run(fill(argv, places_in(tmp_path)), stdout, stderr)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert one_error_line(out, err)
    else:
        assert err == ""
    if show(argv) in GOLDENS:
        assert (code, out) == (0, (GOLDEN / GOLDENS[show(argv)]).read_text())


@pytest.mark.parametrize("reason", list(Reason), ids=lambda reason: reason.name)
def test_every_argv_ends_as_an_exit_code_under_a_wrong_rule(reason, monkeypatch, tmp_path):
    # Only amicability binds the rule (a CI gate holds this), so this one
    # patch reaches every route.  Under OK each witness fails its own check.
    monkeypatch.setattr(amicability, "closed_form", lambda area, perimeter: reason)
    for argv in ARGVS:
        stdout, stderr = io.StringIO(), io.StringIO()
        code = cli.run(fill(argv, places_in(tmp_path)), stdout, stderr)
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 1, 2), argv
        if code == 0:
            assert err == "", argv
        elif code == 1:
            assert one_error_line(out, err), argv
        elif err:
            # A failed self-check: no report, only the one line.
            assert one_error_line(out, err) and argv[0] == "witness", argv
        else:
            assert out or "-o" in argv, argv  # the report


HELPS = [argv for argv in ARGVS if {"-h", "--help"} & set(argv)]


@pytest.mark.parametrize("argv", HELPS, ids=show)
def test_help_ignores_the_terminal(argv, monkeypatch):
    # One layout under a narrow, a wide and no terminal width.
    answers = []
    for columns in ("40", "200", None):
        with monkeypatch.context() as env:
            if columns is None:
                env.delenv("COLUMNS", raising=False)
                env.delenv("LINES", raising=False)
            else:
                env.setenv("COLUMNS", columns)
            cli._build_parser.cache_clear()  # built under this environment too
            stdout, stderr = io.StringIO(), io.StringIO()
            answers.append((cli.run(argv, stdout, stderr), stdout.getvalue(), stderr.getvalue()))
    assert answers[0] == answers[1] == answers[2]
    assert answers[0][0] == 0 and answers[0][2] == ""


def test_corpus_holds_every_golden_and_every_help():
    lines = set(map(show, ARGVS))
    assert set(GOLDENS) <= lines
    assert set(GOLDENS.values()) == {path.name for path in GOLDEN.iterdir()}
    subcommands = cli._build_parser()._subparsers._group_actions[0].choices
    for name in [*subcommands, ""]:
        assert {f"{name} -h".strip(), f"{name} --help".strip()} & lines, name


# The argvs whose integers run past CPython's default 4300-digit limit.
AT_SIZE = [argv for argv in ARGVS if any(len(token) > 4300 for token in argv)]


def test_at_size_argvs_read_the_same_at_every_digit_limit():
    # With the limit lifted, plain int and str convert; at 640, the lowest
    # limit CPython takes, core's chunked routes convert every integer.
    assert len(AT_SIZE) == 4
    limit = sys.get_int_max_str_digits()
    answers = []
    try:
        for digits in (0, 640):
            sys.set_int_max_str_digits(digits)
            for argv in AT_SIZE:
                stdout, stderr = io.StringIO(), io.StringIO()
                code = cli.run(argv, stdout, stderr)
                answers.append((code, stdout.getvalue(), stderr.getvalue()))
    finally:
        sys.set_int_max_str_digits(limit)
    assert answers[:4] == answers[4:]
    assert [(code, err) for code, _, err in answers] == [(0, "")] * 8
