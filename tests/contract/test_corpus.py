"""Every argv of the CLI corpus, ``argvs.txt``, run in process by ``cli.run``.

Each run returns 0, 1 or 2 and raises nothing.  Exit 1 writes nothing to
stdout and exactly one ``amigram: error:`` line to stderr; exits 0 and 2
write nothing to stderr.  A golden argv writes its golden.  ``diff_outputs.py``
runs the same corpus as real processes in two trees, and
``tests/test_request_costs.py`` holds in-process runs to fresh processes.
"""

import io
from pathlib import Path

import pytest
from diff_outputs import fill, read_argvs, show

import amigram.cli as cli

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


@pytest.mark.parametrize("argv", ARGVS, ids=show)
def test_argv_ends_as_an_exit_code(argv, tmp_path):
    places = {"file": str(tmp_path / "out.txt"), "missing": str(tmp_path / "missing"),
              "dir": str(tmp_path)}
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli.run(fill(argv, places), stdout, stderr)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("amigram: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
    if show(argv) in GOLDENS:
        assert (code, out) == (0, (GOLDEN / GOLDENS[show(argv)]).read_text())


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
