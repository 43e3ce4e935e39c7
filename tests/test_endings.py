"""Every way a CLI run ends, each case run as a real ``python -m amigram``.

Every ending of a run is ``cli.run``'s return value: a bad flag, a library
refusal and an output that cannot be written each give exit 1, the one
stderr line ``amigram: error: <message>`` and nothing on stdout, and ``-h``
is a report like any other, exit 0.  A witness that fails its own check,
under a rule patched to call every shape amicable, gives the same one line
with exit 2.  Nothing leaves by ``SystemExit``.
``cli.main`` adds only what a process has: an interrupt ends the process by
SIGINT and writes nothing, and a stdout whose write failed is dropped, so
the exit flush does not report it again.  No case prints a traceback.  A
reader that closes stdout early is covered in ``tests/test_output_path.py``.
"""

import io
import os
import signal
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import amigram.cli as cli

FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(not os.path.exists(FULL), reason="needs /dev/full")

# A report of each size: one line, a few batches of lines, and a listing.
ACCEPTED = [
    ["check", "--base", "7", "--side", "6", "--area", "42"],
    ["family", "--from", "4", "--to", "300"],
    ["enumerate", "--perimeter", "60"],
]

BAD_FLAGS = [
    [],
    ["bogus"],
    ["check", "--perimeter", "26"],
    ["check", "--area", "x"],
    ["enumerate", "--perimeter", "8", "--format", "xml"],
    ["witness", "--area", "10", "--perimeter", "26"],
    ["check", "--area", "42", "--perimeter", "26", "--threads", "0"],
    ["check", "--area", "42", "--perimeter", "26", "--bogus"],
]

REFUSED = [
    ["check", "--area", "42", "--perimeter", "7"],
    ["family", "--from", "10", "--to", "5"],
    ["verify", "--max-perimeter", "0"],
    ["render", "--base", "7", "--side", "6", "--area", "0"],
]


def run(argv, **kwargs):
    result = subprocess.run(
        [sys.executable, "-m", "amigram", *argv], capture_output=True, text=True, **kwargs
    )
    assert "Traceback" not in result.stderr
    return result


def assert_refused(result):
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("amigram: error: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


@needs_dev_full
@pytest.mark.parametrize(
    "argv",
    [*ACCEPTED, pytest.param(["check", "-h"], id="help")],  # -h is one more report
    ids=lambda argv: argv[0],
)
def test_stdout_that_cannot_be_written(argv):
    with open(FULL, "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "amigram", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert result.returncode == 1
    assert result.stderr == "amigram: error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX pipes")
def test_help_into_a_closed_pipe_ends_quietly():
    # The usage fits in stdout's buffer, so the closed pipe shows only when
    # it is flushed.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "amigram", "check", "-h"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0
    assert result.stderr == b""


@needs_dev_full
@pytest.mark.parametrize("argv", ACCEPTED, ids=lambda argv: argv[0])
def test_output_file_that_cannot_be_written(argv):
    result = run([*argv, "-o", FULL])
    assert_refused(result)
    assert result.stderr == f"amigram: error: cannot write {FULL}: No space left on device\n"


def test_output_into_a_directory(tmp_path):
    result = run([*ACCEPTED[0], "-o", str(tmp_path)])
    assert_refused(result)
    assert result.stderr.startswith(f"amigram: error: cannot write {tmp_path}: ")


def test_empty_output_path_is_refused():
    # -o is given when it is not None: "" names no file, so nothing reaches stdout.
    result = run([*ACCEPTED[0], "-o", ""])
    assert_refused(result)
    assert result.stderr == "amigram: error: cannot write : No such file or directory\n"


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=lambda argv: " ".join(argv) or "none")
def test_bad_flag(argv):
    assert_refused(run(argv))


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_library_refusal(argv):
    assert_refused(run(argv))


def test_a_witness_that_fails_its_own_check():
    # The library's AssertionError is the one ending of exit 2 that has no report.
    code = (
        "import sys\n"
        "import amigram.amicability as amicability\n"
        "import amigram.cli as cli\n"
        "amicability.closed_form = lambda area, perimeter: amicability.Reason.OK\n"
        "sys.exit(cli.main(['witness', '--area', '43']))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "amigram: error: witness Parallelogram(base=43, side=1, area=43) is amicable\n"
    )


@pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX signals")
def test_interrupt_ends_by_the_signal_and_writes_nothing():
    proc = subprocess.Popen(
        [sys.executable, "-m", "amigram", "family", "--from", "4", "--to", "1000000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()  # main is in its write loop
    proc.send_signal(signal.SIGINT)
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGINT
    assert stderr == b""


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=lambda argv: " ".join(argv) or "none")
def test_main_returns_1_for_a_bad_flag(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("amigram: error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["check", "-h"], ["render", "--help"]], ids=" ".join)
def test_help_is_a_report(argv, capsys):
    # Exit 0 and the usage argparse would print, with no line added or lost.
    parser = cli._build_parser()
    if len(argv) > 1:
        parser = parser._subparsers._group_actions[0].choices[argv[0]]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (parser.format_help(), "")
    stdout, stderr = io.StringIO(), io.StringIO()
    assert cli.run(argv, stdout, stderr) == 0
    assert (stdout.getvalue(), stderr.getvalue()) == (parser.format_help(), "")


class _NoDescriptor(io.TextIOBase):
    """A text sink with no file descriptor whose every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_write_to_a_stdout_with_no_descriptor(capsys):
    before = set(os.listdir("/proc/self/fd"))
    with redirect_stdout(_NoDescriptor()):
        code = cli.main(["check", "--base", "7", "--side", "6", "--area", "42"])
    after = set(os.listdir("/proc/self/fd"))
    assert code == 1
    assert capsys.readouterr().err == (
        "amigram: error: cannot write stdout: No space left on device\n"
    )
    assert after <= before


class _Untouchable:
    """Stands in for a process stream that no use may reach."""

    def __getattr__(self, name):
        raise AssertionError(f"the process's stream was used: .{name}")


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (ACCEPTED[0], 0, '{"amicable": true, ', ""),
        (REFUSED[0], 1, "", "amigram: error: "),
        (["check", "-h"], 0, "usage: amigram check", ""),
    ],
    ids=["accepted", "refused", "help"],
)
def test_run_touches_only_its_streams(monkeypatch, argv, code, out, err):
    # With no COLUMNS or LINES to read, argparse would ask sys.__stdout__
    # for the terminal's size.
    monkeypatch.delenv("COLUMNS", raising=False)
    monkeypatch.delenv("LINES", raising=False)
    cli._build_parser.cache_clear()  # the parser is built under the stand-ins too
    stdout, stderr = io.StringIO(), io.StringIO()
    with monkeypatch.context() as process:
        for name in ("stdout", "stderr", "__stdout__", "__stderr__", "argv"):
            process.setattr(sys, name, _Untouchable())
        assert cli.run(argv, stdout, stderr) == code
    assert stdout.getvalue().startswith(out) and bool(stdout.getvalue()) == bool(out)
    assert stderr.getvalue().startswith(err) and stderr.getvalue().count("\n") == bool(err)
