"""Every way a CLI run ends, each case run as a real ``python -m amigram``.

A run that is refused ends in ``cli.main``, through one route: a bad flag, a
library refusal and an output that cannot be written each give exit 1, the
one stderr line ``amigram: error: <message>`` and nothing on stdout.  Only
``-h`` leaves by argparse's ``SystemExit(0)``.  An interrupt ends the process
by SIGINT and writes nothing.  No case prints a traceback.  A reader that
closes stdout early is covered in ``tests/test_output_path.py``.
"""

import os
import signal
import subprocess
import sys

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
@pytest.mark.parametrize("argv", ACCEPTED, ids=lambda argv: argv[0])
def test_stdout_that_cannot_be_written(argv):
    with open(FULL, "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "amigram", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert result.returncode == 1
    assert result.stderr == "amigram: error: cannot write stdout: No space left on device\n"


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


def test_only_help_raises(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: amigram check")
