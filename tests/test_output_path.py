"""Every report leaves through one write loop in ``cli.main``.

Every handler keeps one contract: it checks its input before it returns, and
returns only its lines.  ``main`` writes them as they are produced, so a long
listing never exists in memory as a whole, and takes the exit code after the
last line, from the handler's generator.  Input is checked before the first
line, so a refusal writes nothing and creates no ``-o`` file, and a reader
that closes the pipe early ends the run quietly.
"""

import io
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout

import pytest

import amigram.cli as cli


class _Discard(io.TextIOBase):
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


# Perimeters whose reports run to 2.2 MB (CSV) and 3.4 MB (JSONL).
@pytest.mark.parametrize("fmt,perimeter", [("csv", "200"), ("jsonl", "140")])
def test_enumerate_streams_at_flat_memory(fmt, perimeter):
    argv = ["enumerate", "--perimeter", perimeter, "--format", fmt]
    with redirect_stdout(_Discard()):  # parser, imports and caches first
        assert cli.main(["enumerate", "--perimeter", "8", "--format", fmt]) == 0
    sink = _Discard()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 2_000_000  # the report is megabytes long
    assert peak < 1_000_000


def test_census_streams_at_flat_memory():
    # 50,000 rows, 1.88 MB: each row is counted as it is written.
    with redirect_stdout(_Discard()):  # parser, imports and caches first
        assert cli.main(["census", "--max-perimeter", "8"]) == 0
    sink = _Discard()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = cli.main(["census", "--max-perimeter", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 1_800_000
    assert peak < 1_000_000


def test_family_streams_at_flat_memory():
    # 2997 rows, 13 MB, whose integers grow to 1254 digits: each row is
    # checked and dropped as it is written, and the exit code comes after.
    with redirect_stdout(_Discard()):  # parser, imports and caches first
        assert cli.main(["family", "--from", "4", "--to", "10"]) == 0
    sink = _Discard()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = cli.main(["family", "--from", "4", "--to", "3000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 13_000_000
    assert peak < 1_000_000


class _RecordWrites(io.TextIOBase):
    """A text sink that keeps the size of each write and the longest line."""

    def __init__(self):
        self.sizes = []
        self.longest_line = 0

    def write(self, text):
        self.sizes.append(len(text))
        self.longest_line = max(self.longest_line, *map(len, text.split("\n")))
        return len(text)


def test_writes_are_bounded_by_characters():
    # family's lines grow with the index: at --to 1500 the longest is about
    # 4.4 KB, so 1024 of them would make one write of megabytes.
    sink = _RecordWrites()
    with redirect_stdout(sink):
        assert cli.main(["family", "--from", "4", "--to", "1500"]) == 0
    assert sum(sink.sizes) > 1_000_000
    assert max(sink.sizes) <= 65_536 + sink.longest_line + 1


REJECTED = [
    ["enumerate", "--perimeter", "7"],
    ["census", "--max-perimeter", "7"],
    ["family", "--from", "10", "--to", "5"],
    ["check", "--area", "1000000000", "--perimeter", "26"],
    ["verify", "--max-perimeter", "0"],
    ["witness", "--area", "0"],
    ["render", "--base", "7", "--side", "6", "--area", "0"],
]


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_rejection_writes_nothing(argv, tmp_path, capsys):
    target = tmp_path / "out"
    assert cli.main([*argv, "-o", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("amigram: error: ")
    assert captured.err.count("\n") == 1
    assert not target.exists()


# family's rows are computed only as they are written, so the rows past the
# closed pipe are never computed, and their exit code is never known: 0.
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--perimeter", "200", "--format", "csv"],
        ["enumerate", "--perimeter", "200", "--format", "jsonl"],
        ["family", "--from", "4", "--to", "6000"],
    ],
    ids=["csv", "jsonl", "family"],
)
def test_closed_pipe_ends_quietly(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "amigram", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_short_report_into_a_closed_pipe_ends_quietly(unbuffered):
    # The whole report fits in stdout's buffer, so with buffering the
    # closed pipe shows only when it is flushed.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        result = subprocess.run(
            [sys.executable, "-m", "amigram", "check", "--area", "42", "--perimeter", "26"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0
    assert result.stderr == b""


# Runs in a child whose stdout is a pipe with no reader, and reports the
# descriptors that cli.main left open.
_COUNT_OPEN_DESCRIPTORS = """
import os, sys
import amigram.cli as cli
before = set(os.listdir("/proc/self/fd"))
code = cli.main(["check", "--area", "42", "--perimeter", "26"])
after = set(os.listdir("/proc/self/fd"))
sys.stderr.write(f"{code} {sorted(after - before)}")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_pipe_leaves_no_descriptor_open():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-c", _COUNT_OPEN_DESCRIPTORS],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0
    assert result.stderr == b"0 []"
