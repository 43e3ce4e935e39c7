"""Command-line front end.

Subcommands: check, family, verify, enumerate, census, rectangles, witness,
render.  The module parses flags and writes the library's rows; it binds no
decision rule: ``verify``'s cells are :func:`amicability.verify_row` and
its grid, like ``census``'s, is :func:`core.perimeters_up_to`.  Nor does it
hold a default the library holds: ``render``'s canvas flags default to
None, and an absent one takes :class:`render.RenderSpec`'s value.  Every
handler keeps one contract: it checks its input before it returns, and it
returns only its lines.  run alone writes them, to the stdout it is given
unless -o is given, and takes the exit code after the last line: the
return value of a handler's generator, where None, or lines that are not a
generator, count as 0.  -h is one more report: its usage goes through the
same writes, exit 0.  Every ending of a run is run's return value, and no
run ends in a traceback: a bad flag, a library refusal and an output that
cannot be written each write the one line ``amigram: error: <message>`` to
the stderr it is given and return 1; a witness that fails its own check
(the library's ``AssertionError``) writes the same one line and returns 2,
with nothing on stdout and no -o file; and a reader that closes stdout ends
the run quietly.  run reads no sys attribute, no file descriptor and no
environment variable: -h is laid out 78 columns wide, whatever the
terminal.  main is run on sys.stdout and sys.stderr plus what only a
process has: an interrupt ends the process by SIGINT, and a stdout whose
write failed is dropped, so the exit flush cannot report it again.
Exit codes:
0 = computed successfully (a "not amicable" verdict is a success),
1 = invalid input or an output that cannot be written,
2 = a mathematical cross-check failed (a bug): a verify disagreement or a
    failed family row, after the report, or a witness the rule calls
    amicable, as the one stderr line.

Standard output is a pure function of the arguments: fixed field order,
LF line endings, no timestamps or locale-dependent formatting.  A JSON line
is the ``to_json_text()`` of the value it reports, which gives exactly
``json.dumps(value.to_json_dict())``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Generator, Iterable, Sequence, TextIO

from .amicability import (
    classify,
    classify_invariants,
    verify_row,
)
from .core import (
    HeronianError,
    Parallelogram,
    decimal_to_int,
    perimeters_up_to,
)

# census, families and render are imported inside the handlers that use
# them, so a subcommand loads only the modules it runs.


class _Help(Exception):
    """-h's usage text, raised where argparse would print it and exit."""


class _Parser(argparse.ArgumentParser):
    # argparse sizes help to the terminal; this layout is fixed at the 78
    # columns it gives an 80-column one.
    def __init__(self, **kwargs):
        layout = functools.partial(argparse.HelpFormatter, width=78)
        super().__init__(formatter_class=layout, **kwargs)

    # argparse prints usage and exits 2 on usage errors; 2 is reserved here
    # for failed mathematical verification, so run reports them like any
    # other invalid input.
    def error(self, message: str):
        raise HeronianError(message)

    # -h prints to sys.stdout and exits in argparse; run writes it instead.
    def print_help(self, file=None):
        raise _Help(self.format_help())


def _integer(text: str) -> int:
    # The type of every integer flag the library sees: the CLI checks only
    # decimal_to_int's grammar, and the library alone judges the range, with
    # its own message.  argparse reports a plain ValueError as "invalid
    # <function name> value"; ArgumentTypeError makes it print the library's.
    try:
        return decimal_to_int(text)
    except HeronianError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    # Only --threads is ranged here: no library function sees it.
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _cmd_check(args) -> Iterable[str]:
    if args.perimeter is not None and args.base is None and args.side is None:
        verdict = classify_invariants(args.area, args.perimeter)
    elif args.perimeter is None and args.base is not None and args.side is not None:
        verdict = classify(Parallelogram(args.base, args.side, args.area))
    else:
        raise HeronianError("give either --area/--perimeter or --base/--side/--area")
    return [verdict.to_json_text()]


def _cmd_family(args) -> Generator[str, None, int]:
    from .families import family_rows

    return _family_lines(family_rows(args.start, args.stop))  # checks the range now


def _family_lines(rows) -> Generator[str, None, int]:
    """Each row's line as it is computed; 2 after the last if any failed."""
    passed = True
    for row in rows:
        passed = passed and row.passed
        yield row.to_json_text()
    return 0 if passed else 2


def _cmd_verify(args) -> Generator[str, None, int]:
    perimeters = perimeters_up_to(args.max_perimeter)  # checked before the first line
    return _verify_lines(args.max_perimeter, map(verify_row, perimeters))


def _verify_lines(max_perimeter: int, rows) -> Generator[str, None, int]:
    """Every grid row in this process, one perimeter at a time, keeping
    only the running cell count and the disagreements: the agreements are
    the cells that did not disagree.  The totals come first, so the whole
    grid is computed before the first line."""
    cells = 0
    disagreements = []
    for row_cells, row_disagreements in rows:
        cells += row_cells
        disagreements.extend(row_disagreements)
    yield f"max perimeter: {max_perimeter}"
    yield f"cells: {cells}"
    yield f"agreements: {cells - len(disagreements)}"
    yield f"disagreements: {len(disagreements)}"
    for area, perimeter in disagreements:
        yield f"disagree: area={area} perimeter={perimeter}"
    return 2 if disagreements else 0


def _cmd_enumerate(args) -> Iterable[str]:
    from .census import CSV_HEADER, CensusRow, census_rows

    rows = census_rows(args.perimeter)  # checks the perimeter now
    if args.amicable_only:
        rows = (row for row in rows if row.amicable)
    if args.format == "csv":
        return chain([CSV_HEADER], map(CensusRow.to_csv, rows))
    return map(CensusRow.to_json_text, rows)


def _cmd_census(args) -> Iterable[str]:
    from .census import perimeter_counts

    perimeters = perimeters_up_to(args.max_perimeter)  # checked before the first line
    counts = map(perimeter_counts, perimeters)
    return chain(
        ["perimeter,total,amicable,self_amicable"],
        (f"{c.perimeter},{c.total},{c.amicable},{c.self_amicable}" for c in counts),
    )


def _cmd_rectangles(args) -> Iterable[str]:
    from .census import RectanglePair, amicable_rectangle_pairs

    return map(RectanglePair.to_json_text, amicable_rectangle_pairs())


def _cmd_witness(args) -> Iterable[str]:
    from .census import non_amicable_witness_area, non_amicable_witness_perimeter

    if args.area is not None:
        shape = non_amicable_witness_area(args.area)
    else:
        shape = non_amicable_witness_perimeter(args.perimeter)
    return [shape.to_json_text()]


def _cmd_render(args) -> Iterable[str]:
    from .render import RenderSpec, render_svg

    # RenderSpec alone holds the canvas defaults, so only given flags reach it.
    canvas = {name: getattr(args, name) for name in ("width", "height", "margin")}
    spec = RenderSpec(
        parallelogram=Parallelogram(args.base, args.side, args.area),
        include_companion=args.companion,
        **{name: value for name, value in canvas.items() if value is not None},
    )
    # render_svg ends in the one LF that run's writes put back.
    return [render_svg(spec)[:-1]]


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.

    Building it costs about a millisecond, far more than a parse.  Parsing
    keeps no state in the parser, so every :func:`run` call shares it.
    """
    # Every parser is given its prog, or argparse would read it off sys.argv.
    common = _Parser(prog="amigram", add_help=False)
    common.add_argument("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")
    common.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        metavar="N",
        help="accepted for compatibility; every subcommand runs in one process",
    )

    parser = _Parser(prog="amigram", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="amicability verdict for one shape")
    p.add_argument("--area", type=_integer, required=True)
    p.add_argument("--perimeter", type=_integer)
    p.add_argument("--base", type=_integer)
    p.add_argument("--side", type=_integer)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("family", parents=[common], help="verify the Fibonacci-Lucas family")
    p.add_argument("--from", dest="start", type=_integer, required=True)
    p.add_argument("--to", dest="stop", type=_integer, required=True)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser(
        "verify", parents=[common], help="closed form vs brute force over a grid"
    )
    p.add_argument("--max-perimeter", type=_integer, required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[common], help="list shapes with one perimeter")
    p.add_argument("--perimeter", type=_integer, required=True)
    p.add_argument("--amicable-only", action="store_true")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("census", parents=[common], help="per-perimeter amicability tallies")
    p.add_argument("--max-perimeter", type=_integer, required=True)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser(
        "rectangles", parents=[common], help="all amicable rectangle pairs"
    )
    p.set_defaults(handler=_cmd_rectangles)

    p = sub.add_parser("witness", parents=[common], help="a non-amicable shape on demand")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--area", type=_integer)
    given.add_argument("--perimeter", type=_integer)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("render", parents=[common], help="SVG diagram of a shape")
    p.add_argument("--base", type=_integer, required=True)
    p.add_argument("--side", type=_integer, required=True)
    p.add_argument("--area", type=_integer, required=True)
    p.add_argument("--companion", action="store_true")
    p.add_argument("--width", type=_integer)
    p.add_argument("--height", type=_integer)
    p.add_argument("--margin", type=_integer)
    p.set_defaults(handler=_cmd_render)

    return parser


# Characters per write in run; a batch ends at the first line that reaches it.
_BATCH_CHARS = 65536


def run(argv: Sequence[str], stdout: TextIO, stderr: TextIO) -> int:
    """One CLI run on the given streams; every ending is the exit code returned."""
    code = 0  # the handler's, once its lines have run out
    output = None  # the -o path, once the flags are parsed
    try:
        try:
            args = _build_parser().parse_args(argv)
        except _Help as usage:
            # format_help() ends in the one LF that the writes put back.
            lines = iter([usage.args[0][:-1]])
        else:
            output = args.output
            lines = iter(args.handler(args))
        with nullcontext(stdout) if output is None else open(output, "w", newline="") as out:
            # Lines go out in batches of about _BATCH_CHARS characters:
            # unbuffered stdout (python -u) makes each write a system call,
            # and a batch bounded by characters stays small however long
            # the lines are.
            batch, size = [], 0
            while True:
                try:
                    line = next(lines)
                except StopIteration as end:
                    code = end.value or 0
                    break
                batch.append(line)
                size += len(line) + 1
                if size >= _BATCH_CHARS:
                    out.write("\n".join(batch) + "\n")
                    batch, size = [], 0
            if batch:
                out.write("\n".join(batch) + "\n")
            out.flush()  # a failed write shows here, not at exit
        return code
    except (HeronianError, AssertionError) as exc:
        # A bad flag or a library refusal; or an AssertionError, a witness
        # that failed its own check, whose exit code is 2.
        message = exc
    except OSError as exc:
        if output is None and isinstance(exc, BrokenPipeError):
            # The reader closed stdout (`| head`): stop quietly.  No
            # further line is pulled, so the code stays 0 unless the
            # lines ran out before the write that failed.
            return code
        message = f"cannot write {'stdout' if output is None else output}: {exc.strerror or exc}"
    stderr.write(f"amigram: error: {message}\n")
    return 2 if isinstance(message, AssertionError) else 1


def main(argv: Sequence[str] | None = None) -> int:
    """:func:`run` on the process's streams, and argv from ``sys.argv``
    when it is None."""
    try:
        code = run(sys.argv[1:] if argv is None else argv, sys.stdout, sys.stderr)
    except KeyboardInterrupt:
        # End by SIGINT itself, with no traceback and nothing more written,
        # so the caller sees the usual status (130 in a shell).
        import signal  # only here: no other run loads it

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        raise  # only where the signal is blocked
    try:
        sys.stdout.flush()
    except OSError:
        # A failed write stays in stdout's buffer.  Dropping stdout keeps
        # the interpreter's exit flush from reporting it a second time.
        sys.stdout = None
    return code
