"""The calls into amigram that the workloads make, and the request type.

Workloads reach amigram only through an :class:`Api`.  Untraced, its
attributes are amigram's own functions, so a call costs what it costs a
user, and its tracer is a :class:`~spans.NullTracer` whose spans do
nothing.  Traced, each attribute opens a span around the call.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from operator import attrgetter
from typing import NamedTuple

from amigram import amicability, census, cli, core, families, render

from spans import NullTracer


class Request:
    """One call a client waits on: ``run(api)`` produces the output and
    ``check(output)`` compares it with the benchmark's own derivation.

    ``over_limit`` marks a request the generator drew past a known defect
    (integers over the 4300-digit str limit, float overflow in render): its
    refusal counts as failed but is expected at this commit.
    """

    __slots__ = ("kind", "run", "check", "over_limit")

    def __init__(self, kind, run, check, over_limit=False):
        self.kind = kind
        self.run = run
        self.check = check
        self.over_limit = over_limit


class CliResult(NamedTuple):
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliResult:
    """In-process ``amigram`` with stdout and stderr captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue())


def json_roundtrip(shape: core.Parallelogram) -> tuple[str, core.Parallelogram]:
    """Wire text of a shape and the shape parsed back from it."""
    text = json.dumps(shape.to_json_dict())
    return text, core.Parallelogram.from_json_dict(json.loads(text))


def render_pair(shape: core.Parallelogram) -> str:
    return render.render_svg(render.RenderSpec(shape, include_companion=True))


class Api:
    def __init__(self, tracer=None):
        self.tracer = tracer or NullTracer()
        wrap = self.tracer.wrap
        self.Parallelogram = wrap("core.Parallelogram", core.Parallelogram)
        self.height = wrap("core.height", attrgetter("height"))
        self.canonical_key = wrap("core.canonical_key", attrgetter("canonical_key"))
        self.json_roundtrip = wrap("core.json_roundtrip", json_roundtrip)
        self.classify = wrap("amicability.classify", amicability.classify)
        self.classify_invariants = wrap(
            "amicability.classify_invariants", amicability.classify_invariants
        )
        self.companion = wrap("amicability.companion", amicability.companion)
        self.verify_pair = wrap("amicability.verify_pair", amicability.verify_pair)
        self.all_companion_bases = wrap(
            "amicability.all_companion_bases", amicability.all_companion_bases
        )
        self.witness_area = wrap("census.witness", census.non_amicable_witness_area)
        self.witness_perimeter = wrap(
            "census.witness", census.non_amicable_witness_perimeter
        )
        self.count_amicable = census.count_amicable
        self.amicable_rectangle_pairs = wrap(
            "census.amicable_rectangle_pairs", census.amicable_rectangle_pairs
        )
        self.verify_family = wrap(
            "families.verify_family",
            families.verify_family,
            lambda start, stop: stop - start + 1,
        )
        self.family_pair = wrap("families.family_pair", families.family_pair)
        self.render_pair = wrap("render.render_svg", render_pair)

    def cli(self, argv: list[str], span: str | None = None) -> CliResult:
        """``run_cli`` under a ``cli.main.<subcommand>`` span; a nonzero exit
        marks the span failed."""
        with self.tracer.span(span or "cli.main." + argv[0]) as active:
            result = run_cli(argv)
            if result.code != 0:
                active.fail()
        return result
