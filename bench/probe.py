"""Spans for the layers a workload's own traced pass does not reach.

Every traced run reports the same per-layer names.  When a workload never
calls a function (``sweep`` never renders, ``family`` never censuses), the
probe calls it on a small batch so the name is still measured: shapes come
from the workload's own input domain where the function accepts any shape,
and from the small sweep grid where it must stay small (O(area)
``all_companion_bases``, float-bound ``render``).  A probe runs only for
names with no span yet, so where the workload reaches a layer its number is
the workload's own.
"""

from __future__ import annotations

import json
from fractions import Fraction
from statistics import median
from time import perf_counter_ns

from amigram import amicability, census, core

import oracle
from family import lines_ok, rows_ok
from queries import shape_json_ok, verdict_json_ok, verdict_ok
from sweep import census_ok, grid_shapes, rectangles_ok, threads_argv, verify_cells_traced, verify_ok

SHAPES = 40
GRID_PERIMETER = 60  # verify cells and the census at probe scale
FAMILY_TOP = 100
THREADS_PERIMETER = 200  # two-thread verify when the workload has no verify of its own
OVERHEAD_PAIRS = 21


def _core(api, workload, rng) -> bool:
    ok = True
    for b, s, a in workload.probe_shapes(rng, SHAPES, None):
        shape = api.Parallelogram(b, s, a)
        height, key = api.height(shape), api.canonical_key(shape)
        text, back = api.json_roundtrip(shape)
        verdict = api.classify(shape)
        ok = ok and height == Fraction(a, b) and tuple(key) == (min(b, s), max(b, s), a)
        ok = ok and back == shape and shape_json_ok(json.loads(text), b, s, a)
        ok = ok and verdict_ok(verdict, a, 2 * (b + s))
    return ok


def _companion(api, workload, rng) -> bool:
    ok = True
    for b, s, a in workload.probe_shapes(rng, SHAPES, "OK"):
        c = api.companion(api.Parallelogram(b, s, a))
        ok = ok and oracle.is_companion(a, 2 * (b + s), c.base, c.side, c.area)
    return ok


def _bases(api, workload, rng) -> bool:
    ok = True
    for b, s, a in grid_shapes(rng, SHAPES, None):
        span = oracle.companion_base_range(a, 2 * (b + s))
        bases = api.all_companion_bases(api.Parallelogram(b, s, a))
        ok = ok and bases == ([] if span is None else list(range(span[0], span[1] + 1)))
    return ok


def _witness(api, workload, rng) -> bool:
    ok = True
    for b, s, a in workload.probe_shapes(rng, SHAPES, None):
        wa, wp = api.witness_area(a), api.witness_perimeter(2 * (b + s))
        ok = ok and wa.area == a and not oracle.is_amicable(a, 2 * (wa.base + wa.side))
        ok = ok and wp.perimeter == 2 * (b + s) and not oracle.is_amicable(wp.area, wp.perimeter)
    return ok


def _cells(api, workload, rng) -> bool:
    return verify_cells_traced(api.tracer, GRID_PERIMETER)


def _count_amicable(api, workload, rng) -> bool:
    with api.tracer.span("census.count_amicable", oracle.shapes_up_to(GRID_PERIMETER)):
        table = api.count_amicable(GRID_PERIMETER)
    return [(c.perimeter, c.total, c.amicable, c.self_amicable) for c in table] == [
        (p, *oracle.perimeter_census(p)[:3]) for p in range(4, GRID_PERIMETER + 1, 2)
    ]


def _enumerate(api, workload, rng) -> bool:
    ok = True
    for p in range(4, GRID_PERIMETER + 1, 2):
        expected = oracle.perimeter_census(p)[0]
        with api.tracer.span("census.enumerate_by_perimeter", expected):
            shapes = list(census.enumerate_by_perimeter(p))
        ok = ok and len(shapes) == expected
    return ok


def _rectangles(api, workload, rng) -> bool:
    pairs = api.amicable_rectangle_pairs()
    return sorted((p.first, p.second) for p in pairs) == sorted(
        (a, b) for a, b, _ in oracle.RECTANGLE_PAIRS
    )


def _family_rows():
    return {n: oracle.family_row(n) for n in range(4, FAMILY_TOP + 1)}


def _verify_family(api, workload, rng) -> bool:
    return rows_ok(api.verify_family(4, FAMILY_TOP), 4, FAMILY_TOP, _family_rows())


def _family_pair(api, workload, rng) -> bool:
    expected = _family_rows()
    ok = True
    for n in range(4, FAMILY_TOP + 1):
        r = api.family_pair(n).rectangle
        ok = ok and (r.base, r.side, r.area) == expected[n][0]
    return ok


def _render(api, workload, rng) -> bool:
    ok = True
    for b, s, a in grid_shapes(rng, SHAPES // 2, "OK"):
        ok = ok and oracle.svg_pair_ok(api.render_pair(api.Parallelogram(b, s, a)), b, s, a)
    return ok


def _cli_check(api, workload, rng) -> bool:
    ok = True
    for b, s, a in workload.probe_shapes(rng, 5, None):
        argv = ["check", "--base", oracle.to_str(b), "--side", oracle.to_str(s)]
        code, text = api.cli(argv + ["--area", oracle.to_str(a)])
        ok = ok and code == 0 and verdict_json_ok(json.loads(text), a, 2 * (b + s))
    return ok


def _cli_witness(api, workload, rng) -> bool:
    ok = True
    for b, s, a in grid_shapes(rng, 5, None):
        code, text = api.cli(["witness", "--area", str(a)])
        ok = ok and code == 0 and oracle.to_int(json.loads(text)["area"]) == a
    return ok


def _cli_render(api, workload, rng) -> bool:
    ok = True
    for b, s, a in grid_shapes(rng, 5, "OK"):
        code, svg = api.cli(["render", "--base", str(b), "--side", str(s), "--area", str(a),
                             "--companion"])
        ok = ok and code == 0 and oracle.svg_pair_ok(svg, b, s, a)
    return ok


def _cli_verify(api, workload, rng) -> bool:
    one = api.cli(threads_argv(THREADS_PERIMETER, 1))
    two = api.cli(threads_argv(THREADS_PERIMETER, 2), "cli.main.verify_threads2")
    return verify_ok(one, THREADS_PERIMETER) and verify_ok(two, THREADS_PERIMETER)


def _cli_census(api, workload, rng) -> bool:
    argv = ["census", "--max-perimeter", str(GRID_PERIMETER)]
    return census_ok(api.cli(argv), GRID_PERIMETER)


def _cli_rectangles(api, workload, rng) -> bool:
    return rectangles_ok(api.cli(["rectangles"]))


def _cli_family(api, workload, rng) -> bool:
    out = api.cli(["family", "--from", "4", "--to", str(FAMILY_TOP)])
    return lines_ok(out, 4, FAMILY_TOP, _family_rows())


# (span names the probe fills, probe)
PROBES = [
    (("core.Parallelogram", "core.height", "core.canonical_key", "core.json_roundtrip",
      "amicability.classify"), _core),
    (("amicability.companion",), _companion),
    (("amicability.all_companion_bases",), _bases),
    (("census.witness",), _witness),
    (("amicability.is_amicable_invariants", "amicability.companion_exists_bruteforce"), _cells),
    (("census.count_amicable",), _count_amicable),
    (("census.enumerate_by_perimeter",), _enumerate),
    (("census.amicable_rectangle_pairs",), _rectangles),
    (("families.verify_family",), _verify_family),
    (("families.family_pair",), _family_pair),
    (("render.render_svg",), _render),
    (("cli.main.check",), _cli_check),
    (("cli.main.witness",), _cli_witness),
    (("cli.main.render",), _cli_render),
    (("cli.main.verify", "cli.main.verify_threads2"), _cli_verify),
    (("cli.main.census",), _cli_census),
    (("cli.main.rectangles",), _cli_rectangles),
    (("cli.main.family",), _cli_family),
]


def fill(api, workload, rng) -> bool:
    """Run each probe whose spans are missing; True iff every output checks."""
    ok = True
    for names, probe in PROBES:
        have = {s[0] for s in api.tracer.spans}
        if not all(name in have for name in names):
            ok = probe(api, workload, rng) and ok
    return ok


def cli_overhead_us(plain_api) -> tuple[float, bool]:
    """Median ``amigram check`` time minus the median time of the same request
    through the library, untraced, in microseconds; and whether both gave
    the same output every time."""
    argv = ["check", "--base", "7", "--side", "6", "--area", "42"]
    expected = plain_api.cli(argv).stdout
    cli_ns, lib_ns = [], []
    ok = True
    for _ in range(OVERHEAD_PAIRS):
        t0 = perf_counter_ns()
        via_cli = plain_api.cli(argv).stdout
        t1 = perf_counter_ns()
        via_lib = json.dumps(amicability.classify(core.Parallelogram(7, 6, 42)).to_json_dict())
        t2 = perf_counter_ns()
        ok = ok and via_cli == expected == via_lib + "\n"
        cli_ns.append(t1 - t0)
        lib_ns.append(t2 - t1)
    return (median(cli_ns) - median(lib_ns)) / 1e3, ok
