"""The ``sweep`` workload: re-derive the theorem on a perimeter grid, in batch.

One pass runs in-process ``amigram verify``, ``census`` and ``rectangles``
with default flags, then rebuilds every companion on the grid
(``enumerate_by_perimeter`` -> ``classify`` -> ``verify_pair``), one request
per perimeter.  Millions of small-integer calls go through the census, the
brute-force oracle and the ``Parallelogram`` constructor; ``families`` and
``render`` do nothing.  The inputs are fixed; the seed only draws the probe
shapes of a traced run.
"""

from __future__ import annotations

from amigram import amicability, census

import oracle
from api import Request

VERIFY_PERIMETER = 400  # acceptance criterion 1: 671,650 cells
CENSUS_PERIMETER = 100
REBUILD_PERIMETER = 100


def verify_ok(out, max_perimeter: int) -> bool:
    code, text = out
    cells = oracle.verify_cells(max_perimeter)
    return code == 0 and text == (
        f"max perimeter: {max_perimeter}\ncells: {cells}\n"
        f"agreements: {cells}\ndisagreements: 0\n"
    )


def census_ok(out, max_perimeter: int) -> bool:
    code, text = out
    lines = ["perimeter,total,amicable,self_amicable"]
    for p in range(4, max_perimeter + 1, 2):
        shapes, amicable, self_amicable, _ = oracle.perimeter_census(p)
        lines.append(f"{p},{shapes},{amicable},{self_amicable}")
    return code == 0 and text == "".join(line + "\n" for line in lines)


def rectangles_ok(out) -> bool:
    code, text = out
    expected = "".join(
        f'{{"first": [{a}, {b}], "second": [{c}, {d}], "distinct": {str(distinct).lower()}}}\n'
        for (a, b), (c, d), distinct in oracle.RECTANGLE_PAIRS
    )
    return code == 0 and text == expected


def rebuild(tracer, perimeter: int, shape_count: int) -> tuple[int, int, int, int, int]:
    """(shapes, amicable, verified pairs, sum of companion perimeters, sum of
    companion areas) over every shape with this perimeter, one span per
    layer over the perimeter's batch of ``shape_count`` shapes."""
    with tracer.span("census.enumerate_by_perimeter", shape_count):
        shapes = list(census.enumerate_by_perimeter(perimeter))
    with tracer.span("amicability.classify", len(shapes)):
        verdicts = [amicability.classify(shape) for shape in shapes]
    pairs = [(s, v.companion) for s, v in zip(shapes, verdicts) if v.amicable]
    with tracer.span("amicability.verify_pair", len(pairs)):
        paired = sum(amicability.verify_pair(s, c) for s, c in pairs)
    return (
        len(shapes),
        len(pairs),
        paired,
        sum(c.perimeter for _, c in pairs),
        sum(c.area for _, c in pairs),
    )


def rebuild_ok(out, perimeter: int) -> bool:
    shapes, amicable, _, area_sum = oracle.perimeter_census(perimeter)
    return out == (shapes, amicable, amicable, area_sum, amicable * perimeter)


def make_rebuild(perimeter: int) -> Request:
    count = oracle.perimeter_census(perimeter)[0]
    return Request(
        "rebuild",
        lambda api: rebuild(api.tracer, perimeter, count),
        lambda out: rebuild_ok(out, perimeter),
    )


def verify_cells_traced(tracer, max_perimeter: int) -> bool:
    """Drive verify's cells through the two public decision functions, one
    span per perimeter for each; True iff they agree on every cell."""
    agree = True
    for p in range(4, max_perimeter + 1, 2):
        areas = range(1, (p // 4) * ((p // 2 + 1) // 2) + 1)
        with tracer.span("amicability.is_amicable_invariants", len(areas)):
            closed = [amicability.is_amicable_invariants(a, p) for a in areas]
        with tracer.span("amicability.companion_exists_bruteforce", len(areas)):
            brute = [amicability.companion_exists_bruteforce(a, p) for a in areas]
        agree = agree and closed == brute
    return agree


def grid_shapes(rng, n: int, mode: str | None) -> list[tuple[int, int, int]]:
    """``n`` random shapes with perimeter up to the rebuild's; amicable ones
    only when ``mode`` is "OK"."""
    shapes = []
    while len(shapes) < n:
        half = rng.randrange(2, REBUILD_PERIMETER // 2 + 1)
        short = rng.randint(1, half // 2)
        area = rng.randint(1, short * (half - short))
        if mode == "OK" and not oracle.is_amicable(area, 2 * half):
            continue
        shapes.append((short, half - short, area))
    return shapes


def threads_argv(max_perimeter: int, threads: int) -> list[str]:
    return ["verify", "--max-perimeter", str(max_perimeter), "--threads", str(threads)]


class Sweep:
    name = "sweep"
    setup_argv = ["verify", "--max-perimeter", "8"]

    def __init__(self, rng):
        verify = ["verify", "--max-perimeter", str(VERIFY_PERIMETER)]
        census_argv = ["census", "--max-perimeter", str(CENSUS_PERIMETER)]
        self.pass_ = [
            Request("cli_verify", lambda api: api.cli(verify),
                    lambda out: verify_ok(out, VERIFY_PERIMETER)),
            Request("cli_census", lambda api: api.cli(census_argv),
                    lambda out: census_ok(out, CENSUS_PERIMETER)),
            Request("cli_rectangles", lambda api: api.cli(["rectangles"]), rectangles_ok),
        ] + [make_rebuild(p) for p in range(4, REBUILD_PERIMETER + 1, 2)]
        self.unit_name = f"passes of {len(self.pass_)} requests"

    def units(self):
        while True:
            yield self.pass_

    def probe_shapes(self, rng, n: int, mode: str | None):
        return grid_shapes(rng, n, mode)

    def extras(self, api) -> bool:
        """Split the pass's layers out: verify's cells per decision function,
        the census and the rectangle search called directly, and verify
        again on two threads.  Returns whether every output checked out."""
        tracer = api.tracer
        ok = verify_cells_traced(tracer, VERIFY_PERIMETER)
        with tracer.span("census.count_amicable", oracle.shapes_up_to(CENSUS_PERIMETER)):
            table = api.count_amicable(CENSUS_PERIMETER)
        ok = ok and [(c.perimeter, c.total, c.amicable, c.self_amicable) for c in table] == [
            (p, *oracle.perimeter_census(p)[:3]) for p in range(4, CENSUS_PERIMETER + 1, 2)
        ]
        pairs = api.amicable_rectangle_pairs()
        ok = ok and sorted((p.first, p.second) for p in pairs) == sorted(
            (a, b) for a, b, _ in oracle.RECTANGLE_PAIRS
        )
        out = api.cli(threads_argv(VERIFY_PERIMETER, 2), "cli.main.verify_threads2")
        return ok and verify_ok(out, VERIFY_PERIMETER)
