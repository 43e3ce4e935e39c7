"""The ``family`` workload: re-verify the Fibonacci-Lucas family, in batch.

One pass covers indices 4..``FAMILY_TOP`` twice, through ``verify_family``
and through in-process ``amigram family``, one request per chunk of
``CHUNK`` indices.  The same ``core``/``amicability`` code as in ``sweep``
now sees few calls on integers with hundreds of digits, and ``families``
(an O(n) ``fib`` per call) does nearly all the work.  Every row is checked
against Fibonacci numbers the benchmark computes by matrix power.  The
inputs are fixed; the seed only draws the probe shapes of a traced run.
"""

from __future__ import annotations

import json

import oracle
from api import Request

FAMILY_TOP = 1000
CHUNK = 100
CHECK_KEYS = {"pair", "amicable_h", "amicable_c", "identity", "existence_bound"}


def rows_ok(rows, start: int, stop: int, expected) -> bool:
    if len(rows) != stop - start + 1:
        return False
    for n, row in zip(range(start, stop + 1), rows):
        entry = row.entry
        rect, partner = expected[n]
        if (
            entry.n != n
            or (entry.rectangle.base, entry.rectangle.side, entry.rectangle.area) != rect
            or (entry.partner.base, entry.partner.side, entry.partner.area) != partner
            or set(row.checks) != CHECK_KEYS
            or not all(v is True for v in row.checks.values())
        ):
            return False
    return True


def lines_ok(out, start: int, stop: int, expected) -> bool:
    code, text = out
    lines = text.splitlines()
    if code != 0 or len(lines) != stop - start + 1:
        return False
    for n, line in zip(range(start, stop + 1), lines):
        data = json.loads(line)
        rect, partner = expected[n]
        if (
            data["n"] != n
            or _shape(data["h"]) != rect
            or _shape(data["c"]) != partner
            or set(data["checks"]) != CHECK_KEYS
            or not all(v is True for v in data["checks"].values())
        ):
            return False
    return True


def _shape(data: dict) -> tuple[int, int, int]:
    return tuple(oracle.to_int(data[k]) for k in ("base", "side", "area"))


class Family:
    name = "family"
    setup_argv = ["family", "--from", "4", "--to", "4"]

    def __init__(self, rng):
        self.expected = {n: oracle.family_row(n) for n in range(4, FAMILY_TOP + 1)}
        self.pass_ = []
        for start in range(4, FAMILY_TOP + 1, CHUNK):
            stop = min(start + CHUNK - 1, FAMILY_TOP)
            self.pass_.append(self._verify(start, stop))
            self.pass_.append(self._cli(start, stop))
        self.unit_name = f"passes of {len(self.pass_)} requests"

    def _verify(self, start, stop):
        return Request(
            "verify_family",
            lambda api: api.verify_family(start, stop),
            lambda rows: rows_ok(rows, start, stop, self.expected),
        )

    def _cli(self, start, stop):
        argv = ["family", "--from", str(start), "--to", str(stop)]
        return Request(
            "cli_family",
            lambda api: api.cli(argv),
            lambda out: lines_ok(out, start, stop, self.expected),
        )

    def units(self):
        while True:
            yield self.pass_

    def probe_shapes(self, rng, n: int, mode: str | None):
        """Family members at random indices: both are amicable."""
        return [self.expected[rng.randint(4, FAMILY_TOP)][rng.randint(0, 1)] for _ in range(n)]

    def extras(self, api) -> bool:
        """``family_pair`` called directly on every index of one pass."""
        ok = True
        for n in range(4, FAMILY_TOP + 1):
            entry = api.family_pair(n)
            rect, partner = self.expected[n]
            ok = ok and (entry.rectangle.base, entry.rectangle.side, entry.rectangle.area) == rect
            ok = ok and (entry.partner.base, entry.partner.side, entry.partner.area) == partner
        return ok
