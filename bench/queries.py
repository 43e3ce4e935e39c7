"""The ``queries`` workload: a closed loop of single requests from one client.

The stream is cut into blocks of ``BLOCK_SIZE`` requests.  Every block has
the same mix of request kinds, and within a kind the magnitudes (decimal
digits of the largest input) are stratified log-uniform draws, so each
block, and each seed, puts the same load on the program while the numbers
themselves come from the seed.  One request per block of each of the JSON,
CLI ``check`` and ``render`` kinds is drawn past a known defect: integers
of 4400-4600 digits, over CPython's 4300-digit int/str limit, or render
sides near 10^400, which overflow a float.  That is 3 requests in 1000
(0.3%), few enough that a block's 99th percentile, with ten requests
beyond it, always lands on a success.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

import oracle
from api import Request

ORDINARY_DIGITS = 4200  # largest magnitude that keeps every output under the str limit
OVER_LIMIT_DIGITS = (4400, 4600)
RENDER_DIGITS = 50  # render sides stay far from float overflow ...
OVERFLOW_DIGITS = 400  # ... except the drawn overflow requests
WITNESS_CLI_DIGITS = 2100  # the area witness's side has about twice the digits
BASES_DIGITS, BASES_AREA = 3, 10**5


def number(rng, digit_count: int) -> int:
    """A uniform integer with exactly ``digit_count`` digits."""
    return rng.randrange(10 ** (digit_count - 1), 10**digit_count)


def stratified_digits(rng, n: int, top: int) -> list[int]:
    """``n`` log-uniform digit counts in [1, top], one per stratum."""
    return [max(1, min(top, round(top ** ((j + rng.random()) / n)))) for j in range(n)]


def triple(rng, digit_count: int, mode: str, limit: int = 10**ORDINARY_DIGITS):
    """A valid (base, side, area) whose base has ``digit_count`` digits and
    whose verdict is ``mode``: "OK", "ODD_AREA" or "BOUND_FAIL"."""
    while True:
        base = number(rng, digit_count)
        side = number(rng, rng.randint(1, digit_count))
        perimeter = 2 * (base + side)
        top = min(base * side, limit - 1)
        low = isqrt(16 * perimeter - 1) + 1
        low += low % 2  # smallest amicable area
        # A quarter of the amicable and bound-failing areas sit right at the
        # bound, where an off-by-one in the decision shows.
        edge = rng.random() < 0.25
        if mode == "OK" and low <= top:
            return base, side, low if edge else 2 * rng.randrange(low // 2, top // 2 + 1)
        if mode == "ODD_AREA":
            return base, side, 2 * rng.randrange(0, (top + 1) // 2) + 1
        if mode == "BOUND_FAIL" and min(top, low - 2) >= 2:
            high = min(top, low - 2)
            return base, side, high if edge else 2 * rng.randrange(1, high // 2 + 1)


def verdict_ok(verdict, area: int, perimeter: int) -> bool:
    expected = oracle.reason(area, perimeter)
    if verdict.reason.value != expected or verdict.amicable != (expected == "OK"):
        return False
    c = verdict.companion
    if expected != "OK":
        return c is None
    return oracle.is_companion(area, perimeter, c.base, c.side, c.area)


def verdict_json_ok(data: dict, area: int, perimeter: int) -> bool:
    expected = oracle.reason(area, perimeter)
    if data["reason"] != expected or data["amicable"] is not (expected == "OK"):
        return False
    c = data["companion"]
    if expected != "OK":
        return c is None
    base, side, c_area = (oracle.to_int(c[k]) for k in ("base", "side", "area"))
    return oracle.is_companion(area, perimeter, base, side, c_area) and Fraction(
        oracle.to_int(c["height"]["num"]), oracle.to_int(c["height"]["den"])
    ) == Fraction(c_area, base)


def shape_json_ok(data: dict, base: int, side: int, area: int) -> bool:
    fields = tuple(oracle.to_int(data[k]) for k in ("base", "side", "area"))
    num, den = oracle.to_int(data["height"]["num"]), oracle.to_int(data["height"]["den"])
    expected = Fraction(area, base)
    return fields == (base, side, area) and (num, den) == (
        expected.numerator,
        expected.denominator,
    )


def _mode(rng) -> str:
    return rng.choice(("OK", "ODD_AREA", "BOUND_FAIL"))


def make_classify(rng, d, over):
    b, s, a = triple(rng, d, _mode(rng))

    def run(api):
        shape = api.Parallelogram(b, s, a)
        return api.height(shape), api.canonical_key(shape), api.classify(shape)

    def check(out):
        height, key, verdict = out
        return (
            height == Fraction(a, b)
            and tuple(key) == (min(b, s), max(b, s), a)
            and verdict_ok(verdict, a, 2 * (b + s))
        )

    return Request("classify", run, check, over)


def make_classify_invariants(rng, d, over):
    b, s, a = triple(rng, d, _mode(rng))
    p = 2 * (b + s)
    return Request(
        "classify_invariants",
        lambda api: api.classify_invariants(a, p),
        lambda verdict: verdict_ok(verdict, a, p),
        over,
    )


def make_companion(rng, d, over):
    b, s, a = triple(rng, d, "OK")

    def run(api):
        shape = api.Parallelogram(b, s, a)
        partner = api.companion(shape)
        return partner, api.verify_pair(shape, partner)

    def check(out):
        c, paired = out
        return paired is True and oracle.is_companion(a, 2 * (b + s), c.base, c.side, c.area)

    return Request("companion", run, check, over)


def make_witness(rng, d, over):
    area = number(rng, d)
    perimeter = 2 * max(2, number(rng, d) // 2)

    def run(api):
        return api.witness_area(area), api.witness_perimeter(perimeter)

    def check(out):
        wa, wp = out
        pa, pp = 2 * (wa.base + wa.side), 2 * (wp.base + wp.side)
        return (
            wa.area == area
            and oracle.valid(wa.base, wa.side, wa.area)
            and not oracle.is_amicable(area, pa)
            and pp == perimeter
            and oracle.valid(wp.base, wp.side, wp.area)
            and not oracle.is_amicable(wp.area, perimeter)
        )

    return Request("witness", run, check, over)


def make_json(rng, d, over):
    limit = 10 ** OVER_LIMIT_DIGITS[1] if over else 10**ORDINARY_DIGITS
    b, s, a = triple(rng, d, _mode(rng), limit)

    def check(out):
        text, back = out
        return (back.base, back.side, back.area) == (b, s, a) and shape_json_ok(
            json.loads(text), b, s, a
        )

    return Request(
        "json", lambda api: api.json_roundtrip(api.Parallelogram(b, s, a)), check, over
    )


def make_bases(rng, d, over):
    # all_companion_bases scans O(area) candidates, so areas stay below
    # BASES_AREA, where the largest take a few milliseconds, like the
    # largest JSON round trips.
    b, s, a = triple(rng, d, _mode(rng), BASES_AREA)
    p = 2 * (b + s)

    def check(bases):
        span = oracle.companion_base_range(a, p)
        return bases == ([] if span is None else list(range(span[0], span[1] + 1)))

    return Request(
        "bases", lambda api: api.all_companion_bases(api.Parallelogram(b, s, a)), check, over
    )


def make_render(rng, d, over):
    if over:
        d = OVERFLOW_DIGITS
    b, s, a = triple(rng, d, "OK", 10 ** (2 * d))
    return Request(
        "render",
        lambda api: api.render_pair(api.Parallelogram(b, s, a)),
        lambda svg: oracle.svg_pair_ok(svg, b, s, a),
        over,
    )


def make_cli_check(rng, d, over):
    limit = 10 ** OVER_LIMIT_DIGITS[1] if over else 10**ORDINARY_DIGITS
    b, s, a = triple(rng, d, _mode(rng), limit)
    argv = ["check", "--base", oracle.to_str(b), "--side", oracle.to_str(s)]
    argv += ["--area", oracle.to_str(a)]

    def check(out):
        code, text = out
        return code == 0 and verdict_json_ok(json.loads(text), a, 2 * (b + s))

    return Request("cli_check", lambda api: api.cli(argv), check, over)


def make_cli_witness(rng, d, over):
    by_area = rng.random() < 0.5
    value = number(rng, d) if by_area else 2 * max(2, number(rng, d) // 2)
    argv = ["witness", "--area" if by_area else "--perimeter", oracle.to_str(value)]

    def check(out):
        code, text = out
        if code != 0:
            return False
        data = json.loads(text)
        base, side, area = (oracle.to_int(data[k]) for k in ("base", "side", "area"))
        perimeter = 2 * (base + side)
        matches = area == value if by_area else perimeter == value
        return (
            matches
            and oracle.valid(base, side, area)
            and not oracle.is_amicable(area, perimeter)
            and shape_json_ok(data, base, side, area)
        )

    return Request("cli_witness", lambda api: api.cli(argv), check, over)


def make_cli_render(rng, d, over):
    b, s, a = triple(rng, d, "OK", 10 ** (2 * d))
    argv = ["render", "--base", str(b), "--side", str(s), "--area", str(a), "--companion"]

    def check(out):
        code, svg = out
        return code == 0 and oracle.svg_pair_ok(svg, b, s, a)

    return Request("cli_render", lambda api: api.cli(argv), check, over)


# (maker, requests per block, largest ordinary magnitude, requests drawn past a defect)
# No record of real traffic exists, so the seven library request kinds get
# equal shares.  The CLI share is an assumption: two requests of each
# subcommand in 1000.  An in-process ``amigram`` call costs 1.5-2 ms
# whatever its input, because argparse is rebuilt on every call, so a larger
# share would put the 99th percentile on CLI requests alone, and the
# large-magnitude library requests would no longer decide it.
LIBRARY_SHARE = 142
CLI_SHARE = 2
MIX = [
    (make_classify, LIBRARY_SHARE, ORDINARY_DIGITS, 0),
    (make_classify_invariants, LIBRARY_SHARE, ORDINARY_DIGITS, 0),
    (make_companion, LIBRARY_SHARE, ORDINARY_DIGITS, 0),
    (make_witness, LIBRARY_SHARE, ORDINARY_DIGITS, 0),
    (make_json, LIBRARY_SHARE, ORDINARY_DIGITS, 1),
    (make_bases, LIBRARY_SHARE, BASES_DIGITS, 0),
    (make_render, LIBRARY_SHARE, RENDER_DIGITS, 1),
    (make_cli_check, CLI_SHARE, ORDINARY_DIGITS, 1),
    (make_cli_witness, CLI_SHARE, WITNESS_CLI_DIGITS, 0),
    (make_cli_render, CLI_SHARE, RENDER_DIGITS, 0),
]
BLOCK_SIZE = sum(n for _, n, _, _ in MIX)


def block(rng) -> list[Request]:
    requests = []
    for make, n, top, over in MIX:
        requests += [make(rng, d, False) for d in stratified_digits(rng, n - over, top)]
        requests += [make(rng, rng.randint(*OVER_LIMIT_DIGITS), True) for _ in range(over)]
    rng.shuffle(requests)
    return requests


class Queries:
    name = "queries"
    unit_name = f"blocks of {BLOCK_SIZE} requests"
    setup_argv = ["check", "--base", "7", "--side", "6", "--area", "42"]

    def __init__(self, rng):
        self.rng = rng

    def units(self):
        while True:
            yield block(self.rng)

    def probe_shapes(self, rng, n: int, mode: str | None):
        return [
            triple(rng, d, mode or _mode(rng))
            for d in stratified_digits(rng, n, ORDINARY_DIGITS)
        ]

    def extras(self, api) -> bool:
        """Nothing beyond the traced blocks: every layer it reaches is traced there."""
        return True
