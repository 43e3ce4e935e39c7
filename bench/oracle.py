"""Independent derivations that the benchmark checks amigram's outputs against.

Nothing here imports amigram.  Each fact is re-derived from its definition or
from a closed form, never by calling the code under test, so a wrong answer
from the program cannot also be the expected answer.
"""

from __future__ import annotations

import re
from math import isqrt

# CPython refuses int<->str conversions beyond 4300 digits by default.
_CHUNK = 4000  # digits handled per int()/str() call, safely under the limit

# The five distinct amicable rectangle pairs plus the two equable rectangles,
# as (short, long) sides: a x b has area equal to the perimeter of c x d and
# vice versa.  Distinct pairs first, each list in ascending order.
RECTANGLE_PAIRS = [
    ((1, 34), (7, 10), True),
    ((1, 38), (6, 13), True),
    ((1, 54), (5, 22), True),
    ((2, 10), (4, 6), True),
    ((2, 13), (3, 10), True),
    ((3, 6), (3, 6), False),
    ((4, 4), (4, 4), False),
]

_CAPTION = re.compile(r"base=(\d+) side=(\d+) area=(\d+) perimeter=(\d+)")


def to_int(text: str) -> int:
    """Parse a decimal string of any length, in chunks below the str limit."""
    if len(text) <= _CHUNK:
        return int(text)
    head, tail = text[:-_CHUNK], text[-_CHUNK:]
    return to_int(head) * 10**_CHUNK + int(tail)


def to_str(value: int) -> str:
    """Decimal string of any non-negative int, in chunks below the str limit."""
    if value < 10**_CHUNK:
        return str(value)
    head, tail = divmod(value, 10**_CHUNK)
    return to_str(head) + str(tail).zfill(_CHUNK)


def reason(area: int, perimeter: int) -> str:
    """The verdict by the paper's test: A even and A^2 >= 16 P."""
    if area % 2:
        return "ODD_AREA"
    if area * area < 16 * perimeter:
        return "BOUND_FAIL"
    return "OK"


def is_amicable(area: int, perimeter: int) -> bool:
    return reason(area, perimeter) == "OK"


def valid(base: int, side: int, area: int) -> bool:
    """A Heronian parallelogram exists with these sides and area."""
    return base >= 1 and side >= 1 and 1 <= area <= base * side


def is_companion(area: int, perimeter: int, base: int, side: int, c_area: int) -> bool:
    """(base, side, c_area) is a valid partner of a shape with (area, perimeter)."""
    return valid(base, side, c_area) and 2 * (base + side) == area and c_area == perimeter


def _min_amicable_area(perimeter: int) -> int:
    """Smallest even area A with A^2 >= 16 P."""
    low = isqrt(16 * perimeter - 1) + 1
    return low + (low % 2)


def _splits(perimeter: int):
    half = perimeter // 2
    for short in range(1, half // 2 + 1):
        yield short, half - short


def perimeter_census(perimeter: int) -> tuple[int, int, int, int]:
    """(shapes, amicable, self_amicable, sum of amicable areas) at one perimeter.

    Shapes are counted as sum a*s over side splits a <= s; amicable areas are
    the even A in [A_min, a*s], summed as an arithmetic series.
    """
    low = _min_amicable_area(perimeter)
    shapes = amicable = self_amicable = area_sum = 0
    for short, long in _splits(perimeter):
        top = short * long
        shapes += top
        self_amicable += top >= perimeter
        if top >= low:
            high = top - (top % 2)
            n = (high - low) // 2 + 1
            amicable += n
            area_sum += n * (low + high) // 2
    return shapes, amicable, self_amicable, area_sum


def shapes_up_to(max_perimeter: int) -> int:
    return sum(perimeter_census(p)[0] for p in range(4, max_perimeter + 1, 2))


def verify_cells(max_perimeter: int) -> int:
    """Realizable (area, perimeter) cells: sum of floor(h/2)*ceil(h/2), h = P/2."""
    return sum(
        (p // 2 // 2) * ((p // 2 + 1) // 2) for p in range(4, max_perimeter + 1, 2)
    )


def companion_base_range(area: int, perimeter: int) -> tuple[int, int] | None:
    """Every companion base b solves b*(A/2 - b) >= P, an interval around A/4.

    Returns (lowest, highest) from the quadratic's roots, or None when empty.
    """
    if area % 2:
        return None
    half = area // 2
    disc = half * half - 4 * perimeter
    if disc < 0:
        return None
    root = isqrt(disc)
    low = max(1, (half - root) // 2 - 1)
    high = min(half - 1, (half + root) // 2 + 1)
    while low <= high and low * (half - low) < perimeter:
        low += 1
    while high >= low and high * (half - high) < perimeter:
        high -= 1
    return (low, high) if low <= high else None


def fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by 2x2 matrix power [[1,1],[1,0]]^n."""
    result = (1, 0, 0, 1)
    base = (1, 1, 1, 0)
    while n:
        if n & 1:
            result = _matmul(result, base)
        base = _matmul(base, base)
        n >>= 1
    return result[1], result[0]


def _matmul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def family_row(n: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Rectangle (L(n), 2F(n), 2F(n)L(n)) and partner (F(2n-2), F(2n-1), 2F(n+3))."""
    f_n, f_next = fib_pair(n)
    lucas_n = 2 * f_next - f_n  # L(n) = F(n-1) + F(n+1)
    f_2n_2, f_2n_1 = fib_pair(2 * n - 2)
    f_n3 = fib_pair(n + 3)[0]
    return (lucas_n, 2 * f_n, 2 * f_n * lucas_n), (f_2n_2, f_2n_1, 2 * f_n3)


def svg_captions(svg: str) -> list[tuple[int, ...]]:
    """(base, side, area, perimeter) of every caption in an SVG document."""
    return [tuple(to_int(g) for g in m.groups()) for m in _CAPTION.finditer(svg)]


def svg_pair_ok(svg: str, base: int, side: int, area: int) -> bool:
    """A two-shape diagram of the shape and a valid companion."""
    if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
        return False
    if svg.count("<polygon ") != 2 or "nan" in svg or "inf" in svg:
        return False
    captions = svg_captions(svg)
    if len(captions) != 2 or captions[0] != (base, side, area, 2 * (base + side)):
        return False
    c_base, c_side, c_area, c_perimeter = captions[1]
    return c_perimeter == 2 * (c_base + c_side) and is_companion(
        area, 2 * (base + side), c_base, c_side, c_area
    )
