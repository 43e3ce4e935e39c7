"""Each closed-form fast route against the literal search it replaced."""

import tracemalloc
from fractions import Fraction
from functools import cache
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amigram import (
    AreaOutOfRange,
    Parallelogram,
    PerimeterCounts,
    Reason,
    RectanglePair,
    amicable_rectangle_pairs,
    amicable_rectangle_pairs_exhaustive,
    companion_base_range,
    companion_bases_exhaustive,
    companion_from_invariants,
    count_amicable,
    count_amicable_exhaustive,
    exists_heronian_with,
    fib,
    fib_iterative,
    int_to_decimal,
    is_amicable_invariants,
    lucas,
    lucas_iterative,
)
from amigram.amicability import closed_form, least_amicable_area
from amigram.census import perimeter_counts
from amigram.core import exceeds_product, splits_at_least

ORACLE_MAX_PERIMETER = 80


@cache
def exhaustive_census():
    return count_amicable_exhaustive(ORACLE_MAX_PERIMETER)


def test_census_matches_exhaustive_sweep_to_80():
    assert count_amicable(ORACLE_MAX_PERIMETER) == exhaustive_census()


@given(half=st.integers(min_value=2, max_value=ORACLE_MAX_PERIMETER // 2))
def test_census_prefix_matches_exhaustive_sweep(half):
    table = count_amicable(2 * half)
    assert table == exhaustive_census()[: len(table)]


def split_loop_counts(perimeters):
    """The loop count_amicable ran before its closed form, one side split
    at a time, kept verbatim as the reference for perimeter_counts."""
    table = []
    for perimeter in perimeters:
        half = perimeter // 2
        least = isqrt(16 * perimeter - 1) + 1  # least A with A^2 >= 16*P
        least += least % 2
        total = amicable = self_amicable = 0
        for short in range(1, half // 2 + 1):
            top = short * (half - short)
            total += top
            if top >= least:
                amicable += top // 2 - least // 2 + 1
            self_amicable += top >= perimeter
        table.append(PerimeterCounts(perimeter, total, amicable, self_amicable))
    return table


def test_rows_match_the_split_loop_to_2000():
    perimeters = range(4, 2001, 2)
    assert list(map(perimeter_counts, perimeters)) == split_loop_counts(perimeters)
    assert count_amicable(2000) == split_loop_counts(perimeters)


@settings(max_examples=50, deadline=None)
@given(half=st.integers(min_value=2, max_value=500_000))
@example(half=500_000)
def test_row_matches_the_split_loop_to_a_million(half):
    assert [perimeter_counts(2 * half)] == split_loop_counts([2 * half])


def is_least_amicable_area(area, perimeter):
    return (
        closed_form(area, perimeter) is Reason.OK
        and closed_form(area - 2, perimeter) is not Reason.OK
    )


def test_least_amicable_area_matches_the_rule_to_10000():
    for perimeter in range(4, 10_001, 2):
        assert is_least_amicable_area(least_amicable_area(perimeter), perimeter)


huge_perimeters = (
    st.integers(min_value=1, max_value=5000)
    .flatmap(lambda digits: st.integers(min_value=2, max_value=10**digits))
    .map(lambda k: 2 * k)
)


@settings(max_examples=200, deadline=None)
@given(perimeter=huge_perimeters)
def test_least_amicable_area_matches_the_rule_on_huge_perimeters(perimeter):
    assert is_least_amicable_area(least_amicable_area(perimeter), perimeter)


even_perimeters = st.integers(min_value=2, max_value=1000).map(lambda k: 2 * k)


@settings(max_examples=500)
@given(area=st.integers(min_value=1, max_value=2000), perimeter=even_perimeters)
def test_base_range_matches_scan(area, perimeter):
    bases = companion_base_range(area, perimeter)
    assert list(bases) == companion_bases_exhaustive(area, perimeter)
    assert bool(bases) == is_amicable_invariants(area, perimeter)


@st.composite
def huge_invariants(draw):
    """(area, perimeter) of up to 5000 digits, half of them at the bound."""
    digits = draw(st.integers(min_value=1, max_value=5000))
    perimeter = 2 * draw(st.integers(min_value=2, max_value=10**digits))
    if draw(st.booleans()):
        area = isqrt(16 * perimeter) + draw(st.integers(min_value=-3, max_value=3))
    else:
        area = draw(st.integers(min_value=1, max_value=10**digits))
    return area, perimeter


@settings(max_examples=200, deadline=None)
@given(huge_invariants())
def test_base_range_endpoints_on_huge_inputs(invariants):
    area, perimeter = invariants
    bases = companion_base_range(area, perimeter)
    assert bool(bases) == is_amicable_invariants(area, perimeter)
    if not bases:
        return
    half = area // 2

    def fits(b):
        return b * (half - b) >= perimeter

    assert fits(bases[0]) and fits(bases[-1])
    assert not fits(bases[0] - 1) and not fits(bases[-1] + 1)


@pytest.mark.parametrize("half", range(2, 200))
def test_splits_match_the_literal_list(half):
    # Every bound from 1 to two past the peak product floor(half^2/4).
    products = [a * (half - a) for a in range(1, half)]
    for bound in range(1, half * half // 4 + 3):
        splits = splits_at_least(half, bound)
        assert list(splits) == [a for a, p in enumerate(products, 1) if p >= bound]
        if not splits:
            assert splits.start == half // 2 + 1


@st.composite
def huge_splits(draw):
    """(half, bound) with half up to 5000 digits.  A third of the bounds lie
    within 3 of the peak product floor(half^2/4), on either side of it; a
    third are (half^2 - s^2)/4 or one off it, for an s of half's parity,
    where both roots (half -+ s)/2 are integers and an off-by-one at either
    end of the interval would show; a third lie anywhere below the peak."""
    digits = draw(st.integers(min_value=1, max_value=5000))
    half = draw(st.integers(min_value=2, max_value=10**digits))
    peak = half * half // 4
    kind = draw(st.sampled_from(["peak", "roots", "anywhere"]))
    if kind == "peak":
        bound = max(1, peak + draw(st.integers(min_value=-3, max_value=3)))
    elif kind == "roots":
        s = half - 2 * draw(st.integers(min_value=1, max_value=half // 2))
        exact = (half * half - s * s) // 4
        bound = max(1, exact + draw(st.integers(min_value=-1, max_value=1)))
    else:
        bound = draw(st.integers(min_value=1, max_value=peak))
    return half, bound


# A 5000-digit half whose bound is the product k*(half - k) at k = 10**4999:
# the roots of a^2 - half*a + bound are exactly k and half - k.
ROOTS_HALF = 4 * 10**4999 + 1
ROOTS_BOUND = 10**4999 * (ROOTS_HALF - 10**4999)


@settings(max_examples=200, deadline=None)
@given(huge_splits())
@example((2, 1))
@example((3, 2))
@example((3, 3))
@example((ROOTS_HALF, ROOTS_BOUND - 1))
@example((ROOTS_HALF, ROOTS_BOUND))
@example((ROOTS_HALF, ROOTS_BOUND + 1))
def test_split_endpoints_on_huge_inputs(splits_case):
    half, bound = splits_case
    splits = splits_at_least(half, bound)

    def fits(a):
        return a * (half - a) >= bound

    if bound > half * half // 4:
        assert not splits and splits.start == half // 2 + 1
        return
    first, last = splits.start, splits.stop - 1
    assert first <= last
    assert fits(first) and fits(last)
    assert not fits(first - 1) and not fits(last + 1)
    assert first + last == half  # symmetric about half/2


@settings(max_examples=300)
@given(area=st.integers(min_value=8, max_value=10**60), perimeter=even_perimeters)
def test_companion_base_is_the_one_the_fraction_route_picked(area, perimeter):
    if not is_amicable_invariants(area, perimeter):
        return
    base = area // 4 if area % 4 == 0 else (area + 2) // 4
    old = Parallelogram.from_base_height_side(
        base, Fraction(perimeter, base), area // 2 - base
    )
    assert companion_from_invariants(area, perimeter) == old
    assert base in companion_base_range(area, perimeter)


def sized(min_bits=1, max_bits=15_000):
    """Positive ints from min_bits to past 14,300 bits, where CPython's
    4300-digit int/str limit lies, with every bit length in reach."""
    return st.integers(min_value=min_bits, max_value=max_bits).flatmap(
        lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
    )


def near_product(a, b):
    """x at each boundary of x > a*b: a*b and 2**k for k = bl(a) + bl(b)
    - 2, - 1 and + 0, each with both neighbours."""
    size = a.bit_length() + b.bit_length()
    centres = [a * b] + [1 << k for k in (size - 2, size - 1, size)]
    return sorted({centre + step for centre in centres for step in (-1, 0, 1)})


class NoProduct(int):
    """An operand that fails the test if anything multiplies it."""

    def __mul__(self, other):
        raise AssertionError("product formed")

    __rmul__ = __mul__


@settings(max_examples=300, deadline=None)
@given(a=sized(), b=sized())
@example(a=1, b=1)
@example(a=2**14_400, b=2**14_400)
def test_exceeds_product_forms_the_product_only_within_one_bit(a, b):
    size = a.bit_length() + b.bit_length()
    for x in near_product(a, b):
        if x < 0:
            continue
        within_one_bit = x.bit_length() in (size - 1, size)
        operands = (a, b) if within_one_bit else (NoProduct(a), NoProduct(b))
        assert exceeds_product(x, *operands) is (x > a * b)


@settings(max_examples=300, deadline=None)
@given(base=sized(), side=sized())
@example(base=2**30 - 1, side=2**30 - 1)
@example(base=2**30, side=1)
@example(base=1, side=2**30)
@example(base=3**9_000, side=2**14_400 + 1)
def test_area_bound_matches_the_product_at_any_size(base, side):
    product = base * side
    for area in near_product(base, side):
        if area < 1:
            continue
        if area <= product:
            shape = Parallelogram(base, side, area)
            assert shape.area == area
            assert shape.is_rectangle is (area == product)
            continue
        with pytest.raises(AreaOutOfRange) as refused:
            Parallelogram(base, side, area)
        assert str(refused.value) == (
            f"area {int_to_decimal(area)} exceeds "
            f"base*side = {int_to_decimal(product)}"
        )


@settings(max_examples=300, deadline=None)
@given(half=sized(min_bits=2))
@example(half=2)
@example(half=3)
def test_heronian_existence_matches_the_literal_bound(half):
    low, high = half // 2, (half + 1) // 2
    cap = low * high
    for area in [-1, 0, *near_product(low, high)]:
        assert exists_heronian_with(area, 2 * half) is (1 <= area <= cap)


def test_huge_operands_are_checked_without_their_product():
    base = 1 << 3_999_999  # 4,000,000 bits, 488 KB
    side = base + 1
    tracemalloc.start()
    try:
        shape = Parallelogram(base, side, 1)
        rectangle = shape.is_rectangle
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shape.area == 1
    assert rectangle is False
    assert peak < 50_000


def short_side_loop_pairs(max_side):
    """The search amicable_rectangle_pairs ran before its closed-form solve,
    every first member a x b with a <= 16 and b <= max_side, kept verbatim
    as a reference."""
    found = {}
    for a in range(1, min(16, max_side) + 1):
        for b in range(a, max_side + 1):
            if (a * b) % 2:
                continue
            side_sum = a * b // 2
            disc = side_sum * side_sum - 8 * (a + b)
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc:
                continue
            c = (side_sum - root) // 2
            d = (side_sum + root) // 2
            key = tuple(sorted([(a, b), (c, d)]))
            found.setdefault(key, RectanglePair(key[0], key[1]))
    return sorted(found.values(), key=lambda pair: (pair.first, pair.second))


def test_rectangle_pairs_match_the_short_side_loop():
    for max_side in range(-2, 301):
        assert amicable_rectangle_pairs(max_side) == short_side_loop_pairs(max_side)


@pytest.mark.parametrize("max_side", [*range(101), 200, 300, 1000])
def test_rectangle_pairs_match_full_scan(max_side):
    assert amicable_rectangle_pairs(max_side) == amicable_rectangle_pairs_exhaustive(
        max_side
    )


def test_rectangle_pairs_are_complete_at_any_bound():
    # The solve is O(1) in max_side; a search to this bound would never end.
    assert amicable_rectangle_pairs(10**18) == amicable_rectangle_pairs()
    assert len(amicable_rectangle_pairs(10**5000)) == 7


@given(n=st.integers(min_value=0, max_value=2000))
def test_fast_doubling_matches_iteration(n):
    assert fib(n) == fib_iterative(n)
    assert lucas(n) == lucas_iterative(n)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=0, max_value=10**5))
def test_fibonacci_lucas_product_identity(n):
    assert fib(n) * lucas(n) == fib(2 * n)
