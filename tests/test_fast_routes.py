"""Each closed-form fast route against the literal search it replaced."""

from fractions import Fraction
from functools import cache
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amigram import (
    Parallelogram,
    amicable_rectangle_pairs,
    amicable_rectangle_pairs_exhaustive,
    companion_base_range,
    companion_bases_exhaustive,
    companion_from_invariants,
    count_amicable,
    count_amicable_exhaustive,
    fib,
    fib_iterative,
    is_amicable_invariants,
    lucas,
    lucas_iterative,
)

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


@pytest.mark.parametrize("max_side", [20, 200])
def test_rectangle_pairs_match_full_scan(max_side):
    assert amicable_rectangle_pairs(max_side) == amicable_rectangle_pairs_exhaustive(
        max_side
    )


@given(n=st.integers(min_value=0, max_value=2000))
def test_fast_doubling_matches_iteration(n):
    assert fib(n) == fib_iterative(n)
    assert lucas(n) == lucas_iterative(n)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=0, max_value=10**5))
def test_fibonacci_lucas_product_identity(n):
    assert fib(n) * lucas(n) == fib(2 * n)
