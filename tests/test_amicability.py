import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amigram import (
    HeronianError,
    InvalidPerimeter,
    NotAmicable,
    Parallelogram,
    Reason,
    Verdict,
    all_companion_bases,
    classify,
    classify_invariants,
    companion,
    companion_base_range,
    companion_exists_bruteforce,
    companion_from_invariants,
    exists_heronian_with,
    is_amicable,
    is_amicable_invariants,
    is_self_amicable,
    verify_pair,
)


class TestPredicate:
    @pytest.mark.parametrize(
        "triple,expect",
        [
            ((7, 6, 42), True),
            ((8, 13, 26), True),
            ((4, 4, 16), True),
            ((3, 4, 9), False),  # odd area
            ((42, 15, 42), False),  # 1764 < 16*114
            ((4, 5, 2), False),
            ((1, 1, 1), False),
        ],
    )
    def test_examples(self, triple, expect):
        assert is_amicable(Parallelogram(*triple)) is expect

    def test_boundary_is_inclusive(self):
        # 16^2 == 16*16: the bound holds with equality
        assert is_amicable_invariants(16, 16) is True
        assert is_amicable_invariants(16, 18) is False

    @pytest.mark.parametrize("perimeter", [0, 1, 2, 3, 5, -4])
    def test_impossible_perimeters_rejected(self, perimeter):
        with pytest.raises(InvalidPerimeter):
            is_amicable_invariants(10, perimeter)


class TestClassify:
    def test_amicable_verdict(self):
        verdict = classify(Parallelogram(7, 6, 42))
        assert verdict.amicable is True
        assert verdict.reason is Reason.OK
        assert verdict.companion == Parallelogram(11, 10, 26)
        assert verdict.companion.height == Fraction(26, 11)

    def test_odd_area_verdict(self):
        verdict = classify(Parallelogram(3, 4, 9))
        assert verdict == Verdict(False, Reason.ODD_AREA, None)

    def test_bound_fail_verdict(self):
        verdict = classify(Parallelogram(42, 15, 42))
        assert verdict == Verdict(False, Reason.BOUND_FAIL, None)

    @pytest.mark.parametrize(
        "amicable,reason,companion_shape",
        [
            (True, Reason.OK, None),
            (False, Reason.OK, None),
            (True, Reason.ODD_AREA, None),
            (False, Reason.BOUND_FAIL, Parallelogram(7, 6, 42)),
        ],
    )
    def test_inconsistent_verdicts_unrepresentable(
        self, amicable, reason, companion_shape
    ):
        with pytest.raises(ValueError):
            Verdict(amicable, reason, companion_shape)

    def test_json_dict(self):
        d = classify(Parallelogram(3, 4, 9)).to_json_dict()
        assert d == {"amicable": False, "reason": "ODD_AREA", "companion": None}
        d = classify(Parallelogram(7, 6, 42)).to_json_dict()
        assert d["amicable"] is True
        assert d["companion"]["base"] == "11"


class TestCompanion:
    def test_area_divisible_by_four(self):
        # 16 % 4 == 0: base is area/4 exactly
        assert companion(Parallelogram(4, 4, 16)) == Parallelogram(4, 4, 16)

    def test_area_two_mod_four_rounds_up(self):
        # 42 % 4 == 2: base is (42 + 2)/4 = 11
        c = companion(Parallelogram(7, 6, 42))
        assert c == Parallelogram(11, 10, 26)
        assert c.height == Fraction(26, 11)

    def test_round_trip_on_example_pair(self):
        h = Parallelogram(7, 6, 42)
        c = Parallelogram(8, 13, 26)
        assert verify_pair(h, c)
        assert verify_pair(c, h)
        assert companion(c) == h

    def test_self_amicable_shape_maps_into_own_pair_class(self):
        # companion base of area 18 is 5, giving the other perimeter-18
        # equable shape
        c = companion(Parallelogram(3, 6, 18))
        assert c == Parallelogram(5, 4, 18)
        assert c.canonical_key == Parallelogram(4, 5, 18).canonical_key

    def test_exact_bound_equality(self):
        # 8^2 == 16*4: the peak base is the only slack-free witness
        assert companion_from_invariants(8, 4) == Parallelogram(2, 2, 4)

    def test_odd_area_raises_with_reason(self):
        with pytest.raises(NotAmicable) as exc:
            companion_from_invariants(9, 16)
        assert exc.value.reason is Reason.ODD_AREA

    def test_bound_fail_raises_with_reason(self):
        with pytest.raises(NotAmicable) as exc:
            companion_from_invariants(10, 16)
        assert exc.value.reason is Reason.BOUND_FAIL


class TestCompanionBases:
    def test_example_range(self):
        bases = all_companion_bases(Parallelogram(7, 6, 42))
        assert bases == list(range(2, 20))

    def test_every_listed_base_builds_a_partner(self):
        shape = Parallelogram(7, 6, 42)
        for b in all_companion_bases(shape):
            partner = Parallelogram.from_base_height_side(
                b, Fraction(shape.perimeter, b), shape.area // 2 - b
            )
            assert verify_pair(shape, partner)

    def test_empty_for_non_amicable(self):
        assert all_companion_bases(Parallelogram(3, 4, 9)) == []
        assert all_companion_bases(Parallelogram(4, 5, 2)) == []

    def test_more_bases_than_a_list_holds_is_refused(self):
        side = 10**4000
        shape = Parallelogram(side, side, 2 * side)  # (2s)^2 >= 16 * 4s
        bases = companion_base_range(shape.area, shape.perimeter)
        assert bases.stop - bases.start > sys.maxsize
        with pytest.raises(HeronianError, match="companion_base_range"):
            all_companion_bases(shape)


class TestSelfAmicable:
    @pytest.mark.parametrize(
        "triple,expect",
        [
            ((4, 4, 16), True),
            ((3, 6, 18), True),
            ((4, 5, 18), True),
            ((7, 6, 42), False),
        ],
    )
    def test_examples(self, triple, expect):
        assert is_self_amicable(Parallelogram(*triple)) is expect


class TestExistsHeronianWith:
    @pytest.mark.parametrize(
        "area,perimeter,expect",
        [
            (42, 26, True),  # 6*7 split
            (43, 26, False),  # above floor(13/2)*ceil(13/2)
            (1, 4, True),
            (2, 4, False),
            (10, 7, False),  # odd perimeter
            (10, 2, False),
        ],
    )
    def test_examples(self, area, perimeter, expect):
        assert exists_heronian_with(area, perimeter) is expect

    def test_matches_enumeration(self):
        # realizability table vs a literal scan over side splits
        for perimeter in range(4, 41, 2):
            half = perimeter // 2
            best = max(s * (half - s) for s in range(1, half))
            for area in range(1, best + 3):
                expect = any(
                    area <= s * (half - s) for s in range(1, half // 2 + 1)
                )
                assert exists_heronian_with(area, perimeter) is expect


def test_predicate_agrees_with_bruteforce_on_small_grid():
    # quick version of the full acceptance sweep
    for perimeter in range(4, 81, 2):
        half = perimeter // 2
        max_area = (half // 2) * ((half + 1) // 2)
        for area in range(1, max_area + 1):
            assert is_amicable_invariants(
                area, perimeter
            ) == companion_exists_bruteforce(area, perimeter)


sides = st.integers(min_value=1, max_value=80)


@settings(max_examples=200)
@given(base=sides, side=sides, data=st.data())
def test_verdict_depends_only_on_area_and_perimeter(base, side, data):
    area = data.draw(st.integers(min_value=1, max_value=base * side))
    p = Parallelogram(base, side, area)
    assert classify(p) == classify(p.swapped())
    assert is_amicable(p) == is_amicable(p.swapped())


@settings(max_examples=200)
@given(base=sides, side=sides, data=st.data())
def test_companion_is_a_true_partner(base, side, data):
    area = data.draw(st.integers(min_value=1, max_value=base * side))
    p = Parallelogram(base, side, area)
    if not is_amicable(p):
        with pytest.raises(NotAmicable):
            companion(p)
        return
    c = companion(p)
    assert verify_pair(p, c)
    assert verify_pair(c, p)
    assert c.height <= c.side
    # partners of realizable shapes are amicable in turn
    assert is_amicable(c)


@settings(max_examples=100)
@given(
    first=st.tuples(sides, sides),
    second=st.tuples(sides, sides),
    data=st.data(),
)
def test_verify_pair_symmetry(first, second, data):
    a1 = data.draw(st.integers(min_value=1, max_value=first[0] * first[1]))
    a2 = data.draw(st.integers(min_value=1, max_value=second[0] * second[1]))
    p = Parallelogram(first[0], first[1], a1)
    q = Parallelogram(second[0], second[1], a2)
    assert verify_pair(p, q) == verify_pair(q, p)
