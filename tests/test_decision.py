"""The closed form is written once, in ``closed_form``; ``decide`` is its
checked entry, every other route answers from the rule, and the brute-force
oracle stays independent of both."""

import io
import json
import sys
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amigram.amicability as amicability
import amigram.census as census
import amigram.cli as cli
from amigram import (
    CensusRow,
    HeronianError,
    InvalidPerimeter,
    NonIntegerDimension,
    NotAmicable,
    Parallelogram,
    Reason,
    Verdict,
    ZeroDimension,
    all_companion_bases,
    census_row,
    classify,
    classify_invariants,
    companion,
    companion_base_range,
    companion_bases_exhaustive,
    companion_exists_bruteforce,
    companion_from_invariants,
    count_amicable_exhaustive,
    decide,
    enumerate_by_area,
    family_rows,
    int_to_decimal,
    is_amicable,
    is_amicable_invariants,
    non_amicable_witness_area,
    non_amicable_witness_perimeter,
)
from amigram.amicability import companion_scan
from amigram.census import CSV_HEADER


def written_out_reason(area, perimeter):
    if area % 2 == 1:
        return Reason.ODD_AREA
    if area * area < 16 * perimeter:
        return Reason.BOUND_FAIL
    return Reason.OK


@st.composite
def realizable_pairs(draw):
    """(area, perimeter) of some Heronian parallelogram, with half-perimeters
    small or of 5000 digits, and areas anywhere in range or next to the
    bound area^2 = 16*perimeter."""
    half = draw(
        st.one_of(
            st.integers(min_value=2, max_value=300),
            st.integers(min_value=10**4999, max_value=10**5000 - 1),
        )
    )
    perimeter = 2 * half
    max_area = (half // 2) * ((half + 1) // 2)
    near_bound = isqrt(16 * perimeter) + draw(st.integers(min_value=-4, max_value=4))
    area = draw(st.one_of(st.integers(min_value=1, max_value=max_area), st.just(near_bound)))
    return min(max(area, 1), max_area), perimeter


@settings(max_examples=300, deadline=None)
@given(pair=realizable_pairs())
def test_every_entry_point_agrees_with_the_written_out_closed_form(pair):
    area, perimeter = pair
    reason = written_out_reason(area, perimeter)
    assert decide(area, perimeter) is reason
    assert is_amicable_invariants(area, perimeter) is (reason is Reason.OK)
    verdict = classify_invariants(area, perimeter)
    if reason is Reason.OK:
        partner = companion_from_invariants(area, perimeter)
        assert (partner.perimeter, partner.area) == (area, perimeter)
        assert verdict == Verdict(True, Reason.OK, partner)
    else:
        assert verdict == Verdict(False, reason, None)
        with pytest.raises(NotAmicable) as exc:
            companion_from_invariants(area, perimeter)
        assert exc.value.reason is reason


def test_refusal_verdicts_are_shared_and_equal_fresh_ones():
    odd = classify(Parallelogram(3, 4, 9))
    assert odd is classify(Parallelogram(1, 9, 9))
    assert odd == Verdict(False, Reason.ODD_AREA, None)
    bound = classify(Parallelogram(42, 15, 42))
    assert bound is classify_invariants(10, 16)
    assert bound == Verdict(False, Reason.BOUND_FAIL, None)
    assert classify(Parallelogram(7, 6, 42)) is not classify(Parallelogram(7, 6, 42))


def test_bruteforce_matches_the_exhaustive_base_scan_on_a_grid():
    for perimeter in range(4, 121, 2):
        for area in range(1, 201):
            assert companion_exists_bruteforce(area, perimeter) == bool(
                companion_bases_exhaustive(area, perimeter)
            ), (area, perimeter)


def patch_every_binding(monkeypatch, name, replacement):
    """Point every amigram module's global ``name`` at ``replacement``, so
    a route that imported the function is patched along with its home."""
    real = getattr(amicability, name)
    patched = [
        module
        for module_name, module in sorted(sys.modules.items())
        if module_name.partition(".")[0] == "amigram"
        and vars(module).get(name) is real
    ]
    for module in patched:
        monkeypatch.setattr(module, name, replacement)
    return [module.__name__ for module in patched]


def test_bruteforce_does_not_consult_the_closed_form(monkeypatch):
    def refuse(area, perimeter):
        raise AssertionError("the oracle must not call decide or closed_form")

    patch_every_binding(monkeypatch, "decide", refuse)
    patch_every_binding(monkeypatch, "closed_form", refuse)
    assert companion_exists_bruteforce(42, 26) is True
    assert companion_exists_bruteforce(10, 16) is False
    assert companion_exists_bruteforce(9, 16) is False
    assert companion_scan(42, 26) is True
    assert companion_scan(10, 16) is False


def test_every_closed_form_route_answers_from_the_rule(monkeypatch):
    calls = []

    def rule(area, perimeter):
        calls.append((area, perimeter))
        return Reason.ODD_AREA

    patched = patch_every_binding(monkeypatch, "closed_form", rule)
    assert patched == ["amigram.amicability"]
    # Neither the CLI nor the census binds the rule or the scan: verify's
    # cells are verify_row's, and a census row asks is_amicable.
    for module in (cli, census):
        assert not {"closed_form", "companion_scan"} & vars(module).keys(), module

    def from_rule(route, *args):
        before = len(calls)
        result = route(*args)
        assert calls[before:] and calls[-1][1] == 26, route
        return result

    def refuses(route, *args):
        with pytest.raises(NotAmicable) as exc:
            route(*args)
        assert exc.value.reason is Reason.ODD_AREA

    shape = Parallelogram(7, 6, 42)
    assert from_rule(decide, 42, 26) is Reason.ODD_AREA
    assert from_rule(is_amicable_invariants, 42, 26) is False
    assert from_rule(classify_invariants, 42, 26) == Verdict(False, Reason.ODD_AREA, None)
    assert from_rule(classify, shape).reason is Reason.ODD_AREA
    assert from_rule(is_amicable, shape) is False
    assert from_rule(lambda s: census_row(s).amicable, shape) is False
    from_rule(refuses, companion_from_invariants, 42, 26)
    from_rule(refuses, companion, shape)
    assert from_rule(companion_base_range, 42, 26) == range(0)
    assert from_rule(all_companion_bases, shape) == []
    del calls[:]
    cells, disagreements = from_rule(amicability.verify_row, 26)
    assert calls == [(area, 26) for area in range(1, cells + 1)]
    assert disagreements == [
        (area, 26) for area in range(1, cells + 1) if companion_scan(area, 26)
    ]
    assert disagreements
    # The exhaustive census, a family row's two amicability checks and a
    # census row's printed flag each ask the rule.
    assert not any(row.amicable for row in from_rule(count_amicable_exhaustive, 26))
    del calls[:]
    (row,) = family_rows(4, 4)
    assert calls == [(42, 26), (26, 42)]
    assert row.results == (True, False, False, True, True)
    assert from_rule(CensusRow.to_csv, census_row(shape)).endswith(",false,false")
    assert '"amicable": false' in from_rule(CensusRow.to_json_text, census_row(shape))

    def cli_lines(*argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        assert (cli.run(argv, stdout, stderr), stderr.getvalue()) == (0, "")
        return stdout.getvalue().splitlines()

    for given in (["--area", "42", "--perimeter", "26"], ["--base", "7", "--side", "6"]):
        (line,) = from_rule(cli_lines, "check", *given, "--area", "42")
        assert json.loads(line)["reason"] == Reason.ODD_AREA.value
    amicable_rows = from_rule(cli_lines, "enumerate", "--perimeter", "26", "--amicable-only")
    assert amicable_rows == [CSV_HEADER]
    # Each witness leaves through the rule, asked about the shape it returns;
    # under a rule that passes every shape, no witness is left to return.
    witnesses = [
        (non_amicable_witness_area, 43),
        (non_amicable_witness_area, 42),
        (non_amicable_witness_perimeter, 26),
    ]
    for witness, value in witnesses:
        del calls[:]
        made = witness(value)
        assert calls == [(made.area, made.perimeter)], (witness, value)
    patch_every_binding(monkeypatch, "closed_form", lambda area, perimeter: Reason.OK)
    for witness, value in witnesses:
        with pytest.raises(AssertionError, match="is amicable"):
            witness(value)


@st.composite
def valid_shapes(draw):
    """Valid shapes with sides small or past CPython's 4300-digit int/str
    limit, and areas anywhere in range or next to the bound."""
    size = st.one_of(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=10**4300, max_value=10**4400),
    )
    base = draw(size)
    side = draw(size)
    near_bound = isqrt(32 * (base + side)) + draw(st.integers(min_value=-4, max_value=4))
    area = draw(
        st.one_of(st.integers(min_value=1, max_value=base * side), st.just(near_bound))
    )
    return Parallelogram(base, side, min(max(area, 1), base * side))


@settings(max_examples=200, deadline=None)
@given(shape=valid_shapes())
def test_classify_matches_classify_invariants(shape):
    area, perimeter = shape.area, shape.perimeter
    assert classify(shape) == classify_invariants(area, perimeter)
    assert is_amicable(shape) == is_amicable_invariants(area, perimeter)
    assert is_amicable(shape) is (written_out_reason(area, perimeter) is Reason.OK)


def refusal(route, *args):
    with pytest.raises(NotAmicable) as exc:
        route(*args)
    return exc.value.reason, str(exc.value)


@settings(max_examples=200, deadline=None)
@given(shape=valid_shapes())
def test_shape_companion_routes_match_the_invariant_routes(shape):
    area, perimeter = shape.area, shape.perimeter
    if is_amicable(shape):
        assert companion(shape) == companion_from_invariants(area, perimeter)
    else:
        # Same reason and byte-identical message from the bare and checked rule.
        assert refusal(companion, shape) == refusal(companion_from_invariants, area, perimeter)
    if area < 10**6:  # past that an amicable shape has too many bases to list
        assert all_companion_bases(shape) == list(companion_base_range(area, perimeter))


_NON_INTS = st.one_of(
    st.booleans(),
    st.floats(),
    st.fractions(),
    st.decimals(),
    st.text(max_size=4),
    st.none(),
)


@st.composite
def refused_pairs(draw):
    """(area, perimeter, error) that ``decide`` refuses, with the error it
    raises: a perimeter that is not an int, or is odd or below 4, with any
    area; or a good perimeter with an area that is not an int."""
    if draw(st.booleans()):
        perimeter = draw(_NON_INTS)
        error = NonIntegerDimension
    elif draw(st.booleans()):
        perimeter = draw(
            st.one_of(
                st.integers(max_value=3),
                st.integers(min_value=2).map(lambda n: 2 * n + 1),
                st.just(-(10**5000)),
                st.just(10**5000 + 1),
            )
        )
        error = InvalidPerimeter
    else:
        perimeter = 2 * draw(st.integers(min_value=2))
        return draw(_NON_INTS), perimeter, NonIntegerDimension
    return draw(st.one_of(st.integers(), _NON_INTS)), perimeter, error


@settings(max_examples=300, deadline=None)
@given(case=refused_pairs())
def test_decide_refuses_bad_input_before_the_rule(case):
    area, perimeter, error = case

    def refuse(area, perimeter):
        raise AssertionError("closed_form reached on refused input")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(amicability, "closed_form", refuse)
        with pytest.raises(HeronianError) as exc:
            decide(area, perimeter)
    assert exc.type is error


def outcome(route, *args):
    """What ``route`` returns, as a list if a range, or the class of the
    ``HeronianError`` it raises."""
    try:
        result = route(*args)
    except HeronianError as exc:
        return type(exc)
    return list(result) if isinstance(result, range) else result


_ANY_ARGUMENT = st.one_of(st.integers(max_value=3000), st.just(-(10**5000)), _NON_INTS)


@settings(max_examples=500, deadline=None)
@given(area=_ANY_ARGUMENT, perimeter=_ANY_ARGUMENT)
def test_closed_form_and_scan_agree_on_every_pair_refusals_included(area, perimeter):
    assert outcome(is_amicable_invariants, area, perimeter) == outcome(
        companion_exists_bruteforce, area, perimeter
    )
    assert outcome(companion_base_range, area, perimeter) == outcome(
        companion_bases_exhaustive, area, perimeter
    )


@pytest.mark.parametrize("area", [0, -4, -(10**5000)], ids=["0", "-4", "-1e5000"])
@pytest.mark.parametrize(
    "entry",
    [
        decide,
        is_amicable_invariants,
        companion_from_invariants,
        companion_base_range,
        companion_exists_bruteforce,
        companion_bases_exhaustive,
        enumerate_by_area,
        non_amicable_witness_area,
    ],
    ids=lambda entry: entry.__name__,
)
def test_every_checked_entry_refuses_a_non_positive_area_alike(entry, area, monkeypatch):
    def refuse(area, perimeter):
        raise AssertionError("rule reached on a non-positive area")

    patch_every_binding(monkeypatch, "closed_form", refuse)
    patch_every_binding(monkeypatch, "companion_scan", refuse)
    args = (area,) if entry is non_amicable_witness_area else (area, 4)
    with pytest.raises(ZeroDimension) as exc:
        entry(*args)
    assert str(exc.value) == "area must be positive, got " + int_to_decimal(area)


class TestImpossibleInvariants:
    @pytest.mark.parametrize(
        "area,perimeter",
        [(10**9, 26), (-4, 4), (0, 8), (43, 26), (10**5000, 26)],
        ids=["1e9-26", "-4-4", "0-8", "43-26", "1e5000-26"],
    )
    def test_classify_invariants_refuses(self, area, perimeter):
        with pytest.raises(HeronianError, match="no Heronian parallelogram has area"):
            classify_invariants(area, perimeter)

    def test_message(self):
        with pytest.raises(HeronianError) as exc:
            classify_invariants(10**9, 26)
        assert str(exc.value) == (
            "no Heronian parallelogram has area 1000000000 and perimeter 26"
        )

    def test_bad_perimeter_still_reported_as_such(self):
        with pytest.raises(InvalidPerimeter):
            classify_invariants(10, 3)

    def test_largest_area_of_a_huge_perimeter_is_accepted(self):
        half = 10**5000 + 1
        top = (half // 2) * ((half + 1) // 2)
        assert classify_invariants(top, 2 * half).amicable is True
        with pytest.raises(HeronianError):
            classify_invariants(top + 1, 2 * half)

    def test_unguarded_routes_still_answer(self):
        assert is_amicable_invariants(10**9, 26) is True
        with pytest.raises(ZeroDimension):
            decide(-4, 4)

    def test_cli_check_reports_one_line(self, capsys):
        assert cli.main(["check", "--area", "1000000000", "--perimeter", "26"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "amigram: error: no Heronian parallelogram has area 1000000000 "
            "and perimeter 26\n"
        )

    def test_cli_check_odd_perimeter_message_unchanged(self, capsys):
        assert cli.main(["check", "--area", "4", "--perimeter", "7"]) == 1
        assert capsys.readouterr().err == (
            "amigram: error: perimeter must be an even integer >= 4, got 7\n"
        )
