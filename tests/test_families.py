from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amigram import (
    FamilyEntry,
    HeronianError,
    IndexTooSmall,
    Parallelogram,
    cli,
    families,
    family_pair,
    family_rows,
    fib,
    is_amicable,
    lucas,
    verify_family,
    verify_pair,
)
from amigram.families import _fib_pair, fib_iterative, lucas_iterative

# frozen initial segments, from the defining recurrences
FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]
LUCAS = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322, 521, 843]


class TestSequences:
    def test_fib_prefix(self):
        assert [fib(n) for n in range(len(FIB))] == FIB

    def test_lucas_prefix(self):
        assert [lucas(n) for n in range(len(LUCAS))] == LUCAS

    def test_spot_values(self):
        assert fib(20) == 6765
        assert fib(50) == 12586269025
        assert lucas(20) == 15127

    @pytest.mark.parametrize("f", [fib, lucas])
    def test_negative_index_rejected(self, f):
        with pytest.raises(ValueError):
            f(-1)

    def test_recurrences_deep(self):
        for n in range(2, 300):
            assert fib(n) == fib(n - 1) + fib(n - 2)
            assert lucas(n) == lucas(n - 1) + lucas(n - 2)

    def test_classical_identities(self):
        for n in range(1, 61):
            assert lucas(n) == fib(n - 1) + fib(n + 1)
            assert fib(n) * lucas(n) == fib(2 * n)
            # the cross equality behind the partner's area
            assert 4 * fib(n) + 2 * lucas(n) == 2 * fib(n + 3)


class TestFamilyPair:
    def test_index_4(self):
        entry = family_pair(4)
        assert entry.rectangle == Parallelogram(7, 6, 42)
        assert entry.partner == Parallelogram(8, 13, 26)
        assert entry.partner.height == Fraction(13, 4)
        assert verify_pair(entry.rectangle, entry.partner)

    def test_index_5(self):
        entry = family_pair(5)
        assert entry.rectangle == Parallelogram(11, 10, 110)
        assert entry.partner == Parallelogram(21, 34, 42)
        assert entry.partner.height == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_indices_rejected(self, n):
        with pytest.raises(IndexTooSmall):
            family_pair(n)

    def test_rectangle_member_is_a_rectangle(self):
        for n in range(4, 30):
            entry = family_pair(n)
            assert entry.rectangle.is_rectangle
            assert not entry.partner.is_rectangle

    def test_members_are_distinct_shapes_across_indices(self):
        keys = set()
        for n in range(4, 61):
            entry = family_pair(n)
            keys.add(entry.rectangle.canonical_key)
            keys.add(entry.partner.canonical_key)
        assert len(keys) == 2 * 57

    def test_rectangle_areas_strictly_increase(self):
        areas = [family_pair(n).rectangle.area for n in range(4, 61)]
        assert all(a < b for a, b in zip(areas, areas[1:]))


class TestVerifyFamily:
    def test_single_index(self):
        (row,) = verify_family(4, 4)
        assert row.passed
        assert row.entry.n == 4
        assert set(row.checks) == {
            "pair",
            "amicable_h",
            "amicable_c",
            "identity",
            "existence_bound",
        }

    def test_full_acceptance_range(self):
        rows = verify_family(4, 60)
        assert len(rows) == 57
        assert all(row.passed for row in rows)

    def test_big_index_exact_arithmetic(self):
        (row,) = verify_family(150, 150)
        assert row.passed
        assert row.entry.rectangle.area == 2 * fib(300)

    def test_start_below_4_rejected(self):
        with pytest.raises(IndexTooSmall):
            verify_family(3, 5)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            verify_family(5, 4)

    def test_members_amicable_by_direct_test(self):
        for row in verify_family(4, 20):
            assert is_amicable(row.entry.rectangle)
            assert is_amicable(row.entry.partner)

    def test_json_row_shape(self):
        (row,) = verify_family(4, 4)
        d = row.to_json_dict()
        assert d["n"] == 4
        assert d["h"]["base"] == "7"
        assert d["c"]["base"] == "8"
        assert d["c"]["height"] == {"num": "13", "den": "4"}
        assert d["checks"] == {
            "pair": True,
            "amicable_h": True,
            "amicable_c": True,
            "identity": True,
            "existence_bound": True,
        }


def reference_entry(n):
    """The entry at index n, from the n-step oracles alone."""
    f, ell = fib_iterative(n), lucas_iterative(n)
    return FamilyEntry(
        n,
        Parallelogram(ell, 2 * f, 2 * f * ell),
        Parallelogram(fib_iterative(2 * n - 2), fib_iterative(2 * n - 1), 2 * fib_iterative(n + 3)),
    )


ALL_PASS = dict.fromkeys(
    ["pair", "amicable_h", "amicable_c", "identity", "existence_bound"], True
)


@st.composite
def family_ranges(draw):
    start = draw(st.integers(4, 400))
    return start, draw(st.integers(start, start + 40))


class TestRowsAgainstTheOracles:
    """Every row equals one built from ``fib_iterative``/``lucas_iterative``:
    the seeded recurrences in ``verify_family`` stay in step with the
    doubling construction at every index of a range."""

    @staticmethod
    def check(start, stop):
        rows = verify_family(start, stop)
        assert [row.entry.n for row in rows] == list(range(start, stop + 1))
        for row in rows:
            assert row.entry == reference_entry(row.entry.n)
            assert row.checks == ALL_PASS

    @settings(max_examples=40, deadline=None)
    @given(family_ranges())
    def test_small_ranges(self, bounds):
        self.check(*bounds)

    def test_range_past_the_str_digit_limit(self):
        self.check(11000, 11003)


class TestPartnerDoublingStep:
    """``family_pair`` takes the partner's base and side (F(2n-2), F(2n-1))
    one doubling step from (F(n-1), F(n)), not from a doubling pass of its
    own."""

    @settings(deadline=None)
    @given(st.integers(4, 5000))
    @example(11000)  # past the int/str digit limit
    def test_entry_matches_the_oracles(self, n):
        assert family_pair(n) == reference_entry(n)

    def test_partner_matches_a_full_doubling_pass(self):
        for n in range(4, 2001):
            partner = family_pair(n).partner
            assert (partner.base, partner.side) == _fib_pair(2 * n - 2)


def corrupt_at(monkeypatch, name, index):
    """Make ``families.<name>`` off by one at ``index`` only."""
    real = getattr(families, name)

    def corrupted(n):
        value = real(n)
        if n != index:
            return value
        if name == "lucas":
            return value + 1
        return value[0] + 1, value[1]

    monkeypatch.setattr(families, name, corrupted)


class TestCorruptedValuesAreCaught:
    START, STOP = 10, 20

    @pytest.mark.parametrize("name", ["lucas", "_fib_pair"])
    @pytest.mark.parametrize("offset", [0, 5], ids=["first", "middle"])
    def test_row_fails_and_cli_exits_2(self, monkeypatch, capsys, name, offset):
        index = self.START + offset
        corrupt_at(monkeypatch, name, index)
        rows = verify_family(self.START, self.STOP)
        if offset == 0:
            # The seeds come from the corrupted function too.
            assert not rows[0].checks["identity"]
        else:
            # Past the seeds only the entry is wrong: the cross equality
            # catches it, the stepped values do not share the error, and
            # no other row is touched.
            assert rows[offset].checks == {**ALL_PASS, "pair": False}
            assert [row.passed for row in rows] == [
                n != index for n in range(self.START, self.STOP + 1)
            ]
        code = cli.main(["family", "--from", str(self.START), "--to", str(self.STOP)])
        assert code == 2
        assert len(capsys.readouterr().out.splitlines()) == self.STOP - self.START + 1

    @pytest.mark.parametrize(
        "check, name, fails",
        [
            ("pair", "verify_pair", lambda rectangle, partner: True),
            ("amicable_h", "is_amicable", lambda shape: shape.is_rectangle),
            ("amicable_c", "is_amicable", lambda shape: not shape.is_rectangle),
        ],
        ids=["pair", "amicable_h", "amicable_c"],
    )
    def test_a_failing_check_is_reported_under_its_own_name(self, monkeypatch, check, name, fails):
        real = getattr(families, name)
        monkeypatch.setattr(
            families, name, lambda *shapes: False if fails(*shapes) else real(*shapes)
        )
        for row in verify_family(self.START, self.STOP):
            assert row.checks == {**ALL_PASS, check: False}
            assert row.to_json_dict()["checks"] == {**ALL_PASS, check: False}


@pytest.mark.parametrize("rows", [verify_family, family_rows])
class TestRangeErrorsComeFirst:
    """Bad ranges raise before any seed is computed, with the same error
    class and message as a per-index check would give.  ``family_rows``
    raises when it is called, not at the first ``next()``."""

    @pytest.mark.parametrize(
        "start, stop, error, message",
        [
            (3, 5, IndexTooSmall, "family is defined for n >= 4, got 3"),
            (0, 4, IndexTooSmall, "family is defined for n >= 4, got 0"),
            (-(10**5000), 4, IndexTooSmall, "family is defined for n >= 4, got -1" + "0" * 5000),
            (5, 4, HeronianError, "empty range: stop 4 is below start 5"),
        ],
        ids=["three", "zero", "huge_negative", "empty"],
    )
    def test_error(self, rows, start, stop, error, message):
        with pytest.raises(HeronianError) as exc:
            rows(start, stop)
        assert type(exc.value) is error
        assert str(exc.value) == message


def test_family_rows_are_computed_as_they_are_read():
    # A range no list could hold: only the rows read are computed.
    rows = family_rows(4, 10**100)
    assert [next(rows), next(rows)] == verify_family(4, 5)
